//! Version 2 of the newline-delimited JSON wire protocol of the
//! multi-tenant market server.
//!
//! # The envelope
//!
//! Every request is one JSON object per line carrying `"v": 2` (the
//! protocol version — requests without it, including every v1-shaped
//! request, are rejected with [`ErrorCode::BadRequest`]), a `"verb"`
//! field, and optionally a client-chosen `"id"` (string or integer)
//! echoed verbatim in every reply line the request produces. Fields
//! outside a verb's vocabulary are rejected — a typoed knob must fail
//! loudly instead of silently running with defaults.
//!
//! Every reply line carries `"ok"` and `"v": 2`. Success replies echo
//! the `"verb"`; error replies carry a structured
//! `"error": {"code", "message"}` object whose `code` is one of the
//! machine-readable [`ErrorCode`] names.
//!
//! # Verbs
//!
//! The server hosts a **session table** of resident markets. `load`
//! creates a session and returns its server-assigned id (`"m1"`,
//! `"m2"`, … — ids are assigned by a monotonic counter, so the first
//! load of a fresh server is always `"m1"`); every market-scoped verb
//! then names its target via the required `"market"` field.
//!
//! | verb | request fields | reply |
//! |------|----------------|-------|
//! | `load` | `market` (object, loader-defined) **or** `checkpoint` (path) | session summary with the assigned `market` id |
//! | `unload` | `market` | ack with the destroyed session's summary |
//! | `list` | — | array of session summaries |
//! | `advise` | `market`, `asn` (required), `top` (default 10) | ranked [`pan_core::PairOutcome`]s + `cached` flag |
//! | `step` | `market`, `rounds` (default 1), `shock` (optional; replaces the market's shock for this request's rounds only) | `round` lines + summary |
//! | `snapshot` | `market`, `path` | bytes written |
//! | `restore` | `market`, `path` | session summary (state replaced in place) |
//! | `stats` | `market` (optional) | per-market counters, or process totals + all sessions |
//! | `metrics` | — | telemetry registry snapshot: per-verb latency histograms, per-market advise-cache hit rates, engine phase timings |
//! | `quit` | — | ack, then the server shuts down |
//!
//! `step` additionally streams one `"round"` line per evolution round
//! before its closing summary — the only multi-line reply.
//!
//! Replies are **deterministic at any thread count** — wall-clock goes
//! to the server's stderr log and the per-round `seconds` field only
//! (the same field the batch `evolve` trajectory records). The
//! `cached` flag of `advise` is deterministic too: it depends only on
//! the request sequence, never on timing.

use serde::{Serialize, Value};

/// Protocol version this module speaks; requests must carry it as
/// `"v"` and replies echo it.
pub const PROTOCOL_VERSION: u64 = 2;

/// Machine-readable error categories of the v2 protocol — the `code`
/// field of every error reply. The names on the wire are the
/// [`as_str`](Self::as_str) forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Malformed JSON, missing/unsupported `v`, missing or mis-typed
    /// fields, fields outside the verb's vocabulary.
    BadRequest,
    /// The `verb` field names no known verb.
    UnknownVerb,
    /// The `market` field names no resident session.
    UnknownMarket,
    /// `load` refused: the session table is at its `--max-markets` cap.
    MarketLimit,
    /// A checkpoint failed to read, parse, or validate.
    CorruptCheckpoint,
    /// A market spec or config override failed validation.
    InvalidConfig,
    /// Candidate evaluation or round stepping failed at runtime.
    EvaluationFailed,
    /// A server-side filesystem operation failed (snapshot writes).
    IoError,
}

impl ErrorCode {
    /// Every code, in wire-name order — the indexing base for the
    /// per-code reply counters the `stats` verb reports.
    pub const ALL: [ErrorCode; 8] = [
        ErrorCode::BadRequest,
        ErrorCode::UnknownVerb,
        ErrorCode::UnknownMarket,
        ErrorCode::MarketLimit,
        ErrorCode::CorruptCheckpoint,
        ErrorCode::InvalidConfig,
        ErrorCode::EvaluationFailed,
        ErrorCode::IoError,
    ];

    /// The code's position in [`ALL`](Self::ALL).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            ErrorCode::BadRequest => 0,
            ErrorCode::UnknownVerb => 1,
            ErrorCode::UnknownMarket => 2,
            ErrorCode::MarketLimit => 3,
            ErrorCode::CorruptCheckpoint => 4,
            ErrorCode::InvalidConfig => 5,
            ErrorCode::EvaluationFailed => 6,
            ErrorCode::IoError => 7,
        }
    }

    /// The wire name of the code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownVerb => "unknown_verb",
            ErrorCode::UnknownMarket => "unknown_market",
            ErrorCode::MarketLimit => "market_limit",
            ErrorCode::CorruptCheckpoint => "corrupt_checkpoint",
            ErrorCode::InvalidConfig => "invalid_config",
            ErrorCode::EvaluationFailed => "evaluation_failed",
            ErrorCode::IoError => "io_error",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured protocol error: the machine-readable code plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds an error.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }

    /// Shorthand for the most common category.
    #[must_use]
    pub fn bad_request(message: impl Into<String>) -> Self {
        WireError::new(ErrorCode::BadRequest, message)
    }
}

/// A server-assigned market-session id. On the wire it reads `"m<n>"`
/// (`"m1"`, `"m2"`, …); ids are assigned by a per-server monotonic
/// counter and never reused within a server's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MarketId(pub u64);

impl std::fmt::Display for MarketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl MarketId {
    /// Parses the wire form (`"m<n>"`).
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::BadRequest`] for anything else — a
    /// mis-shaped id is a vocabulary error; only a *well-formed* id
    /// that names no session is [`ErrorCode::UnknownMarket`].
    pub fn parse(text: &str) -> Result<MarketId, WireError> {
        let digits = text.strip_prefix('m').unwrap_or("");
        match digits.parse::<u64>() {
            Ok(n) if !digits.starts_with('+') => Ok(MarketId(n)),
            _ => Err(WireError::bad_request(format!(
                "market ids look like \"m1\", got {text:?}"
            ))),
        }
    }

    /// The id as a wire [`Value`].
    #[must_use]
    pub fn to_value(self) -> Value {
        Value::Str(self.to_string())
    }
}

/// A parsed v2 request: the verb payload plus the envelope's optional
/// client `id`, echoed in every reply line.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-chosen request id (string or integer), echoed verbatim.
    pub id: Option<Value>,
    /// The verb payload.
    pub request: Request,
}

/// A parsed client request (see the [module docs](self) for the verb
/// table).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Create a market session: from a loader-defined synthetic spec or
    /// from a checkpoint file.
    Load {
        /// Loader-defined market description (`{}` for the defaults).
        /// Mutually exclusive with `checkpoint`.
        market: Option<Value>,
        /// Path of a [`pan_core::MarketSnapshot`] checkpoint.
        checkpoint: Option<String>,
    },
    /// Destroy a market session.
    Unload {
        /// The session to destroy.
        market: MarketId,
    },
    /// Summaries of every resident session.
    List,
    /// Top-K profitable agreements involving one AS of one market.
    Advise {
        /// The session to query.
        market: MarketId,
        /// The AS to advise.
        asn: u32,
        /// Outcomes to return (0 = all).
        top: usize,
    },
    /// Run evolution rounds on one market, streaming one line per round.
    Step {
        /// The session to step.
        market: MarketId,
        /// Rounds to run.
        rounds: usize,
        /// Shock-magnitude override for this request's rounds only;
        /// later steps use the market's own shock again.
        shock: Option<f64>,
    },
    /// Write one market to a checkpoint file.
    Snapshot {
        /// The session to checkpoint.
        market: MarketId,
        /// Destination path (server-side).
        path: String,
    },
    /// Replace one market's state from a checkpoint file (the session
    /// keeps its id and counters; the advise cache is invalidated).
    Restore {
        /// The session to restore into.
        market: MarketId,
        /// Source path (server-side).
        path: String,
    },
    /// Statistics: per-market counters when `market` is given, process
    /// totals plus all session summaries otherwise.
    Stats {
        /// The session to report on, or `None` for process totals.
        market: Option<MarketId>,
    },
    /// The live telemetry registry snapshot plus per-market cache
    /// counters — the observability surface of a resident server.
    Metrics,
    /// Shut the server down cleanly.
    Quit,
}

impl Request {
    /// The verb name of this request — the label its latency histogram
    /// (`serve.verb.<verb>_ns`) records under.
    #[must_use]
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Load { .. } => "load",
            Request::Unload { .. } => "unload",
            Request::List => "list",
            Request::Advise { .. } => "advise",
            Request::Step { .. } => "step",
            Request::Snapshot { .. } => "snapshot",
            Request::Restore { .. } => "restore",
            Request::Stats { .. } => "stats",
            Request::Metrics => "metrics",
            Request::Quit => "quit",
        }
    }
}

/// Looks up an object field (unlike [`Value::field`], absence is `None`,
/// not an error — most protocol fields are optional).
fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn get_str(value: &Value, key: &str) -> Result<Option<String>, WireError> {
    match get(value, key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(WireError::bad_request(format!(
            "field {key:?} must be a string, got {}",
            other.kind()
        ))),
    }
}

fn get_usize(value: &Value, key: &str) -> Result<Option<usize>, WireError> {
    match get(value, key) {
        None => Ok(None),
        Some(Value::I64(n)) if *n >= 0 => Ok(Some(*n as usize)),
        Some(Value::U64(n)) => Ok(Some(*n as usize)),
        Some(other) => Err(WireError::bad_request(format!(
            "field {key:?} must be a non-negative integer, got {}",
            other.kind()
        ))),
    }
}

fn get_f64(value: &Value, key: &str) -> Result<Option<f64>, WireError> {
    match get(value, key) {
        None => Ok(None),
        Some(Value::F64(x)) => Ok(Some(*x)),
        Some(Value::I64(n)) => Ok(Some(*n as f64)),
        Some(Value::U64(n)) => Ok(Some(*n as f64)),
        Some(other) => Err(WireError::bad_request(format!(
            "field {key:?} must be a number, got {}",
            other.kind()
        ))),
    }
}

/// The required `market` field of a market-scoped verb.
fn get_market(value: &Value) -> Result<MarketId, WireError> {
    match get_str(value, "market")? {
        Some(text) => MarketId::parse(&text),
        None => Err(WireError::bad_request(
            "this verb requires a \"market\" field (the id \"load\" returned)",
        )),
    }
}

/// Rejects fields outside the verb's vocabulary. The envelope fields
/// (`v`, `verb`, `id`) are always allowed.
fn check_fields(value: &Value, allowed: &[&str]) -> Result<(), WireError> {
    if let Value::Map(entries) = value {
        for (key, _) in entries {
            if !matches!(key.as_str(), "v" | "verb" | "id") && !allowed.contains(&key.as_str()) {
                return Err(WireError::bad_request(format!(
                    "unknown field {key:?}; this verb accepts {allowed:?}"
                )));
            }
        }
    }
    Ok(())
}

/// Validates the envelope: `"v": 2` (required — this is what rejects
/// v1-shaped requests) and an optional scalar `"id"`.
fn check_envelope(value: &Value) -> Result<Option<Value>, WireError> {
    match get(value, "v") {
        Some(Value::I64(2)) | Some(Value::U64(2)) => {}
        Some(other) => {
            return Err(WireError::bad_request(format!(
                "unsupported protocol version {}; this server speaks v{PROTOCOL_VERSION}",
                other.sort_key()
            )));
        }
        None => {
            return Err(WireError::bad_request(format!(
                "request carries no \"v\" field; this server speaks v{PROTOCOL_VERSION} \
                 (v1-shaped requests are not accepted)"
            )));
        }
    }
    match get(value, "id") {
        None | Some(Value::Null) => Ok(None),
        Some(id @ (Value::Str(_) | Value::I64(_) | Value::U64(_))) => Ok(Some(id.clone())),
        Some(other) => Err(WireError::bad_request(format!(
            "field \"id\" must be a string or integer, got {}",
            other.kind()
        ))),
    }
}

impl Request {
    /// Parses one request line into its envelope.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] — [`ErrorCode::BadRequest`] for
    /// malformed JSON, a missing/unsupported version, missing required
    /// fields, or fields outside the verb's vocabulary;
    /// [`ErrorCode::UnknownVerb`] for an unrecognized verb.
    pub fn parse(line: &str) -> Result<Envelope, WireError> {
        let value: Value = serde_json::from_str(line)
            .map_err(|e| WireError::bad_request(format!("malformed request: {e}")))?;
        let id = check_envelope(&value)?;
        let verb = get_str(&value, "verb")?
            .ok_or_else(|| WireError::bad_request("request must carry a \"verb\" field"))?;
        let request = match verb.as_str() {
            "load" => {
                check_fields(&value, &["market", "checkpoint"])?;
                let market = get(&value, "market").cloned();
                let checkpoint = get_str(&value, "checkpoint")?;
                if market.is_some() && checkpoint.is_some() {
                    return Err(WireError::bad_request(
                        "load takes either \"market\" (a spec object) or \"checkpoint\", not both",
                    ));
                }
                Request::Load { market, checkpoint }
            }
            "unload" => {
                check_fields(&value, &["market"])?;
                Request::Unload {
                    market: get_market(&value)?,
                }
            }
            "list" => {
                check_fields(&value, &[])?;
                Request::List
            }
            "advise" => {
                check_fields(&value, &["market", "asn", "top"])?;
                let market = get_market(&value)?;
                let asn = get_usize(&value, "asn")?
                    .ok_or_else(|| WireError::bad_request("advise requires an \"asn\" field"))?;
                let asn = u32::try_from(asn)
                    .map_err(|_| WireError::bad_request(format!("asn {asn} exceeds u32")))?;
                let top = get_usize(&value, "top")?.unwrap_or(10);
                Request::Advise { market, asn, top }
            }
            "step" => {
                check_fields(&value, &["market", "rounds", "shock"])?;
                let market = get_market(&value)?;
                let rounds = get_usize(&value, "rounds")?.unwrap_or(1);
                if rounds == 0 {
                    return Err(WireError::bad_request("step requires rounds >= 1"));
                }
                let shock = get_f64(&value, "shock")?;
                Request::Step {
                    market,
                    rounds,
                    shock,
                }
            }
            "snapshot" | "restore" => {
                check_fields(&value, &["market", "path"])?;
                let market = get_market(&value)?;
                let path = get_str(&value, "path")?.ok_or_else(|| {
                    WireError::bad_request(format!("{verb} requires a \"path\" field"))
                })?;
                if verb == "snapshot" {
                    Request::Snapshot { market, path }
                } else {
                    Request::Restore { market, path }
                }
            }
            "stats" => {
                check_fields(&value, &["market"])?;
                let market = match get_str(&value, "market")? {
                    Some(text) => Some(MarketId::parse(&text)?),
                    None => None,
                };
                Request::Stats { market }
            }
            "metrics" => {
                check_fields(&value, &[])?;
                Request::Metrics
            }
            "quit" => {
                check_fields(&value, &[])?;
                Request::Quit
            }
            other => {
                return Err(WireError::new(
                    ErrorCode::UnknownVerb,
                    format!(
                        "unknown verb {other:?}; known: load, unload, list, advise, step, \
                         snapshot, restore, stats, metrics, quit"
                    ),
                ));
            }
        };
        Ok(Envelope { id, request })
    }
}

/// Builds a JSON object from field pairs (insertion order is the wire
/// order, so replies are byte-deterministic).
#[must_use]
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_owned(), value))
            .collect(),
    )
}

/// Serializes any value onto the wire data model.
#[must_use]
pub fn to_value<T: Serialize>(value: &T) -> Value {
    value.to_value()
}

/// One successful reply line:
/// `{"ok":true,"v":2,"verb":...,("id":...,)? <fields>}`.
#[must_use]
pub fn reply_ok(id: Option<&Value>, verb: &str, fields: Vec<(&str, Value)>) -> String {
    let mut all = vec![
        ("ok".to_owned(), Value::Bool(true)),
        ("v".to_owned(), Value::U64(PROTOCOL_VERSION)),
        ("verb".to_owned(), Value::Str(verb.to_owned())),
    ];
    if let Some(id) = id {
        all.push(("id".to_owned(), id.clone()));
    }
    all.extend(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_owned(), value)),
    );
    serde_json::to_string(&Value::Map(all)).expect("replies serialize")
}

/// One error reply line:
/// `{"ok":false,"v":2,("id":...,)?"error":{"code":...,"message":...}}`.
#[must_use]
pub fn reply_error(id: Option<&Value>, error: &WireError) -> String {
    let mut all = vec![
        ("ok".to_owned(), Value::Bool(false)),
        ("v".to_owned(), Value::U64(PROTOCOL_VERSION)),
    ];
    if let Some(id) = id {
        all.push(("id".to_owned(), id.clone()));
    }
    all.push((
        "error".to_owned(),
        object(vec![
            ("code", Value::Str(error.code.as_str().to_owned())),
            ("message", Value::Str(error.message.clone())),
        ]),
    ));
    serde_json::to_string(&Value::Map(all)).expect("replies serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Request {
        let envelope = Request::parse(line).unwrap();
        assert_eq!(envelope.id, None);
        envelope.request
    }

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse(r#"{"v":2,"verb":"load"}"#),
            Request::Load {
                market: None,
                checkpoint: None
            }
        );
        assert_eq!(
            parse(r#"{"v":2,"verb":"load","market":{"ases":500}}"#),
            Request::Load {
                market: Some(Value::Map(vec![("ases".to_owned(), Value::I64(500))])),
                checkpoint: None
            }
        );
        assert_eq!(
            parse(r#"{"v":2,"verb":"load","checkpoint":"state.json"}"#),
            Request::Load {
                market: None,
                checkpoint: Some("state.json".to_owned())
            }
        );
        assert_eq!(
            parse(r#"{"v":2,"verb":"unload","market":"m2"}"#),
            Request::Unload {
                market: MarketId(2)
            }
        );
        assert_eq!(parse(r#"{"v":2,"verb":"list"}"#), Request::List);
        assert_eq!(
            parse(r#"{"v":2,"verb":"advise","market":"m1","asn":77}"#),
            Request::Advise {
                market: MarketId(1),
                asn: 77,
                top: 10
            }
        );
        assert_eq!(
            parse(r#"{"v":2,"verb":"advise","market":"m1","asn":77,"top":0}"#),
            Request::Advise {
                market: MarketId(1),
                asn: 77,
                top: 0
            }
        );
        assert_eq!(
            parse(r#"{"v":2,"verb":"step","market":"m1"}"#),
            Request::Step {
                market: MarketId(1),
                rounds: 1,
                shock: None
            }
        );
        assert_eq!(
            parse(r#"{"v":2,"verb":"step","market":"m3","rounds":3,"shock":0.2}"#),
            Request::Step {
                market: MarketId(3),
                rounds: 3,
                shock: Some(0.2)
            }
        );
        assert_eq!(
            parse(r#"{"v":2,"verb":"snapshot","market":"m1","path":"s.json"}"#),
            Request::Snapshot {
                market: MarketId(1),
                path: "s.json".to_owned()
            }
        );
        assert_eq!(
            parse(r#"{"v":2,"verb":"restore","market":"m1","path":"s.json"}"#),
            Request::Restore {
                market: MarketId(1),
                path: "s.json".to_owned()
            }
        );
        assert_eq!(
            parse(r#"{"v":2,"verb":"stats"}"#),
            Request::Stats { market: None }
        );
        assert_eq!(
            parse(r#"{"v":2,"verb":"stats","market":"m1"}"#),
            Request::Stats {
                market: Some(MarketId(1))
            }
        );
        assert_eq!(parse(r#"{"v":2,"verb":"metrics"}"#), Request::Metrics);
        assert_eq!(parse(r#"{"v":2,"verb":"quit"}"#), Request::Quit);
    }

    #[test]
    fn verbs_name_themselves() {
        assert_eq!(parse(r#"{"v":2,"verb":"metrics"}"#).verb(), "metrics");
        assert_eq!(parse(r#"{"v":2,"verb":"list"}"#).verb(), "list");
        assert_eq!(
            parse(r#"{"v":2,"verb":"stats","market":"m1"}"#).verb(),
            "stats"
        );
    }

    #[test]
    fn error_codes_index_their_table() {
        for (i, code) in ErrorCode::ALL.iter().enumerate() {
            assert_eq!(code.index(), i, "{code}");
        }
    }

    #[test]
    fn echoes_request_ids() {
        let envelope = Request::parse(r#"{"v":2,"id":"req-7","verb":"list"}"#).unwrap();
        assert_eq!(envelope.id, Some(Value::Str("req-7".to_owned())));
        let envelope = Request::parse(r#"{"v":2,"id":42,"verb":"quit"}"#).unwrap();
        assert_eq!(envelope.id, Some(Value::I64(42)));
        // A null id is the same as no id.
        let envelope = Request::parse(r#"{"v":2,"id":null,"verb":"quit"}"#).unwrap();
        assert_eq!(envelope.id, None);
        let reply = reply_ok(Some(&Value::Str("req-7".to_owned())), "list", Vec::new());
        assert_eq!(reply, r#"{"ok":true,"v":2,"verb":"list","id":"req-7"}"#);
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, code, expected) in [
            ("not json", ErrorCode::BadRequest, "malformed request"),
            ("42", ErrorCode::BadRequest, "no \"v\" field"),
            // v1-shaped requests (no envelope) are rejected, not
            // half-understood.
            (
                r#"{"verb":"stats"}"#,
                ErrorCode::BadRequest,
                "v1-shaped requests are not accepted",
            ),
            (
                r#"{"v":1,"verb":"stats"}"#,
                ErrorCode::BadRequest,
                "unsupported protocol version 1",
            ),
            (
                r#"{"v":2,"id":{"nested":true},"verb":"list"}"#,
                ErrorCode::BadRequest,
                "\"id\" must be a string or integer",
            ),
            (r#"{"v":2}"#, ErrorCode::BadRequest, "\"verb\" field"),
            (
                r#"{"v":2,"verb":"dance"}"#,
                ErrorCode::UnknownVerb,
                "unknown verb",
            ),
            (
                r#"{"v":2,"verb":"advise","asn":7}"#,
                ErrorCode::BadRequest,
                "requires a \"market\"",
            ),
            (
                r#"{"v":2,"verb":"advise","market":"nope","asn":7}"#,
                ErrorCode::BadRequest,
                "market ids look like",
            ),
            (
                r#"{"v":2,"verb":"advise","market":"m1"}"#,
                ErrorCode::BadRequest,
                "requires an \"asn\"",
            ),
            (
                r#"{"v":2,"verb":"advise","market":"m1","asn":"x"}"#,
                ErrorCode::BadRequest,
                "must be a non-negative integer",
            ),
            (
                r#"{"v":2,"verb":"step","market":"m1","rounds":0}"#,
                ErrorCode::BadRequest,
                "rounds >= 1",
            ),
            (
                r#"{"v":2,"verb":"snapshot","market":"m1"}"#,
                ErrorCode::BadRequest,
                "requires a \"path\"",
            ),
            (
                r#"{"v":2,"verb":"step","market":"m1","shokc":0.2}"#,
                ErrorCode::BadRequest,
                "unknown field",
            ),
            (
                r#"{"v":2,"verb":"load","market":{},"checkpoint":"x"}"#,
                ErrorCode::BadRequest,
                "not both",
            ),
            (
                r#"{"v":2,"verb":"quit","force":true}"#,
                ErrorCode::BadRequest,
                "unknown field",
            ),
            (
                r#"{"v":2,"verb":"unload"}"#,
                ErrorCode::BadRequest,
                "requires a \"market\"",
            ),
            (
                r#"{"v":2,"verb":"list","market":"m1"}"#,
                ErrorCode::BadRequest,
                "unknown field",
            ),
            (
                r#"{"v":2,"verb":"metrics","market":"m1"}"#,
                ErrorCode::BadRequest,
                "unknown field",
            ),
        ] {
            let err = Request::parse(line).expect_err(line);
            assert_eq!(err.code, code, "{line}: {err:?}");
            assert!(err.message.contains(expected), "{line}: {}", err.message);
        }
    }

    #[test]
    fn market_ids_round_trip() {
        assert_eq!(MarketId::parse("m1").unwrap(), MarketId(1));
        assert_eq!(MarketId::parse("m250").unwrap(), MarketId(250));
        assert_eq!(MarketId(17).to_string(), "m17");
        for bad in ["", "m", "1", "mm1", "m-1", "m+1", "m1x", "M1"] {
            assert!(MarketId::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn replies_are_single_deterministic_lines() {
        let ok = reply_ok(None, "stats", vec![("ases", Value::U64(10))]);
        assert_eq!(ok, r#"{"ok":true,"v":2,"verb":"stats","ases":10}"#);
        assert!(!ok.contains('\n'));
        let err = reply_error(None, &WireError::new(ErrorCode::UnknownMarket, "boom"));
        assert_eq!(
            err,
            r#"{"ok":false,"v":2,"error":{"code":"unknown_market","message":"boom"}}"#
        );
        let err = reply_error(
            Some(&Value::I64(9)),
            &WireError::new(ErrorCode::MarketLimit, "full"),
        );
        assert_eq!(
            err,
            r#"{"ok":false,"v":2,"id":9,"error":{"code":"market_limit","message":"full"}}"#
        );
    }
}
