//! The multi-tenant market server: a std-only, non-blocking TCP
//! readiness loop around one owner thread that holds the session table.
//!
//! # Concurrency model
//!
//! The thread that calls [`MarketServer::serve`] **owns** every resident
//! market: it accepts connections, reads complete request lines, and
//! handles them sequentially, so the session table needs no locks and
//! replies cannot interleave. Heavy work inside a handler — candidate
//! evaluation, round stepping — fans out over the server's
//! [`ThreadPool`] through the same deterministic [`ScenarioSweep`]
//! machinery the batch binaries use, so every reply is byte-identical at
//! any `--threads` value. Each market session carries its own
//! [`EvolutionDriver`] and seed, and every `step` rebuilds the sweep
//! from that seed, so interleaved sessions stepping "concurrently"
//! produce trajectories byte-identical to each market run in isolation.
//!
//! # Session table and advise cache
//!
//! `load` creates a [`MarketSession`] (up to the
//! [`with_max_markets`](MarketServer::with_max_markets) cap) and returns
//! its server-assigned id; `unload` destroys one. Each session holds a
//! per-AS `advise` cache keyed by the market's
//! [generation counter](MarketState::generation), which pan-core bumps
//! on every adoption and every perturbation pass (traffic drift, price
//! shocks, link failures) — so a repeat query
//! against an unchanged market answers from memory in microseconds,
//! and any state change invalidates exactly by key comparison.
//! `restore` replaces the state *instance*, whose generation counter
//! restarts, so it drops the session's cache wholesale instead.
//!
//! The cache stores each AS's **full** ranked report (top = 0) and
//! slices it to the request's `top` at reply time: report aggregates
//! are truncation-independent by construction
//! ([`DiscoveryReport::from_outcomes`]), so cold and warm replies are
//! byte-identical for every `top`, and one entry serves them all.
//!
//! # Socket layer
//!
//! A hand-rolled readiness loop over [`std::net`] with
//! [`TcpListener::set_nonblocking`] (the workspace is offline: no
//! tokio, no mio): each iteration drains pending accepts and per-client
//! reads. When nothing progresses the loop first spins politely
//! ([`std::thread::yield_now`]) for a bounded number of iterations —
//! keeping request-to-request latency in the microseconds for
//! interactive bursts — and only then falls back to millisecond sleeps.
//! Accepted sockets set `TCP_NODELAY`: every reply is one complete
//! line, so holding it back for coalescing (Nagle's algorithm) only
//! adds the client's delayed-ACK time to its latency.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::mem::size_of;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use serde::Value;

use pan_core::dynamics::{advise, EvolutionDriver, MarketSnapshot, MarketState};
use pan_core::{DiscoveryReport, EvolutionConfig, PairOutcome};
use pan_runtime::{ScenarioSweep, ThreadPool};

use crate::protocol::{
    object, reply_error, reply_ok, to_value, Envelope, ErrorCode, MarketId, Request, WireError,
};

/// A market made resident by the `load` verb — what the server's loader
/// callback returns for synthetic specs (checkpoint loads are handled by
/// the server itself via [`MarketSnapshot`]).
#[derive(Debug)]
pub struct LoadedMarket {
    /// The market to make resident.
    pub state: MarketState,
    /// Evolution configuration for `advise`/`step` on this market.
    pub config: EvolutionConfig,
    /// Master seed of the market's sweeps.
    pub seed: u64,
    /// Human-readable description echoed in replies.
    pub label: String,
}

/// The loader callback interpreting the `load` verb's `market` object.
///
/// Kept as a callback so the server crate stays decoupled from dataset
/// generation: the `serve` binary supplies a loader that builds the
/// standard synthetic internet + economics from spec-like fields.
/// Loader errors surface as [`ErrorCode::InvalidConfig`].
pub type MarketLoader<'a> = dyn Fn(&Value) -> Result<LoadedMarket, String> + 'a;

/// Counters [`MarketServer::serve`] reports after a clean shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted over the server's lifetime.
    pub connections: usize,
    /// Request lines handled (including ones answered with an error).
    pub requests: usize,
}

/// One AS's cached full advise report, valid while the market's
/// generation counter still matches.
struct CachedAdvice {
    generation: u64,
    report: DiscoveryReport,
}

/// One resident market: its state, driver, advise cache, and counters.
struct MarketSession {
    id: MarketId,
    state: MarketState,
    driver: EvolutionDriver,
    seed: u64,
    label: String,
    cache: HashMap<u32, CachedAdvice>,
    advises: u64,
    cache_hits: u64,
    cache_misses: u64,
    rounds_stepped: u64,
}

impl MarketSession {
    /// The summary fields `load`/`unload`/`restore`/`list` reply with.
    fn summary_fields(&self) -> Vec<(&'static str, Value)> {
        let graph = self.state.graph();
        vec![
            ("market", self.id.to_value()),
            ("label", Value::Str(self.label.clone())),
            ("ases", to_value(&graph.node_count())),
            ("links", to_value(&graph.link_count())),
            ("peering_links", to_value(&graph.peering_link_count())),
            ("transit_links", to_value(&graph.transit_link_count())),
            ("adopted", to_value(&self.state.adopted_count())),
            ("rounds_done", to_value(&self.driver.rounds_done())),
            ("seed", to_value(&self.seed)),
        ]
    }

    /// Resident size of the session: the state's and driver's own
    /// capacity-based accounting plus the advise cache's outcome
    /// vectors. Capacity-based, so it tracks what the allocator holds
    /// rather than a shape-derived estimate.
    fn resident_bytes(&self) -> usize {
        let cache: usize = self
            .cache
            .values()
            .map(|c| {
                size_of::<CachedAdvice>() + c.report.outcomes.capacity() * size_of::<PairOutcome>()
            })
            .sum();
        self.state.resident_bytes() + self.driver.resident_bytes() + cache
    }
}

/// Handler-visible service state: the pool, the cap, and the
/// session table. Market ids come off a monotonic counter starting at 1
/// (never reused within a server lifetime), so the first `load` of a
/// fresh server is always `"m1"` — static scripts can rely on it.
struct Service {
    pool: ThreadPool,
    max_markets: usize,
    next_id: u64,
    markets: BTreeMap<u64, MarketSession>,
    /// When the serving loop started — `stats`/`metrics` uptime.
    started: Instant,
    /// Error replies sent, indexed by [`ErrorCode::index`]. Plain
    /// integers, not atomics: only the owner thread touches them.
    errors: [u64; ErrorCode::ALL.len()],
}

impl Service {
    fn market_mut(&mut self, id: MarketId) -> Result<&mut MarketSession, WireError> {
        self.markets.get_mut(&id.0).ok_or_else(|| {
            WireError::new(
                ErrorCode::UnknownMarket,
                format!("no resident market {id}; \"list\" shows the session table"),
            )
        })
    }

    /// Inserts a freshly loaded market, enforcing the session cap.
    fn admit(
        &mut self,
        state: MarketState,
        driver: EvolutionDriver,
        seed: u64,
        label: String,
    ) -> Result<&MarketSession, WireError> {
        if self.markets.len() >= self.max_markets {
            return Err(WireError::new(
                ErrorCode::MarketLimit,
                format!(
                    "session table is full ({} markets); unload one or raise --max-markets",
                    self.max_markets
                ),
            ));
        }
        let id = MarketId(self.next_id);
        self.next_id += 1;
        let session = MarketSession {
            id,
            state,
            driver,
            seed,
            label,
            cache: HashMap::new(),
            advises: 0,
            cache_hits: 0,
            cache_misses: 0,
            rounds_stepped: 0,
        };
        Ok(self.markets.entry(id.0).or_insert(session))
    }
}

enum Flow {
    Continue,
    Quit,
}

/// A long-running TCP server hosting a table of resident markets; see
/// the [crate docs](crate) for the concurrency model and
/// [`crate::protocol`] for the wire format.
#[derive(Debug)]
pub struct MarketServer {
    listener: TcpListener,
    pool: ThreadPool,
    max_markets: usize,
    slow_log: Duration,
}

/// Default session-table cap; override with
/// [`MarketServer::with_max_markets`].
pub const DEFAULT_MAX_MARKETS: usize = 8;

/// Longest accepted request line. A client streaming bytes without a
/// newline must not grow the resident server's memory without bound;
/// real requests are well under a kilobyte.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Give a stalled reader this long to drain its socket before the
/// owner thread abandons the reply and closes the client — a
/// non-reading client must not wedge the single-threaded server.
const WRITE_STALL_LIMIT: Duration = Duration::from_secs(30);

/// Idle loop iterations spent yielding before falling back to
/// millisecond sleeps. Within a request burst the next line usually
/// arrives within a handful of yields, keeping cached-advise round
/// trips in the microseconds; a genuinely idle server reaches the
/// sleep tier in well under ten milliseconds and stops burning cycles.
const IDLE_SPIN_ITERS: u32 = 500;

/// Only log requests at least this slow: the hot cached-advise path
/// answers in microseconds and per-line logging would dominate it.
const LOG_THRESHOLD: Duration = Duration::from_millis(1);

/// One connected client: its non-blocking stream and the bytes of the
/// next, not yet complete request line.
struct Client {
    stream: TcpStream,
    buffer: Vec<u8>,
    closed: bool,
}

impl Client {
    /// Reads whatever is available; `true` if any bytes arrived. A
    /// request line exceeding [`MAX_REQUEST_BYTES`] closes the client
    /// (with a final error reply, best-effort).
    fn fill(&mut self) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        let mut progressed = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.closed = true;
                    return progressed;
                }
                Ok(n) => {
                    self.buffer.extend_from_slice(&chunk[..n]);
                    progressed = true;
                    if self.buffer.len() > MAX_REQUEST_BYTES
                        && !self.buffer[..MAX_REQUEST_BYTES].contains(&b'\n')
                    {
                        self.send_line(&reply_error(
                            None,
                            &WireError::bad_request(format!(
                                "request line exceeds {MAX_REQUEST_BYTES} bytes"
                            )),
                        ));
                        self.closed = true;
                        return progressed;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return progressed,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closed = true;
                    return progressed;
                }
            }
        }
    }

    /// Pops the next complete line off the buffer.
    fn next_line(&mut self) -> Option<String> {
        let end = self.buffer.iter().position(|&b| b == b'\n')?;
        let mut line: Vec<u8> = self.buffer.drain(..=end).collect();
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    /// Writes one reply line, retrying short non-blocking writes. A
    /// disconnected client is marked closed; the request keeps executing
    /// (state mutations must not half-apply because a reader went away).
    /// A reader that stalls past [`WRITE_STALL_LIMIT`] is abandoned and
    /// closed — one client that stops draining its socket must not wedge
    /// the single-threaded owner loop for everyone else.
    fn send_line(&mut self, line: &str) {
        if self.closed {
            return;
        }
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        let mut written = 0;
        let mut stalled_since: Option<Instant> = None;
        while written < bytes.len() {
            match self.stream.write(&bytes[written..]) {
                Ok(0) => {
                    self.closed = true;
                    return;
                }
                Ok(n) => {
                    written += n;
                    stalled_since = None;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let since = *stalled_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= WRITE_STALL_LIMIT {
                        eprintln!("# dropping client: reply stalled for {WRITE_STALL_LIMIT:?}");
                        self.closed = true;
                        return;
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closed = true;
                    return;
                }
            }
        }
    }
}

impl MarketServer {
    /// Binds the listener (non-blocking) and sizes the worker pool the
    /// handlers fan out over. Use port `0` to let the OS pick one; read
    /// it back via [`local_addr`](Self::local_addr).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: &str, threads: usize) -> io::Result<MarketServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(MarketServer {
            listener,
            pool: ThreadPool::new(threads),
            max_markets: DEFAULT_MAX_MARKETS,
            slow_log: LOG_THRESHOLD,
        })
    }

    /// Caps the session table (default [`DEFAULT_MAX_MARKETS`]); `load`
    /// beyond the cap answers [`ErrorCode::MarketLimit`]. A cap of 0 is
    /// treated as 1 — a server that can host nothing serves no purpose.
    #[must_use]
    pub fn with_max_markets(mut self, max_markets: usize) -> Self {
        self.max_markets = max_markets.max(1);
        self
    }

    /// Only stderr-log requests at least this slow (default
    /// `LOG_THRESHOLD`, 1 ms); the `serve` binary exposes it as
    /// `--slow-ms`. Raising it silences the log on machines where even
    /// cached replies cross the default; `Duration::ZERO` logs every
    /// request.
    #[must_use]
    pub fn with_slow_log(mut self, threshold: Duration) -> Self {
        self.slow_log = threshold;
        self
    }

    /// The bound address (the actual port when bound with port 0).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the serving loop until a client sends `quit`. The calling
    /// thread becomes the owner thread of every market; see the [crate
    /// docs](crate).
    ///
    /// # Errors
    ///
    /// Propagates accept errors other than the non-blocking
    /// `WouldBlock`. Per-client read/write failures only close that
    /// client.
    pub fn serve(&self, loader: &MarketLoader<'_>) -> io::Result<ServeSummary> {
        // Telemetry is always on in a resident server: metrics reach
        // clients only through the `metrics` verb and stderr, never a
        // deterministic reply, so there is nothing to gate.
        pan_telemetry::enable();
        let mut service = Service {
            pool: self.pool.clone(),
            max_markets: self.max_markets,
            next_id: 1,
            markets: BTreeMap::new(),
            started: Instant::now(),
            errors: [0; ErrorCode::ALL.len()],
        };
        let mut clients: Vec<Client> = Vec::new();
        let mut summary = ServeSummary::default();
        let mut idle_iters = 0u32;
        let mut quit = false;
        // Reactor accounting: how the owner thread splits its time
        // between handling work (busy), polite spinning, and sleeping.
        let idle_spins = pan_telemetry::counter("serve.reactor.idle_spins");
        let idle_sleeps = pan_telemetry::counter("serve.reactor.idle_sleeps");
        let busy_ns = pan_telemetry::histogram("serve.reactor.busy_ns");
        while !quit {
            let iteration = busy_ns.is_live().then(Instant::now);
            let mut progressed = false;
            loop {
                match self.listener.accept() {
                    Ok((stream, peer)) => {
                        stream.set_nonblocking(true)?;
                        // Replies are small and complete: send each at
                        // once instead of holding it back (Nagle) until
                        // the client acknowledges the previous one. Best
                        // effort — a socket without it still works.
                        let _ = stream.set_nodelay(true);
                        eprintln!("# client connected: {peer}");
                        clients.push(Client {
                            stream,
                            buffer: Vec::new(),
                            closed: false,
                        });
                        summary.connections += 1;
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            for client in &mut clients {
                progressed |= client.fill();
                while let Some(line) = client.next_line() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    progressed = true;
                    summary.requests += 1;
                    match handle_line(&line, &mut service, loader, client, &summary, self.slow_log)
                    {
                        Flow::Continue => {}
                        Flow::Quit => quit = true,
                    }
                    if quit {
                        break;
                    }
                }
                if quit {
                    break;
                }
            }
            clients.retain(|c| !c.closed);
            if progressed {
                idle_iters = 0;
                if let Some(begun) = iteration {
                    busy_ns.record_duration(begun.elapsed());
                }
            } else if !quit {
                idle_iters = idle_iters.saturating_add(1);
                if idle_iters < IDLE_SPIN_ITERS {
                    idle_spins.inc();
                    std::thread::yield_now();
                } else {
                    idle_sleeps.inc();
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        eprintln!(
            "# quit: served {} requests over {} connections",
            summary.requests, summary.connections
        );
        Ok(summary)
    }
}

/// Bumps both the owner-thread error table and the global telemetry
/// counter for one error reply.
fn count_error(service: &mut Service, error: &WireError) {
    service.errors[error.code.index()] += 1;
    pan_telemetry::counter(&format!("serve.error.{}", error.code.as_str())).inc();
}

fn handle_line(
    line: &str,
    service: &mut Service,
    loader: &MarketLoader<'_>,
    client: &mut Client,
    summary: &ServeSummary,
    slow_log: Duration,
) -> Flow {
    let Envelope { id, request } = match Request::parse(line) {
        Ok(envelope) => envelope,
        Err(error) => {
            count_error(service, &error);
            client.send_line(&reply_error(None, &error));
            return Flow::Continue;
        }
    };
    let id = id.as_ref();
    let verb = request.verb();
    let started = Instant::now();
    let mut flow = Flow::Continue;
    let result = match request {
        Request::Quit => {
            client.send_line(&reply_ok(id, "quit", Vec::new()));
            flow = Flow::Quit;
            Ok(())
        }
        Request::Load { market, checkpoint } => match checkpoint {
            Some(path) => handle_load_checkpoint(service, &path, id, client),
            None => handle_load(
                service,
                &market.unwrap_or_else(|| Value::Map(Vec::new())),
                loader,
                id,
                client,
            ),
        },
        Request::Unload { market } => handle_unload(service, market, id, client),
        Request::List => handle_list(service, id, client),
        Request::Advise { market, asn, top } => {
            handle_advise(service, market, asn, top, id, client)
        }
        Request::Step {
            market,
            rounds,
            shock,
        } => handle_step(service, market, rounds, shock, id, client),
        Request::Snapshot { market, path } => handle_snapshot(service, market, &path, id, client),
        Request::Restore { market, path } => handle_restore(service, market, &path, id, client),
        Request::Stats { market } => handle_stats(service, market, id, client, summary),
        Request::Metrics => handle_metrics(service, id, client),
    };
    if let Err(error) = result {
        count_error(service, &error);
        client.send_line(&reply_error(id, &error));
    }
    let elapsed = started.elapsed();
    pan_telemetry::histogram(&format!("serve.verb.{verb}_ns")).record_duration(elapsed);
    if elapsed >= slow_log {
        eprintln!(
            "# handled {line:?} in {:.1} ms",
            elapsed.as_secs_f64() * 1e3
        );
    }
    flow
}

/// Reads and restores a checkpoint file; every failure mode — missing
/// file, bad JSON, validation — is [`ErrorCode::CorruptCheckpoint`].
fn read_checkpoint(path: &str) -> Result<(MarketState, EvolutionDriver, u64), WireError> {
    let corrupt = |detail: String| WireError::new(ErrorCode::CorruptCheckpoint, detail);
    let text = std::fs::read_to_string(path)
        .map_err(|e| corrupt(format!("cannot read checkpoint {path:?}: {e}")))?;
    let snapshot = MarketSnapshot::from_json(&text)
        .map_err(|e| corrupt(format!("checkpoint {path:?}: {e}")))?;
    let seed = snapshot.seed;
    let (state, driver) = snapshot
        .restore()
        .map_err(|e| corrupt(format!("checkpoint {path:?}: {e}")))?;
    Ok((state, driver, seed))
}

fn handle_load(
    service: &mut Service,
    market_spec: &Value,
    loader: &MarketLoader<'_>,
    id: Option<&Value>,
    client: &mut Client,
) -> Result<(), WireError> {
    let loaded =
        loader(market_spec).map_err(|message| WireError::new(ErrorCode::InvalidConfig, message))?;
    let driver = EvolutionDriver::new(loaded.config).map_err(|e| {
        WireError::new(
            ErrorCode::InvalidConfig,
            format!("invalid market config: {e}"),
        )
    })?;
    let session = service.admit(loaded.state, driver, loaded.seed, loaded.label)?;
    client.send_line(&reply_ok(id, "load", session.summary_fields()));
    Ok(())
}

fn handle_load_checkpoint(
    service: &mut Service,
    path: &str,
    id: Option<&Value>,
    client: &mut Client,
) -> Result<(), WireError> {
    let (state, driver, seed) = read_checkpoint(path)?;
    let session = service.admit(state, driver, seed, format!("checkpoint:{path}"))?;
    client.send_line(&reply_ok(id, "load", session.summary_fields()));
    Ok(())
}

fn handle_unload(
    service: &mut Service,
    market: MarketId,
    id: Option<&Value>,
    client: &mut Client,
) -> Result<(), WireError> {
    // Look up first so a miss answers `unknown_market` before anything
    // is touched.
    service.market_mut(market)?;
    let session = service.markets.remove(&market.0).expect("looked up above");
    client.send_line(&reply_ok(id, "unload", session.summary_fields()));
    Ok(())
}

fn handle_list(
    service: &mut Service,
    id: Option<&Value>,
    client: &mut Client,
) -> Result<(), WireError> {
    let markets: Vec<Value> = service
        .markets
        .values()
        .map(|session| object(session.summary_fields()))
        .collect();
    client.send_line(&reply_ok(
        id,
        "list",
        vec![
            ("count", to_value(&markets.len())),
            ("max_markets", to_value(&service.max_markets)),
            ("markets", Value::Seq(markets)),
        ],
    ));
    Ok(())
}

fn handle_advise(
    service: &mut Service,
    market: MarketId,
    asn: u32,
    top: usize,
    id: Option<&Value>,
    client: &mut Client,
) -> Result<(), WireError> {
    let pool = service.pool.clone();
    let session = service.market_mut(market)?;
    let generation = session.state.generation();
    session.advises += 1;
    let cached = matches!(session.cache.get(&asn), Some(entry) if entry.generation == generation);
    if cached {
        session.cache_hits += 1;
        pan_telemetry::counter("serve.advise.cache_hits").inc();
    } else {
        pan_telemetry::counter("serve.advise.cache_misses").inc();
        // Evaluate the full ranking once (top = 0) so this entry serves
        // every future `top`; aggregates are truncation-independent, so
        // slicing below reproduces the direct reply byte for byte.
        let report = advise(
            &session.state,
            &session.driver.config().discovery,
            pan_topology::Asn::new(asn),
            0,
            &pool,
        )
        .map_err(|e| WireError::new(ErrorCode::EvaluationFailed, format!("advise failed: {e}")))?;
        session.cache_misses += 1;
        session
            .cache
            .insert(asn, CachedAdvice { generation, report });
    }
    let entry = &session.cache[&asn];
    let outcomes: Vec<PairOutcome> = match top {
        0 => entry.report.outcomes.clone(),
        t => entry.report.outcomes.iter().take(t).cloned().collect(),
    };
    client.send_line(&reply_ok(
        id,
        "advise",
        vec![
            ("market", market.to_value()),
            ("asn", to_value(&asn)),
            ("cached", Value::Bool(cached)),
            ("generation", to_value(&generation)),
            ("candidates", to_value(&entry.report.candidates)),
            ("concluded_cash", to_value(&entry.report.concluded_cash)),
            ("total_surplus", to_value(&entry.report.total_surplus)),
            ("outcomes", to_value(&outcomes)),
        ],
    ));
    Ok(())
}

fn handle_step(
    service: &mut Service,
    market: MarketId,
    rounds: usize,
    shock: Option<f64>,
    id: Option<&Value>,
    client: &mut Client,
) -> Result<(), WireError> {
    let pool = service.pool.clone();
    let session = service.market_mut(market)?;
    // A shock override holds for this request's rounds only: they step
    // a driver carrying the override, and the session's own config
    // comes back afterwards at the round count reached, also when a
    // round fails. Re-validating through the driver constructor keeps
    // an out-of-range override from reaching a round. The round caches
    // live on the state, so the swapped driver steps warm.
    let own_config = *session.driver.config();
    if let Some(shock) = shock {
        let config = EvolutionConfig {
            shock,
            ..own_config
        };
        session.driver =
            EvolutionDriver::resume(config, session.driver.rounds_done()).map_err(|e| {
                WireError::new(
                    ErrorCode::InvalidConfig,
                    format!("invalid shock override: {e}"),
                )
            })?;
    }
    let sweep = ScenarioSweep::new(pool, session.seed);
    let mut stepped = 0usize;
    let mut adopted = 0usize;
    let mut adopted_surplus = 0.0;
    let mut fixed_point = false;
    let mut failure = None;
    for _ in 0..rounds {
        let outcome = match session.driver.step(&mut session.state, &sweep) {
            Ok(outcome) => outcome,
            Err(e) => {
                failure = Some(WireError::new(
                    ErrorCode::EvaluationFailed,
                    format!("step failed: {e}"),
                ));
                break;
            }
        };
        stepped += 1;
        session.rounds_stepped += 1;
        adopted += outcome.record.adopted;
        adopted_surplus += outcome.record.adopted_surplus;
        fixed_point = outcome.fixed_point;
        client.send_line(&reply_ok(
            id,
            "round",
            vec![
                ("market", market.to_value()),
                ("record", to_value(&outcome.record)),
                ("agreements", to_value(&outcome.agreements)),
            ],
        ));
        if fixed_point {
            break;
        }
    }
    if shock.is_some() {
        session.driver = EvolutionDriver::resume(own_config, session.driver.rounds_done())
            .expect("the session's own config was validated when it was loaded");
    }
    if let Some(failure) = failure {
        return Err(failure);
    }
    client.send_line(&reply_ok(
        id,
        "step",
        vec![
            ("market", market.to_value()),
            ("rounds", to_value(&stepped)),
            ("adopted", to_value(&adopted)),
            ("adopted_surplus", to_value(&adopted_surplus)),
            ("fixed_point", Value::Bool(fixed_point)),
            ("rounds_done", to_value(&session.driver.rounds_done())),
        ],
    ));
    Ok(())
}

fn handle_snapshot(
    service: &mut Service,
    market: MarketId,
    path: &str,
    id: Option<&Value>,
    client: &mut Client,
) -> Result<(), WireError> {
    let session = service.market_mut(market)?;
    let json = MarketSnapshot::capture(&session.state, &session.driver, session.seed).to_json();
    std::fs::write(path, &json)
        .map_err(|e| WireError::new(ErrorCode::IoError, format!("cannot write {path:?}: {e}")))?;
    client.send_line(&reply_ok(
        id,
        "snapshot",
        vec![
            ("market", market.to_value()),
            ("path", Value::Str(path.to_owned())),
            ("bytes", to_value(&json.len())),
            ("rounds_done", to_value(&session.driver.rounds_done())),
        ],
    ));
    Ok(())
}

fn handle_restore(
    service: &mut Service,
    market: MarketId,
    path: &str,
    id: Option<&Value>,
    client: &mut Client,
) -> Result<(), WireError> {
    let session = service.market_mut(market)?;
    let (state, driver, seed) = read_checkpoint(path)?;
    session.state = state;
    session.driver = driver;
    session.seed = seed;
    session.label = format!("checkpoint:{path}");
    // The restored state is a fresh instance whose generation counter
    // restarts, so generation keys from the old instance are
    // meaningless — drop the cache wholesale.
    session.cache.clear();
    client.send_line(&reply_ok(id, "restore", session.summary_fields()));
    Ok(())
}

fn handle_stats(
    service: &mut Service,
    market: Option<MarketId>,
    id: Option<&Value>,
    client: &mut Client,
    summary: &ServeSummary,
) -> Result<(), WireError> {
    let threads = service.pool.threads();
    let Some(market) = market else {
        // Process-level totals plus the session table.
        let markets: Vec<Value> = service
            .markets
            .values()
            .map(|session| {
                object(vec![
                    ("market", session.id.to_value()),
                    ("label", Value::Str(session.label.clone())),
                    ("rounds_done", to_value(&session.driver.rounds_done())),
                    ("advises", to_value(&session.advises)),
                ])
            })
            .collect();
        let errors: Vec<(&'static str, Value)> = ErrorCode::ALL
            .iter()
            .map(|&code| (code.as_str(), to_value(&service.errors[code.index()])))
            .collect();
        client.send_line(&reply_ok(
            id,
            "stats",
            vec![
                ("connections", to_value(&summary.connections)),
                ("requests", to_value(&summary.requests)),
                (
                    "uptime_seconds",
                    Value::F64(service.started.elapsed().as_secs_f64()),
                ),
                ("errors", object(errors)),
                ("threads", to_value(&threads)),
                ("max_markets", to_value(&service.max_markets)),
                ("count", to_value(&service.markets.len())),
                ("markets", Value::Seq(markets)),
            ],
        ));
        return Ok(());
    };
    let session = service.market_mut(market)?;
    let graph = session.state.graph();
    let total_flow = session.state.flows().grand_total();
    let n = graph.node_count() as u32;
    let mut cash_min = 0.0f64;
    let mut cash_max = 0.0f64;
    for i in 0..n {
        let balance = session.state.cash_balance(i);
        cash_min = cash_min.min(balance);
        cash_max = cash_max.max(balance);
    }
    client.send_line(&reply_ok(
        id,
        "stats",
        vec![
            ("market", session.id.to_value()),
            ("label", Value::Str(session.label.clone())),
            ("ases", to_value(&graph.node_count())),
            ("links", to_value(&graph.link_count())),
            ("peering_links", to_value(&graph.peering_link_count())),
            ("transit_links", to_value(&graph.transit_link_count())),
            ("adopted", to_value(&session.state.adopted_count())),
            ("rounds_done", to_value(&session.driver.rounds_done())),
            ("rounds_stepped", to_value(&session.rounds_stepped)),
            ("advises", to_value(&session.advises)),
            ("cache_hits", to_value(&session.cache_hits)),
            ("cache_misses", to_value(&session.cache_misses)),
            ("cache_entries", to_value(&session.cache.len())),
            ("generation", to_value(&session.state.generation())),
            ("resident_bytes", to_value(&session.resident_bytes())),
            ("total_flow", to_value(&total_flow)),
            ("cash_min", to_value(&cash_min)),
            ("cash_max", to_value(&cash_max)),
            ("seed", to_value(&session.seed)),
            ("threads", to_value(&threads)),
        ],
    ));
    Ok(())
}

/// One histogram's wire shape: totals plus nearest-rank percentiles.
fn histogram_fields(snapshot: &pan_telemetry::HistogramSnapshot) -> Value {
    object(vec![
        ("count", to_value(&snapshot.count)),
        ("sum", to_value(&snapshot.sum)),
        ("mean", Value::F64(snapshot.mean())),
        ("p50", to_value(&snapshot.p50())),
        ("p90", to_value(&snapshot.p90())),
        ("p99", to_value(&snapshot.p99())),
    ])
}

/// `metrics`: the live telemetry registry — every counter and
/// histogram the engine layers recorded since startup — plus per-market
/// advise-cache effectiveness. Values are observations, not market
/// state, so the reply is the one verb whose payload is *not*
/// deterministic; determinism gates must never diff it.
fn handle_metrics(
    service: &mut Service,
    id: Option<&Value>,
    client: &mut Client,
) -> Result<(), WireError> {
    let snapshot = pan_telemetry::global().snapshot();
    let counters: Vec<(String, Value)> = snapshot
        .counters
        .iter()
        .map(|(name, value)| (name.clone(), to_value(value)))
        .collect();
    let histograms: Vec<(String, Value)> = snapshot
        .histograms
        .iter()
        .map(|(name, histogram)| (name.clone(), histogram_fields(histogram)))
        .collect();
    let markets: Vec<Value> = service
        .markets
        .values()
        .map(|session| {
            let lookups = session.cache_hits + session.cache_misses;
            let hit_rate = if lookups == 0 {
                0.0
            } else {
                session.cache_hits as f64 / lookups as f64
            };
            object(vec![
                ("market", session.id.to_value()),
                ("label", Value::Str(session.label.clone())),
                ("advises", to_value(&session.advises)),
                ("cache_hits", to_value(&session.cache_hits)),
                ("cache_misses", to_value(&session.cache_misses)),
                ("cache_entries", to_value(&session.cache.len())),
                ("hit_rate", Value::F64(hit_rate)),
            ])
        })
        .collect();
    client.send_line(&reply_ok(
        id,
        "metrics",
        vec![
            (
                "uptime_seconds",
                Value::F64(service.started.elapsed().as_secs_f64()),
            ),
            ("enabled", Value::Bool(pan_telemetry::is_enabled())),
            ("counters", Value::Map(counters)),
            ("histograms", Value::Map(histograms)),
            ("markets", Value::Seq(markets)),
        ],
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use pan_core::{CandidatePolicy, DiscoveryConfig};
    use pan_econ::{CostFunction, DenseEconomics, FlowMatrix, PricingFunction};
    use pan_topology::{AsGraphBuilder, Asn, Relationship};

    use super::*;

    /// The `stats` resident-bytes figure is the state's and driver's
    /// own capacity-based accounting (the state's covers the round cache
    /// a step leaves on it) plus the advise cache — not the old
    /// shape-derived `n²` flow estimate, which overstated a packed flow
    /// matrix quadratically.
    #[test]
    fn session_resident_bytes_tracks_state_driver_and_cache() {
        let mut b = AsGraphBuilder::new();
        b.add_link(Asn::new(1), Asn::new(2), Relationship::ProviderToCustomer)
            .unwrap();
        b.add_link(Asn::new(1), Asn::new(3), Relationship::ProviderToCustomer)
            .unwrap();
        b.add_link(Asn::new(2), Asn::new(3), Relationship::PeerToPeer)
            .unwrap();
        let graph = b.build().unwrap();
        let econ = DenseEconomics::build(
            &graph,
            |_, _| PricingFunction::per_usage(2.0).unwrap(),
            |_| PricingFunction::per_usage(1.0).unwrap(),
            |_| CostFunction::linear(0.001).unwrap(),
        );
        let flows = FlowMatrix::zeros(&graph);
        let state = MarketState::new(graph, econ, flows).unwrap();
        let config = EvolutionConfig {
            discovery: DiscoveryConfig {
                policy: CandidatePolicy::PeeringAdjacent,
                reroute_share: 1.0,
                attract_share: 0.0,
                grid: 3,
                noise: 0.0,
                top: 0,
            },
            rounds: 1,
            adopt_top: 1,
            min_surplus: 1e-6,
            shock: 0.0,
        };
        let mut session = MarketSession {
            id: MarketId(1),
            state,
            driver: EvolutionDriver::resume(config, 0).unwrap(),
            seed: 7,
            label: "fixture".into(),
            cache: HashMap::new(),
            advises: 0,
            cache_hits: 0,
            cache_misses: 0,
            rounds_stepped: 0,
        };

        let unstepped = session.state.resident_bytes();
        let sweep = ScenarioSweep::sequential(session.seed);
        session.driver.step(&mut session.state, &sweep).unwrap();
        assert!(
            session.state.resident_bytes() > unstepped,
            "the round cache counts in the state's footprint"
        );
        assert_eq!(session.driver.resident_bytes(), 0);
        let base = session.resident_bytes();
        assert_eq!(
            base,
            session.state.resident_bytes() + session.driver.resident_bytes(),
            "an empty advise cache must contribute nothing"
        );
        // The n²-estimate bug this replaces was only visible at scale;
        // the capacity-based figure is exact at any size, so a cached
        // advise report must grow the total by its accounted footprint.
        session.cache.insert(
            0,
            CachedAdvice {
                generation: session.state.generation(),
                report: DiscoveryReport {
                    candidates: 0,
                    concluded_flow_volume: 0,
                    concluded_cash: 0,
                    total_surplus: 0.0,
                    outcomes: Vec::new(),
                },
            },
        );
        assert_eq!(base + size_of::<CachedAdvice>(), session.resident_bytes());
        // A truncated or in-place collected report holds more slots than
        // outcomes; the allocator holds all of them.
        let mut outcomes = Vec::with_capacity(5);
        outcomes.push(PairOutcome {
            x: Asn::new(2),
            y: Asn::new(3),
            peering_hops: 1,
            shares: (1.0, 0.0),
            segments: (0, 0),
            flow_volume: None,
            cash: None,
            surplus: 0.0,
        });
        let capacity = outcomes.capacity();
        assert!(capacity > outcomes.len());
        session.cache.insert(
            1,
            CachedAdvice {
                generation: session.state.generation(),
                report: DiscoveryReport {
                    candidates: 1,
                    concluded_flow_volume: 0,
                    concluded_cash: 0,
                    total_surplus: 0.0,
                    outcomes,
                },
            },
        );
        assert_eq!(
            base + 2 * size_of::<CachedAdvice>() + capacity * size_of::<PairOutcome>(),
            session.resident_bytes()
        );
    }
}
