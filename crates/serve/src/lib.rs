//! Multi-tenant resident-market serving layer for the DSN'21
//! reproduction.
//!
//! The batch binaries (`discover`, `evolve`) rebuild the 10k-AS
//! internet, its dense economics tables, and the flow matrix on every
//! invocation. This crate instead keeps a **session table** of resident
//! [`pan_core::MarketState`]s behind a TCP socket, so one process hosts
//! many scenarios concurrently and interactive traffic gets
//! sub-millisecond answers:
//!
//! - [`MarketServer`]: a std-only, non-blocking readiness loop (the
//!   workspace is offline — no tokio/mio) whose owner thread holds
//!   every market and fans heavy work out over the deterministic
//!   [`pan_runtime`] sweep machinery. `load` admits a market (bounded
//!   by [`MarketServer::with_max_markets`]), `unload` evicts it, and
//!   each session keeps a per-AS `advise` cache keyed by the market's
//!   [generation counter](pan_core::MarketState::generation) so repeat
//!   queries answer from memory;
//! - [`protocol`]: the **v2** newline-delimited JSON wire format — a
//!   versioned envelope (`"v": 2`, optional echoed request `id`),
//!   market-scoped verbs (`advise`, `step`, `snapshot`, `restore`,
//!   `stats`), session-table verbs (`load`, `unload`, `list`), the
//!   process-wide `metrics` verb (the live [`pan_telemetry`] registry
//!   plus per-market advise-cache hit rates), and structured
//!   `{code, message}` errors ([`ErrorCode`]);
//! - [`LoadedMarket`] + [`MarketLoader`]: the callback through which the
//!   embedding binary defines what a synthetic market spec means
//!   (`pan-bench`'s `serve` binary plugs in the standard synthetic
//!   internet + tiered economics).
//!
//! Replies are deterministic at any worker-thread count, and
//! interleaved sessions step independently — each market's trajectory
//! is byte-identical to the same market run in isolation, the property
//! the CI `serve-smoke` job and `pan-bench`'s `serve_multitenant`
//! integration tests check against uninterrupted `evolve` trajectories.
//! Requests pipelined on one connection are answered in request order
//! (also pinned there, with two connections pipelining at once).
//!
//! ```no_run
//! use pan_serve::{LoadedMarket, MarketServer};
//!
//! let server = MarketServer::bind("127.0.0.1:4780", 4)?.with_max_markets(4);
//! eprintln!("# serving on {}", server.local_addr()?);
//! server.serve(&|_spec| Err("this embedding serves checkpoints only".into()))?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod protocol;
mod server;

pub use protocol::{Envelope, ErrorCode, MarketId, Request, WireError, PROTOCOL_VERSION};
pub use server::{LoadedMarket, MarketLoader, MarketServer, ServeSummary, DEFAULT_MAX_MARKETS};

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    use serde::Value;

    use pan_core::dynamics::MarketState;
    use pan_core::{CandidatePolicy, DiscoveryConfig, EvolutionConfig};
    use pan_econ::{CostFunction, DenseEconomics, FlowMatrix, PricingFunction};
    use pan_topology::{AsGraphBuilder, Asn, Relationship};

    use super::*;

    const P: Asn = Asn::new(1);
    const B: Asn = Asn::new(2);
    const X: Asn = Asn::new(3);
    const Y: Asn = Asn::new(4);

    /// The arbitrage fixture of the dynamics tests: X pays provider P a
    /// rate of 5 for traffic that peer Y could exit via provider B at 1.
    fn arbitrage_market() -> LoadedMarket {
        let mut b = AsGraphBuilder::new();
        b.add_link(P, X, Relationship::ProviderToCustomer).unwrap();
        b.add_link(B, Y, Relationship::ProviderToCustomer).unwrap();
        b.add_link(X, Y, Relationship::PeerToPeer).unwrap();
        let graph = b.build().unwrap();
        let econ = DenseEconomics::build(
            &graph,
            |provider, _| {
                PricingFunction::per_usage(if provider == P { 5.0 } else { 1.0 }).unwrap()
            },
            |_| PricingFunction::per_usage(1.0).unwrap(),
            |_| CostFunction::linear(0.001).unwrap(),
        );
        let mut flows = FlowMatrix::zeros(&graph);
        let (px, xp) = (graph.index_of(P).unwrap(), graph.index_of(X).unwrap());
        let pos = graph.neighbor_position(xp, px).unwrap();
        flows.set(xp, pos, 10.0);
        let back = graph.neighbor_position(px, xp).unwrap();
        flows.set(px, back, 10.0);
        LoadedMarket {
            state: MarketState::new(graph, econ, flows).unwrap(),
            config: EvolutionConfig {
                discovery: DiscoveryConfig {
                    policy: CandidatePolicy::PeeringAdjacent,
                    reroute_share: 1.0,
                    attract_share: 0.0,
                    grid: 3,
                    noise: 0.0,
                    top: 0,
                },
                rounds: 10,
                adopt_top: 5,
                min_surplus: 1e-6,
                shock: 0.0,
            },
            seed: 7,
            label: "arbitrage fixture".to_owned(),
        }
    }

    fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
        value.field(key).unwrap_or_else(|e| panic!("{key}: {e}"))
    }

    /// Integer field regardless of the parser's signed/unsigned choice.
    fn int(value: &Value, key: &str) -> u64 {
        match field(value, key) {
            Value::I64(n) => u64::try_from(*n).unwrap(),
            Value::U64(n) => *n,
            other => panic!("{key} is not an integer: {other:?}"),
        }
    }

    fn assert_ok(value: &Value) {
        assert_eq!(field(value, "ok"), &Value::Bool(true), "reply: {value:?}");
    }

    /// The `error.code` of a structured v2 error reply.
    fn error_code(reply: &Value) -> String {
        assert_eq!(field(reply, "ok"), &Value::Bool(false), "reply: {reply:?}");
        match field(field(reply, "error"), "code") {
            Value::Str(s) => s.clone(),
            other => panic!("error code is not a string: {other:?}"),
        }
    }

    /// The `error.message` of a structured v2 error reply.
    fn error_message(reply: &Value) -> String {
        match field(field(reply, "error"), "message") {
            Value::Str(s) => s.clone(),
            other => panic!("error message is not a string: {other:?}"),
        }
    }

    /// Drives a full v2 session over a real socket: the end-to-end
    /// contract of the serving layer on a market small enough for a
    /// unit test.
    #[test]
    fn serves_a_full_session_over_tcp() {
        let server = MarketServer::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve(&|_spec| Ok(arbitrage_market())));

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut send = |line: &str| writeln!(writer, "{line}").unwrap();
        let mut recv = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            serde_json::from_str::<Value>(line.trim()).unwrap()
        };

        // Unknown verbs and queries against not-yet-loaded markets fail
        // with structured codes, without closing the connection.
        send(r#"{"v":2,"verb":"dance"}"#);
        assert_eq!(error_code(&recv()), "unknown_verb");
        send(r#"{"v":2,"verb":"stats","market":"m1"}"#);
        assert_eq!(error_code(&recv()), "unknown_market");

        // The first load of a fresh server is always m1.
        send(r#"{"v":2,"verb":"load","market":{}}"#);
        let reply = recv();
        assert_ok(&reply);
        assert_eq!(field(&reply, "market"), &Value::Str("m1".into()));
        assert_eq!(int(&reply, "ases"), 4);
        assert_eq!(int(&reply, "rounds_done"), 0);

        // A cold advise computes; a repeat against the unchanged market
        // answers from the cache, byte-identical except the flag; the
        // client id round-trips.
        send(r#"{"v":2,"id":"q-cold","verb":"advise","market":"m1","asn":3}"#);
        let cold = recv();
        assert_ok(&cold);
        assert_eq!(field(&cold, "id"), &Value::Str("q-cold".into()));
        assert_eq!(field(&cold, "cached"), &Value::Bool(false));
        assert_eq!(int(&cold, "candidates"), 1);
        assert_eq!(field(&cold, "outcomes").seq().unwrap().len(), 1);
        send(r#"{"v":2,"id":"q-warm","verb":"advise","market":"m1","asn":3}"#);
        let warm = recv();
        assert_ok(&warm);
        assert_eq!(field(&warm, "cached"), &Value::Bool(true));
        assert_eq!(field(&warm, "outcomes"), field(&cold, "outcomes"));
        assert_eq!(field(&warm, "total_surplus"), field(&cold, "total_surplus"));

        // Two rounds: the first adopts the arbitrage, the second proves
        // exhaustion (fixed point) and ends the stream early.
        send(r#"{"v":2,"verb":"step","market":"m1","rounds":5}"#);
        let round1 = recv();
        assert_ok(&round1);
        assert_eq!(
            int(field(&round1, "record"), "adopted"),
            1,
            "round 0 adopts the arbitrage: {round1:?}"
        );
        let round2 = recv();
        assert_eq!(int(field(&round2, "record"), "adopted"), 0);
        let summary = recv();
        assert_ok(&summary);
        assert_eq!(field(&summary, "verb"), &Value::Str("step".into()));
        assert_eq!(field(&summary, "fixed_point"), &Value::Bool(true));
        assert_eq!(int(&summary, "rounds"), 2);
        assert_eq!(int(&summary, "rounds_done"), 2);

        // Snapshot → restore round-trips the resident market in place.
        let path = std::env::temp_dir().join(format!("pan-serve-test-{}.json", std::process::id()));
        let path_json = serde_json::to_string(&path.to_str().unwrap()).unwrap();
        send(&format!(
            r#"{{"v":2,"verb":"snapshot","market":"m1","path":{path_json}}}"#
        ));
        assert_ok(&recv());
        send(&format!(
            r#"{{"v":2,"verb":"restore","market":"m1","path":{path_json}}}"#
        ));
        let reply = recv();
        assert_ok(&reply);
        assert_eq!(field(&reply, "verb"), &Value::Str("restore".into()));
        assert_eq!(int(&reply, "rounds_done"), 2);
        assert_eq!(int(&reply, "adopted"), 1);

        // Per-market stats carry the cache and stepping counters.
        send(r#"{"v":2,"verb":"stats","market":"m1"}"#);
        let stats = recv();
        assert_ok(&stats);
        assert_eq!(int(&stats, "adopted"), 1);
        assert_eq!(int(&stats, "threads"), 2);
        assert_eq!(int(&stats, "advises"), 2);
        assert_eq!(int(&stats, "cache_hits"), 1);
        assert_eq!(int(&stats, "cache_misses"), 1);
        assert_eq!(int(&stats, "rounds_stepped"), 2);
        // Restore replaced the state instance: the cache was dropped.
        assert_eq!(int(&stats, "cache_entries"), 0);
        assert!(int(&stats, "resident_bytes") > 0);

        send(r#"{"v":2,"verb":"list"}"#);
        let list = recv();
        assert_ok(&list);
        assert_eq!(int(&list, "count"), 1);

        send(r#"{"v":2,"verb":"quit"}"#);
        assert_ok(&recv());
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.connections, 1);
        assert_eq!(summary.requests, 11);
        std::fs::remove_file(&path).ok();
    }

    /// Satellite: the session table enforces the `--max-markets` cap
    /// (`market_limit`), scopes every verb (`unknown_market`), never
    /// reuses ids, and rejects v1-shaped requests outright.
    #[test]
    fn session_table_enforces_cap_scoping_and_v2_envelope() {
        let server = MarketServer::bind("127.0.0.1:0", 1)
            .unwrap()
            .with_max_markets(2);
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve(&|_spec| Ok(arbitrage_market())));

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut send = |line: &str| writeln!(writer, "{line}").unwrap();
        let mut recv = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            serde_json::from_str::<Value>(line.trim()).unwrap()
        };

        // A v1-shaped request (no envelope) is rejected, not
        // half-understood — no silent compatibility shim.
        send(r#"{"verb":"load","market":{}}"#);
        let reply = recv();
        assert_eq!(error_code(&reply), "bad_request");
        assert!(error_message(&reply).contains("v1-shaped"), "{reply:?}");

        send(r#"{"v":2,"verb":"load","market":{}}"#);
        let m1 = recv();
        assert_ok(&m1);
        assert_eq!(field(&m1, "market"), &Value::Str("m1".into()));
        send(r#"{"v":2,"verb":"load","market":{}}"#);
        let m2 = recv();
        assert_ok(&m2);
        assert_eq!(field(&m2, "market"), &Value::Str("m2".into()));

        // The table is full: the third load answers market_limit and
        // the resident sessions are untouched.
        send(r#"{"v":2,"id":7,"verb":"load","market":{}}"#);
        let full = recv();
        assert_eq!(error_code(&full), "market_limit");
        assert_eq!(field(&full, "id"), &Value::I64(7));
        send(r#"{"v":2,"verb":"list"}"#);
        let list = recv();
        assert_ok(&list);
        assert_eq!(int(&list, "count"), 2);
        assert_eq!(int(&list, "max_markets"), 2);

        // Evicting m1 frees a slot; the next load gets a fresh id (m3),
        // and the evicted id stays unknown forever.
        send(r#"{"v":2,"verb":"unload","market":"m1"}"#);
        let evicted = recv();
        assert_ok(&evicted);
        assert_eq!(field(&evicted, "market"), &Value::Str("m1".into()));
        send(r#"{"v":2,"verb":"load","market":{}}"#);
        let m3 = recv();
        assert_ok(&m3);
        assert_eq!(field(&m3, "market"), &Value::Str("m3".into()));
        send(r#"{"v":2,"verb":"advise","market":"m1","asn":3}"#);
        assert_eq!(error_code(&recv()), "unknown_market");
        send(r#"{"v":2,"verb":"unload","market":"m1"}"#);
        assert_eq!(error_code(&recv()), "unknown_market");

        // Scoped verbs still work against the surviving sessions.
        send(r#"{"v":2,"verb":"advise","market":"m2","asn":3}"#);
        let reply = recv();
        assert_ok(&reply);
        assert_eq!(field(&reply, "market"), &Value::Str("m2".into()));

        send(r#"{"v":2,"verb":"quit"}"#);
        assert_ok(&recv());
        handle.join().unwrap().unwrap();
    }

    /// The advise cache is generation-keyed: a `step` that adopts (or
    /// shocks) invalidates it, and repeat queries after the market
    /// settles hit again — with replies byte-identical to cold ones.
    #[test]
    fn advise_cache_invalidates_on_market_changes() {
        let server = MarketServer::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve(&|_spec| Ok(arbitrage_market())));

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut send = |line: &str| writeln!(writer, "{line}").unwrap();
        let mut recv_line = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line.trim().to_owned()
        };

        send(r#"{"v":2,"verb":"load","market":{}}"#);
        recv_line();

        // Cold, then warm: identical bytes except the cached flag.
        send(r#"{"v":2,"verb":"advise","market":"m1","asn":3,"top":1}"#);
        let cold = recv_line();
        send(r#"{"v":2,"verb":"advise","market":"m1","asn":3,"top":1}"#);
        let warm = recv_line();
        assert!(cold.contains(r#""cached":false"#), "{cold}");
        assert!(warm.contains(r#""cached":true"#), "{warm}");
        assert_eq!(
            cold.replace(r#""cached":false"#, r#""cached":true"#),
            warm,
            "warm replies must be byte-identical to cold ones"
        );

        // The adoption in round 0 bumps the generation: the next advise
        // recomputes against the stepped market.
        send(r#"{"v":2,"verb":"step","market":"m1","rounds":1}"#);
        recv_line();
        recv_line();
        send(r#"{"v":2,"verb":"advise","market":"m1","asn":3,"top":1}"#);
        let after_step = recv_line();
        assert!(after_step.contains(r#""cached":false"#), "{after_step}");
        assert_ne!(
            cold.replace(r#""cached":false"#, ""),
            after_step.replace(r#""cached":false"#, ""),
            "the adopted agreement must change the advice"
        );
        send(r#"{"v":2,"verb":"advise","market":"m1","asn":3,"top":1}"#);
        assert!(recv_line().contains(r#""cached":true"#));

        send(r#"{"v":2,"verb":"quit"}"#);
        recv_line();
        handle.join().unwrap().unwrap();
    }

    /// Satellite: every malformed or failing request must answer with a
    /// structured `{code, message}` error and leave the resident market
    /// fully functional — errors poison neither the connection nor the
    /// state.
    #[test]
    fn protocol_errors_do_not_poison_the_resident_market() {
        let server = MarketServer::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve(&|_spec| Ok(arbitrage_market())));

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut send = |line: &str| writeln!(writer, "{line}").unwrap();
        let mut recv = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            serde_json::from_str::<Value>(line.trim()).unwrap()
        };

        send(r#"{"v":2,"verb":"load","market":{}}"#);
        assert_ok(&recv());

        // Malformed JSON, unknown verb, unknown field, zero rounds: each
        // one structured error line, connection stays up.
        send("{ this is not json");
        assert_eq!(error_code(&recv()), "bad_request");
        send(r#"{"v":2,"verb":"dance"}"#);
        assert_eq!(error_code(&recv()), "unknown_verb");
        send(r#"{"v":2,"verb":"step","market":"m1","shokc":0.2}"#);
        assert_eq!(error_code(&recv()), "bad_request");
        send(r#"{"v":2,"verb":"step","market":"m1","rounds":0}"#);
        assert_eq!(error_code(&recv()), "bad_request");
        send(r#"{"v":2,"verb":"step","market":"m1","shock":7.0}"#);
        let reply = recv();
        assert_eq!(error_code(&reply), "invalid_config");
        assert!(error_message(&reply).contains("invalid shock override"));

        // A checkpoint that is truncated mid-payload and one that is
        // outright corrupted both fail in validation — and the failed
        // restore keeps the previous resident market.
        let dir = std::env::temp_dir();
        let id = std::process::id();
        let good = dir.join(format!("pan-serve-errors-good-{id}.json"));
        let bad = dir.join(format!("pan-serve-errors-bad-{id}.json"));
        let path_json = |p: &std::path::Path| serde_json::to_string(&p.to_str().unwrap()).unwrap();
        send(&format!(
            r#"{{"v":2,"verb":"snapshot","market":"m1","path":{}}}"#,
            path_json(&good)
        ));
        assert_ok(&recv());
        let bytes = std::fs::read_to_string(&good).unwrap();
        std::fs::write(&bad, &bytes[..bytes.len() / 2]).unwrap();
        send(&format!(
            r#"{{"v":2,"verb":"restore","market":"m1","path":{}}}"#,
            path_json(&bad)
        ));
        assert_eq!(error_code(&recv()), "corrupt_checkpoint");
        std::fs::write(&bad, bytes.replace("\"cash\":[", "\"cash\":[1e999,")).unwrap();
        send(&format!(
            r#"{{"v":2,"verb":"restore","market":"m1","path":{}}}"#,
            path_json(&bad)
        ));
        assert_eq!(error_code(&recv()), "corrupt_checkpoint");

        // The resident market survived it all: stats answers and
        // stepping still adopts the arbitrage.
        send(r#"{"v":2,"verb":"stats","market":"m1"}"#);
        let stats = recv();
        assert_ok(&stats);
        assert_eq!(
            field(&stats, "label"),
            &Value::Str("arbitrage fixture".into())
        );
        send(r#"{"v":2,"verb":"step","market":"m1","rounds":5}"#);
        let round1 = recv();
        assert_ok(&round1);
        assert_eq!(int(field(&round1, "record"), "adopted"), 1);
        let round2 = recv();
        assert_eq!(int(field(&round2, "record"), "adopted"), 0);
        let summary = recv();
        assert_ok(&summary);
        assert_eq!(field(&summary, "fixed_point"), &Value::Bool(true));

        send(r#"{"v":2,"verb":"quit"}"#);
        assert_ok(&recv());
        handle.join().unwrap().unwrap();
        std::fs::remove_file(&good).ok();
        std::fs::remove_file(&bad).ok();
    }

    /// Satellite: a request line exceeding the 1 MiB cap closes that
    /// connection (after a best-effort error reply) without taking the
    /// server down: a fresh connection is served normally afterwards.
    #[test]
    fn oversized_request_lines_close_the_connection_but_not_the_server() {
        let server = MarketServer::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve(&|_spec| Ok(arbitrage_market())));

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // The server closes us as soon as the cap trips; the tail of
        // this write may die on the reset, and the reset may even
        // discard the best-effort error reply — both are fine, the
        // contract under test is that the *server* survives.
        let junk = vec![b'x'; 2 << 20];
        let _ = writer.write_all(&junk).and_then(|()| writer.flush());
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => {}
            Ok(_) => {
                assert!(line.contains("exceeds"), "{line}");
                line.clear();
                assert!(
                    matches!(reader.read_line(&mut line), Ok(0) | Err(_)),
                    "the connection must be closed, got {line:?}"
                );
            }
        }

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writeln!(writer, r#"{{"v":2,"verb":"load","market":{{}}}}"#).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""ok":true"#), "{line}");
        writeln!(writer, r#"{{"v":2,"verb":"quit"}}"#).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""ok":true"#), "{line}");
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.connections, 2);
    }

    /// Satellite + tentpole: the `metrics` verb answers with the live
    /// telemetry registry (per-verb latency histograms populated by the
    /// requests this very session made) and per-market cache hit rates,
    /// and the process-level `stats` reply carries uptime and the
    /// per-error-code reply counters.
    #[test]
    fn metrics_verb_reports_registry_and_cache_rates() {
        let server = MarketServer::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve(&|_spec| Ok(arbitrage_market())));

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut send = |line: &str| writeln!(writer, "{line}").unwrap();
        let mut recv = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            serde_json::from_str::<Value>(line.trim()).unwrap()
        };

        send(r#"{"v":2,"verb":"load","market":{}}"#);
        assert_ok(&recv());
        send(r#"{"v":2,"verb":"advise","market":"m1","asn":3}"#);
        assert_ok(&recv());
        send(r#"{"v":2,"verb":"advise","market":"m1","asn":3}"#);
        assert_ok(&recv());
        // One deliberate error so the stats error table has an entry.
        send(r#"{"v":2,"verb":"dance"}"#);
        assert_eq!(error_code(&recv()), "unknown_verb");

        // Satellite: process-level stats gained uptime and per-code
        // error counters (this service saw exactly one unknown_verb).
        send(r#"{"v":2,"verb":"stats"}"#);
        let stats = recv();
        assert_ok(&stats);
        match field(&stats, "uptime_seconds") {
            Value::F64(s) => assert!(*s >= 0.0, "uptime went backwards: {s}"),
            other => panic!("uptime_seconds is not a float: {other:?}"),
        }
        let errors = field(&stats, "errors");
        assert_eq!(int(errors, "unknown_verb"), 1);
        assert_eq!(int(errors, "bad_request"), 0);

        send(r#"{"v":2,"id":"m","verb":"metrics"}"#);
        let metrics = recv();
        assert_ok(&metrics);
        assert_eq!(field(&metrics, "id"), &Value::Str("m".into()));
        assert_eq!(field(&metrics, "verb"), &Value::Str("metrics".into()));
        assert_eq!(field(&metrics, "enabled"), &Value::Bool(true));
        // The registry is process-global, so counts are lower bounds
        // (other servers in this test binary share it); the two advises
        // above guarantee the verb histogram is populated.
        let advise_ns = field(field(&metrics, "histograms"), "serve.verb.advise_ns");
        assert!(int(advise_ns, "count") >= 2, "{advise_ns:?}");
        assert!(int(advise_ns, "p99") >= int(advise_ns, "p50"));
        assert!(int(field(&metrics, "counters"), "serve.advise.cache_hits") >= 1);
        // The markets array is per-service, so it is exact: one cold
        // advise, one warm.
        let markets = field(&metrics, "markets").seq().unwrap();
        assert_eq!(markets.len(), 1);
        assert_eq!(int(&markets[0], "cache_hits"), 1);
        assert_eq!(int(&markets[0], "cache_misses"), 1);
        assert_eq!(field(&markets[0], "hit_rate"), &Value::F64(0.5));

        send(r#"{"v":2,"verb":"quit"}"#);
        assert_ok(&recv());
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn loader_errors_surface_as_protocol_errors() {
        let server = MarketServer::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr().unwrap();
        let handle =
            std::thread::spawn(move || server.serve(&|_spec| Err("no such dataset".into())));
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut recv = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            serde_json::from_str::<Value>(line.trim()).unwrap()
        };
        writeln!(writer, r#"{{"v":2,"verb":"load","market":{{}}}}"#).unwrap();
        let reply = recv();
        assert_eq!(error_code(&reply), "invalid_config");
        assert!(error_message(&reply).contains("no such dataset"));
        writeln!(
            writer,
            r#"{{"v":2,"verb":"load","checkpoint":"/definitely/missing"}}"#
        )
        .unwrap();
        let reply = recv();
        assert_eq!(error_code(&reply), "corrupt_checkpoint");
        assert!(error_message(&reply).contains("cannot read checkpoint"));
        writeln!(writer, r#"{{"v":2,"verb":"quit"}}"#).unwrap();
        handle.join().unwrap().unwrap();
    }
}
