//! Multi-tenant market server over the standard markets (synthetic or
//! CAIDA-loaded through the unified source layer): keep
//! a table of resident `MarketState`s loaded and answer advisory
//! queries (cached per AS), stream evolution rounds, and
//! checkpoint/restore trajectories without rebuilding the world per
//! request. Speaks the v2 protocol (see `pan_serve::protocol`): every
//! request carries `"v": 2`, `load` returns a server-assigned market id
//! (`"m1"`, …), and the other verbs are market-scoped.
//!
//! ```console
//! serve --quick --threads 4                    # defaults: 127.0.0.1:4780
//! serve --addr 127.0.0.1:0 --max-markets 4     # OS-assigned port (logged)
//! serve-client --send '{"v":2,"verb":"load","market":{}}' ...   # drive it
//! ```
//!
//! Accepts the shared [`ScenarioSpec`] flags as the **base spec** of
//! loads (including `--caida <dir>`/`--snapshot <name>` for real-internet
//! snapshots); a `load` request's `market` object overrides individual
//! fields per load (`{"ases":500,"seed":7,"shock":0.2,…}`, same
//! vocabulary as the spec flags, plus `"source"` — `"synthetic"` or
//! `{"caida": <dir>, "snapshot": <name>}`). Plus:
//!
//! - `--addr <host:port>`: listen address (default `127.0.0.1:4780`);
//! - `--engine <full|incremental>`: discovery engine resident markets
//!   step with (default `full`; replies are byte-identical either way);
//! - `--max-markets <n>`: session-table cap — further `load`s answer
//!   the `market_limit` error code (default 8);
//! - `--slow-ms <ms>`: only stderr-log requests at least this slow
//!   (default 1 ms; `0` logs every request);
//! - `--bench-out <path>`: write a service summary record on shutdown;
//! - `--metrics-out <path>`: also dump the final telemetry registry
//!   snapshot on shutdown (the live registry is always queryable via
//!   the `metrics` verb while the server runs).
//!
//! The listen address and all timings go to **stderr**; protocol replies
//! are deterministic at any `--threads` value (the CI `serve-smoke` job
//! diffs streamed `step` rounds against an `evolve` trajectory).

use std::time::{Duration, Instant};

use serde::{Serialize, Value};

use pan_bench::{load_market_request, MetricsSink, ReportSink, ScenarioSpec};
use pan_serve::{LoadedMarket, MarketServer};

#[derive(Debug, Serialize)]
struct BenchRecord {
    addr: String,
    threads: usize,
    connections: usize,
    requests: usize,
}

fn main() {
    let (spec, mut rest) = ScenarioSpec::from_args(std::env::args());
    let sink = ReportSink::from_spec(&spec, &mut rest);
    let metrics = MetricsSink::from_args(&mut rest);
    let mut addr = "127.0.0.1:4780".to_owned();
    let mut engine = pan_core::Engine::Full;
    let mut max_markets = pan_serve::DEFAULT_MAX_MARKETS;
    let mut slow_ms = 1.0f64;
    let mut extras = Vec::new();
    let mut rest = rest.into_iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--addr" => {
                addr = rest
                    .next()
                    .unwrap_or_else(|| panic!("--addr requires a value"));
            }
            "--engine" => {
                let value = rest
                    .next()
                    .unwrap_or_else(|| panic!("--engine requires a value: full, incremental"));
                engine = value.parse().unwrap_or_else(|e| panic!("{e}"));
            }
            "--max-markets" => {
                let value = rest
                    .next()
                    .unwrap_or_else(|| panic!("--max-markets requires a value"));
                max_markets = value
                    .parse()
                    .unwrap_or_else(|e| panic!("--max-markets: {e}"));
            }
            "--slow-ms" => {
                let value = rest
                    .next()
                    .unwrap_or_else(|| panic!("--slow-ms requires a value"));
                slow_ms = value.parse().unwrap_or_else(|e| panic!("--slow-ms: {e}"));
                assert!(
                    slow_ms >= 0.0 && slow_ms.is_finite(),
                    "--slow-ms must be a non-negative number of milliseconds"
                );
            }
            _ => extras.push(arg),
        }
    }
    ScenarioSpec::expect_no_extras_for(
        &extras,
        "--addr <host:port>, --engine <full|incremental>, --max-markets <n>, \
         --slow-ms <ms>, --bench-out <path>, --metrics-out <path>",
    );

    let server = MarketServer::bind(&addr, spec.threads)
        .unwrap_or_else(|e| panic!("cannot bind {addr:?}: {e}"))
        .with_engine(engine)
        .with_max_markets(max_markets)
        .with_slow_log(Duration::from_secs_f64(slow_ms / 1e3));
    let local = server.local_addr().expect("bound sockets have an address");
    eprintln!(
        "# serving on {local} at {} threads, {engine} engine, up to {max_markets} markets \
         (base spec: seed {}, quick {})",
        spec.threads, spec.seed, spec.quick
    );

    let base = spec.clone();
    let loader = move |market: &Value| -> Result<LoadedMarket, String> {
        let t0 = Instant::now();
        let loaded: LoadedMarket = load_market_request(&base, market)?;
        eprintln!(
            "# built {}-AS market ({}) in {:.2}s",
            loaded.state.graph().node_count(),
            loaded.label,
            t0.elapsed().as_secs_f64()
        );
        Ok(loaded)
    };
    let summary = server.serve(&loader).expect("the serve loop runs");
    sink.write_record(&BenchRecord {
        addr: local.to_string(),
        threads: spec.threads,
        connections: summary.connections,
        requests: summary.requests,
    });
    metrics.write();
}
