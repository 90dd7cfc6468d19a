//! Load generator for the multi-tenant `serve` binary: drives N
//! concurrent clients over mixed advise/step workloads against a
//! running server and records advise throughput, latency percentiles,
//! and the server's cache hit ratio.
//!
//! ```console
//! serve --quick --ases 2000 --threads 4 &      # the service under test
//! serve-bench --quick --markets 2 --clients 4 --quit \
//!   --bench-out BENCH_serving.json
//! ```
//!
//! Four measured phases, after loading `--markets` sessions (each from
//! the server's base spec at a distinct seed):
//!
//! 1. **cold** — one sequential advise per (market, AS) pair, every one
//!    a cache miss: the uncached evaluation baseline;
//! 2. **warm** — the same sequential pairs re-queried, every one a
//!    generation-keyed cache hit: the like-for-like latency comparison
//!    behind the reported cold-over-warm speedup;
//! 3. **concurrent** — `--clients` connections hammering the cached
//!    pairs in parallel: the advise-QPS number;
//! 4. **mixed** — the same concurrent advise load while the control
//!    connection steps each market once mid-phase, invalidating its
//!    cache and forcing recomputation under load.
//!
//! The phase stats go to stdout and (with `--bench-out`) into a bench
//! record together with the server-side per-market cache counters from
//! `stats`. Flags beyond the shared [`ScenarioSpec`] set:
//!
//! - `--addr <host:port>`: server address (default `127.0.0.1:4780`);
//! - `--markets <n>`: sessions to load (default 2);
//! - `--clients <n>`: concurrent advise connections (default 4);
//! - `--requests <n>`: advises per client per concurrent phase
//!   (default 100 quick / 400 full);
//! - `--quit`: shut the server down when done;
//! - `--metrics-out <path>`: write the client-side latency histograms
//!   (`serve_bench.phase.*_us`) as a telemetry snapshot.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use serde::{Serialize, Value};

use pan_bench::{MetricsSink, ReportSink, ScenarioSpec};

struct Options {
    addr: String,
    markets: usize,
    clients: usize,
    requests: usize,
    quit: bool,
}

/// One blocking client connection speaking the v2 protocol.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> Conn {
        let budget = Duration::from_millis(15_000);
        let started = Instant::now();
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(stream) => break stream,
                Err(e) => {
                    assert!(started.elapsed() < budget, "cannot connect to {addr}: {e}");
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        };
        stream.set_nodelay(true).expect("nodelay sets");
        Conn {
            writer: stream.try_clone().expect("streams clone"),
            reader: BufReader::new(stream),
        }
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("reply reads");
        assert!(n > 0, "server closed the connection mid-reply");
        serde_json::from_str(line.trim_end()).expect("replies parse")
    }

    /// Sends one request and reads the single reply line, asserting
    /// success.
    fn roundtrip(&mut self, request: &str) -> Value {
        writeln!(self.writer, "{request}").expect("request writes");
        let reply = self.recv();
        assert!(
            matches!(reply.field("ok"), Ok(Value::Bool(true))),
            "request {request:?} failed: {reply:?}"
        );
        reply
    }

    /// Sends a `step` and drains the streamed `round` lines plus the
    /// closing summary.
    fn step(&mut self, market: &str, rounds: usize) {
        writeln!(
            self.writer,
            r#"{{"v":2,"verb":"step","market":"{market}","rounds":{rounds}}}"#
        )
        .expect("request writes");
        loop {
            let reply = self.recv();
            assert!(
                matches!(reply.field("ok"), Ok(Value::Bool(true))),
                "step on {market} failed: {reply:?}"
            );
            if !matches!(reply.field("verb"), Ok(Value::Str(v)) if v == "round") {
                break;
            }
        }
    }
}

fn str_field(value: &Value, key: &str) -> String {
    match value.field(key) {
        Ok(Value::Str(s)) => s.clone(),
        other => panic!("field {key} is not a string: {other:?}"),
    }
}

fn int_field(value: &Value, key: &str) -> u64 {
    match value.field(key) {
        Ok(Value::I64(n)) => u64::try_from(*n).expect("non-negative"),
        Ok(Value::U64(n)) => *n,
        other => panic!("field {key} is not an integer: {other:?}"),
    }
}

fn bool_field(value: &Value, key: &str) -> bool {
    match value.field(key) {
        Ok(Value::Bool(b)) => *b,
        other => panic!("field {key} is not a boolean: {other:?}"),
    }
}

#[derive(Debug, Serialize)]
struct PhaseStats {
    requests: usize,
    seconds: f64,
    qps: f64,
    mean_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
}

impl PhaseStats {
    /// Aggregates per-request round-trip latencies measured over
    /// `seconds` of wall clock, and mirrors them into the (opt-in)
    /// telemetry registry as `serve_bench.phase.<name>_us`.
    fn from_latencies(name: &str, mut millis: Vec<f64>, seconds: f64) -> PhaseStats {
        assert!(!millis.is_empty(), "a phase must measure something");
        let sink = pan_telemetry::histogram(&format!("serve_bench.phase.{name}_us"));
        if sink.is_live() {
            for &ms in &millis {
                sink.record((ms * 1e3) as u64);
            }
        }
        millis.sort_by(f64::total_cmp);
        // Nearest-rank on the sorted sample: the smallest observation
        // covering at least `p` of the distribution. The previous
        // `round(p * (len-1))` index math could pick an observation
        // *below* the requested rank, under-reporting p50/p99 on the
        // small sequential phases.
        let percentile = |p: f64| {
            let rank = (p * millis.len() as f64).ceil().max(1.0) as usize;
            millis[rank.min(millis.len()) - 1]
        };
        PhaseStats {
            requests: millis.len(),
            seconds,
            qps: millis.len() as f64 / seconds,
            mean_ms: millis.iter().sum::<f64>() / millis.len() as f64,
            p50_ms: percentile(0.50),
            p99_ms: percentile(0.99),
        }
    }
}

#[derive(Debug, Serialize)]
struct CacheStats {
    advises: u64,
    hits: u64,
    misses: u64,
    hit_ratio: f64,
}

#[derive(Debug, Serialize)]
struct BenchRecord {
    addr: String,
    quick: bool,
    markets: usize,
    clients: usize,
    asns_per_market: usize,
    requests_per_client: usize,
    cold: PhaseStats,
    warm: PhaseStats,
    concurrent: PhaseStats,
    mixed: PhaseStats,
    warm_speedup_over_cold: f64,
    cache: CacheStats,
}

/// The advise targets: the first `count` ASNs of each market (synthetic
/// internets number their ASes `1..=n`).
fn targets(markets: &[String], count: usize) -> Vec<(String, u32)> {
    let mut pairs = Vec::new();
    for market in markets {
        for asn in 1..=count as u32 {
            pairs.push((market.clone(), asn));
        }
    }
    pairs
}

fn advise_line(market: &str, asn: u32) -> String {
    format!(r#"{{"v":2,"verb":"advise","market":"{market}","asn":{asn},"top":5}}"#)
}

/// Runs `clients` concurrent connections, each issuing `requests`
/// advises round-robin over the targets, and returns the merged
/// per-request latencies plus the phase's wall-clock seconds.
fn concurrent_advises(
    addr: &str,
    pairs: &[(String, u32)],
    clients: usize,
    requests: usize,
) -> (Vec<f64>, f64) {
    let t0 = Instant::now();
    let latencies = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr);
                    let mut millis = Vec::with_capacity(requests);
                    for i in 0..requests {
                        // Offset per client so connections touch
                        // different markets at the same moment.
                        let (market, asn) = &pairs[(c + i) % pairs.len()];
                        let line = advise_line(market, *asn);
                        let t = Instant::now();
                        conn.roundtrip(&line);
                        millis.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                    millis
                })
            })
            .collect();
        let mut all = Vec::new();
        for handle in handles {
            all.extend(handle.join().expect("client threads join"));
        }
        all
    });
    (latencies, t0.elapsed().as_secs_f64())
}

fn main() {
    let (spec, mut rest) = ScenarioSpec::from_args(std::env::args());
    let sink = ReportSink::from_spec(&spec, &mut rest);
    let metrics = MetricsSink::from_args(&mut rest);
    let mut options = Options {
        addr: "127.0.0.1:4780".to_owned(),
        markets: 2,
        clients: 4,
        requests: if spec.quick { 100 } else { 400 },
        quit: false,
    };
    let mut extras = Vec::new();
    let mut rest = rest.into_iter();
    while let Some(arg) = rest.next() {
        let mut value = |flag: &str| {
            rest.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--addr" => options.addr = value("--addr"),
            "--markets" => {
                options.markets = value("--markets").parse().expect("--markets is a count");
            }
            "--clients" => {
                options.clients = value("--clients").parse().expect("--clients is a count");
            }
            "--requests" => {
                options.requests = value("--requests").parse().expect("--requests is a count");
            }
            "--quit" => options.quit = true,
            _ => extras.push(arg),
        }
    }
    ScenarioSpec::expect_no_extras_for(
        &extras,
        "--addr <host:port>, --markets <n>, --clients <n>, --requests <n>, --quit, \
         --bench-out <path>, --metrics-out <path>",
    );
    let asns_per_market = if spec.quick { 6 } else { 12 };

    let addr = options.addr.as_str();
    let mut control = Conn::connect(addr);
    let mut markets = Vec::new();
    for i in 0..options.markets {
        let seed = spec.seed + i as u64;
        let t0 = Instant::now();
        let reply = control.roundtrip(&format!(
            r#"{{"v":2,"verb":"load","market":{{"seed":{seed}}}}}"#
        ));
        let market = str_field(&reply, "market");
        eprintln!(
            "# loaded {market} ({} ases, seed {seed}) in {:.2}s",
            int_field(&reply, "ases"),
            t0.elapsed().as_secs_f64()
        );
        markets.push(market);
    }
    let pairs = targets(&markets, asns_per_market);

    // Phase 1: cold — every (market, AS) pair once, all misses.
    let t0 = Instant::now();
    let mut cold_ms = Vec::with_capacity(pairs.len());
    for (market, asn) in &pairs {
        let line = advise_line(market, *asn);
        let t = Instant::now();
        let reply = control.roundtrip(&line);
        cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
        assert!(!bool_field(&reply, "cached"), "cold advise hit the cache");
    }
    let cold = PhaseStats::from_latencies("cold", cold_ms, t0.elapsed().as_secs_f64());
    eprintln!(
        "# cold: {} advises, p50 {:.3} ms, p99 {:.3} ms",
        cold.requests, cold.p50_ms, cold.p99_ms
    );

    // Phase 2: warm — the same sequential pairs on the same connection,
    // now all cache hits: the like-for-like latency comparison.
    let warm_passes = 5;
    let t0 = Instant::now();
    let mut warm_ms = Vec::with_capacity(pairs.len() * warm_passes);
    for _ in 0..warm_passes {
        for (market, asn) in &pairs {
            let line = advise_line(market, *asn);
            let t = Instant::now();
            let reply = control.roundtrip(&line);
            warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
            assert!(bool_field(&reply, "cached"), "warm advise missed the cache");
        }
    }
    let warm = PhaseStats::from_latencies("warm", warm_ms, t0.elapsed().as_secs_f64());
    eprintln!(
        "# warm: {} advises, p50 {:.3} ms, p99 {:.3} ms ({:.1}x over cold)",
        warm.requests,
        warm.p50_ms,
        warm.p99_ms,
        cold.p50_ms / warm.p50_ms
    );

    // Phase 3: concurrent — clients hammering the cached pairs in
    // parallel (latencies here include head-of-line queueing at the
    // single owner thread; the warm phase above is the clean number).
    let (concurrent_ms, concurrent_secs) =
        concurrent_advises(addr, &pairs, options.clients, options.requests);
    let concurrent = PhaseStats::from_latencies("concurrent", concurrent_ms, concurrent_secs);
    eprintln!(
        "# concurrent: {} advises over {} clients, {:.0} qps, p50 {:.3} ms, p99 {:.3} ms",
        concurrent.requests, options.clients, concurrent.qps, concurrent.p50_ms, concurrent.p99_ms
    );

    // Phase 4: mixed — the same concurrent load while the control
    // connection steps every market once, invalidating its cache
    // mid-phase.
    let (mixed_ms, mixed_secs) = std::thread::scope(|scope| {
        let markets = &markets;
        let stepper = scope.spawn(move || {
            let mut conn = Conn::connect(addr);
            for market in markets {
                conn.step(market, 1);
            }
        });
        let result = concurrent_advises(addr, &pairs, options.clients, options.requests);
        stepper.join().expect("the stepper joins");
        result
    });
    let mixed = PhaseStats::from_latencies("mixed", mixed_ms, mixed_secs);
    eprintln!(
        "# mixed: {} advises + {} steps, {:.0} qps, p50 {:.3} ms, p99 {:.3} ms",
        mixed.requests,
        markets.len(),
        mixed.qps,
        mixed.p50_ms,
        mixed.p99_ms
    );

    // Server-side truth: per-market cache counters over the whole run.
    let mut cache = CacheStats {
        advises: 0,
        hits: 0,
        misses: 0,
        hit_ratio: 0.0,
    };
    for market in &markets {
        let stats = control.roundtrip(&format!(r#"{{"v":2,"verb":"stats","market":"{market}"}}"#));
        cache.advises += int_field(&stats, "advises");
        cache.hits += int_field(&stats, "cache_hits");
        cache.misses += int_field(&stats, "cache_misses");
    }
    cache.hit_ratio = cache.hits as f64 / cache.advises.max(1) as f64;
    if options.quit {
        control.roundtrip(r#"{"v":2,"verb":"quit"}"#);
    }

    let record = BenchRecord {
        addr: options.addr.clone(),
        quick: spec.quick,
        markets: options.markets,
        clients: options.clients,
        asns_per_market,
        requests_per_client: options.requests,
        warm_speedup_over_cold: cold.p50_ms / warm.p50_ms,
        cold,
        warm,
        concurrent,
        mixed,
        cache,
    };
    println!(
        "serving: {} markets, {} clients | cold p50 {:.3} ms | warm p50 {:.3} ms \
         ({:.1}x speedup) | concurrent {:.0} qps | mixed p50 {:.3} ms | cache hit ratio {:.3}",
        record.markets,
        record.clients,
        record.cold.p50_ms,
        record.warm.p50_ms,
        record.warm_speedup_over_cold,
        record.concurrent.qps,
        record.mixed.p50_ms,
        record.cache.hit_ratio
    );
    sink.write_record(&record);
    metrics.write();
}

#[cfg(test)]
mod tests {
    use super::PhaseStats;

    #[test]
    fn percentiles_use_nearest_rank_on_the_sorted_sample() {
        // Ten samples 1..=10 ms: nearest-rank p50 is the 5th smallest
        // (5.0) — the old round(p·(len-1)) index picked the 6th — and
        // p99 is the ⌈9.9⌉ = 10th (the maximum).
        let millis: Vec<f64> = (1..=10).map(f64::from).collect();
        let stats = PhaseStats::from_latencies("test", millis, 1.0);
        assert_eq!(stats.p50_ms, 5.0);
        assert_eq!(stats.p99_ms, 10.0);
        // Order of arrival must not matter.
        let shuffled = vec![9.0, 2.0, 10.0, 4.0, 6.0, 8.0, 1.0, 3.0, 7.0, 5.0];
        let stats = PhaseStats::from_latencies("test", shuffled, 1.0);
        assert_eq!(stats.p50_ms, 5.0);
        assert_eq!(stats.p99_ms, 10.0);
        // A single observation is every percentile.
        let one = PhaseStats::from_latencies("test", vec![3.0], 1.0);
        assert_eq!(one.p50_ms, 3.0);
        assert_eq!(one.p99_ms, 3.0);
    }
}
