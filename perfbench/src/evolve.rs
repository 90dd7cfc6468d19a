//! The in-process workloads `evolve-steady` and `evolve-churn`: build
//! every 10k-AS market of the pool in turn and evolve each for one cold
//! round and as many warm rounds as the run's seconds allow.
//!
//! `evolve-steady` has no share noise and no shock, so its warm rounds
//! run on the full engine's cross-round caches (per-pair transit, node
//! programs) and never reach the row-walk evaluator. `evolve-churn` adds
//! per-pair share noise and a price shock every round: each round takes
//! the row-walk evaluator and each shock drops the transit cache. Between
//! and after its rounds, each market answers three passes of `advise`
//! calls for a fixed set of ASes, made directly on the library, with no
//! server and no cache in between.
//!
//! Besides each market's own build, the run builds the market again a
//! few times between its rounds, so that the set-up samples are spread
//! over the whole run: a burst of host interference then moves a few of
//! them, not all. `evolve-steady` also builds each market once more
//! after dropping it, for a second cold round.

use std::time::{Duration, Instant};

use pan_bench::{evolution_config, market_tier, ScenarioSpec};
use pan_core::{advise, AdoptedAgreement, EvolutionDriver, MarketState, PairOutcome, RoundRecord};
use pan_runtime::{ScenarioSweep, ThreadPool};
use pan_topology::Asn;

use crate::layers::{metric_name, Rounds, Tally};
use crate::record::{round_digests, Digests, Report};
use crate::stats::{median, percentile, within_limit_ratio};
use crate::{Options, SplitMix64, Workload, ASES, LATENCY_LIMIT_MS, MARKET_POOL, THREADS};

/// Passes over the probed ASes; an AS's sample is the median of its
/// calls.
const ADVISE_PASSES: usize = 3;
/// Extra set-up samples per market, built between its rounds.
const EXTRA_SETUPS: usize = 3;

/// Shape of one evolution workload.
#[derive(Debug, Clone, Copy)]
struct Params {
    noise: f64,
    shock: f64,
    advises: usize,
    /// Nominal seconds of one market's set-ups, cold round, and advises,
    /// and of one warm round, on a 2-vCPU host: they size the warm
    /// rounds so that a run measures about `--seconds`.
    market_s: f64,
    warm_round_s: f64,
    /// Cold rounds per market: the first on the market's own build, each
    /// further one on a fresh build after the market is dropped. A steady
    /// cold round costs a few warm rounds; a churn round would cost a
    /// whole market's other work.
    cold_rounds: usize,
}

impl Params {
    fn of(workload: Workload) -> Params {
        match workload {
            Workload::EvolveChurn => Params {
                noise: 0.1,
                shock: 0.2,
                advises: 350,
                market_s: 3.7,
                warm_round_s: 2.0,
                cold_rounds: 1,
            },
            _ => Params {
                noise: 0.0,
                shock: 0.0,
                advises: 350,
                market_s: 2.6,
                warm_round_s: 0.15,
                cold_rounds: 2,
            },
        }
    }

    /// Warm rounds per market for a run of `seconds` (at least one).
    fn warm_rounds(&self, seconds: u64) -> usize {
        let per_market = seconds as f64 / MARKET_POOL as f64;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rounds = ((per_market - self.market_s) / self.warm_round_s).floor() as usize;
        rounds.max(1)
    }
}

/// The spec of one benchmark market: 10k ASes, quick grid, the given
/// share noise and shock.
#[must_use]
pub fn market_spec(seed: u64, noise: f64, shock: f64) -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        quick: true,
        seed,
        threads: THREADS,
        ases: ASES,
        ..ScenarioSpec::default()
    };
    spec.discovery.noise = noise;
    spec.evolution.shock = shock;
    spec
}

/// A built market with its two set-up stages timed: the source build
/// (`pan-datasets`) and the economic tables (`pan-econ`).
pub struct Built {
    /// The resident market.
    pub state: MarketState,
    /// Seconds in `MarketSource::build`.
    pub build_s: f64,
    /// Seconds in `MarketState::standard`.
    pub tables_s: f64,
}

/// Builds the market of `spec` the way every binary does.
///
/// # Errors
///
/// The rendered source or table error.
pub fn build_market(spec: &ScenarioSpec) -> Result<Built, String> {
    let t0 = Instant::now();
    let net = spec
        .market_source()
        .build(spec.seed)
        .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let state = MarketState::standard(net.graph.clone(), |asn| market_tier(&net, asn))
        .map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    Ok(Built {
        state,
        build_s: (t1 - t0).as_secs_f64(),
        tables_s: (t2 - t1).as_secs_f64(),
    })
}

/// Sum of the cash ledger, checked against zero: every NBS transfer
/// books the same amount on both parties.
///
/// # Errors
///
/// A message with the residual when it exceeds the tolerance.
pub fn check_ledger(state: &MarketState) -> Result<f64, String> {
    let n = state.graph().node_count() as u32;
    let (sum, magnitude) = (0..n).fold((0.0f64, 0.0f64), |(s, m), i| {
        let c = state.cash_balance(i);
        (s + c, m + c.abs())
    });
    if sum.abs() <= 1e-6 * magnitude.max(1.0) {
        Ok(sum)
    } else {
        Err(format!("cash ledger sums to {sum} (gross {magnitude})"))
    }
}

/// Checks one advise answer for `asn`: every outcome involves `asn`,
/// carries a finite surplus, and the ranking is by surplus, descending.
///
/// # Errors
///
/// A message naming the first violation.
pub fn check_outcomes(asn: u32, outcomes: &[PairOutcome]) -> Result<(), String> {
    let asn = Asn::new(asn);
    for pair in outcomes.windows(2) {
        if pair[0].surplus < pair[1].surplus {
            return Err(format!("advise for {asn} is not ranked by surplus"));
        }
    }
    match outcomes
        .iter()
        .find(|o| !o.surplus.is_finite() || (o.x != asn && o.y != asn))
    {
        Some(o) => Err(format!(
            "advise for {asn} returned {} – {} ({})",
            o.x, o.y, o.surplus
        )),
        None => Ok(()),
    }
}

/// One market's evolution: a cold round, then warm rounds.
pub struct Evolved {
    /// Final state.
    pub state: MarketState,
    /// The driver, with its caches.
    pub driver: EvolutionDriver,
    /// Round wall seconds, cold round first.
    pub seconds: Vec<f64>,
    /// Records and adopted agreements, round by round.
    pub trajectory: Vec<(RoundRecord, Vec<AdoptedAgreement>)>,
    /// Registry deltas of the cold round and the warm rounds (empty
    /// while telemetry is off).
    pub cold: Rounds,
    /// See [`Evolved::cold`].
    pub warm: Rounds,
}

/// Evolves `state` for `rounds` rounds on a `THREADS`-thread pool,
/// timing each `step` call and reading the registry around it, and
/// calling `after_round` with each round's index and the state it left,
/// outside the timing.
///
/// # Errors
///
/// The first failed round's error, after the rounds before it.
pub fn evolve(
    spec: &ScenarioSpec,
    mut state: MarketState,
    rounds: usize,
    report: &mut Report,
    mut after_round: impl FnMut(usize, &MarketState, &mut Report),
) -> Result<Evolved, String> {
    let mut driver = EvolutionDriver::new(evolution_config(spec)).map_err(|e| e.to_string())?;
    let sweep = ScenarioSweep::new(ThreadPool::new(THREADS), spec.seed);
    let (mut seconds, mut trajectory) = (Vec::new(), Vec::new());
    let (mut cold, mut warm) = (Rounds::default(), Rounds::default());
    for round in 0..rounds {
        let before = Tally::global();
        let started = Instant::now();
        let outcome = driver.step(&mut state, &sweep);
        let wall = started.elapsed();
        report.op("round", outcome.is_ok());
        let outcome = outcome.map_err(|e| format!("round {round} of seed {}: {e}", spec.seed))?;
        let delta = Tally::global().since(&before);
        if round == 0 { &mut cold } else { &mut warm }.add(nanos(wall), &delta);
        seconds.push(wall.as_secs_f64());
        trajectory.push((outcome.record, outcome.agreements));
        after_round(round, &state, report);
    }
    Ok(Evolved {
        state,
        driver,
        seconds,
        trajectory,
        cold,
        warm,
    })
}

/// Everything the markets of one run measured.
#[derive(Default)]
struct Samples {
    setup: Setups,
    cold: Vec<f64>,
    warm: Vec<f64>,
    steps: Vec<f64>,
    advise_ms: Vec<f64>,
    advise_attempted: usize,
    peak_rss_mb: Vec<f64>,
    candidates: Vec<f64>,
    resident_mb: Vec<f64>,
    untraced_warm: Vec<f64>,
    traced_warm: Vec<f64>,
    traced_cold: Rounds,
    traced_warm_rounds: Rounds,
}

/// Runs `evolve-steady` or `evolve-churn`: every market of the pool
/// once, in pool order. A traced run evolves the first half of the pool
/// twice, untraced and then traced, so that the difference between the
/// two passes is the tracing overhead on the same markets.
pub fn run(options: &Options, digests: &Digests, report: &mut Report) {
    let p = Params::of(options.workload);
    let warm_rounds = p.warm_rounds(options.seconds);
    let rounds = 1 + warm_rounds;
    report.param("ases", ASES);
    report.param("threads", THREADS);
    report.param("noise", p.noise);
    report.param("shock", p.shock);
    report.param("markets", MARKET_POOL);
    report.param("rounds_per_market", rounds);
    report.param("setups_per_market", p.cold_rounds + EXTRA_SETUPS);
    report.param("cold_rounds_per_market", p.cold_rounds);
    report.param("advises_per_market", p.advises);
    report.param("first_market_seed", crate::market_seed(0));

    let pool = MARKET_POOL as usize;
    let passes: Vec<(usize, bool)> = if options.trace {
        let half = pool / 2;
        (0..half)
            .map(|k| (k, false))
            .chain((0..half).map(|k| (k, true)))
            .collect()
    } else {
        (0..pool).map(|k| (k, false)).collect()
    };
    // After which rounds of a market the extra set-ups are built.
    let extra_after: Vec<usize> = (1..=EXTRA_SETUPS)
        .map(|j| (j * rounds / (EXTRA_SETUPS + 1)).min(rounds - 1))
        .collect();
    // After which rounds the advise passes run; the last after the last
    // round.
    let probe_after: Vec<usize> = (1..=ADVISE_PASSES)
        .map(|j| (j * rounds).div_ceil(ADVISE_PASSES) - 1)
        .collect();

    let started = Instant::now();
    let mut samples = Samples::default();
    let mut digest_checks = Vec::new();
    let mut ledger = Vec::new();
    for (k, traced) in passes {
        if traced {
            pan_telemetry::enable();
        }
        if let Err(e) = reset_peak_rss() {
            report.error(e);
        }
        let spec = market_spec(crate::market_seed(k), p.noise, p.shock);
        let Some(built) = build(&spec, &mut samples.setup, report) else {
            continue;
        };
        let key = options.workload.market_key(spec.seed);
        let mut extra = Setups::default();
        let mut probe = Probe::new(&spec, options.seed, p.advises);
        let evolved = evolve(
            &spec,
            built.state,
            rounds,
            report,
            |round, state, report| {
                for _ in extra_after.iter().filter(|&&r| r == round) {
                    build(&spec, &mut extra, report);
                }
                for _ in probe_after.iter().filter(|&&r| r == round) {
                    probe.pass(state, report);
                }
            },
        );
        probe.finish(&mut samples);
        samples.setup.merge(extra);
        let evolved = match evolved {
            Ok(evolved) => evolved,
            Err(e) => {
                report.error(e);
                continue;
            }
        };
        samples.cold.push(evolved.seconds[0]);
        samples.warm.extend(&evolved.seconds[1..]);
        samples.steps.extend(&evolved.seconds);
        samples
            .candidates
            .push(evolved.trajectory[0].0.candidates as f64);
        let footprint = evolved.state.resident_bytes() + evolved.driver.resident_bytes();
        samples
            .resident_mb
            .push(footprint as f64 / (1024.0 * 1024.0));
        if traced {
            samples.traced_warm.extend(&evolved.seconds[1..]);
            samples.traced_cold.merge(&evolved.cold);
            samples.traced_warm_rounds.merge(&evolved.warm);
        } else {
            samples.untraced_warm.extend(&evolved.seconds[1..]);
        }

        match digests.check(&key, &round_digests(&evolved.trajectory)) {
            Ok(checked) => digest_checks.push(checked),
            Err(e) => report.error(e),
        }
        match check_ledger(&evolved.state) {
            Ok(sum) => ledger.push(sum),
            Err(e) => report.error(format!("{key}: {e}")),
        }
        samples
            .peak_rss_mb
            .push(pan_bench::peak_rss_bytes() as f64 / (1024.0 * 1024.0));
        drop(evolved);
        for _ in 1..p.cold_rounds {
            let Some(again) = build(&spec, &mut samples.setup, report) else {
                continue;
            };
            match evolve(&spec, again.state, 1, report, |_, _, _| {}) {
                Ok(cold) => {
                    if let Err(e) = digests.check(&key, &round_digests(&cold.trajectory)) {
                        report.error(e);
                    }
                    samples.cold.push(cold.seconds[0]);
                    if traced {
                        samples.traced_cold.merge(&cold.cold);
                    }
                }
                Err(e) => report.error(e),
            }
        }
    }
    report.note("measured_seconds", started.elapsed().as_secs_f64());
    report.check("trajectory_digests", digest_checks);
    report.check("cash_ledger_sums", ledger);

    report.samples("setup", samples.setup.total.len());
    report.samples("round_cold", samples.cold.len());
    report.samples("round_warm", samples.warm.len());
    report.samples("step", samples.steps.len());
    report.samples("advise", samples.advise_ms.len());
    report.samples("peak_rss", samples.peak_rss_mb.len());
    report.note("market_peak_rss_mb", &samples.peak_rss_mb);
    report.note("cold_round_s", &samples.cold);
    if options.trace {
        report_layers(&samples, report);
    } else {
        report_end_to_end(&samples, report);
    }
}

/// Resets the process's peak resident set (`VmHWM`) to its current
/// resident set, so that the next reading is the peak of one market's
/// build, rounds and advises. Which of the allocator's per-thread arenas
/// a parallel round's allocations land in depends on thread timing, so
/// the peak of a whole run moves by up to a fifth between runs of
/// identical code; the median of the per-market peaks does not.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

/// Set-up timings: the whole set-up and its two stages.
#[derive(Default)]
struct Setups {
    total: Vec<f64>,
    build: Vec<f64>,
    tables: Vec<f64>,
}

impl Setups {
    fn merge(&mut self, other: Setups) {
        self.total.extend(other.total);
        self.build.extend(other.build);
        self.tables.extend(other.tables);
    }
}

fn build(spec: &ScenarioSpec, setups: &mut Setups, report: &mut Report) -> Option<Built> {
    let built = build_market(spec);
    report.op("build", built.is_ok());
    match built {
        Ok(built) => {
            setups.total.push(built.build_s + built.tables_s);
            setups.build.push(built.build_s);
            setups.tables.push(built.tables_s);
            Some(built)
        }
        Err(e) => {
            report.error(format!("building seed {}: {e}", spec.seed));
            None
        }
    }
}

/// Times `advise` for a fixed set of ASes per market. The set is asked
/// [`ADVISE_PASSES`] times over, in passes spread over the market's
/// rounds, each pass in its own order drawn from the run seed; an AS's
/// sample is the median of its calls. The calls for one AS are seconds
/// apart, so one burst of host interference moves one of them, not the
/// AS's sample.
struct Probe {
    seed: u64,
    config: pan_core::DiscoveryConfig,
    pool: ThreadPool,
    asns: Vec<u32>,
    calls: Vec<Vec<f64>>,
    failed: Vec<bool>,
    order: Vec<usize>,
    order_rng: SplitMix64,
}

impl Probe {
    fn new(spec: &ScenarioSpec, run_seed: u64, count: usize) -> Probe {
        let mut rng = SplitMix64::new(spec.seed ^ 0xad71_5e00);
        Probe {
            seed: spec.seed,
            config: evolution_config(spec).discovery,
            // One thread, as the server runs it: an advise evaluates a
            // few dozen candidates, too few to pay for spawning workers.
            pool: ThreadPool::new(1),
            asns: (0..count)
                .map(|_| 1 + rng.below(ASES as u64) as u32)
                .collect(),
            calls: vec![Vec::with_capacity(ADVISE_PASSES); count],
            failed: vec![false; count],
            order: (0..count).collect(),
            order_rng: SplitMix64::new(run_seed ^ spec.seed),
        }
    }

    /// One pass: every AS of the set once, in a fresh order.
    fn pass(&mut self, state: &MarketState, report: &mut Report) {
        for i in (1..self.order.len()).rev() {
            let j = self.order_rng.below(i as u64 + 1) as usize;
            self.order.swap(i, j);
        }
        for &i in &self.order {
            let asn = self.asns[i];
            let started = Instant::now();
            let answer = advise(state, &self.config, Asn::new(asn), 10, &self.pool);
            let elapsed = started.elapsed();
            let checked = answer
                .map_err(|e| e.to_string())
                .and_then(|answer| check_outcomes(asn, &answer.outcomes));
            report.op("advise", checked.is_ok());
            match checked {
                Ok(()) => self.calls[i].push(elapsed.as_secs_f64() * 1e3),
                Err(e) if !self.failed[i] => {
                    self.failed[i] = true;
                    report.error(format!("advise seed {} asn {asn}: {e}", self.seed));
                }
                Err(_) => {}
            }
        }
    }

    /// Adds one sample per AS whose every call succeeded.
    fn finish(self, samples: &mut Samples) {
        samples.advise_attempted += self.asns.len();
        for (calls, failed) in self.calls.iter().zip(&self.failed) {
            if !failed {
                samples.advise_ms.extend(median(calls));
            }
        }
    }
}

fn report_end_to_end(samples: &Samples, report: &mut Report) {
    report.set("setup_s", median(&samples.setup.total));
    report.set("peak_rss_mb", median(&samples.peak_rss_mb));
    report.set("round_cold_s", median(&samples.cold));
    report.set("round_warm_s", median(&samples.warm));
    report.set("step_p50_ms", median(&samples.steps).map(|s| s * 1e3));
    let advise = &samples.advise_ms;
    report.note("advise_p99_ms", percentile(advise, 0.99));
    // No cache sits between the caller and the library: every call
    // evaluates its candidates.
    report.set("advise_miss_p50_ms", median(advise));
    report.set(
        "advise_within_50ms_ratio",
        within_limit_ratio(advise, samples.advise_attempted, LATENCY_LIMIT_MS),
    );
    note_tail(advise.len(), report);
}

/// Notes the highest percentile the advise sample supports with ten
/// samples beyond it; the workloads are sized for it to be p99 or more.
pub fn note_tail(n: usize, report: &mut Report) {
    let tail = crate::stats::highest_supported_percentile(n, 10);
    report.note("advise_highest_supported_percentile", tail);
}

fn report_layers(samples: &Samples, report: &mut Report) {
    report.set("datasets.build_s", median(&samples.setup.build));
    report.set("econ.tables_s", median(&samples.setup.tables));
    samples.traced_cold.report_phases("cold", report);
    samples.traced_warm_rounds.report_phases("warm", report);
    report.set("core.candidates", median(&samples.candidates));
    report.set(
        "core.transit_reuse_ratio",
        samples.traced_warm_rounds.transit_reuse_ratio(),
    );
    report.set("core.resident_mb", median(&samples.resident_mb));
    let warm = &samples.traced_warm_rounds;
    report.set("runtime.busy_ratio", warm.busy_ratio(THREADS));
    report.set(
        "runtime.start_delay_ms",
        Some(warm.tally.mean_ms("runtime.worker.start_delay_ns")),
    );
    for name in [
        "serve.advise_exec_ms",
        "serve.cache_hit_ratio",
        "serve.step_exec_ms",
        "serve.reactor_busy_ratio",
        "serve.queue_p50_ms",
        "serve.queue_p99_ms",
        "gen.late_p99_ms",
    ] {
        report.set(metric_name(name), Some(0.0));
    }
    report_overhead(&samples.untraced_warm, &samples.traced_warm, report);
    report.samples("traced_warm", samples.traced_warm.len());
    report.samples("untraced_warm", samples.untraced_warm.len());
}

/// `trace.overhead_ratio`: median traced warm round over median untraced
/// warm round of the same markets, minus one.
pub fn report_overhead(untraced: &[f64], traced: &[f64], report: &mut Report) {
    let ratio = match (median(untraced), median(traced)) {
        (Some(u), Some(t)) if u > 0.0 => Some(t / u - 1.0),
        _ => None,
    };
    report.set("trace.overhead_ratio", ratio);
}

/// Nanoseconds of a duration, saturating.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
