//! End-to-end and per-layer benchmark of the agreement pipeline: greedy
//! adoption rounds on 10k-AS markets (`evolve-steady`, `evolve-churn`)
//! and the resident market server under an open-loop advise/step mix
//! (`serve-mixed`).
//!
//! ```console
//! python3 perfbench/run.py --workload evolve-steady --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `run.py` builds this package and the repository's `serve` binary and
//! then runs this program with the same flags plus `--serve-bin`,
//! `--state-dir`, and provenance strings. The last stdout line is the
//! summary `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it is the full record: provenance, parameters, per-run sample
//! counts, per-operation failure accounting, output checks, and an
//! `errors` list next to the data.
//!
//! With `--trace 0` telemetry stays disabled in-process and the summary
//! carries the end-to-end metrics. With `--trace 1` the same workload
//! runs with the `pan-telemetry` registry read around every call into a
//! layer, and the summary carries the per-layer metrics instead, each
//! mapped to the end-to-end metric it should move.

mod evolve;
mod layers;
mod record;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use record::{Digests, Provenance, Report};

/// Worker threads of the in-process evolution pool (the host's
/// hardware-thread count the workloads are sized for).
pub const THREADS: usize = 2;
/// ASes per synthetic market.
pub const ASES: usize = 10_000;
/// Markets every run builds, on seeds `POOL_BASE_SEED..` in this order.
/// The markets do not vary with the run seed: their sizes differ by a
/// few percent from seed to seed, as much as the regressions the
/// benchmark must resolve, and the order they are built in moves the
/// process's peak memory. The run seed drives the request streams.
pub const MARKET_POOL: u64 = 6;
/// Seed of the first market.
pub const POOL_BASE_SEED: u64 = 42;
/// Seed of market `k` of a run.
#[must_use]
pub fn market_seed(k: usize) -> u64 {
    POOL_BASE_SEED + k as u64
}

/// Latency limit of one advise, in milliseconds: the `within` ratio's
/// limit and the generator's validity limit.
pub const LATENCY_LIMIT_MS: f64 = 50.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zero noise, zero shock: warm rounds run on the full engine's
    /// cross-round caches.
    EvolveSteady,
    /// Per-pair share noise and a price shock every round: every round
    /// takes the row-walk evaluator and drops the transit cache.
    EvolveChurn,
    /// The `serve` binary holding several markets under an open-loop
    /// advise stream with periodic steps.
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "evolve-steady" => Some(Workload::EvolveSteady),
            "evolve-churn" => Some(Workload::EvolveChurn),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::EvolveSteady => "evolve-steady",
            Workload::EvolveChurn => "evolve-churn",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Key of the committed trajectory digests of market `seed` evolved
    /// by this workload.
    #[must_use]
    pub fn market_key(self, seed: u64) -> String {
        format!("{}/seed-{seed}", self.name())
    }
}

/// Parsed command line.
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed: seeds the run's request streams (the order of the
    /// advise probe, the open-loop schedule and its AS choices).
    pub seed: u64,
    /// Seconds the run should measure on a 2-vCPU host; the work is
    /// sized from it up front, so every run does the same work.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// The `serve` binary (serve-mixed only).
    pub serve_bin: Option<PathBuf>,
    /// Directory for the server's log and metrics file.
    pub state_dir: PathBuf,
    /// Provenance strings handed in by the launcher.
    pub provenance: Provenance,
}

const USAGE: &str = "usage: perfbench --workload <evolve-steady|evolve-churn|serve-mixed> \
     --seed <u64> --seconds <n> --trace <0|1> [--serve-bin <path>] [--state-dir <dir>] \
     [--commit <id>] [--source-digest <hex>]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut state_dir = PathBuf::from(".bench_build/perfbench-state");
    let mut provenance = Provenance::default();
    let mut args = args.skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = |what: &str| {
            value
                .parse::<u64>()
                .map_err(|e| format!("{what} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number("--seed")?),
            "--seconds" => seconds = Some(number("--seconds")?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--state-dir" => state_dir = PathBuf::from(value),
            "--commit" => provenance.commit = value,
            "--source-digest" => provenance.source_digest = value,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let missing = |flag: &str| format!("{flag} is required");
    let options = Options {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        serve_bin,
        state_dir,
        provenance,
    };
    if options.workload == Workload::ServeMixed && options.serve_bin.is_none() {
        return Err(missing("--serve-bin (serve-mixed)"));
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args(std::env::args()) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&options.state_dir) {
        eprintln!("perfbench: cannot create {:?}: {e}", options.state_dir);
        return ExitCode::from(2);
    }
    let digests = Digests::committed();
    let mut report = Report::new(&options);
    let cpu_before = cpu_jiffies();
    match options.workload {
        Workload::EvolveSteady | Workload::EvolveChurn => {
            evolve::run(&options, &digests, &mut report);
        }
        Workload::ServeMixed => serve::run(&options, &digests, &mut report),
    }
    if let (Some((busy0, steal0)), Some((busy1, steal1))) = (cpu_before, cpu_jiffies()) {
        let (busy, steal) = (busy1.saturating_sub(busy0), steal1.saturating_sub(steal0));
        report.note(
            "host_steal_share",
            steal as f64 / (busy + steal).max(1) as f64,
        );
    }
    report.print();
    ExitCode::SUCCESS
}

/// The machine's non-idle and stolen CPU time so far, in jiffies, from
/// `/proc/stat`. Stolen time is time the hypervisor ran something else
/// while a virtual CPU had work: the share of it during a run tells how
/// much the host, not the program, decided that run's timings.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal
    let busy = fields.iter().take(7).sum::<u64>() - fields.get(3)? - fields.get(4)?;
    Some((busy, *fields.get(7)?))
}

/// SplitMix64: the benchmark's own seeded stream for its inputs (which
/// ASes to ask about, in which order), independent of the program's RNG.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
