//! Shared harness utilities for the figure-regeneration binaries and
//! Criterion benches.
//!
//! Every figure of the paper has a binary in `src/bin/` that prints the
//! same series the paper plots (as aligned text tables plus optional
//! JSON), and `discover` runs the topology-wide agreement-discovery
//! sweep:
//!
//! | binary | paper section | what it prints |
//! |--------|---------------|----------------|
//! | `fig2` | Fig. 2 | Price of Dishonesty (min & mean) vs. choice count |
//! | `fig3` | Fig. 3 | CDF of length-3 paths per AS under GRC/Top-n/MA*/MA |
//! | `fig4` | Fig. 4 | CDF of destinations reachable over length-3 paths |
//! | `fig5` | Fig. 5 | geodistance: paths beating GRC min/median/max + reduction CDF |
//! | `fig6` | Fig. 6 | bandwidth: paths beating GRC max/median/min + increase CDF |
//! | `all_figures` | all | everything above with quick settings |
//! | `discover` | §III–IV at scale | profitable mutuality pairs of a 10k-AS internet, ranked by surplus |
//! | `evolve` | §III–IV iterated | multi-round adoption dynamics: discover → adopt → shock → repeat, to a fixed point |
//! | `longitudinal` | §III–IV over time | per-snapshot evolution over a directory of yearly CAIDA snapshots, with cross-year adopted-set diffs |
//!
//! All binaries share one declarative, serde-serializable
//! [`ScenarioSpec`] (flags, `--spec file.json`, `--dump-spec`) instead
//! of per-binary option parsing. Output bytes are identical at every
//! thread count — the sweeps derive per-item RNG streams from `(seed,
//! item index)` via `pan-runtime`, and the thread count is deliberately
//! never printed.

// `deny` rather than the workspace's `forbid`: the `mem` module needs
// one `allow(unsafe_code)` island for its `GlobalAlloc` shim.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod mem;
mod spec;

pub use mem::{allocation_counts, peak_rss_bytes, CountingAllocator, MemoryReport};
pub use spec::{DiscoverySpec, EvolutionSpec, ScenarioSpec, SourceSpec, UsageError};

use pan_core::discovery::CandidatePolicy;
use pan_core::dynamics::MarketState;
use pan_core::{DiscoveryConfig, EvolutionConfig};
use pan_datasets::{SyntheticInternet, Tier};
use pan_econ::{DenseEconomics, FlowMatrix, MarketTier};
use pan_serve::LoadedMarket;
use pan_topology::Asn;
use serde::{Serialize, Value};

pub use pan_econ::market::link_jitter;

/// The standard evaluation topology of the spec: the full-size variant
/// mirrors the structural richness the §VI analysis needs; the quick
/// variant keeps smoke runs under a second.
#[must_use]
pub fn evaluation_internet(spec: &ScenarioSpec) -> SyntheticInternet {
    spec.internet()
}

/// Maps a dataset tier onto the economy's [`MarketTier`] vocabulary —
/// the glue between the source layer (which knows how an AS was
/// generated or loaded) and the shared table synthesis in
/// [`pan_econ::market`].
#[must_use]
pub fn market_tier(net: &SyntheticInternet, asn: Asn) -> MarketTier {
    match net.tier(asn) {
        Tier::Tier1 => MarketTier::Core,
        Tier::Transit => MarketTier::Transit,
        Tier::Stub => MarketTier::Stub,
    }
}

/// Tier-aware synthetic economy shared by `discover` and `evolve`: the
/// shared [`pan_econ::market::standard_economics`] rates keyed by the
/// net's tier table.
#[must_use]
pub fn synthetic_economics(net: &SyntheticInternet) -> DenseEconomics {
    pan_econ::market::standard_economics(&net.graph, |asn| market_tier(net, asn))
}

/// The spec at market scale: `--ases 0` defaults to the 10,000-AS
/// internet the discovery/evolution/serving workloads target (the figure
/// binaries keep their smaller per-figure defaults).
#[must_use]
pub fn at_market_scale(mut spec: ScenarioSpec) -> ScenarioSpec {
    if spec.ases == 0 {
        spec.ases = 10_000;
    }
    spec
}

/// The discovery configuration of a spec: candidate policy from the
/// k-hop knobs, quick-mode grid clamp, `--top` for report truncation.
/// The single translation `discover`, `evolve`, and `serve` share.
#[must_use]
pub fn discovery_config(spec: &ScenarioSpec) -> DiscoveryConfig {
    let policy = if spec.discovery.khop <= 1 {
        CandidatePolicy::PeeringAdjacent
    } else {
        CandidatePolicy::PeeringKHop {
            k: spec.discovery.khop,
            per_source_cap: spec.discovery.khop_cap,
        }
    };
    DiscoveryConfig {
        policy,
        reroute_share: spec.discovery.reroute_share,
        attract_share: spec.discovery.attract_share,
        grid: if spec.quick {
            spec.discovery.grid.min(3)
        } else {
            spec.discovery.grid
        },
        noise: spec.discovery.noise,
        top: spec.discovery.top,
    }
}

/// The evolution configuration of a spec (quick mode caps the rounds;
/// the per-round discovery always ranks the full candidate set, so its
/// `top` is zeroed).
#[must_use]
pub fn evolution_config(spec: &ScenarioSpec) -> EvolutionConfig {
    EvolutionConfig {
        discovery: DiscoveryConfig {
            top: 0,
            ..discovery_config(spec)
        },
        rounds: if spec.quick {
            spec.evolution.rounds.min(4)
        } else {
            spec.evolution.rounds
        },
        adopt_top: spec.evolution.adopt_top,
        min_surplus: spec.evolution.min_surplus,
        shock: spec.evolution.shock,
    }
}

/// The standard market tables of a spec: the source-built internet
/// (synthetic or CAIDA) with the shared tier-aware economics and
/// degree-gravity flows from [`pan_econ::market::standard_tables`].
#[must_use]
pub fn market_tables(spec: &ScenarioSpec) -> (SyntheticInternet, DenseEconomics, FlowMatrix) {
    let net = spec.internet();
    let (econ, flows) =
        pan_econ::market::standard_tables(&net.graph, |asn| market_tier(&net, asn), 1.0);
    (net, econ, flows)
}

/// Fallible [`market_state`]: the one construction path `discover`,
/// `evolve`, `serve`, and `longitudinal` share, with source errors (a
/// missing snapshot directory, a malformed relationships file) reported
/// instead of aborting the process — what a server loading markets on
/// behalf of clients needs.
///
/// # Errors
///
/// The rendered [`pan_datasets::DatasetError`] when the source cannot be
/// built.
pub fn try_market_state(spec: &ScenarioSpec) -> Result<(SyntheticInternet, MarketState), String> {
    let net = spec
        .market_source()
        .build(spec.seed)
        .map_err(|e| e.to_string())?;
    let state = MarketState::standard(net.graph.clone(), |asn| market_tier(&net, asn))
        .map_err(|e| e.to_string())?;
    Ok((net, state))
}

/// The standard resident market of a spec ([`market_tables`] assembled
/// into a [`MarketState`]) — what `evolve` and `serve` operate on.
///
/// # Panics
///
/// Panics when the market source cannot be built — the behavior every
/// binary wants for a bad command line; servers use
/// [`try_market_state`].
#[must_use]
pub fn market_state(spec: &ScenarioSpec) -> (SyntheticInternet, MarketState) {
    try_market_state(spec).unwrap_or_else(|e| panic!("cannot build market: {e}"))
}

fn apply_source_override(source: &mut SourceSpec, value: &Value) -> Result<(), String> {
    match value {
        Value::Str(name) if name == "synthetic" => {
            *source = SourceSpec::default();
            Ok(())
        }
        Value::Map(fields) => {
            let mut next = SourceSpec::default();
            for (key, field) in fields {
                let Value::Str(text) = field else {
                    return Err(format!("source field {key:?} must be a string"));
                };
                match key.as_str() {
                    "caida" => next.caida.clone_from(text),
                    "snapshot" => next.snapshot.clone_from(text),
                    other => {
                        return Err(format!(
                            "unknown source field {other:?}; known: caida, snapshot"
                        ));
                    }
                }
            }
            if next.caida.is_empty() {
                return Err("source object requires a \"caida\" directory".to_owned());
            }
            *source = next;
            Ok(())
        }
        other => Err(format!(
            "\"source\" must be \"synthetic\" or {{\"caida\": <dir>, \"snapshot\": <name>}}, \
             got {}",
            other.kind()
        )),
    }
}

/// Applies a `load` request's `market` object onto the base spec. The
/// vocabulary mirrors the command-line flags, so a spec file, a flag,
/// and a load request all say `"ases"`, `"seed"`, `"shock"`, … for the
/// same knob; `"source"` selects the market source (`"synthetic"` or
/// `{"caida": <dir>, "snapshot": <name>}`), mirroring
/// `--caida`/`--snapshot`.
///
/// # Errors
///
/// A rendered protocol error for non-object `market` values, unknown
/// fields, and ill-typed field values.
pub fn apply_market_overrides(base: &ScenarioSpec, market: &Value) -> Result<ScenarioSpec, String> {
    let Value::Map(entries) = market else {
        return Err(format!(
            "\"market\" must be an object, got {}",
            market.kind()
        ));
    };
    let mut spec = base.clone();
    for (key, value) in entries {
        let bad = |kind: &str| format!("market field {key:?} must be {kind}");
        let as_u64 = || match value {
            Value::I64(n) if *n >= 0 => Ok(*n as u64),
            Value::U64(n) => Ok(*n),
            _ => Err(bad("a non-negative integer")),
        };
        let as_usize = || as_u64().map(|n| n as usize);
        let as_f64 = || match value {
            Value::F64(x) => Ok(*x),
            Value::I64(n) => Ok(*n as f64),
            Value::U64(n) => Ok(*n as f64),
            _ => Err(bad("a number")),
        };
        let as_bool = || match value {
            Value::Bool(b) => Ok(*b),
            _ => Err(bad("a boolean")),
        };
        match key.as_str() {
            "quick" => spec.quick = as_bool()?,
            "seed" => spec.seed = as_u64()?,
            "ases" => spec.ases = as_usize()?,
            "reroute" => spec.discovery.reroute_share = as_f64()?,
            "attract" => spec.discovery.attract_share = as_f64()?,
            "grid" => spec.discovery.grid = as_usize()?,
            "khop" => {
                spec.discovery.khop =
                    u8::try_from(as_u64()?).map_err(|_| bad("a small hop count"))?;
            }
            "khop_cap" => spec.discovery.khop_cap = as_usize()?,
            "noise" => spec.discovery.noise = as_f64()?,
            "adopt_top" => spec.evolution.adopt_top = as_usize()?,
            "min_surplus" => spec.evolution.min_surplus = as_f64()?,
            "shock" => spec.evolution.shock = as_f64()?,
            "source" => apply_source_override(&mut spec.source, value)?,
            other => {
                return Err(format!(
                    "unknown market field {other:?}; known: quick, seed, ases, reroute, \
                     attract, grid, khop, khop_cap, noise, adopt_top, min_surplus, shock, source"
                ));
            }
        }
    }
    Ok(spec)
}

/// The shared `load`-verb implementation: overrides applied onto the
/// base spec, scaled to market size, built through the unified source
/// layer, labelled by its source. `serve` wraps this in a closure that
/// adds a stderr timing line; tests call it directly to predict what a
/// server built.
///
/// # Errors
///
/// A rendered protocol error for malformed `market` objects or
/// unbuildable sources.
pub fn load_market_request(base: &ScenarioSpec, market: &Value) -> Result<LoadedMarket, String> {
    let spec = at_market_scale(apply_market_overrides(base, market)?);
    let (_, state) = try_market_state(&spec)?;
    Ok(LoadedMarket {
        config: evolution_config(&spec),
        seed: spec.seed,
        label: format!("{}:seed-{}", spec.market_source().label(), spec.seed),
        state,
    })
}

/// Unified `--json` / `--bench-out` report emission — the one
/// implementation `discover`, `evolve`, and `serve` share: the
/// deterministic report JSON goes to stdout (diffable across thread
/// counts), the timing-bearing bench record goes to the `--bench-out`
/// file with a stderr note.
#[derive(Debug, Clone)]
pub struct ReportSink {
    json: bool,
    bench_out: Option<String>,
}

impl ReportSink {
    /// Couples the spec's `--json` flag with a `--bench-out <path>` flag
    /// extracted (and removed) from the binary-specific leftover
    /// arguments. `--bench-out` without a value exits through
    /// [`UsageError::exit`] with code 2.
    #[must_use]
    pub fn from_spec(spec: &ScenarioSpec, rest: &mut Vec<String>) -> ReportSink {
        let mut bench_out = None;
        if let Some(at) = rest.iter().position(|arg| arg == "--bench-out") {
            rest.remove(at);
            if at >= rest.len() {
                UsageError::Malformed("--bench-out requires a value".to_owned()).exit("");
            }
            bench_out = Some(rest.remove(at));
        }
        ReportSink {
            json: spec.json,
            bench_out,
        }
    }

    /// `true` when `--bench-out` was given.
    #[must_use]
    pub fn wants_record(&self) -> bool {
        self.bench_out.is_some()
    }

    /// Prints `report` as one JSON line on stdout when `--json` was
    /// given. The report must be deterministic at any thread count —
    /// strip wall-clock fields first (e.g.
    /// [`pan_core::EvolutionReport::with_zeroed_timings`]).
    pub fn emit_json<T: Serialize>(&self, report: &T) {
        if self.json {
            println!(
                "{}",
                serde_json::to_string(report).expect("reports serialize")
            );
        }
    }

    /// Writes the bench record when `--bench-out` was given, with a
    /// stderr note (stdout stays deterministic).
    ///
    /// # Panics
    ///
    /// Panics when the file cannot be written.
    pub fn write_record<T: Serialize>(&self, record: &T) {
        if let Some(path) = &self.bench_out {
            std::fs::write(
                path,
                serde_json::to_string(record).expect("records serialize"),
            )
            .unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
            eprintln!("# wrote bench record to {path}");
        }
    }
}

/// Unified `--metrics-out <path>` handling for the bench binaries: when
/// the flag is present the process-wide [`pan_telemetry`] registry is
/// enabled up front (so every instrumented layer starts recording) and
/// [`write`](Self::write) dumps its final snapshot as JSON with a
/// stderr note. Without the flag every telemetry call in the engines
/// stays a disabled no-op and stdout bytes are untouched either way —
/// metrics never reach a deterministic output channel.
#[derive(Debug, Clone)]
pub struct MetricsSink {
    metrics_out: Option<String>,
}

impl MetricsSink {
    /// Extracts (and removes) `--metrics-out <path>` from the
    /// binary-specific leftover arguments, enabling the global
    /// telemetry registry when present. `--metrics-out` without a value
    /// exits through [`UsageError::exit`] with code 2.
    #[must_use]
    pub fn from_args(rest: &mut Vec<String>) -> MetricsSink {
        let mut metrics_out = None;
        if let Some(at) = rest.iter().position(|arg| arg == "--metrics-out") {
            rest.remove(at);
            if at >= rest.len() {
                UsageError::Malformed("--metrics-out requires a value".to_owned()).exit("");
            }
            metrics_out = Some(rest.remove(at));
        }
        if metrics_out.is_some() {
            pan_telemetry::enable();
        }
        MetricsSink { metrics_out }
    }

    /// `true` when `--metrics-out` was given.
    #[must_use]
    pub fn wants_metrics(&self) -> bool {
        self.metrics_out.is_some()
    }

    /// Writes the global registry snapshot when `--metrics-out` was
    /// given, with a stderr note (stdout stays deterministic).
    ///
    /// # Panics
    ///
    /// Panics when the file cannot be written.
    pub fn write(&self) {
        if let Some(path) = &self.metrics_out {
            let json = pan_telemetry::global().snapshot().to_json();
            std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
            eprintln!("# wrote telemetry snapshot to {path}");
        }
    }
}

/// Sample size for per-AS analyses (paper: 500), honoring `--sample`.
#[must_use]
pub fn sample_size(spec: &ScenarioSpec) -> usize {
    if spec.sample > 0 {
        spec.sample
    } else if spec.quick {
        100
    } else {
        500
    }
}

/// Formats a fraction as a percentage with one decimal.
#[must_use]
pub fn pct(fraction: f64) -> String {
    format!("{:5.1}%", fraction * 100.0)
}

/// Prints a standard figure header.
pub fn print_header(figure: &str, description: &str, spec: &ScenarioSpec) {
    println!("# {figure} — {description}");
    println!(
        "# mode: {}, seed: {}",
        if spec.quick { "quick" } else { "full" },
        spec.seed
    );
}

/// Quantile grid used when printing CDF summaries.
pub const CDF_QUANTILES: [f64; 9] = [0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_internet_is_small() {
        let spec = ScenarioSpec {
            quick: true,
            ..ScenarioSpec::default()
        };
        let net = evaluation_internet(&spec);
        assert_eq!(net.graph.node_count(), 600);
        assert_eq!(sample_size(&spec), 100);
        assert_eq!(sample_size(&ScenarioSpec { sample: 42, ..spec }), 42);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5), " 50.0%");
    }

    #[test]
    fn shared_configs_translate_the_spec() {
        let mut spec = ScenarioSpec {
            quick: true,
            ..ScenarioSpec::default()
        };
        spec.discovery.grid = 5;
        spec.discovery.top = 17;
        spec.evolution.rounds = 12;
        let discovery = discovery_config(&spec);
        assert_eq!(discovery.grid, 3, "quick clamps the grid");
        assert_eq!(discovery.top, 17);
        assert_eq!(discovery.policy, CandidatePolicy::PeeringAdjacent);
        let evolution = evolution_config(&spec);
        assert_eq!(evolution.rounds, 4, "quick caps the rounds");
        assert_eq!(evolution.discovery.top, 0, "evolution ranks everything");

        spec.discovery.khop = 2;
        spec.discovery.khop_cap = 9;
        assert_eq!(
            discovery_config(&spec).policy,
            CandidatePolicy::PeeringKHop {
                k: 2,
                per_source_cap: 9
            }
        );
        assert_eq!(at_market_scale(spec.clone()).ases, 10_000);
        assert_eq!(at_market_scale(ScenarioSpec { ases: 77, ..spec }).ases, 77);
    }

    #[test]
    fn market_overrides_apply_onto_the_base_spec() {
        let base = ScenarioSpec::default();
        let market = Value::Map(vec![
            ("ases".to_owned(), Value::U64(500)),
            ("seed".to_owned(), Value::I64(7)),
            ("shock".to_owned(), Value::F64(0.2)),
        ]);
        let spec = apply_market_overrides(&base, &market).unwrap();
        assert_eq!(spec.ases, 500);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.evolution.shock, 0.2);

        let err = apply_market_overrides(&base, &Value::Bool(true)).unwrap_err();
        assert!(err.contains("must be an object"), "{err}");
        let err =
            apply_market_overrides(&base, &Value::Map(vec![("wat".to_owned(), Value::U64(1))]))
                .unwrap_err();
        assert!(err.contains("unknown market field"), "{err}");
        assert!(err.contains("source"), "source is advertised: {err}");
    }

    #[test]
    fn source_overrides_select_the_market_source() {
        let mut base = ScenarioSpec::default();
        base.source.caida = "/data/caida".to_owned();

        // "synthetic" resets a CAIDA base back to the generator.
        let market = Value::Map(vec![(
            "source".to_owned(),
            Value::Str("synthetic".to_owned()),
        )]);
        let spec = apply_market_overrides(&base, &market).unwrap();
        assert_eq!(spec.source, SourceSpec::default());

        // An object selects a snapshot directory.
        let market = Value::Map(vec![(
            "source".to_owned(),
            Value::Map(vec![
                ("caida".to_owned(), Value::Str("/snaps".to_owned())),
                ("snapshot".to_owned(), Value::Str("2024".to_owned())),
            ]),
        )]);
        let spec = apply_market_overrides(&ScenarioSpec::default(), &market).unwrap();
        assert_eq!(spec.source.caida, "/snaps");
        assert_eq!(spec.source.snapshot, "2024");

        for bad in [
            Value::Str("wat".to_owned()),
            Value::Map(vec![("snapshot".to_owned(), Value::Str("2024".to_owned()))]),
            Value::Map(vec![("caida".to_owned(), Value::U64(3))]),
        ] {
            let market = Value::Map(vec![("source".to_owned(), bad)]);
            assert!(
                apply_market_overrides(&ScenarioSpec::default(), &market).is_err(),
                "{market:?} should be rejected"
            );
        }
    }

    #[test]
    fn load_market_request_labels_by_source() {
        let base = ScenarioSpec {
            quick: true,
            ases: 80,
            ..ScenarioSpec::default()
        };
        let market = Value::Map(vec![("seed".to_owned(), Value::U64(9))]);
        let loaded = load_market_request(&base, &market).unwrap();
        assert_eq!(loaded.label, "synthetic:80-as:seed-9");
        assert_eq!(loaded.seed, 9);
        assert_eq!(loaded.state.graph().node_count(), 80);

        let market = Value::Map(vec![(
            "source".to_owned(),
            Value::Map(vec![(
                "caida".to_owned(),
                Value::Str("/nonexistent-snapshots".to_owned()),
            )]),
        )]);
        let err = load_market_request(&base, &market).unwrap_err();
        assert!(err.contains("nonexistent-snapshots"), "{err}");
    }

    #[test]
    fn report_sink_extracts_bench_out() {
        let spec = ScenarioSpec::default();
        let mut rest = vec![
            "--engine".to_owned(),
            "dense".to_owned(),
            "--bench-out".to_owned(),
            "out.json".to_owned(),
        ];
        let sink = ReportSink::from_spec(&spec, &mut rest);
        assert!(sink.wants_record());
        assert_eq!(rest, vec!["--engine".to_owned(), "dense".to_owned()]);
        let mut rest = Vec::new();
        let sink = ReportSink::from_spec(&spec, &mut rest);
        assert!(!sink.wants_record());
    }

    #[test]
    fn metrics_sink_extracts_metrics_out_and_enables_telemetry() {
        let mut rest = vec![
            "--threads".to_owned(),
            "2".to_owned(),
            "--metrics-out".to_owned(),
            "metrics.json".to_owned(),
        ];
        let sink = MetricsSink::from_args(&mut rest);
        assert!(sink.wants_metrics());
        assert!(pan_telemetry::is_enabled());
        assert_eq!(rest, vec!["--threads".to_owned(), "2".to_owned()]);
        let mut rest = Vec::new();
        let sink = MetricsSink::from_args(&mut rest);
        assert!(!sink.wants_metrics());
    }

    #[test]
    fn market_state_matches_the_tables() {
        let spec = ScenarioSpec {
            quick: true,
            ases: 120,
            ..ScenarioSpec::default()
        };
        let (net, econ, flows) = market_tables(&spec);
        let (net2, state) = market_state(&spec);
        assert_eq!(net.graph.node_count(), 120);
        assert_eq!(net2.graph.node_count(), 120);
        assert_eq!(state.econ(), &econ);
        assert_eq!(state.flows(), &flows);
    }
}
