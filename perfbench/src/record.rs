//! The run's record: metric values, per-run sample counts, failure
//! accounting per operation kind, output checks, provenance, and the
//! `errors` list, printed as one JSON line followed by the summary line.

use std::collections::BTreeMap;

use pan_core::{AdoptedAgreement, RoundRecord};
use serde::{Serialize, Value};

use crate::{Options, Workload};

/// End-to-end metrics, `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("round_cold_s", "s"),
    ("round_warm_s", "s"),
    ("step_p50_ms", "ms"),
    ("advise_miss_p50_ms", "ms"),
    ("advise_within_50ms_ratio", "ratio"),
];

/// End-to-end metrics computed from request latencies seen by the
/// open-loop generator: withheld when the generator itself fell behind.
const GENERATOR_LATENCIES: [&str; 3] = [
    "step_p50_ms",
    "advise_miss_p50_ms",
    "advise_within_50ms_ratio",
];

/// Per-layer metrics of the traced run: `(name, unit, end-to-end metric
/// it should move, workloads it is exercised on)`. A layer a workload
/// does not exercise reports 0 there.
pub const PER_LAYER: [(&str, &str, &str, &str); 27] = [
    (
        "datasets.build_s",
        "s",
        "setup_s",
        "evolve-*, serve-mixed replay",
    ),
    (
        "econ.tables_s",
        "s",
        "setup_s",
        "evolve-*, serve-mixed replay",
    ),
    (
        "core.cold.enumerate_ms",
        "ms",
        "round_cold_s",
        "evolve-*, serve-mixed",
    ),
    (
        "core.cold.derive_transit_ms",
        "ms",
        "round_cold_s",
        "evolve-steady, serve-mixed",
    ),
    (
        "core.cold.evaluate_ms",
        "ms",
        "round_cold_s",
        "evolve-*, serve-mixed",
    ),
    (
        "core.cold.adopt_ms",
        "ms",
        "round_cold_s",
        "evolve-*, serve-mixed",
    ),
    ("core.cold.shock_ms", "ms", "round_cold_s", "evolve-churn"),
    (
        "core.cold.unattributed_ms",
        "ms",
        "round_cold_s",
        "evolve-*, serve-mixed",
    ),
    (
        "core.warm.enumerate_ms",
        "ms",
        "round_warm_s",
        "evolve-*, serve-mixed",
    ),
    (
        "core.warm.derive_transit_ms",
        "ms",
        "round_warm_s",
        "evolve-*, serve-mixed",
    ),
    (
        "core.warm.evaluate_ms",
        "ms",
        "round_warm_s",
        "evolve-*, serve-mixed",
    ),
    (
        "core.warm.adopt_ms",
        "ms",
        "round_warm_s",
        "evolve-*, serve-mixed",
    ),
    ("core.warm.shock_ms", "ms", "round_warm_s", "evolve-churn"),
    (
        "core.warm.unattributed_ms",
        "ms",
        "round_warm_s",
        "evolve-*, serve-mixed",
    ),
    (
        "core.candidates",
        "count",
        "round_warm_s",
        "evolve-*, serve-mixed",
    ),
    (
        "core.transit_reuse_ratio",
        "ratio",
        "round_warm_s",
        "evolve-*, serve-mixed",
    ),
    (
        "core.resident_mb",
        "MB",
        "peak_rss_mb",
        "evolve-*, serve-mixed",
    ),
    (
        "runtime.busy_ratio",
        "ratio",
        "round_warm_s",
        "evolve-*, serve-mixed replay",
    ),
    (
        "runtime.start_delay_ms",
        "ms",
        "round_warm_s",
        "evolve-*, serve-mixed replay",
    ),
    (
        "serve.advise_exec_ms",
        "ms",
        "advise_miss_p50_ms",
        "serve-mixed",
    ),
    (
        "serve.cache_hit_ratio",
        "ratio",
        "advise_miss_p50_ms",
        "serve-mixed",
    ),
    (
        "serve.step_exec_ms",
        "ms",
        "advise_within_50ms_ratio",
        "serve-mixed",
    ),
    (
        "serve.reactor_busy_ratio",
        "ratio",
        "advise_within_50ms_ratio",
        "serve-mixed",
    ),
    (
        "serve.queue_p50_ms",
        "ms",
        "advise_within_50ms_ratio",
        "serve-mixed",
    ),
    (
        "serve.queue_p99_ms",
        "ms",
        "advise_within_50ms_ratio",
        "serve-mixed",
    ),
    (
        "gen.late_p99_ms",
        "ms",
        "none (validity signal)",
        "serve-mixed",
    ),
    ("trace.overhead_ratio", "ratio", "all round timings", "all"),
];

/// Where the measured program came from, as handed in by the launcher.
#[derive(Debug, Clone, Default)]
pub struct Provenance {
    /// Git commit of the checkout, or empty when it is not a repository.
    pub commit: String,
    /// SHA-256 over the checkout's source files.
    pub source_digest: String,
}

/// Attempted / succeeded / failed counts of one operation kind.
#[derive(Debug, Clone, Copy, Default)]
struct Ops {
    attempted: u64,
    succeeded: u64,
    failed: u64,
}

/// Everything one run measured and checked.
pub struct Report {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    provenance: Provenance,
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<String, usize>,
    ops: BTreeMap<&'static str, Ops>,
    params: Vec<(String, Value)>,
    checks: Vec<(String, Value)>,
    notes: Vec<(String, Value)>,
    errors: Vec<String>,
    invalid: Option<String>,
}

impl Report {
    /// An empty record for `options`.
    #[must_use]
    pub fn new(options: &Options) -> Report {
        Report {
            workload: options.workload,
            seed: options.seed,
            seconds: options.seconds,
            trace: options.trace,
            provenance: options.provenance.clone(),
            values: BTreeMap::new(),
            samples: BTreeMap::new(),
            ops: BTreeMap::new(),
            params: Vec::new(),
            checks: Vec::new(),
            notes: Vec::new(),
            errors: Vec::new(),
            invalid: None,
        }
    }

    /// Records metric `name`; `None` (no samples) is an error.
    pub fn set(&mut self, name: &'static str, value: Option<f64>) {
        match value {
            Some(v) if v.is_finite() => {
                self.values.insert(name, v);
            }
            Some(v) => self.error(format!("metric {name} is not finite: {v}")),
            None => self.error(format!("metric {name} has no samples")),
        }
    }

    /// Records the per-run sample count behind a metric.
    pub fn samples(&mut self, name: &str, count: usize) {
        self.samples.insert(name.to_owned(), count);
    }

    /// Counts one operation of `kind` (`build`, `load`, `round`,
    /// `step`, `advise`, …) and whether it succeeded.
    pub fn op(&mut self, kind: &'static str, succeeded: bool) {
        let ops = self.ops.entry(kind).or_default();
        ops.attempted += 1;
        if succeeded {
            ops.succeeded += 1;
        } else {
            ops.failed += 1;
        }
    }

    /// Records a workload parameter.
    pub fn param(&mut self, name: &str, value: impl Serialize) {
        self.params.push((name.to_owned(), value.to_value()));
    }

    /// Records the outcome of an output check.
    pub fn check(&mut self, name: &str, value: impl Serialize) {
        self.checks.push((name.to_owned(), value.to_value()));
    }

    /// Records a measurement that is not a reported metric.
    pub fn note(&mut self, name: &str, value: impl Serialize) {
        self.notes.push((name.to_owned(), value.to_value()));
    }

    /// Records a failed check or operation; the run is then not correct.
    pub fn error(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("perfbench: error: {message}");
        self.errors.push(message);
    }

    /// Marks the run invalid: its generator latencies are withheld.
    pub fn invalidate(&mut self, reason: String) {
        self.error(format!("run invalid: {reason}"));
        self.invalid = Some(reason);
    }

    /// Prints the full record line and then the summary line.
    pub fn print(&self) {
        let wanted: Vec<(&str, &str)> = if self.trace {
            PER_LAYER.iter().map(|&(n, u, _, _)| (n, u)).collect()
        } else {
            END_TO_END.to_vec()
        };
        let mut errors = self.errors.clone();
        let mut metrics = Vec::new();
        for (name, unit) in wanted {
            if self.invalid.is_some() && GENERATOR_LATENCIES.contains(&name) {
                continue;
            }
            match self.values.get(name) {
                Some(&value) => metrics.push((
                    name.to_owned(),
                    object(vec![
                        ("value", Value::F64(value)),
                        ("unit", unit.to_value()),
                    ]),
                )),
                None if errors.iter().any(|e| e.contains(name)) => {}
                None => errors.push(format!("metric {name} was not measured")),
            }
        }
        let (attempted, failed) = self
            .ops
            .values()
            .fold((0, 0), |(a, f), ops| (a + ops.attempted, f + ops.failed));
        let ops: Vec<(String, Value)> = self
            .ops
            .iter()
            .map(|(kind, ops)| {
                (
                    (*kind).to_owned(),
                    object(vec![
                        ("attempted", ops.attempted.to_value()),
                        ("succeeded", ops.succeeded.to_value()),
                        ("failed", ops.failed.to_value()),
                    ]),
                )
            })
            .collect();
        let layer_map: Vec<(String, Value)> = PER_LAYER
            .iter()
            .map(|&(name, _, moves, on)| {
                (
                    name.to_owned(),
                    object(vec![
                        ("moves", moves.to_value()),
                        ("exercised_on", on.to_value()),
                    ]),
                )
            })
            .collect();
        let correct = errors.is_empty() && self.invalid.is_none();
        let record = object(vec![
            ("workload", self.workload.name().to_value()),
            ("trace", self.trace.to_value()),
            ("correct", correct.to_value()),
            ("invalid", self.invalid.to_value()),
            ("errors", errors.to_value()),
            ("provenance", self.provenance_value()),
            ("params", Value::Map(self.params.clone())),
            (
                "samples",
                map(self.samples.iter().map(|(k, v)| (k.as_str(), v.to_value()))),
            ),
            ("operations", Value::Map(ops)),
            ("checks", Value::Map(self.checks.clone())),
            ("notes", Value::Map(self.notes.clone())),
            (
                "values",
                map(self.values.iter().map(|(k, v)| (*k, Value::F64(*v)))),
            ),
            (
                "per_layer_map",
                Value::Map(if self.trace { layer_map } else { Vec::new() }),
            ),
        ]);
        println!("{}", to_json(&record));
        let summary = object(vec![
            ("correct", correct.to_value()),
            ("attempted", attempted.max(1).to_value()),
            ("failed", failed.to_value()),
            ("metrics", Value::Map(metrics)),
        ]);
        println!("{}", to_json(&summary));
    }

    fn provenance_value(&self) -> Value {
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_owned())
            .unwrap_or_default();
        let nproc = std::thread::available_parallelism().map_or(0, usize::from);
        object(vec![
            ("commit", self.provenance.commit.to_value()),
            ("source_digest", self.provenance.source_digest.to_value()),
            ("nproc", nproc.to_value()),
            ("kernel", kernel.to_value()),
            ("workload", self.workload.name().to_value()),
            ("seed", self.seed.to_value()),
            ("seconds", self.seconds.to_value()),
        ])
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A JSON object from borrowed keys.
fn map<'a>(fields: impl Iterator<Item = (&'a str, Value)>) -> Value {
    Value::Map(fields.map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Compact JSON of a value.
pub fn to_json(value: &Value) -> String {
    serde_json::to_string(value).expect("the vendored printer never fails")
}

/// FNV-1a 64 of `bytes`, as 16 hex digits.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// Digest of each round of a trajectory: the round's record with its
/// wall-clock zeroed, plus the agreements it adopted.
#[must_use]
pub fn round_digests(rounds: &[(RoundRecord, Vec<AdoptedAgreement>)]) -> Vec<String> {
    rounds
        .iter()
        .map(|(record, agreements)| {
            let canonical = object(vec![
                ("record", record.with_zeroed_timing().to_value()),
                ("agreements", agreements.to_value()),
            ]);
            fnv1a(to_json(&canonical).as_bytes())
        })
        .collect()
}

/// The per-round trajectory digests committed in `digests.json`, keyed
/// by [`Workload::market_key`]. A round does not depend on how many
/// rounds follow it, so they cover every run up to the committed length
/// (`--seconds 60` on every workload).
pub struct Digests(BTreeMap<String, Vec<String>>);

impl Digests {
    /// The committed digests.
    ///
    /// # Panics
    ///
    /// When the compiled-in `digests.json` is not an object of string
    /// lists.
    #[must_use]
    pub fn committed() -> Digests {
        let Ok(Value::Map(entries)) =
            serde_json::from_str::<Value>(include_str!("../digests.json"))
        else {
            panic!("digests.json is not a JSON object");
        };
        let list = |value: Value| match value {
            Value::Seq(items) => items
                .into_iter()
                .map(|item| match item {
                    Value::Str(s) => s,
                    other => panic!("digests.json holds a non-string digest {other:?}"),
                })
                .collect(),
            other => panic!("digests.json holds a non-list entry {other:?}"),
        };
        Digests(entries.into_iter().map(|(k, v)| (k, list(v))).collect())
    }

    /// Checks a trajectory's round digests against the committed ones
    /// for `key`; returns what was checked.
    ///
    /// # Errors
    ///
    /// A message naming the first round that differs, or the rounds
    /// with no committed digest (listing this run's digests).
    pub fn check(&self, key: &str, digests: &[String]) -> Result<String, String> {
        let committed = self.0.get(key).map_or(&[][..], Vec::as_slice);
        if let Some(round) =
            (0..digests.len().min(committed.len())).find(|&r| digests[r] != committed[r])
        {
            return Err(format!(
                "{key}: round {round} hashes to {}, committed digest is {}",
                digests[round], committed[round]
            ));
        }
        if digests.len() > committed.len() {
            return Err(format!(
                "{key}: no committed digest for rounds {} to {}; this run's digests: {digests:?}",
                committed.len(),
                digests.len() - 1
            ));
        }
        Ok(format!("{key}: {} rounds match", digests.len()))
    }
}
