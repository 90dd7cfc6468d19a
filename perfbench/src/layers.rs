//! Per-layer accounting from the `pan-telemetry` registry: exact
//! histogram `count`/`sum` values and counters, differenced around the
//! calls the benchmark makes into a layer and accumulated separately for
//! cold and warm rounds.

use std::collections::BTreeMap;

use serde::Value;

use crate::record::Report;

/// Round phases the evolution engine times, as named in the registry
/// (`core.phase.<name>_ns`).
pub const PHASES: [&str; 5] = ["enumerate", "derive_transit", "evaluate", "adopt", "shock"];

/// Histogram totals and counter values of one registry reading.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    histograms: BTreeMap<String, (u64, u64)>,
    counters: BTreeMap<String, u64>,
}

impl Tally {
    /// Reads the in-process global registry.
    #[must_use]
    pub fn global() -> Tally {
        let snapshot = pan_telemetry::global().snapshot();
        Tally {
            histograms: snapshot
                .histograms
                .into_iter()
                .map(|(name, h)| (name, (h.count, h.sum)))
                .collect(),
            counters: snapshot.counters.into_iter().collect(),
        }
    }

    /// Reads a `metrics` verb reply of the server.
    ///
    /// # Errors
    ///
    /// A message when the reply lacks the registry sections.
    pub fn from_metrics_reply(reply: &Value) -> Result<Tally, String> {
        let section = |name: &str| match reply.field(name) {
            Ok(Value::Map(entries)) => Ok(entries),
            _ => Err(format!("metrics reply has no {name:?} object")),
        };
        let mut tally = Tally::default();
        for (name, value) in section("counters")? {
            tally.counters.insert(name.clone(), as_u64(value));
        }
        for (name, value) in section("histograms")? {
            let field = |key: &str| value.field(key).map_or(0, as_u64);
            tally
                .histograms
                .insert(name.clone(), (field("count"), field("sum")));
        }
        Ok(tally)
    }

    /// `self - earlier`, metric by metric.
    #[must_use]
    pub fn since(&self, earlier: &Tally) -> Tally {
        Tally {
            histograms: self
                .histograms
                .iter()
                .map(|(name, &(count, sum))| {
                    let (c0, s0) = earlier.histograms.get(name).copied().unwrap_or_default();
                    (
                        name.clone(),
                        (count.saturating_sub(c0), sum.saturating_sub(s0)),
                    )
                })
                .collect(),
            counters: self
                .counters
                .iter()
                .map(|(name, &value)| {
                    let v0 = earlier.counters.get(name).copied().unwrap_or_default();
                    (name.clone(), value.saturating_sub(v0))
                })
                .collect(),
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Tally) {
        for (name, &(count, sum)) in &other.histograms {
            let entry = self.histograms.entry(name.clone()).or_default();
            entry.0 += count;
            entry.1 += sum;
        }
        for (name, &value) in &other.counters {
            *self.counters.entry(name.clone()).or_default() += value;
        }
    }

    /// Observation count of histogram `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> u64 {
        self.histograms.get(name).map_or(0, |&(count, _)| count)
    }

    /// Exact sum of histogram `name`.
    #[must_use]
    pub fn sum(&self, name: &str) -> u64 {
        self.histograms.get(name).map_or(0, |&(_, sum)| sum)
    }

    /// Mean of histogram `name` in milliseconds (0 when empty).
    #[must_use]
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.sum(name) as f64 / n as f64 / 1e6,
        }
    }

    /// Value of counter `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or_default()
    }
}

fn as_u64(value: &Value) -> u64 {
    match value {
        Value::U64(n) => *n,
        Value::I64(n) => u64::try_from(*n).unwrap_or(0),
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Value::F64(x) => *x as u64,
        _ => 0,
    }
}

/// Registry deltas accumulated over a set of rounds, with the rounds'
/// wall time as the caller measured it around each call.
#[derive(Debug, Clone, Default)]
pub struct Rounds {
    /// Rounds accumulated.
    pub rounds: u64,
    /// Wall nanoseconds of those rounds.
    pub wall_ns: u64,
    /// Registry deltas over those rounds.
    pub tally: Tally,
}

impl Rounds {
    /// Adds one round: its wall time and the registry delta around it.
    pub fn add(&mut self, wall_ns: u64, delta: &Tally) {
        self.rounds += 1;
        self.wall_ns += wall_ns;
        self.tally.add(delta);
    }

    /// Adds every round of `other`.
    pub fn merge(&mut self, other: &Rounds) {
        self.rounds += other.rounds;
        self.wall_ns += other.wall_ns;
        self.tally.add(&other.tally);
    }

    fn per_round_ms(&self, ns: u64) -> Option<f64> {
        (self.rounds > 0).then(|| ns as f64 / self.rounds as f64 / 1e6)
    }

    /// Sets `core.<label>.<phase>_ms` (mean per round) and
    /// `core.<label>.unattributed_ms` (round wall time minus the phase
    /// spans, per round) on the report.
    pub fn report_phases(&self, label: &str, report: &mut Report) {
        let mut attributed = 0u64;
        for phase in PHASES {
            let ns = self.tally.sum(&format!("core.phase.{phase}_ns"));
            attributed += ns;
            report.set(
                metric_name(&format!("core.{label}.{phase}_ms")),
                self.per_round_ms(ns),
            );
        }
        report.set(
            metric_name(&format!("core.{label}.unattributed_ms")),
            self.per_round_ms(self.wall_ns.saturating_sub(attributed)),
        );
        report.samples(&format!("core.{label}.rounds"), self.rounds as usize);
    }

    /// Share of rounds whose full-engine transit cache was reused rather
    /// than rebuilt or dropped by a pricing change.
    #[must_use]
    pub fn transit_reuse_ratio(&self) -> Option<f64> {
        let reuses = self.tally.counter("core.cache.full_engine.reuses");
        let lookups = reuses
            + self.tally.counter("core.cache.full_engine.rebuilds")
            + self.tally.counter("core.cache.full_engine.pricing_drops");
        (lookups > 0).then(|| reuses as f64 / lookups as f64)
    }

    /// Worker busy time over `threads` × round wall time.
    #[must_use]
    pub fn busy_ratio(&self, threads: usize) -> Option<f64> {
        (self.wall_ns > 0).then(|| {
            self.tally.sum("runtime.worker.busy_ns") as f64 / (threads as f64 * self.wall_ns as f64)
        })
    }
}

/// The static name of a per-layer metric built at run time.
///
/// # Panics
///
/// Panics when `name` is not in [`crate::record::PER_LAYER`] — a
/// mismatch between this module and the metric list.
#[must_use]
pub fn metric_name(name: &str) -> &'static str {
    crate::record::PER_LAYER
        .iter()
        .map(|&(n, _, _, _)| n)
        .find(|&n| n == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}
