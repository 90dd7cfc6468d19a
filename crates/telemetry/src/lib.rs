//! Engine-wide metrics for the pan-interconnect stack: atomic counters,
//! fixed-bucket log2 latency histograms with nearest-rank percentile
//! extraction, RAII span timers, and a process-wide [`Registry`] that
//! snapshots to a JSON document.
//!
//! # Design constraints
//!
//! - **Std-only.** No dependencies, not even the vendored stand-ins —
//!   the JSON exposition is hand-rolled so every crate
//!   in the hot path can depend on this one without widening its own
//!   dependency cone.
//! - **Zero-cost when disabled.** The process-wide entry points
//!   ([`counter`], [`histogram`]) hand out *noop* handles
//!   until [`enable`] is called: recording through a noop handle is one
//!   branch on an `Option` that is always `None`, and [`Histogram::start`]
//!   never calls [`Instant::now`] on a noop handle. Instrumentation
//!   sites therefore stay in release builds unconditionally.
//! - **Determinism untouched.** Telemetry never writes to stdout and
//!   never feeds back into engine decisions; the byte-identity gates
//!   (figure/evolution/serving stdout diffs across thread counts) hold
//!   with telemetry enabled. Snapshot *values* are wall-clock facts and
//!   belong next to the other timing sections in `BENCH_*.json`
//!   records, never in deterministic reports.
//!
//! # Registry model
//!
//! A [`Registry`] is a named map from dotted metric names (e.g.
//! `core.phase.evaluate_ns`) to one of two metric kinds. Handles are
//! [`Arc`]-backed and clonable; acquiring the same name twice yields
//! handles onto the same underlying atomics. The `_ns` suffix marks
//! span histograms recording nanoseconds. A standalone registry can be
//! built for tests; production code uses the [`global`] registry
//! through the gated free functions.
//!
//! ```
//! let registry = pan_telemetry::Registry::new();
//! let rounds = registry.counter("core.rounds");
//! let phase = registry.histogram("core.phase.evaluate_ns");
//! rounds.inc();
//! {
//!     let _span = phase.start(); // records elapsed ns on drop
//! }
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters[0], ("core.rounds".to_owned(), 1));
//! assert!(snapshot.to_json().starts_with('{'));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Log2 buckets per histogram: bucket 0 holds exactly zero, bucket `i`
/// (for `1 <= i < 63`) holds `[2^(i-1), 2^i - 1]`, and bucket 63 holds
/// everything from `2^62` up. 64 buckets cover the full `u64` range, so
/// nanosecond spans up to ~146 years land exactly.
const BUCKETS: usize = 64;

/// Log2 bucket index of a value (see [`BUCKETS`]).
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket; percentiles report this bound, so
/// a quantile is exact to within its log2 bucket.
fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= BUCKETS - 1 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

#[derive(Debug, Default)]
struct CounterCore {
    value: AtomicU64,
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }
}

/// Monotonically increasing counter handle. Clonable and sharable
/// across threads; all recording is relaxed-atomic. A noop handle (from
/// [`Counter::noop`] or a disabled global) records nothing.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<CounterCore>>);

impl Counter {
    /// A handle that records nothing — what the global entry points
    /// return while telemetry is disabled.
    #[must_use]
    pub fn noop() -> Counter {
        Counter(None)
    }

    /// `true` when this handle feeds a live registry.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        if let Some(core) = &self.0 {
            core.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }
}

/// Fixed-bucket log2 histogram handle. By convention, names ending in
/// `_ns` record nanosecond durations (usually via [`Histogram::start`]).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// A handle that records nothing.
    #[must_use]
    pub fn noop() -> Histogram {
        Histogram(None)
    }

    /// `true` when this handle feeds a live registry.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.0 {
            core.record(value);
        }
    }

    /// Records a duration as whole nanoseconds (saturating).
    pub fn record_duration(&self, elapsed: Duration) {
        if self.0.is_some() {
            self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Starts an RAII span that records its elapsed nanoseconds into
    /// this histogram when dropped. On a noop handle the span is inert
    /// and the clock is never read.
    #[must_use = "dropping the span immediately records a ~zero duration"]
    pub fn start(&self) -> Span {
        Span(
            self.0
                .as_ref()
                .map(|core| (Instant::now(), Arc::clone(core))),
        )
    }
}

/// RAII span timer from [`Histogram::start`]: records the elapsed
/// nanoseconds into its histogram on drop.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to _ drops it immediately"]
pub struct Span(Option<(Instant, Arc<HistogramCore>)>);

impl Span {
    /// A span that records nothing on drop.
    pub fn noop() -> Span {
        Span(None)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((started, core)) = self.0.take() {
            core.record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Arc<CounterCore>),
    Histogram(Arc<HistogramCore>),
}

/// Named-metric registry: dotted names mapped to counters and
/// histograms. Handle acquisition takes a mutex (acquire once per
/// round/request, not per item); recording through a handle is
/// lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry. Handles from a standalone registry are always
    /// live — the enabled gate applies only to the [`global`] entry
    /// points.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The live counter named `name`, registered on first use. A name
    /// already registered as a different kind yields a noop handle (the
    /// caller's bug shows up as a silent metric, never a panic in the
    /// instrumented hot path).
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().expect("telemetry registry poisoned");
        let metric = metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(CounterCore::default())));
        match metric {
            Metric::Counter(core) => Counter(Some(Arc::clone(core))),
            _ => Counter::noop(),
        }
    }

    /// The live histogram named `name`, registered on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.metrics.lock().expect("telemetry registry poisoned");
        let metric = metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Arc::new(HistogramCore::new())));
        match metric {
            Metric::Histogram(core) => Histogram(Some(Arc::clone(core))),
            _ => Histogram::noop(),
        }
    }

    /// Point-in-time dump of every registered metric, sorted by name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.metrics.lock().expect("telemetry registry poisoned");
        let mut snapshot = RegistrySnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(core) => snapshot
                    .counters
                    .push((name.clone(), core.value.load(Ordering::Relaxed))),
                Metric::Histogram(core) => {
                    let mut buckets = Vec::new();
                    for (i, bucket) in core.buckets.iter().enumerate() {
                        let count = bucket.load(Ordering::Relaxed);
                        if count > 0 {
                            buckets.push((bucket_upper_bound(i), count));
                        }
                    }
                    snapshot.histograms.push((
                        name.clone(),
                        HistogramSnapshot {
                            count: core.count.load(Ordering::Relaxed),
                            sum: core.sum.load(Ordering::Relaxed),
                            buckets,
                        },
                    ));
                }
            }
        }
        snapshot
    }
}

/// Point-in-time value of one histogram: total count and sum plus the
/// occupied buckets as `(inclusive upper bound, count)` pairs in
/// ascending bound order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values (nanoseconds for `_ns` histograms).
    pub sum: u64,
    /// Occupied buckets, ascending: `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Nearest-rank percentile: the inclusive upper bound of the bucket
    /// holding the `ceil(p * count)`-th smallest observation (so exact
    /// to within a log2 bucket); `0` when the histogram is empty.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(upper, count) in &self.buckets {
            seen = seen.saturating_add(count);
            if seen >= rank {
                return upper;
            }
        }
        self.buckets.last().map_or(0, |&(upper, _)| upper)
    }

    /// Median (nearest-rank, bucket upper bound).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile (nearest-rank, bucket upper bound).
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th percentile (nearest-rank, bucket upper bound).
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Mean observed value; `0.0` when empty. Unlike the percentiles
    /// this is exact — the sum is recorded, not bucketed.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Point-in-time dump of a [`Registry`], each section sorted by metric
/// name. Renders to JSON ([`RegistrySnapshot::to_json`]) for
/// `--metrics-out` files and the serving layer's `metrics` verb.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram snapshots by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

fn push_json_string(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl RegistrySnapshot {
    /// Renders the snapshot as one JSON object:
    /// `{"counters":{...},"histograms":{"name":
    /// {"count":..,"sum":..,"p50":..,"p90":..,"p99":..,"buckets":
    /// [[bound,count],..]},..}}`. Hand-rolled (the crate is
    /// dependency-free) but escaped and well-formed.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, hist)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                hist.count,
                hist.sum,
                hist.p50(),
                hist.p90(),
                hist.p99()
            );
            for (j, (bound, count)) in hist.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{bound},{count}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry. Handles acquired directly from it are
/// always live; production instrumentation goes through the gated
/// [`counter`]/[`histogram`] free functions instead so a
/// process that never calls [`enable`] pays nothing.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Turns the process-wide entry points live. Called by bench binaries
/// when `--metrics-out` is given and by the serving layer on startup;
/// idempotent, never reversed (handles already handed out as noops stay
/// noops — instrumentation sites acquire per round/request, so they
/// light up on the next acquisition).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// `true` once [`enable`] has been called in this process.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Process-wide counter: live after [`enable`], noop before.
#[must_use]
pub fn counter(name: &str) -> Counter {
    if is_enabled() {
        global().counter(name)
    } else {
        Counter::noop()
    }
}

/// Process-wide histogram: live after [`enable`], noop before.
#[must_use]
pub fn histogram(name: &str) -> Histogram {
    if is_enabled() {
        global().histogram(name)
    } else {
        Histogram::noop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // Bucket 0 is exactly zero; bucket i covers [2^(i-1), 2^i - 1].
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index((1 << 62) - 1), 62);
        assert_eq!(bucket_index(1 << 62), 63);
        assert_eq!(bucket_index(u64::MAX), 63);

        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(62), (1 << 62) - 1);
        assert_eq!(bucket_upper_bound(63), u64::MAX);

        // Every value's bucket bound is >= the value (the bound is an
        // inclusive upper bound), and the previous bucket's bound is
        // below it.
        for value in [0u64, 1, 2, 3, 4, 5, 1023, 1024, 1025, u64::MAX] {
            let i = bucket_index(value);
            assert!(bucket_upper_bound(i) >= value, "value {value} bucket {i}");
            if i > 0 {
                assert!(bucket_upper_bound(i - 1) < value);
            }
        }
    }

    #[test]
    fn histogram_records_and_extracts_nearest_rank_percentiles() {
        let registry = Registry::new();
        let hist = registry.histogram("test.latency_ns");
        for value in 1..=8u64 {
            hist.record(value);
        }
        let snapshot = registry.snapshot();
        let (name, h) = &snapshot.histograms[0];
        assert_eq!(name, "test.latency_ns");
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 36);
        // Buckets: {1:[1], 3:[2,3], 7:[4..7], 15:[8]}.
        assert_eq!(h.buckets, vec![(1, 1), (3, 2), (7, 4), (15, 1)]);
        // Nearest-rank: p50 -> rank 4 -> the 7-bound bucket; p99 ->
        // rank 8 -> the 15-bound bucket.
        assert_eq!(h.p50(), 7);
        assert_eq!(h.p90(), 15);
        assert_eq!(h.p99(), 15);
        assert!((h.mean() - 4.5).abs() < 1e-12);

        // Zero-only histogram: everything sits in the zero bucket.
        let zero = registry.histogram("test.zero");
        zero.record(0);
        let h = &registry.snapshot().histograms[1].1;
        assert_eq!(h.buckets, vec![(0, 1)]);
        assert_eq!(h.p99(), 0);

        // Empty snapshot percentiles are defined (0).
        assert_eq!(HistogramSnapshot::default().percentile(0.5), 0);
    }

    #[test]
    fn counters_gauges_and_kind_mismatches() {
        let registry = Registry::new();
        let c = registry.counter("hits");
        c.inc();
        c.add(9);
        // A second handle onto the same name shares the atomics.
        registry.counter("hits").inc();
        // Same name, different kind: noop handle, no panic.
        let clash = registry.histogram("hits");
        assert!(!clash.is_live());
        clash.record(1_000_000);
        registry.histogram("depth_ns").record(4);
        let wrong_counter = registry.counter("depth_ns");
        assert!(!wrong_counter.is_live());
        wrong_counter.add(7);

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters, vec![("hits".to_owned(), 11)]);
        assert_eq!(snapshot.histograms.len(), 1);
        assert_eq!(snapshot.histograms[0].0, "depth_ns");
        assert_eq!(snapshot.histograms[0].1.sum, 4);
    }

    #[test]
    fn spans_record_elapsed_nanoseconds() {
        let registry = Registry::new();
        let hist = registry.histogram("span_ns");
        {
            let _span = hist.start();
            std::hint::black_box(0u64);
        }
        let h = &registry.snapshot().histograms[0].1;
        assert_eq!(h.count, 1);
        // Noop spans never record and never read the clock.
        {
            let _span = Histogram::noop().start();
        }
        let _ = Span::noop();
        assert_eq!(registry.snapshot().histograms[0].1.count, 1);
    }

    #[test]
    fn json_and_prometheus_expositions_are_well_formed() {
        let registry = Registry::new();
        registry.counter("a.count").add(3);
        let h = registry.histogram("c.lat_ns");
        h.record(5);
        h.record(u64::MAX);
        let snapshot = registry.snapshot();

        let json = snapshot.to_json();
        assert!(json.starts_with("{\"counters\":{"), "{json}");
        assert!(json.contains("\"a.count\":3},\"histograms\":{"), "{json}");
        assert!(
            json.contains("\"c.lat_ns\":{\"count\":2,\"sum\":"),
            "{json}"
        );
        assert!(json.contains("\"p99\":18446744073709551615"), "{json}");
        assert!(json.ends_with("}}"), "{json}");
        // Names needing escapes stay well-formed.
        let mut escaped = String::new();
        push_json_string(&mut escaped, "a\"b\\c\n");
        assert_eq!(escaped, "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn global_entry_points_gate_on_enable() {
        // Single test for all global-state assertions: enable() is
        // process-wide and sticky, so ordering matters.
        let before = counter("global.test");
        if !is_enabled() {
            assert!(!before.is_live(), "disabled global hands out noops");
            before.inc(); // must be inert
        }
        enable();
        assert!(is_enabled());
        let after = counter("global.test");
        assert!(after.is_live());
        after.add(2);
        let snapshot = global().snapshot();
        let value = snapshot
            .counters
            .iter()
            .find(|(name, _)| name == "global.test")
            .map(|&(_, v)| v);
        assert_eq!(value, Some(2));
        assert!(histogram("global.hist_ns").is_live());
    }
}
