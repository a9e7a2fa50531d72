//! The metrics registry: counters, gauges, and fixed-bucket histograms
//! rendered in the Prometheus text exposition format.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cheap.** A metric is a pre-registered *handle* holding an
//!    `Arc<AtomicU64>`; recording is one relaxed `fetch_add`, no lock, no
//!    name lookup. Solver kernels record per-solve *deltas* (not per-pivot
//!    increments) so even the atomic is off the innermost loops.
//! 2. **Disable-able to nothing.** A handle minted from
//!    [`Registry::disabled`] carries no allocation at all; every record
//!    call is a branch on `Option` the optimizer folds away (overhead
//!    documented in DESIGN.md §15.4).
//! 3. **Deterministic exposition.** Families and series render in
//!    `BTreeMap` order, bucket boundaries are fixed at registration, and
//!    two identical solves against fresh registries produce byte-identical
//!    counter sections — pinned by golden tests.
//!
//! Registration is idempotent: asking twice for the same family + label
//! set returns handles sharing one underlying cell, so layers can mint
//! their handle structs independently without double counting.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A no-op counter, for layers running without observability.
    pub const fn disabled() -> Counter {
        Counter { cell: None }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.cell {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge: a value that can go up and down. Stored as `f64` bits.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// A no-op gauge.
    pub const fn disabled() -> Gauge {
        Gauge { cell: None }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(c) = &self.cell {
            c.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: f64) {
        if let Some(c) = &self.cell {
            // CAS loop: gauges are supervisory (connection counts, queue
            // depth), never in solver hot paths, so contention is trivial.
            let _ = c.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + d).to_bits())
            });
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Strictly increasing upper bounds; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// One cell per bound plus the `+Inf` bucket. Cumulative counts are
    /// computed at render time; cells hold per-bucket counts.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram. Bucket boundaries are set at registration and
/// never change, so the exposition layout is deterministic.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// A no-op histogram.
    pub const fn disabled() -> Histogram {
        Histogram { cell: None }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        if let Some(h) = &self.cell {
            let idx = h.bounds.partition_point(|b| *b < v);
            h.buckets[idx].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            let _ = h
                .sum_bits
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                    Some((f64::from_bits(bits) + v).to_bits())
                });
        }
    }

    /// Total number of observations (0 when disabled).
    pub fn count(&self) -> u64 {
        self.cell.as_ref().map_or(0, |h| h.count.load(Ordering::Relaxed))
    }
}

/// Sub-second-to-seconds boundaries for request/handler latencies.
pub const LATENCY_BUCKETS_SECS: &[f64] = &[
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
];

/// Wider boundaries for solve, replay, and campaign-cell durations.
pub const DURATION_BUCKETS_SECS: &[f64] = &[
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 120.0,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn exposition(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Series {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug)]
struct Family {
    help: &'static str,
    kind: Kind,
    /// Keyed by the rendered label block (`{a="x",b="y"}` or `""`).
    series: BTreeMap<String, Series>,
}

#[derive(Debug)]
struct RegistryCore {
    // lock-order: registry.families (leaf; held only during registration
    // and render, never while recording).
    families: Mutex<BTreeMap<&'static str, Family>>,
}

/// A metrics registry. Cloning shares the underlying store; a registry
/// from [`Registry::disabled`] mints no-op handles and renders empty.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryCore>>,
}

impl Registry {
    /// A live registry.
    pub fn new() -> Registry {
        Registry {
            inner: Some(Arc::new(RegistryCore {
                families: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// A registry whose handles all no-op.
    pub const fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// Whether handles minted here actually record.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or re-fetches) a counter series.
    pub fn counter(&self, name: &'static str, help: &'static str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, Kind::Counter, labels, || {
            Series::Counter(Arc::new(AtomicU64::new(0)))
        }) {
            Some(Series::Counter(c)) => Counter { cell: Some(c) },
            _ => Counter::disabled(),
        }
    }

    /// Registers (or re-fetches) a gauge series.
    pub fn gauge(&self, name: &'static str, help: &'static str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, Kind::Gauge, labels, || {
            Series::Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
        }) {
            Some(Series::Gauge(c)) => Gauge { cell: Some(c) },
            _ => Gauge::disabled(),
        }
    }

    /// Registers (or re-fetches) a histogram series with the given bucket
    /// upper bounds (must be strictly increasing; `+Inf` is implicit).
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        let make = || {
            let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
            Series::Histogram(Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                buckets,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }))
        };
        match self.series(name, help, Kind::Histogram, labels, make) {
            Some(Series::Histogram(h)) => Histogram { cell: Some(h) },
            _ => Histogram::disabled(),
        }
    }

    fn series(
        &self,
        name: &'static str,
        help: &'static str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
    ) -> Option<Series> {
        let core = self.inner.as_ref()?;
        let key = label_key(labels);
        let mut families = core.families.lock().expect("metrics registry lock poisoned");
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            kind,
            series: BTreeMap::new(),
        });
        if family.kind != kind {
            // A name registered under two kinds is a programming error; we
            // keep the first registration and hand back a detached no-op
            // rather than panicking in library code.
            return None;
        }
        Some(family.series.entry(key).or_insert_with(make).clone())
    }

    /// Renders the whole registry in the Prometheus text exposition
    /// format, families and series in lexicographic order.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let Some(core) = self.inner.as_ref() else {
            return String::new();
        };
        let families = core.families.lock().expect("metrics registry lock poisoned");
        let mut out = String::new();
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.exposition());
            for (key, series) in &family.series {
                match series {
                    Series::Counter(c) => {
                        let _ = writeln!(out, "{name}{key} {}", c.load(Ordering::Relaxed));
                    }
                    Series::Gauge(c) => {
                        let v = f64::from_bits(c.load(Ordering::Relaxed));
                        let _ = writeln!(out, "{name}{key} {}", fmt_value(v));
                    }
                    Series::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (i, bound) in h.bounds.iter().enumerate() {
                            cumulative += h.buckets[i].load(Ordering::Relaxed);
                            let le = merge_le(key, &fmt_value(*bound));
                            let _ = writeln!(out, "{name}_bucket{le} {cumulative}");
                        }
                        cumulative += h.buckets[h.bounds.len()].load(Ordering::Relaxed);
                        let le = merge_le(key, "+Inf");
                        let _ = writeln!(out, "{name}_bucket{le} {cumulative}");
                        let sum = f64::from_bits(h.sum_bits.load(Ordering::Relaxed));
                        let _ = writeln!(out, "{name}_sum{key} {}", fmt_value(sum));
                        let _ = writeln!(out, "{name}_count{key} {}", h.count.load(Ordering::Relaxed));
                    }
                }
            }
        }
        out
    }
}

/// Renders a label set as `{a="x",b="y"}` (keys sorted), or `""` for none.
fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_unstable();
    let body: Vec<String> = sorted
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Inserts an `le="…"` label into an existing (possibly empty) label block.
fn merge_le(key: &str, le: &str) -> String {
    if key.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        // key ends with `}`; splice before it.
        format!("{},le=\"{le}\"}}", &key[..key.len() - 1])
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Prometheus-friendly float rendering: integers without a trailing `.0`,
/// everything else via the shortest `Display` round-trip.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.is_finite() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_free_and_renders_empty() {
        let reg = Registry::disabled();
        let c = reg.counter("x_total", "help", &[]);
        c.add(5);
        assert_eq!(c.get(), 0);
        assert_eq!(reg.render(), "");
    }

    #[test]
    fn registration_is_idempotent_and_shared() {
        let reg = Registry::new();
        let a = reg.counter("jobs_total", "jobs", &[("kind", "dp")]);
        let b = reg.counter("jobs_total", "jobs", &[("kind", "dp")]);
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn kind_conflicts_yield_detached_handles() {
        let reg = Registry::new();
        let c = reg.counter("dual_use", "first wins", &[]);
        let g = reg.gauge("dual_use", "loses", &[]);
        g.set(9.0);
        c.inc();
        assert_eq!(g.get(), 0.0);
        assert!(reg.render().contains("# TYPE dual_use counter"));
    }

    #[test]
    fn gauge_add_and_set() {
        let reg = Registry::new();
        let g = reg.gauge("depth", "queue depth", &[]);
        g.set(4.0);
        g.add(-1.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_render() {
        let reg = Registry::new();
        let h = reg.histogram("lat_seconds", "latency", &[], &[0.1, 1.0]);
        h.observe(0.05); // bucket 0
        h.observe(0.5); // bucket 1
        h.observe(0.5);
        h.observe(7.0); // +Inf
        let text = reg.render();
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 1"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"1\"} 3"), "{text}");
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("lat_seconds_count 4"), "{text}");
        assert!(text.contains("lat_seconds_sum 8.05"), "{text}");
    }

    #[test]
    fn boundary_observation_lands_in_its_le_bucket() {
        // Prometheus buckets are `le` (less-or-equal): an observation
        // exactly on a bound belongs to that bound's bucket.
        let reg = Registry::new();
        let h = reg.histogram("b_seconds", "bounds", &[], &[1.0]);
        h.observe(1.0);
        let text = reg.render();
        assert!(text.contains("b_seconds_bucket{le=\"1\"} 1"), "{text}");
    }

    #[test]
    fn render_orders_families_and_series_deterministically() {
        let reg = Registry::new();
        reg.counter("z_total", "last", &[]).inc();
        reg.counter("a_total", "first", &[("m", "y")]).inc();
        reg.counter("a_total", "first", &[("m", "x")]).add(2);
        let text = reg.render();
        let expected = "# HELP a_total first\n\
                        # TYPE a_total counter\n\
                        a_total{m=\"x\"} 2\n\
                        a_total{m=\"y\"} 1\n\
                        # HELP z_total last\n\
                        # TYPE z_total counter\n\
                        z_total 1\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        reg.counter("esc_total", "esc", &[("p", "a\"b\\c")]).inc();
        assert!(reg.render().contains("esc_total{p=\"a\\\"b\\\\c\"} 1"));
    }
}
