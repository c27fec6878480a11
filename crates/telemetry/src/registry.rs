//! The metrics registry: named counters, gauges, and histograms with a
//! hard determinism split.
//!
//! Every metric carries a [`MetricClass`] that its name prefix encodes:
//!
//! * [`MetricClass::Outcome`] (`spms_*`) — derivable from the final
//!   decision/event log alone. Byte-identical across `--threads` always,
//!   and across shard counts whenever the final decision streams agree.
//! * [`MetricClass::Mechanism`] (`spms_mech_*`) — deterministic for a
//!   fixed configuration (byte-identical across `--threads`), but
//!   describing *how* the engine got there (probe counts, cache hits,
//!   journal rewinds, routing overflow, rebalance), which legitimately
//!   depends on the shard layout.
//! * [`MetricClass::Timing`] (`spms_timing_*`) — wall-clock measurement
//!   data, never deterministic, strippable as one section.
//!
//! Registries are plain values owned by the engine they instrument (no
//! globals), so running N engines on M worker threads cannot interleave
//! updates: thread-count invariance holds by construction, and experiment
//! drivers [`merge`](Registry::merge) per-cell registries in grid order.

use crate::histogram::Histogram;
use crate::snapshot::{Snapshot, SnapshotEntry, SnapshotValue};

/// Determinism class of a metric; see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricClass {
    /// Derivable from the final decision/event log; shard-invariant when
    /// the decision streams agree. Name prefix `spms_` (and nothing else).
    Outcome,
    /// Deterministic per configuration but layout-dependent. Name prefix
    /// `spms_mech_`.
    Mechanism,
    /// Wall-clock data, strippable. Name prefix `spms_timing_`.
    Timing,
}

impl MetricClass {
    /// The class `name` encodes, or `None` for a foreign name.
    pub fn of_name(name: &str) -> Option<MetricClass> {
        if name.starts_with("spms_timing_") {
            Some(MetricClass::Timing)
        } else if name.starts_with("spms_mech_") {
            Some(MetricClass::Mechanism)
        } else if name.starts_with("spms_") {
            Some(MetricClass::Outcome)
        } else {
            None
        }
    }
}

/// Which classes a [`Snapshot`] includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotFilter {
    /// Everything, timing included.
    Full,
    /// Outcome plus mechanism metrics — the deterministic section.
    Deterministic,
    /// Outcome metrics only — the subset that is additionally invariant
    /// across shard layouts when the decision streams agree.
    ShardInvariant,
}

impl SnapshotFilter {
    /// Whether `class` survives this filter.
    pub fn includes(self, class: MetricClass) -> bool {
        match self {
            SnapshotFilter::Full => true,
            SnapshotFilter::Deterministic => class != MetricClass::Timing,
            SnapshotFilter::ShardInvariant => class == MetricClass::Outcome,
        }
    }
}

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Debug, Clone, PartialEq)]
struct Metric<T> {
    name: String,
    class: MetricClass,
    value: T,
}

/// A named-metric store; see the [module docs](self) for the determinism
/// contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: Vec<Metric<u64>>,
    gauges: Vec<Metric<u64>>,
    histograms: Vec<Metric<Histogram>>,
}

fn assert_name(name: &str, class: MetricClass) {
    assert_eq!(
        MetricClass::of_name(name),
        Some(class),
        "metric name `{name}` does not encode class {class:?} \
         (expected prefix spms_/spms_mech_/spms_timing_ to match)"
    );
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or finds) the counter `name`, which must carry the
    /// prefix of `class`.
    ///
    /// # Panics
    ///
    /// Panics when `name`'s prefix disagrees with `class`, or when `name`
    /// is already registered with a different class — both programmer
    /// errors.
    pub fn counter(&mut self, name: &str, class: MetricClass) -> CounterId {
        assert_name(name, class);
        if let Some(i) = self.counters.iter().position(|m| m.name == name) {
            assert_eq!(
                self.counters[i].class, class,
                "counter `{name}` re-registered"
            );
            return CounterId(i);
        }
        self.counters.push(Metric {
            name: name.to_string(),
            class,
            value: 0,
        });
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or finds) the gauge `name`; same contract as
    /// [`counter`](Registry::counter).
    pub fn gauge(&mut self, name: &str, class: MetricClass) -> GaugeId {
        assert_name(name, class);
        if let Some(i) = self.gauges.iter().position(|m| m.name == name) {
            assert_eq!(self.gauges[i].class, class, "gauge `{name}` re-registered");
            return GaugeId(i);
        }
        self.gauges.push(Metric {
            name: name.to_string(),
            class,
            value: 0,
        });
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or finds) the histogram `name`; same contract as
    /// [`counter`](Registry::counter).
    pub fn histogram(&mut self, name: &str, class: MetricClass) -> HistogramId {
        assert_name(name, class);
        if let Some(i) = self.histograms.iter().position(|m| m.name == name) {
            assert_eq!(
                self.histograms[i].class, class,
                "histogram `{name}` re-registered"
            );
            return HistogramId(i);
        }
        self.histograms.push(Metric {
            name: name.to_string(),
            class,
            value: Histogram::new(),
        });
        HistogramId(self.histograms.len() - 1)
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Increments a counter by `n`.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].value += n;
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].value
    }

    /// Sets a gauge.
    pub fn set_gauge(&mut self, id: GaugeId, value: u64) {
        self.gauges[id.0].value = value;
    }

    /// Records one sample into a histogram.
    pub fn record(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].value.record(value);
    }

    /// Borrows a histogram.
    pub fn histogram_ref(&self, id: HistogramId) -> &Histogram {
        &self.histograms[id.0].value
    }

    /// Mutably borrows a histogram (for bulk merges).
    pub fn histogram_mut(&mut self, id: HistogramId) -> &mut Histogram {
        &mut self.histograms[id.0].value
    }

    /// Looks a counter's value up by name (test/report convenience).
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Looks a gauge's value up by name (test/report convenience).
    pub fn gauge_by_name(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Looks a histogram up by name (test/report convenience).
    pub fn histogram_by_name(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// Folds `other` into `self` by metric name: counters and gauges add,
    /// histograms merge bucket-wise, and names unknown to `self` are
    /// registered. Gauges add so per-shard last-tick values aggregate to a
    /// service-wide figure; engines that need a plain "last value" simply
    /// own the only registry that sets the gauge.
    pub fn merge(&mut self, other: &Registry) {
        self.merge_where(other, |_, _| true);
    }

    /// [`merge`](Registry::merge) restricted to the metrics `include`
    /// accepts by name and class. A sharded service uses this to fold its
    /// shards' mechanism and timing metrics in while keeping outcome
    /// metrics and the decision latency to the final decision stream it
    /// owns — a shard's `decide` attempts include overflow retries, which
    /// would double-count.
    pub fn merge_where(&mut self, other: &Registry, include: impl Fn(&str, MetricClass) -> bool) {
        for m in &other.counters {
            if include(&m.name, m.class) {
                let id = self.counter(&m.name, m.class);
                self.add(id, m.value);
            }
        }
        for m in &other.gauges {
            if include(&m.name, m.class) {
                let id = self.gauge(&m.name, m.class);
                self.gauges[id.0].value += m.value;
            }
        }
        for m in &other.histograms {
            if include(&m.name, m.class) {
                let id = self.histogram(&m.name, m.class);
                self.histograms[id.0].value.merge(&m.value);
            }
        }
    }

    /// Renders the metrics surviving `filter` as a [`Snapshot`], sorted
    /// by metric name.
    pub fn snapshot(&self, filter: SnapshotFilter) -> Snapshot {
        let mut entries = Vec::new();
        for m in &self.counters {
            if filter.includes(m.class) {
                entries.push(SnapshotEntry {
                    name: m.name.clone(),
                    value: SnapshotValue::Counter(m.value),
                });
            }
        }
        for m in &self.gauges {
            if filter.includes(m.class) {
                entries.push(SnapshotEntry {
                    name: m.name.clone(),
                    value: SnapshotValue::Gauge(m.value),
                });
            }
        }
        for m in &self.histograms {
            if filter.includes(m.class) {
                entries.push(SnapshotEntry {
                    name: m.name.clone(),
                    value: SnapshotValue::histogram(&m.value),
                });
            }
        }
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_prefixes_encode_the_class() {
        assert_eq!(
            MetricClass::of_name("spms_admitted_total"),
            Some(MetricClass::Outcome)
        );
        assert_eq!(
            MetricClass::of_name("spms_mech_whole_probes_total"),
            Some(MetricClass::Mechanism)
        );
        assert_eq!(
            MetricClass::of_name("spms_timing_decision_latency_ns"),
            Some(MetricClass::Timing)
        );
        assert_eq!(MetricClass::of_name("other_metric"), None);
    }

    #[test]
    #[should_panic(expected = "does not encode class")]
    fn misprefixed_registration_panics() {
        Registry::new().counter("spms_timing_oops_total", MetricClass::Outcome);
    }

    #[test]
    fn registration_is_idempotent_by_name() {
        let mut r = Registry::new();
        let a = r.counter("spms_events_total", MetricClass::Outcome);
        let b = r.counter("spms_events_total", MetricClass::Outcome);
        assert_eq!(a, b);
        r.add(a, 3);
        assert_eq!(r.counter_value(b), 3);
        assert_eq!(r.counter_by_name("spms_events_total"), Some(3));
    }

    #[test]
    fn merge_adds_counters_and_gauges_and_merges_histograms() {
        let mut a = Registry::new();
        let c = a.counter("spms_events_total", MetricClass::Outcome);
        a.add(c, 2);
        let h = a.histogram("spms_timing_lat_ns", MetricClass::Timing);
        a.record(h, 100);

        let mut b = Registry::new();
        let c2 = b.counter("spms_events_total", MetricClass::Outcome);
        b.add(c2, 5);
        let g = b.gauge("spms_mech_rebalance_last_moves", MetricClass::Mechanism);
        b.set_gauge(g, 4);
        let h2 = b.histogram("spms_timing_lat_ns", MetricClass::Timing);
        b.record(h2, 200);

        a.merge(&b);
        assert_eq!(a.counter_by_name("spms_events_total"), Some(7));
        assert_eq!(a.gauge_by_name("spms_mech_rebalance_last_moves"), Some(4));
        assert_eq!(
            a.histogram_by_name("spms_timing_lat_ns").unwrap().count(),
            2
        );
    }

    #[test]
    fn snapshot_filters_by_class_and_sorts_by_name() {
        let mut r = Registry::new();
        let t = r.histogram("spms_timing_lat_ns", MetricClass::Timing);
        r.record(t, 5);
        let g = r.gauge("spms_timing_rate", MetricClass::Timing);
        r.set_gauge(g, 9);
        let m = r.counter("spms_mech_probes_total", MetricClass::Mechanism);
        r.inc(m);
        let o = r.counter("spms_admitted_total", MetricClass::Outcome);
        r.inc(o);

        let full = r.snapshot(SnapshotFilter::Full);
        assert_eq!(full.entries.len(), 4);
        assert!(full.entries.windows(2).all(|w| w[0].name < w[1].name));

        let det = r.snapshot(SnapshotFilter::Deterministic);
        assert_eq!(
            det.entries
                .iter()
                .map(|e| e.name.as_str())
                .collect::<Vec<_>>(),
            vec!["spms_admitted_total", "spms_mech_probes_total"]
        );

        let inv = r.snapshot(SnapshotFilter::ShardInvariant);
        assert_eq!(
            inv.entries
                .iter()
                .map(|e| e.name.as_str())
                .collect::<Vec<_>>(),
            vec!["spms_admitted_total"]
        );
    }
}
