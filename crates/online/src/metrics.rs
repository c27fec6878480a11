//! The admission engines' telemetry surface.
//!
//! [`EngineMetrics`] bundles what one decision engine (a solo
//! [`AdmissionController`](crate::AdmissionController) or a
//! [`ShardedAdmission`](crate::ShardedAdmission) service) owns: a
//! [`Registry`] of named metrics, a bounded [`TraceRing`] of per-decision
//! [`StageTrace`](spms_telemetry::StageTrace)s, and a short history of
//! rebalance ticks. It is a plain owned value — cloned with its engine,
//! merged by experiment drivers in grid order — which is what keeps the
//! deterministic metric section byte-identical across `--threads`.
//!
//! The metric name space (see the README's Observability section):
//!
//! * `spms_*` outcome metrics are recorded **only from final decisions**
//!   (the engine that owns the decision stream calls
//!   [`record_outcome`](EngineMetrics::record_outcome)). A sharded
//!   service drops its shards' outcome counters when merging
//!   ([`Registry::merge_where`]) because shard-level `decide` calls
//!   include overflow retries.
//! * `spms_mech_*` mechanism metrics describe how the cascade got there:
//!   per-stage attempt/success counters, probe and cache hit/miss counts
//!   folded in from the [`scoped`](spms_telemetry::scoped) hot counters, routing overflow and
//!   rebalance activity.
//! * `spms_timing_*` metrics hold every wall-clock figure: per-decision
//!   and per-stage latency histograms. A sharded service keeps
//!   `spms_timing_decision_latency_ns` to one sample per service decision
//!   and exposes its shards' own decision spans as
//!   `spms_timing_shard_decision_latency_ns` in the merged view.

use std::collections::VecDeque;

use spms_telemetry::{
    CounterId, GaugeId, Histogram, HistogramId, HotDeltas, MetricClass, Registry, SnapshotFilter,
    SpanOutcome, StageSpan, TraceRing, HOT_COUNTERS,
};

use crate::{DecisionKind, DecisionPath, RejectionReason};

/// How many per-decision stage traces an engine retains by default.
pub const DEFAULT_TRACE_RING_CAPACITY: usize = 256;

/// The per-decision latency histogram, one sample per decision the engine
/// owns.
pub(crate) const DECISION_LATENCY: &str = "spms_timing_decision_latency_ns";

/// The shards' own decision spans in a sharded service's merged registry.
pub(crate) const SHARD_DECISION_LATENCY: &str = "spms_timing_shard_decision_latency_ns";

/// How many rebalance ticks the per-tick history retains.
pub const REBALANCE_HISTORY_CAPACITY: usize = 64;

/// One retained rebalance tick: which tick it was and how many tasks it
/// moved (0 for a no-op tick).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceTick {
    /// 0-based tick sequence number.
    pub seq: u64,
    /// Tasks migrated between shards by this tick.
    pub moves: u64,
}

/// The cascade stages, in attempt order (identical to [`DecisionPath`],
/// which doubles as the stage identifier). The cross-shard split stage
/// runs in the sharded service, after every shard's own cascade failed.
const STAGES: [DecisionPath; 5] = [
    DecisionPath::FastWhole,
    DecisionPath::FastSplit,
    DecisionPath::Repair,
    DecisionPath::FullRepartition,
    DecisionPath::CrossShardSplit,
];

fn stage_index(path: DecisionPath) -> usize {
    match path {
        DecisionPath::FastWhole => 0,
        DecisionPath::FastSplit => 1,
        DecisionPath::Repair => 2,
        DecisionPath::FullRepartition => 3,
        DecisionPath::CrossShardSplit => 4,
    }
}

/// Snake-case stage name used in metric names and trace spans.
pub fn stage_name(path: DecisionPath) -> &'static str {
    match path {
        DecisionPath::FastWhole => "fast_whole",
        DecisionPath::FastSplit => "fast_split",
        DecisionPath::Repair => "repair",
        DecisionPath::FullRepartition => "full_repartition",
        DecisionPath::CrossShardSplit => "cross_shard_split",
    }
}

/// The trace-ring label of a final decision.
pub fn decision_label(kind: &DecisionKind) -> &'static str {
    match kind {
        DecisionKind::Admitted { path, .. } => match path {
            DecisionPath::FastWhole => "admitted_fast_whole",
            DecisionPath::FastSplit => "admitted_fast_split",
            DecisionPath::Repair => "admitted_repair",
            DecisionPath::FullRepartition => "admitted_full_repartition",
            DecisionPath::CrossShardSplit => "admitted_cross_shard_split",
        },
        DecisionKind::Rejected { reason } => match reason {
            RejectionReason::DuplicateTask => "rejected_duplicate",
            RejectionReason::PlatformOverloaded => "rejected_overload",
            RejectionReason::OverheadUnabsorbable => "rejected_overhead",
            RejectionReason::NoFeasiblePlacement => "rejected_no_placement",
        },
        DecisionKind::Departed => "departed",
        DecisionKind::DepartUnknown => "depart_unknown",
        DecisionKind::RenewNoted => "renew_noted",
        DecisionKind::EvictedOnFailure => "evicted_on_failure",
    }
}

#[derive(Debug, Clone)]
struct Ids {
    // Outcome.
    events: CounterId,
    arrivals: CounterId,
    departures: CounterId,
    unknown_departures: CounterId,
    admitted: CounterId,
    admitted_by_path: [CounterId; 5],
    rejected: CounterId,
    rejected_duplicate: CounterId,
    rejected_overload: CounterId,
    rejected_overhead: CounterId,
    rejected_no_placement: CounterId,
    migrations: CounterId,
    inflation_ns: CounterId,
    lease_expirations: CounterId,
    // Mechanism.
    stage_attempts: [CounterId; 5],
    stage_successes: [CounterId; 5],
    hot: [CounterId; spms_telemetry::HOT_COUNTER_COUNT],
    overflow_admissions: CounterId,
    cross_shard_attempts: CounterId,
    cross_shard_admissions: CounterId,
    cross_shard_aborts: CounterId,
    cross_shard_pieces: CounterId,
    rebalance_ticks: CounterId,
    rebalance_moves: CounterId,
    rebalance_last_moves: GaugeId,
    fault_injections: CounterId,
    fault_crashes: CounterId,
    fault_stalls: CounterId,
    fault_corruptions: CounterId,
    fault_cost_spikes: CounterId,
    fault_drained: CounterId,
    fault_recoveries: CounterId,
    fault_evictions: CounterId,
    fault_rejoins: CounterId,
    audit_checks: CounterId,
    audit_violations: CounterId,
    audit_repairs: CounterId,
    // Timing.
    decision_latency: HistogramId,
    stage_latency: [HistogramId; 5],
}

/// One engine's metrics: registry, stage-trace ring, and rebalance
/// history. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct EngineMetrics {
    registry: Registry,
    ids: Ids,
    ring: TraceRing,
    /// Span scratch for the decision currently being made.
    open_spans: Vec<StageSpan>,
    rebalance_history: VecDeque<RebalanceTick>,
}

impl EngineMetrics {
    /// A fresh metrics bundle whose trace ring keeps `ring_capacity`
    /// decisions (0 disables trace retention).
    pub fn new(ring_capacity: usize) -> Self {
        let mut registry = Registry::new();
        let outcome = |r: &mut Registry, name: &str| r.counter(name, MetricClass::Outcome);
        let mech = |r: &mut Registry, name: &str| r.counter(name, MetricClass::Mechanism);
        let ids = Ids {
            events: outcome(&mut registry, "spms_events_total"),
            arrivals: outcome(&mut registry, "spms_arrivals_total"),
            departures: outcome(&mut registry, "spms_departures_total"),
            unknown_departures: outcome(&mut registry, "spms_unknown_departures_total"),
            admitted: outcome(&mut registry, "spms_admitted_total"),
            admitted_by_path: STAGES.map(|stage| {
                registry.counter(
                    &format!("spms_admitted_{}_total", stage_name(stage)),
                    MetricClass::Outcome,
                )
            }),
            rejected: outcome(&mut registry, "spms_rejected_total"),
            rejected_duplicate: outcome(&mut registry, "spms_rejected_duplicate_total"),
            rejected_overload: outcome(&mut registry, "spms_rejected_overload_total"),
            rejected_overhead: outcome(&mut registry, "spms_rejected_overhead_total"),
            rejected_no_placement: outcome(&mut registry, "spms_rejected_no_placement_total"),
            migrations: outcome(&mut registry, "spms_migrations_total"),
            inflation_ns: outcome(&mut registry, "spms_inflation_charged_ns_total"),
            lease_expirations: outcome(&mut registry, "spms_lease_expirations_total"),
            stage_attempts: STAGES.map(|stage| {
                registry.counter(
                    &format!("spms_mech_stage_{}_attempts_total", stage_name(stage)),
                    MetricClass::Mechanism,
                )
            }),
            stage_successes: STAGES.map(|stage| {
                registry.counter(
                    &format!("spms_mech_stage_{}_successes_total", stage_name(stage)),
                    MetricClass::Mechanism,
                )
            }),
            hot: HOT_COUNTERS
                .map(|counter| registry.counter(counter.metric_name(), MetricClass::Mechanism)),
            overflow_admissions: mech(&mut registry, "spms_mech_overflow_admissions_total"),
            cross_shard_attempts: mech(&mut registry, "spms_mech_cross_shard_attempts_total"),
            cross_shard_admissions: mech(&mut registry, "spms_mech_cross_shard_admissions_total"),
            cross_shard_aborts: mech(&mut registry, "spms_mech_cross_shard_aborts_total"),
            cross_shard_pieces: mech(&mut registry, "spms_mech_cross_shard_pieces_total"),
            rebalance_ticks: mech(&mut registry, "spms_mech_rebalance_ticks_total"),
            rebalance_moves: mech(&mut registry, "spms_mech_rebalance_moves_total"),
            rebalance_last_moves: registry
                .gauge("spms_mech_rebalance_last_moves", MetricClass::Mechanism),
            fault_injections: mech(&mut registry, "spms_mech_fault_injections_total"),
            fault_crashes: mech(&mut registry, "spms_mech_fault_crashes_total"),
            fault_stalls: mech(&mut registry, "spms_mech_fault_stalls_total"),
            fault_corruptions: mech(&mut registry, "spms_mech_fault_corruptions_total"),
            fault_cost_spikes: mech(&mut registry, "spms_mech_fault_cost_spikes_total"),
            fault_drained: mech(&mut registry, "spms_mech_fault_drained_total"),
            fault_recoveries: mech(&mut registry, "spms_mech_fault_recoveries_total"),
            fault_evictions: mech(&mut registry, "spms_mech_fault_evictions_total"),
            fault_rejoins: mech(&mut registry, "spms_mech_fault_rejoins_total"),
            audit_checks: mech(&mut registry, "spms_mech_audit_checks_total"),
            audit_violations: mech(&mut registry, "spms_mech_audit_violations_total"),
            audit_repairs: mech(&mut registry, "spms_mech_audit_repairs_total"),
            decision_latency: registry.histogram(DECISION_LATENCY, MetricClass::Timing),
            stage_latency: STAGES.map(|stage| {
                registry.histogram(
                    &format!("spms_timing_stage_{}_ns", stage_name(stage)),
                    MetricClass::Timing,
                )
            }),
        };
        EngineMetrics {
            registry,
            ids,
            ring: TraceRing::new(ring_capacity),
            open_spans: Vec::new(),
            rebalance_history: VecDeque::new(),
        }
    }

    /// The engine's registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The per-decision stage-trace ring.
    pub fn traces(&self) -> &TraceRing {
        &self.ring
    }

    /// The retained rebalance ticks, oldest first.
    pub fn rebalance_history(&self) -> impl Iterator<Item = &RebalanceTick> {
        self.rebalance_history.iter()
    }

    /// The decision latency histogram (timing section).
    pub fn decision_latency(&self) -> &Histogram {
        self.registry.histogram_ref(self.ids.decision_latency)
    }

    /// Renders a filtered snapshot of the registry.
    pub fn snapshot(&self, filter: SnapshotFilter) -> spms_telemetry::Snapshot {
        self.registry.snapshot(filter)
    }

    // ------------------------------------------------------------------
    // cascade-stage recording (controller)
    // ------------------------------------------------------------------

    /// Records one cascade-stage attempt: attempt/success counters, the
    /// stage latency histogram, and a span in the open decision's trace.
    pub fn record_stage(&mut self, stage: DecisionPath, success: bool, nanos: u64) {
        let i = stage_index(stage);
        self.registry.inc(self.ids.stage_attempts[i]);
        if success {
            self.registry.inc(self.ids.stage_successes[i]);
        }
        self.registry.record(self.ids.stage_latency[i], nanos);
        self.open_spans.push(StageSpan {
            stage: stage_name(stage),
            outcome: if success {
                SpanOutcome::Success
            } else {
                SpanOutcome::Failure
            },
            nanos,
        });
    }

    /// Finishes the open decision: folds the thread-local hot-counter
    /// `deltas` into the mechanism section, records the outcome counters
    /// and latency, and moves the collected stage spans into the trace
    /// ring under the decision's label.
    pub fn finish_decision(
        &mut self,
        task: u64,
        kind: &DecisionKind,
        nanos: u64,
        deltas: &HotDeltas,
    ) {
        self.fold_hot(deltas);
        self.record_outcome(kind);
        self.registry.record(self.ids.decision_latency, nanos);
        let spans = std::mem::take(&mut self.open_spans);
        self.ring.record(task, decision_label(kind), spans);
    }

    /// Records the outcome counters of one final decision (no trace, no
    /// latency) — the service-side entry point for decisions whose
    /// cascade ran inside a shard.
    pub fn record_outcome(&mut self, kind: &DecisionKind) {
        self.registry.inc(self.ids.events);
        match kind {
            DecisionKind::Admitted {
                path,
                migrations,
                inflation,
            } => {
                self.registry.inc(self.ids.arrivals);
                self.registry.inc(self.ids.admitted);
                self.registry
                    .inc(self.ids.admitted_by_path[stage_index(*path)]);
                self.registry.add(self.ids.migrations, *migrations as u64);
                self.registry
                    .add(self.ids.inflation_ns, inflation.as_nanos());
            }
            DecisionKind::Rejected { reason } => {
                self.registry.inc(self.ids.arrivals);
                self.registry.inc(self.ids.rejected);
                let id = match reason {
                    RejectionReason::DuplicateTask => self.ids.rejected_duplicate,
                    RejectionReason::PlatformOverloaded => self.ids.rejected_overload,
                    RejectionReason::OverheadUnabsorbable => self.ids.rejected_overhead,
                    RejectionReason::NoFeasiblePlacement => self.ids.rejected_no_placement,
                };
                self.registry.inc(id);
            }
            DecisionKind::Departed => {
                self.registry.inc(self.ids.departures);
            }
            DecisionKind::DepartUnknown => {
                self.registry.inc(self.ids.unknown_departures);
            }
            // Lease renewals are event-loop bookkeeping; no dedicated
            // outcome counter so the outcome section's name set stays
            // exactly what it was before leases existed.
            DecisionKind::RenewNoted => {}
            // Failover evictions follow the RenewNoted precedent: the
            // outcome name set stays byte-identical to fault-free runs,
            // and the eviction count lives on the mechanism side
            // (`spms_mech_fault_evictions_total`).
            DecisionKind::EvictedOnFailure => {}
        }
    }

    // ------------------------------------------------------------------
    // service-side recording
    // ------------------------------------------------------------------

    /// Counts an admission that landed off its home shard.
    pub fn record_overflow_admission(&mut self) {
        self.registry.inc(self.ids.overflow_admissions);
    }

    /// Counts one cross-shard planning attempt (the service's planner ran,
    /// whatever the outcome).
    pub fn record_cross_shard_attempt(&mut self) {
        self.registry.inc(self.ids.cross_shard_attempts);
    }

    /// Counts one committed cross-shard split and the `pieces` it placed
    /// across shards.
    pub fn record_cross_shard_admission(&mut self, pieces: u64) {
        self.registry.inc(self.ids.cross_shard_admissions);
        self.registry.add(self.ids.cross_shard_pieces, pieces);
    }

    /// Counts one aborted cross-shard plan (some participant refused its
    /// piece; every shard was rewound).
    pub fn record_cross_shard_abort(&mut self) {
        self.registry.inc(self.ids.cross_shard_aborts);
    }

    /// Records one rebalance tick (no-op ticks included): bumps the tick
    /// counter, adds `moves` to the move counter, sets the last-moves
    /// gauge, and appends to the bounded per-tick history. Returns the
    /// tick's sequence number.
    pub fn record_rebalance_tick(&mut self, moves: u64) -> u64 {
        let seq = self.registry.counter_value(self.ids.rebalance_ticks);
        self.registry.inc(self.ids.rebalance_ticks);
        self.registry.add(self.ids.rebalance_moves, moves);
        self.registry
            .set_gauge(self.ids.rebalance_last_moves, moves);
        if self.rebalance_history.len() == REBALANCE_HISTORY_CAPACITY {
            self.rebalance_history.pop_front();
        }
        self.rebalance_history
            .push_back(RebalanceTick { seq, moves });
        seq
    }

    /// Folds a thread-local hot-counter delta into the mechanism section
    /// — for work done outside a decision (e.g. the rebalancer's
    /// cross-shard planning probes). `HotDeltas::iter` yields in the same
    /// index order the `hot` ids were registered in.
    pub fn fold_hot(&mut self, deltas: &HotDeltas) {
        for (i, (_, delta)) in deltas.iter().enumerate() {
            if delta > 0 {
                self.registry.add(self.ids.hot[i], delta);
            }
        }
    }

    /// Counts a lease-expiry departure synthesized by the event loop.
    pub fn record_lease_expiration(&mut self) {
        self.registry.inc(self.ids.lease_expirations);
    }

    // ------------------------------------------------------------------
    // fault injection, failover, self-audit
    // ------------------------------------------------------------------

    /// Counts one injected fault by its
    /// [`FaultKind::label`](spms_faults::FaultKind::label); unknown labels
    /// still count as injections.
    pub fn record_fault_injection(&mut self, label: &str) {
        self.registry.inc(self.ids.fault_injections);
        let per_kind = match label {
            "shard_crash" => Some(self.ids.fault_crashes),
            "shard_stall" => Some(self.ids.fault_stalls),
            "cache_corruption" => Some(self.ids.fault_corruptions),
            "cost_spike" => Some(self.ids.fault_cost_spikes),
            _ => None,
        };
        if let Some(id) = per_kind {
            self.registry.inc(id);
        }
    }

    /// Counts the tasks drained off a crashed shard.
    pub fn record_fault_drained(&mut self, tasks: u64) {
        self.registry.add(self.ids.fault_drained, tasks);
    }

    /// Counts one drained task re-admitted onto a surviving shard.
    pub fn record_fault_recovery(&mut self) {
        self.registry.inc(self.ids.fault_recoveries);
    }

    /// Counts one drained task no survivor could take
    /// ([`DecisionKind::EvictedOnFailure`]).
    pub fn record_fault_eviction(&mut self) {
        self.registry.inc(self.ids.fault_evictions);
    }

    /// Counts one crashed shard rejoining the placement rotation.
    pub fn record_fault_rejoin(&mut self) {
        self.registry.inc(self.ids.fault_rejoins);
    }

    /// Counts one self-audit pass over a core's cached analysis. A
    /// `repaired` audit found a divergent memo (counted as a violation)
    /// and rebuilt it from scratch (counted as a repair) — so
    /// `violations - repairs` is the unrepaired backlog, which must stay
    /// zero.
    pub fn record_audit_check(&mut self, repaired: bool) {
        self.registry.inc(self.ids.audit_checks);
        if repaired {
            self.registry.inc(self.ids.audit_violations);
            self.registry.inc(self.ids.audit_repairs);
        }
    }
}

impl Default for EngineMetrics {
    fn default() -> Self {
        EngineMetrics::new(DEFAULT_TRACE_RING_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_task::Time;

    #[test]
    fn outcome_counters_follow_final_decisions() {
        let mut m = EngineMetrics::new(8);
        m.record_outcome(&DecisionKind::Admitted {
            path: DecisionPath::FastSplit,
            migrations: 2,
            inflation: Time::from_nanos(50),
        });
        m.record_outcome(&DecisionKind::Rejected {
            reason: RejectionReason::PlatformOverloaded,
        });
        m.record_outcome(&DecisionKind::Departed);
        let r = m.registry();
        assert_eq!(r.counter_by_name("spms_events_total"), Some(3));
        assert_eq!(r.counter_by_name("spms_arrivals_total"), Some(2));
        assert_eq!(r.counter_by_name("spms_admitted_total"), Some(1));
        assert_eq!(r.counter_by_name("spms_admitted_fast_split_total"), Some(1));
        assert_eq!(r.counter_by_name("spms_rejected_overload_total"), Some(1));
        assert_eq!(r.counter_by_name("spms_migrations_total"), Some(2));
        assert_eq!(
            r.counter_by_name("spms_inflation_charged_ns_total"),
            Some(50)
        );
        assert_eq!(r.counter_by_name("spms_departures_total"), Some(1));
    }

    #[test]
    fn stages_count_attempts_successes_and_trace_spans() {
        let mut m = EngineMetrics::new(8);
        m.record_stage(DecisionPath::FastWhole, false, 10);
        m.record_stage(DecisionPath::FastSplit, true, 20);
        let kind = DecisionKind::Admitted {
            path: DecisionPath::FastSplit,
            migrations: 0,
            inflation: Time::ZERO,
        };
        m.finish_decision(7, &kind, 35, &HotDeltas::default());
        let r = m.registry();
        assert_eq!(
            r.counter_by_name("spms_mech_stage_fast_whole_attempts_total"),
            Some(1)
        );
        assert_eq!(
            r.counter_by_name("spms_mech_stage_fast_whole_successes_total"),
            Some(0)
        );
        assert_eq!(
            r.counter_by_name("spms_mech_stage_fast_split_successes_total"),
            Some(1)
        );
        assert_eq!(m.decision_latency().count(), 1);
        let trace = m.traces().iter().next().unwrap();
        assert_eq!(trace.task, 7);
        assert_eq!(trace.label, "admitted_fast_split");
        assert_eq!(trace.spans.len(), 2);
        // The span scratch drained into the ring.
        assert!(m.open_spans.is_empty());
    }

    #[test]
    fn rebalance_ticks_distinguish_noop_from_productive() {
        let mut m = EngineMetrics::new(0);
        m.record_rebalance_tick(0);
        m.record_rebalance_tick(3);
        let r = m.registry();
        assert_eq!(
            r.counter_by_name("spms_mech_rebalance_ticks_total"),
            Some(2)
        );
        assert_eq!(
            r.counter_by_name("spms_mech_rebalance_moves_total"),
            Some(3)
        );
        assert_eq!(r.gauge_by_name("spms_mech_rebalance_last_moves"), Some(3));
        let history: Vec<_> = m.rebalance_history().copied().collect();
        assert_eq!(
            history,
            vec![
                RebalanceTick { seq: 0, moves: 0 },
                RebalanceTick { seq: 1, moves: 3 }
            ]
        );
    }

    #[test]
    fn rebalance_history_is_bounded() {
        let mut m = EngineMetrics::new(0);
        for tick in 0..(REBALANCE_HISTORY_CAPACITY as u64 + 10) {
            m.record_rebalance_tick(tick % 2);
        }
        assert_eq!(m.rebalance_history().count(), REBALANCE_HISTORY_CAPACITY);
        assert_eq!(m.rebalance_history().next().unwrap().seq, 10);
    }
}
