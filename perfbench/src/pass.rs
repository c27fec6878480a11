//! One pass: every trace of a workload, each set up afresh and run once
//! through `EventLoop::run_with`, with the correctness checks applied.
//!
//! Load is a closed loop on one thread: the pre-generated trace is
//! replayed as fast as the loop takes it. A decision's service time is
//! the wall-clock gap between consecutive observer callbacks, so it
//! includes the heap work, ticks and renewals handled before it.

use std::time::Instant;

use spms_core::{stitch_partitions, Partition};
use spms_online::replay::{replay_epoch, ReplayConfig, ReplayOutcome};
use spms_online::{Decision, DecisionKind, DecisionPath};
use spms_telemetry::{Registry, SnapshotFilter};

use crate::stats::{fnv1a, status_kib};
use crate::workload::{Workload, REPLAY_HORIZON};

/// Outcome classes of an observed decision.
pub const CLASSES: [&str; 8] = [
    "fast_whole",
    "fast_split",
    "repair",
    "full_repartition",
    "cross_shard_split",
    "rejected",
    "departed",
    "depart_unknown",
];

/// Index into [`CLASSES`], or `None` for a kind the event loop must never
/// hand to the observer (renewals are loop bookkeeping, evictions need a
/// fault plan and none is loaded).
fn class_of(kind: &DecisionKind) -> Option<usize> {
    match kind {
        DecisionKind::Admitted { path, .. } => Some(match path {
            DecisionPath::FastWhole => 0,
            DecisionPath::FastSplit => 1,
            DecisionPath::Repair => 2,
            DecisionPath::FullRepartition => 3,
            DecisionPath::CrossShardSplit => 4,
        }),
        DecisionKind::Rejected { .. } => Some(5),
        DecisionKind::Departed => Some(6),
        DecisionKind::DepartUnknown => Some(7),
        DecisionKind::RenewNoted | DecisionKind::EvictedOnFailure => None,
    }
}

/// What the traced pass records on top of an untraced one.
#[derive(Default)]
pub struct Layers {
    pub generate_s: f64,
    pub trace_events: u64,
    /// Per-decision gaps, split by outcome class.
    pub class_gaps_ns: [Vec<u64>; 8],
    /// Every trace's merged service registry, merged again across traces.
    pub registry: Registry,
    pub renewals: u64,
    /// Registry merge, snapshot and Prometheus render.
    pub export_s: f64,
    pub replay: ReplayOutcome,
    pub replay_s: f64,
}

/// The figures of one pass, summed over its traces.
#[derive(Default)]
pub struct Pass {
    pub setup_s: f64,
    /// Wall seconds inside `run_with`, replays excluded.
    pub run_s: f64,
    /// Per trace, in trace order.
    pub traces: Vec<TraceRun>,
    pub decisions: u64,
    pub arrivals: u64,
    pub admitted: u64,
    pub migrations: u64,
    /// Peak RSS after the first trace's run minus RSS just before it.
    pub rss_growth_mb: f64,
    /// Decision-log digest per trace, in trace order.
    pub digests: Vec<u64>,
    /// One entry per failed correctness check.
    pub violations: Vec<String>,
    pub layers: Option<Layers>,
}

impl Pass {
    /// Decided workload events per wall second of the event loop.
    pub fn decisions_per_s(&self) -> f64 {
        self.decisions as f64 / self.run_s
    }
}

/// One trace's run within a pass.
pub struct TraceRun {
    /// Wall seconds inside `run_with`, replays excluded.
    pub run_s: f64,
    /// Service time of each decision, in decision order.
    pub gaps_ns: Vec<u64>,
}

/// Each trace's least disturbed repeat: the pass in which its event loop
/// finished fastest. Every repeat of a trace does identical work (the
/// digest check enforces it), so the difference between repeats is load
/// from elsewhere on the machine, which only ever slows a repeat down.
pub fn fastest_repeats(passes: &[Pass]) -> Vec<&TraceRun> {
    (0..passes[0].traces.len())
        .map(|i| {
            passes
                .iter()
                .map(|p| &p.traces[i])
                .min_by(|a, b| a.run_s.total_cmp(&b.run_s))
                .expect("a run makes at least one pass")
        })
        .collect()
}

/// Decided events per wall second of the event loop, over each trace's
/// fastest repeat.
pub fn decisions_per_s(passes: &[Pass]) -> f64 {
    let best = fastest_repeats(passes);
    let decisions: usize = best.iter().map(|t| t.gaps_ns.len()).sum();
    decisions as f64 / best.iter().map(|t| t.run_s).sum::<f64>()
}

/// Runs every trace of `workload` for the run seeded `seed`.
pub fn run_pass(workload: &Workload, seed: u64, traced: bool) -> Pass {
    let mut pass = Pass {
        layers: traced.then(Layers::default),
        ..Pass::default()
    };
    for index in 0..workload.traces {
        run_trace(
            workload,
            workload.trace_seed(seed, index),
            index == 0,
            &mut pass,
        );
    }
    pass
}

fn run_trace(workload: &Workload, trace_seed: u64, first: bool, pass: &mut Pass) {
    let prepared = workload.prepare(trace_seed);
    let mut engine = prepared.engine;
    let mut event_loop = prepared.event_loop;
    pass.setup_s += prepared.setup_s;

    // Pre-touch the sample buffer so its pages are resident before the
    // RSS baseline: the growth figure is the program's, not the
    // benchmark's. A run decides at most every churn event once plus one
    // lease-synthesized departure per arrival.
    let mut gaps: Vec<u64> = Vec::new();
    gaps.resize(2 * workload.events, u64::MAX);
    gaps.clear();
    let mut class_gaps: [Vec<u64>; 8] = Default::default();
    let mut replay = ReplayOutcome::default();
    let mut replay_ns = 0u64;
    let mut admissions = 0usize;
    let traced = pass.layers.is_some();
    let replay_every = workload.replay_every;
    let stitch = workload.shards > 1;
    let mut unexpected_kinds = 0u64;

    let rss_before = first.then(|| status_kib("VmRSS"));
    let started = Instant::now();
    let mut last = started;
    event_loop.run_with(&mut engine, |engine, decision: &Decision| {
        let now = Instant::now();
        let gap = (now - last).as_nanos() as u64;
        gaps.push(gap);
        last = now;
        if !traced {
            return;
        }
        match class_of(&decision.kind) {
            Some(class) => class_gaps[class].push(gap),
            None => unexpected_kinds += 1,
        }
        if !decision.is_admission() {
            return;
        }
        admissions += 1;
        if !admissions.is_multiple_of(replay_every) {
            return;
        }
        let config = ReplayConfig::new(REPLAY_HORIZON);
        if stitch {
            let parts: Vec<&Partition> = engine.shards().iter().map(|s| s.partition()).collect();
            replay.absorb(replay_epoch(&stitch_partitions(&parts), &config));
        } else {
            let shard = engine
                .resident_shard(decision.task)
                .expect("an admitted task is resident");
            replay.absorb(replay_epoch(engine.shards()[shard].partition(), &config));
        }
        // The replay is the benchmark's own work: restart the gap clock
        // after it so the next decision's service time excludes it.
        last = Instant::now();
        replay_ns += (last - now).as_nanos() as u64;
    });
    let run_s = started.elapsed().as_secs_f64() - replay_ns as f64 / 1e9;
    if let Some(before) = rss_before {
        let grown_kib = status_kib("VmHWM").saturating_sub(before);
        pass.rss_growth_mb = grown_kib as f64 / 1024.0;
    }

    let s = engine.stats().decisions;
    let decisions = engine.decisions().len() as u64;
    let mut check = |ok: bool, what: String| {
        if !ok {
            pass.violations
                .push(format!("trace {trace_seed:#x}: {what}"));
        }
    };
    check(
        gaps.len() as u64 == decisions,
        format!("{} observer calls for {decisions} decisions", gaps.len()),
    );
    check(
        s.arrivals == s.admitted + s.rejected,
        format!(
            "arrivals {} != admitted {} + rejected {}",
            s.arrivals, s.admitted, s.rejected
        ),
    );
    check(
        s.admitted == s.departures + engine.admitted_count() as u64,
        format!(
            "admitted {} != departed {} + resident {}",
            s.admitted,
            s.departures,
            engine.admitted_count()
        ),
    );
    check(
        decisions == s.arrivals + s.departures + s.unknown_departures,
        format!("{decisions} decisions do not match the event counters"),
    );
    check(
        unexpected_kinds == 0,
        format!("{unexpected_kinds} renewal or eviction decisions observed"),
    );
    let parts: Vec<&Partition> = engine.shards().iter().map(|s| s.partition()).collect();
    let stitched = stitch_partitions(&parts);
    check(
        stitched.validate().is_ok() && stitched.is_schedulable(prepared.config.test),
        "final partition fails scratch RTA".to_string(),
    );
    check(
        replay.deadline_misses == 0,
        format!("{} deadline misses in replays", replay.deadline_misses),
    );

    pass.run_s += run_s;
    pass.decisions += decisions;
    pass.arrivals += s.arrivals;
    pass.admitted += s.admitted;
    pass.migrations += s.migrations_caused;
    gaps.shrink_to_fit();
    pass.traces.push(TraceRun {
        run_s,
        gaps_ns: gaps,
    });
    pass.digests.push(fnv1a(
        serde_json::to_string(engine.decisions())
            .expect("decision logs always serialize")
            .as_bytes(),
    ));

    if let Some(layers) = &mut pass.layers {
        layers.generate_s += prepared.generate_s;
        layers.trace_events += prepared.trace_events as u64;
        for (all, these) in layers.class_gaps_ns.iter_mut().zip(class_gaps) {
            all.extend(these);
        }
        let export = Instant::now();
        let registry = engine.merged_metrics_registry();
        let text = registry.snapshot(SnapshotFilter::Full).render_prometheus();
        std::hint::black_box(text);
        layers.export_s += export.elapsed().as_secs_f64();
        layers.registry.merge(&registry);
        layers.renewals += event_loop.lease_renewals();
        layers.replay.absorb(replay);
        layers.replay_s += replay_ns as f64 / 1e9;
    }
}
