//! Decision-log digests of the production configuration.
//!
//! `OnlineConfig::builder().cores(8).build()` — the defaults every CLI
//! path and benchmark starts from — is driven through `EventLoop` →
//! `ShardedAdmission` on two seeded churn traces:
//!
//! * **1 shard, Poisson churn** — the plain cascade behind the service;
//! * **4 shards, bursty churn** — with the cross-shard split planner, a
//!   1 s lease kept alive by renewals, and rebalance ticks;
//! * **1 shard, saturated Poisson churn** — normalized utilization 0.85
//!   over 30k events, once at the default repair bound (`k = 2`) and once
//!   at `k = 3`. These are the runs where bounded repair fails often and
//!   every cascade stage, rejection included, is reached many times.
//!
//! Each run's decision log is folded into an order-sensitive FNV-1a digest
//! (one JSON line per decision) and compared against a pinned constant.
//! The constants are the contract of any refactor of the admission stack:
//! a change that alters one production decision, anywhere in either
//! trace, changes a digest.
//!
//! The same two runs also pin two properties of the service: the merged
//! registry holds exactly one `spms_timing_decision_latency_ns` sample per
//! service decision, and the sharded run never clones a partition.

use spms_core::Partition;
use spms_online::{
    inject_renewals, ChurnFamily, ChurnGenerator, EventLoop, EventLoopConfig, OnlineConfig,
    ShardedAdmission,
};
use spms_task::Time;

const CORES: usize = 8;

/// FNV-1a over the decision log, one JSON line per decision.
fn decision_digest(engine: &ShardedAdmission) -> u64 {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for decision in engine.decisions() {
        let line = serde_json::to_string(decision).expect("decisions serialize");
        for byte in line.bytes().chain(std::iter::once(b'\n')) {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    digest
}

/// Trace shape of one pinned run.
struct Load {
    utilization: f64,
    events: usize,
}

/// The 1,500-event load of the first two pins.
const SHORT: Load = Load {
    utilization: 0.9,
    events: 1500,
};

/// The saturated load: long enough for repair to fail thousands of times.
const SATURATED: Load = Load {
    utilization: 0.85,
    events: 30_000,
};

fn run(
    config: OnlineConfig,
    shards: usize,
    family: ChurnFamily,
    lease: Option<Time>,
    seed: u64,
    load: Load,
) -> ShardedAdmission {
    let mut trace = ChurnGenerator::new()
        .cores(CORES)
        .target_normalized_utilization(load.utilization)
        .events(load.events)
        .family(family)
        .seed(seed)
        .generate_timed()
        .expect("valid churn configuration");
    if let Some(lease) = lease {
        trace = inject_renewals(&trace, Time::from_nanos(lease.as_nanos() / 2));
    }
    let mut engine = ShardedAdmission::new(config, shards).expect("valid shard count");
    let mut event_loop = EventLoop::new(
        EventLoopConfig::new(seed)
            .with_lease(lease)
            .with_rebalance_period(Some(Time::from_millis(250)))
            .with_rebalance_max_moves(4),
    );
    event_loop.load_trace(&trace);
    event_loop.run(&mut engine);
    engine
}

/// The 1-shard Poisson run.
fn one_shard() -> ShardedAdmission {
    run(
        OnlineConfig::builder().cores(CORES).build(),
        1,
        ChurnFamily::Poisson,
        None,
        2011,
        SHORT,
    )
}

/// The 4-shard bursty run with cross-shard splits, leases and renewals.
fn four_shards() -> ShardedAdmission {
    run(
        OnlineConfig::builder()
            .cores(CORES)
            .cross_shard_split(true)
            .build(),
        4,
        ChurnFamily::Bursty,
        Some(Time::from_secs(1)),
        2012,
        SHORT,
    )
}

/// The saturated 1-shard Poisson run at repair bound `k`.
fn saturated(k: usize) -> ShardedAdmission {
    run(
        OnlineConfig::builder()
            .cores(CORES)
            .max_repair_moves(k)
            .build(),
        1,
        ChurnFamily::Poisson,
        None,
        2013,
        SATURATED,
    )
}

/// Pins a saturated run's digest after checking it reaches repair, the
/// full-repartition fallback and rejection.
fn assert_saturated_digest(k: usize, pinned: u64) {
    let engine = saturated(k);
    let stats = engine.stats().decisions;
    assert!(
        stats.repairs > 0 && stats.full_repartitions > 0 && stats.rejected > 0,
        "the k = {k} trace must reach repair, repartition and rejection: {stats:?}"
    );
    assert_eq!(
        decision_digest(&engine),
        pinned,
        "saturated k = {k} decision log changed"
    );
}

#[test]
fn one_shard_poisson_digest_is_pinned() {
    let engine = one_shard();
    let stats = engine.stats().decisions;
    assert!(
        stats.fast_split > 0 && stats.repairs > 0,
        "the trace must reach the split and repair stages: {stats:?}"
    );
    assert_eq!(
        decision_digest(&engine),
        3239015717989385556,
        "1-shard decision log changed"
    );
}

#[test]
fn four_shard_bursty_leased_digest_is_pinned() {
    let engine = four_shards();
    let stats = engine.stats();
    assert!(
        stats.rebalance_ticks > 0 && stats.lease_expirations > 0,
        "the run must tick the rebalancer and expire leases: {stats:?}"
    );
    assert!(
        stats.cross_shard_admissions > 0 && stats.overflow_admissions > 0,
        "the run must split across shards and overflow: {stats:?}"
    );
    assert_eq!(
        decision_digest(&engine),
        9926976669222780618,
        "4-shard decision log changed"
    );
}

#[test]
fn saturated_default_bound_digest_is_pinned() {
    assert_saturated_digest(2, 12190413818739715447);
}

#[test]
fn saturated_deeper_bound_digest_is_pinned() {
    assert_saturated_digest(3, 13518847035111871556);
}

#[test]
fn merged_decision_latency_counts_each_service_decision_once() {
    for engine in [one_shard(), four_shards()] {
        let merged = engine.merged_metrics_registry();
        let samples = |name: &str| merged.histogram_by_name(name).map_or(0, |h| h.count());
        assert_eq!(
            samples("spms_timing_decision_latency_ns"),
            engine.decisions().len() as u64,
            "{} shard(s)",
            engine.shard_count()
        );
        // The shards' own decide calls stay visible under their own name.
        assert!(samples("spms_timing_shard_decision_latency_ns") > 0);
    }
}

#[test]
fn sharded_run_never_clones_a_partition() {
    let before = Partition::clone_count();
    let engine = four_shards();
    assert_eq!(
        Partition::clone_count(),
        before,
        "the 4-shard run cloned a partition"
    );
    let stats = engine.stats();
    assert!(
        stats.rebalance_moves > 0 && stats.cross_shard_admissions > 0,
        "the run must move tasks between shards and split across them: {stats:?}"
    );
}
