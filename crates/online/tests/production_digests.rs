//! Decision-log digests of the production configuration.
//!
//! `OnlineConfig::builder().cores(8).build()` — the defaults every CLI
//! path and benchmark starts from — is driven through `EventLoop` →
//! `ShardedAdmission` on two seeded churn traces:
//!
//! * **1 shard, Poisson churn** — the plain cascade behind the service;
//! * **4 shards, bursty churn** — with the cross-shard split planner, a
//!   1 s lease kept alive by renewals, and rebalance ticks.
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

fn run(
    config: OnlineConfig,
    shards: usize,
    family: ChurnFamily,
    lease: Option<Time>,
    seed: u64,
) -> ShardedAdmission {
    let mut trace = ChurnGenerator::new()
        .cores(CORES)
        .target_normalized_utilization(0.9)
        .events(1500)
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
    )
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
