//! The benchmark's workloads and the set-up every pass shares.
//!
//! Every workload runs the production configuration through the stable
//! entry points only: `OnlineConfig::builder`, `ShardedAdmission::new`
//! and `EventLoop`. It sets no mechanism toggle, so removing a
//! superseded toggle never requires editing the benchmark.

use std::time::Instant;

use spms_online::{
    inject_renewals, ChurnFamily, ChurnGenerator, EventLoop, EventLoopConfig, OnlineConfig,
    ShardedAdmission, TimedEvent,
};
use spms_overhead::CostModelSpec;
use spms_task::Time;

/// Platform size shared by every workload.
pub const CORES: usize = 8;
/// Bounded-repair budget (already-placed tasks relocated per admission).
pub const REPAIR_BOUND: usize = 2;
/// Simulated time between work-stealing rebalance ticks.
pub const REBALANCE_PERIOD: Time = Time::from_millis(250);
/// Migration budget of one rebalance tick.
pub const REBALANCE_MOVES: usize = 4;
/// Simulated horizon of one schedulability replay.
pub const REPLAY_HORIZON: Time = Time::from_millis(50);

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    pub shards: usize,
    pub utilization: f64,
    pub family: ChurnFamily,
    pub cross_shard: bool,
    /// Admission lease; renewal heartbeats are injected at half of it.
    pub lease: Option<Time>,
    /// Churn events generated per trace (before renewals are injected).
    pub events: usize,
    /// Distinct traces per pass. Every pass replays the same traces, so a
    /// pass's deterministic figures are identical across passes.
    pub traces: usize,
    /// The traced pass replays every `replay_every`-th admission.
    pub replay_every: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    // ~99% fast-whole admissions: per-event overhead of the loop,
    // service, telemetry and RTA cache; repair nearly idle.
    Workload {
        name: "steady-fast",
        shards: 1,
        utilization: 0.6,
        family: ChurnFamily::Poisson,
        cross_shard: false,
        lease: None,
        events: 100_000,
        traces: 8,
        replay_every: 400,
    },
    // Rejected arrivals fall through every cascade stage: repair and
    // full repartition dominate the run.
    Workload {
        name: "saturated-repair",
        shards: 1,
        utilization: 0.85,
        family: ChurnFamily::Poisson,
        cross_shard: false,
        lease: None,
        events: 30_000,
        traces: 5,
        replay_every: 100,
    },
    // The service and loop layers the 1-shard workloads leave idle:
    // routing, overflow, cross-shard commits, rebalance moves, leases.
    Workload {
        name: "sharded-bursty-leased",
        shards: 4,
        utilization: 0.85,
        family: ChurnFamily::Bursty,
        cross_shard: true,
        lease: Some(Time::from_secs(1)),
        events: 100_000,
        traces: 4,
        replay_every: 200,
    },
];

/// A trace built and loaded into a fresh engine, ready to run.
pub struct Prepared {
    pub engine: ShardedAdmission,
    pub event_loop: EventLoop,
    pub config: OnlineConfig,
    /// Trace length after renewal injection.
    pub trace_events: usize,
    /// Wall seconds of trace generation (and renewal injection).
    pub generate_s: f64,
    /// Wall seconds of the whole set-up: generation, engine, loading.
    pub setup_s: f64,
}

impl Workload {
    /// Seed of the `index`-th trace of a run seeded `seed` (SplitMix64, so
    /// neighbouring run seeds give unrelated traces).
    pub fn trace_seed(&self, seed: u64, index: usize) -> u64 {
        let mut z = seed
            .wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Generates the trace seeded `trace_seed` and loads it into a fresh
    /// service and event loop, timing each step.
    pub fn prepare(&self, trace_seed: u64) -> Prepared {
        let started = Instant::now();
        let mut trace: Vec<TimedEvent> = ChurnGenerator::new()
            .cores(CORES)
            .target_normalized_utilization(self.utilization)
            .events(self.events)
            .family(self.family)
            .seed(trace_seed)
            .generate_timed()
            .expect("the fixed workload parameters are a valid generator configuration");
        if let Some(lease) = self.lease {
            trace = inject_renewals(&trace, Time::from_nanos(lease.as_nanos() / 2));
        }
        let generate_s = started.elapsed().as_secs_f64();
        let config = OnlineConfig::builder()
            .cores(CORES)
            .max_repair_moves(REPAIR_BOUND)
            .cost_model(CostModelSpec::Zero)
            .cross_shard_split(self.cross_shard)
            .build();
        let engine = ShardedAdmission::new(config.clone(), self.shards)
            .expect("the shard count divides the fixed core count");
        let mut event_loop = EventLoop::new(
            EventLoopConfig::new(trace_seed)
                .with_lease(self.lease)
                .with_rebalance_period(Some(REBALANCE_PERIOD))
                .with_rebalance_max_moves(REBALANCE_MOVES),
        );
        event_loop.load_trace(&trace);
        Prepared {
            engine,
            event_loop,
            config,
            trace_events: trace.len(),
            generate_s,
            setup_s: started.elapsed().as_secs_f64(),
        }
    }
}
