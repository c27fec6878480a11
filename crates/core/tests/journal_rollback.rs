//! Property-based contract of the [`Partition`] mutation journal.
//!
//! The journal's promise is that `rewind(mark)` restores the partition —
//! placements, priorities *and* the attached [`CachedCoreAnalysis`] state —
//! bit-identically to a snapshot clone taken at the mark, after any
//! sequence of `place` / `remove_parent` / `renormalize_core_priorities`
//! mutations, including nested marks. These tests drive random mutation
//! sequences against a journaled, cache-carrying partition and compare the
//! rewound state against a clone field by field (the cache comparison goes
//! through `cached_core`, which only answers on converged state, so
//! staleness markers are covered too).
//!
//! The vendored proptest runner is deterministically seeded, so failures
//! reproduce identically.

use proptest::collection::vec;
use proptest::prelude::*;
use spms_core::{CoreId, Partition, PlacedTask, PlanTxn};
use spms_task::{Task, Time};

/// A compact task spec: `(wcet_us, extra_period_us)`; periods are
/// `wcet + extra + 1` so tasks are always constructible.
type Spec = (u64, u64);

fn build_task(id: u32, spec: Spec) -> Task {
    let (wcet, extra) = spec;
    let wcet = wcet.max(1);
    Task::new(
        id,
        Time::from_micros(wcet),
        Time::from_micros(wcet + extra + 1),
    )
    .expect("constructible by construction")
}

#[derive(Debug, Clone)]
enum Op {
    /// Place a fresh whole task on core `core % cores` and renormalize
    /// (the shape of every fast-path commit).
    Place(usize, Spec),
    /// Remove the parent at `index % placed-parents` (departure shape:
    /// removal renormalizes internally).
    Remove(usize),
    /// Renormalize core `core % cores` on its own.
    Renormalize(usize),
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..8, 0usize..64, (1u64..40, 0u64..120)).prop_map(|(kind, index, spec)| match kind {
        0..=4 => Op::Place(index, spec),
        5 | 6 => Op::Remove(index),
        _ => Op::Renormalize(index),
    })
}

fn apply(partition: &mut Partition, op: &Op, next_id: &mut u32) {
    let cores = partition.core_count();
    match op {
        Op::Place(core, spec) => {
            let core = CoreId(core % cores);
            partition.place(core, PlacedTask::whole(build_task(*next_id, *spec)));
            partition.renormalize_core_priorities(core);
            *next_id += 1;
        }
        Op::Remove(index) => {
            let parents = partition.parent_ids();
            if !parents.is_empty() {
                partition.remove_parent(parents[index % parents.len()]);
            }
        }
        Op::Renormalize(core) => {
            partition.renormalize_core_priorities(CoreId(core % cores));
        }
    }
}

/// Placement + cache equality: `PartialEq` covers the mapping, and
/// `cached_core` (which answers only on converged, non-stale slots) covers
/// the attached analysis state.
fn assert_fully_equal(a: &Partition, b: &Partition) {
    assert_eq!(a, b, "placements diverged after rewind");
    for core in 0..a.core_count() {
        assert_eq!(
            a.cached_core(CoreId(core)),
            b.cached_core(CoreId(core)),
            "cache state diverged on core {core}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Build a random partition, open a scope, mutate arbitrarily, rewind:
    /// the result is bit-identical to a pre-mutation snapshot clone —
    /// placements, priorities and attached cache.
    #[test]
    fn rewind_restores_the_pre_mutation_snapshot(
        cores in 1usize..5,
        prefix in vec(op(), 0..10),
        speculative in vec(op(), 1..16),
    ) {
        let mut partition = Partition::new(cores);
        partition.enable_analysis_cache();
        partition.enable_journal();
        let mut next_id = 0u32;
        for op in &prefix {
            apply(&mut partition, op, &mut next_id);
        }
        let snapshot = partition.clone();
        let mark = partition.journal_begin();
        for op in &speculative {
            apply(&mut partition, op, &mut next_id);
        }
        partition.rewind(mark);
        partition.journal_end();
        assert_fully_equal(&partition, &snapshot);
        prop_assert_eq!(partition.validate(), Ok(()));
    }

    /// Nested marks rewind LIFO: an inner rewind restores the inner
    /// snapshot without disturbing the outer scope, and the outer rewind
    /// still restores the outer snapshot afterwards.
    #[test]
    fn nested_marks_rewind_independently(
        cores in 1usize..4,
        prefix in vec(op(), 1..8),
        outer_ops in vec(op(), 1..8),
        inner_ops in vec(op(), 1..8),
    ) {
        let mut partition = Partition::new(cores);
        partition.enable_analysis_cache();
        partition.enable_journal();
        let mut next_id = 0u32;
        for op in &prefix {
            apply(&mut partition, op, &mut next_id);
        }
        let outer_snapshot = partition.clone();
        let outer = partition.journal_begin();
        for op in &outer_ops {
            apply(&mut partition, op, &mut next_id);
        }
        let inner_snapshot = partition.clone();
        let inner = partition.journal_mark();
        for op in &inner_ops {
            apply(&mut partition, op, &mut next_id);
        }
        partition.rewind(inner);
        assert_fully_equal(&partition, &inner_snapshot);
        partition.rewind(outer);
        partition.journal_end();
        assert_fully_equal(&partition, &outer_snapshot);
    }

    /// A rewound scope leaves no trace: committing different work after an
    /// abort produces the same partition as never having speculated.
    #[test]
    fn aborted_speculation_does_not_leak_into_later_commits(
        cores in 1usize..4,
        speculative in vec(op(), 1..10),
        committed in vec(op(), 1..10),
    ) {
        let build = |speculate: bool| {
            let mut partition = Partition::new(cores);
            partition.enable_analysis_cache();
            partition.enable_journal();
            let mut next_id = 0u32;
            if speculate {
                let mark = partition.journal_begin();
                let mut spec_id = next_id;
                for op in &speculative {
                    apply(&mut partition, op, &mut spec_id);
                }
                partition.rewind(mark);
                partition.journal_end();
            }
            for op in &committed {
                apply(&mut partition, op, &mut next_id);
            }
            partition
        };
        assert_fully_equal(&build(true), &build(false));
    }

    /// A multi-partition [`PlanTxn`] abort restores *every* participant —
    /// placements, priorities and RTA caches — bit-identically, whether a
    /// participant carried a journal before the transaction or had one
    /// attached by [`PlanTxn::begin`]. This is the two-phase contract the
    /// cross-shard split planner leans on.
    #[test]
    fn plan_txn_abort_restores_both_partitions(
        cores_a in 1usize..4,
        cores_b in 1usize..4,
        journal_b in any::<bool>(),
        prefix_a in vec(op(), 0..8),
        prefix_b in vec(op(), 0..8),
        spec_a in vec(op(), 1..10),
        spec_b in vec(op(), 1..10),
    ) {
        let mut next_id = 0u32;
        let mut build = |cores: usize, journal: bool, prefix: &[Op]| {
            let mut partition = Partition::new(cores);
            partition.enable_analysis_cache();
            if journal {
                partition.enable_journal();
            }
            for op in prefix {
                apply(&mut partition, op, &mut next_id);
            }
            partition
        };
        let mut a = build(cores_a, true, &prefix_a);
        let mut b = build(cores_b, journal_b, &prefix_b);
        let snapshot_a = a.clone();
        let snapshot_b = b.clone();

        let mut txn = PlanTxn::new();
        txn.begin(&mut a);
        txn.begin(&mut b);
        for op in &spec_a {
            apply(&mut a, op, &mut next_id);
        }
        for op in &spec_b {
            apply(&mut b, op, &mut next_id);
        }
        txn.abort(&mut [&mut a, &mut b]);

        assert_fully_equal(&a, &snapshot_a);
        assert_fully_equal(&b, &snapshot_b);
        prop_assert_eq!(a.validate(), Ok(()));
        prop_assert_eq!(b.validate(), Ok(()));
    }

    /// Committing a multi-partition transaction keeps the speculated work
    /// on every participant and leaves journaled participants ready for
    /// the next scope (a later single-partition abort still rewinds only
    /// its own scope).
    #[test]
    fn plan_txn_commit_keeps_both_and_later_scopes_stay_isolated(
        cores_a in 1usize..4,
        cores_b in 1usize..4,
        spec_a in vec(op(), 1..8),
        spec_b in vec(op(), 1..8),
        later in vec(op(), 1..8),
    ) {
        let mut next_id = 0u32;
        let mut a = Partition::new(cores_a);
        let mut b = Partition::new(cores_b);
        a.enable_analysis_cache();
        b.enable_analysis_cache();
        a.enable_journal();
        b.enable_journal();

        let mut txn = PlanTxn::new();
        txn.begin(&mut a);
        txn.begin(&mut b);
        for op in &spec_a {
            apply(&mut a, op, &mut next_id);
        }
        for op in &spec_b {
            apply(&mut b, op, &mut next_id);
        }
        txn.commit(&mut [&mut a, &mut b]);
        let committed_a = a.clone();

        // A later aborted scope on `a` alone must not disturb the
        // committed cross-partition work.
        let mut solo = PlanTxn::new();
        solo.begin(&mut a);
        for op in &later {
            apply(&mut a, op, &mut next_id);
        }
        solo.abort(std::slice::from_mut(&mut &mut a));
        assert_fully_equal(&a, &committed_a);
        prop_assert_eq!(a.validate(), Ok(()));
        prop_assert_eq!(b.validate(), Ok(()));
    }
}
