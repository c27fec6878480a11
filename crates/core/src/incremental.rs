//! Incremental placement: admitting one task into an existing partition.
//!
//! The offline algorithms in this crate ([`SemiPartitionedFpTs`],
//! [`PartitionedFixedPriority`]) assume the whole task set is known up
//! front. Online admission control (the `spms-online` crate) instead grows
//! and shrinks a live [`Partition`] one task at a time, and needs two
//! primitives this module provides:
//!
//! * [`IncrementalPlacer::plan_whole`] — first-fit placement of a single
//!   task, validated by the same per-core acceptance test the offline
//!   algorithms use;
//! * [`IncrementalPlacer::plan_split`] — FP-TS-style splitting of a single
//!   task across the residual capacity of several cores (bodies are carved
//!   with the same promoted-priority, `C = D` scheme as
//!   [`SemiPartitionedFpTs`], so the resulting pieces are analysable with
//!   the standard constrained-deadline RTA).
//!
//! Planning is separated from committing so that callers can evaluate
//! tentative placements (the bounded-repair search of the online controller
//! moves tasks speculatively and rolls back). All plans are deterministic:
//! cores are scanned in index order for whole placements, and bodies are
//! carved on the core with the most residual utilization (ties broken by
//! index).
//!
//! Priority discipline: within each core, promoted body subtasks sit at
//! [`BODY_PRIORITY`](crate::BODY_PRIORITY), promoted tails at
//! [`TAIL_PRIORITY`](crate::TAIL_PRIORITY), and tasks assigned whole receive
//! dense deadline-monotonic levels from
//! [`WHOLE_PRIORITY_BASE`](crate::WHOLE_PRIORITY_BASE) upward, recomputed by
//! [`Partition::renormalize_core_priorities`] after every mutation. At most
//! one body and one tail may live on a core: the per-core RTA counts
//! same-level tasks as mutually interfering, so stacking promoted pieces on
//! one level would charge each the other's full budget and void the
//! guarantee that a body completes within its own budget.
//!
//! # Capacity gates
//!
//! Every acceptance test in the workspace rejects a core whose utilization
//! exceeds 1 (Liu & Layland; for the exact RTA with `D ≤ T`, the lowest
//! task `ℓ` sees every other task, so a fixed point `R ≤ D_ℓ ≤ T_ℓ` of
//! `R = C_ℓ + Σ ⌈R/T_j⌉·C_j ≥ C_ℓ + R·(U − U_ℓ)` forces `U ≤ 1`). The
//! placer uses that fact to answer two questions without running the test,
//! with exactly the verdict the test would give:
//!
//! * a placement probe whose core utilization plus the candidate's exceeds
//!   `1 + 1e-9` rejects at once (whole probes, tail probes, and every step
//!   of an uncached body-budget search; the cached search decides by the
//!   exact frontier and counts such steps the same way);
//! * a split plan is refused at entry when no tail-eligible core could
//!   host the tail even if every other body-eligible core were carved to
//!   its capacity (see [`IncrementalPlacer::plan_split_charged`]).
//!
//! Both count as [`HotCounter::CapacityRejects`] /
//! [`HotCounter::SplitEntryRejects`]; gated probes still count as whole or
//! split probes. Debug builds re-check every gated verdict against the
//! ungated path.
//!
//! [`SemiPartitionedFpTs`]: crate::SemiPartitionedFpTs
//! [`PartitionedFixedPriority`]: crate::PartitionedFixedPriority

use serde::{Deserialize, Serialize};
use spms_analysis::{rta, OverheadModel, UniprocessorTest};
use spms_task::{Task, TaskId, Time};
use spms_telemetry::{scoped, HotCounter};

use crate::{CoreId, Partition, PlacedTask, SplitInfo, SubtaskKind};

/// Slack on the capacity bound, so floating-point rounding of utilization
/// sums can never reject a core the acceptance test would admit.
pub const CAPACITY_SLACK: f64 = 1e-9;

/// How an incrementally admitted task ended up in the partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlacementPlan {
    /// The task fits whole on one core.
    Whole {
        /// The accepting core.
        core: CoreId,
        /// The analysis task (WCET inflated by the overhead model; priority
        /// assigned on commit by the per-core renormalization).
        analysis_task: Task,
    },
    /// The task was split across two or more cores, FP-TS style.
    Split {
        /// The placements in chain order (bodies first, tail last), ready to
        /// insert into the partition.
        pieces: Vec<(CoreId, PlacedTask)>,
    },
}

impl PlacementPlan {
    /// The cores this plan touches, in chain order.
    pub fn cores(&self) -> Vec<CoreId> {
        match self {
            PlacementPlan::Whole { core, .. } => vec![*core],
            PlacementPlan::Split { pieces } => pieces.iter().map(|(c, _)| *c).collect(),
        }
    }

    /// Whether the plan splits the task.
    pub fn is_split(&self) -> bool {
        matches!(self, PlacementPlan::Split { .. })
    }
}

/// Outcome of probing one core for a whole-task placement with blocker
/// localization ([`IncrementalPlacer::probe_whole`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WholeProbe {
    /// The core accepts the task whole.
    Accepted,
    /// The core rejects the task.
    Blocked {
        /// Under the exact RTA: the first task whose slack goes negative
        /// with the candidate added — the candidate's own id when its
        /// recurrence exceeds its deadline, otherwise the first existing
        /// task (in per-core priority order) that would miss its deadline.
        /// `None` when the test has no blocker notion (utilization bounds)
        /// or the task cannot absorb the overhead at all.
        blocker: Option<TaskId>,
    },
}

/// Places single tasks into an existing partition, whole-first-fit with an
/// FP-TS-style splitting fallback. See the [module docs](self) for the
/// placement and priority discipline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncrementalPlacer {
    /// Per-core acceptance test, applied to every candidate core with the
    /// new (sub)task included.
    pub test: UniprocessorTest,
    /// Run-time overheads folded into each placement's analysis WCET, using
    /// the same charging points as [`SemiPartitionedFpTs`](crate::SemiPartitionedFpTs).
    pub overhead: OverheadModel,
    /// Smallest body-subtask budget worth carving.
    pub min_split_budget: Time,
}

impl Default for IncrementalPlacer {
    fn default() -> Self {
        IncrementalPlacer {
            test: UniprocessorTest::ResponseTime,
            overhead: OverheadModel::zero(),
            min_split_budget: Time::from_micros(100),
        }
    }
}

impl IncrementalPlacer {
    /// A placer with exact RTA, no overhead, and the default 100 µs minimum
    /// split budget.
    pub fn new() -> Self {
        IncrementalPlacer::default()
    }

    /// Replaces the per-core acceptance test (builder style).
    pub fn with_test(mut self, test: UniprocessorTest) -> Self {
        self.test = test;
        self
    }

    /// Replaces the overhead model (builder style).
    pub fn with_overhead(mut self, overhead: OverheadModel) -> Self {
        self.overhead = overhead;
        self
    }

    /// Sets the smallest admissible body-subtask budget (builder style).
    pub fn with_min_split_budget(mut self, budget: Time) -> Self {
        self.min_split_budget = budget;
        self
    }

    /// The analysis task of a whole placement: WCET inflated by the
    /// whole-job overhead. `None` when the task cannot absorb the overhead
    /// within its deadline (such a task is unschedulable under this model on
    /// any core).
    pub fn whole_analysis_task(&self, task: &Task) -> Option<Task> {
        self.whole_analysis_task_charged(task, Time::ZERO)
    }

    /// [`whole_analysis_task`](Self::whole_analysis_task) with an additional
    /// per-migration `charge` folded into the WCET — the form used when the
    /// task is being *relocated* (repair move, rebalance) rather than placed
    /// fresh, so the placement must stay schedulable after absorbing the
    /// cache-reload and context-switch cost of the move.
    pub fn whole_analysis_task_charged(&self, task: &Task, charge: Time) -> Option<Task> {
        task.with_wcet(task.wcet() + self.overhead.whole_job_inflation() + charge)
            .ok()
    }

    /// Plans a whole-task placement: the first core (in index order, skipping
    /// `exclude`) whose assignment still passes the acceptance test with the
    /// task added. Does not modify the partition.
    pub fn plan_whole(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
    ) -> Option<PlacementPlan> {
        self.plan_whole_charged(partition, task, exclude, Time::ZERO)
    }

    /// [`plan_whole`](Self::plan_whole) with a per-migration `charge`
    /// inflating the analysis WCET (see
    /// [`whole_analysis_task_charged`](Self::whole_analysis_task_charged)).
    /// A zero charge is bit-identical to the uncharged plan.
    pub fn plan_whole_charged(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
        charge: Time,
    ) -> Option<PlacementPlan> {
        let analysis_task = self.whole_analysis_task_charged(task, charge)?;
        let core = (0..partition.core_count()).map(CoreId).find(|c| {
            !exclude.contains(c) && self.core_accepts(partition, *c, &analysis_task, false)
        })?;
        Some(PlacementPlan::Whole {
            core,
            analysis_task,
        })
    }

    /// Plans an FP-TS-style split of a single task across the residual
    /// capacity of the partition: body pieces are carved on the cores with
    /// the most residual utilization (largest budget the acceptance test
    /// still admits, found by binary search), and the tail lands on the
    /// first core that accepts what remains. Does not modify the partition.
    ///
    /// Returns `None` when no split placement exists under the constraints
    /// (one body and one tail per core at most, every piece on a distinct
    /// core, bodies no smaller than
    /// [`min_split_budget`](Self::min_split_budget)).
    pub fn plan_split(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
    ) -> Option<PlacementPlan> {
        self.plan_split_charged(partition, task, exclude, Time::ZERO)
    }

    /// [`plan_split`](Self::plan_split) with a per-migration `charge`: every
    /// piece after the first — each one reached by an intra-job migration
    /// along the chain — must absorb the charge on top of its split
    /// overhead, since the job pays the cache-reload and context-switch
    /// cost on every hop, every period. A zero charge is bit-identical to
    /// the uncharged plan.
    ///
    /// Before carving anything, an exact capacity gate refuses plans that
    /// cannot exist: the tail carries at least the task's WCET minus what
    /// every other body-eligible core could absorb at full capacity
    /// (`max(0, spare·T − smallest piece overhead)`), so when that tail
    /// overloads every tail-eligible core, no split exists.
    pub fn plan_split_charged(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
        charge: Time,
    ) -> Option<PlacementPlan> {
        if self.tail_fits_nowhere(partition, task, exclude, charge) {
            scoped::bump(HotCounter::SplitEntryRejects);
            debug_assert!(
                scoped::uncounted(|| self.carve_split(partition, task, exclude, charge)).is_none(),
                "split-entry gate refused a feasible split of task {}",
                task.id()
            );
            return None;
        }
        self.carve_split(partition, task, exclude, charge)
    }

    /// The split-entry gate of
    /// [`plan_split_charged`](Self::plan_split_charged): whether, for every
    /// core that may take a tail, the smallest tail any split could leave
    /// there pushes the core past capacity. A body on core `d` is admitted
    /// only if `U_d + (budget + overhead)/T ≤ 1`, so it covers at most
    /// `max(0, (1 − U_d)·T − min overhead)` of the WCET; the tail covers the
    /// rest and absorbs its own overhead and charge.
    fn tail_fits_nowhere(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
        charge: Time,
    ) -> bool {
        let period = task.period().as_nanos() as f64;
        let min_overhead = self
            .body_piece_overhead(0)
            .min(self.body_piece_overhead(1) + charge)
            .as_nanos() as f64;
        let utilizations = partition.core_utilizations();
        let carvable = |c: usize| {
            let core = CoreId(c);
            if exclude.contains(&core) || partition.core_has_body(core) {
                0.0
            } else {
                ((1.0 - utilizations[c]) * period - min_overhead).max(0.0)
            }
        };
        let total: f64 = (0..utilizations.len()).map(carvable).sum();
        let tail_demand =
            (task.wcet() + self.overhead.tail_piece_inflation() + charge).as_nanos() as f64;
        !(0..utilizations.len()).any(|c| {
            let core = CoreId(c);
            !exclude.contains(&core)
                && !partition.core_has_tail(core)
                && utilizations[c] + (tail_demand - (total - carvable(c))) / period
                    <= 1.0 + CAPACITY_SLACK
        })
    }

    /// The split planner proper, without the entry gate: carves bodies
    /// and places the tail as described on
    /// [`plan_split_charged`](Self::plan_split_charged).
    fn carve_split(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
        charge: Time,
    ) -> Option<PlacementPlan> {
        let cores = partition.core_count();
        let mut remaining = task.wcet();
        let mut offset = Time::ZERO;
        // (core, analysis piece, pure execution budget), in chain order.
        let mut pieces: Vec<(CoreId, Task, Time)> = Vec::new();

        loop {
            // With at least one body carved, try to finish with a tail. The
            // tail is always reached by a migration (chain index >= 1), so
            // it carries the full per-migration charge.
            if !pieces.is_empty() {
                if let Some(tail) = self.make_tail_piece(task, remaining, offset, charge) {
                    let found = (0..cores).map(CoreId).find(|c| {
                        !exclude.contains(c)
                            && !pieces.iter().any(|(pc, _, _)| pc == c)
                            && !partition.core_has_tail(*c)
                            && self.core_accepts(partition, *c, &tail, true)
                    });
                    if let Some(core) = found {
                        pieces.push((core, tail, remaining));
                        break;
                    }
                }
            }

            // Carve the largest admissible body budget on the unused core
            // with the most residual utilization.
            if pieces.len() + 1 >= cores {
                return None; // no room left for a tail on a distinct core
            }
            let mut candidates: Vec<CoreId> = (0..cores)
                .map(CoreId)
                .filter(|c| {
                    !exclude.contains(c)
                        && !pieces.iter().any(|(pc, _, _)| pc == c)
                        && !partition.core_has_body(*c)
                })
                .collect();
            // Rank by *clamped* spare capacity: an overhead-inflated,
            // overcommitted core reports a negative residual and must not
            // outrank an exactly full one (it ties at zero and falls back
            // to index order instead).
            candidates.sort_by(|a, b| {
                partition
                    .spare_utilization(*b)
                    .partial_cmp(&partition.spare_utilization(*a))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.0.cmp(&b.0))
            });
            let piece_overhead =
                self.body_piece_overhead(pieces.len()) + piece_charge(pieces.len(), charge);
            let deadline_room = task
                .deadline()
                .saturating_sub(offset)
                .saturating_sub(piece_overhead);
            let max_budget = remaining
                .saturating_sub(Time::from_nanos(1))
                .min(deadline_room);
            if max_budget < self.min_split_budget {
                return None;
            }
            let mut carved = false;
            for core in candidates {
                let budget =
                    self.max_body_budget(partition, core, task, max_budget, piece_overhead);
                if budget >= self.min_split_budget && !budget.is_zero() {
                    let piece = crate::split_budget::body_piece(task, budget, piece_overhead)?;
                    offset += piece.wcet();
                    remaining -= budget;
                    pieces.push((core, piece, budget));
                    carved = true;
                    break;
                }
            }
            if !carved {
                return None;
            }
        }

        // Materialise the chain with split metadata.
        let count = pieces.len();
        debug_assert!(count >= 2);
        let first_core = pieces[0].0;
        let core_sequence: Vec<CoreId> = pieces.iter().map(|(c, _, _)| *c).collect();
        let mut running_offset = Time::ZERO;
        let mut placed = Vec::with_capacity(count);
        for (i, (core, piece, budget)) in pieces.into_iter().enumerate() {
            let is_tail = i == count - 1;
            let piece_wcet = piece.wcet();
            placed.push((
                core,
                PlacedTask {
                    task: piece,
                    execution: budget,
                    parent: task.id(),
                    split: Some(SplitInfo {
                        part_index: i,
                        part_count: count,
                        kind: if is_tail {
                            SubtaskKind::Tail
                        } else {
                            SubtaskKind::Body
                        },
                        release_offset: running_offset,
                        next_core: core_sequence.get(i + 1).copied(),
                        first_core,
                    }),
                },
            ));
            running_offset += piece_wcet;
        }
        Some(PlacementPlan::Split { pieces: placed })
    }

    /// Probes one core for a whole-task placement and, on rejection,
    /// localizes the **blocker**: the first task whose `deadline − response`
    /// slack would go negative with the candidate added. Slack-guided
    /// repair uses the blocker to prune eviction candidates — a victim
    /// ranked strictly below the blocker can never relieve it.
    ///
    /// With a converged analysis cache the probe is allocation-free; the
    /// from-scratch fallback reports the same blocker in the same
    /// (priority, id) order, so cached and uncached controllers make
    /// identical repair decisions.
    pub fn probe_whole(&self, partition: &Partition, core: CoreId, task: &Task) -> WholeProbe {
        let Some(analysis_task) = self.whole_analysis_task(task) else {
            return WholeProbe::Blocked { blocker: None };
        };
        scoped::bump(HotCounter::WholeProbes);
        if self.test == UniprocessorTest::ResponseTime {
            if let Some(cache) = partition.cached_core(core) {
                scoped::bump(HotCounter::CacheProbeHits);
                return match cache.probe_candidate(
                    &analysis_task,
                    outranked_by_whole(&analysis_task),
                    |_| false,
                ) {
                    None => WholeProbe::Accepted,
                    Some(id) => WholeProbe::Blocked { blocker: Some(id) },
                };
            }
        }
        scoped::bump(HotCounter::CacheProbeMisses);
        let tasks = normalized_candidate_tasks(partition.core(core), analysis_task, false);
        if self.test != UniprocessorTest::ResponseTime {
            return if self.test.accepts(&tasks) {
                WholeProbe::Accepted
            } else {
                WholeProbe::Blocked { blocker: None }
            };
        }
        let analysis = rta::analyse_core(&tasks);
        if analysis.schedulable {
            return WholeProbe::Accepted;
        }
        // Report the first failure in the same order as the cached probe:
        // the candidate first, then the existing tasks by (level, id).
        let candidate_pos = tasks
            .iter()
            .position(|t| t.id() == task.id())
            .expect("candidate was appended above");
        if analysis.response_times[candidate_pos].is_none() {
            return WholeProbe::Blocked {
                blocker: Some(task.id()),
            };
        }
        let mut order: Vec<usize> = (0..tasks.len()).filter(|i| *i != candidate_pos).collect();
        order.sort_by_key(|&i| (rta::effective_priority(&tasks[i]).level(), tasks[i].id()));
        let blocker = order
            .into_iter()
            .find(|&i| analysis.response_times[i].is_none())
            .map(|i| tasks[i].id());
        debug_assert!(blocker.is_some(), "unschedulable core with no failing task");
        WholeProbe::Blocked { blocker }
    }

    /// What-if probe for a repair eviction: would `core` accept `task`
    /// whole with every placement of the parents in `removed` evicted from
    /// it first? Allocation-free through the analysis cache, and settled by
    /// the capacity bound when the reduced core cannot fit the task; the
    /// from-scratch fallback is bit-identical (same commit-time priority
    /// ranking).
    pub fn accepts_whole_without(
        &self,
        partition: &Partition,
        core: CoreId,
        task: &Task,
        removed: &[TaskId],
    ) -> bool {
        let Some(analysis_task) = self.whole_analysis_task(task) else {
            return false;
        };
        scoped::bump(HotCounter::WholeProbes);
        let kept = || {
            partition
                .core(core)
                .iter()
                .filter(|p| !removed.contains(&p.parent))
        };
        let utilization = kept().map(|p| p.task.utilization()).sum();
        if self.capacity_rejects(utilization, &analysis_task, || {
            let bin: Vec<PlacedTask> = kept().cloned().collect();
            normalized_candidate_tasks(&bin, analysis_task.clone(), false)
        }) {
            return false;
        }
        if self.test == UniprocessorTest::ResponseTime {
            if let Some(cache) = partition.cached_core(core) {
                scoped::bump(HotCounter::CacheProbeHits);
                return cache.accepts_candidate_without(
                    &analysis_task,
                    removed,
                    outranked_by_whole(&analysis_task),
                    |_| false,
                );
            }
        }
        scoped::bump(HotCounter::CacheProbeMisses);
        let bin: Vec<PlacedTask> = kept().cloned().collect();
        let tasks = normalized_candidate_tasks(&bin, analysis_task, false);
        self.test.accepts(&tasks)
    }

    /// Plans whole-first, split-second: the admission fast path.
    pub fn plan(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
    ) -> Option<PlacementPlan> {
        self.plan_charged(partition, task, exclude, Time::ZERO)
    }

    /// [`plan`](Self::plan) with a per-migration `charge`: the form used
    /// when an already-placed task is *relocated*. A whole placement on the
    /// new core absorbs one charge (the relocation reload); a split
    /// placement charges every piece after the first (the recurring
    /// intra-job hops — the one-time entry reload is dominated by them and
    /// deliberately not double-charged). A zero charge is bit-identical to
    /// the uncharged plan.
    pub fn plan_charged(
        &self,
        partition: &Partition,
        task: &Task,
        exclude: &[CoreId],
        charge: Time,
    ) -> Option<PlacementPlan> {
        self.plan_whole_charged(partition, task, exclude, charge)
            .or_else(|| self.plan_split_charged(partition, task, exclude, charge))
    }

    /// Commits a plan produced by [`plan_whole`](Self::plan_whole) /
    /// [`plan_split`](Self::plan_split) against the same partition state,
    /// renormalizing the priorities of every touched core.
    pub fn commit(&self, partition: &mut Partition, task: &Task, plan: PlacementPlan) {
        match plan {
            PlacementPlan::Whole {
                core,
                analysis_task,
            } => {
                partition.place(
                    core,
                    PlacedTask {
                        task: analysis_task,
                        execution: task.wcet(),
                        parent: task.id(),
                        split: None,
                    },
                );
                partition.renormalize_core_priorities(core);
            }
            PlacementPlan::Split { pieces } => {
                let cores: Vec<CoreId> = pieces.iter().map(|(c, _)| *c).collect();
                for (core, placed) in pieces {
                    partition.place(core, placed);
                }
                for core in cores {
                    partition.renormalize_core_priorities(core);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Whether `core` still passes the acceptance test with `candidate`
    /// added. `candidate_is_split` marks promoted pieces, which keep their
    /// reserved priority; whole candidates are ranked deadline-monotonically
    /// among the core's existing whole tasks, exactly as
    /// [`Partition::renormalize_core_priorities`] will rank them on commit.
    ///
    /// When the partition carries a converged analysis cache and the test is
    /// the exact RTA, the probe runs through
    /// [`CachedCoreAnalysis::accepts_candidate`](spms_analysis::CachedCoreAnalysis::accepts_candidate):
    /// no task vectors are cloned, tasks ranked above the candidate keep
    /// their memoized response times, and tasks below re-converge from warm
    /// starts — bit-identical to the from-scratch fallback below. Either
    /// way, a candidate that would push the core past capacity is rejected
    /// before any analysis runs (see the [module docs](self#capacity-gates)).
    fn core_accepts(
        &self,
        partition: &Partition,
        core: CoreId,
        candidate: &Task,
        candidate_is_split: bool,
    ) -> bool {
        scoped::bump(if candidate_is_split {
            HotCounter::SplitProbes
        } else {
            HotCounter::WholeProbes
        });
        if self.capacity_rejects(partition.core_utilization(core), candidate, || {
            normalized_candidate_tasks(partition.core(core), candidate.clone(), candidate_is_split)
        }) {
            return false;
        }
        if self.test == UniprocessorTest::ResponseTime {
            if let Some(cache) = partition.cached_core(core) {
                scoped::bump(HotCounter::CacheProbeHits);
                if candidate_is_split {
                    // Promoted pieces keep their reserved level: they peer
                    // with (hypothetical) same-level pieces and outrank
                    // strictly lower levels.
                    return cache.accepts_prioritised(candidate);
                }
                // A whole candidate slots into the deadline-monotonic order
                // the commit-time renormalization will assign: it outranks
                // exactly the whole tasks with a larger DM key, and peers
                // with none (dense re-ranked levels are distinct).
                return cache
                    .accepts_candidate(candidate, outranked_by_whole(candidate), |_| false);
            }
        }
        scoped::bump(HotCounter::CacheProbeMisses);
        let tasks =
            normalized_candidate_tasks(partition.core(core), candidate.clone(), candidate_is_split);
        self.test.accepts(&tasks)
    }

    /// The capacity short-circuit: whether `candidate` would push a core
    /// already carrying `utilization` past 1, which every acceptance test
    /// rejects (see the [module docs](self#capacity-gates)). Debug builds
    /// confirm each such verdict against the test run on `scratch()`, the
    /// core's analysis task list with the candidate included.
    fn capacity_rejects(
        &self,
        utilization: f64,
        candidate: &Task,
        scratch: impl FnOnce() -> Vec<Task>,
    ) -> bool {
        if !over_capacity(utilization, candidate) {
            return false;
        }
        scoped::bump(HotCounter::CapacityRejects);
        debug_assert!(
            !self.test.accepts(&scratch()),
            "capacity bound rejected task {} on a core the {} test accepts",
            candidate.id(),
            self.test
        );
        true
    }

    /// The analysis overhead charged to a body piece at `piece_index` in its
    /// chain (mirrors `SemiPartitionedFpTs`).
    fn body_piece_overhead(&self, piece_index: usize) -> Time {
        if piece_index == 0 {
            self.overhead.first_piece_inflation()
        } else {
            self.overhead.body_piece_inflation()
        }
    }

    /// The largest body budget (pure execution) the acceptance test still
    /// admits on `core` for a piece charged `overhead` (split overhead plus
    /// any per-migration charge), bounded by `max_budget`; `Time::ZERO` when
    /// not even the minimum budget fits. The piece construction and the
    /// binary search are shared with the offline FP-TS pass (`split_budget`
    /// module); only the acceptance predicate differs.
    ///
    /// With a converged cache under the exact RTA, the search runs against
    /// the core's exact frontier (`promoted_wcet_frontier`): same midpoints,
    /// same budget. Each midpoint still counts as one split probe — settled
    /// by the capacity bound or answered by the cache — so the work counters
    /// match probing.
    fn max_body_budget(
        &self,
        partition: &Partition,
        core: CoreId,
        template: &Task,
        max_budget: Time,
        overhead: Time,
    ) -> Time {
        let probe = |budget| {
            crate::split_budget::body_piece(template, budget, overhead)
                .is_some_and(|piece| self.core_accepts(partition, core, &piece, true))
        };
        let cache = (self.test == UniprocessorTest::ResponseTime)
            .then(|| partition.cached_core(core))
            .flatten();
        let Some(cache) = cache else {
            return crate::split_budget::max_accepted_budget(
                self.min_split_budget,
                max_budget,
                probe,
            );
        };
        let frontier = cache.promoted_wcet_frontier(crate::BODY_PRIORITY, template.period());
        let utilization = partition.core_utilization(core);
        let (mut probes, mut capacity_rejects) = (0, 0);
        let budget = crate::split_budget::max_budget_under_frontier(
            self.min_split_budget,
            max_budget,
            template,
            overhead,
            frontier,
            |piece| {
                probes += 1;
                capacity_rejects += u64::from(over_capacity(utilization, piece));
            },
            probe,
        );
        scoped::add(HotCounter::SplitProbes, probes);
        scoped::add(HotCounter::CapacityRejects, capacity_rejects);
        scoped::add(HotCounter::CacheProbeHits, probes - capacity_rejects);
        budget
    }

    /// Plans the **body half** of a shard-spanning split on this (donor)
    /// partition: the largest admissible single body piece, carved on the
    /// core with the most clamped spare capacity (ties by index), exactly
    /// as the intra-shard split pass ranks candidates. Unlike chain index
    /// 0 of a local split, a cross-shard body is reached by a
    /// shard-boundary migration every job, so it absorbs one per-migration
    /// `charge` on top of its first-piece overhead. Returns the hosting
    /// core, the analysis piece (promoted to body priority, `C = D`), and
    /// the pure execution budget it covers. Does not modify the partition.
    pub fn plan_remote_body(
        &self,
        partition: &Partition,
        task: &Task,
        charge: Time,
    ) -> Option<(CoreId, Task, Time)> {
        let overhead = self.overhead.first_piece_inflation() + charge;
        let deadline_room = task.deadline().saturating_sub(overhead);
        let max_budget = task
            .wcet()
            .saturating_sub(Time::from_nanos(1))
            .min(deadline_room);
        if max_budget < self.min_split_budget {
            return None;
        }
        let mut candidates: Vec<CoreId> = (0..partition.core_count())
            .map(CoreId)
            .filter(|c| !partition.core_has_body(*c))
            .collect();
        candidates.sort_by(|a, b| {
            partition
                .spare_utilization(*b)
                .partial_cmp(&partition.spare_utilization(*a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        for core in candidates {
            let budget = self.max_body_budget(partition, core, task, max_budget, overhead);
            if budget >= self.min_split_budget && !budget.is_zero() {
                let piece = crate::split_budget::body_piece(task, budget, overhead)?;
                return Some((core, piece, budget));
            }
        }
        None
    }

    /// Plans the **tail half** of a shard-spanning split on this (receiver)
    /// partition: the remaining `budget` of pure execution, released
    /// `offset` after the parent (the donor body's analysis WCET), landing
    /// on the first core without a tail that accepts the piece. Like every
    /// cross-shard piece it absorbs one per-migration `charge`. Returns the
    /// hosting core and the analysis piece. Does not modify the partition.
    pub fn plan_remote_tail(
        &self,
        partition: &Partition,
        task: &Task,
        budget: Time,
        offset: Time,
        charge: Time,
    ) -> Option<(CoreId, Task)> {
        let tail = self.make_tail_piece(task, budget, offset, charge)?;
        let core = (0..partition.core_count()).map(CoreId).find(|c| {
            !partition.core_has_tail(*c) && self.core_accepts(partition, *c, &tail, true)
        })?;
        Some((core, tail))
    }

    /// The tail piece of a split chain with `budget` pure execution left,
    /// released `offset` after the parent, absorbing `charge` per-migration
    /// cost. `None` when the piece cannot meet what is left of the deadline.
    fn make_tail_piece(
        &self,
        task: &Task,
        budget: Time,
        offset: Time,
        charge: Time,
    ) -> Option<Task> {
        let wcet = budget + self.overhead.tail_piece_inflation() + charge;
        let deadline = task.deadline().checked_sub(offset)?;
        if deadline > task.period() || wcet > deadline {
            return None;
        }
        Task::builder(task.id())
            .wcet(wcet)
            .period(task.period())
            .deadline(deadline)
            .priority(crate::TAIL_PRIORITY)
            .build()
            .ok()
    }
}

/// Whether `candidate` would push a core already carrying `utilization`
/// past the capacity bound (see the [module docs](self#capacity-gates)).
fn over_capacity(utilization: f64, candidate: &Task) -> bool {
    utilization + candidate.utilization() > 1.0 + CAPACITY_SLACK
}

/// The per-migration charge a split piece at `piece_index` absorbs: pieces
/// after the first are each reached by one intra-job hop; the first piece
/// starts where the job is released and pays nothing.
fn piece_charge(piece_index: usize, charge: Time) -> Time {
    if piece_index == 0 {
        Time::ZERO
    } else {
        charge
    }
}

/// The deadline-monotonic ranking key `assign_whole_priorities` sorts whole
/// tasks by — the cached probe's notion of where a whole candidate lands.
fn whole_rank_key(task: &Task) -> (Time, Time, spms_task::TaskId) {
    (task.deadline(), task.period(), task.id())
}

/// The probe-side predicate marking the entries a whole `candidate`
/// outranks under the commit-time ranking: every non-reserved task with a
/// larger DM key. The single definition every cached whole probe
/// ([`IncrementalPlacer::core_accepts`], [`IncrementalPlacer::probe_whole`],
/// [`IncrementalPlacer::accepts_whole_without`]) shares — the cached and
/// from-scratch paths stay decision-identical only while this rule does.
fn outranked_by_whole(candidate: &Task) -> impl Fn(&Task) -> bool {
    let key = whole_rank_key(candidate);
    move |t| !has_reserved_level(t) && whole_rank_key(t) > key
}

/// Whether whole task `a` ranks at-or-above whole task `b` under the
/// commit-time deadline-monotonic ranking (`assign_whole_priorities`
/// order: deadline, then period, then id) — i.e. `a` would interfere with
/// `b` on a shared core. The public face of [`whole_rank_key`] for
/// callers (the online controller's slack-guided victim pruning) that
/// must agree with the probes' ranking rule.
pub fn whole_outranks_or_ties(a: &Task, b: &Task) -> bool {
    whole_rank_key(a) <= whole_rank_key(b)
}

/// Whether a task sits on a level reserved for promoted split pieces (and
/// is therefore exempt from whole-task re-ranking).
fn has_reserved_level(task: &Task) -> bool {
    task.priority()
        .is_some_and(|p| p.level() < crate::WHOLE_PRIORITY_BASE)
}

/// The per-core analysis task list with `candidate` included and whole-task
/// priorities renormalized (split pieces keep their reserved levels) — the
/// exact ranking [`Partition::renormalize_core_priorities`] will commit,
/// via the shared `assign_whole_priorities` helper.
fn normalized_candidate_tasks(
    bin: &[PlacedTask],
    candidate: Task,
    candidate_is_split: bool,
) -> Vec<Task> {
    let mut tasks: Vec<(Task, bool)> = bin.iter().map(|p| (p.task.clone(), p.is_split())).collect();
    tasks.push((candidate, candidate_is_split));
    crate::placement::assign_whole_priorities(
        tasks
            .iter_mut()
            .filter(|(_, is_split)| !is_split)
            .map(|(t, _)| t)
            .collect(),
    );
    tasks.into_iter().map(|(t, _)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_task::TaskId;

    fn task(id: u32, wcet_ms: u64, period_ms: u64) -> Task {
        Task::new(id, Time::from_millis(wcet_ms), Time::from_millis(period_ms)).unwrap()
    }

    fn placer() -> IncrementalPlacer {
        IncrementalPlacer::new()
    }

    #[test]
    fn whole_placement_is_first_fit_in_core_order() {
        let mut partition = Partition::new(2);
        let t0 = task(0, 3, 10);
        let plan = placer().plan_whole(&partition, &t0, &[]).unwrap();
        assert_eq!(plan.cores(), vec![CoreId(0)]);
        placer().commit(&mut partition, &t0, plan);

        let t1 = task(1, 3, 10);
        let plan = placer().plan_whole(&partition, &t1, &[]).unwrap();
        assert_eq!(plan.cores(), vec![CoreId(0)], "first fit, not worst fit");
        placer().commit(&mut partition, &t1, plan);
        assert_eq!(partition.validate(), Ok(()));
        assert!(partition.is_schedulable(UniprocessorTest::ResponseTime));
    }

    #[test]
    fn exclusion_skips_cores() {
        let partition = Partition::new(2);
        let t = task(0, 3, 10);
        let plan = placer().plan_whole(&partition, &t, &[CoreId(0)]).unwrap();
        assert_eq!(plan.cores(), vec![CoreId(1)]);
    }

    #[test]
    fn oversubscribed_core_rejects_whole_placement() {
        let mut partition = Partition::new(1);
        let t0 = task(0, 7, 10);
        let plan = placer().plan(&partition, &t0, &[]).unwrap();
        placer().commit(&mut partition, &t0, plan);
        assert!(placer()
            .plan_whole(&partition, &task(1, 7, 10), &[])
            .is_none());
        assert!(placer().plan(&partition, &task(1, 7, 10), &[]).is_none());
    }

    #[test]
    fn split_covers_the_full_wcet_and_validates() {
        // Two cores at 60% each cannot take a 60% task whole, but can split it.
        let mut partition = Partition::new(2);
        for (id, core) in [(0u32, 0usize), (1, 1)] {
            let t = task(id, 6, 10);
            let plan = PlacementPlan::Whole {
                core: CoreId(core),
                analysis_task: t.clone(),
            };
            placer().commit(&mut partition, &t, plan);
        }
        let t2 = task(2, 6, 10);
        assert!(placer().plan_whole(&partition, &t2, &[]).is_none());
        let plan = placer().plan_split(&partition, &t2, &[]).unwrap();
        assert!(plan.is_split());
        let PlacementPlan::Split { pieces } = &plan else {
            unreachable!()
        };
        assert_eq!(pieces.len(), 2);
        let total: Time = pieces.iter().map(|(_, p)| p.execution).sum();
        assert_eq!(total, Time::from_millis(6));
        placer().commit(&mut partition, &t2, plan);
        assert_eq!(partition.validate(), Ok(()));
        assert!(partition.is_schedulable(UniprocessorTest::ResponseTime));
        assert_eq!(partition.split_count(), 1);
    }

    #[test]
    fn split_respects_one_tail_per_core() {
        let mut partition = Partition::new(2);
        for (id, core) in [(0u32, 0usize), (1, 1)] {
            let t = task(id, 6, 10);
            let plan = PlacementPlan::Whole {
                core: CoreId(core),
                analysis_task: t.clone(),
            };
            placer().commit(&mut partition, &t, plan);
        }
        let t2 = task(2, 6, 10);
        let plan = placer().plan_split(&partition, &t2, &[]).unwrap();
        placer().commit(&mut partition, &t2, plan);
        // Both cores now carry a split piece; a second split task would need
        // a tail on a core that already has a body or tail, and each core
        // may host at most one of each.
        let t3 = task(3, 4, 10);
        if let Some(plan) = placer().plan_split(&partition, &t3, &[]) {
            let PlacementPlan::Split { pieces } = &plan else {
                unreachable!()
            };
            for (core, placed) in pieces {
                if placed.is_tail() {
                    assert!(!partition.core_has_tail(*core));
                } else {
                    assert!(!partition.core_has_body(*core));
                }
            }
        }
    }

    #[test]
    fn split_ranks_cores_by_clamped_spare_capacity() {
        // Core 0 is overcommitted by overhead inflation (analysis WCETs sum
        // to 130% while the pure execution budgets stay lower): its residual
        // is negative, and the split pass must rank it by *clamped* spare
        // capacity — never carving a piece there and never letting the
        // negative value distort the candidate order for the real cores.
        let mut partition = Partition::new(3);
        for (id, wcet_ms) in [(0u32, 7u64), (1, 6)] {
            let inflated = task(id, wcet_ms, 10);
            partition.place(
                CoreId(0),
                PlacedTask::whole(inflated).with_execution(Time::from_millis(5)),
            );
        }
        partition.renormalize_core_priorities(CoreId(0));
        for (id, wcet_ms, core) in [(2u32, 55u64, 1usize), (3, 50, 2)] {
            let t = Task::new(id, Time::from_millis(wcet_ms), Time::from_millis(100)).unwrap();
            let plan = PlacementPlan::Whole {
                core: CoreId(core),
                analysis_task: t.clone(),
            };
            placer().commit(&mut partition, &t, plan);
        }
        assert!(partition.residual_utilization(CoreId(0)) < 0.0);
        assert_eq!(partition.spare_utilization(CoreId(0)), 0.0);

        // 80% fits nowhere whole; the split must use cores 1 and 2 only,
        // carving the body on core 2 (the most spare capacity).
        let arrival = task(4, 8, 10);
        assert!(placer().plan_whole(&partition, &arrival, &[]).is_none());
        let plan = placer().plan_split(&partition, &arrival, &[]).unwrap();
        let cores = plan.cores();
        assert!(
            !cores.contains(&CoreId(0)),
            "split used the overcommitted core: {cores:?}"
        );
        assert_eq!(cores[0], CoreId(2), "body must land on the most-spare core");
        placer().commit(&mut partition, &arrival, plan);
        assert_eq!(partition.validate(), Ok(()));
    }

    #[test]
    fn capacity_bound_rejects_without_running_the_analysis() {
        // Core 0 carries 80%: a 30% task cannot fit there under any test.
        // The whole probe still counts, but only core 1 reaches the cache.
        let mut partition = Partition::new(2);
        partition.enable_analysis_cache();
        let t0 = task(0, 8, 10);
        let plan = placer().plan_whole(&partition, &t0, &[]).unwrap();
        placer().commit(&mut partition, &t0, plan);
        let before = scoped::thread_snapshot();
        let plan = placer()
            .plan_whole(&partition, &task(1, 3, 10), &[])
            .unwrap();
        assert_eq!(plan.cores(), vec![CoreId(1)]);
        let delta = before.since();
        assert_eq!(delta.get(HotCounter::CapacityRejects), 1);
        assert_eq!(delta.get(HotCounter::WholeProbes), 2);
        assert_eq!(delta.get(HotCounter::CacheProbeHits), 1);
        // The eviction probe applies the bound to the reduced core: with
        // τ0 evicted the task fits, with nothing evicted it does not.
        let before = scoped::thread_snapshot();
        assert!(!placer().accepts_whole_without(&partition, CoreId(0), &task(1, 3, 10), &[]));
        assert!(placer().accepts_whole_without(
            &partition,
            CoreId(0),
            &task(1, 3, 10),
            &[TaskId(0)]
        ));
        assert_eq!(before.since().get(HotCounter::CapacityRejects), 1);
    }

    #[test]
    fn capacity_bound_settles_body_budget_probes() {
        // Two cores at 70% and 60%: a 60% arrival splits, and every budget
        // probe past a core's 30% / 40% spare is settled by the bound. The
        // resulting plan is the schedulable one the analysis would carve.
        let mut partition = Partition::new(2);
        partition.enable_analysis_cache();
        for (id, wcet, core) in [(0u32, 7u64, 0usize), (1, 6, 1)] {
            let t = task(id, wcet, 10);
            placer().commit(
                &mut partition,
                &t,
                PlacementPlan::Whole {
                    core: CoreId(core),
                    analysis_task: t.clone(),
                },
            );
        }
        let arrival = task(2, 6, 10);
        let before = scoped::thread_snapshot();
        let plan = placer().plan_split(&partition, &arrival, &[]).unwrap();
        assert!(before.since().get(HotCounter::CapacityRejects) > 0);
        placer().commit(&mut partition, &arrival, plan);
        assert_eq!(partition.validate(), Ok(()));
        assert!(partition.is_schedulable(UniprocessorTest::ResponseTime));
    }

    /// Four hand-built cores: a split body and a constrained-deadline tail
    /// (cores 0 and 1, each beside a 60% whole task), mixed periods on
    /// core 2, and an empty core 3.
    fn hand_built_partition(cached: bool) -> Partition {
        let mut partition = Partition::new(4);
        if cached {
            partition.enable_analysis_cache();
        }
        for (id, core) in [(0u32, 0usize), (1, 1)] {
            let t = task(id, 6, 10);
            placer().commit(
                &mut partition,
                &t,
                PlacementPlan::Whole {
                    core: CoreId(core),
                    analysis_task: t.clone(),
                },
            );
        }
        let split = task(2, 6, 10);
        let plan = placer()
            .plan_split(&partition, &split, &[CoreId(2), CoreId(3)])
            .unwrap();
        placer().commit(&mut partition, &split, plan);
        for (id, wcet, period) in [(3u32, 3u64, 10u64), (4, 2, 25), (5, 1, 4)] {
            let t = task(id, wcet, period);
            placer().commit(
                &mut partition,
                &t,
                PlacementPlan::Whole {
                    core: CoreId(2),
                    analysis_task: t.clone(),
                },
            );
        }
        partition
    }

    /// The probing binary search the frontier replaces: every midpoint asks
    /// the cached core's prioritised probe.
    fn probing_budget(
        placer: &IncrementalPlacer,
        partition: &Partition,
        core: CoreId,
        template: &Task,
        max_budget: Time,
        overhead: Time,
    ) -> Time {
        let cache = partition.cached_core(core).unwrap();
        crate::split_budget::max_accepted_budget(placer.min_split_budget, max_budget, |budget| {
            crate::split_budget::body_piece(template, budget, overhead)
                .is_some_and(|piece| cache.accepts_prioritised(&piece))
        })
    }

    #[test]
    fn frontier_budgets_equal_the_probing_search() {
        let cached = hand_built_partition(true);
        let uncached = hand_built_partition(false);
        assert_eq!(cached.split_count(), 1);
        let placer = placer();
        let charge = Time::from_micros(300);
        for template in [task(10, 4, 10), task(11, 9, 30), task(12, 2, 7)] {
            for core in (0..4).map(CoreId) {
                for piece_index in [0, 1] {
                    let overhead =
                        placer.body_piece_overhead(piece_index) + piece_charge(piece_index, charge);
                    let max_budget = template
                        .wcet()
                        .saturating_sub(Time::from_nanos(1))
                        .min(template.deadline().saturating_sub(overhead));
                    let expected =
                        probing_budget(&placer, &cached, core, &template, max_budget, overhead);
                    let before = scoped::thread_snapshot();
                    let budget =
                        placer.max_body_budget(&cached, core, &template, max_budget, overhead);
                    let frontier = before.since();
                    assert_eq!(budget, expected, "task {} core {}", template.id(), core.0);
                    // The uncached path probes every midpoint: same budget,
                    // same probe and capacity counts, misses for hits.
                    let before = scoped::thread_snapshot();
                    let probed =
                        placer.max_body_budget(&uncached, core, &template, max_budget, overhead);
                    let probing = before.since();
                    assert_eq!(probed, expected);
                    for counter in [HotCounter::SplitProbes, HotCounter::CapacityRejects] {
                        assert_eq!(frontier.get(counter), probing.get(counter), "{counter:?}");
                    }
                    assert_eq!(
                        frontier.get(HotCounter::CacheProbeHits),
                        probing.get(HotCounter::CacheProbeMisses)
                    );
                }
            }
            let Some((core, piece, budget)) = placer.plan_remote_body(&cached, &template, charge)
            else {
                continue;
            };
            let overhead = placer.overhead.first_piece_inflation() + charge;
            let max_budget = template
                .wcet()
                .saturating_sub(Time::from_nanos(1))
                .min(template.deadline().saturating_sub(overhead));
            assert_eq!(
                budget,
                probing_budget(&placer, &cached, core, &template, max_budget, overhead)
            );
            assert_eq!(piece.wcet(), budget + overhead);
            assert_eq!(
                placer.plan_remote_body(&uncached, &template, charge),
                Some((core, piece, budget))
            );
        }
    }

    #[test]
    fn split_entry_gate_refuses_hopeless_splits_before_carving() {
        // Both cores at 90%: whichever core takes the tail, the other can
        // carve at most 1 ms of a 5 ms task, and a 4 ms tail overloads a
        // 90% core. The plan is refused before any budget probe runs.
        let mut partition = Partition::new(2);
        for (id, core) in [(0u32, 0usize), (1, 1)] {
            let t = task(id, 9, 10);
            placer().commit(
                &mut partition,
                &t,
                PlacementPlan::Whole {
                    core: CoreId(core),
                    analysis_task: t.clone(),
                },
            );
        }
        let before = scoped::thread_snapshot();
        assert!(placer()
            .plan_split(&partition, &task(2, 5, 10), &[])
            .is_none());
        let delta = before.since();
        assert_eq!(delta.get(HotCounter::SplitEntryRejects), 1);
        assert_eq!(delta.get(HotCounter::SplitProbes), 0);
        // A task small enough for one core's spare passes the gate.
        let before = scoped::thread_snapshot();
        let _ = placer().plan_split(&partition, &task(3, 1, 10), &[]);
        assert_eq!(before.since().get(HotCounter::SplitEntryRejects), 0);
    }

    #[test]
    fn plans_do_not_mutate_the_partition() {
        let partition = Partition::new(2);
        let t = task(0, 2, 10);
        let before = partition.clone();
        let _ = placer().plan(&partition, &t, &[]);
        assert_eq!(partition, before);
    }

    #[test]
    fn zero_charge_plans_are_identical_to_uncharged_plans() {
        let mut partition = Partition::new(2);
        for (id, core) in [(0u32, 0usize), (1, 1)] {
            let t = task(id, 6, 10);
            let plan = PlacementPlan::Whole {
                core: CoreId(core),
                analysis_task: t.clone(),
            };
            placer().commit(&mut partition, &t, plan);
        }
        for probe in [task(2, 2, 10), task(3, 6, 10)] {
            assert_eq!(
                placer().plan(&partition, &probe, &[]),
                placer().plan_charged(&partition, &probe, &[], Time::ZERO),
            );
        }
    }

    #[test]
    fn charge_inflates_whole_and_split_analysis_wcets() {
        let charge = Time::from_micros(500);
        let partition = Partition::new(2);
        let t = task(0, 3, 10);
        let Some(PlacementPlan::Whole { analysis_task, .. }) =
            placer().plan_whole_charged(&partition, &t, &[], charge)
        else {
            panic!("whole placement expected");
        };
        assert_eq!(analysis_task.wcet(), t.wcet() + charge);

        // Force a split and check every piece after the first absorbs the
        // charge on top of its budget.
        let mut partition = Partition::new(2);
        for (id, core) in [(1u32, 0usize), (2, 1)] {
            let base = task(id, 6, 10);
            let plan = PlacementPlan::Whole {
                core: CoreId(core),
                analysis_task: base.clone(),
            };
            placer().commit(&mut partition, &base, plan);
        }
        let t3 = task(3, 6, 10);
        let Some(PlacementPlan::Split { pieces }) =
            placer().plan_split_charged(&partition, &t3, &[], charge)
        else {
            panic!("split placement expected");
        };
        assert!(pieces.len() >= 2);
        assert_eq!(pieces[0].1.task.wcet(), pieces[0].1.execution);
        for (_, placed) in &pieces[1..] {
            assert_eq!(placed.task.wcet(), placed.execution + charge);
        }
        // The charge eats real budget: the charged split covers the same
        // total execution with strictly more analysis WCET.
        let total: Time = pieces.iter().map(|(_, p)| p.execution).sum();
        assert_eq!(total, t3.wcet());
    }

    #[test]
    fn an_unaffordable_charge_rejects_the_placement() {
        // A charge larger than the deadline room can absorb must fail the
        // plan rather than silently dropping the cost.
        let partition = Partition::new(2);
        let t = task(0, 6, 10);
        let charge = Time::from_millis(20);
        assert!(placer().plan_charged(&partition, &t, &[], charge).is_none());
    }

    #[test]
    fn committed_whole_plan_matches_parent() {
        let mut partition = Partition::new(1);
        let t = task(4, 2, 10);
        let plan = placer().plan(&partition, &t, &[]).unwrap();
        placer().commit(&mut partition, &t, plan);
        let placements = partition.placements_of(TaskId(4));
        assert_eq!(placements.len(), 1);
        assert_eq!(placements[0].1.execution, Time::from_millis(2));
        assert!(!placements[0].1.is_split());
    }
}
