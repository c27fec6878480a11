//! Incremental per-core response-time analysis.
//!
//! [`CachedCoreAnalysis`] memoizes the converged response time of every task
//! on one core and keeps the memo coherent under mutation, exploiting two
//! structural facts of the fixed-priority recurrence:
//!
//! * a task's response time depends only on its own `(C, D)` and on the
//!   `(C, T)` multiset of the tasks at higher-or-equal priority — so a
//!   mutation at priority level `p` invalidates **only the levels at or
//!   below `p`**; everything above keeps its converged fixed point;
//! * the fixed point is the *least* fixed point, so a response time
//!   converged under a subset of the current interference is a valid **warm
//!   start**: after an insertion, each invalidated level re-converges from
//!   its previous value in a handful of iterations instead of from `C_i`.
//!
//! The cache is *always converged*: [`insert`](CachedCoreAnalysis::insert),
//! [`remove`](CachedCoreAnalysis::remove) and
//! [`refresh`](CachedCoreAnalysis::refresh) re-establish every response time
//! eagerly, so the read-side — [`is_schedulable`], [`analysis`] and the
//! non-mutating what-if probes ([`accepts_candidate`],
//! [`accepts_prioritised`]) and the exact body-budget frontier
//! ([`promoted_wcet_frontier`]) — works on `&self` and allocates nothing.
//! Results are bit-identical to a from-scratch [`rta::analyse_core`] over
//! the same tasks (property-tested in `tests/cache_equivalence.rs`).
//!
//! Task ids must be unique within one core — every partitioner in the
//! workspace guarantees this (a split chain places at most one piece of a
//! parent per core).
//!
//! [`is_schedulable`]: CachedCoreAnalysis::is_schedulable
//! [`analysis`]: CachedCoreAnalysis::analysis
//! [`accepts_candidate`]: CachedCoreAnalysis::accepts_candidate
//! [`accepts_prioritised`]: CachedCoreAnalysis::accepts_prioritised
//! [`promoted_wcet_frontier`]: CachedCoreAnalysis::promoted_wcet_frontier

use spms_task::{Priority, Task, TaskId, Time};
use spms_telemetry::{scoped, HotCounter};

use crate::rta::{self, CoreAnalysis};

/// One memoized task on the core: the analysis task plus its converged
/// worst-case response time (`None` = proven to miss its deadline).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    task: Task,
    response: Option<Time>,
}

/// Canonical cache order: highest priority first, ties broken by task id so
/// the order is total (ids are unique within a core).
fn sort_key(task: &Task) -> (u32, TaskId) {
    (rta::effective_priority(task).level(), task.id())
}

/// The interference each entry contributes to a lower-or-equal level:
/// `(C, T)` — all that the recurrence reads from an interferer.
fn interference_term(task: &Task, r: Time) -> Time {
    task.wcet() * r.div_ceil(task.period())
}

/// Memoized exact RTA for one core. See the `cached.rs` module docs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CachedCoreAnalysis {
    /// Sorted by [`sort_key`]; every `response` is converged (the cache has
    /// no stale state between method calls).
    entries: Vec<Entry>,
    /// Set by the fault-injection hook
    /// [`corrupt_first_response`](Self::corrupt_first_response): at least
    /// one memoized response is known-divergent from scratch, so the
    /// debug-build convergence guard must not fire until a self-audit
    /// ([`audit`](Self::audit)) repairs or acquits the core.
    corrupted: bool,
}

impl CachedCoreAnalysis {
    /// An empty core.
    pub fn new() -> Self {
        CachedCoreAnalysis::default()
    }

    /// Builds a converged cache for an existing assignment (cold start).
    pub fn from_tasks(tasks: &[Task]) -> Self {
        let mut cache = CachedCoreAnalysis::new();
        cache.refresh(tasks);
        cache
    }

    /// Number of tasks on the core.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the core is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached tasks in canonical (priority, id) order.
    pub fn tasks(&self) -> impl Iterator<Item = &Task> {
        self.entries.iter().map(|e| &e.task)
    }

    /// The cached response time of the task with `id`: `None` when the task
    /// is not on this core, `Some(None)` when it provably misses its
    /// deadline.
    pub fn response_of(&self, id: TaskId) -> Option<Option<Time>> {
        self.entries
            .iter()
            .find(|e| e.task.id() == id)
            .map(|e| e.response)
    }

    /// The cached slack (`deadline − response`) of the task with `id`:
    /// `None` when the task is not on this core, `Some(None)` when it
    /// provably misses its deadline (negative slack). Free to read — the
    /// cache is always converged — which is what makes slack-guided repair
    /// ranking affordable on the admission hot path.
    pub fn slack_of(&self, id: TaskId) -> Option<Option<Time>> {
        self.entries.iter().find(|e| e.task.id() == id).map(|e| {
            e.response
                .map(|response| e.task.deadline().saturating_sub(response))
        })
    }

    /// The full analysis in canonical order — bit-identical to
    /// [`rta::analyse_core`] over [`tasks`](Self::tasks).
    pub fn analysis(&self) -> CoreAnalysis {
        CoreAnalysis {
            response_times: self.entries.iter().map(|e| e.response).collect(),
            schedulable: self.is_schedulable(),
        }
    }

    /// Whether every task on the core meets its deadline.
    pub fn is_schedulable(&self) -> bool {
        self.entries.iter().all(|e| e.response.is_some())
    }

    /// Adds `task` to the core and re-converges exactly the priority levels
    /// at or below the insertion point. Levels above keep their fixed
    /// points; invalidated levels warm-start from their previous (now
    /// lower-bound) response times.
    pub fn insert(&mut self, task: Task) {
        debug_assert!(
            self.entries.iter().all(|e| e.task.id() != task.id()),
            "duplicate task id {} on one core",
            task.id()
        );
        let key = sort_key(&task);
        let pos = self.entries.partition_point(|e| sort_key(&e.task) < key);
        self.entries.insert(
            pos,
            Entry {
                task,
                response: None,
            },
        );
        // Invalidate from the first entry *at* the inserted level: same-level
        // peers gain the newcomer's interference too, and some sort before
        // `pos` (smaller id).
        let first_affected = self
            .entries
            .partition_point(|e| sort_key(&e.task).0 < key.0);
        self.recompute_from(first_affected, true);
    }

    /// Removes the task with `id`, re-converging the levels at or below it
    /// (cold: removal shrinks interference, so previous responses are upper
    /// bounds and unusable as warm starts). Returns the removed task, or
    /// `None` when no task with `id` is on the core.
    pub fn remove(&mut self, id: TaskId) -> Option<Task> {
        let pos = self.entries.iter().position(|e| e.task.id() == id)?;
        let removed = self.entries.remove(pos);
        let level = sort_key(&removed.task).0;
        let first_affected = self
            .entries
            .partition_point(|e| sort_key(&e.task).0 < level);
        self.recompute_from(first_affected, false);
        Some(removed.task)
    }

    /// Resynchronizes the cache to an arbitrary new assignment (the
    /// [`Partition`](../spms_core) calls this after a priority
    /// renormalization). A per-task diff decides how much survives:
    ///
    /// * same `(C, D)` and identical interferer multiset → the old fixed
    ///   point is **reused** outright (renormalization shifts numeric
    ///   levels but preserves relative order, so this is the common case
    ///   for every level above a mutation);
    /// * same `(C, D)` and the old interferer multiset is a subset of the
    ///   new one → the old response is a valid **warm start**;
    /// * anything else → cold recompute.
    pub fn refresh(&mut self, tasks: &[Task]) {
        let _ = self.refresh_general(tasks);
        self.debug_assert_converged();
    }

    /// Runs the refresh flavour selected by `mode` and returns a compact
    /// [`RefreshUndo`] that restores the pre-refresh state bit-identically
    /// via [`apply_refresh_undo`](Self::apply_refresh_undo).
    ///
    /// The undo record holds only the *differences* — entries the refresh
    /// dropped, ids it added, and `(priority, response)` pairs of surviving
    /// entries it changed — so a renormalization that shifts nothing (the
    /// common steady-state case) records nothing, and one that shifts `k`
    /// levels records `O(k)`, never a clone of the whole core. The diff is
    /// computed against the old entry vector the refresh already detaches
    /// internally, so building it performs no extra clones either.
    pub fn refresh_with_undo(&mut self, tasks: &[Task], mode: RefreshMode) -> RefreshUndo {
        let old = match mode {
            RefreshMode::General => self.refresh_general(tasks),
            RefreshMode::AfterInsert => self.refresh_after_insert_inner(tasks),
            RefreshMode::AfterRemove => self.refresh_after_remove_inner(tasks),
        };
        let undo = RefreshUndo::diff(old, &self.entries);
        self.debug_assert_converged();
        undo
    }

    /// Restores the state a [`refresh_with_undo`](Self::refresh_with_undo)
    /// call destroyed. Must be applied against the exact post-refresh state
    /// the undo was recorded for (journal rewinds guarantee this by undoing
    /// in LIFO order).
    pub fn apply_refresh_undo(&mut self, undo: RefreshUndo) {
        self.entries.retain(|e| !undo.added.contains(&e.task.id()));
        for delta in undo.changed {
            let entry = self
                .entries
                .iter_mut()
                .find(|e| e.task.id() == delta.id)
                .expect("refresh undo names a task no longer on the core");
            match delta.priority {
                Some(priority) => entry.task.set_priority(priority),
                None => entry.task.clear_priority(),
            }
            entry.response = delta.response;
        }
        for (task, response) in undo.removed {
            self.entries.push(Entry { task, response });
        }
        self.entries.sort_by_key(|e| sort_key(&e.task));
        self.debug_assert_converged();
    }

    /// [`refresh`](Self::refresh) specialised for a **pure insertion**: the
    /// previous assignment plus one or more new tasks, with the surviving
    /// tasks' parameters unchanged and their relative priority order
    /// preserved (numeric levels may shift, as a whole-task renormalization
    /// does). Every surviving task warm-starts from its previous response —
    /// an unchanged level re-converges in a single interference sum — and
    /// only the new tasks run cold. No interferer profiles are built.
    pub fn refresh_after_insert(&mut self, tasks: &[Task]) {
        let _ = self.refresh_after_insert_inner(tasks);
        self.debug_assert_converged();
    }

    /// [`refresh_after_insert`](Self::refresh_after_insert) body; returns
    /// the detached pre-refresh entries so
    /// [`refresh_with_undo`](Self::refresh_with_undo) can diff them.
    fn refresh_after_insert_inner(&mut self, tasks: &[Task]) -> Vec<Entry> {
        let old = std::mem::take(&mut self.entries);
        self.entries = tasks
            .iter()
            .map(|task| Entry {
                task: task.clone(),
                response: None,
            })
            .collect();
        self.entries.sort_by_key(|e| sort_key(&e.task));
        for i in 0..self.entries.len() {
            let warm = old
                .iter()
                .find(|e| e.task.id() == self.entries[i].task.id())
                .and_then(|prev| {
                    debug_assert_eq!(prev.task.wcet(), self.entries[i].task.wcet());
                    debug_assert_eq!(prev.task.deadline(), self.entries[i].task.deadline());
                    prev.response
                });
            let response = self.compute(i, warm);
            self.entries[i].response = response;
        }
        old
    }

    /// [`refresh`](Self::refresh) specialised for a **pure removal**: the
    /// previous assignment minus one or more tasks, surviving parameters
    /// unchanged and relative order preserved. Survivors ranked strictly
    /// above every removed task keep their fixed points outright; the rest
    /// lost interference and re-converge cold.
    pub fn refresh_after_remove(&mut self, tasks: &[Task]) {
        let _ = self.refresh_after_remove_inner(tasks);
        self.debug_assert_converged();
    }

    /// [`refresh_after_remove`](Self::refresh_after_remove) body; returns
    /// the detached pre-refresh entries so
    /// [`refresh_with_undo`](Self::refresh_with_undo) can diff them.
    fn refresh_after_remove_inner(&mut self, tasks: &[Task]) -> Vec<Entry> {
        let old = std::mem::take(&mut self.entries);
        self.entries = tasks
            .iter()
            .map(|task| Entry {
                task: task.clone(),
                response: None,
            })
            .collect();
        self.entries.sort_by_key(|e| sort_key(&e.task));
        let removed_min_level = old
            .iter()
            .filter(|e| !self.entries.iter().any(|n| n.task.id() == e.task.id()))
            .map(|e| sort_key(&e.task).0)
            .min();
        for i in 0..self.entries.len() {
            let prev = old
                .iter()
                .find(|e| e.task.id() == self.entries[i].task.id());
            let response = match (prev, removed_min_level) {
                // Ranked strictly above everything removed: untouched.
                (Some(prev), Some(min_level)) if sort_key(&prev.task).0 < min_level => {
                    prev.response
                }
                (Some(prev), None) => prev.response,
                _ => self.compute(i, None),
            };
            self.entries[i].response = response;
        }
        old
    }

    /// Fault-injection hook: nudges the first strictly-positive memoized
    /// response time *down* by one nanosecond and marks the core corrupted,
    /// so a later [`audit`](Self::audit) provably detects the divergence.
    ///
    /// The downward direction is deliberate. Memoized responses double as
    /// warm starts for the monotone RTA recurrence, and a warm start *below*
    /// the least fixed point still converges to the true fixed point — so a
    /// corrupted-but-unaudited core can mis-rank repair victims (slack looks
    /// one nanosecond larger) but can never admit an unschedulable task.
    /// Returns `false` (and flips nothing) when no entry has a positive
    /// converged response.
    pub fn corrupt_first_response(&mut self) -> bool {
        let Some(entry) = self
            .entries
            .iter_mut()
            .find(|e| e.response.is_some_and(|r| r > Time::ZERO))
        else {
            return false;
        };
        let flipped = entry
            .response
            .expect("filtered on is_some above")
            .saturating_sub(Time::from_nanos(1));
        entry.response = Some(flipped);
        self.corrupted = true;
        true
    }

    /// Whether the fault-injection hook has flipped a response on this core
    /// since the last repairing or acquitting [`audit`](Self::audit).
    pub fn corruption_marked(&self) -> bool {
        self.corrupted
    }

    /// Self-audit: re-derives the core's analysis from scratch and compares
    /// it against the memo. Returns `true` when the memo is bit-identical
    /// (the corruption mark, if any, is cleared — the core is acquitted);
    /// on a mismatch the whole memo is quarantined and rebuilt from scratch
    /// and `false` is returned.
    pub fn audit(&mut self) -> bool {
        let tasks: Vec<Task> = self.tasks().cloned().collect();
        if self.analysis() == rta::analyse_core(&tasks) {
            self.corrupted = false;
            true
        } else {
            *self = CachedCoreAnalysis::from_tasks(&tasks);
            false
        }
    }

    /// Debug-build guard: after any refresh the cache must be bit-identical
    /// to a from-scratch analysis (the property tests run in debug mode, so
    /// an unsound reuse or warm start fails loudly there). Suspended while
    /// an injected corruption is pending its audit — the divergence is the
    /// point of the fault, not an incremental-maintenance bug.
    fn debug_assert_converged(&self) {
        #[cfg(debug_assertions)]
        {
            if self.corrupted {
                return;
            }
            let tasks: Vec<Task> = self.tasks().cloned().collect();
            debug_assert_eq!(
                self.analysis(),
                rta::analyse_core(&tasks),
                "cached analysis diverged from scratch"
            );
        }
    }

    /// The general diff-based resynchronization behind
    /// [`refresh`](Self::refresh); returns the detached pre-refresh entries
    /// so [`refresh_with_undo`](Self::refresh_with_undo) can diff them.
    fn refresh_general(&mut self, tasks: &[Task]) -> Vec<Entry> {
        let old = std::mem::take(&mut self.entries);
        self.entries = tasks
            .iter()
            .map(|task| Entry {
                task: task.clone(),
                response: None,
            })
            .collect();
        self.entries.sort_by_key(|e| sort_key(&e.task));

        let old_tasks: Vec<&Task> = old.iter().map(|e| &e.task).collect();
        let new_tasks: Vec<&Task> = self.entries.iter().map(|e| &e.task).collect();
        let plans: Vec<Option<ReusePlan>> = self
            .entries
            .iter()
            .map(|entry| {
                let prev = old.iter().find(|e| e.task.id() == entry.task.id())?;
                diff_entry(prev, &entry.task, &old_tasks, &new_tasks)
            })
            .collect();
        for (i, plan) in plans.into_iter().enumerate() {
            let response = match plan {
                Some(ReusePlan::Reuse(response)) => response,
                Some(ReusePlan::WarmStart(warm)) => self.compute(i, Some(warm)),
                None => self.compute(i, None),
            };
            self.entries[i].response = response;
        }
        old
    }

    /// Non-mutating what-if probe: would the core stay schedulable with
    /// `candidate` added?
    ///
    /// The caller describes where the candidate would rank: `outranked(t)`
    /// must hold exactly for the entries the candidate would sit strictly
    /// above, and `peer(t)` exactly for entries that would share its level
    /// (mutual interference); the two must be disjoint, and must be
    /// consistent with the priorities the commit path will actually assign
    /// — with that, the probe's verdict is bit-identical to re-running
    /// [`rta::analyse_core`] over the committed core.
    ///
    /// Entries the candidate outranks re-converge from their cached
    /// responses (warm starts); entries above it are not re-analysed at
    /// all. Nothing is cloned or allocated.
    pub fn accepts_candidate(
        &self,
        candidate: &Task,
        outranked: impl Fn(&Task) -> bool,
        peer: impl Fn(&Task) -> bool,
    ) -> bool {
        self.probe_candidate(candidate, outranked, peer).is_none()
    }

    /// [`accepts_candidate`](Self::accepts_candidate) with **blocker
    /// localization**: `None` means the core accepts the candidate;
    /// `Some(id)` names the first task whose slack goes negative — the
    /// candidate itself when its own recurrence exceeds its deadline, or
    /// the first cached entry (in canonical priority order) that a
    /// from-scratch analysis of the committed core would prove to miss.
    /// Slack-guided repair uses the blocker to prune victims whose eviction
    /// provably cannot unblock the arrival (a victim ranked strictly below
    /// the blocker never relieves it).
    pub fn probe_candidate(
        &self,
        candidate: &Task,
        outranked: impl Fn(&Task) -> bool,
        peer: impl Fn(&Task) -> bool,
    ) -> Option<TaskId> {
        // Extra interference never repairs an already-doomed task.
        if let Some(doomed) = self.entries.iter().find(|e| e.response.is_none()) {
            return Some(doomed.task.id());
        }
        // The candidate sees everything it does not outrank (peers included).
        let candidate_response = rta::converge(candidate.wcet(), candidate.deadline(), None, |r| {
            self.entries
                .iter()
                .filter(|e| !outranked(&e.task))
                .map(|e| interference_term(&e.task, r))
                .sum()
        });
        if candidate_response.is_none() {
            return Some(candidate.id());
        }
        // Entries at or below the candidate gain its interference; their
        // interference among existing entries is unchanged, so their cached
        // responses are valid warm starts.
        for (i, entry) in self.entries.iter().enumerate() {
            if !outranked(&entry.task) && !peer(&entry.task) {
                continue;
            }
            let survived = rta::converge(
                entry.task.wcet(),
                entry.task.deadline(),
                entry.response,
                |r| self.own_interference(i, r) + interference_term(candidate, r),
            );
            if survived.is_none() {
                return Some(entry.task.id());
            }
        }
        None
    }

    /// What-if probe for a repair eviction: would the core accept
    /// `candidate` with every entry named in `removed` evicted first? Ids
    /// not on this core are ignored. Nothing is cloned or allocated; the
    /// verdict is bit-identical to re-running [`rta::analyse_core`] over
    /// the committed (evicted + admitted) core.
    ///
    /// The `outranked` / `peer` predicates describe the candidate's rank
    /// exactly as in [`accepts_candidate`](Self::accepts_candidate) (they
    /// are only consulted for surviving entries). Entries above both the
    /// candidate and every removed entry keep their memoized responses;
    /// entries that only gain the candidate's interference re-converge from
    /// warm starts; entries at or below the highest removed level lose
    /// interference and re-converge cold (their cached responses are upper
    /// bounds there). Falls back to
    /// [`accepts_candidate`](Self::accepts_candidate) when no removed id is
    /// on this core.
    pub fn accepts_candidate_without(
        &self,
        candidate: &Task,
        removed: &[TaskId],
        outranked: impl Fn(&Task) -> bool,
        peer: impl Fn(&Task) -> bool,
    ) -> bool {
        let evicted = |e: &Entry| removed.contains(&e.task.id());
        // Entries are sorted by level, so the first evicted one is the
        // highest: everything at or below it loses interference.
        let Some(removed_level) = self
            .entries
            .iter()
            .find(|e| evicted(e))
            .map(|e| sort_key(&e.task).0)
        else {
            return self.accepts_candidate(candidate, outranked, peer);
        };
        // The candidate sees every *surviving* entry it does not outrank.
        let candidate_response = rta::converge(candidate.wcet(), candidate.deadline(), None, |r| {
            self.entries
                .iter()
                .filter(|e| !evicted(e) && !outranked(&e.task))
                .map(|e| interference_term(&e.task, r))
                .sum()
        });
        if candidate_response.is_none() {
            return false;
        }
        for (i, entry) in self.entries.iter().enumerate() {
            if evicted(entry) {
                continue;
            }
            let gains = outranked(&entry.task) || peer(&entry.task);
            // The removed entries interfered with everything at or below
            // their levels (peers included): those entries shrink and must
            // run cold — a cached response is an upper bound after a
            // removal.
            let loses = sort_key(&entry.task).0 >= removed_level;
            let response = match (gains, loses) {
                // Unaffected: above both the candidate and the removals.
                (false, false) => entry.response,
                // Only gains the candidate: the cached response is a valid
                // warm start.
                (true, false) => rta::converge(
                    entry.task.wcet(),
                    entry.task.deadline(),
                    entry.response,
                    |r| self.interference_without(i, removed, r) + interference_term(candidate, r),
                ),
                (gains, true) => {
                    rta::converge(entry.task.wcet(), entry.task.deadline(), None, |r| {
                        let candidate_term = if gains {
                            interference_term(candidate, r)
                        } else {
                            Time::ZERO
                        };
                        self.interference_without(i, removed, r) + candidate_term
                    })
                }
            };
            if response.is_none() {
                return false;
            }
        }
        true
    }

    /// [`accepts_candidate`](Self::accepts_candidate) for a candidate whose
    /// priority is already assigned (split pieces, explicitly-prioritised
    /// whole tasks): it outranks strictly lower levels and peers with its
    /// own level.
    pub fn accepts_prioritised(&self, candidate: &Task) -> bool {
        let level = rta::effective_priority(candidate).level();
        self.accepts_candidate(
            candidate,
            |t| rta::effective_priority(t).level() > level,
            |t| rta::effective_priority(t).level() == level,
        )
    }

    /// The exact **promoted-WCET frontier**: the largest WCET `w ≤ period`
    /// such that a `C = D = w` candidate at priority `level` with period
    /// `period` is admitted by [`accepts_prioritised`](Self::accepts_prioritised).
    /// Admission is monotone in `w`, so the probe accepts such a candidate
    /// exactly when its WCET is at most the returned value — one call
    /// replaces a binary search of probes.
    ///
    /// The bound is the time-demand test (Lehoczky, Sha & Ding) solved for
    /// the candidate's WCET. Entry `i` meets its deadline with the candidate
    /// added iff some `t ≤ D_i` has `C_i + I_i(t) + ⌈t/T⌉·w ≤ t`, where
    /// `I_i(t) = Σ_{j ∈ hep(i)} ⌈t/T_j⌉·C_j` sums the other entries at
    /// higher-or-equal priority. So
    ///
    /// ```text
    /// w* = min(T, min_i w_i),   w_i = max_{t ∈ S_i} ⌊(t − C_i − I_i(t)) / ⌈t/T⌉⌋
    /// ```
    ///
    /// The demand is a step function, so the maximum sits at the right end
    /// of a step: `S_i` is `D_i` plus every multiple of an interfering
    /// period (the candidate's included) in `[R_i, D_i]`. Below the cached
    /// response `R_i` the demand already exceeds `t` without the candidate.
    ///
    /// The frontier is zero when the core is unschedulable (extra
    /// interference never repairs a miss) or when any entry sits at or
    /// above `level`: a `C = D` piece has no room for any interference.
    ///
    /// No allocation and no sort: each entry tries `t = D_i` first and
    /// stops as soon as it cannot lower the running minimum. The points
    /// evaluated count as [`HotCounter::FrontierPoints`].
    pub fn promoted_wcet_frontier(&self, level: Priority, period: Time) -> Time {
        let level = level.level();
        if !self.is_schedulable()
            || self
                .entries
                .first()
                .is_some_and(|e| sort_key(&e.task).0 <= level)
        {
            return Time::ZERO;
        }
        let mut frontier = period;
        let mut points = 0;
        for i in 0..self.entries.len() {
            if frontier.is_zero() {
                break;
            }
            frontier = self.entry_frontier(i, period, frontier, &mut points);
        }
        scoped::add(HotCounter::FrontierPoints, points);
        frontier
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Re-converges entries `from..`, in order. With `warm`, each entry
    /// starts from its previous response (valid only when interference has
    /// grown, i.e. after an insertion).
    fn recompute_from(&mut self, from: usize, warm: bool) {
        for i in from..self.entries.len() {
            let warm_start = if warm { self.entries[i].response } else { None };
            let response = self.compute(i, warm_start);
            self.entries[i].response = response;
        }
    }

    /// The converged response time of entry `i` under the current
    /// assignment, optionally warm-started.
    fn compute(&self, i: usize, warm_start: Option<Time>) -> Option<Time> {
        let task = &self.entries[i].task;
        rta::converge(task.wcet(), task.deadline(), warm_start, |r| {
            self.own_interference(i, r)
        })
    }

    /// `min(bound, w_i)` for entry `i` of
    /// [`promoted_wcet_frontier`](Self::promoted_wcet_frontier): the largest
    /// candidate WCET (candidate period `period`, ranked above the entry)
    /// the entry still survives. Returns `bound` as soon as one scheduling
    /// point reaches it; `points` counts the points evaluated.
    fn entry_frontier(&self, i: usize, period: Time, bound: Time, points: &mut u64) -> Time {
        let entry = &self.entries[i];
        let deadline = entry.task.deadline();
        let response = entry
            .response
            .expect("the frontier only runs on a schedulable core");
        // The room entry i leaves the candidate at `t`: `None` when its own
        // demand already exceeds `t`.
        let mut room = |t: Time| {
            *points += 1;
            let demand = entry.task.wcet() + self.own_interference(i, t);
            t.checked_sub(demand)
                .map(|slack| slack / t.div_ceil(period))
        };
        let mut best = room(deadline);
        if best >= Some(bound) {
            return bound;
        }
        let level = sort_key(&entry.task).0;
        let interferers = self
            .entries
            .iter()
            .take_while(|e| sort_key(&e.task).0 <= level)
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, e)| e.task.period());
        for step in interferers.chain(std::iter::once(period)) {
            for k in response.div_ceil(step)..=deadline.div_floor(step) {
                best = best.max(room(step * k));
                if best >= Some(bound) {
                    return bound;
                }
            }
        }
        best.unwrap_or(Time::ZERO)
    }

    /// Interference entry `i` suffers from the other entries at
    /// higher-or-equal priority, at recurrence value `r`. The entries are
    /// sorted, so the interferers form the prefix up to the end of `i`'s
    /// equal-level group.
    fn own_interference(&self, i: usize, r: Time) -> Time {
        let level = sort_key(&self.entries[i].task).0;
        self.entries
            .iter()
            .take_while(|e| sort_key(&e.task).0 <= level)
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, e)| interference_term(&e.task, r))
            .sum()
    }

    /// [`own_interference`](Self::own_interference) with the entries named
    /// in `removed` evicted from the core.
    fn interference_without(&self, i: usize, removed: &[TaskId], r: Time) -> Time {
        let level = sort_key(&self.entries[i].task).0;
        self.entries
            .iter()
            .enumerate()
            .take_while(|(_, e)| sort_key(&e.task).0 <= level)
            .filter(|(j, e)| *j != i && !removed.contains(&e.task.id()))
            .map(|(_, e)| interference_term(&e.task, r))
            .sum()
    }
}

/// Which refresh specialisation [`CachedCoreAnalysis::refresh_with_undo`]
/// runs — mirrors the three public refresh entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshMode {
    /// The general diff-based resynchronization of
    /// [`refresh`](CachedCoreAnalysis::refresh).
    General,
    /// The pure-insertion fast path of
    /// [`refresh_after_insert`](CachedCoreAnalysis::refresh_after_insert).
    AfterInsert,
    /// The pure-removal fast path of
    /// [`refresh_after_remove`](CachedCoreAnalysis::refresh_after_remove).
    AfterRemove,
}

/// Prior `(priority, response)` of one surviving entry a refresh changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EntryDelta {
    id: TaskId,
    priority: Option<Priority>,
    response: Option<Time>,
}

/// Compact, per-entry undo record of one
/// [`CachedCoreAnalysis::refresh_with_undo`] call: only what the refresh
/// actually changed — `O(changed levels)`, never a clone of the whole core.
/// Consumed by [`CachedCoreAnalysis::apply_refresh_undo`].
#[derive(Debug, Default)]
pub struct RefreshUndo {
    /// Entries the refresh dropped (or re-shaped beyond a priority shift):
    /// full prior copies, reinserted on undo.
    removed: Vec<(Task, Option<Time>)>,
    /// Ids the refresh added (or re-shaped): their entries are dropped on
    /// undo before the `removed` copies come back.
    added: Vec<TaskId>,
    /// Surviving entries whose priority or response shifted: prior values,
    /// patched back in place on undo.
    changed: Vec<EntryDelta>,
}

impl RefreshUndo {
    /// Number of per-entry records the undo carries (test/bench support:
    /// a no-op renormalization must record zero).
    pub fn len(&self) -> usize {
        self.removed.len() + self.added.len() + self.changed.len()
    }

    /// Whether the refresh changed nothing at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Diffs the detached pre-refresh entries against the refreshed state.
    /// `old` is consumed, so dropped entries move into the record without a
    /// clone. A same-id entry whose task parameters changed shape (WCET,
    /// period or deadline — possible through the general refresh after a
    /// split re-carve) is treated as removed-plus-added.
    fn diff(old: Vec<Entry>, new: &[Entry]) -> RefreshUndo {
        let same_shape = |a: &Task, b: &Task| {
            a.wcet() == b.wcet() && a.period() == b.period() && a.deadline() == b.deadline()
        };
        let added = new
            .iter()
            .filter(|e| {
                !old.iter()
                    .any(|p| p.task.id() == e.task.id() && same_shape(&p.task, &e.task))
            })
            .map(|e| e.task.id())
            .collect();
        let mut removed = Vec::new();
        let mut changed = Vec::new();
        for prev in old {
            match new
                .iter()
                .find(|e| e.task.id() == prev.task.id() && same_shape(&prev.task, &e.task))
            {
                Some(now) => {
                    if prev.task.priority() != now.task.priority() || prev.response != now.response
                    {
                        changed.push(EntryDelta {
                            id: prev.task.id(),
                            priority: prev.task.priority(),
                            response: prev.response,
                        });
                    }
                }
                None => removed.push((prev.task, prev.response)),
            }
        }
        RefreshUndo {
            removed,
            added,
            changed,
        }
    }
}

/// How a previously converged response carries over through
/// [`CachedCoreAnalysis::refresh`].
enum ReusePlan {
    /// Identical interference: the old response (including a proven miss)
    /// is the new response.
    Reuse(Option<Time>),
    /// Interference grew: the old response is a lower bound.
    WarmStart(Time),
}

/// Classifies how much of `prev`'s converged response survives for the same
/// task placed among `new_tasks`.
fn diff_entry(
    prev: &Entry,
    task: &Task,
    old_tasks: &[&Task],
    new_tasks: &[&Task],
) -> Option<ReusePlan> {
    if prev.task.wcet() != task.wcet() || prev.task.deadline() != task.deadline() {
        return None;
    }
    let old_profile = interferer_profile(old_tasks, &prev.task);
    let new_profile = interferer_profile(new_tasks, task);
    if old_profile == new_profile {
        Some(ReusePlan::Reuse(prev.response))
    } else if is_sub_multiset(&old_profile, &new_profile) {
        prev.response.map(ReusePlan::WarmStart)
    } else {
        None
    }
}

/// The `(C, T)` multiset of `task`'s interferers within `tasks` (every other
/// task at higher-or-equal effective priority), sorted for comparison.
fn interferer_profile(tasks: &[&Task], task: &Task) -> Vec<(Time, Time)> {
    let level = rta::effective_priority(task).level();
    let mut profile: Vec<(Time, Time)> = tasks
        .iter()
        .filter(|t| t.id() != task.id() && rta::effective_priority(t).level() <= level)
        .map(|t| (t.wcet(), t.period()))
        .collect();
    profile.sort_unstable();
    profile
}

/// Whether sorted multiset `a` is contained in sorted multiset `b`.
fn is_sub_multiset(a: &[(Time, Time)], b: &[(Time, Time)]) -> bool {
    let mut bi = 0;
    for item in a {
        loop {
            if bi >= b.len() {
                return false;
            }
            if &b[bi] == item {
                bi += 1;
                break;
            }
            if b[bi] > *item {
                return false;
            }
            bi += 1;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use spms_task::Priority;

    fn task(id: u32, wcet_us: u64, period_us: u64, prio: u32) -> Task {
        let mut t =
            Task::new(id, Time::from_micros(wcet_us), Time::from_micros(period_us)).unwrap();
        t.set_priority(Priority::new(prio));
        t
    }

    fn assert_matches_scratch(cache: &CachedCoreAnalysis) {
        let tasks: Vec<Task> = cache.tasks().cloned().collect();
        assert_eq!(cache.analysis(), rta::analyse_core(&tasks));
    }

    #[test]
    fn corrupt_then_audit_detects_and_rebuilds() {
        let mut cache = CachedCoreAnalysis::from_tasks(&[task(0, 1, 4, 2), task(1, 2, 10, 3)]);
        assert!(!cache.corruption_marked());
        assert!(cache.corrupt_first_response());
        assert!(cache.corruption_marked());
        // The audit notices the flipped memo, quarantines it, and rebuilds
        // from scratch.
        assert!(!cache.audit());
        assert!(!cache.corruption_marked());
        assert_matches_scratch(&cache);
        // A second audit on the repaired cache acquits it.
        assert!(cache.audit());
    }

    #[test]
    fn corrupt_first_response_needs_a_positive_converged_response() {
        let mut empty = CachedCoreAnalysis::new();
        assert!(!empty.corrupt_first_response());
        assert!(!empty.corruption_marked());
    }

    #[test]
    fn empty_cache_is_schedulable() {
        let cache = CachedCoreAnalysis::new();
        assert!(cache.is_schedulable());
        assert!(cache.is_empty());
        assert_matches_scratch(&cache);
    }

    #[test]
    fn insert_orders_by_priority_then_id() {
        let mut cache = CachedCoreAnalysis::new();
        cache.insert(task(2, 1, 10, 4));
        cache.insert(task(0, 1, 10, 2));
        cache.insert(task(1, 1, 10, 4));
        let ids: Vec<u32> = cache.tasks().map(|t| t.id().0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_matches_scratch(&cache);
    }

    #[test]
    fn insert_only_recomputes_at_or_below_and_matches_scratch() {
        let mut cache = CachedCoreAnalysis::new();
        cache.insert(task(0, 1, 4, 2));
        cache.insert(task(1, 2, 10, 3));
        let high_before = cache.response_of(TaskId(0)).unwrap();
        cache.insert(task(2, 3, 20, 4));
        // The top level is untouched; the new bottom level converged.
        assert_eq!(cache.response_of(TaskId(0)).unwrap(), high_before);
        assert_eq!(
            cache.response_of(TaskId(2)).unwrap(),
            Some(Time::from_micros(7))
        );
        assert_matches_scratch(&cache);
    }

    #[test]
    fn remove_restores_pre_insertion_state() {
        let mut cache = CachedCoreAnalysis::new();
        cache.insert(task(0, 1, 4, 2));
        cache.insert(task(1, 2, 10, 3));
        let before = cache.clone();
        cache.insert(task(2, 5, 20, 1));
        assert_ne!(cache, before);
        assert_eq!(cache.remove(TaskId(2)).map(|t| t.id()), Some(TaskId(2)));
        assert_eq!(cache, before);
        assert!(cache.remove(TaskId(9)).is_none());
    }

    #[test]
    fn unschedulable_insertions_are_detected_and_recover_on_removal() {
        let mut cache = CachedCoreAnalysis::new();
        cache.insert(task(0, 6, 10, 2));
        assert!(cache.is_schedulable());
        cache.insert(task(1, 6, 10, 3));
        assert!(!cache.is_schedulable());
        assert_eq!(cache.response_of(TaskId(1)).unwrap(), None);
        assert_matches_scratch(&cache);
        cache.remove(TaskId(0));
        assert!(cache.is_schedulable());
        assert_matches_scratch(&cache);
    }

    #[test]
    fn refresh_reuses_fixed_points_across_level_shifts() {
        // Renormalization shifts numeric levels without reordering: every
        // response must carry over bit-identically.
        let initial = [task(0, 1, 4, 2), task(1, 2, 10, 3), task(2, 3, 20, 4)];
        let mut cache = CachedCoreAnalysis::from_tasks(&initial);
        let before: Vec<_> = (0..3)
            .map(|i| cache.response_of(TaskId(i)).unwrap())
            .collect();
        let shifted = [task(0, 1, 4, 5), task(1, 2, 10, 6), task(2, 3, 20, 7)];
        cache.refresh(&shifted);
        let after: Vec<_> = (0..3)
            .map(|i| cache.response_of(TaskId(i)).unwrap())
            .collect();
        assert_eq!(before, after);
        assert_matches_scratch(&cache);
    }

    #[test]
    fn refresh_undo_is_empty_for_noop_and_restores_bit_identically() {
        // A refresh that changes nothing (same tasks, same levels) must
        // record an empty undo — the journal's steady-state cost.
        let initial = [task(0, 1, 4, 2), task(1, 2, 10, 3), task(2, 3, 20, 4)];
        let mut cache = CachedCoreAnalysis::from_tasks(&initial);
        let noop = cache.refresh_with_undo(&initial, RefreshMode::AfterInsert);
        assert!(
            noop.is_empty(),
            "no-op refresh recorded {} deltas",
            noop.len()
        );

        // An insertion-plus-shift refresh records only what changed, and
        // applying the undo restores the prior state bit-identically.
        let before = cache.clone();
        let grown = [
            task(0, 1, 4, 2),
            task(3, 1, 6, 3),
            task(1, 2, 10, 4),
            task(2, 3, 20, 5),
        ];
        let undo = cache.refresh_with_undo(&grown, RefreshMode::AfterInsert);
        assert!(!undo.is_empty());
        assert!(undo.len() <= grown.len(), "undo must stay per-entry");
        assert_matches_scratch(&cache);
        cache.apply_refresh_undo(undo);
        assert_eq!(cache, before);

        // Same round trip through the removal-specialised refresh.
        let before = cache.clone();
        let shrunk = [task(0, 1, 4, 2), task(2, 3, 20, 3)];
        let undo = cache.refresh_with_undo(&shrunk, RefreshMode::AfterRemove);
        assert!(!undo.is_empty());
        assert_matches_scratch(&cache);
        cache.apply_refresh_undo(undo);
        assert_eq!(cache, before);
    }

    #[test]
    fn refresh_undo_round_trips_a_parameter_reshape() {
        // The general refresh can see a same-id task change shape (split
        // re-carves); the undo must restore the old shape outright.
        let mut cache = CachedCoreAnalysis::from_tasks(&[task(0, 1, 4, 2), task(1, 2, 10, 3)]);
        let before = cache.clone();
        let reshaped = [task(0, 2, 4, 2), task(1, 2, 10, 3)];
        let undo = cache.refresh_with_undo(&reshaped, RefreshMode::General);
        assert!(!undo.is_empty());
        assert_matches_scratch(&cache);
        cache.apply_refresh_undo(undo);
        assert_eq!(cache, before);
    }

    #[test]
    fn refresh_handles_parameter_changes_cold() {
        let mut cache = CachedCoreAnalysis::from_tasks(&[task(0, 1, 4, 2), task(1, 2, 10, 3)]);
        cache.refresh(&[task(0, 2, 4, 2), task(1, 2, 10, 3)]);
        assert_matches_scratch(&cache);
        // R = 2 + ⌈R/4⌉·2 → fixed point at 4.
        assert_eq!(
            cache.response_of(TaskId(1)).unwrap(),
            Some(Time::from_micros(4))
        );
    }

    #[test]
    fn prioritised_probe_matches_scratch() {
        let cache = CachedCoreAnalysis::from_tasks(&[task(0, 1, 4, 2), task(1, 2, 10, 3)]);
        let fits = task(2, 3, 20, 4);
        let too_big = task(3, 12, 20, 4);
        for candidate in [&fits, &too_big] {
            let mut combined: Vec<Task> = cache.tasks().cloned().collect();
            combined.push(candidate.clone());
            assert_eq!(
                cache.accepts_prioritised(candidate),
                rta::is_core_schedulable(&combined),
                "probe diverged from scratch for task {}",
                candidate.id()
            );
        }
        // Probes never mutate.
        let snapshot = cache.clone();
        let _ = cache.accepts_prioritised(&fits);
        assert_eq!(cache, snapshot);
    }

    #[test]
    fn probe_counts_peer_interference() {
        // Regression tied to the priority-tie fix: a 60% peer at the same
        // level must reject a second 60% candidate.
        let cache = CachedCoreAnalysis::from_tasks(&[task(0, 6, 10, 5)]);
        assert!(!cache.accepts_prioritised(&task(1, 6, 10, 5)));
        assert!(cache.accepts_prioritised(&task(1, 3, 10, 5)));
    }

    #[test]
    fn probe_on_unschedulable_core_rejects() {
        let cache = CachedCoreAnalysis::from_tasks(&[task(0, 6, 10, 2), task(1, 6, 10, 3)]);
        assert!(!cache.is_schedulable());
        assert!(!cache.accepts_prioritised(&task(2, 1, 1000, 9)));
    }

    #[test]
    fn slack_accessors_match_response_times() {
        let cache = CachedCoreAnalysis::from_tasks(&[task(0, 1, 4, 2), task(1, 2, 10, 3)]);
        // R0 = 1 → slack 3; R1 = 3 → slack 7.
        assert_eq!(cache.slack_of(TaskId(0)), Some(Some(Time::from_micros(3))));
        assert_eq!(cache.slack_of(TaskId(1)), Some(Some(Time::from_micros(7))));
        assert_eq!(cache.slack_of(TaskId(9)), None);
        let doomed = CachedCoreAnalysis::from_tasks(&[task(0, 6, 10, 2), task(1, 6, 10, 3)]);
        assert_eq!(doomed.slack_of(TaskId(1)), Some(None));
    }

    #[test]
    fn probe_candidate_localizes_the_blocker() {
        let cache = CachedCoreAnalysis::from_tasks(&[task(0, 1, 4, 2), task(1, 2, 10, 3)]);
        // Accepted: no blocker.
        assert_eq!(
            cache.probe_candidate(&task(2, 3, 20, 4), |_| true, |_| false),
            None
        );
        // A candidate whose own recurrence exceeds its constrained deadline
        // blocks on itself (it absorbs the entries' interference).
        let constrained = Task::builder(3)
            .wcet(Time::from_micros(9))
            .period(Time::from_micros(40))
            .deadline(Time::from_micros(12))
            .priority(Priority::new(4))
            .build()
            .unwrap();
        assert_eq!(
            cache.probe_candidate(&constrained, |_| false, |_| false),
            Some(TaskId(3))
        );
        // A candidate that outranks everything converges itself but pushes
        // an entry over its deadline: that entry is the blocker (τ0 still
        // fits exactly at R = D = 4; τ1 diverges past 10).
        assert_eq!(
            cache.probe_candidate(&task(4, 3, 4, 0), |_| true, |_| false),
            Some(TaskId(1))
        );
    }

    #[test]
    fn eviction_probe_matches_scratch() {
        // Three tasks; probing "remove one or two, add candidate" must
        // agree with a from-scratch analysis of the modified core for every
        // victim set.
        let tasks = [task(0, 1, 4, 2), task(1, 3, 10, 3), task(2, 4, 20, 4)];
        let cache = CachedCoreAnalysis::from_tasks(&tasks);
        let victim_sets: Vec<Vec<TaskId>> = (0..tasks.len())
            .flat_map(|a| (a..tasks.len()).map(move |b| (a, b)))
            .map(|(a, b)| {
                let mut set = vec![tasks[a].id(), tasks[b].id()];
                set.dedup();
                set
            })
            .collect();
        for candidate in [task(7, 5, 20, 5), task(8, 11, 20, 5), task(9, 2, 8, 1)] {
            let level = rta::effective_priority(&candidate).level();
            for victims in &victim_sets {
                let mut modified: Vec<Task> = tasks
                    .iter()
                    .filter(|t| !victims.contains(&t.id()))
                    .cloned()
                    .collect();
                modified.push(candidate.clone());
                assert_eq!(
                    cache.accepts_candidate_without(
                        &candidate,
                        victims,
                        |t| rta::effective_priority(t).level() > level,
                        |t| rta::effective_priority(t).level() == level,
                    ),
                    rta::is_core_schedulable(&modified),
                    "eviction probe diverged for candidate {} victims {victims:?}",
                    candidate.id(),
                );
            }
        }
        // Unknown victims fall back to the plain probe.
        assert_eq!(
            cache.accepts_candidate_without(&task(7, 5, 20, 5), &[TaskId(42)], |_| true, |_| false),
            cache.accepts_candidate(&task(7, 5, 20, 5), |_| true, |_| false)
        );
    }

    /// A `C = D` piece at level 0 (the promoted body level in the split
    /// planners), with WCET `wcet` and period `period`.
    fn body(wcet: Time, period: Time) -> Task {
        Task::builder(9)
            .wcet(wcet)
            .period(period)
            .deadline(wcet)
            .priority(Priority::new(0))
            .build()
            .unwrap()
    }

    /// Asserts `frontier` is the exact acceptance threshold of the
    /// prioritised probe for body pieces of `period`.
    fn assert_threshold(cache: &CachedCoreAnalysis, frontier: Time, period: Time) {
        assert!(frontier <= period);
        if !frontier.is_zero() {
            assert!(
                cache.accepts_prioritised(&body(frontier, period)),
                "frontier {frontier} rejected at period {period}"
            );
        }
        if frontier < period {
            assert!(
                !cache.accepts_prioritised(&body(frontier + Time::from_nanos(1), period)),
                "frontier {frontier} is not the largest accepted WCET at period {period}"
            );
        }
    }

    #[test]
    fn frontier_of_an_empty_core_is_the_period() {
        let period = Time::from_micros(20);
        assert_eq!(
            CachedCoreAnalysis::new().promoted_wcet_frontier(Priority::new(0), period),
            period
        );
    }

    #[test]
    fn frontier_respects_a_constrained_tail() {
        // A promoted tail (level 1, C = 2, T = 20, D = 6) and a whole task
        // (level 2, C = 3, T = D = 10) under a body of period 10. The tail
        // leaves 6 − 2 = 4 µs at t = D = 6; the whole task leaves
        // 10 − 3 − 2 = 5 µs at t = 10. The tail binds.
        let tail = Task::builder(0)
            .wcet(Time::from_micros(2))
            .period(Time::from_micros(20))
            .deadline(Time::from_micros(6))
            .priority(Priority::new(1))
            .build()
            .unwrap();
        let cache = CachedCoreAnalysis::from_tasks(&[tail, task(1, 3, 10, 2)]);
        let period = Time::from_micros(10);
        let frontier = cache.promoted_wcet_frontier(Priority::new(0), period);
        assert_eq!(frontier, Time::from_micros(4));
        assert_threshold(&cache, frontier, period);
    }

    #[test]
    fn frontier_matches_the_probe_threshold_across_periods() {
        // Short interfering periods put the best scheduling point below the
        // deadline; the frontier must still be the probe's exact threshold.
        let cache = CachedCoreAnalysis::from_tasks(&[
            task(0, 1, 4, 2),
            task(1, 2, 12, 3),
            task(2, 3, 30, 4),
        ]);
        for period_us in [1u64, 3, 5, 8, 12, 17, 30, 60, 200] {
            let period = Time::from_micros(period_us);
            let frontier = cache.promoted_wcet_frontier(Priority::new(0), period);
            assert_threshold(&cache, frontier, period);
        }
    }

    #[test]
    fn frontier_is_zero_beside_a_peer_or_higher_priority_entry() {
        // A C = D piece has no room for interference: a peer at its level,
        // or any entry above it, rejects every positive WCET.
        let period = Time::from_micros(100);
        let peer = CachedCoreAnalysis::from_tasks(&[task(0, 1, 100, 0)]);
        assert_eq!(
            peer.promoted_wcet_frontier(Priority::new(0), period),
            Time::ZERO
        );
        assert!(!peer.accepts_prioritised(&body(Time::from_nanos(1), period)));
        let above = CachedCoreAnalysis::from_tasks(&[task(0, 1, 100, 0), task(1, 1, 100, 5)]);
        assert_eq!(
            above.promoted_wcet_frontier(Priority::new(1), period),
            Time::ZERO
        );
    }

    #[test]
    fn frontier_is_zero_on_unschedulable_core() {
        let cache = CachedCoreAnalysis::from_tasks(&[task(0, 6, 10, 2), task(1, 6, 10, 3)]);
        assert!(!cache.is_schedulable());
        assert_eq!(
            cache.promoted_wcet_frontier(Priority::new(0), Time::from_micros(1000)),
            Time::ZERO
        );
    }

    #[test]
    fn frontier_counts_its_scheduling_points() {
        let cache = CachedCoreAnalysis::from_tasks(&[task(0, 1, 4, 2), task(1, 2, 12, 3)]);
        let before = scoped::thread_snapshot();
        let _ = cache.promoted_wcet_frontier(Priority::new(0), Time::from_micros(12));
        assert!(before.since().get(HotCounter::FrontierPoints) > 0);
        let before = scoped::thread_snapshot();
        let _ = CachedCoreAnalysis::new().promoted_wcet_frontier(Priority::new(0), Time::MAX);
        assert_eq!(before.since().get(HotCounter::FrontierPoints), 0);
    }

    #[test]
    fn sub_multiset_logic() {
        let a = Time::from_micros(1);
        let b = Time::from_micros(2);
        assert!(is_sub_multiset(&[], &[(a, b)]));
        assert!(is_sub_multiset(&[(a, b)], &[(a, b), (b, b)]));
        assert!(!is_sub_multiset(&[(a, b), (a, b)], &[(a, b)]));
        assert!(!is_sub_multiset(&[(b, b)], &[(a, b)]));
    }
}
