//! Shared body-piece construction and budget search for task splitting.
//!
//! Both the offline FP-TS pass ([`SemiPartitionedFpTs`]) and the online
//! [`IncrementalPlacer`] carve body subtasks the same way: a `C = D` piece
//! at the promoted body priority, sized to the largest budget the per-core
//! acceptance test still admits (found by binary search over the monotone
//! acceptance frontier). This module is the single implementation both call
//! — only the acceptance predicate differs.
//!
//! With a per-core analysis cache under the exact RTA, both callers compute
//! the frontier once in closed form
//! ([`CachedCoreAnalysis::promoted_wcet_frontier`]) and run the search
//! against the arithmetic predicate `budget + overhead ≤ w*`. The probe
//! admits a piece exactly when its WCET is at most `w*`, so the search
//! visits the same midpoints and lands on the same budget as probing each
//! one. Without a cache, or under another test, each midpoint is probed
//! (a plain task list offline, a priority-normalized partition core
//! online); that path is also the debug-build oracle for the frontier.
//!
//! [`SemiPartitionedFpTs`]: crate::SemiPartitionedFpTs
//! [`IncrementalPlacer`]: crate::IncrementalPlacer
//! [`CachedCoreAnalysis::promoted_wcet_frontier`]: spms_analysis::CachedCoreAnalysis::promoted_wcet_frontier

use spms_task::{Task, Time};
use spms_telemetry::scoped;

/// Builds the analysis task of a body piece: `budget` pure execution plus
/// the charged `overhead`, a deadline equal to its own demand (the paper's
/// `C = D` splitting) and the promoted body priority. `None` when the
/// parameters cannot form a valid task.
pub(crate) fn body_piece(template: &Task, budget: Time, overhead: Time) -> Option<Task> {
    let wcet = budget + overhead;
    Task::builder(template.id())
        .wcet(wcet)
        .period(template.period())
        .deadline(wcet.min(template.period()))
        .priority(crate::BODY_PRIORITY)
        .build()
        .ok()
}

/// The largest pure-execution budget in `[min_split_budget, max_budget]`
/// that `accepts` still admits, or [`Time::ZERO`] when not even the minimum
/// fits. `accepts` must be monotone (a smaller budget never fails where a
/// larger one passes); the frontier is located by binary search to 100 ns.
/// Two predicates that agree on every budget visit the same midpoints and
/// return the same budget. The predicate is `FnMut` so callers can count
/// the midpoints it visits.
pub(crate) fn max_accepted_budget(
    min_split_budget: Time,
    max_budget: Time,
    mut accepts: impl FnMut(Time) -> bool,
) -> Time {
    let floor = min_split_budget.max(Time::from_nanos(1));
    if !accepts(floor) {
        return Time::ZERO;
    }
    if accepts(max_budget) {
        return max_budget;
    }
    let mut lo = floor;
    let mut hi = max_budget;
    while hi.saturating_sub(lo) > Time::from_nanos(100) {
        let mid = Time::from_nanos((lo.as_nanos() + hi.as_nanos()) / 2);
        if accepts(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// [`max_accepted_budget`] over the `C = D` body pieces of `template`
/// against an exact WCET `frontier`: a budget is accepted iff its piece
/// exists and its WCET (`budget + overhead`) is at most `frontier`. When
/// `frontier` is the acceptance threshold of `probe`, this visits the same
/// midpoints and returns the same budget as probing each one, which debug
/// builds check. `visit` sees every piece the search would have probed.
pub(crate) fn max_budget_under_frontier(
    min_split_budget: Time,
    max_budget: Time,
    template: &Task,
    overhead: Time,
    frontier: Time,
    mut visit: impl FnMut(&Task),
    probe: impl FnMut(Time) -> bool,
) -> Time {
    let budget = max_accepted_budget(min_split_budget, max_budget, |budget| {
        body_piece(template, budget, overhead).is_some_and(|piece| {
            visit(&piece);
            piece.wcet() <= frontier
        })
    });
    debug_assert_eq!(
        budget,
        scoped::uncounted(|| max_accepted_budget(min_split_budget, max_budget, probe)),
        "frontier budget diverged from the probing search for task {}",
        template.id()
    );
    budget
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_search_finds_the_frontier() {
        let threshold = Time::from_micros(700);
        let budget = max_accepted_budget(Time::from_micros(100), Time::from_millis(5), |b| {
            b <= threshold
        });
        assert!(budget <= threshold);
        assert!(threshold.saturating_sub(budget) <= Time::from_nanos(100));
    }

    #[test]
    fn budget_search_short_circuits_at_the_bounds() {
        let all = max_accepted_budget(Time::from_micros(100), Time::from_millis(1), |_| true);
        assert_eq!(all, Time::from_millis(1));
        let none = max_accepted_budget(Time::from_micros(100), Time::from_millis(1), |_| false);
        assert_eq!(none, Time::ZERO);
    }

    #[test]
    fn body_pieces_are_c_equals_d_at_body_priority() {
        let template = Task::new(3, Time::from_millis(4), Time::from_millis(10)).unwrap();
        let piece = body_piece(&template, Time::from_millis(2), Time::from_micros(50)).unwrap();
        assert_eq!(piece.wcet(), piece.deadline());
        assert_eq!(piece.period(), template.period());
        assert_eq!(piece.priority(), Some(crate::BODY_PRIORITY));
    }
}
