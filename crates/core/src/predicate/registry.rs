//! The fate board: system-wide knowledge of which processes completed.
//!
//! §2.4.2 defines `complete(P)`: TRUE when `P` successfully synchronizes
//! with its parent, FALSE when `P` assumed `¬complete(Q)` for some `Q` that
//! completed (i.e. `P` was doomed), and otherwise indeterminate. The
//! [`FateBoard`] records these verdicts so predicate sets can be normalised
//! — true assumptions deleted, doomed worlds flagged for elimination.

use std::collections::HashMap;

use super::pid::Pid;
use super::set::{PredicateSet, Resolution};

/// The known fate of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Still running or blocked: `complete()` is indeterminate.
    Pending,
    /// Synchronized successfully with its parent.
    Completed,
    /// Aborted, timed out, was eliminated, or was doomed by a falsified
    /// assumption.
    Failed,
}

/// A registry of resolved process fates.
#[derive(Debug, Default, Clone)]
pub struct FateBoard {
    fates: HashMap<Pid, Fate>,
}

impl FateBoard {
    /// An empty board: everything pending.
    pub fn new() -> Self {
        FateBoard::default()
    }

    /// Record a verdict. A process's fate is final: re-recording a
    /// *different* final fate panics (it would mean the synchronization
    /// protocol double-fired), re-recording the same fate is a no-op.
    pub fn record(&mut self, pid: Pid, fate: Fate) {
        assert_ne!(fate, Fate::Pending, "cannot record Pending as a verdict");
        match self.fates.insert(pid, fate) {
            None => {}
            Some(prev) => assert_eq!(
                prev, fate,
                "conflicting fates recorded for {pid}: {prev:?} then {fate:?}"
            ),
        }
    }

    /// The current fate of `pid` (Pending when nothing is recorded).
    pub fn fate(&self, pid: Pid) -> Fate {
        self.fates.get(&pid).copied().unwrap_or(Fate::Pending)
    }

    /// Number of recorded verdicts.
    pub fn resolved_count(&self) -> usize {
        self.fates.len()
    }

    /// Apply every known verdict to `set`, deleting now-true assumptions.
    /// Returns `true` if the world holding the set is **doomed** (some
    /// assumption was falsified).
    pub fn normalize(&self, set: &mut PredicateSet) -> bool {
        let mut doomed = false;
        // Collect first: resolve() mutates the set.
        let pids: Vec<Pid> = set.must_complete().chain(set.cant_complete()).collect();
        for pid in pids {
            match self.fate(pid) {
                Fate::Pending => {}
                Fate::Completed => {
                    if set.resolve(pid, true) == Resolution::Doomed {
                        doomed = true;
                    }
                }
                Fate::Failed => {
                    if set.resolve(pid, false) == Resolution::Doomed {
                        doomed = true;
                    }
                }
            }
        }
        doomed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> Pid {
        Pid(n)
    }

    #[test]
    fn unknown_is_pending() {
        let b = FateBoard::new();
        assert_eq!(b.fate(p(1)), Fate::Pending);
        assert_eq!(b.resolved_count(), 0);
    }

    #[test]
    fn record_and_query() {
        let mut b = FateBoard::new();
        b.record(p(1), Fate::Completed);
        b.record(p(2), Fate::Failed);
        assert_eq!(b.fate(p(1)), Fate::Completed);
        assert_eq!(b.fate(p(2)), Fate::Failed);
        assert_eq!(b.resolved_count(), 2);
    }

    #[test]
    fn re_recording_same_fate_is_ok() {
        let mut b = FateBoard::new();
        b.record(p(1), Fate::Completed);
        b.record(p(1), Fate::Completed);
        assert_eq!(b.resolved_count(), 1);
    }

    #[test]
    #[should_panic(expected = "conflicting fates")]
    fn conflicting_fate_panics() {
        let mut b = FateBoard::new();
        b.record(p(1), Fate::Completed);
        b.record(p(1), Fate::Failed);
    }

    #[test]
    #[should_panic(expected = "Pending")]
    fn pending_verdict_panics() {
        let mut b = FateBoard::new();
        b.record(p(1), Fate::Pending);
    }

    #[test]
    fn normalize_deletes_true_assumptions() {
        let mut b = FateBoard::new();
        b.record(p(1), Fate::Completed);
        b.record(p(2), Fate::Failed);
        let mut set = PredicateSet::new([p(1), p(3)], [p(2), p(4)]);
        let doomed = b.normalize(&mut set);
        assert!(!doomed);
        // 1 and 2 resolved true; 3 and 4 still pending.
        assert!(set.assumes_completes(p(3)));
        assert!(set.assumes_fails(p(4)));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn normalize_dooms_falsified_worlds() {
        let mut b = FateBoard::new();
        b.record(p(1), Fate::Completed);
        // This world bet against P1 ("sibling rivalry") and lost.
        let mut set = PredicateSet::new([p(9)], [p(1)]);
        assert!(b.normalize(&mut set));
        // The surviving assumption about P9 is untouched.
        assert!(set.assumes_completes(p(9)));
    }

    #[test]
    fn normalize_dooms_on_failed_must() {
        let mut b = FateBoard::new();
        b.record(p(9), Fate::Failed);
        let mut set = PredicateSet::new([p(9)], []);
        assert!(b.normalize(&mut set));
        assert!(set.is_resolved());
    }
}
