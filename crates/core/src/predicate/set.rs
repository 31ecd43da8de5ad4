//! Predicate sets: the two id lists and their algebra.

use std::collections::BTreeSet;
use std::fmt;

use super::compat::Compat;
use super::pid::Pid;

/// Outcome of resolving one process's fate against a predicate set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// The set did not mention the process.
    Unaffected,
    /// An assumption became true and was removed from the lists.
    Simplified,
    /// An assumption was falsified: the world holding this set is doomed and
    /// must be eliminated (its `complete()` is FALSE per §2.4.2).
    Doomed,
}

/// A speculation predicate: the assumptions a world runs under.
///
/// "The predicates are lists of process identifiers, some of which the
/// sending process depends on completing successfully and others on which
/// the sending process depends on to not complete successfully" (§2.3).
/// Represented as two ordered sets — "this is easy given the representation
/// as two lists (i.e., 'must complete' and 'can't complete') of process
/// identifiers" (§2.4.2).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct PredicateSet {
    must: BTreeSet<Pid>,
    cant: BTreeSet<Pid>,
}

impl PredicateSet {
    /// The empty (fully resolved) predicate: a non-speculative world.
    pub fn empty() -> Self {
        PredicateSet::default()
    }

    /// Build a set from explicit lists. Panics if the same pid appears in
    /// both lists (a logically impossible world should never be built
    /// directly; splits construct the impossible side as `None`).
    pub fn new<M, C>(must: M, cant: C) -> Self
    where
        M: IntoIterator<Item = Pid>,
        C: IntoIterator<Item = Pid>,
    {
        let set = PredicateSet {
            must: must.into_iter().collect(),
            cant: cant.into_iter().collect(),
        };
        assert!(set.is_consistent(), "predicate set with p in both lists");
        set
    }

    /// The predicate a spawned alternative starts with: the parent's
    /// assumptions, plus *I complete* and *each sibling does not* —
    /// "sibling rivalry is taken to its extreme" (§2.3).
    pub fn for_spawned_child<'a>(
        parent: &PredicateSet,
        self_pid: Pid,
        siblings: impl IntoIterator<Item = &'a Pid>,
    ) -> Self {
        let mut set = parent.clone();
        set.must.insert(self_pid);
        for &sib in siblings {
            if sib != self_pid {
                set.cant.insert(sib);
            }
        }
        debug_assert!(
            set.is_consistent(),
            "parent set conflicted with spawn assumptions"
        );
        set
    }

    /// The predicate of the *failure alternative*: it assumes none of the
    /// real alternatives complete (§2.3: "The failure alternative assumes
    /// that none of the siblings will complete").
    pub fn for_failure_alternative<'a>(
        parent: &PredicateSet,
        siblings: impl IntoIterator<Item = &'a Pid>,
    ) -> Self {
        let mut set = parent.clone();
        for &sib in siblings {
            set.cant.insert(sib);
        }
        set
    }

    /// True when no pid appears in both lists.
    pub fn is_consistent(&self) -> bool {
        self.must.is_disjoint(&self.cant)
    }

    /// True when this world runs under no unsatisfied assumptions, and is
    /// therefore allowed to touch source (non-idempotent) state.
    pub fn is_resolved(&self) -> bool {
        self.must.is_empty() && self.cant.is_empty()
    }

    /// Number of assumptions held.
    pub fn len(&self) -> usize {
        self.must.len() + self.cant.len()
    }

    /// True when both lists are empty (alias of [`Self::is_resolved`], for
    /// collection-like call sites).
    pub fn is_empty(&self) -> bool {
        self.is_resolved()
    }

    /// Does this set assume `pid` completes?
    pub fn assumes_completes(&self, pid: Pid) -> bool {
        self.must.contains(&pid)
    }

    /// Does this set assume `pid` does *not* complete?
    pub fn assumes_fails(&self, pid: Pid) -> bool {
        self.cant.contains(&pid)
    }

    /// Iterate the `must_complete` list in ascending pid order.
    pub fn must_complete(&self) -> impl Iterator<Item = Pid> + '_ {
        self.must.iter().copied()
    }

    /// Iterate the `cant_complete` list in ascending pid order.
    pub fn cant_complete(&self) -> impl Iterator<Item = Pid> + '_ {
        self.cant.iter().copied()
    }

    /// Is every assumption in `other` already implied by `self`?
    /// (Set inclusion `S ⊆ R` in the paper's acceptance rule.)
    pub fn implies(&self, other: &PredicateSet) -> bool {
        other.must.is_subset(&self.must) && other.cant.is_subset(&self.cant)
    }

    /// Does `self` directly contradict `other` (`∃p: p ∈ S ∧ ¬p ∈ R`)?
    pub fn conflicts_with(&self, other: &PredicateSet) -> bool {
        !self.must.is_disjoint(&other.cant) || !self.cant.is_disjoint(&other.must)
    }

    /// Classify an incoming message sent by `sender` under predicate
    /// `sender_set`, per §2.4.2. See [`Compat`] for the four outcomes.
    pub fn compat(&self, sender: Pid, sender_set: &PredicateSet) -> Compat {
        if self.conflicts_with(sender_set) || self.assumes_fails(sender) {
            // "If the receiver's predicates conflict (p ∈ S and ¬p ∈ R),
            // the message is ignored."
            return Compat::Ignore;
        }
        if sender_set.assumes_fails(sender) {
            // A speculative sender always assumes its own completion
            // (sibling rivalry); one whose predicate denies it sends a
            // self-contradictory message, which no world can act on.
            return Compat::Ignore;
        }
        if self.implies(sender_set) {
            // "If the assumptions ... agree with those of the sender
            // (e.g., S ⊆ R), the message is immediately accepted." In
            // particular a non-speculative sender (S = ∅) is always
            // accepted: its message carries no assumptions.
            return Compat::Accept;
        }
        // New assumptions are required. The copy that accepts conjoins
        // complete(sender), "thus implying all the sender's predicates";
        // the other copy negates only complete(sender), avoiding the
        // logical impossibility of negating each predicate individually.
        let mut with = self.clone();
        with.must.extend(sender_set.must.iter().copied());
        with.cant.extend(sender_set.cant.iter().copied());
        with.must.insert(sender);
        debug_assert!(
            with.is_consistent(),
            "conflict should have been caught above"
        );

        if self.assumes_completes(sender) {
            // The receiver already assumed complete(sender); rejecting the
            // message would be self-contradictory, so there is no second
            // world: the receiver simply adopts the sender's assumptions.
            return Compat::AcceptExtend(with);
        }
        let mut without = self.clone();
        without.cant.insert(sender);
        Compat::Split { with, without }
    }

    /// Apply the now-known fate of `pid`. True assumptions are deleted from
    /// the lists ("they can be eliminated from the lists", §2.4.2);
    /// falsified assumptions doom the world.
    pub fn resolve(&mut self, pid: Pid, completed: bool) -> Resolution {
        if completed {
            if self.cant.remove(&pid) {
                return Resolution::Doomed;
            }
            if self.must.remove(&pid) {
                return Resolution::Simplified;
            }
        } else {
            if self.must.remove(&pid) {
                return Resolution::Doomed;
            }
            if self.cant.remove(&pid) {
                return Resolution::Simplified;
            }
        }
        Resolution::Unaffected
    }
}

/// Shared Debug/Display body: `{must: [P1, P2], cant: [P3]}`.
macro_rules! fmt_impl {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{{must: [")?;
            for (i, p) in self.must.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p}")?;
            }
            write!(f, "], cant: [")?;
            for (i, p) in self.cant.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p}")?;
            }
            write!(f, "]}}")
        }
    };
}

impl fmt::Debug for PredicateSet {
    fmt_impl!();
}

impl fmt::Display for PredicateSet {
    fmt_impl!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> Pid {
        Pid(n)
    }

    #[test]
    fn empty_is_resolved_and_consistent() {
        let s = PredicateSet::empty();
        assert!(s.is_resolved());
        assert!(s.is_consistent());
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    #[should_panic(expected = "both lists")]
    fn inconsistent_construction_panics() {
        let _ = PredicateSet::new([p(1)], [p(1)]);
    }

    #[test]
    fn spawned_child_assumes_sibling_rivalry() {
        let parent = PredicateSet::new([p(1)], [p(2)]);
        let sibs = [p(10), p(11), p(12)];
        let child = PredicateSet::for_spawned_child(&parent, p(10), &sibs);
        assert!(child.assumes_completes(p(10)), "assumes self completes");
        assert!(child.assumes_fails(p(11)));
        assert!(child.assumes_fails(p(12)));
        assert!(!child.assumes_fails(p(10)), "self excluded from cant list");
        // Parent assumptions are inherited (nesting).
        assert!(child.assumes_completes(p(1)));
        assert!(child.assumes_fails(p(2)));
        assert_eq!(child.len(), 5);
    }

    #[test]
    fn failure_alternative_assumes_no_sibling_completes() {
        let parent = PredicateSet::empty();
        let sibs = [p(10), p(11)];
        let fail = PredicateSet::for_failure_alternative(&parent, &sibs);
        assert!(fail.assumes_fails(p(10)));
        assert!(fail.assumes_fails(p(11)));
        assert_eq!(fail.must_complete().count(), 0);
    }

    #[test]
    fn implies_is_set_inclusion() {
        let big = PredicateSet::new([p(1), p(2)], [p(3)]);
        let small = PredicateSet::new([p(1)], []);
        assert!(big.implies(&small));
        assert!(!small.implies(&big));
        assert!(big.implies(&PredicateSet::empty()));
    }

    #[test]
    fn conflict_detection() {
        let r = PredicateSet::new([p(1)], [p(2)]);
        let s_ok = PredicateSet::new([p(1)], []);
        let s_bad1 = PredicateSet::new([p(2)], []); // r says 2 can't complete
        let s_bad2 = PredicateSet::new([], [p(1)]); // r says 1 must complete
        assert!(!r.conflicts_with(&s_ok));
        assert!(r.conflicts_with(&s_bad1));
        assert!(r.conflicts_with(&s_bad2));
    }

    #[test]
    fn resolve_completed() {
        let mut s = PredicateSet::new([p(1)], [p(2)]);
        assert_eq!(s.resolve(p(1), true), Resolution::Simplified);
        assert!(!s.assumes_completes(p(1)));
        assert_eq!(s.resolve(p(3), true), Resolution::Unaffected);
        assert_eq!(s.resolve(p(2), true), Resolution::Doomed);
    }

    #[test]
    fn resolve_failed() {
        let mut s = PredicateSet::new([p(1)], [p(2)]);
        assert_eq!(s.resolve(p(2), false), Resolution::Simplified);
        assert_eq!(s.resolve(p(1), false), Resolution::Doomed);
    }

    #[test]
    fn resolution_empties_to_resolved() {
        let mut s = PredicateSet::new([p(1)], [p(2)]);
        s.resolve(p(1), true);
        s.resolve(p(2), false);
        assert!(s.is_resolved());
    }

    #[test]
    fn display_format() {
        let s = PredicateSet::new([p(1), p(2)], [p(3)]);
        assert_eq!(format!("{s}"), "{must: [P1, P2], cant: [P3]}");
        assert_eq!(format!("{s:?}"), "{must: [P1, P2], cant: [P3]}");
    }

    // ---- compat: the §2.4.2 acceptance rule ----

    #[test]
    fn compat_accepts_when_sender_assumptions_are_implied() {
        // Receiver already assumes sender completes and shares its views.
        let sender = p(10);
        let s_set = PredicateSet::new([p(10)], [p(11)]);
        let r = PredicateSet::new([p(10), p(1)], [p(11)]);
        assert_eq!(r.compat(sender, &s_set), Compat::Accept);
    }

    #[test]
    fn compat_ignores_on_conflict() {
        let sender = p(10);
        let s_set = PredicateSet::new([p(10)], [p(11)]);
        // Receiver is the rival sibling's world: it assumes 10 fails.
        let r = PredicateSet::new([p(11)], [p(10)]);
        assert_eq!(r.compat(sender, &s_set), Compat::Ignore);
    }

    #[test]
    fn compat_ignores_message_from_assumed_failure() {
        let sender = p(10);
        let s_set = PredicateSet::empty();
        let r = PredicateSet::new([], [p(10)]);
        assert_eq!(r.compat(sender, &s_set), Compat::Ignore);
    }

    #[test]
    fn compat_splits_on_new_assumptions() {
        let sender = p(10);
        let s_set = PredicateSet::new([p(10)], [p(11)]);
        let r = PredicateSet::new([p(1)], []);
        match r.compat(sender, &s_set) {
            Compat::Split { with, without } => {
                // The accepting copy adopts all sender assumptions plus
                // complete(sender).
                assert!(with.assumes_completes(p(10)));
                assert!(with.assumes_fails(p(11)));
                assert!(
                    with.assumes_completes(p(1)),
                    "receiver's own assumptions kept"
                );
                // The rejecting copy only adds ¬complete(sender).
                assert!(without.assumes_fails(p(10)));
                assert!(
                    !without.assumes_fails(p(11)),
                    "must NOT negate each sender predicate"
                );
                assert!(without.assumes_completes(p(1)));
                assert!(with.is_consistent() && without.is_consistent());
            }
            other => panic!("expected split, got {other:?}"),
        }
    }

    #[test]
    fn compat_extends_when_sender_already_assumed_complete() {
        // Receiver assumes complete(sender) but doesn't know the sender's
        // other assumptions: rejecting would be self-contradictory, so it
        // extends rather than splits.
        let sender = p(10);
        let s_set = PredicateSet::new([p(10), p(5)], []);
        let r = PredicateSet::new([p(10)], []);
        match r.compat(sender, &s_set) {
            Compat::AcceptExtend(ext) => {
                assert!(ext.assumes_completes(p(5)));
                assert!(ext.assumes_completes(p(10)));
            }
            other => panic!("expected AcceptExtend, got {other:?}"),
        }
    }

    #[test]
    fn compat_accepts_non_speculative_senders() {
        // A sender running under no assumptions (e.g. a root process)
        // sends unconditional messages: S = ∅ ⊆ R for every R.
        let sender = p(10);
        let spec_receiver = PredicateSet::new([p(1)], [p(2)]);
        assert_eq!(
            spec_receiver.compat(sender, &PredicateSet::empty()),
            Compat::Accept
        );
        assert_eq!(
            PredicateSet::empty().compat(sender, &PredicateSet::empty()),
            Compat::Accept
        );
    }

    #[test]
    fn compat_split_asserts_sender_completion() {
        // A speculative sender whose set does not happen to mention itself
        // still forces the accepting copy to assume complete(sender).
        let sender = p(10);
        let s_set = PredicateSet::new([p(5)], []);
        match PredicateSet::empty().compat(sender, &s_set) {
            Compat::Split { with, without } => {
                assert!(with.assumes_completes(sender));
                assert!(with.assumes_completes(p(5)));
                assert!(without.assumes_fails(sender));
                assert!(!without.assumes_completes(p(5)));
            }
            other => panic!("expected split, got {other:?}"),
        }
    }
}
