//! Property-based tests of the predicate algebra.

use proptest::prelude::*;
use worlds::predicate::{Compat, Pid, PredicateSet};

fn arb_set() -> impl Strategy<Value = PredicateSet> {
    (
        proptest::collection::btree_set(0u64..20, 0..6),
        proptest::collection::btree_set(0u64..20, 0..6),
    )
        .prop_filter_map("must/cant overlap", |(m, c)| {
            if m.is_disjoint(&c) {
                Some(PredicateSet::new(
                    m.into_iter().map(Pid),
                    c.into_iter().map(Pid),
                ))
            } else {
                None
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// compat() outcomes are exhaustive and their sets are always
    /// consistent; exactly one of the split copies accepts the message's
    /// assertion `complete(sender)`.
    #[test]
    fn compat_outcomes_are_consistent(r in arb_set(), s in arb_set(), sender in 0u64..20) {
        let sender = Pid(sender);
        match r.compat(sender, &s) {
            Compat::Accept => {
                // Accept requires R to imply every sender assumption.
                prop_assert!(r.implies(&s));
            }
            Compat::AcceptExtend(ext) => {
                prop_assert!(ext.is_consistent());
                prop_assert!(ext.implies(&r), "extension only adds assumptions");
                prop_assert!(ext.implies(&s));
                prop_assert!(ext.assumes_completes(sender));
            }
            Compat::Ignore => {
                // A direct conflict, a receiver that bet against the
                // sender's completion, or a self-contradictory message.
                prop_assert!(
                    r.conflicts_with(&s)
                        || r.assumes_fails(sender)
                        || s.assumes_fails(sender)
                );
            }
            Compat::Split { with, without } => {
                prop_assert!(with.is_consistent());
                prop_assert!(without.is_consistent());
                prop_assert!(with.assumes_completes(sender));
                prop_assert!(without.assumes_fails(sender));
                // Both copies preserve every assumption the receiver held.
                prop_assert!(with.implies(&r));
                prop_assert!(without.implies(&r));
                // The accepting copy implies all sender assumptions.
                prop_assert!(with.implies(&s));
                // The two copies are mutually exclusive worlds.
                prop_assert!(with.conflicts_with(&without));
            }
        }
    }

    /// Resolving every pid mentioned in a set empties it, and the set is
    /// doomed iff some fate contradicts an assumption.
    #[test]
    fn full_resolution_empties_the_set(
        set in arb_set(),
        completes in proptest::collection::btree_set(0u64..20, 0..20),
    ) {
        let mut s = set.clone();
        let mut doomed = false;
        for pid in set.must_complete().chain(set.cant_complete()) {
            let completed = completes.contains(&pid.raw());
            let expect_doom = (set.assumes_completes(pid) && !completed)
                || (set.assumes_fails(pid) && completed);
            let res = s.resolve(pid, completed);
            if expect_doom {
                prop_assert_eq!(res, worlds::predicate::Resolution::Doomed);
                doomed = true;
            }
        }
        prop_assert!(s.is_resolved());
        let any_contradiction = set
            .must_complete()
            .any(|p| !completes.contains(&p.raw()))
            || set.cant_complete().any(|p| completes.contains(&p.raw()));
        prop_assert_eq!(doomed, any_contradiction);
    }

    /// Exactly one world in a spawned sibling cohort survives any total
    /// assignment of fates in which one designated sibling completes —
    /// the invariant behind "at most one alternative takes effect".
    #[test]
    fn sibling_cohort_has_a_unique_survivor(n in 2usize..8, winner in 0usize..8) {
        let winner = winner % n;
        let parent = PredicateSet::empty();
        let sibs: Vec<Pid> = (100..100 + n as u64).map(Pid).collect();
        let cohort: Vec<PredicateSet> = sibs
            .iter()
            .map(|&me| PredicateSet::for_spawned_child(&parent, me, &sibs))
            .collect();

        let mut survivors = 0;
        for (i, member) in cohort.iter().enumerate() {
            let mut set = member.clone();
            let mut doomed = false;
            for (j, &sib) in sibs.iter().enumerate() {
                if set.resolve(sib, j == winner) == worlds::predicate::Resolution::Doomed {
                    doomed = true;
                }
            }
            if !doomed {
                prop_assert_eq!(i, winner);
                survivors += 1;
            }
        }
        prop_assert_eq!(survivors, 1);
    }

    /// A message between rival siblings is always ignored (their worlds are
    /// mutually exclusive by construction).
    #[test]
    fn rival_siblings_never_hear_each_other(n in 2usize..8) {
        let parent = PredicateSet::empty();
        let sibs: Vec<Pid> = (0..n as u64).map(Pid).collect();
        let cohort: Vec<PredicateSet> = sibs
            .iter()
            .map(|&me| PredicateSet::for_spawned_child(&parent, me, &sibs))
            .collect();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    prop_assert_eq!(
                        cohort[i].compat(sibs[j], &cohort[j]),
                        Compat::Ignore
                    );
                }
            }
        }
    }
}
