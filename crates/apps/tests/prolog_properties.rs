//! Property-based tests of the Horn-clause engine.

use proptest::prelude::*;
use worlds_apps::prolog::{parse_query, solve, unify, Database, SolveConfig, Subst, Term};

/// Random ground (variable-free) terms.
fn arb_ground(depth: u32) -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        "[a-d]{1,3}".prop_map(Term::Atom),
        (-20i64..20).prop_map(Term::Int),
    ];
    leaf.prop_recursive(depth, 16, 3, |inner| {
        ("[f-h]", proptest::collection::vec(inner, 1..3))
            .prop_map(|(f, args)| Term::Compound(f, args))
    })
}

/// Random terms that may contain variables X, Y, Z.
fn arb_term(depth: u32) -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        "[a-d]{1,3}".prop_map(Term::Atom),
        (-20i64..20).prop_map(Term::Int),
        prop_oneof![Just("X"), Just("Y"), Just("Z")].prop_map(Term::var),
    ];
    leaf.prop_recursive(depth, 16, 3, |inner| {
        ("[f-h]", proptest::collection::vec(inner, 1..3))
            .prop_map(|(f, args)| Term::Compound(f, args))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A ground term unifies with itself and the substitution stays empty.
    #[test]
    fn ground_self_unification_is_trivial(t in arb_ground(3)) {
        let mut s = Subst::new();
        prop_assert!(unify(&mut s, &t, &t));
        prop_assert!(s.is_empty());
    }

    /// Two distinct ground terms unify iff they are equal.
    #[test]
    fn ground_unification_is_equality(a in arb_ground(2), b in arb_ground(2)) {
        let mut s = Subst::new();
        prop_assert_eq!(unify(&mut s, &a, &b), a == b);
    }

    /// A variable unifies with any ground term, and resolution then maps
    /// it to exactly that term.
    #[test]
    fn variable_binds_to_anything_ground(t in arb_ground(3)) {
        let mut s = Subst::new();
        prop_assert!(unify(&mut s, &Term::var("X"), &t));
        prop_assert_eq!(s.resolve(&Term::var("X")), t);
    }

    /// Unification is symmetric in outcome: unify(a, b) succeeds iff
    /// unify(b, a) does, and the resolved forms agree.
    #[test]
    fn unification_is_symmetric(a in arb_term(2), b in arb_term(2)) {
        let mut s1 = Subst::new();
        let mut s2 = Subst::new();
        let r1 = unify(&mut s1, &a, &b);
        let r2 = unify(&mut s2, &b, &a);
        prop_assert_eq!(r1, r2);
        if r1 {
            prop_assert_eq!(s1.resolve(&a), s1.resolve(&b), "unifier must equate the terms");
            prop_assert_eq!(s2.resolve(&a), s2.resolve(&b));
        }
    }

    /// After successful unification, applying the substitution yields a
    /// common instance — resolving twice changes nothing (idempotence).
    #[test]
    fn resolution_is_idempotent(a in arb_term(2), b in arb_term(2)) {
        let mut s = Subst::new();
        if unify(&mut s, &a, &b) {
            let ra = s.resolve(&a);
            prop_assert_eq!(s.resolve(&ra), ra.clone());
        }
    }

    /// Database facts: every stored ground fact is derivable, and queries
    /// with a variable enumerate exactly the stored facts in order.
    #[test]
    fn facts_are_what_you_can_prove(names in proptest::collection::btree_set("[a-z]{2,5}", 1..8)) {
        let mut src = String::new();
        for n in &names {
            src.push_str(&format!("item({n}).\n"));
        }
        let db = Database::consult(&src).unwrap();
        let cfg = SolveConfig::default();
        // Each fact is provable.
        for n in &names {
            let goals = parse_query(&format!("item({n})")).unwrap();
            let (sols, _) = solve(&db, &goals, &cfg);
            prop_assert_eq!(sols.len(), 1, "item({}) must be provable", n);
        }
        // A non-fact is not.
        let goals = parse_query("item(zzzzzz)").unwrap();
        let (sols, _) = solve(&db, &goals, &cfg);
        prop_assert!(sols.is_empty());
        // Enumeration matches insertion order.
        let goals = parse_query("item(X)").unwrap();
        let (sols, _) = solve(&db, &goals, &cfg);
        let got: Vec<String> = sols.iter().map(|b| b["X"].to_string()).collect();
        let want: Vec<String> = names.iter().cloned().collect();
        prop_assert_eq!(got, want);
    }

    /// Parser round trip: rendering any term and re-parsing it yields the
    /// same term (for parseable terms: our renderer and parser agree).
    #[test]
    fn parser_display_round_trip(t in arb_term(3)) {
        let rendered = t.to_string();
        let q = format!("wrap({rendered})");
        let parsed = parse_query(&q).expect("rendered terms must re-parse");
        let Term::Compound(_, args) = &parsed[0] else { panic!("wrap expected") };
        prop_assert_eq!(&args[0], &t, "round trip changed the term: {}", rendered);
    }

    /// list append: app(A, B, C) really concatenates, for random lists.
    #[test]
    fn append_concatenates(
        xs in proptest::collection::vec(0i64..50, 0..6),
        ys in proptest::collection::vec(0i64..50, 0..6),
    ) {
        let db = Database::consult(
            "app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).",
        ).unwrap();
        let list = |v: &[i64]| {
            let items: Vec<String> = v.iter().map(|i| i.to_string()).collect();
            format!("[{}]", items.join(","))
        };
        let q = format!("app({}, {}, C)", list(&xs), list(&ys));
        let goals = parse_query(&q).unwrap();
        let (sols, _) = solve(&db, &goals, &SolveConfig::default());
        prop_assert_eq!(sols.len(), 1);
        let mut all = xs.clone();
        all.extend(&ys);
        prop_assert_eq!(sols[0]["C"].to_string(), list(&all));
    }
}
