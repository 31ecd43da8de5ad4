//! Built-in predicates: unification, arithmetic evaluation, comparison.
//!
//! The engine's parser is operator-free, so arithmetic uses prefix
//! functors (the style of early logic systems): `plus/2`, `minus/2`,
//! `times/2`, `div/2`, `mod/2`, `neg/1`. Builtins are deterministic —
//! zero or one solution — and never consult the clause database:
//!
//! | goal | meaning |
//! |------|---------|
//! | `eq(A, B)` | unify `A` with `B` |
//! | `is(X, E)` | evaluate arithmetic `E`, unify `X` with the result |
//! | `lt/gt/leq/geq/neq/eqq (A, B)` | arithmetic comparison (both sides evaluated) |

use super::term::Term;
use super::unify::{unify, Subst};

/// Result of attempting a builtin.
#[allow(clippy::enum_variant_names)] // `NotBuiltin` is the clearest name for the passthrough case
pub(crate) enum Builtin {
    /// Not a builtin: resolve against the database as usual.
    NotBuiltin,
    /// Builtin succeeded; the substitution was extended in place.
    Succeeded,
    /// Builtin failed (comparison false, unification impossible,
    /// evaluation error such as an unbound variable or division by zero).
    Failed,
}

/// Evaluate an arithmetic term under `s` to an integer.
pub fn eval_arith(s: &Subst, t: &Term) -> Option<i64> {
    match s.walk(t).clone() {
        Term::Int(i) => Some(i),
        Term::Compound(f, args) => {
            let bin = |s: &Subst, args: &[Term]| -> Option<(i64, i64)> {
                if args.len() != 2 {
                    return None;
                }
                Some((eval_arith(s, &args[0])?, eval_arith(s, &args[1])?))
            };
            match f.as_str() {
                "plus" => bin(s, &args).map(|(a, b)| a.wrapping_add(b)),
                "minus" => bin(s, &args).map(|(a, b)| a.wrapping_sub(b)),
                "times" => bin(s, &args).map(|(a, b)| a.wrapping_mul(b)),
                "div" => bin(s, &args).and_then(|(a, b)| if b == 0 { None } else { Some(a / b) }),
                "mod" => bin(s, &args).and_then(|(a, b)| if b == 0 { None } else { Some(a % b) }),
                "neg" if args.len() == 1 => eval_arith(s, &args[0]).map(|a| -a),
                _ => None,
            }
        }
        _ => None, // unbound variable or atom: not arithmetic
    }
}

/// Try `goal` as a builtin, extending `s` on success.
pub(crate) fn try_builtin(s: &mut Subst, goal: &Term) -> Builtin {
    let Term::Compound(f, args) = goal else {
        return Builtin::NotBuiltin;
    };
    match (f.as_str(), args.len()) {
        ("eq", 2) => {
            if unify(s, &args[0], &args[1]) {
                Builtin::Succeeded
            } else {
                Builtin::Failed
            }
        }
        ("is", 2) => match eval_arith(s, &args[1]) {
            Some(v) => {
                if unify(s, &args[0], &Term::Int(v)) {
                    Builtin::Succeeded
                } else {
                    Builtin::Failed
                }
            }
            None => Builtin::Failed,
        },
        ("lt", 2) | ("gt", 2) | ("leq", 2) | ("geq", 2) | ("neq", 2) | ("eqq", 2) => {
            let (Some(a), Some(b)) = (eval_arith(s, &args[0]), eval_arith(s, &args[1])) else {
                return Builtin::Failed;
            };
            let ok = match f.as_str() {
                "lt" => a < b,
                "gt" => a > b,
                "leq" => a <= b,
                "geq" => a >= b,
                "neq" => a != b,
                _ => a == b,
            };
            if ok {
                Builtin::Succeeded
            } else {
                Builtin::Failed
            }
        }
        _ => Builtin::NotBuiltin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prolog::parser::parse_query;

    fn goal(src: &str) -> Term {
        parse_query(src).unwrap().remove(0)
    }

    #[test]
    fn arithmetic_evaluation() {
        let s = Subst::new();
        assert_eq!(eval_arith(&s, &goal("plus(2, 3)")), Some(5));
        assert_eq!(eval_arith(&s, &goal("times(minus(10, 4), 2)")), Some(12));
        assert_eq!(eval_arith(&s, &goal("div(7, 2)")), Some(3));
        assert_eq!(eval_arith(&s, &goal("mod(7, 2)")), Some(1));
        assert_eq!(eval_arith(&s, &goal("neg(5)")), Some(-5));
        assert_eq!(eval_arith(&s, &goal("div(1, 0)")), None, "division by zero");
        assert_eq!(eval_arith(&s, &Term::var("X")), None, "unbound variable");
        assert_eq!(eval_arith(&s, &Term::atom("a")), None);
    }

    #[test]
    fn evaluation_follows_bindings() {
        let mut s = Subst::new();
        assert!(unify(&mut s, &Term::var("N"), &Term::Int(6)));
        assert_eq!(eval_arith(&s, &goal("times(N, 7)")), Some(42));
    }

    #[test]
    fn is_binds_the_result() {
        let mut s = Subst::new();
        assert!(matches!(
            try_builtin(&mut s, &goal("is(X, plus(1, 2))")),
            Builtin::Succeeded
        ));
        assert_eq!(s.resolve(&Term::var("X")), Term::Int(3));
        // is with a bound, equal left side succeeds; unequal fails.
        assert!(matches!(
            try_builtin(&mut s, &goal("is(X, plus(1, 2))")),
            Builtin::Succeeded
        ));
        assert!(matches!(
            try_builtin(&mut s, &goal("is(X, plus(2, 2))")),
            Builtin::Failed
        ));
    }

    #[test]
    fn comparisons() {
        let mut s = Subst::new();
        assert!(matches!(
            try_builtin(&mut s, &goal("lt(1, 2)")),
            Builtin::Succeeded
        ));
        assert!(matches!(
            try_builtin(&mut s, &goal("lt(2, 1)")),
            Builtin::Failed
        ));
        assert!(matches!(
            try_builtin(&mut s, &goal("geq(2, 2)")),
            Builtin::Succeeded
        ));
        assert!(matches!(
            try_builtin(&mut s, &goal("neq(1, 2)")),
            Builtin::Succeeded
        ));
        assert!(matches!(
            try_builtin(&mut s, &goal("eqq(3, plus(1, 2))")),
            Builtin::Succeeded
        ));
        assert!(
            matches!(try_builtin(&mut s, &goal("lt(X, 2)")), Builtin::Failed),
            "unbound"
        );
    }

    #[test]
    fn eq_is_unification() {
        let mut s = Subst::new();
        assert!(matches!(
            try_builtin(&mut s, &goal("eq(X, f(1))")),
            Builtin::Succeeded
        ));
        assert_eq!(s.resolve(&Term::var("X")).to_string(), "f(1)");
        assert!(matches!(
            try_builtin(&mut s, &goal("eq(a, b)")),
            Builtin::Failed
        ));
    }

    #[test]
    fn non_builtins_pass_through() {
        let mut s = Subst::new();
        assert!(matches!(
            try_builtin(&mut s, &goal("parent(a, b)")),
            Builtin::NotBuiltin
        ));
        assert!(matches!(
            try_builtin(&mut s, &goal("is(X, Y, Z)")),
            Builtin::NotBuiltin
        ));
    }
}
