//! Unification with an occurs check.

use std::collections::HashMap;

use super::term::Term;

/// A substitution: variable name → term. Bindings may chain (X → Y,
/// Y → tom); [`Subst::resolve`] walks chains to the fixpoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Subst {
    map: HashMap<String, Term>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Subst {
        Subst::default()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The direct binding of `v`, if any (no chain walking).
    pub fn get(&self, v: &str) -> Option<&Term> {
        self.map.get(v)
    }

    /// Walk a term one level: follow variable bindings until an unbound
    /// variable or a non-variable term surfaces.
    pub fn walk<'a>(&'a self, t: &'a Term) -> &'a Term {
        let mut cur = t;
        while let Term::Var(v) = cur {
            match self.map.get(v) {
                Some(next) => cur = next,
                None => break,
            }
        }
        cur
    }

    /// Fully resolve a term: walk and recurse into compounds, producing a
    /// term with every bound variable replaced.
    pub fn resolve(&self, t: &Term) -> Term {
        let walked = self.walk(t);
        match walked {
            Term::Compound(f, args) => {
                Term::Compound(f.clone(), args.iter().map(|a| self.resolve(a)).collect())
            }
            other => other.clone(),
        }
    }

    fn bind(&mut self, v: String, t: Term) {
        self.map.insert(v, t);
    }

    /// Does variable `v` occur in (the resolved form of) `t`? The occurs
    /// check that keeps unification sound.
    fn occurs(&self, v: &str, t: &Term) -> bool {
        match self.walk(t) {
            Term::Var(w) => w == v,
            Term::Compound(_, args) => args.iter().any(|a| self.occurs(v, a)),
            _ => false,
        }
    }
}

/// Unify `a` and `b` under `s`, extending it in place. Returns `false`
/// (leaving `s` in an undefined intermediate state — callers clone first
/// when they need rollback) if the terms do not unify.
pub fn unify(s: &mut Subst, a: &Term, b: &Term) -> bool {
    let wa = s.walk(a).clone();
    let wb = s.walk(b).clone();
    match (wa, wb) {
        (Term::Var(v), Term::Var(w)) if v == w => true,
        (Term::Var(v), t) | (t, Term::Var(v)) => {
            if s.occurs(&v, &t) {
                false
            } else {
                s.bind(v, t);
                true
            }
        }
        (Term::Atom(x), Term::Atom(y)) => x == y,
        (Term::Int(x), Term::Int(y)) => x == y,
        (Term::Compound(f, xs), Term::Compound(g, ys)) => {
            if f != g || xs.len() != ys.len() {
                return false;
            }
            xs.iter().zip(ys.iter()).all(|(x, y)| unify(s, x, y))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms_and_ints() {
        let mut s = Subst::new();
        assert!(unify(&mut s, &Term::atom("a"), &Term::atom("a")));
        assert!(!unify(&mut s, &Term::atom("a"), &Term::atom("b")));
        assert!(unify(&mut s, &Term::Int(3), &Term::Int(3)));
        assert!(!unify(&mut s, &Term::Int(3), &Term::Int(4)));
        assert!(!unify(&mut s, &Term::Int(3), &Term::atom("3")));
    }

    #[test]
    fn variable_binding_and_resolution() {
        let mut s = Subst::new();
        assert!(unify(&mut s, &Term::var("X"), &Term::atom("tom")));
        assert_eq!(s.resolve(&Term::var("X")), Term::atom("tom"));
        // Chained: Y = X.
        assert!(unify(&mut s, &Term::var("Y"), &Term::var("X")));
        assert_eq!(s.resolve(&Term::var("Y")), Term::atom("tom"));
    }

    #[test]
    fn compound_unification_binds_arguments() {
        let mut s = Subst::new();
        let a = Term::compound("parent", vec![Term::var("X"), Term::atom("bob")]);
        let b = Term::compound("parent", vec![Term::atom("tom"), Term::var("Y")]);
        assert!(unify(&mut s, &a, &b));
        assert_eq!(s.resolve(&Term::var("X")), Term::atom("tom"));
        assert_eq!(s.resolve(&Term::var("Y")), Term::atom("bob"));
    }

    #[test]
    fn functor_or_arity_mismatch() {
        let mut s = Subst::new();
        let a = Term::compound("f", vec![Term::Int(1)]);
        let b = Term::compound("g", vec![Term::Int(1)]);
        assert!(!unify(&mut s, &a, &b));
        let c = Term::compound("f", vec![Term::Int(1), Term::Int(2)]);
        let mut s2 = Subst::new();
        assert!(!unify(&mut s2, &a, &c));
    }

    #[test]
    fn occurs_check_rejects_infinite_terms() {
        let mut s = Subst::new();
        let x = Term::var("X");
        let fx = Term::compound("f", vec![Term::var("X")]);
        assert!(
            !unify(&mut s, &x, &fx),
            "X = f(X) must fail the occurs check"
        );
    }

    #[test]
    fn same_variable_unifies_with_itself() {
        let mut s = Subst::new();
        assert!(unify(&mut s, &Term::var("X"), &Term::var("X")));
        assert!(s.is_empty(), "no binding needed");
    }

    #[test]
    fn resolve_rebuilds_nested_structure() {
        let mut s = Subst::new();
        assert!(unify(&mut s, &Term::var("X"), &Term::Int(1)));
        let t = Term::list(vec![Term::var("X"), Term::var("Y")]);
        let r = s.resolve(&t);
        assert_eq!(r.to_string(), "[1,Y]");
        assert_eq!(s.len(), 1);
    }
}
