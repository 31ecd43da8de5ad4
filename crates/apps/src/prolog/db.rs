//! The clause database (knowledge base + rules).

use super::parser::{parse_program, ParseError};
use super::term::Term;

/// One Horn clause: `head :- body₁, …, bodyₙ.` (facts have empty bodies).
#[derive(Debug, Clone, PartialEq)]
pub struct Clause {
    /// The clause head.
    pub head: Term,
    /// The body goals, left to right.
    pub body: Vec<Term>,
}

impl Clause {
    /// A copy of this clause with every variable freshened by `suffix`.
    pub fn rename(&self, suffix: u64) -> Clause {
        Clause {
            head: self.head.rename(suffix),
            body: self.body.iter().map(|t| t.rename(suffix)).collect(),
        }
    }
}

/// An ordered clause database. Clause order is program order, which is the
/// order sequential resolution tries them — the OR-parallel executor races
/// them instead.
#[derive(Debug, Clone, Default)]
pub struct Database {
    clauses: Vec<Clause>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Parse and load a program text.
    pub fn consult(src: &str) -> Result<Database, ParseError> {
        Ok(Database {
            clauses: parse_program(src)?,
        })
    }

    /// Append a clause.
    pub fn assert_clause(&mut self, clause: Clause) {
        self.clauses.push(clause);
    }

    /// All clauses, in program order.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Clauses whose head could match the goal's functor/arity — the
    /// goal's *choice point*. OR-parallelism races exactly this set.
    pub fn matching(&self, goal: &Term) -> Vec<&Clause> {
        let Some((f, n)) = goal.functor() else {
            return Vec::new();
        };
        self.clauses
            .iter()
            .filter(|c| c.head.functor() == Some((f, n)))
            .collect()
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// True when the database has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAMILY: &str = "\
        parent(tom, bob).\n\
        parent(tom, liz).\n\
        parent(bob, ann).\n\
        grand(X, Z) :- parent(X, Y), parent(Y, Z).";

    #[test]
    fn consult_and_count() {
        let db = Database::consult(FAMILY).unwrap();
        assert_eq!(db.len(), 4);
        assert!(!db.is_empty());
    }

    #[test]
    fn matching_filters_by_functor_and_arity() {
        let db = Database::consult(FAMILY).unwrap();
        let goal = Term::compound("parent", vec![Term::var("A"), Term::var("B")]);
        assert_eq!(db.matching(&goal).len(), 3);
        let goal1 = Term::compound("parent", vec![Term::var("A")]);
        assert_eq!(db.matching(&goal1).len(), 0, "arity must match");
        let none = Term::compound("sibling", vec![Term::var("A"), Term::var("B")]);
        assert_eq!(db.matching(&none).len(), 0);
        assert_eq!(db.matching(&Term::Int(1)).len(), 0, "non-callable goal");
    }

    #[test]
    fn clause_rename_freshens_head_and_body() {
        let db = Database::consult(FAMILY).unwrap();
        let rule = &db.clauses()[3];
        let fresh = rule.rename(42);
        assert_eq!(fresh.head.to_string(), "grand(X#42,Z#42)");
        assert_eq!(fresh.body[0].to_string(), "parent(X#42,Y#42)");
    }

    #[test]
    fn assert_clause_appends() {
        let mut db = Database::new();
        db.assert_clause(Clause {
            head: Term::atom("yes"),
            body: vec![],
        });
        assert_eq!(db.len(), 1);
        assert_eq!(db.matching(&Term::atom("yes")).len(), 1);
    }
}
