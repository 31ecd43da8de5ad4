//! Depth-bounded SLD resolution with backtracking — the sequential
//! semantics the OR-parallel executor must preserve.

use std::collections::BTreeMap;

use super::builtins::{try_builtin, Builtin};
use super::db::Database;
use super::term::Term;
use super::unify::{unify, Subst};

/// One solution: the query's variables resolved to ground (or residual)
/// terms, ordered by variable name for determinism.
pub type Bindings = BTreeMap<String, Term>;

/// Resolution limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveConfig {
    /// Maximum resolution depth (goal-stack growth); guards against
    /// left-recursive programs.
    pub max_depth: usize,
    /// Stop after this many solutions.
    pub max_solutions: usize,
    /// Hard cap on resolution steps (unification attempts); the cost
    /// measure benches use.
    pub max_steps: u64,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            max_depth: 512,
            max_solutions: usize::MAX,
            max_steps: 10_000_000,
        }
    }
}

struct Search<'a> {
    db: &'a Database,
    cfg: SolveConfig,
    fresh: u64,
    steps: u64,
    solutions: Vec<(Bindings, Subst)>,
    query_vars: Vec<String>,
}

impl<'a> Search<'a> {
    fn run(&mut self, goals: &[Term], s: &Subst, depth: usize) {
        if self.solutions.len() >= self.cfg.max_solutions || self.steps >= self.cfg.max_steps {
            return;
        }
        if depth > self.cfg.max_depth {
            return;
        }
        let Some((goal, rest)) = goals.split_first() else {
            // All goals discharged: record the solution.
            let mut b = Bindings::new();
            for v in &self.query_vars {
                b.insert(v.clone(), s.resolve(&Term::Var(v.clone())));
            }
            self.solutions.push((b, s.clone()));
            return;
        };
        let goal = s.resolve(goal);
        // Negation as failure: not(G) succeeds iff G has no solution in
        // the current state (with the same limits). Sound for ground
        // goals; residual variables make it "floundering" negation, as in
        // classical engines — documented, not detected.
        if let Term::Compound(f, args) = &goal {
            if f == "not" && args.len() == 1 {
                self.steps += 1;
                let sub_cfg = SolveConfig {
                    max_solutions: 1,
                    max_depth: self.cfg.max_depth.saturating_sub(depth),
                    max_steps: self.cfg.max_steps.saturating_sub(self.steps),
                };
                let (sols, sub_steps) = solve(self.db, &args[..1], &sub_cfg);
                self.steps += sub_steps;
                if sols.is_empty() {
                    self.run(rest, s, depth + 1);
                }
                return;
            }
        }
        // Builtins are deterministic: handle and recurse, never consult
        // the database.
        let mut s_builtin = s.clone();
        match try_builtin(&mut s_builtin, &goal) {
            Builtin::Succeeded => {
                self.steps += 1;
                self.run(rest, &s_builtin, depth + 1);
                return;
            }
            Builtin::Failed => {
                self.steps += 1;
                return;
            }
            Builtin::NotBuiltin => {}
        }
        for clause in self.db.matching(&goal) {
            if self.solutions.len() >= self.cfg.max_solutions || self.steps >= self.cfg.max_steps {
                return;
            }
            self.steps += 1;
            self.fresh += 1;
            let fresh = clause.rename(self.fresh);
            let mut s2 = s.clone();
            if unify(&mut s2, &goal, &fresh.head) {
                let mut next: Vec<Term> = fresh.body.clone();
                next.extend_from_slice(rest);
                self.run(&next, &s2, depth + 1);
            }
        }
    }
}

/// Find up to `cfg.max_solutions` solutions of `goals` against `db`, in
/// the standard depth-first, program-order search. Also returns the number
/// of resolution steps spent (the workload measure).
pub fn solve(db: &Database, goals: &[Term], cfg: &SolveConfig) -> (Vec<Bindings>, u64) {
    let mut query_vars = Vec::new();
    for g in goals {
        for v in g.vars() {
            if !query_vars.contains(&v) {
                query_vars.push(v);
            }
        }
    }
    let mut search = Search {
        db,
        cfg: *cfg,
        fresh: 0,
        steps: 0,
        solutions: Vec::new(),
        query_vars,
    };
    search.run(goals, &Subst::new(), 0);
    (
        search.solutions.into_iter().map(|(b, _)| b).collect(),
        search.steps,
    )
}

/// First solution only (committed choice), plus steps spent.
pub fn solve_first(db: &Database, goals: &[Term], cfg: &SolveConfig) -> (Option<Bindings>, u64) {
    let cfg = SolveConfig {
        max_solutions: 1,
        ..*cfg
    };
    let (mut sols, steps) = solve(db, goals, &cfg);
    (sols.pop(), steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prolog::parser::parse_query;

    const FAMILY: &str = "\
        parent(tom, bob).\n\
        parent(tom, liz).\n\
        parent(bob, ann).\n\
        parent(bob, pat).\n\
        grand(X, Z) :- parent(X, Y), parent(Y, Z).\n\
        sib(X, Y) :- parent(P, X), parent(P, Y).";

    fn db() -> Database {
        Database::consult(FAMILY).unwrap()
    }

    fn q(s: &str) -> Vec<Term> {
        parse_query(s).unwrap()
    }

    #[test]
    fn ground_query_succeeds_and_fails() {
        let (sols, _) = solve(&db(), &q("parent(tom, bob)"), &SolveConfig::default());
        assert_eq!(sols.len(), 1);
        let (sols, _) = solve(&db(), &q("parent(bob, tom)"), &SolveConfig::default());
        assert!(sols.is_empty());
    }

    #[test]
    fn enumeration_in_program_order() {
        let (sols, _) = solve(&db(), &q("parent(tom, X)"), &SolveConfig::default());
        let xs: Vec<String> = sols.iter().map(|b| b["X"].to_string()).collect();
        assert_eq!(xs, vec!["bob", "liz"]);
    }

    #[test]
    fn rule_resolution_grandparents() {
        let (sols, _) = solve(&db(), &q("grand(tom, Z)"), &SolveConfig::default());
        let zs: Vec<String> = sols.iter().map(|b| b["Z"].to_string()).collect();
        assert_eq!(zs, vec!["ann", "pat"]);
    }

    #[test]
    fn conjunction_shares_bindings() {
        let (sols, _) = solve(
            &db(),
            &q("parent(tom, Y), parent(Y, ann)"),
            &SolveConfig::default(),
        );
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["Y"].to_string(), "bob");
    }

    #[test]
    fn first_solution_commits() {
        let (sol, steps) = solve_first(&db(), &q("parent(tom, X)"), &SolveConfig::default());
        assert_eq!(sol.unwrap()["X"].to_string(), "bob");
        assert!(steps >= 1);
    }

    #[test]
    fn list_append_program() {
        let db = Database::consult(
            "app([], L, L).\n\
             app([H|T], L, [H|R]) :- app(T, L, R).",
        )
        .unwrap();
        // Forward: app([1,2],[3],X).
        let (sols, _) = solve(&db, &q("app([1,2],[3],X)"), &SolveConfig::default());
        assert_eq!(sols[0]["X"].to_string(), "[1,2,3]");
        // Backward (nondeterministic): app(A,B,[1,2]) has 3 splits.
        let (sols, _) = solve(&db, &q("app(A,B,[1,2])"), &SolveConfig::default());
        assert_eq!(sols.len(), 3);
        assert_eq!(sols[0]["A"].to_string(), "[]");
        assert_eq!(sols[2]["B"].to_string(), "[]");
    }

    #[test]
    fn depth_limit_stops_left_recursion() {
        let db = Database::consult("loop(X) :- loop(X).").unwrap();
        let cfg = SolveConfig {
            max_depth: 50,
            ..SolveConfig::default()
        };
        let (sols, steps) = solve(&db, &q("loop(a)"), &cfg);
        assert!(sols.is_empty());
        assert!(
            steps <= 60,
            "depth limit must bound the search: {steps} steps"
        );
    }

    #[test]
    fn step_limit_caps_work() {
        let db = Database::consult(
            "n(z).\n\
             n(s(X)) :- n(X).",
        )
        .unwrap();
        let cfg = SolveConfig {
            max_steps: 100,
            ..SolveConfig::default()
        };
        let (sols, steps) = solve(&db, &q("n(Q)"), &cfg);
        assert!(steps <= 100);
        assert!(!sols.is_empty(), "some solutions found before the cap");
    }

    #[test]
    fn solutions_respect_max_solutions() {
        let cfg = SolveConfig {
            max_solutions: 1,
            ..SolveConfig::default()
        };
        let (sols, _) = solve(&db(), &q("sib(X, Y)"), &cfg);
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn factorial_via_builtins() {
        let db = Database::consult(
            "fact(0, 1).\n\
             fact(N, F) :- gt(N, 0), is(M, minus(N, 1)), fact(M, G), is(F, times(N, G)).",
        )
        .unwrap();
        let (sols, _) = solve(&db, &q("fact(6, F)"), &SolveConfig::default());
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["F"].to_string(), "720");
        // gt(0, 0) fails, so fact(0, F) only matches the base clause.
        let (sols, _) = solve(&db, &q("fact(0, F)"), &SolveConfig::default());
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["F"].to_string(), "1");
    }

    #[test]
    fn list_length_via_builtins() {
        let db = Database::consult(
            "len([], 0).\n\
             len([_H|T], N) :- len(T, M), is(N, plus(M, 1)).",
        )
        .unwrap();
        let (sols, _) = solve(&db, &q("len([a,b,c,d], N)"), &SolveConfig::default());
        assert_eq!(sols[0]["N"].to_string(), "4");
    }

    #[test]
    fn eq_builtin_in_rules() {
        let db = Database::consult("same(X, Y) :- eq(X, Y).").unwrap();
        let (sols, _) = solve(&db, &q("same(f(A), f(3))"), &SolveConfig::default());
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["A"].to_string(), "3");
        let (sols, _) = solve(&db, &q("same(a, b)"), &SolveConfig::default());
        assert!(sols.is_empty());
    }

    #[test]
    fn comparison_guards_prune_branches() {
        let db = Database::consult(
            "classify(N, small) :- lt(N, 10).\n\
             classify(N, large) :- geq(N, 10).",
        )
        .unwrap();
        let (sols, _) = solve(&db, &q("classify(3, C)"), &SolveConfig::default());
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["C"].to_string(), "small");
        let (sols, _) = solve(&db, &q("classify(30, C)"), &SolveConfig::default());
        assert_eq!(sols[0]["C"].to_string(), "large");
    }

    #[test]
    fn negation_as_failure() {
        let db = Database::consult(
            "bird(tweety). bird(sam).\n\
             penguin(sam).\n\
             flies(X) :- bird(X), not(penguin(X)).",
        )
        .unwrap();
        let (sols, _) = solve(&db, &q("flies(tweety)"), &SolveConfig::default());
        assert_eq!(sols.len(), 1);
        let (sols, _) = solve(&db, &q("flies(sam)"), &SolveConfig::default());
        assert!(sols.is_empty(), "penguins do not fly");
        // Enumeration filters through the negation.
        let (sols, _) = solve(&db, &q("flies(W)"), &SolveConfig::default());
        let ws: Vec<String> = sols.iter().map(|b| b["W"].to_string()).collect();
        assert_eq!(ws, vec!["tweety"]);
    }

    #[test]
    fn double_negation_of_ground_goal() {
        let db = Database::consult("p(a).").unwrap();
        let (sols, _) = solve(&db, &q("not(not(p(a)))"), &SolveConfig::default());
        assert_eq!(sols.len(), 1);
        let (sols, _) = solve(&db, &q("not(p(a))"), &SolveConfig::default());
        assert!(sols.is_empty());
        let (sols, _) = solve(&db, &q("not(p(zz))"), &SolveConfig::default());
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn variables_absent_from_query_are_not_reported() {
        let (sols, _) = solve(&db(), &q("grand(tom, Z)"), &SolveConfig::default());
        assert!(sols[0].contains_key("Z"));
        assert!(
            !sols[0].contains_key("Y"),
            "rule-internal variables stay internal"
        );
    }
}
