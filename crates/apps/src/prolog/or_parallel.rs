//! OR-parallel resolution through Multiple Worlds (§4.2).
//!
//! The top-level goal's matching clauses form the choice point. Each
//! clause becomes one *alternative*: a world that resolves the goal
//! against that clause and then runs the ordinary sequential engine on
//! what remains. The first world to derive a solution wins the block; its
//! bindings are committed into speculative state and its siblings are
//! eliminated — the committed-choice nondeterminism the paper argues for
//! ("since we choose only one alternative, no merging is necessary").

use std::time::Duration;

use worlds::{AltBlock, AltError, ElimMode, RunOutcome, Speculation};

use super::db::Database;
use super::solve::{solve_first, Bindings, SolveConfig};
use super::term::Term;
use super::unify::{unify, Subst};

/// Result of an OR-parallel query.
#[derive(Debug)]
pub struct OrParallelOutcome {
    /// The committed solution, if any branch succeeded.
    pub solution: Option<Bindings>,
    /// Which clause (index into the choice point's clause list) won.
    pub winning_clause: Option<usize>,
    /// Resolution steps spent by the winner.
    pub steps: u64,
    /// Labels of branches that failed.
    pub failed_branches: Vec<String>,
}

/// Solve `goals` with the **first** goal's choice point explored
/// OR-parallel: one world per matching clause, first solution committed.
///
/// Sequential-semantics note: sequential Prolog returns the first solution
/// in *program order*; committed-choice OR-parallelism returns the first
/// in *time order*. Both are solutions of the same goal — this is exactly
/// the nondeterministic selection the paper's §1.1 block semantics allow.
pub fn or_parallel_solve(
    spec: &Speculation,
    db: &Database,
    goals: &[Term],
    cfg: &SolveConfig,
    timeout: Option<Duration>,
) -> OrParallelOutcome {
    let Some((first, rest)) = goals.split_first() else {
        return OrParallelOutcome {
            solution: Some(Bindings::new()),
            winning_clause: None,
            steps: 0,
            failed_branches: Vec::new(),
        };
    };

    // Build the choice point.
    let clauses: Vec<_> = db.matching(first).into_iter().cloned().collect();
    if clauses.is_empty() {
        return OrParallelOutcome {
            solution: None,
            winning_clause: None,
            steps: 0,
            failed_branches: vec!["<no matching clauses>".into()],
        };
    }

    let query_vars: Vec<String> = {
        let mut vs = Vec::new();
        for g in goals {
            for v in g.vars() {
                if !vs.contains(&v) {
                    vs.push(v);
                }
            }
        }
        vs
    };

    let mut block: AltBlock<(usize, Bindings, u64)> = AltBlock::new().elim(ElimMode::Sync);
    if let Some(t) = timeout {
        block = block.timeout(t);
    }

    for (ci, clause) in clauses.iter().enumerate() {
        let clause = clause.clone();
        let db = db.clone();
        let first = first.clone();
        let rest: Vec<Term> = rest.to_vec();
        let cfg = *cfg;
        let query_vars = query_vars.clone();
        let label = format!("clause#{ci}:{}", clause.head);
        block = block.alt(label, move |ctx| {
            ctx.checkpoint()?;
            // Resolve the first goal against this clause only.
            let fresh = clause.rename(1_000_000 + ci as u64);
            let mut s = Subst::new();
            if !unify(&mut s, &first, &fresh.head) {
                return Err(AltError::GuardFailed(format!(
                    "clause #{ci} head does not unify"
                )));
            }
            // Remaining work: the clause body then the rest of the query,
            // all resolved sequentially inside this world.
            let mut remaining: Vec<Term> = fresh.body.iter().map(|t| s.resolve(t)).collect();
            remaining.extend(rest.iter().map(|t| s.resolve(t)));
            ctx.checkpoint()?;
            let (sol, steps) = solve_first(&db, &remaining, &cfg);
            let Some(tail_bindings) = sol else {
                return Err(AltError::GuardFailed(format!(
                    "clause #{ci} derivation failed"
                )));
            };
            // Compose: query vars resolved through s, then through the
            // tail solution's bindings.
            let mut out = Bindings::new();
            for v in &query_vars {
                let through_s = s.resolve(&Term::Var(v.clone()));
                out.insert(v.clone(), substitute(&through_s, &tail_bindings));
            }
            // Record the answer in speculative state: committed iff we win.
            let rendered: String = if out.is_empty() {
                "true".to_string() // ground query: provable, no bindings
            } else {
                out.iter()
                    .map(|(k, t)| format!("{k}={t}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            ctx.put_str("prolog_answer", &rendered)?;
            Ok((ci, out, steps))
        });
    }

    let report = spec.run(block);
    let failed_branches = report
        .alts
        .iter()
        .filter(|a| matches!(a.status, worlds::AltRunStatus::Failed(_)))
        .map(|a| a.label.clone())
        .collect();

    match (report.outcome, report.value) {
        (RunOutcome::Winner { .. }, Some((ci, bindings, steps))) => OrParallelOutcome {
            solution: Some(bindings),
            winning_clause: Some(ci),
            steps,
            failed_branches,
        },
        _ => OrParallelOutcome {
            solution: None,
            winning_clause: None,
            steps: 0,
            failed_branches,
        },
    }
}

/// OR-parallelism at **every** choice point down to `parallel_depth`:
/// each goal's matching clauses race in a nested Multiple-Worlds block
/// (predicates and worlds inherited per §2.3's nesting rule); below the
/// depth limit the ordinary sequential engine takes over.
///
/// Exploiting parallelism at this granularity is exactly the trade-off
/// the paper flags — "how aggressively available parallelism is exploited
/// is a function of the overhead associated with maintaining a process"
/// — so the depth limit is the caller's granularity knob.
pub fn or_parallel_solve_deep(
    spec: &Speculation,
    db: &Database,
    goals: &[Term],
    cfg: &SolveConfig,
    parallel_depth: usize,
) -> Option<Bindings> {
    let query_vars: Vec<String> = {
        let mut vs = Vec::new();
        for g in goals {
            for v in g.vars() {
                if !vs.contains(&v) {
                    vs.push(v);
                }
            }
        }
        vs
    };
    let root = spec.read(|ctx| ctx.world_id());
    let s = deep_solve(
        spec,
        db,
        goals.to_vec(),
        Subst::new(),
        cfg,
        parallel_depth,
        root,
        &worlds::PredicateSet::empty(),
        0,
    )?;
    let mut out = Bindings::new();
    for v in &query_vars {
        out.insert(v.clone(), s.resolve(&Term::Var(v.clone())));
    }
    Some(out)
}

/// Recursive committed-choice search. Returns the solving substitution.
#[allow(clippy::too_many_arguments)] // an internal worker threading executor context
fn deep_solve(
    spec: &Speculation,
    db: &Database,
    goals: Vec<Term>,
    s: Subst,
    cfg: &SolveConfig,
    depth_left: usize,
    world: worlds::WorldId,
    preds: &worlds::PredicateSet,
    fresh_base: u64,
) -> Option<Subst> {
    let Some((goal, rest)) = goals.split_first() else {
        return Some(s);
    };
    let goal = s.resolve(goal);

    if depth_left == 0 {
        // Sequential tail: resolve the remaining conjunction entirely with
        // the ordinary engine, then splice its bindings back.
        let mut remaining = vec![goal.clone()];
        remaining.extend(rest.iter().map(|t| s.resolve(t)));
        let (sol, _) = solve_first(db, &remaining, cfg);
        let tail = sol?;
        let mut s2 = s.clone();
        for (v, t) in &tail {
            if !unify(&mut s2, &Term::Var(v.clone()), t) {
                return None;
            }
        }
        return Some(s2);
    }

    let clauses: Vec<_> = db.matching(&goal).into_iter().cloned().collect();
    if clauses.is_empty() {
        return None;
    }
    if clauses.len() == 1 {
        // Deterministic goal: no block needed, resolve in place.
        let fresh = clauses[0].rename(fresh_base * 131 + 1);
        let mut s2 = s.clone();
        if !unify(&mut s2, &goal, &fresh.head) {
            return None;
        }
        let mut next: Vec<Term> = fresh.body.clone();
        next.extend_from_slice(rest);
        return deep_solve(
            spec,
            db,
            next,
            s2,
            cfg,
            depth_left,
            world,
            preds,
            fresh_base + 1,
        );
    }

    // A real choice point: race the clauses in a nested block.
    let mut block: AltBlock<Subst> = AltBlock::new().elim(ElimMode::Sync);
    for (ci, clause) in clauses.iter().enumerate() {
        let clause = clause.clone();
        let db = db.clone();
        let goal = goal.clone();
        let rest: Vec<Term> = rest.to_vec();
        let s = s.clone();
        let cfg = *cfg;
        let session = spec.clone();
        let label = format!("d{depth_left}c{ci}");
        block = block.alt(label, move |ctx| {
            ctx.checkpoint()?;
            let fresh = clause.rename(fresh_base * 131 + 2 + ci as u64);
            let mut s2 = s.clone();
            if !unify(&mut s2, &goal, &fresh.head) {
                return Err(AltError::GuardFailed("head mismatch".into()));
            }
            let mut next: Vec<Term> = fresh.body.clone();
            next.extend_from_slice(&rest);
            deep_solve(
                &session,
                &db,
                next,
                s2,
                &cfg,
                depth_left - 1,
                ctx.world_id(),
                ctx.predicates(),
                fresh_base + 17,
            )
            .ok_or_else(|| AltError::GuardFailed("branch failed".into()))
        });
    }
    let report = spec.run_in(world, preds, block);
    report.value
}

/// Replace variables in `t` by their bindings in `b` (variables bound to
/// themselves or absent stay as-is).
fn substitute(t: &Term, b: &Bindings) -> Term {
    match t {
        Term::Var(v) => match b.get(v) {
            Some(bound) if bound != t => substitute(bound, b),
            _ => t.clone(),
        },
        Term::Compound(f, args) => {
            Term::Compound(f.clone(), args.iter().map(|a| substitute(a, b)).collect())
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prolog::parser::parse_query;
    use crate::prolog::solve::solve;

    const FAMILY: &str = "\
        parent(tom, bob).\n\
        parent(tom, liz).\n\
        parent(bob, ann).\n\
        parent(bob, pat).\n\
        grand(X, Z) :- parent(X, Y), parent(Y, Z).";

    #[test]
    fn or_parallel_finds_a_valid_solution() {
        let db = Database::consult(FAMILY).unwrap();
        let goals = parse_query("parent(tom, X)").unwrap();
        let spec = Speculation::new();
        let out = or_parallel_solve(&spec, &db, &goals, &SolveConfig::default(), None);
        let sol = out.solution.expect("some branch succeeds");
        let x = sol["X"].to_string();
        // Any sequential solution is acceptable (committed choice).
        let (seq, _) = solve(&db, &goals, &SolveConfig::default());
        let valid: Vec<String> = seq.iter().map(|b| b["X"].to_string()).collect();
        assert!(valid.contains(&x), "{x} must be one of {valid:?}");
        // The committed world carries the same rendered answer.
        let committed = spec.read(|c| c.get_str("prolog_answer")).unwrap();
        assert!(committed.contains(&format!("X={x}")));
    }

    #[test]
    fn failing_branches_are_reported() {
        let db = Database::consult(FAMILY).unwrap();
        // grand(tom, ann) matches only via Y=bob; the rule has one clause,
        // so race parent/2 instead where liz-branch fails the conjunction.
        let goals = parse_query("parent(tom, Y), parent(Y, ann)").unwrap();
        let spec = Speculation::new();
        let out = or_parallel_solve(&spec, &db, &goals, &SolveConfig::default(), None);
        let sol = out.solution.expect("bob branch succeeds");
        assert_eq!(sol["Y"].to_string(), "bob");
        // liz and the two non-tom facts fail.
        assert!(!out.failed_branches.is_empty());
    }

    #[test]
    fn unsolvable_goal_fails_every_branch() {
        let db = Database::consult(FAMILY).unwrap();
        let goals = parse_query("parent(ann, Q)").unwrap();
        let spec = Speculation::new();
        let out = or_parallel_solve(&spec, &db, &goals, &SolveConfig::default(), None);
        assert!(out.solution.is_none());
    }

    #[test]
    fn unknown_predicate_reports_no_choice_point() {
        let db = Database::consult(FAMILY).unwrap();
        let goals = parse_query("married(a, b)").unwrap();
        let spec = Speculation::new();
        let out = or_parallel_solve(&spec, &db, &goals, &SolveConfig::default(), None);
        assert!(out.solution.is_none());
        assert_eq!(out.failed_branches, vec!["<no matching clauses>"]);
    }

    #[test]
    fn deep_or_parallel_agrees_with_sequential() {
        let db = Database::consult(FAMILY).unwrap();
        let cfg = SolveConfig::default();
        for (query, provable) in [
            ("grand(tom, ann)", true),
            ("grand(tom, Z)", true),
            ("grand(ann, Z)", false),
            ("parent(tom, X), parent(X, pat)", true),
        ] {
            let goals = crate::prolog::parser::parse_query(query).unwrap();
            let spec = Speculation::new();
            let deep = or_parallel_solve_deep(&spec, &db, &goals, &cfg, 3);
            let (seq, _) = crate::prolog::solve::solve(&db, &goals, &cfg);
            assert_eq!(
                deep.is_some(),
                !seq.is_empty(),
                "provability mismatch on {query}"
            );
            assert_eq!(provable, !seq.is_empty(), "fixture sanity for {query}");
            if let Some(b) = deep {
                // The deep answer must be one of the sequential answers.
                let rendered: Vec<String> = seq.iter().map(|m| format!("{m:?}")).collect();
                assert!(
                    rendered.contains(&format!("{b:?}")),
                    "deep answer {b:?} not among sequential {rendered:?}"
                );
            }
        }
    }

    #[test]
    fn deep_depth_zero_is_purely_sequential() {
        let db = Database::consult(FAMILY).unwrap();
        let goals = crate::prolog::parser::parse_query("grand(tom, Z)").unwrap();
        let spec = Speculation::new();
        let b = or_parallel_solve_deep(&spec, &db, &goals, &SolveConfig::default(), 0)
            .expect("solvable");
        assert_eq!(
            b["Z"].to_string(),
            "ann",
            "depth 0 = program-order first solution"
        );
    }

    #[test]
    fn deep_nested_choice_points_spawn_nested_blocks() {
        // Recursion through path/2 creates a choice point at each level;
        // parallel_depth 2 races the first two levels and solves the rest
        // sequentially.
        let db = Database::consult(
            "edge(a, b). edge(b, c). edge(c, d). edge(a, x).\n\
             path(U, V) :- edge(U, V).\n\
             path(U, V) :- edge(U, W), path(W, V).",
        )
        .unwrap();
        let goals = crate::prolog::parser::parse_query("path(a, d)").unwrap();
        let spec = Speculation::new();
        let b = or_parallel_solve_deep(&spec, &db, &goals, &SolveConfig::default(), 2);
        assert!(b.is_some(), "a->b->c->d must be derivable");
        // Unsolvable goal still fails cleanly through the nested blocks.
        let goals = crate::prolog::parser::parse_query("path(d, a)").unwrap();
        assert!(or_parallel_solve_deep(&spec, &db, &goals, &SolveConfig::default(), 2).is_none());
    }

    #[test]
    fn empty_goal_list_is_trivially_true() {
        let db = Database::consult(FAMILY).unwrap();
        let spec = Speculation::new();
        let out = or_parallel_solve(&spec, &db, &[], &SolveConfig::default(), None);
        assert_eq!(out.solution, Some(Bindings::new()));
    }

    #[test]
    fn or_parallel_timeout_reports_no_solution() {
        // A wide, unsolvable search that takes well over the timeout to
        // exhaust: the alt_wait timeout must cut the block off first.
        let mut src = String::from("edge(a, c0).\n");
        for i in 0..120 {
            src.push_str(&format!("edge(c{i}, c{}).\n", i + 1));
        }
        src.push_str("path(U, V) :- edge(U, V).\npath(U, V) :- edge(U, W), path(W, V).\n");
        let db = Database::consult(&src).unwrap();
        let goals = crate::prolog::parser::parse_query("path(a, nowhere)").unwrap();
        let spec = Speculation::new();
        let t0 = std::time::Instant::now();
        let out = or_parallel_solve(
            &spec,
            &db,
            &goals,
            &SolveConfig::default(),
            Some(std::time::Duration::from_millis(100)),
        );
        assert!(out.solution.is_none(), "'nowhere' is unreachable");
        // The timeout fired before the exhaustive search finished (the
        // join of cancelled-but-uncooperative workers may add time after
        // the verdict; the verdict itself must not take the full search).
        assert!(t0.elapsed() < std::time::Duration::from_secs(30));
    }

    #[test]
    fn agrees_with_sequential_on_deterministic_query() {
        let db = Database::consult(FAMILY).unwrap();
        let goals = parse_query("grand(tom, ann)").unwrap();
        let spec = Speculation::new();
        let out = or_parallel_solve(&spec, &db, &goals, &SolveConfig::default(), None);
        assert!(out.solution.is_some(), "sequential finds it, so must we");
    }
}
