//! The polyalgorithm drivers: sequential (knowledge-accumulating) and
//! Multiple-Worlds fastest-first.

use std::time::Duration;

use worlds::{AltBlock, AltError, ElimMode, Speculation};

use super::knowledge::Knowledge;
use super::method::{Method, MethodError};

/// How a polyalgorithm run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum PolyOutcome<R> {
    /// Some method solved the problem.
    Solved {
        /// The result.
        result: R,
        /// Name of the successful method.
        method: String,
        /// Methods attempted before success (sequential) or raced
        /// (parallel).
        attempts: usize,
    },
    /// Every method failed; the final knowledge explains why.
    Unsolved(Knowledge),
}

impl<R> PolyOutcome<R> {
    /// Did any method succeed?
    pub fn solved(&self) -> bool {
        matches!(self, PolyOutcome::Solved { .. })
    }
}

/// A polyalgorithm: methods + orchestration.
#[derive(Debug, Clone)]
pub struct Polyalgorithm<P, R> {
    methods: Vec<Method<P, R>>,
}

impl<P, R> Polyalgorithm<P, R>
where
    P: Clone + Send + Sync + 'static,
    R: Send + 'static,
{
    /// An empty polyalgorithm.
    pub fn new() -> Self {
        Polyalgorithm {
            methods: Vec::new(),
        }
    }

    /// Add a method (builder).
    pub fn method(mut self, m: Method<P, R>) -> Self {
        self.methods.push(m);
        self
    }

    /// Number of methods.
    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// True when no methods are registered.
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }

    /// The order methods would be tried in for `problem` given current
    /// knowledge: descending likelihood, ties broken by registration
    /// order (deterministic).
    pub fn plan(&self, problem: &P, knowledge: &Knowledge) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.methods.len()).collect();
        idx.sort_by(|&a, &b| {
            let la = self.methods[a].likelihood(problem, knowledge);
            let lb = self.methods[b].likelihood(problem, knowledge);
            lb.partial_cmp(&la)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx
    }

    /// Classical sequential execution: try methods in likelihood order;
    /// failures enrich the shared knowledge, and likelihoods are
    /// re-evaluated after each failure (information built up by failures
    /// can change what to try next).
    pub fn run_sequential(&self, problem: &P) -> PolyOutcome<R> {
        let mut knowledge = Knowledge::new();
        let mut attempts = 0;
        let mut tried = vec![false; self.methods.len()];
        loop {
            let next = self
                .plan(problem, &knowledge)
                .into_iter()
                .find(|&i| !tried[i]);
            let Some(i) = next else {
                return PolyOutcome::Unsolved(knowledge);
            };
            tried[i] = true;
            attempts += 1;
            match self.methods[i].attempt(problem, &mut knowledge) {
                Ok(result) => {
                    return PolyOutcome::Solved {
                        result,
                        method: self.methods[i].name.clone(),
                        attempts,
                    }
                }
                Err(MethodError::NotApplicable(w)) | Err(MethodError::Diverged(w)) => {
                    knowledge.record_failure(&self.methods[i].name, &w);
                }
            }
        }
    }

    /// The paper's fastest-first scheduling: build one alternative per
    /// *rotation* of the likelihood-ordered method list (each alternative
    /// tries a different method first, then continues sequentially through
    /// the rest), and race them through Multiple Worlds. The first
    /// alternative whose leading methods succeed wins; its result is
    /// committed and the rest are eliminated.
    pub fn run_fastest_first(
        &self,
        spec: &Speculation,
        problem: &P,
        timeout: Option<Duration>,
    ) -> PolyOutcome<R> {
        if self.methods.is_empty() {
            return PolyOutcome::Unsolved(Knowledge::new());
        }
        let base_order = self.plan(problem, &Knowledge::new());
        let n = base_order.len();

        let mut block: AltBlock<(R, String)> = AltBlock::new().elim(ElimMode::Sync);
        if let Some(t) = timeout {
            block = block.timeout(t);
        }
        for rot in 0..n {
            let order: Vec<usize> = base_order
                .iter()
                .cycle()
                .skip(rot)
                .take(n)
                .copied()
                .collect();
            let methods = self.methods.clone();
            let problem = problem.clone();
            let first = self.methods[order[0]].name.clone();
            block = block.alt(format!("first={first}"), move |ctx| {
                let mut knowledge = Knowledge::new();
                for &i in &order {
                    ctx.checkpoint()?;
                    match methods[i].attempt(&problem, &mut knowledge) {
                        Ok(result) => {
                            // Persist which method won into speculative
                            // state; committed iff this world wins.
                            ctx.put_str("poly_method", &methods[i].name)?;
                            return Ok((result, methods[i].name.clone()));
                        }
                        Err(MethodError::NotApplicable(w)) | Err(MethodError::Diverged(w)) => {
                            knowledge.record_failure(&methods[i].name, &w);
                        }
                    }
                }
                Err(AltError::GuardFailed(format!(
                    "all {} methods failed: {:?}",
                    methods.len(),
                    knowledge.failures()
                )))
            });
        }
        let report = spec.run(block);
        match report.value {
            Some((result, method)) => PolyOutcome::Solved {
                result,
                method,
                attempts: n,
            },
            None => {
                // Reconstruct the knowledge sequentially for the caller's
                // diagnostics (the speculative knowledge died with the
                // worlds).
                match self.run_sequential(problem) {
                    PolyOutcome::Unsolved(k) => PolyOutcome::Unsolved(k),
                    solved => solved, // racy edge: a method succeeds now
                }
            }
        }
    }
}

impl<P, R> Default for Polyalgorithm<P, R>
where
    P: Clone + Send + Sync + 'static,
    R: Send + 'static,
{
    fn default() -> Self {
        Polyalgorithm {
            methods: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly() -> Polyalgorithm<f64, f64> {
        Polyalgorithm::new()
            .method(Method::new("fails-fast", 0.9, |_, k| {
                k.learn("hint", 42.0);
                Err(MethodError::Diverged("always".into()))
            }))
            .method(Method::with_likelihood(
                "needs-hint",
                |_, k: &Knowledge| if k.fact("hint").is_some() { 1.0 } else { 0.1 },
                |p, k| match k.fact("hint") {
                    Some(h) => Ok(p + h),
                    None => Err(MethodError::NotApplicable("no hint yet".into())),
                },
            ))
            .method(Method::new("fallback", 0.5, |p, _| Ok(*p)))
    }

    #[test]
    fn plan_orders_by_likelihood_then_registration() {
        let p = poly();
        let plan = p.plan(&1.0, &Knowledge::new());
        assert_eq!(plan, vec![0, 2, 1], "0.9, 0.5, 0.1");
        let mut k = Knowledge::new();
        k.learn("hint", 1.0);
        assert_eq!(
            p.plan(&1.0, &k),
            vec![1, 0, 2],
            "hint boosts needs-hint to 1.0"
        );
    }

    #[test]
    fn sequential_accumulates_knowledge_across_failures() {
        // fails-fast fails but learns the hint; the re-planned next method
        // is needs-hint, which now succeeds.
        let out = poly().run_sequential(&1.0);
        match out {
            PolyOutcome::Solved {
                result,
                method,
                attempts,
            } => {
                assert_eq!(method, "needs-hint");
                assert_eq!(result, 43.0);
                assert_eq!(attempts, 2);
            }
            other => panic!("expected solved, got {other:?}"),
        }
    }

    #[test]
    fn sequential_unsolved_keeps_diagnostics() {
        let p: Polyalgorithm<f64, f64> = Polyalgorithm::new()
            .method(Method::new("a", 0.9, |_, _| {
                Err(MethodError::Diverged("x".into()))
            }))
            .method(Method::new("b", 0.1, |_, _| {
                Err(MethodError::NotApplicable("y".into()))
            }));
        match p.run_sequential(&0.0) {
            PolyOutcome::Unsolved(k) => {
                assert_eq!(k.failures().len(), 2);
                assert!(k.has_failed("a") && k.has_failed("b"));
            }
            other => panic!("expected unsolved, got {other:?}"),
        }
    }

    #[test]
    fn fastest_first_commits_a_working_method() {
        let spec = Speculation::new();
        let out = poly().run_fastest_first(&spec, &2.0, None);
        match out {
            PolyOutcome::Solved { result, method, .. } => {
                // Whichever rotation won, the result must be one a
                // sequential run could produce: 44.0 (hint path) or 2.0
                // (fallback-first rotation).
                assert!(
                    (result == 44.0 && method == "needs-hint")
                        || (result == 2.0 && method == "fallback"),
                    "unexpected winner {method} -> {result}"
                );
                // The winning method name was committed to state.
                let committed = spec.read(|c| c.get_str("poly_method")).unwrap();
                assert_eq!(committed, method);
            }
            other => panic!("expected solved, got {other:?}"),
        }
    }

    #[test]
    fn fastest_first_on_unsolvable_problem() {
        let p: Polyalgorithm<f64, f64> =
            Polyalgorithm::new().method(Method::new("a", 0.9, |_, _| {
                Err(MethodError::Diverged("no".into()))
            }));
        let spec = Speculation::new();
        match p.run_fastest_first(&spec, &0.0, None) {
            PolyOutcome::Unsolved(k) => assert!(k.has_failed("a")),
            other => panic!("expected unsolved, got {other:?}"),
        }
    }

    #[test]
    fn empty_polyalgorithm_is_unsolved() {
        let p: Polyalgorithm<f64, f64> = Polyalgorithm::default();
        assert!(p.is_empty());
        assert!(!p.run_sequential(&0.0).solved());
        let spec = Speculation::new();
        assert!(!p.run_fastest_first(&spec, &0.0, None).solved());
    }
}
