//! Solution methods.

use std::fmt;
use std::sync::Arc;

use super::knowledge::Knowledge;

/// Why a method declined or failed to solve the problem.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodError {
    /// The method's preconditions do not hold (e.g. no sign-change
    /// bracket for bisection). Cheap to discover.
    NotApplicable(String),
    /// The method ran and did not converge; carries a diagnostic that is
    /// folded into the shared [`Knowledge`].
    Diverged(String),
}

impl fmt::Display for MethodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodError::NotApplicable(w) => write!(f, "not applicable: {w}"),
            MethodError::Diverged(w) => write!(f, "diverged: {w}"),
        }
    }
}

impl std::error::Error for MethodError {}

type SolveFn<P, R> = Arc<dyn Fn(&P, &mut Knowledge) -> Result<R, MethodError> + Send + Sync>;
type LikelihoodFn<P> = Arc<dyn Fn(&P, &Knowledge) -> f64 + Send + Sync>;

/// One method of a polyalgorithm: a solver plus "information about the
/// circumstances under which \[it\] is likely to be successful".
pub struct Method<P, R> {
    /// Display name.
    pub name: String,
    pub(crate) solve: SolveFn<P, R>,
    pub(crate) likelihood: LikelihoodFn<P>,
}

impl<P, R> Method<P, R> {
    /// A method with a constant success likelihood.
    pub fn new(
        name: impl Into<String>,
        likelihood: f64,
        solve: impl Fn(&P, &mut Knowledge) -> Result<R, MethodError> + Send + Sync + 'static,
    ) -> Self {
        Method {
            name: name.into(),
            solve: Arc::new(solve),
            likelihood: Arc::new(move |_, _| likelihood),
        }
    }

    /// A method whose likelihood depends on the problem and current
    /// knowledge (the NAPSS "circumstances" predicate).
    pub fn with_likelihood(
        name: impl Into<String>,
        likelihood: impl Fn(&P, &Knowledge) -> f64 + Send + Sync + 'static,
        solve: impl Fn(&P, &mut Knowledge) -> Result<R, MethodError> + Send + Sync + 'static,
    ) -> Self {
        Method {
            name: name.into(),
            solve: Arc::new(solve),
            likelihood: Arc::new(likelihood),
        }
    }

    /// Evaluate the likelihood heuristic.
    pub fn likelihood(&self, problem: &P, knowledge: &Knowledge) -> f64 {
        (self.likelihood)(problem, knowledge)
    }

    /// Attempt the problem.
    pub fn attempt(&self, problem: &P, knowledge: &mut Knowledge) -> Result<R, MethodError> {
        (self.solve)(problem, knowledge)
    }
}

impl<P, R> Clone for Method<P, R> {
    fn clone(&self) -> Self {
        // Manual impl: the Arc'd parts clone without requiring P: Clone
        // or R: Clone (a derive would add those bounds).
        Method {
            name: self.name.clone(),
            solve: self.solve.clone(),
            likelihood: self.likelihood.clone(),
        }
    }
}

impl<P, R> fmt::Debug for Method<P, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Method({})", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_likelihood_method() {
        let m: Method<i32, i32> = Method::new("double", 0.8, |p, _| Ok(p * 2));
        assert_eq!(m.likelihood(&5, &Knowledge::new()), 0.8);
        assert_eq!(m.attempt(&5, &mut Knowledge::new()).unwrap(), 10);
        assert_eq!(format!("{m:?}"), "Method(double)");
    }

    #[test]
    fn knowledge_dependent_likelihood() {
        let m: Method<i32, i32> = Method::with_likelihood(
            "informed",
            |_, k| if k.has_failed("newton") { 0.9 } else { 0.1 },
            |p, _| Ok(*p),
        );
        let mut k = Knowledge::new();
        assert_eq!(m.likelihood(&0, &k), 0.1);
        k.record_failure("newton", "bad luck");
        assert_eq!(m.likelihood(&0, &k), 0.9);
    }

    #[test]
    fn failing_method_reports() {
        let m: Method<i32, i32> = Method::new("nope", 0.5, |_, _| {
            Err(MethodError::Diverged("oops".into()))
        });
        let e = m.attempt(&1, &mut Knowledge::new()).unwrap_err();
        assert!(e.to_string().contains("oops"));
    }
}
