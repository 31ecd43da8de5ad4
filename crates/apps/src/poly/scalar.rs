//! A concrete polyalgorithm instance: scalar root finding.
//!
//! Three textbook methods with genuinely different success envelopes —
//! the precondition the paper sets for Multiple Worlds to pay off
//! ("expected performance differences between the alternatives, due to
//! data dependencies or use of heuristic methods"):
//!
//! * **bisection** — needs a sign-change bracket; never diverges; slow;
//! * **Newton** — needs only a guess; quadratic near the root; diverges
//!   happily on steep/flat regions (and *learns* where it blew up);
//! * **secant** — derivative-free middle ground.

use std::fmt;
use std::sync::Arc;

use super::knowledge::Knowledge;
use super::method::{Method, MethodError};
use super::Polyalgorithm;

/// A scalar root-finding problem: find `x` with `f(x) = 0`.
#[derive(Clone)]
pub struct ScalarProblem {
    /// The function.
    pub f: Arc<dyn Fn(f64) -> f64 + Send + Sync>,
    /// A sign-change bracket, if the caller has one.
    pub bracket: Option<(f64, f64)>,
    /// An initial guess for open methods.
    pub guess: f64,
    /// Absolute residual tolerance.
    pub tol: f64,
}

impl ScalarProblem {
    /// A problem from a function and a guess (no bracket).
    pub fn new(f: impl Fn(f64) -> f64 + Send + Sync + 'static, guess: f64) -> Self {
        ScalarProblem {
            f: Arc::new(f),
            bracket: None,
            guess,
            tol: 1e-10,
        }
    }

    /// Provide a bracket (builder).
    pub fn bracket(mut self, lo: f64, hi: f64) -> Self {
        self.bracket = Some((lo, hi));
        self
    }

    /// Override the tolerance (builder).
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Evaluate `f`.
    pub fn eval(&self, x: f64) -> f64 {
        (self.f)(x)
    }
}

impl fmt::Debug for ScalarProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScalarProblem")
            .field("bracket", &self.bracket)
            .field("guess", &self.guess)
            .field("tol", &self.tol)
            .finish()
    }
}

/// Bisection: robust whenever a sign-change bracket exists (from the
/// problem or learned by a previous method's scouting).
pub fn bisection() -> Method<ScalarProblem, f64> {
    Method::with_likelihood(
        "bisection",
        |p: &ScalarProblem, k: &Knowledge| {
            if p.bracket.is_some()
                || (k.fact("bracket_lo").is_some() && k.fact("bracket_hi").is_some())
            {
                0.95
            } else {
                0.05
            }
        },
        |p, k| {
            let (mut lo, mut hi) = match p
                .bracket
                .or_else(|| Some((k.fact("bracket_lo")?, k.fact("bracket_hi")?)))
            {
                Some(b) => b,
                None => return Err(MethodError::NotApplicable("no bracket".into())),
            };
            let (flo, fhi) = (p.eval(lo), p.eval(hi));
            if flo == 0.0 {
                return Ok(lo);
            }
            if fhi == 0.0 {
                return Ok(hi);
            }
            if flo.signum() == fhi.signum() {
                return Err(MethodError::NotApplicable(format!(
                    "no sign change on [{lo}, {hi}]"
                )));
            }
            let mut flo = flo;
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                let fmid = p.eval(mid);
                if fmid.abs() <= p.tol || (hi - lo).abs() <= f64::EPSILON * mid.abs().max(1.0) {
                    return Ok(mid);
                }
                if flo.signum() == fmid.signum() {
                    lo = mid;
                    flo = fmid;
                } else {
                    hi = mid;
                }
            }
            Err(MethodError::Diverged("bisection iteration cap".into()))
        },
    )
}

/// Newton with a central-difference derivative. Fails informatively: a
/// divergence records the last iterate and, when it stumbled across a
/// sign change on the way, a bracket for bisection to use.
pub fn newton(max_iters: usize) -> Method<ScalarProblem, f64> {
    Method::with_likelihood(
        "newton",
        |_, k: &Knowledge| if k.has_failed("newton") { 0.0 } else { 0.6 },
        move |p: &ScalarProblem, k: &mut Knowledge| {
            let mut x = p.guess;
            let mut prev = (x, p.eval(x));
            for _ in 0..max_iters {
                let fx = p.eval(x);
                if fx.abs() <= p.tol {
                    return Ok(x);
                }
                // Opportunistic bracket scouting for later methods.
                if fx.signum() != prev.1.signum() && prev.1.is_finite() {
                    k.learn("bracket_lo", prev.0.min(x));
                    k.learn("bracket_hi", prev.0.max(x));
                }
                prev = (x, fx);
                let h = 1e-6 * x.abs().max(1.0);
                let d = (p.eval(x + h) - p.eval(x - h)) / (2.0 * h);
                if d.abs() < 1e-300 {
                    k.learn("flat_at", x);
                    return Err(MethodError::Diverged(format!("flat derivative at {x}")));
                }
                let next = x - fx / d;
                if !next.is_finite() || next.abs() > 1e12 {
                    k.learn("last_iterate", x);
                    return Err(MethodError::Diverged(format!("iterate escaped from {x}")));
                }
                x = next;
            }
            k.learn("last_iterate", x);
            Err(MethodError::Diverged(format!(
                "no convergence after {max_iters} iters"
            )))
        },
    )
}

/// Secant from `guess` and `guess + 1`.
pub fn secant(max_iters: usize) -> Method<ScalarProblem, f64> {
    Method::new(
        "secant",
        0.5,
        move |p: &ScalarProblem, k: &mut Knowledge| {
            let (mut x0, mut x1) = (p.guess, p.guess + 1.0);
            let (mut f0, mut f1) = (p.eval(x0), p.eval(x1));
            for _ in 0..max_iters {
                if f1.abs() <= p.tol {
                    return Ok(x1);
                }
                if f0.signum() != f1.signum() {
                    k.learn("bracket_lo", x0.min(x1));
                    k.learn("bracket_hi", x0.max(x1));
                }
                let denom = f1 - f0;
                if denom.abs() < 1e-300 {
                    return Err(MethodError::Diverged(format!("flat secant at {x1}")));
                }
                let next = x1 - f1 * (x1 - x0) / denom;
                if !next.is_finite() || next.abs() > 1e12 {
                    k.learn("last_iterate", x1);
                    return Err(MethodError::Diverged(format!("iterate escaped from {x1}")));
                }
                x0 = x1;
                f0 = f1;
                x1 = next;
                f1 = p.eval(x1);
            }
            k.learn("last_iterate", x1);
            Err(MethodError::Diverged(format!(
                "no convergence after {max_iters} iters"
            )))
        },
    )
}

/// The standard scalar polyalgorithm: Newton, secant, bisection, with
/// their likelihood heuristics.
pub fn standard_polyalgorithm() -> Polyalgorithm<ScalarProblem, f64> {
    Polyalgorithm::new()
        .method(newton(60))
        .method(secant(80))
        .method(bisection())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::PolyOutcome;

    fn classic() -> ScalarProblem {
        // x³ − 2x − 5: the root Newton was born for (x ≈ 2.0945514).
        ScalarProblem::new(|x| x * x * x - 2.0 * x - 5.0, 2.0).bracket(2.0, 3.0)
    }

    #[test]
    fn each_method_solves_the_classic() {
        for m in [newton(60), secant(80), bisection()] {
            let mut k = Knowledge::new();
            let x = m.attempt(&classic(), &mut k).unwrap_or_else(|e| {
                panic!("{} failed: {e}", m.name);
            });
            assert!((x - 2.094551481542327).abs() < 1e-7, "{}: x = {x}", m.name);
        }
    }

    #[test]
    fn bisection_demands_a_bracket() {
        let no_bracket = ScalarProblem::new(|x| x - 1.0, 0.0);
        let mut k = Knowledge::new();
        assert!(matches!(
            bisection().attempt(&no_bracket, &mut k),
            Err(MethodError::NotApplicable(_))
        ));
        // …but accepts one learned by a scout.
        k.learn("bracket_lo", 0.0);
        k.learn("bracket_hi", 2.0);
        let x = bisection().attempt(&no_bracket, &mut k).unwrap();
        assert!((x - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bisection_rejects_same_sign_bracket() {
        let p = ScalarProblem::new(|x| x * x + 1.0, 0.0).bracket(-1.0, 1.0);
        assert!(matches!(
            bisection().attempt(&p, &mut Knowledge::new()),
            Err(MethodError::NotApplicable(_))
        ));
    }

    #[test]
    fn newton_diverges_on_steep_sigmoid_from_far_guess() {
        // tanh(20x) from x = 3: Newton's first step overshoots violently.
        let p = ScalarProblem::new(|x| (20.0 * x).tanh(), 3.0);
        let mut k = Knowledge::new();
        let r = newton(60).attempt(&p, &mut k);
        assert!(r.is_err(), "expected divergence, got {r:?}");
        assert!(
            k.fact("last_iterate").is_some() || k.fact("flat_at").is_some(),
            "failure must leave information behind"
        );
    }

    #[test]
    fn sequential_polyalgorithm_solves_where_newton_cannot() {
        // With a bracket supplied, the likelihood heuristic puts bisection
        // first and it solves outright; Newton would have diverged.
        let p = ScalarProblem::new(|x| (20.0 * x).tanh(), 3.0).bracket(-1.0, 2.0);
        match standard_polyalgorithm().run_sequential(&p) {
            PolyOutcome::Solved { result, method, .. } => {
                assert!(result.abs() < 1e-6, "root of tanh is 0, got {result}");
                assert_ne!(method, "newton", "newton diverges from x=3 on this problem");
            }
            other => panic!("expected solved, got {other:?}"),
        }
    }

    #[test]
    fn sequential_polyalgorithm_recovers_via_learned_knowledge() {
        // No bracket given: the plan is newton → secant → bisection.
        // Newton on atan(x) from x = 2 overshoots with alternating signs —
        // diverging, but *scouting a bracket* on the way; bisection (whose
        // likelihood jumps once a bracket is known) then uses it.
        let p = ScalarProblem::new(|x| x.atan(), 2.0);
        let out = standard_polyalgorithm().run_sequential(&p);
        match out {
            PolyOutcome::Solved {
                result,
                method,
                attempts,
            } => {
                assert!(result.abs() < 1e-6, "root of tanh is 0, got {result}");
                assert!(
                    attempts >= 2,
                    "the first method must have failed (got {method})"
                );
            }
            PolyOutcome::Unsolved(k) => {
                // Acceptable only if no method ever scouted a bracket —
                // make the failure informative.
                panic!("expected a recovery; knowledge was {k:?}");
            }
        }
    }

    #[test]
    fn fastest_first_beats_the_method_ladder_to_an_answer() {
        let p = ScalarProblem::new(|x| (20.0 * x).tanh(), 3.0).bracket(-1.0, 2.0);
        let spec = worlds::Speculation::new();
        match standard_polyalgorithm().run_fastest_first(&spec, &p, None) {
            PolyOutcome::Solved { result, .. } => {
                assert!(result.abs() < 1e-6, "root of tanh is 0, got {result}");
            }
            other => panic!("expected solved, got {other:?}"),
        }
    }

    #[test]
    fn transcendental_problems() {
        // cos x = x and e^x = 3.
        let fixed_point = ScalarProblem::new(|x| x.cos() - x, 0.5).bracket(0.0, 1.0);
        let exp3 = ScalarProblem::new(|x| x.exp() - 3.0, 1.0).bracket(0.0, 2.0);
        for (p, expect) in [(fixed_point, 0.7390851332151607), (exp3, 3.0f64.ln())] {
            let out = standard_polyalgorithm().run_sequential(&p);
            match out {
                PolyOutcome::Solved { result, .. } => {
                    assert!(
                        (result - expect).abs() < 1e-7,
                        "got {result}, want {expect}"
                    )
                }
                other => panic!("expected solved, got {other:?}"),
            }
        }
    }
}
