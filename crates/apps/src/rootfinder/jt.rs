//! The three-stage Jenkins–Traub iteration (CACM Algorithm 419 structure).
//!
//! Stage 1 ("no-shift") smooths the H-polynomial; stage 2 ("fixed-shift")
//! iterates from `s = β·e^{iθ}` — **θ is the starting-angle degree of
//! freedom the paper parallelises over** — until the root estimate
//! stabilises; stage 3 ("variable-shift") polishes to convergence. A bad
//! angle can leave stage 2 circling without convergence: that is the
//! *failure* the paper's Table I counts in its `fails` column.

use super::complex::Complex;
use super::poly::Poly;

/// Tunables for the iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JtConfig {
    /// No-shift smoothing steps (CPOLY uses 5).
    pub stage1_iters: usize,
    /// Fixed-shift budget per root attempt; small budgets make the
    /// algorithm angle-sensitive (more Table-I-style failures), large
    /// budgets make it robust.
    pub stage2_iters: usize,
    /// Variable-shift budget (quadratic convergence: ~10 suffices).
    pub stage3_iters: usize,
    /// Stopping factor: stage 3 stops when
    /// `|p(s)| ≤ eps_factor · ε · Σ|cᵢ||s|^{n-i}`.
    pub eps_factor: f64,
    /// A computed root set is accepted when every residual against the
    /// *original* polynomial satisfies the same bound scaled by this.
    pub verify_factor: f64,
}

impl Default for JtConfig {
    fn default() -> Self {
        JtConfig {
            stage1_iters: 5,
            stage2_iters: 20,
            stage3_iters: 14,
            eps_factor: 20.0,
            verify_factor: 1e6,
        }
    }
}

/// Why a (strict, single-angle) run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FindError {
    /// Stages 2/3 did not converge while finding the `at_root`-th root.
    NoConvergence {
        /// Index of the root being sought when convergence was lost.
        at_root: usize,
        /// Iterations spent before giving up (for workload accounting).
        iterations: u64,
    },
    /// A root was produced but the residual check against the original
    /// polynomial rejected the set.
    ResidualTooLarge {
        /// The worst |p(root)| observed.
        residual: f64,
        /// The acceptance bound it violated.
        bound: f64,
    },
}

impl std::fmt::Display for FindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FindError::NoConvergence {
                at_root,
                iterations,
            } => {
                write!(
                    f,
                    "no convergence at root #{at_root} after {iterations} iterations"
                )
            }
            FindError::ResidualTooLarge { residual, bound } => {
                write!(f, "residual {residual:.3e} exceeds bound {bound:.3e}")
            }
        }
    }
}

impl std::error::Error for FindError {}

/// A successful whole-polynomial result.
#[derive(Debug, Clone)]
pub struct RootReport {
    /// All `degree` roots, in discovery order.
    pub roots: Vec<Complex>,
    /// Worst residual `|p(root)|` against the original polynomial.
    pub max_residual: f64,
    /// Total inner iterations performed (workload measure; Table I's
    /// virtual-time calibration uses it).
    pub iterations: u64,
}

/// Raw H-polynomial (leading-first coefficients, degree ≤ n−1, leading
/// coefficient may be numerically tiny — kept untrimmed on purpose).
type H = Vec<Complex>;

fn eval_raw(coeffs: &[Complex], z: Complex) -> Complex {
    let mut acc = Complex::ZERO;
    for &c in coeffs {
        acc = acc * z + c;
    }
    acc
}

/// One H-iteration: `H' = (H − (H(s)/p(s))·p) / (z − s)`.
fn next_h(p: &Poly, h: &H, s: Complex) -> H {
    let n = p.degree();
    let t = eval_raw(h, s) / p.eval(s);
    // numerator (degree n): pad H with a leading zero.
    let mut acc = Complex::ZERO;
    let mut q = Vec::with_capacity(n);
    for i in 0..=n {
        let hc = if i == 0 { Complex::ZERO } else { h[i - 1] };
        let num_i = hc - t * p.coeffs()[i];
        acc = if i == 0 { num_i } else { acc * s + num_i };
        if i < n {
            q.push(acc);
        }
    }
    q
}

/// Root estimate from the current H: `t = s − p(s)/H̄(s)` with `H̄` the
/// monic normalisation of `H`.
fn root_estimate(p: &Poly, h: &H, s: Complex) -> Complex {
    let lead = h[0];
    if lead.abs() == 0.0 {
        return Complex::new(f64::NAN, f64::NAN);
    }
    let hbar_s = eval_raw(h, s) / lead;
    s - p.eval(s) / hbar_s
}

/// Adams-style evaluation error bound: `Σ|cᵢ|·|s|^{n-i}` (Horner on
/// magnitudes). `|p(s)|` below ~ε times this is numerically zero.
fn eval_bound(p: &Poly, s: Complex) -> f64 {
    let r = s.abs();
    let mut acc = 0.0;
    for c in p.coeffs() {
        acc = acc * r + c.abs();
    }
    acc
}

/// Find one zero of `p` (degree ≥ 1) starting stage 2 at angle
/// `angle_deg` on the Cauchy circle. Returns `(root, iterations)` on
/// success.
pub fn jenkins_traub(p: &Poly, angle_deg: f64, cfg: &JtConfig) -> Option<(Complex, u64)> {
    let n = p.degree();
    assert!(n >= 1, "constant polynomials have no roots");
    let mut iters: u64 = 0;

    // Trivial degrees: closed forms.
    if n == 1 {
        let c = p.coeffs();
        return Some((-(c[1] / c[0]), 1));
    }
    // A root exactly at the origin.
    if p.coeffs()[n].abs() == 0.0 {
        return Some((Complex::ZERO, 1));
    }
    if n == 2 {
        let c = p.coeffs();
        let (a, b, cc) = (c[0], c[1], c[2]);
        let disc = (b * b - a * cc.scale(4.0)).sqrt();
        // Citardauq form with a stable sign choice: q = b ± disc picked to
        // add constructively; the returned root −2c/q is the smaller one,
        // which deflates stably.
        let q = if (b.conj() * disc).re >= 0.0 {
            b + disc
        } else {
            b - disc
        };
        let root = if q.abs() > 0.0 {
            cc.scale(-2.0) / q
        } else {
            Complex::ZERO
        };
        return Some((root, 2));
    }

    let p = p.monic();

    // Stage 1: five no-shift steps from H⁰ = p'.
    let mut h: H = p.derivative().coeffs().to_vec();
    for _ in 0..cfg.stage1_iters {
        h = next_h(&p, &h, Complex::ZERO);
        iters += 1;
    }

    // Stage 2: fixed shift on the Cauchy circle at the caller's angle.
    let beta = p.cauchy_bound();
    let s = Complex::from_polar(beta, angle_deg.to_radians());
    let mut t_prev = Complex::new(f64::NAN, f64::NAN);
    let mut t_prev2 = Complex::new(f64::NAN, f64::NAN);
    let mut t = Complex::ZERO;
    for _ in 0..cfg.stage2_iters {
        h = next_h(&p, &h, s);
        iters += 1;
        t = root_estimate(&p, &h, s);
        if t.is_nan() {
            return None;
        }
        // Two consecutive halvings of the step ⇒ the estimate has settled;
        // move to the variable shift early.
        if !t_prev.is_nan()
            && !t_prev2.is_nan()
            && (t_prev - t_prev2).abs() <= 0.5 * t_prev2.abs()
            && (t - t_prev).abs() <= 0.5 * t_prev.abs()
        {
            break;
        }
        t_prev2 = t_prev;
        t_prev = t;
    }
    if t.is_nan() || !t.is_finite() {
        return None;
    }

    // Stage 3: variable shift from the stage-2 estimate. Whether or not
    // stage 2's settling test fired, stage 3 is attempted from the latest
    // estimate — its own residual test is the arbiter; if it cannot
    // converge within its budget, this starting angle has failed (the
    // paper's Table I `fails` column counts exactly these).
    let mut s = t;
    for _ in 0..cfg.stage3_iters {
        let ps_abs = p.eval(s).abs();
        if ps_abs <= cfg.eps_factor * f64::EPSILON * eval_bound(&p, s) {
            return Some((s, iters));
        }
        h = next_h(&p, &h, s);
        iters += 1;
        let next = root_estimate(&p, &h, s);
        if next.is_nan() || !next.is_finite() {
            return None;
        }
        s = next;
    }
    // Accept if the final point is already numerically a zero.
    if p.eval(s).abs() <= cfg.eps_factor * f64::EPSILON * eval_bound(&p, s) * 10.0 {
        Some((s, iters))
    } else {
        None
    }
}

/// Strict single-angle driver: find **all** roots using the *same*
/// starting angle for every deflation step — no internal retries. This is
/// one "alternative" of the paper's parallel rootfinder; some angles fail.
pub fn find_all_roots(p: &Poly, angle_deg: f64, cfg: &JtConfig) -> Result<RootReport, FindError> {
    let original = p.monic();
    let mut work = original.clone();
    let mut roots = Vec::with_capacity(p.degree());
    let mut iterations: u64 = 0;

    for k in 0..p.degree() {
        match jenkins_traub(&work, angle_deg, cfg) {
            Some((root, it)) => {
                iterations += it;
                roots.push(root);
                if work.degree() > 1 {
                    work = work.deflate(root);
                }
            }
            None => {
                return Err(FindError::NoConvergence {
                    at_root: k,
                    iterations,
                })
            }
        }
    }

    // Polish each root against the ORIGINAL polynomial with a few Newton
    // steps (standard practice: deflation accumulates error).
    let dp = original.derivative();
    for r in roots.iter_mut() {
        for _ in 0..3 {
            let f = original.eval(*r);
            let d = dp.eval(*r);
            if d.abs() == 0.0 {
                break;
            }
            let step = f / d;
            if !step.is_finite() {
                break;
            }
            *r = *r - step;
            iterations += 1;
        }
    }

    let mut max_residual = 0.0f64;
    let mut bound = 0.0f64;
    for &r in &roots {
        max_residual = max_residual.max(original.eval(r).abs());
        bound = bound.max(cfg.verify_factor * f64::EPSILON * eval_bound(&original, r));
    }
    if max_residual > bound {
        return Err(FindError::ResidualTooLarge {
            residual: max_residual,
            bound,
        });
    }
    Ok(RootReport {
        roots,
        max_residual,
        iterations,
    })
}

/// Robust driver: the classical CPOLY retry policy — on failure, advance
/// the starting angle by 94° (up to `retries` times per root). This is the
/// sequential baseline Table I's single-process row corresponds to.
pub fn find_all_roots_robust(
    p: &Poly,
    first_angle_deg: f64,
    retries: usize,
    cfg: &JtConfig,
) -> Result<RootReport, FindError> {
    let original = p.monic();
    let mut work = original.clone();
    let mut roots = Vec::with_capacity(p.degree());
    let mut iterations: u64 = 0;

    for k in 0..p.degree() {
        let mut found = None;
        for attempt in 0..=retries {
            let angle = first_angle_deg + 94.0 * attempt as f64;
            if let Some((root, it)) = jenkins_traub(&work, angle, cfg) {
                iterations += it;
                found = Some(root);
                break;
            }
            // Failed attempts still cost their full stage-2 budget.
            iterations += (cfg.stage1_iters + cfg.stage2_iters) as u64;
        }
        match found {
            Some(root) => {
                roots.push(root);
                if work.degree() > 1 {
                    work = work.deflate(root);
                }
            }
            None => {
                return Err(FindError::NoConvergence {
                    at_root: k,
                    iterations,
                })
            }
        }
    }

    let dp = original.derivative();
    for r in roots.iter_mut() {
        for _ in 0..3 {
            let f = original.eval(*r);
            let d = dp.eval(*r);
            if d.abs() == 0.0 {
                break;
            }
            let step = f / d;
            if !step.is_finite() {
                break;
            }
            *r = *r - step;
            iterations += 1;
        }
    }

    let mut max_residual = 0.0f64;
    for &r in &roots {
        max_residual = max_residual.max(original.eval(r).abs());
    }
    Ok(RootReport {
        roots,
        max_residual,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    fn assert_roots_match(found: &[Complex], expected: &[Complex], tol: f64) {
        assert_eq!(found.len(), expected.len());
        let mut used = vec![false; expected.len()];
        for f in found {
            let mut best = None;
            for (i, e) in expected.iter().enumerate() {
                if used[i] {
                    continue;
                }
                let d = (*f - *e).abs();
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, i));
                }
            }
            let (d, i) = best.expect("unmatched root");
            assert!(
                d < tol,
                "root {f} is {d} away from nearest expected {}",
                expected[i]
            );
            used[i] = true;
        }
    }

    #[test]
    fn linear_and_quadratic_closed_forms() {
        let p = Poly::from_real(&[2.0, -4.0]); // 2z - 4 → z = 2
        let (r, _) = jenkins_traub(&p, 49.0, &JtConfig::default()).unwrap();
        assert!((r - c(2.0, 0.0)).abs() < 1e-12);

        let q = Poly::from_roots(&[c(1.0, 1.0), c(1.0, -1.0)]); // z²-2z+2
        let (r, _) = jenkins_traub(&q, 49.0, &JtConfig::default()).unwrap();
        assert!(q.eval(r).abs() < 1e-10, "residual {}", q.eval(r).abs());
    }

    #[test]
    fn cubic_with_known_roots() {
        let roots = [c(1.0, 0.0), c(-2.0, 0.0), c(0.0, 3.0)];
        let p = Poly::from_roots(&roots);
        let rep = find_all_roots(&p, 49.0, &JtConfig::default()).unwrap();
        assert_roots_match(&rep.roots, &roots, 1e-8);
        assert!(rep.max_residual < 1e-9);
    }

    #[test]
    fn well_separated_degree_10() {
        let roots: Vec<Complex> = (0..10)
            .map(|k| Complex::from_polar(1.0 + k as f64, 0.7 * k as f64))
            .collect();
        let p = Poly::from_roots(&roots);
        let rep = find_all_roots(&p, 49.0, &JtConfig::default()).unwrap();
        assert_roots_match(&rep.roots, &roots, 1e-6);
    }

    #[test]
    fn roots_of_unity_degree_12() {
        // z^12 - 1.
        let mut coeffs = vec![0.0; 13];
        coeffs[0] = 1.0;
        coeffs[12] = -1.0;
        let p = Poly::from_real(&coeffs);
        let expected: Vec<Complex> = (0..12)
            .map(|k| Complex::from_polar(1.0, 2.0 * std::f64::consts::PI * k as f64 / 12.0))
            .collect();
        let rep = find_all_roots_robust(&p, 49.0, 3, &JtConfig::default()).unwrap();
        assert_roots_match(&rep.roots, &expected, 1e-7);
    }

    #[test]
    fn root_at_origin_detected() {
        let p = Poly::from_roots(&[Complex::ZERO, c(2.0, 0.0), c(-1.0, 1.0)]);
        let rep = find_all_roots(&p, 49.0, &JtConfig::default()).unwrap();
        assert!(rep.roots.iter().any(|r| r.abs() < 1e-10));
    }

    #[test]
    fn repeated_roots_converge_with_loose_tolerance() {
        // (z-1)² (z+2): multiple roots halve the attainable accuracy.
        let p = Poly::from_roots(&[c(1.0, 0.0), c(1.0, 0.0), c(-2.0, 0.0)]);
        let rep = find_all_roots_robust(&p, 49.0, 3, &JtConfig::default()).unwrap();
        assert_roots_match(&rep.roots, &[c(1.0, 0.0), c(1.0, 0.0), c(-2.0, 0.0)], 1e-4);
    }

    #[test]
    fn different_angles_cost_different_iterations() {
        // The whole point of Table I: runtime depends on the angle.
        let roots: Vec<Complex> = (0..14)
            .map(|k| Complex::from_polar(0.5 + 0.35 * k as f64, 2.4 * k as f64))
            .collect();
        let p = Poly::from_roots(&roots);
        let cfg = JtConfig::default();
        let mut iter_counts = Vec::new();
        for angle in [13.0, 49.0, 94.0, 143.0, 188.0, 237.0] {
            if let Ok(rep) = find_all_roots(&p, angle, &cfg) {
                iter_counts.push(rep.iterations);
            }
        }
        assert!(iter_counts.len() >= 2, "most angles should succeed");
        let min = iter_counts.iter().min().unwrap();
        let max = iter_counts.iter().max().unwrap();
        assert!(max > min, "angles must differ in cost: {iter_counts:?}");
    }

    #[test]
    fn tight_stage2_budget_can_fail() {
        // With a starved fixed-shift budget some angle fails — the paper's
        // `fails` column is exactly this.
        let roots: Vec<Complex> = (0..16)
            .map(|k| Complex::from_polar(0.9 + 0.05 * (k % 4) as f64, 0.39 * k as f64))
            .collect();
        let p = Poly::from_roots(&roots);
        let starved = JtConfig {
            stage2_iters: 3,
            ..JtConfig::default()
        };
        let mut failures = 0;
        for angle in (0..24).map(|k| 15.0 * k as f64) {
            if find_all_roots(&p, angle, &starved).is_err() {
                failures += 1;
            }
        }
        assert!(
            failures > 0,
            "a 3-iteration stage-2 budget should fail somewhere"
        );
    }

    #[test]
    fn robust_driver_survives_where_strict_fails() {
        let roots: Vec<Complex> = (0..16)
            .map(|k| Complex::from_polar(0.9 + 0.05 * (k % 4) as f64, 0.39 * k as f64))
            .collect();
        let p = Poly::from_roots(&roots);
        let starved = JtConfig {
            stage2_iters: 6,
            ..JtConfig::default()
        };
        // Find an angle where strict fails…
        let failing = (0..24)
            .map(|k| 15.0 * k as f64)
            .find(|&a| find_all_roots(&p, a, &starved).is_err());
        if let Some(angle) = failing {
            // …and check the robust retry policy recovers from it.
            let rep = find_all_roots_robust(&p, angle, 4, &starved);
            assert!(rep.is_ok(), "94-degree retries should recover: {rep:?}");
        }
    }

    #[test]
    fn find_error_display() {
        let e = FindError::NoConvergence {
            at_root: 3,
            iterations: 120,
        };
        assert!(e.to_string().contains("#3"));
        let e = FindError::ResidualTooLarge {
            residual: 1.0,
            bound: 0.5,
        };
        assert!(e.to_string().contains("exceeds"));
    }
}
