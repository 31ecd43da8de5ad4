//! Test polynomials and the canonical starting-angle table.

use rand::Rng;

use super::complex::Complex;
use super::poly::Poly;

/// Starting angles used by the experiments, in degrees. The first is
/// CPOLY's classical 49°; the rest fan out so that each "alternative" of
/// the parallel rootfinder probes a genuinely different region of the
/// Cauchy circle (consecutive retries in CPOLY advance by 94°).
pub const TEST_ANGLES: [f64; 8] = [49.0, 143.0, 237.0, 331.0, 65.0, 159.0, 253.0, 347.0];

/// A degree-`n` polynomial whose roots are drawn uniformly from an annulus
/// `0.5 ≤ |z| ≤ 2.5` — well-conditioned but non-trivial. Deterministic for
/// a fixed RNG.
pub fn random_roots_poly<R: Rng>(rng: &mut R, n: usize) -> (Poly, Vec<Complex>) {
    assert!(n >= 1);
    let roots: Vec<Complex> = (0..n)
        .map(|_| {
            let r = rng.gen_range(0.5..2.5);
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            Complex::from_polar(r, theta)
        })
        .collect();
    (Poly::from_roots(&roots), roots)
}

/// A clustered, oscillatory polynomial reminiscent of Legendre polynomials'
/// root structure: `n` roots packed along an arc — harder for fixed-shift
/// convergence, good at differentiating starting angles.
pub fn legendre_like(n: usize) -> (Poly, Vec<Complex>) {
    assert!(n >= 1);
    let roots: Vec<Complex> = (0..n)
        .map(|k| {
            // Chebyshev-like clustering on [-1, 1], lifted slightly off the
            // real axis so conjugate symmetry doesn't trivialise angles.
            let x = ((2 * k + 1) as f64 * std::f64::consts::PI / (2 * n) as f64).cos();
            Complex::new(x, 0.05 * ((k % 3) as f64 - 1.0))
        })
        .collect();
    (Poly::from_roots(&roots), roots)
}

/// A Wilkinson-flavoured stress case: roots at 1, 1+h, 1+2h, … — famously
/// ill-conditioned as `h` shrinks. Used to exercise failure paths.
pub fn wilkinson_like(n: usize, spacing: f64) -> (Poly, Vec<Complex>) {
    assert!(n >= 1 && spacing > 0.0);
    let roots: Vec<Complex> = (0..n)
        .map(|k| Complex::new(1.0 + spacing * k as f64, 0.0))
        .collect();
    (Poly::from_roots(&roots), roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rootfinder::jt::{find_all_roots_robust, JtConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn angles_are_distinct_and_in_range() {
        for (i, &a) in TEST_ANGLES.iter().enumerate() {
            assert!((0.0..360.0).contains(&a));
            for &b in &TEST_ANGLES[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn random_poly_is_solvable() {
        let mut rng = StdRng::seed_from_u64(7);
        let (p, roots) = random_roots_poly(&mut rng, 12);
        assert_eq!(p.degree(), 12);
        let rep = find_all_roots_robust(&p, 49.0, 3, &JtConfig::default()).unwrap();
        assert_eq!(rep.roots.len(), roots.len());
        assert!(rep.max_residual < 1e-6 * p.coeff_scale().max(1.0));
    }

    #[test]
    fn legendre_like_structure() {
        let (p, roots) = legendre_like(9);
        assert_eq!(p.degree(), 9);
        assert!(roots.iter().all(|r| r.re.abs() <= 1.0));
    }

    #[test]
    fn wilkinson_like_tight_spacing_stresses_the_finder() {
        // Tightly clustered real roots are the classical ill-conditioned
        // case: the robust driver must either succeed with a loose
        // residual or fail *cleanly* (no panics, no bogus root count).
        let (p, _) = wilkinson_like(8, 0.02);
        match find_all_roots_robust(&p, 49.0, 4, &JtConfig::default()) {
            Ok(rep) => {
                assert_eq!(rep.roots.len(), 8);
                for r in &rep.roots {
                    assert!(
                        r.re > 0.8 && r.re < 1.4 && r.im.abs() < 0.1,
                        "root {r} strayed from the cluster"
                    );
                }
            }
            Err(e) => {
                // Acceptable: the failure is reported, not hidden.
                let _ = e.to_string();
            }
        }
    }

    #[test]
    fn wilkinson_like_spacing() {
        let (p, roots) = wilkinson_like(5, 0.1);
        assert_eq!(p.degree(), 5);
        assert!((roots[4].re - 1.4).abs() < 1e-12);
    }
}
