//! Property-based tests of the Jenkins–Traub rootfinder: random
//! polynomials built from known roots must have those roots recovered.

use proptest::prelude::*;
use worlds_apps::rootfinder::{find_all_roots_robust, Complex, JtConfig, Poly};

/// Random well-separated roots in an annulus (min pairwise distance
/// enforced so conditioning stays sane).
fn arb_roots(n: usize) -> impl Strategy<Value = Vec<Complex>> {
    proptest::collection::vec((0.5f64..2.5, 0.0f64..std::f64::consts::TAU), n..=n).prop_filter_map(
        "roots too close",
        |polar| {
            let roots: Vec<Complex> = polar
                .iter()
                .map(|&(r, th)| Complex::from_polar(r, th))
                .collect();
            for (i, a) in roots.iter().enumerate() {
                for b in &roots[i + 1..] {
                    if (*a - *b).abs() < 0.15 {
                        return None;
                    }
                }
            }
            Some(roots)
        },
    )
}

fn matched(found: &[Complex], expected: &[Complex], tol: f64) -> bool {
    if found.len() != expected.len() {
        return false;
    }
    let mut used = vec![false; expected.len()];
    'outer: for f in found {
        let mut order: Vec<usize> = (0..expected.len()).collect();
        order.sort_by(|&i, &j| {
            (*f - expected[i])
                .abs()
                .partial_cmp(&(*f - expected[j]).abs())
                .unwrap()
        });
        for i in order {
            if !used[i] && (*f - expected[i]).abs() < tol {
                used[i] = true;
                continue 'outer;
            }
        }
        return false;
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Roots of degree-6 polynomials with well-separated random roots are
    /// recovered by the robust driver from the classical starting angle.
    #[test]
    fn random_sextics_are_solved(roots in arb_roots(6)) {
        let p = Poly::from_roots(&roots);
        let rep = find_all_roots_robust(&p, 49.0, 3, &JtConfig::default())
            .expect("robust driver must converge on well-separated roots");
        prop_assert!(
            matched(&rep.roots, &roots, 1e-5),
            "found {:?}, expected {:?}",
            rep.roots,
            roots
        );
    }

    /// Conjugate-symmetric (real-coefficient) polynomials: the recovered
    /// root set is closed under conjugation to tolerance.
    #[test]
    fn real_polynomials_have_conjugate_closed_roots(
        pairs in arb_roots(2),
        real in 0.5f64..2.0,
    ) {
        // Roots: one real, two conjugate pairs.
        let roots = vec![
            Complex::real(real),
            pairs[0],
            pairs[0].conj(),
            pairs[1],
            pairs[1].conj(),
        ];
        let p = Poly::from_roots(&roots);
        // Coefficients should be (numerically) real.
        for c in p.coeffs() {
            prop_assert!(c.im.abs() < 1e-9 * c.re.abs().max(1.0));
        }
        let rep = find_all_roots_robust(&p, 49.0, 3, &JtConfig::default())
            .expect("must converge");
        for r in &rep.roots {
            let has_conj = rep
                .roots
                .iter()
                .any(|q| (*q - r.conj()).abs() < 1e-4);
            prop_assert!(has_conj, "root {r} has no conjugate partner in {:?}", rep.roots);
        }
    }

    /// Scaling invariance: multiplying all coefficients by a nonzero
    /// constant leaves the roots unchanged.
    #[test]
    fn scaling_coefficients_preserves_roots(roots in arb_roots(4), k in 0.1f64..50.0) {
        let p = Poly::from_roots(&roots);
        let scaled = Poly::new(p.coeffs().iter().map(|c| c.scale(k)).collect());
        let a = find_all_roots_robust(&p, 49.0, 3, &JtConfig::default()).expect("base");
        let b = find_all_roots_robust(&scaled, 49.0, 3, &JtConfig::default()).expect("scaled");
        prop_assert!(matched(&a.roots, &b.roots, 1e-5));
    }
}
