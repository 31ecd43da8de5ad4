//! Complex polynomials: evaluation, synthetic division, Cauchy bound.

use super::complex::Complex;

/// A complex polynomial, stored leading-coefficient-first:
/// `p(z) = c[0]·zⁿ + c[1]·zⁿ⁻¹ + … + c[n]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Poly {
    coeffs: Vec<Complex>,
}

impl Poly {
    /// Build from leading-first coefficients. Leading zeros are trimmed;
    /// the zero polynomial is rejected (it has no well-defined zero set).
    pub fn new(coeffs: Vec<Complex>) -> Poly {
        let first_nonzero = coeffs
            .iter()
            .position(|c| c.abs() > 0.0)
            .expect("the zero polynomial has no roots to find");
        Poly {
            coeffs: coeffs[first_nonzero..].to_vec(),
        }
    }

    /// Build from real coefficients, leading first.
    pub fn from_real(coeffs: &[f64]) -> Poly {
        Poly::new(coeffs.iter().map(|&c| Complex::real(c)).collect())
    }

    /// The monic polynomial with exactly these roots.
    pub fn from_roots(roots: &[Complex]) -> Poly {
        let mut coeffs = vec![Complex::ONE];
        for &r in roots {
            // Multiply by (z - r).
            let mut next = vec![Complex::ZERO; coeffs.len() + 1];
            for (i, &c) in coeffs.iter().enumerate() {
                next[i] += c;
                next[i + 1] += -r * c;
            }
            coeffs = next;
        }
        Poly { coeffs }
    }

    /// Degree (number of roots, counted with multiplicity).
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Coefficients, leading first.
    pub fn coeffs(&self) -> &[Complex] {
        &self.coeffs
    }

    /// Evaluate by Horner's rule.
    pub fn eval(&self, z: Complex) -> Complex {
        let mut acc = Complex::ZERO;
        for &c in &self.coeffs {
            acc = acc * z + c;
        }
        acc
    }

    /// The formal derivative.
    pub fn derivative(&self) -> Poly {
        let n = self.degree();
        if n == 0 {
            // Derivative of a constant: conventionally the constant 0 has
            // no roots; callers never differentiate degree-0 polys, but
            // return a harmless constant 1·z⁰ scaled by 0 guard.
            return Poly {
                coeffs: vec![Complex::ZERO, Complex::ONE],
            };
        }
        let coeffs = self
            .coeffs
            .iter()
            .take(n)
            .enumerate()
            .map(|(i, &c)| c.scale((n - i) as f64))
            .collect();
        Poly::new(coeffs)
    }

    /// Divide in place by `(z − s)` via synthetic division, returning
    /// `(quotient, remainder)` where `remainder == p(s)`.
    pub fn synthetic_div(&self, s: Complex) -> (Poly, Complex) {
        let mut q = Vec::with_capacity(self.coeffs.len() - 1);
        let mut acc = Complex::ZERO;
        for (i, &c) in self.coeffs.iter().enumerate() {
            acc = if i == 0 { c } else { acc * s + c };
            if i < self.coeffs.len() - 1 {
                q.push(acc);
            }
        }
        let rem = if self.coeffs.len() == 1 {
            self.coeffs[0]
        } else {
            acc
        };
        if q.is_empty() {
            // Dividing a constant: quotient is zero-degree 0 (callers
            // guard), keep a constant 0 placeholder via ONE*0.
            return (
                Poly {
                    coeffs: vec![Complex::ZERO],
                },
                rem,
            );
        }
        (Poly { coeffs: q }, rem)
    }

    /// Deflate by a discovered root (quotient of synthetic division).
    pub fn deflate(&self, root: Complex) -> Poly {
        assert!(self.degree() >= 1, "cannot deflate a constant");
        self.synthetic_div(root).0
    }

    /// Normalise to a monic polynomial (leading coefficient 1).
    pub fn monic(&self) -> Poly {
        let lead = self.coeffs[0];
        Poly {
            coeffs: self.coeffs.iter().map(|&c| c / lead).collect(),
        }
    }

    /// The Cauchy lower bound β on the modulus of the smallest zero: the
    /// unique positive root of
    /// `|c₀|xⁿ + |c₁|xⁿ⁻¹ + … + |cₙ₋₁|x − |cₙ| = 0`,
    /// found by bisection + Newton. Jenkins–Traub starts its fixed-shift
    /// stage on the circle `|s| = β`.
    pub fn cauchy_bound(&self) -> f64 {
        let n = self.degree();
        assert!(n >= 1, "bound needs degree >= 1");
        let mags: Vec<f64> = self.coeffs.iter().map(|c| c.abs()).collect();
        if mags[n] == 0.0 {
            return 0.0; // zero constant term: a root at the origin
        }
        // f(x) = Σ_{k<n} mags[k]·x^{n-k} − mags[n]; f(0) < 0, f(∞) > 0,
        // strictly increasing for x > 0 ⇒ unique positive root.
        let f = |x: f64| -> f64 {
            let mut acc = 0.0;
            for m in &mags[..n] {
                acc = acc * x + m;
            }
            acc * x - mags[n]
        };
        let fp = |x: f64| -> f64 {
            // derivative of the above in x
            let mut acc = 0.0;
            for (k, m) in mags[..n].iter().enumerate() {
                acc = acc * x + m * (n - k) as f64;
            }
            acc
        };
        // Bracket.
        let mut hi = 1.0;
        while f(hi) < 0.0 {
            hi *= 2.0;
        }
        let mut lo = hi / 2.0;
        while lo > 1e-300 && f(lo) > 0.0 {
            lo /= 2.0;
        }
        // Newton with bisection fallback.
        let mut x = 0.5 * (lo + hi);
        for _ in 0..100 {
            let fx = f(x);
            if fx.abs() < 1e-14 * mags[n].max(1.0) {
                break;
            }
            if fx > 0.0 {
                hi = x;
            } else {
                lo = x;
            }
            let d = fp(x);
            let newton = x - fx / d;
            x = if newton > lo && newton < hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
        }
        x
    }

    /// Largest coefficient magnitude (scale for residual tolerances).
    pub fn coeff_scale(&self) -> f64 {
        self.coeffs.iter().map(|c| c.abs()).fold(0.0, f64::max)
    }
}

impl std::fmt::Display for Poly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.degree();
        for (i, c) in self.coeffs.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "({c})z^{}", n - i)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    #[test]
    fn eval_horner() {
        // p(z) = z^2 + 2z + 3 at z = 2 → 11.
        let p = Poly::from_real(&[1.0, 2.0, 3.0]);
        assert!((p.eval(c(2.0, 0.0)) - c(11.0, 0.0)).abs() < 1e-12);
        // At i: -1 + 2i + 3 = 2 + 2i.
        assert!((p.eval(Complex::I) - c(2.0, 2.0)).abs() < 1e-12);
    }

    #[test]
    fn from_roots_has_those_roots() {
        let roots = [c(1.0, 0.0), c(-2.0, 1.0), c(0.5, -0.5)];
        let p = Poly::from_roots(&roots);
        assert_eq!(p.degree(), 3);
        for &r in &roots {
            assert!(p.eval(r).abs() < 1e-12, "p({r}) = {}", p.eval(r));
        }
    }

    #[test]
    fn derivative_of_cubic() {
        // (z^3 + 2z^2 - z + 4)' = 3z^2 + 4z - 1.
        let p = Poly::from_real(&[1.0, 2.0, -1.0, 4.0]);
        let d = p.derivative();
        assert_eq!(d.coeffs(), Poly::from_real(&[3.0, 4.0, -1.0]).coeffs());
    }

    #[test]
    fn synthetic_division_matches_eval() {
        let p = Poly::from_real(&[2.0, -3.0, 1.0, 5.0]);
        let s = c(1.5, -0.5);
        let (q, rem) = p.synthetic_div(s);
        assert!((rem - p.eval(s)).abs() < 1e-12);
        // p(z) = q(z)(z-s) + rem at a probe point.
        let z = c(0.3, 0.7);
        let recomposed = q.eval(z) * (z - s) + rem;
        assert!((recomposed - p.eval(z)).abs() < 1e-12);
    }

    #[test]
    fn deflation_removes_one_root() {
        let roots = [c(2.0, 0.0), c(-1.0, 1.0)];
        let p = Poly::from_roots(&roots);
        let q = p.deflate(roots[0]);
        assert_eq!(q.degree(), 1);
        assert!(q.eval(roots[1]).abs() < 1e-12);
    }

    #[test]
    fn monic_normalisation() {
        let p = Poly::new(vec![c(2.0, 0.0), c(4.0, 0.0)]);
        let m = p.monic();
        assert!((m.coeffs()[0] - Complex::ONE).abs() < 1e-15);
        assert!((m.coeffs()[1] - c(2.0, 0.0)).abs() < 1e-15);
    }

    #[test]
    fn leading_zeros_trimmed() {
        let p = Poly::new(vec![Complex::ZERO, c(1.0, 0.0), c(2.0, 0.0)]);
        assert_eq!(p.degree(), 1);
    }

    #[test]
    #[should_panic(expected = "zero polynomial")]
    fn zero_poly_rejected() {
        let _ = Poly::new(vec![Complex::ZERO, Complex::ZERO]);
    }

    #[test]
    fn cauchy_bound_is_a_lower_bound() {
        // Roots of modulus 1, 2, 3: β ≤ 1.
        let p = Poly::from_roots(&[c(1.0, 0.0), c(0.0, 2.0), c(-3.0, 0.0)]);
        let b = p.cauchy_bound();
        assert!(
            b > 0.0 && b <= 1.0 + 1e-9,
            "bound {b} must lower-bound min |root| = 1"
        );
        // And the Cauchy polynomial really vanishes at β.
        let mags: Vec<f64> = p.coeffs().iter().map(|z| z.abs()).collect();
        let n = p.degree();
        let mut acc = 0.0;
        for m in &mags[..n] {
            acc = acc * b + m;
        }
        let residual = acc * b - mags[n];
        assert!(residual.abs() < 1e-8 * mags[n]);
    }

    #[test]
    fn cauchy_bound_zero_constant_term() {
        // z(z-1): a root at the origin → bound 0.
        let p = Poly::from_roots(&[Complex::ZERO, Complex::ONE]);
        assert_eq!(p.cauchy_bound(), 0.0);
    }

    #[test]
    fn display_mentions_all_terms() {
        let p = Poly::from_real(&[1.0, 0.5]);
        let s = p.to_string();
        assert!(s.contains("z^1") && s.contains("z^0"));
    }
}
