//! # `rootfinder` — the Table I workload
//!
//! §4.3 of the paper evaluates Multiple Worlds on a numerical application:
//! the complex Jenkins–Traub polynomial zero finder (CACM Algorithm 419,
//! "CPOLY"). The algorithm's stage-2 *fixed shift* starts from a point
//! `s = β·e^{iθ}` on the circle of radius β (a Cauchy lower bound on the
//! smallest zero's modulus) whose **angle θ is an ostensibly random
//! choice**: "In practice, several angles are tried, based on numerical
//! experience. A parallel version of this algorithm was created by making
//! several choices for the starting value and executing them in parallel."
//!
//! That is exactly the paper's Table I: 1–6 processes, each running the
//! full rootfinder from a different starting angle, first success wins.
//!
//! This module implements, from scratch:
//!
//! * [`Complex`] — complex arithmetic (no external num crate);
//! * [`Poly`] — complex polynomials: Horner evaluation, derivative,
//!   synthetic division/deflation, Cauchy bound, construction from roots;
//! * [`jenkins_traub`] — the three-stage zero finder with the starting
//!   angle as an explicit degree of freedom, plus whole-polynomial drivers
//!   ([`find_all_roots`] strict single-angle, [`find_all_roots_robust`]
//!   with the classical +94° retry policy);
//! * [`parallel`] — the Multiple-Worlds parallel version racing several
//!   angles through the `worlds` speculation API.

mod complex;
mod fixtures;
mod jt;
pub mod parallel;
mod poly;

pub use complex::Complex;
pub use fixtures::{legendre_like, random_roots_poly, wilkinson_like, TEST_ANGLES};
pub use jt::{
    find_all_roots, find_all_roots_robust, jenkins_traub, FindError, JtConfig, RootReport,
};
pub use poly::Poly;
