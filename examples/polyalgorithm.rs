//! §4.3's other half: a NAPSS-style polyalgorithm with fastest-first
//! scheduling through Multiple Worlds.
//!
//! ```sh
//! cargo run --example polyalgorithm
//! ```
//!
//! Scalar root finding with three methods (Newton, secant, bisection) and
//! likelihood heuristics. On a hostile problem the preferred method
//! diverges — sequentially you pay for its failure before recovering;
//! with fastest-first, a rotation that leads with the *right* method is
//! already running.

use worlds::Speculation;
use worlds_apps::poly::scalar::{standard_polyalgorithm, ScalarProblem};
use worlds_apps::poly::PolyOutcome;

fn describe(tag: &str, out: &PolyOutcome<f64>) {
    match out {
        PolyOutcome::Solved {
            result,
            method,
            attempts,
        } => {
            println!("{tag}: x = {result:.12} via {method} ({attempts} attempt(s)/rotations)")
        }
        PolyOutcome::Unsolved(k) => println!("{tag}: UNSOLVED; knowledge: {k:?}"),
    }
}

fn main() {
    let poly = standard_polyalgorithm();

    println!("-- friendly problem: x^3 - 2x - 5 with a bracket --");
    let friendly = ScalarProblem::new(|x| x * x * x - 2.0 * x - 5.0, 2.0).bracket(2.0, 3.0);
    describe("sequential   ", &poly.run_sequential(&friendly));
    let spec = Speculation::new();
    describe(
        "fastest-first",
        &poly.run_fastest_first(&spec, &friendly, None),
    );
    println!(
        "committed method cell: {:?}",
        spec.read(|c| c.get_str("poly_method"))
    );

    println!("\n-- hostile problem: atan(x) from x = 2, no bracket --");
    println!("(Newton's iterates overshoot with alternating signs: it diverges,");
    println!(" but *learns* a bracket on the way — failures build up knowledge)");
    let hostile = ScalarProblem::new(|x| x.atan(), 2.0);
    let seq = poly.run_sequential(&hostile);
    describe("sequential   ", &seq);
    let spec = Speculation::new();
    let par = poly.run_fastest_first(&spec, &hostile, None);
    describe("fastest-first", &par);

    match (&seq, &par) {
        (PolyOutcome::Solved { result: a, .. }, PolyOutcome::Solved { result: b, .. }) => {
            assert!(a.abs() < 1e-6 && b.abs() < 1e-6, "the root of atan is 0");
            println!("\nboth drivers agree the root is ~0; the parallel one did not have to");
            println!("wait through the preferred method's divergence before starting the cure.");
        }
        _ => panic!("both drivers should solve atan"),
    }
}
