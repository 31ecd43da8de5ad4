//! The §3.3 whole-domain experiment.
//!
//! "These analyses apply to the performance on a single input; it is
//! rather simple to extend the analysis to the entire input domain ...
//! One important idea which emerges when analyzing the overall
//! performance improvement is that the different algorithms should
//! perform well at different and unpredictable points in the input; the
//! best case is where at each input where one or more algorithms perform
//! badly, they have at least \[a\] counterpart which performs well."
//!
//! The experiment: three synthetic algorithm families over a 1-D input
//! domain, from perfectly complementary to fully dominated, each swept
//! through the virtual-time simulator and summarised with
//! `worlds_analysis::DomainAnalysis`.

use worlds_analysis::DomainAnalysis;
use worlds_kernel::{AltSpec, BlockSpec, CostModel, Machine};

/// One scenario: named per-alternative runtime functions over the domain.
pub struct DomainScenario {
    /// Scenario label.
    pub name: &'static str,
    /// Alternative labels.
    pub alts: Vec<&'static str>,
    /// `time(alt, input) -> ms`.
    pub time: fn(usize, usize) -> f64,
}

/// The three §3.3 regimes.
pub fn scenarios() -> Vec<DomainScenario> {
    vec![
        DomainScenario {
            name: "complementary (paper's best case)",
            alts: vec!["phase-A", "phase-B"],
            time: |alt, input| {
                // Each alternative is fast on the half of the domain the
                // other is slow on.
                let fast = 60.0 + 5.0 * (input % 3) as f64;
                let slow = 420.0 + 30.0 * (input % 5) as f64;
                if (input / 4) % 2 == alt {
                    fast
                } else {
                    slow
                }
            },
        },
        DomainScenario {
            name: "unpredictable (hash-scattered winners)",
            alts: vec!["h1", "h2", "h3"],
            time: |alt, input| {
                // Deterministic pseudo-random winner per input.
                let h = (input.wrapping_mul(2654435761) >> 3) % 3;
                if h == alt {
                    80.0 + (input % 7) as f64 * 4.0
                } else {
                    300.0 + ((alt * 13 + input * 7) % 11) as f64 * 25.0
                }
            },
        },
        DomainScenario {
            name: "dominated (one algorithm always best)",
            alts: vec!["champion", "runner-up"],
            time: |alt, input| {
                let base = 100.0 + (input % 6) as f64 * 10.0;
                if alt == 0 {
                    base
                } else {
                    base * 1.4
                }
            },
        },
    ]
}

/// Run one scenario over `inputs` domain points on the given machine:
/// returns the measured times matrix (from the simulator's isolated-time
/// accounting), the per-input parallel walls, and the domain analysis.
pub fn run_scenario(
    sc: &DomainScenario,
    inputs: usize,
    cost: &CostModel,
    overhead_ms: f64,
) -> (DomainAnalysis, Vec<f64>) {
    let n_alts = sc.alts.len();
    let mut times = vec![vec![0.0f64; inputs]; n_alts];
    let mut walls = Vec::with_capacity(inputs);
    #[allow(clippy::needless_range_loop)] // `input` indexes the inner axis of `times`
    for input in 0..inputs {
        let block = BlockSpec::new(
            (0..n_alts)
                .map(|a| AltSpec::new(sc.alts[a]).compute_ms((sc.time)(a, input)))
                .collect(),
        )
        .shared_pages(0);
        let mut m = Machine::new(cost.clone());
        let report = m.run_block(&block);
        for (a, alt) in report.alts.iter().enumerate() {
            times[a][input] = alt.isolated_time.as_ms();
        }
        walls.push(report.wall.as_ms());
    }
    (DomainAnalysis::new(times, overhead_ms), walls)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CostModel {
        CostModel::modern(4)
    }

    #[test]
    fn complementary_scenario_wins_everywhere() {
        let sc = &scenarios()[0];
        let (d, walls) = run_scenario(sc, 16, &cost(), 0.2);
        assert_eq!(d.win_fraction(), 1.0);
        assert!(
            d.complementarity() > 0.4,
            "complementarity {}",
            d.complementarity()
        );
        assert!(d.domain_pi() > 1.5);
        // The simulated walls actually track the per-input best.
        for (input, w) in walls.iter().enumerate() {
            let best = (0..sc.alts.len())
                .map(|a| (sc.time)(a, input))
                .fold(f64::INFINITY, f64::min);
            assert!((w - best).abs() < best * 0.05, "wall {w} vs best {best}");
        }
    }

    #[test]
    fn dominated_scenario_gains_little() {
        let sc = &scenarios()[2];
        let (d, _) = run_scenario(sc, 16, &cost(), 0.2);
        assert_eq!(d.complementarity(), 0.0, "the champion always wins");
        assert_eq!(d.winner_histogram()[0], 16);
        // PI stays modest: mean/best = (1 + 1.4)/2 = 1.2.
        assert!(d.domain_pi() < 1.25);
    }

    #[test]
    fn unpredictable_scenario_spreads_winners() {
        let sc = &scenarios()[1];
        let (d, _) = run_scenario(sc, 48, &cost(), 0.2);
        let hist = d.winner_histogram();
        assert!(
            hist.iter().all(|&c| c > 0),
            "every algorithm wins somewhere: {hist:?}"
        );
        assert!(d.domain_pi() > 1.5, "scattered winners reward speculation");
    }

    #[test]
    fn heavy_overhead_erodes_even_the_best_case() {
        let sc = &scenarios()[0];
        let (cheap, _) = run_scenario(sc, 16, &cost(), 0.2);
        let (dear, _) = run_scenario(sc, 16, &cost(), 400.0);
        assert!(dear.domain_pi() < cheap.domain_pi());
        assert!(
            dear.win_fraction() < 1.0,
            "400 ms overhead loses some inputs"
        );
    }
}
