//! *Measured* figure series: drive the virtual-time simulator with
//! workloads tuned to each target `Rμ`/`Ro` and read `PI` off the
//! resulting reports, to be overlaid on the closed-form curves. Also the
//! simulator cost model of this host, calibrated from live `fork(2)`
//! measurements.

use worlds_analysis::stats::times_with_r_mu;
use worlds_analysis::FigPoint;
use worlds_kernel::{AltSpec, BlockSpec, CostModel, Machine, VirtualTime};

/// Number of alternatives used by the measured sweeps.
const ALTS: usize = 4;
/// Base (fastest alternative) runtime in the measured sweeps.
const BASE_MS: f64 = 1_000.0;

/// Build a cost model whose total speculation overhead is exactly
/// `r_o × BASE_MS`, charged at the rendezvous. (Charging it on forks
/// would make the effective overhead depend on whether the winner's
/// compute outlasts the parent's remaining fork issues — a stagger
/// artefact the analytic model doesn't describe.)
fn model_with_ro(r_o: f64) -> CostModel {
    let mut m = CostModel::ideal(ALTS);
    m.rendezvous = VirtualTime::from_ms(r_o * BASE_MS);
    m
}

/// A block whose alternatives' isolated runtimes have exactly the target
/// `Rμ` (fastest first, so the winner pays a single fork).
fn block_with_rmu(r_mu: f64) -> BlockSpec {
    let times = times_with_r_mu(ALTS, BASE_MS, r_mu);
    BlockSpec::new(
        times
            .iter()
            .enumerate()
            .map(|(i, &ms)| AltSpec::new(format!("alt{i}")).compute_ms(ms))
            .collect(),
    )
    .shared_pages(0)
}

/// Measured Figure 3: sweep `Rμ ∈ [1, r_mu_max]` at fixed `Ro`, running
/// each point through the simulator and reporting measured `PI`.
/// (`Rμ < 1` is impossible for real workloads — the mean cannot beat the
/// minimum — so the measured series starts at 1 where the analytic line
/// is drawn from 0.)
pub fn fig3_measured(r_o: f64, r_mu_max: f64, steps: usize) -> Vec<FigPoint> {
    assert!(steps >= 2 && r_mu_max >= 1.0);
    (0..steps)
        .map(|i| {
            let r_mu = 1.0 + (r_mu_max - 1.0) * i as f64 / (steps - 1) as f64;
            let mut machine = Machine::new(model_with_ro(r_o));
            let report = machine.run_block(&block_with_rmu(r_mu));
            FigPoint {
                x: r_mu,
                pi: report.pi().expect("block succeeds"),
            }
        })
        .collect()
}

/// Measured Figure 4: sweep `Ro` logarithmically at fixed `Rμ`.
pub fn fig4_measured(r_mu: f64, r_o_min: f64, r_o_max: f64, steps: usize) -> Vec<FigPoint> {
    assert!(steps >= 2 && r_o_min > 0.0 && r_o_max > r_o_min);
    let (lo, hi) = (r_o_min.ln(), r_o_max.ln());
    (0..steps)
        .map(|i| {
            let r_o = (lo + (hi - lo) * i as f64 / (steps - 1) as f64).exp();
            let mut machine = Machine::new(model_with_ro(r_o));
            let report = machine.run_block(&block_with_rmu(r_mu));
            FigPoint {
                x: r_o,
                pi: report.pi().expect("block succeeds"),
            }
        })
        .collect()
}

/// Build a simulator [`CostModel`] calibrated from *this host's* live
/// measurements — the bridge that lets the virtual-time experiments
/// answer "what would the paper's tables look like on my machine?". CPU
/// count comes from the OS; fork and page-copy costs from the §3.4
/// measurement kit ([`worlds_apps::os::measure`]); elimination costs from
/// a best-of-3 run.
#[cfg(unix)]
pub fn calibrated_cost_model() -> std::io::Result<CostModel> {
    use worlds_apps::os::measure::{elimination_cost_best_of, fork_latency, page_copy_rate};
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let fork = fork_latency(320 * 1024, 20)?;
    let rate = page_copy_rate(512, 4096)?;
    let (elim_sync, elim_async) = elimination_cost_best_of(16, 3)?;
    let mut m = CostModel::modern(cpus);
    m.name = "this host (live-calibrated)";
    m.page_size = 4096;
    m.fork = VirtualTime::from_secs(fork.as_secs_f64());
    m.page_copy = VirtualTime::from_secs(1.0 / rate.max(1.0));
    m.elim_sync = VirtualTime::from_secs(elim_sync.as_secs_f64() / 16.0);
    m.elim_async = VirtualTime::from_secs(elim_async.as_secs_f64() / 16.0);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use worlds_analysis::PerfModel;

    #[test]
    fn measured_fig3_tracks_the_analytic_line() {
        for p in fig3_measured(0.5, 5.0, 9) {
            let analytic = PerfModel::new(p.x, 0.5).pi();
            let err = (p.pi - analytic).abs() / analytic;
            assert!(
                err < 0.02,
                "Rμ={}: measured {} vs analytic {analytic}",
                p.x,
                p.pi
            );
        }
    }

    #[test]
    fn measured_fig4_tracks_the_analytic_hyperbola() {
        let e = std::f64::consts::E;
        for p in fig4_measured(e, 0.01, 1.0, 7) {
            let analytic = PerfModel::new(e, p.x).pi();
            let err = (p.pi - analytic).abs() / analytic;
            assert!(
                err < 0.02,
                "Ro={}: measured {} vs analytic {analytic}",
                p.x,
                p.pi
            );
        }
    }

    #[test]
    fn measured_break_even_matches_theory() {
        // PI crosses 1 at Rμ = 1.5 when Ro = 0.5.
        let pts = fig3_measured(0.5, 2.0, 21);
        let below: Vec<&FigPoint> = pts.iter().filter(|p| p.x < 1.45).collect();
        let above: Vec<&FigPoint> = pts.iter().filter(|p| p.x > 1.55).collect();
        assert!(below.iter().all(|p| p.pi < 1.0));
        assert!(above.iter().all(|p| p.pi > 1.0));
    }

    #[cfg(unix)]
    #[test]
    fn calibrated_model_is_sane() {
        let m = calibrated_cost_model().unwrap();
        assert!(m.cpus >= 1);
        assert!(m.fork.as_ns() > 0);
        assert!(m.page_copy.as_ns() > 0);
        // A 2026 kernel beats the paper's 1989 numbers at everything.
        assert!(m.fork < CostModel::hp9000_350().fork);
        assert!(m.page_copy_rate() > 1034.0);
    }
}
