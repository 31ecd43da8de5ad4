//! Table I: the parallel rootfinder.
//!
//! The paper ran the complex Jenkins–Traub finder with 1–6 starting-angle
//! processes on a 2-CPU Ardent Titan and reported, per process count:
//! sequential `max`/`min`/`avg` CPU times over the angle choices, the
//! number of `fails` (angles that did not find all roots), and `par` —
//! the wall clock of the parallel race.
//!
//! We reproduce the **shape** on the Titan *cost model* in virtual time:
//! the per-angle workloads are *real* (measured iteration counts of our
//! Jenkins–Traub on a fixed polynomial, scaled so the fastest angle costs
//! about the paper's ~4 s), and the parallel column comes from the
//! 2-CPU discrete-event simulation with fork/rendezvous/elimination
//! costs. Expect: `min` falls as more angles join; `par` is slightly
//! above `min` for ≤ 2 processes (speculation wins against `avg`), then
//! degrades as >2 processes contend for 2 CPUs — exactly the paper's
//! pattern (4.37, 4.25, 4.74, 5.19, 8.61, 7.03).

use worlds_apps::rootfinder::{find_all_roots, legendre_like, FindError, JtConfig, Poly};
use worlds_kernel::{AltSpec, BlockSpec, CostModel, GuardPlacement, Machine, Outcome};

/// The six starting angles the Table I reproduction races, in join order.
/// Chosen (by probing the fixed workload) so that the early angles
/// succeed at varied costs and a failing angle (270 deg) joins at five
/// processes — mirroring the paper, whose `fails` column turns nonzero at
/// procs = 5.
pub const TABLE1_ANGLES: [f64; 6] = [0.0, 60.0, 180.0, 90.0, 270.0, 120.0];

/// One row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Number of starting-angle processes.
    pub procs: usize,
    /// Worst successful sequential time (seconds).
    pub max_s: f64,
    /// Best successful sequential time (seconds).
    pub min_s: f64,
    /// Mean successful sequential time (seconds).
    pub avg_s: f64,
    /// Angles that failed to find all roots.
    pub fails: usize,
    /// Parallel wall clock on the 2-CPU Titan model (seconds).
    pub par_s: f64,
}

/// The fixed Table I workload: a clustered degree-16 polynomial and a
/// deliberately starved fixed-shift budget so that some starting angles
/// fail — reproducing the paper's nonzero `fails` column.
pub fn table1_workload() -> (Poly, JtConfig) {
    let (poly, _) = legendre_like(16);
    let cfg = JtConfig {
        stage2_iters: 12,
        stage3_iters: 10,
        ..JtConfig::default()
    };
    (poly, cfg)
}

/// Per-angle sequential measurements: `(seconds, succeeded)`, using
/// iteration counts scaled so the fastest successful angle over the full
/// angle set costs `calibrate_min_s` seconds.
fn per_angle_seconds(poly: &Poly, cfg: &JtConfig, calibrate_min_s: f64) -> Vec<(f64, bool)> {
    let raw: Vec<(u64, bool)> = TABLE1_ANGLES
        .iter()
        .map(|&angle| match find_all_roots(poly, angle, cfg) {
            Ok(rep) => (rep.iterations, true),
            Err(FindError::NoConvergence { iterations, .. }) => {
                // A failing angle burns its budgets before giving up; the
                // recorded iterations are what it spent.
                (iterations.max(1), false)
            }
            Err(FindError::ResidualTooLarge { .. }) => (1, false),
        })
        .collect();
    let min_ok = raw
        .iter()
        .filter(|(_, ok)| *ok)
        .map(|(it, _)| *it)
        .min()
        .expect("at least one angle must succeed for Table I");
    let scale = calibrate_min_s / min_ok as f64;
    raw.into_iter()
        .map(|(it, ok)| (it as f64 * scale, ok))
        .collect()
}

/// Build Table I rows for 1..=`max_procs` processes.
pub fn table1_rows(max_procs: usize) -> Vec<Table1Row> {
    assert!(max_procs >= 1 && max_procs <= TABLE1_ANGLES.len());
    let (poly, cfg) = table1_workload();
    // The paper's single-process time was ~4.01 s; calibrate cosmetically.
    let seconds = per_angle_seconds(&poly, &cfg, 4.01);

    (1..=max_procs)
        .map(|procs| {
            let used = &seconds[..procs];
            let ok: Vec<f64> = used.iter().filter(|(_, s)| *s).map(|(t, _)| *t).collect();
            let fails = used.len() - ok.len();
            let (max_s, min_s, avg_s) = if ok.is_empty() {
                (f64::NAN, f64::NAN, f64::NAN)
            } else {
                (
                    ok.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                    ok.iter().cloned().fold(f64::INFINITY, f64::min),
                    ok.iter().sum::<f64>() / ok.len() as f64,
                )
            };

            // Parallel run on the 2-CPU Titan model: each angle is an
            // alternative whose compute time is its measured sequential
            // time; failing angles run to their give-up point and abort
            // at the synchronization guard.
            let alts: Vec<AltSpec> = used
                .iter()
                .enumerate()
                .map(|(i, &(secs, ok))| {
                    AltSpec::new(format!("angle={}", TABLE1_ANGLES[i]))
                        .compute_ms(secs * 1e3)
                        .write_pages(40)
                        .guard(ok)
                })
                .collect();
            let block = BlockSpec::new(alts)
                .shared_pages(160)
                .guard_placement(GuardPlacement::AtSync);
            let mut machine = Machine::new(CostModel::ardent_titan());
            let report = machine.run_block(&block);
            let par_s = match report.outcome {
                Outcome::Winner { .. } => report.wall.as_secs(),
                _ => f64::NAN,
            };
            Table1Row {
                procs,
                max_s,
                min_s,
                avg_s,
                fails,
                par_s,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_has_both_successes_and_failures() {
        let (poly, cfg) = table1_workload();
        let seconds = per_angle_seconds(&poly, &cfg, 4.01);
        let oks = seconds.iter().filter(|(_, ok)| *ok).count();
        assert!(oks >= 4, "most angles should succeed, got {oks}/6");
        assert!(
            oks < seconds.len(),
            "some angle must fail for the fails column"
        );
        assert!(seconds[0].1, "the first (calibration) angle must succeed");
    }

    #[test]
    fn rows_have_paper_shape() {
        let rows = table1_rows(6);
        assert_eq!(rows.len(), 6);
        // min is non-increasing as more angles join.
        for w in rows.windows(2) {
            assert!(
                w[1].min_s <= w[0].min_s + 1e-9,
                "min must not grow with more angles: {w:?}"
            );
        }
        // par exceeds min (speculation overhead exists).
        for r in &rows {
            assert!(r.par_s >= r.min_s, "par {:?} < min in {r:?}", r.par_s);
        }
        // With only 2 CPUs, large process counts contend: the last row's
        // par is worse than the 2-process row's.
        assert!(
            rows[5].par_s > rows[1].par_s,
            "contention shape lost: {rows:?}"
        );
        // Speculation wins somewhere: par beats avg on some row with ≥ 2
        // procs (the paper's row 2: 4.25 < 4.28).
        assert!(
            rows.iter().skip(1).any(|r| r.par_s < r.avg_s),
            "no winning row: {rows:?}"
        );
    }

    #[test]
    fn single_proc_row_par_includes_overhead() {
        let rows = table1_rows(1);
        let r = &rows[0];
        assert_eq!(r.fails, 0, "the calibrated first angle succeeds");
        assert!(
            (r.min_s - 4.01).abs() < 0.2,
            "calibration anchor: {}",
            r.min_s
        );
        assert!(
            r.par_s > r.min_s,
            "1-proc parallel run still pays fork+commit"
        );
        assert!(r.par_s < r.min_s * 1.2, "overhead should be small: {r:?}");
    }

    #[test]
    fn rows_are_deterministic() {
        assert_eq!(table1_rows(3), table1_rows(3));
    }
}
