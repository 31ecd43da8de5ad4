//! The §3 performance model, live: sweep dispersion and overhead on the
//! virtual-time kernel simulator and watch `PI` — including the
//! superlinear regime.
//!
//! ```sh
//! cargo run --example sim_speedup
//! ```

use worlds_analysis::PerfModel;
use worlds_kernel::{AltSpec, BlockSpec, CostModel, Machine, VirtualTime};

fn block(times_ms: &[f64]) -> BlockSpec {
    BlockSpec::new(
        times_ms
            .iter()
            .enumerate()
            .map(|(i, &ms)| {
                AltSpec::new(format!("alt{i}"))
                    .compute_ms(ms)
                    .write_pages(20)
            })
            .collect(),
    )
    .shared_pages(160)
}

fn run(label: &str, cost: CostModel, times_ms: &[f64]) {
    let mut machine = Machine::new(cost);
    let report = machine.run_block(&block(times_ms));
    let pi = report.pi().expect("block succeeds");
    let model = PerfModel::new(report.r_mu().unwrap(), report.r_o().unwrap());
    println!(
        "{label:<26} wall {:>10}  PI {:>6.2}  (R_mu {:>5.2}, R_o {:>5.3}; model predicts {:>6.2})",
        report.wall.to_string(),
        pi,
        model.r_mu,
        model.r_o,
        model.pi()
    );
}

fn main() {
    println!("PI = R_mu / (1 + R_o): measured by simulation vs predicted by the model\n");

    // Dispersion sweep at fixed machine (HP 9000/350 with 4 CPUs).
    println!("-- dispersion sweep (4 alternatives, 4 CPUs, HP-class costs) --");
    run(
        "identical alts",
        CostModel::hp9000_350().with_cpus(4),
        &[400.0, 400.0, 400.0, 400.0],
    );
    run(
        "mild dispersion",
        CostModel::hp9000_350().with_cpus(4),
        &[400.0, 500.0, 600.0, 700.0],
    );
    run(
        "heavy dispersion",
        CostModel::hp9000_350().with_cpus(4),
        &[100.0, 900.0, 900.0, 900.0],
    );

    // Overhead sweep at fixed dispersion.
    println!("\n-- overhead sweep (same workload, fork cost scaled) --");
    let times = [200.0, 500.0, 800.0, 1100.0];
    for fork_ms in [0.0, 12.0, 31.0, 200.0, 1000.0] {
        run(
            &format!("fork = {fork_ms} ms"),
            CostModel::hp9000_350()
                .with_cpus(4)
                .with_fork(VirtualTime::from_ms(fork_ms)),
            &times,
        );
    }

    // The paper's superlinear claim: N processors, PI > N.
    println!("\n-- superlinear regime (4 CPUs, one 10x-fast alternative) --");
    let mut machine = Machine::new(CostModel::modern(4));
    let report = machine.run_block(&block(&[50.0, 2000.0, 2000.0, 2000.0]));
    let pi = report.pi().expect("succeeds");
    println!(
        "4 alternatives on 4 CPUs: PI = {pi:.1} (> 4 means superlinear vs the expected\n\
         sequential cost of picking an alternative at random — \"with sufficient variance,\n\
         and small enough overhead, N processors can exhibit superlinear speedup\")"
    );
    assert!(pi > 4.0);
}
