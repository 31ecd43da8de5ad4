//! Property-based tests of the discrete-event machine.

use proptest::prelude::*;
use worlds_kernel::{
    AltSpec, BlockSpec, CostModel, ElimMode, GuardPlacement, Machine, Outcome, VirtualTime,
};

/// A randomly generated alternative: compute time, page writes, guard.
#[derive(Debug, Clone)]
struct AltGen {
    compute_ms: u32,
    pages: u8,
    guard: bool,
}

fn arb_alt() -> impl Strategy<Value = AltGen> {
    (1u32..200, 0u8..20, prop::bool::weighted(0.8)).prop_map(|(compute_ms, pages, guard)| AltGen {
        compute_ms,
        pages,
        guard,
    })
}

fn build_block(alts: &[AltGen]) -> BlockSpec {
    BlockSpec::new(
        alts.iter()
            .enumerate()
            .map(|(i, a)| {
                AltSpec::new(format!("alt{i}"))
                    .compute_ms(a.compute_ms as f64)
                    .write_pages(a.pages as u64)
                    .guard(a.guard)
            })
            .collect(),
    )
    .shared_pages(32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The machine is deterministic: identical specs produce identical
    /// reports (wall, outcome, per-alt CPU, total CPU).
    #[test]
    fn determinism(alts in proptest::collection::vec(arb_alt(), 1..6), cpus in 1usize..5) {
        let block = build_block(&alts);
        let r1 = Machine::new(CostModel::hp9000_350().with_cpus(cpus)).run_block(&block);
        let r2 = Machine::new(CostModel::hp9000_350().with_cpus(cpus)).run_block(&block);
        prop_assert_eq!(r1.outcome, r2.outcome);
        prop_assert_eq!(r1.wall, r2.wall);
        prop_assert_eq!(r1.total_cpu, r2.total_cpu);
        for (a, b) in r1.alts.iter().zip(r2.alts.iter()) {
            prop_assert_eq!(a.cpu_time, b.cpu_time);
            prop_assert_eq!(a.status, b.status);
        }
    }

    /// Outcome classification is total and consistent with guards: a
    /// winner exists iff some guard passes; AllFailed iff none do.
    #[test]
    fn winner_exists_iff_some_guard_passes(
        alts in proptest::collection::vec(arb_alt(), 1..6),
        cpus in 1usize..4,
    ) {
        let block = build_block(&alts);
        let report = Machine::new(CostModel::ideal(cpus)).run_block(&block);
        let any_pass = alts.iter().any(|a| a.guard);
        match report.outcome {
            Outcome::Winner { index, .. } => {
                prop_assert!(any_pass);
                prop_assert!(alts[index].guard, "winner's guard must pass");
            }
            Outcome::AllFailed => prop_assert!(!any_pass),
            Outcome::TimedOut => prop_assert!(false, "no timeout configured"),
        }
    }

    /// On an ideal (zero-overhead) machine with as many CPUs as
    /// alternatives, the winner is an alternative with the minimal
    /// passing-guard compute time, and the wall equals it.
    #[test]
    fn ideal_machine_winner_is_fastest(alts in proptest::collection::vec(arb_alt(), 1..6)) {
        let block = build_block(&alts);
        let report = Machine::new(CostModel::ideal(alts.len())).run_block(&block);
        let best = alts
            .iter()
            .filter(|a| a.guard)
            .map(|a| a.compute_ms)
            .min();
        match (report.outcome, best) {
            (Outcome::Winner { index, .. }, Some(best)) => {
                prop_assert_eq!(alts[index].compute_ms, best);
                prop_assert_eq!(report.wall, VirtualTime::from_ms(best as f64));
            }
            (Outcome::AllFailed, None) => {}
            (o, b) => prop_assert!(false, "mismatch: {:?} vs best {:?}", o, b),
        }
    }

    /// Adding CPUs never worsens response time (work-conserving
    /// scheduler).
    #[test]
    fn more_cpus_never_hurt(alts in proptest::collection::vec(arb_alt(), 1..6)) {
        let block = build_block(&alts);
        let mut prev = u64::MAX;
        for cpus in 1..=alts.len() {
            let r = Machine::new(CostModel::hp9000_350().with_cpus(cpus)).run_block(&block);
            prop_assert!(
                r.wall.as_ns() <= prev,
                "wall regressed at {} cpus: {} > {}",
                cpus,
                r.wall.as_ns(),
                prev
            );
            prev = r.wall.as_ns();
        }
    }

    /// Async elimination never has a *longer* response time than sync on
    /// the same workload, and both modes agree on the winner.
    #[test]
    fn async_elimination_is_never_slower(
        alts in proptest::collection::vec(arb_alt(), 2..6),
        cpus in 1usize..4,
    ) {
        let sync_block = build_block(&alts).elim(ElimMode::Sync);
        let async_block = build_block(&alts).elim(ElimMode::Async);
        let rs = Machine::new(CostModel::att_3b2().with_cpus(cpus)).run_block(&sync_block);
        let ra = Machine::new(CostModel::att_3b2().with_cpus(cpus)).run_block(&async_block);
        prop_assert_eq!(&rs.outcome, &ra.outcome);
        prop_assert!(ra.wall <= rs.wall, "async {} > sync {}", ra.wall, rs.wall);
    }

    /// The simulator's own accounting is self-consistent: response time is
    /// bounded by total CPU work, and per-alt CPU sums below total.
    #[test]
    fn accounting_is_consistent(
        alts in proptest::collection::vec(arb_alt(), 1..6),
        cpus in 1usize..4,
    ) {
        let block = build_block(&alts);
        let r = Machine::new(CostModel::hp9000_350().with_cpus(cpus)).run_block(&block);
        let per_alt_sum: u64 = r.alts.iter().map(|a| a.cpu_time.as_ns()).sum();
        prop_assert!(per_alt_sum <= r.total_cpu.as_ns(), "children exceed total");
        // With one CPU, wall time ≥ the winner path's CPU demands.
        prop_assert!(r.wall.as_ns() <= r.total_cpu.as_ns() + 1);
        // Pages: each alternative dirties at most what it asked for.
        for (a, gen) in r.alts.iter().zip(&alts) {
            prop_assert!(a.pages_cowed <= gen.pages as u64);
        }
    }

    /// No frames or worlds leak, whatever the workload.
    #[test]
    fn no_leaks(alts in proptest::collection::vec(arb_alt(), 1..6)) {
        let mut m = Machine::new(CostModel::hp9000_350().with_cpus(2));
        let _ = m.run_block(&build_block(&alts));
        prop_assert_eq!(m.store().world_count(), 0);
        prop_assert_eq!(m.store().live_frames(), 0);
    }

    /// Guard placement never changes *which* alternatives are eligible —
    /// only costs: the winner always has a passing guard, and if any guard
    /// passes there is a winner, under every placement.
    #[test]
    fn guard_placement_preserves_eligibility(
        alts in proptest::collection::vec(arb_alt(), 1..5),
    ) {
        for placement in [GuardPlacement::PreSpawn, GuardPlacement::InChild, GuardPlacement::AtSync] {
            let block = build_block(&alts).guard_placement(placement);
            let r = Machine::new(CostModel::ideal(4)).run_block(&block);
            let any_pass = alts.iter().any(|a| a.guard);
            match r.outcome {
                Outcome::Winner { index, .. } => {
                    prop_assert!(alts[index].guard, "{placement:?} let a failing guard win");
                }
                Outcome::AllFailed => prop_assert!(!any_pass, "{placement:?} lost a winner"),
                Outcome::TimedOut => prop_assert!(false),
            }
        }
    }

    /// worlds-obs reconciliation: after any block, every spawned world has
    /// ended as exactly one of {commit, sync elimination, async
    /// elimination}, whatever the guards, placement, elimination mode, CPU
    /// count or timeout did.
    #[test]
    fn obs_reconciles_spawns_commits_and_eliminations(
        alts in proptest::collection::vec(arb_alt(), 1..6),
        cpus in 1usize..4,
        placement_idx in 0usize..3,
        elim_sync in prop::bool::weighted(0.5),
        timeout_step in 0u32..3,
    ) {
        let placement = [GuardPlacement::PreSpawn, GuardPlacement::InChild, GuardPlacement::AtSync]
            [placement_idx];
        let elim = if elim_sync { ElimMode::Sync } else { ElimMode::Async };
        let mut block = build_block(&alts).guard_placement(placement).elim(elim);
        if timeout_step > 0 {
            // Short enough to fire under many generated workloads.
            block = block.timeout(VirtualTime::from_ms(timeout_step as f64 * 20.0));
        }
        let mut m = Machine::with_obs(
            CostModel::hp9000_350().with_cpus(cpus),
            worlds_obs::Registry::enabled(),
        );
        let _ = m.run_block(&block);
        let s = m.obs().stats().expect("registry is enabled");
        let spawned = s.kernel.worlds_spawned.get();
        let resolved = s.kernel.commits.get()
            + s.kernel.eliminations_sync.get()
            + s.kernel.eliminations_async.get();
        prop_assert_eq!(
            resolved, spawned,
            "commits + eliminations must account for every spawned world"
        );
        // Consistency of the surrounding lifecycle counters.
        prop_assert!(s.kernel.commits.get() <= s.kernel.rendezvous.get());
        prop_assert!(s.kernel.commits.get() <= 1, "one block commits at most once");
        prop_assert!(spawned <= alts.len() as u64);
        if timeout_step == 0 {
            prop_assert_eq!(s.kernel.timeouts.get(), 0, "no deadline, no timeout");
        }
        match elim {
            ElimMode::Sync => prop_assert_eq!(s.kernel.eliminations_async.get(), 0),
            ElimMode::Async => prop_assert_eq!(s.kernel.eliminations_sync.get(), 0),
        }
    }
}
