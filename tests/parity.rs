//! Cross-executor parity: the same abstract scenario must produce the
//! same committed-choice outcome through all three executors — the
//! virtual-time simulator, the real-thread executor, and (on Unix) the
//! real fork(2) backend. The paper's semantics are executor-independent;
//! this is the test that keeps them that way.

use std::time::Duration;

use multiple_worlds::worlds::{AltBlock, AltError, ElimMode, Speculation};
use multiple_worlds::worlds_kernel::{AltSpec, BlockSpec, CostModel, Machine, Outcome};

/// The shared abstract scenario: three alternatives with distinct speed
/// classes; the middle one's guard fails; the fast one's guard passes.
/// Expected winner everywhere: "fast".
struct Scenario {
    names: [&'static str; 3],
    /// Relative cost classes (1 = fastest).
    cost_class: [u32; 3],
    guard_pass: [bool; 3],
}

const SCENARIO: Scenario = Scenario {
    names: ["fast", "cheater", "slow"],
    cost_class: [1, 0, 6],
    guard_pass: [true, false, true],
};

#[test]
fn simulator_picks_the_expected_winner() {
    let block = BlockSpec::new(
        (0..3)
            .map(|i| {
                AltSpec::new(SCENARIO.names[i])
                    .compute_ms(20.0 + 80.0 * SCENARIO.cost_class[i] as f64)
                    .guard(SCENARIO.guard_pass[i])
            })
            .collect(),
    );
    let mut m = Machine::new(CostModel::modern(3));
    let r = m.run_block(&block);
    assert_eq!(
        r.outcome,
        Outcome::Winner {
            index: 0,
            label: "fast".into()
        }
    );
}

#[test]
fn thread_executor_picks_the_expected_winner() {
    let spec = Speculation::new();
    let mut block: AltBlock<&'static str> = AltBlock::new().elim(ElimMode::Sync);
    for i in 0..3 {
        let name = SCENARIO.names[i];
        let class = SCENARIO.cost_class[i];
        let pass = SCENARIO.guard_pass[i];
        block = block.alt(name, move |ctx| {
            // The cheater fails fast; others sleep in proportion to class.
            if !pass {
                return Err(AltError::GuardFailed("scripted".into()));
            }
            for _ in 0..class * 4 {
                std::thread::sleep(Duration::from_millis(5));
                ctx.checkpoint()?;
            }
            Ok(name)
        });
    }
    let r = spec.run(block);
    assert_eq!(r.winner_label(), Some("fast"));
    assert_eq!(r.value, Some("fast"));
}

#[cfg(unix)]
#[test]
fn fork_backend_picks_the_expected_winner() {
    use multiple_worlds::worlds_apps::os::{ForkAlt, ForkElim, ForkOutcome, ForkRace};
    use std::time::Instant;

    let spin = |ms: u64| {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(ms) {
            std::hint::spin_loop();
        }
    };
    let mut alts = Vec::new();
    for i in 0..3 {
        let class = SCENARIO.cost_class[i];
        let pass = SCENARIO.guard_pass[i];
        alts.push(ForkAlt::new(SCENARIO.names[i], move |buf| {
            if !pass {
                return Err(());
            }
            spin(20 + 80 * class as u64);
            buf[0] = class as u8;
            Ok(1)
        }));
    }
    let report = ForkRace::new(alts)
        .elim(ForkElim::Sync)
        .run()
        .expect("race runs");
    match &report.outcome {
        ForkOutcome::Winner { index, label, .. } => {
            assert_eq!(*index, 0);
            assert_eq!(label, "fast");
        }
        other => panic!("expected fast to win, got {other:?}"),
    }
}

#[test]
fn all_executors_agree_on_total_failure() {
    // Guards all fail: simulator, threads and forks must all report the
    // failure path rather than a winner.
    let block = BlockSpec::new(
        (0..2)
            .map(|i| AltSpec::new(format!("f{i}")).compute_ms(5.0).guard(false))
            .collect(),
    );
    let mut m = Machine::new(CostModel::modern(2));
    assert_eq!(m.run_block(&block).outcome, Outcome::AllFailed);

    let spec = Speculation::new();
    let r: multiple_worlds::worlds::RunReport<u8> = spec.run(
        AltBlock::new()
            .alt("f0", |_| Err(AltError::GuardFailed("no".into())))
            .alt("f1", |_| Err(AltError::GuardFailed("no".into())))
            .elim(ElimMode::Sync),
    );
    assert_eq!(r.outcome, multiple_worlds::worlds::RunOutcome::AllFailed);

    #[cfg(unix)]
    {
        use multiple_worlds::worlds_apps::os::{ForkAlt, ForkElim, ForkOutcome, ForkRace};
        let report = ForkRace::new(vec![
            ForkAlt::new("f0", |_| Err(())),
            ForkAlt::new("f1", |_| Err(())),
        ])
        .elim(ForkElim::Sync)
        .run()
        .expect("race runs");
        assert_eq!(report.outcome, ForkOutcome::AllFailed);
    }
}
