//! The paper's §4.1 scenario: recovery blocks as software standby-spares.
//!
//! ```sh
//! cargo run --example recovery_blocks
//! ```
//!
//! A flaky primary corrupts a "database file" before failing its
//! acceptance test. Sequentially, the corruption is rolled back for free
//! (the world is discarded) before the alternate runs; in parallel, the
//! alternate is already running when the primary fails, so recovery costs
//! no extra response time.

use std::time::Duration;

use worlds::Speculation;
use worlds_apps::recovery::{FaultPlan, RecoveryBlock, RecoveryOutcome};

fn main() {
    let spec = Speculation::new();
    spec.setup(|ctx| ctx.put_str("db", "ledger-v1"))
        .expect("setup in the root world");

    // The primary faults on its first two invocations.
    let plan = FaultPlan::on_invocations(vec![0, 1]);

    let build = |plan: FaultPlan| {
        RecoveryBlock::new(|v: &String| v.starts_with("ledger"))
            .alternate("primary", move |ctx| {
                let base = ctx.get_str("db").expect("setup wrote it");
                if plan.next_faults() {
                    // The fault: corrupt the file, produce a bad value.
                    ctx.put_str("db", "!!corrupted!!")?;
                    Ok("garbage".to_string())
                } else {
                    let v = format!("{base}+primary");
                    ctx.put_str("db", &v)?;
                    Ok(v)
                }
            })
            .alternate("spare", |ctx| {
                // Slower, simpler, always right.
                std::thread::sleep(Duration::from_millis(30));
                ctx.checkpoint()?;
                let base = ctx.get_str("db").expect("setup wrote it");
                let v = format!("{base}+spare");
                ctx.put_str("db", &v)?;
                Ok(v)
            })
    };

    println!("--- sequential recovery block (faulty primary) ---");
    let r = build(plan.clone()).run_sequential(&spec);
    println!("outcome: {:?}", r.outcome);
    println!("committed db: {:?}", spec.read(|c| c.get_str("db")));
    assert_eq!(
        r.outcome,
        RecoveryOutcome::Accepted {
            label: "spare".into(),
            attempts: 2
        }
    );
    assert_eq!(
        spec.read(|c| c.get_str("db")).as_deref(),
        Some("ledger-v1+spare"),
        "the corruption was rolled back with the primary's world"
    );

    println!("\n--- parallel standby-spares (faulty primary again) ---");
    let spec2 = Speculation::new();
    spec2
        .setup(|ctx| ctx.put_str("db", "ledger-v1"))
        .expect("setup");
    let r = build(plan).run_parallel(&spec2);
    println!("outcome: {:?} in {:?}", r.outcome, r.wall);
    println!("committed db: {:?}", spec2.read(|c| c.get_str("db")));
    assert!(r.accepted(), "the spare masks the fault");

    println!("\n--- parallel with a healthy primary: primary wins ---");
    let spec3 = Speculation::new();
    spec3
        .setup(|ctx| ctx.put_str("db", "ledger-v1"))
        .expect("setup");
    let r = build(FaultPlan::none()).run_parallel(&spec3);
    println!("outcome: {:?}", r.outcome);
    match r.outcome {
        RecoveryOutcome::Accepted { label, .. } => {
            assert_eq!(
                label, "primary",
                "the fast healthy primary beats the sleepy spare"
            )
        }
        other => panic!("expected acceptance, got {other:?}"),
    }
}
