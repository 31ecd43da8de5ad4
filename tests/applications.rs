//! End-to-end application tests: the three §4 application domains driven
//! through the full public API, checking cross-crate agreement.

use std::time::Duration;

use multiple_worlds::worlds::Speculation;
use multiple_worlds::worlds_apps::prolog::{
    or_parallel_solve, parse_query, solve, Database, SolveConfig,
};
use multiple_worlds::worlds_apps::recovery::{FaultPlan, RecoveryBlock, RecoveryOutcome};
use multiple_worlds::worlds_apps::rootfinder::parallel::{committed_roots, parallel_find_roots};
use multiple_worlds::worlds_apps::rootfinder::{legendre_like, JtConfig, TEST_ANGLES};

#[test]
fn rootfinder_race_commits_verified_roots() {
    let (poly, expected) = legendre_like(10);
    let spec = Speculation::new();
    let report = parallel_find_roots(
        &spec,
        &poly,
        &TEST_ANGLES[..3],
        &JtConfig::default(),
        Some(Duration::from_secs(30)),
    );
    assert!(
        report.succeeded(),
        "default budgets converge: {:?}",
        report.outcome
    );
    let committed = committed_roots(&spec).expect("winner wrote its roots");
    assert_eq!(committed.len(), expected.len());
    // Every committed root is near some constructed root.
    for r in &committed {
        let d = expected
            .iter()
            .map(|t| (*r - *t).abs())
            .fold(f64::INFINITY, f64::min);
        assert!(d < 1e-4, "root {r} is {d} from the nearest true root");
    }
}

#[test]
fn prolog_or_parallel_agrees_with_sequential_provability() {
    let db = Database::consult(
        "edge(a,b). edge(b,c). edge(a,x). edge(x,c). edge(c,d).\n\
         path(U,V) :- edge(U,V).\n\
         path(U,V) :- edge(U,W), path(W,V).",
    )
    .unwrap();
    let cfg = SolveConfig::default();
    for (query, provable) in [
        ("path(a, d)", true),
        ("path(d, a)", false),
        ("path(a, c)", true),
        ("edge(b, a)", false),
    ] {
        let goals = parse_query(query).unwrap();
        let (seq, _) = solve(&db, &goals, &cfg);
        let spec = Speculation::new();
        let par = or_parallel_solve(&spec, &db, &goals, &cfg, None);
        assert_eq!(
            seq.is_empty(),
            par.solution.is_none(),
            "sequential and OR-parallel must agree on provability of {query}"
        );
        assert_eq!(provable, !seq.is_empty(), "fixture sanity for {query}");
    }
}

#[test]
fn recovery_block_full_pipeline_with_speculative_file_state() {
    let spec = Speculation::new();
    spec.setup(|c| c.put_str("account", "balance=100")).unwrap();

    // Probabilistic faults, seeded for reproducibility; the plan is
    // shared, so sequential attempts consume the same fault sequence.
    let plan = FaultPlan::probabilistic(0.99, 1234); // primary virtually always faults
    let block = RecoveryBlock::new(|v: &String| v.contains("balance="))
        .alternate("flaky-primary", {
            let plan = plan.clone();
            move |ctx| {
                if plan.next_faults() {
                    ctx.put_str("account", "###")?;
                    Ok("corrupt".to_string())
                } else {
                    ctx.put_str("account", "balance=150")?;
                    Ok("balance=150".to_string())
                }
            }
        })
        .alternate("conservative-spare", |ctx| {
            let prev = ctx.get_str("account").expect("setup wrote it");
            assert_eq!(prev, "balance=100", "spare must see pristine state");
            ctx.put_str("account", "balance=100+fee")?;
            Ok("balance=100+fee".to_string())
        });

    let r = block.run_sequential(&spec);
    assert!(matches!(r.outcome, RecoveryOutcome::Accepted { .. }));
    let committed = spec.read(|c| c.get_str("account")).unwrap();
    assert!(
        committed.contains("balance="),
        "no corruption committed: {committed}"
    );
    assert_ne!(committed, "###");
}

#[test]
fn sequential_then_parallel_blocks_compose_over_one_session() {
    // A Speculation session survives multiple blocks, with state flowing
    // through commits — the paper's "sequence of alternative blocks".
    let spec = Speculation::new();
    spec.setup(|c| c.put_u64("v", 1)).unwrap();
    for step in 0..4u64 {
        let report = spec.run(
            multiple_worlds::worlds::AltBlock::new()
                .alt("triple", move |ctx| {
                    let v = ctx.get_u64("v").unwrap();
                    ctx.put_u64("v", v * 3)?;
                    Ok(v * 3)
                })
                .alt("triple-slowly", move |ctx| {
                    std::thread::sleep(Duration::from_millis(10 * step));
                    ctx.checkpoint()?;
                    let v = ctx.get_u64("v").unwrap();
                    ctx.put_u64("v", v * 3)?;
                    Ok(v * 3)
                })
                .elim(multiple_worlds::worlds::ElimMode::Sync),
        );
        assert!(report.succeeded());
    }
    assert_eq!(
        spec.read(|c| c.get_u64("v")),
        Some(81),
        "3^4 via four committed blocks"
    );
}
