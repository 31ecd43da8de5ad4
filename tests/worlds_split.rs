//! Figure 2 semantics, end to end: predicated messages between
//! speculative worlds, receiver splitting with real COW state, and
//! source-device gating — the full §2.4 machinery across crates.

use multiple_worlds::worlds::ipc::{SourceDevice, Teletype};
use multiple_worlds::worlds::PredicateSet;
use multiple_worlds::worlds_kernel::{Delivered, SplitKernel};

// `Delivered` is re-exported through the kernel's split module; make sure
// the path the docs advertise actually resolves.
use multiple_worlds::worlds_kernel as kernel;

#[test]
fn the_papers_figure_2_scenario() {
    // A parent spawns alternatives method1..method3; method2 sends a
    // message to an observer outside the block. The observer splits into
    // two internally-consistent worlds; resolution keeps exactly one.
    let mut k = SplitKernel::new(128);
    let parent = k.spawn_root();
    let observer = k.spawn_root();
    k.write_state(parent, 0, b"shared-input");
    k.write_state(observer, 0, b"observer-db!");

    let methods = k.alt_spawn(parent, 3);
    // Each method computes into its own world.
    for (i, &m) in methods.iter().enumerate() {
        k.write_state(m, 1, &[i as u8 + 1]);
    }

    // method2 (index 1) speculatively messages the observer.
    k.send(methods[1], observer, "partial result from method2");
    let Delivered::Split { accepting, payload } = k.deliver_next(observer) else {
        panic!("novel assumptions must split the observer");
    };
    assert_eq!(payload, b"partial result from method2");

    // Both observer copies exist with consistent, opposite predicates.
    let yes = k.process(accepting).expect("accepting copy lives");
    let no = k.process(observer).expect("original lives");
    assert!(yes.predicates.assumes_completes(methods[1]));
    assert!(no.predicates.assumes_fails(methods[1]));
    assert!(yes.predicates.is_consistent() && no.predicates.is_consistent());
    // They share the observer's pages COW.
    assert_eq!(k.read_state(accepting, 0, 12), b"observer-db!");

    // method1 (index 0) wins the block.
    let eliminated = k.commit(methods[0]);
    // Its rivals die; so does the observer copy that believed method2.
    assert!(eliminated.contains(&methods[1]));
    assert!(eliminated.contains(&methods[2]));
    assert!(eliminated.contains(&accepting));
    assert!(k.process(observer).is_some());

    // The parent absorbed method1's state seamlessly.
    assert_eq!(k.read_state(parent, 1, 1), vec![1]);
    assert_eq!(k.read_state(parent, 0, 12), b"shared-input");

    // The surviving observer's predicates are fully resolved again.
    assert!(k.process(observer).unwrap().predicates.is_resolved());

    // Nothing leaked: worlds == live processes.
    assert_eq!(k.store().world_count(), k.live_processes());
}

#[test]
fn speculative_worlds_cannot_touch_sources() {
    let mut k = SplitKernel::new(128);
    let parent = k.spawn_root();
    let kids = k.alt_spawn(parent, 2);
    let tty = Teletype::new();

    // The root can print; the speculative children cannot.
    let root_preds = k.process(parent).unwrap().predicates.clone();
    assert!(tty.emit(&root_preds, b"root speaks").is_ok());
    for &kid in &kids {
        let preds = k.process(kid).unwrap().predicates.clone();
        assert!(
            tty.emit(&preds, b"speculative leak").is_err(),
            "unresolved worlds are restricted from sources"
        );
    }
    assert_eq!(tty.output_strings(), vec!["root speaks"]);

    // After the winner commits, its predicates are resolved and it may
    // print (it *is* the parent now).
    let _ = k.commit(kids[0]);
    let preds = k.process(parent).unwrap().predicates.clone();
    assert!(tty.emit(&preds, b"committed result").is_ok());
}

#[test]
fn multi_hop_speculation_chains_resolve_correctly() {
    // A chain of observers each splitting on the previous hop's message:
    // when the originating alternative wins, every "believer" copy
    // survives and every "skeptic" dies.
    let mut k = SplitKernel::new(64);
    let root = k.spawn_root();
    let kids = k.alt_spawn(root, 2);
    let hops: Vec<_> = (0..4).map(|_| k.spawn_root()).collect();

    let mut believer = kids[0];
    let mut believers = Vec::new();
    for &hop in &hops {
        k.send(believer, hop, "chain");
        let Delivered::Split { accepting, .. } = k.deliver_next(hop) else {
            panic!("expected split at each hop");
        };
        believers.push(accepting);
        believer = accepting;
    }
    assert_eq!(k.live_processes(), 1 + 2 + 4 + 4); // root, kids, hops + copies

    let eliminated = k.commit(kids[0]);
    // kid1 dies; every original (skeptic) hop dies; believers live.
    assert!(eliminated.contains(&kids[1]));
    for (&hop, &bel) in hops.iter().zip(&believers) {
        assert!(eliminated.contains(&hop), "skeptic hop should die");
        let p = k.process(bel).expect("believer survives");
        assert!(
            p.predicates.is_resolved(),
            "all assumptions resolved: {}",
            p.predicates
        );
    }
}

#[test]
fn kernel_reexports_are_usable() {
    // The crate-level re-export paths advertised in the docs.
    let _ = kernel::CostModel::att_3b2();
    let empty = PredicateSet::empty();
    assert!(empty.is_resolved());
}
