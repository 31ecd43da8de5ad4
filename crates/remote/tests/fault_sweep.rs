//! Fail the k-th op, for every k: a 2-node TCP cluster with delta rfork
//! runs two 3-alternative blocks — the first pins the delta base with a
//! full image, the second ships a delta — while a [`FaultSchedule::once`]
//! fails exactly one accounted op of the pair. For every op and every
//! fault kind that ends in a retry, the blocks must end as they do on a
//! clean wire: the same outcomes and committed origin bytes, every
//! replica gone from node 1 (only the pinned base stays), and no frame
//! applied twice — the stores performed exactly the forks, writes and
//! adoptions of the clean run.

use worlds_net::{FaultKind, FaultSchedule};
use worlds_obs::{EventKind, Registry, VirtualTime};
use worlds_pagestore::StoreStats;
use worlds_remote::{run_distributed_block, Cluster, DistAlt, DistOutcome, NetModel, NodeId};

const PAGE: usize = 256;
const PAGES: u64 = 12;
const WRITTEN: usize = 32;

/// Three alternatives that all queue on node 1: the fastest fails its
/// guard, so the second commits four pages of `byte`.
fn block(byte: u8) -> Vec<DistAlt> {
    vec![
        DistAlt::new(
            "broken",
            VirtualTime::from_secs(1.0),
            move |c: &Cluster, w| {
                c.write(w, 0, &[byte ^ 0xFF]).unwrap();
            },
        )
        .guard(false),
        DistAlt::new(
            "quick",
            VirtualTime::from_secs(3.0),
            move |c: &Cluster, w| {
                for vpn in 2..6 {
                    c.write(w, vpn, &[byte]).unwrap();
                }
            },
        ),
        DistAlt::new(
            "slow",
            VirtualTime::from_secs(9.0),
            move |c: &Cluster, w| {
                c.write(w, 7, &[byte]).unwrap();
            },
        ),
    ]
}

/// The store work that proves each frame applied once.
fn applied(s: &StoreStats) -> [u64; 3] {
    [s.forks, s.writes, s.adopts]
}

/// What a pair of blocks left behind.
#[derive(Debug, PartialEq, Eq)]
struct Run {
    outcomes: Vec<DistOutcome>,
    committed: Vec<Vec<u8>>,
    /// Node 1's world count after each block.
    worlds_there: Vec<usize>,
    /// Store work during the blocks: the origin's, then node 1's.
    applied: [[u64; 3]; 2],
}

/// Run both blocks under `schedule`; also returns how many accounted
/// ops (transfers) they made.
fn run(schedule: FaultSchedule) -> (Run, usize) {
    let (obs, ring) = Registry::with_ring(1 << 16);
    let mut c = Cluster::tcp(2, PAGE, NetModel::lan_1989(), obs).expect("loopback cluster");
    c.set_delta_rfork(true);
    let origin = c.create_world(NodeId(0));
    for vpn in 0..PAGES {
        c.write(origin, vpn, &[0xAB; WRITTEN]).unwrap();
    }
    let stats = |c: &Cluster| [0, 1].map(|n| c.node(NodeId(n)).store().stats());
    let before = stats(&c);
    c.set_fault_schedule(schedule);
    let mut outcomes = Vec::new();
    let mut worlds_there = Vec::new();
    for byte in [0xA0, 0xB0] {
        let report = run_distributed_block(&mut c, origin, block(byte)).unwrap();
        outcomes.push(report.outcome);
        worlds_there.push(c.node(NodeId(1)).store().world_count());
    }
    let after = stats(&c);
    // Every write, the origin's and the alternatives', lands in a page's
    // first `WRITTEN` bytes.
    let committed = (0..PAGES)
        .map(|vpn| c.read(origin, vpn, WRITTEN).unwrap())
        .collect();
    let ops = ring
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RpcSend { .. }))
        .count();
    let run = Run {
        outcomes,
        committed,
        worlds_there,
        applied: [0, 1].map(|n| applied(&after[n].delta_since(&before[n]))),
    };
    (run, ops)
}

#[test]
fn failing_any_one_op_of_a_block_changes_nothing_it_commits() {
    let (clean, ops) = run(FaultSchedule::none());
    assert!(matches!(
        clean.outcomes[..],
        [
            DistOutcome::Winner { index: 1, .. },
            DistOutcome::Winner { index: 1, .. }
        ]
    ));
    assert_eq!(clean.worlds_there, [1, 1], "only the pinned base stays");
    // Block 1: full image, header-only delta, 2 siblings, commit.
    // Block 2: probe, delta with pages, 2 siblings, commit.
    assert_eq!(ops, 10);
    for kind in [
        FaultKind::Drop,
        FaultKind::Reset,
        FaultKind::Truncate,
        FaultKind::DropReply,
    ] {
        for k in 0..ops as u64 {
            let (faulty, faulty_ops) = run(FaultSchedule::once(k, kind));
            assert_eq!(faulty, clean, "op {k} failed with {kind:?}");
            assert_eq!(faulty_ops, ops, "op {k} failed with {kind:?}");
        }
    }
}
