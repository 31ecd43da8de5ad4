//! The transport-parity guarantee: a distributed block produces the same
//! outcome, the same virtual costs and the same committed page bytes
//! whether its state moves in-process or over real loopback TCP — with
//! or without faults, because both wires consult one [`FaultSchedule`]
//! under one op numbering.

use worlds_net::{FaultKind, FaultSchedule};
use worlds_obs::{EventKind, Registry, VirtualTime};
use worlds_remote::{run_distributed_block, Cluster, DistAlt, DistOutcome, NetModel, NodeId};

const PAGE: usize = 256;
const PAGES: u64 = 12;

fn block() -> Vec<DistAlt> {
    vec![
        DistAlt::new("careful", VirtualTime::from_secs(9.0), |c: &Cluster, w| {
            for vpn in 0..4 {
                c.write(w, vpn, &[0xA1]).unwrap();
            }
        }),
        DistAlt::new("quick", VirtualTime::from_secs(3.0), |c: &Cluster, w| {
            for vpn in 2..6 {
                c.write(w, vpn, &[0xB2]).unwrap();
            }
        }),
        DistAlt::new("middling", VirtualTime::from_secs(5.0), |c: &Cluster, w| {
            c.write(w, 7, &[0xC3]).unwrap();
        }),
    ]
}

/// Everything parity compares: block outcome, virtual-time accounting,
/// final origin-world bytes, and the virtual RPC event sequence.
#[derive(Debug, PartialEq, Eq)]
struct Trace {
    outcome: DistOutcome,
    wall_ns: u64,
    rfork_total_ns: u64,
    pages_shipped: usize,
    committed: Vec<Vec<u8>>,
    rpc_sequence: Vec<String>,
}

fn run_one(
    mut c: Cluster,
    ring: std::sync::Arc<worlds_obs::RingSink>,
    schedule: FaultSchedule,
) -> Trace {
    let origin = c.create_world(NodeId(0));
    for vpn in 0..PAGES {
        c.write(origin, vpn, &[0xAB; 32]).unwrap();
    }
    c.set_fault_schedule(schedule);
    let report = run_distributed_block(&mut c, origin, block()).unwrap();
    let committed = (0..PAGES)
        .map(|vpn| c.read(origin, vpn, PAGE).unwrap())
        .collect();
    let rpc_sequence = ring
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::RpcSend { .. }
                    | EventKind::RpcTimeout { .. }
                    | EventKind::RpcRetry { .. }
            )
        })
        .map(|e| format!("{:?}", e.kind))
        .collect();
    Trace {
        outcome: report.outcome,
        wall_ns: report.wall.as_ns(),
        rfork_total_ns: report.rfork_total.as_ns(),
        pages_shipped: report.pages_shipped,
        committed,
        rpc_sequence,
    }
}

fn in_process(schedule: FaultSchedule) -> Trace {
    let (obs, ring) = Registry::with_ring(8192);
    let c = Cluster::with_obs(3, PAGE, NetModel::lan_1989(), obs);
    assert_eq!(c.transport_name(), "in-process");
    run_one(c, ring, schedule)
}

fn tcp(schedule: FaultSchedule) -> (Trace, Registry) {
    let (obs, ring) = Registry::with_ring(8192);
    let c = Cluster::tcp(3, PAGE, NetModel::lan_1989(), obs.clone()).expect("loopback cluster");
    assert_eq!(c.transport_name(), "tcp");
    (run_one(c, ring, schedule), obs)
}

#[test]
fn clean_network_outcomes_match_exactly() {
    let a = in_process(FaultSchedule::none());
    let (b, _) = tcp(FaultSchedule::none());
    assert_eq!(a, b);
    assert!(matches!(a.outcome, DistOutcome::Winner { index: 1, .. }));
    assert_eq!(a.rpc_sequence.len(), 4, "3 rforks out + 1 commit home");
}

/// The acceptance gate: same seed, same DistOutcome, same committed
/// bytes, same virtual retry sequence — under a schedule that forces at
/// least one retry, one timeout and one connection reset on the real
/// wire.
#[test]
fn faulty_network_outcomes_match_and_the_wire_really_suffers() {
    // 4 logical ops; find a seed whose schedule drops at least one frame
    // (timeout + retry) and resets at least one connection. Delay faults
    // are excluded only to keep the test fast. `fault_for` is pure, so
    // this search is deterministic.
    let seed = (0..10_000u64)
        .find(|&s| {
            let sch = FaultSchedule::seeded(s, 1);
            let kinds: Vec<_> = (0..4).map(|op| sch.fault_for(op)).collect();
            kinds.contains(&Some(FaultKind::Drop))
                && kinds.contains(&Some(FaultKind::Reset))
                && !kinds
                    .iter()
                    .any(|k| matches!(k, Some(FaultKind::Delay { .. })))
        })
        .expect("some seed mixes drops and resets in 4 ops");
    let schedule = FaultSchedule::seeded(seed, 1);

    let a = in_process(schedule);
    let (b, obs) = tcp(schedule);
    assert_eq!(a, b, "fault schedule must not break transport parity");

    // Virtual accounting saw every fault...
    assert!(
        a.rpc_sequence.iter().any(|k| k.starts_with("RpcTimeout")),
        "{:?}",
        a.rpc_sequence
    );
    // ...and on TCP the faults were physical: real frames vanished, real
    // deadlines expired, real connections died, real retransmits won.
    let stats = obs.stats().expect("ring registry keeps stats");
    assert!(
        stats.net.retries.get() >= 1,
        "the wire must actually retry; got {}",
        stats.net.retries.get()
    );
    assert!(
        stats.net.timeouts.get() >= 1,
        "a dropped frame must burn a real deadline; got {}",
        stats.net.timeouts.get()
    );
}

/// Same seed, run twice on the same transport: byte-for-byte identical.
/// (Determinism is what makes the cross-transport comparison meaningful.)
#[test]
fn seeded_faults_replay_identically() {
    let schedule = FaultSchedule::seeded(7, 2);
    let a = in_process(schedule);
    let b = in_process(schedule);
    assert_eq!(a, b);
}

/// Delta rforks are transport-independent too: the pinned-base protocol
/// rides the same ship_image path.
#[test]
fn delta_rfork_parity_over_tcp() {
    let (obs, _ring) = Registry::with_ring(64);
    let mut c = Cluster::tcp(2, PAGE, NetModel::lan_1989(), obs).unwrap();
    c.set_delta_rfork(true);
    let origin = c.create_world(NodeId(0));
    for vpn in 0..PAGES {
        c.write(origin, vpn, &[9u8; 32]).unwrap();
    }
    let (r1, _) = c.rfork(origin, NodeId(1)).unwrap();
    let first = c.node(NodeId(1)).bytes_received();
    c.write(origin, 5, b"drift").unwrap();
    let (r2, _) = c.rfork(origin, NodeId(1)).unwrap();
    let delta = c.node(NodeId(1)).bytes_received() - first;
    assert!(delta * 4 < first, "{delta} vs {first}");
    assert_eq!(c.read(r2, 5, 5).unwrap(), b"drift");
    assert_eq!(c.read(r1, 5, 1).unwrap(), vec![9], "older replica frozen");
}
