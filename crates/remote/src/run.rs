//! Distributed alternative blocks: speculation across nodes.

use worlds_obs::VirtualTime;
use worlds_pagestore::PageStoreError;

use crate::cluster::{Cluster, NodeId, RemoteWorld};

/// The replica-mutation callback type.
pub type MutateFn = Box<dyn FnMut(&Cluster, RemoteWorld) + Send>;

/// One alternative destined for a remote node.
pub struct DistAlt {
    /// Label for reports.
    pub label: String,
    /// Virtual compute time the alternative burns on its node.
    pub compute: VirtualTime,
    /// The state mutation it performs in its replica (runs against the
    /// cluster's real stores; only the winner's effects survive).
    pub mutate: MutateFn,
    /// Whether its guard condition holds.
    pub guard_pass: bool,
}

impl DistAlt {
    /// Convenience constructor with a passing guard.
    pub fn new(
        label: impl Into<String>,
        compute: VirtualTime,
        mutate: impl FnMut(&Cluster, RemoteWorld) + Send + 'static,
    ) -> DistAlt {
        DistAlt {
            label: label.into(),
            compute,
            mutate: Box::new(mutate),
            guard_pass: true,
        }
    }

    /// Set the guard outcome (builder).
    pub fn guard(mut self, pass: bool) -> DistAlt {
        self.guard_pass = pass;
        self
    }
}

impl std::fmt::Debug for DistAlt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistAlt")
            .field("label", &self.label)
            .field("compute", &self.compute)
            .field("guard_pass", &self.guard_pass)
            .finish()
    }
}

/// Block outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistOutcome {
    /// An alternative won; its dirty pages were shipped home and
    /// committed.
    Winner {
        /// Index into the alternative list.
        index: usize,
        /// Its label.
        label: String,
    },
    /// No guard passed.
    AllFailed,
}

/// Measurements of one distributed block.
#[derive(Debug)]
pub struct DistReport {
    /// Winner / failure.
    pub outcome: DistOutcome,
    /// Response time: last rfork issue → commit complete.
    pub wall: VirtualTime,
    /// Time spent shipping replicas out (sum over alternatives; they are
    /// issued serially from the origin). A sibling — an alternative
    /// forked from its node's first replica — is charged a 32-byte
    /// transfer (its header-only image), not an image of the world.
    pub rfork_total: VirtualTime,
    /// Time spent shipping the winner's dirty pages back.
    pub commit_cost: VirtualTime,
    /// Dirty pages that travelled home.
    pub pages_shipped: usize,
    /// Per-alternative completion times (virtual, `None` for failed
    /// guards).
    pub finish_times: Vec<Option<VirtualTime>>,
}

impl DistReport {
    /// Did the block commit?
    pub fn succeeded(&self) -> bool {
        matches!(self.outcome, DistOutcome::Winner { .. })
    }
}

/// Execute a block of alternatives distributed round-robin over the
/// cluster's non-origin nodes (or the origin itself for a 1-node
/// cluster). Virtual-time semantics:
///
/// 1. replicas ship serially from the origin, once per node: the first
///    alternative placed on a node rforks there (a probe, then an image
///    with pages, under delta rfork); every further alternative on that
///    node is a *sibling*, forked there from that first replica by a
///    header-only image and charged a 32-byte transfer. A node's
///    siblings travel in one transport batch;
/// 2. each alternative computes on its node for its `compute` time, all
///    in parallel (one alternative per node at a time is guaranteed by
///    round-robin placement only when `alts ≤ nodes − 1`; surplus
///    alternatives *queue* on their node);
/// 3. the earliest finisher with a passing guard wins; its content-diff
///    against the origin's world ships back and commits;
/// 4. every replica still live — the losers and the committed winner's
///    — is discarded in place, one transport batch per node
///    (asynchronously — no wall cost).
///
/// A block that fails — an rfork, the commit or a discard returns an
/// error — still discards every replica it shipped (best effort), then
/// returns the first error.
pub fn run_distributed_block(
    cluster: &mut Cluster,
    origin_world: RemoteWorld,
    mut alts: Vec<DistAlt>,
) -> Result<DistReport, PageStoreError> {
    assert!(!alts.is_empty(), "a block needs at least one alternative");
    assert_eq!(
        origin_world.node,
        NodeId(0),
        "the parent lives on the origin node"
    );
    // 4. Whatever is still live once the block ends is discarded here:
    // the losers and the committed winner, or on error every replica
    // shipped so far.
    let mut live = Vec::with_capacity(alts.len());
    let mut committed = None;
    let report = run_block(cluster, origin_world, &mut alts, &mut live, &mut committed);
    let discarded = cluster.discard_all(&live, committed);
    let report = report?;
    discarded?;
    Ok(report)
}

/// Steps 1–3 of [`run_distributed_block`]. `live` gathers every replica
/// shipped and not consumed; `committed` is the one among them whose
/// pages are home.
fn run_block(
    cluster: &mut Cluster,
    origin_world: RemoteWorld,
    alts: &mut [DistAlt],
    live: &mut Vec<RemoteWorld>,
    committed: &mut Option<RemoteWorld>,
) -> Result<DistReport, PageStoreError> {
    let n_nodes = cluster.len();
    let target = |i: usize| -> NodeId {
        if n_nodes == 1 {
            NodeId(0)
        } else {
            NodeId(1 + (i % (n_nodes - 1)))
        }
    };

    // 1. Ship one replica per node serially, then fork each node's
    // siblings from it, one batch per node. `placed[i]` is alternative
    // i's replica and the virtual time it is ready.
    let mut placed: Vec<Option<(RemoteWorld, VirtualTime)>> = vec![None; alts.len()];
    let mut first_on: Vec<Option<RemoteWorld>> = vec![None; n_nodes];
    let mut siblings: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    let mut clock = VirtualTime::ZERO;
    let mut rfork_total = VirtualTime::ZERO;
    for (i, slot) in placed.iter_mut().enumerate() {
        let node = target(i);
        // A local fork is already free: only remote nodes share.
        if node != origin_world.node && first_on[node.0].is_some() {
            siblings[node.0].push(i);
            continue;
        }
        cluster.set_clock_ns(clock.as_ns());
        let (replica, cost) = cluster.rfork(origin_world, node)?;
        clock += cost;
        rfork_total += cost;
        live.push(replica);
        first_on[node.0] = Some(replica);
        *slot = Some((replica, clock));
    }
    for (node, there) in siblings.iter().enumerate() {
        let Some(first) = first_on[node].filter(|_| !there.is_empty()) else {
            continue;
        };
        cluster.set_clock_ns(clock.as_ns());
        let mut failed = None;
        for (&i, forked) in
            there
                .iter()
                .zip(cluster.fork_siblings(origin_world, first, there.len())?)
        {
            match forked {
                Ok((replica, cost)) => {
                    clock += cost;
                    rfork_total += cost;
                    live.push(replica);
                    placed[i] = Some((replica, clock));
                }
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        if let Some(e) = failed {
            return Err(e);
        }
    }
    let (replicas, ready_at): (Vec<RemoteWorld>, Vec<VirtualTime>) = placed
        .into_iter()
        .map(|p| p.expect("every alternative is placed"))
        .unzip();

    // 2. Compute, with per-node FIFO queueing for surplus alternatives.
    let mut node_free_at: Vec<VirtualTime> = vec![VirtualTime::ZERO; n_nodes];
    let mut finish: Vec<Option<VirtualTime>> = Vec::with_capacity(alts.len());
    for (i, alt) in alts.iter_mut().enumerate() {
        let node = replicas[i].node.0;
        let start = ready_at[i].max(node_free_at[node]);
        let done = start + alt.compute;
        node_free_at[node] = done;
        // Perform the real state mutation in the replica.
        (alt.mutate)(cluster, replicas[i]);
        finish.push(if alt.guard_pass { Some(done) } else { None });
    }

    // 3. Earliest passing finisher wins.
    let winner = finish
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|t| (t, i)))
        .min();

    let (outcome, wall, commit_cost, pages_shipped) = match winner {
        Some((t_done, w)) => {
            cluster.set_clock_ns(t_done.as_ns());
            let (cost, pages) = cluster.commit_home(origin_world, replicas[w])?;
            if replicas[w].node == origin_world.node {
                // Adoption consumed the winner's replica.
                live.retain(|&r| r != replicas[w]);
            } else {
                // Its pages are home; step 4 discards it with the losers.
                *committed = Some(replicas[w]);
            }
            (
                DistOutcome::Winner {
                    index: w,
                    label: alts[w].label.clone(),
                },
                t_done + cost,
                cost,
                pages,
            )
        }
        None => {
            // Failure is known once the last (slowest) alternative gives
            // up; approximate with the last finish of compute.
            let last = alts
                .iter()
                .enumerate()
                .map(|(i, a)| ready_at[i] + a.compute)
                .max()
                .expect("nonempty");
            (DistOutcome::AllFailed, last, VirtualTime::ZERO, 0)
        }
    };

    Ok(DistReport {
        outcome,
        wall,
        rfork_total,
        commit_cost,
        pages_shipped,
        finish_times: finish,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetModel;
    use crate::transport::{InProcess, Transport};
    use worlds_net::FaultSchedule;
    use worlds_obs::Registry;

    fn setup(nodes: usize, pages: u64) -> (Cluster, RemoteWorld) {
        let mut c = Cluster::new(nodes, 4096, NetModel::lan_1989());
        let origin = c.create_world(NodeId(0));
        for vpn in 0..pages {
            c.write(origin, vpn, &[0xCC]).expect("origin live");
        }
        (c, origin)
    }

    fn writer(pages: u64) -> impl FnMut(&Cluster, RemoteWorld) + Send + 'static {
        move |c, w| {
            for vpn in 0..pages {
                c.write(w, vpn, &[0xDD]).expect("replica live");
            }
        }
    }

    #[test]
    fn fastest_remote_alternative_wins_and_commits() {
        let (mut c, origin) = setup(3, 18); // ~70 KB
        let report = run_distributed_block(
            &mut c,
            origin,
            vec![
                DistAlt::new("slow", VirtualTime::from_secs(30.0), writer(4)),
                DistAlt::new("fast", VirtualTime::from_secs(5.0), writer(2)),
            ],
        )
        .unwrap();
        assert_eq!(
            report.outcome,
            DistOutcome::Winner {
                index: 1,
                label: "fast".into()
            }
        );
        // The winner's edits are home.
        assert_eq!(c.read(origin, 0, 1).unwrap(), vec![0xDD]);
        assert_eq!(
            c.read(origin, 2, 1).unwrap(),
            vec![0xCC],
            "untouched page stays"
        );
        assert_eq!(report.pages_shipped, 2);
        // Wall = 2 rforks (~1 s each) + 5 s compute + small commit.
        assert!(
            report.wall.as_secs() > 6.0 && report.wall.as_secs() < 9.0,
            "{}",
            report.wall
        );
    }

    #[test]
    fn rfork_dominates_short_computations() {
        // The paper's point about the distributed case: with ~1 s forks,
        // speculation on sub-second computations cannot win.
        let (mut c, origin) = setup(3, 18);
        let report = run_distributed_block(
            &mut c,
            origin,
            vec![
                DistAlt::new("a", VirtualTime::from_ms(100.0), writer(1)),
                DistAlt::new("b", VirtualTime::from_ms(200.0), writer(1)),
            ],
        )
        .unwrap();
        let t_best = VirtualTime::from_ms(100.0);
        assert!(
            report.wall.as_ns() > 10 * t_best.as_ns(),
            "overhead must dominate: wall {} vs best {}",
            report.wall,
            t_best
        );
        // Measured Ro >> break-even for any plausible Rμ here.
    }

    #[test]
    fn guard_failures_fall_through_to_surviving_alternative() {
        let (mut c, origin) = setup(3, 4);
        let report = run_distributed_block(
            &mut c,
            origin,
            vec![
                DistAlt::new("bad-fast", VirtualTime::from_secs(1.0), writer(1)).guard(false),
                DistAlt::new("good-slow", VirtualTime::from_secs(10.0), writer(1)),
            ],
        )
        .unwrap();
        assert_eq!(
            report.outcome,
            DistOutcome::Winner {
                index: 1,
                label: "good-slow".into()
            }
        );
        assert_eq!(report.finish_times[0], None);
    }

    #[test]
    fn all_failed_discards_every_replica() {
        let (mut c, origin) = setup(3, 4);
        let report = run_distributed_block(
            &mut c,
            origin,
            vec![
                DistAlt::new("a", VirtualTime::from_secs(1.0), writer(1)).guard(false),
                DistAlt::new("b", VirtualTime::from_secs(2.0), writer(1)).guard(false),
            ],
        )
        .unwrap();
        assert_eq!(report.outcome, DistOutcome::AllFailed);
        assert_eq!(
            c.read(origin, 0, 1).unwrap(),
            vec![0xCC],
            "no speculative leak"
        );
        for id in 1..3 {
            assert_eq!(
                c.node(NodeId(id)).store().world_count(),
                0,
                "node {id} clean"
            );
        }
    }

    #[test]
    fn surplus_alternatives_queue_on_their_nodes() {
        // 2 nodes (1 worker) and 2 alternatives: they serialise.
        let (mut c, origin) = setup(2, 2);
        let report = run_distributed_block(
            &mut c,
            origin,
            vec![
                DistAlt::new("first", VirtualTime::from_secs(10.0), writer(1)),
                DistAlt::new("second", VirtualTime::from_secs(1.0), writer(1)),
            ],
        )
        .unwrap();
        // "second" cannot start until "first" releases the single worker:
        // the winner is "first" despite being slower in isolation.
        assert_eq!(
            report.outcome,
            DistOutcome::Winner {
                index: 0,
                label: "first".into()
            }
        );
    }

    #[test]
    fn single_node_cluster_degenerates_to_local_cow() {
        let (mut c, origin) = setup(1, 4);
        let report = run_distributed_block(
            &mut c,
            origin,
            vec![DistAlt::new("only", VirtualTime::from_secs(1.0), writer(2))],
        )
        .unwrap();
        assert!(report.succeeded());
        assert_eq!(
            report.rfork_total,
            VirtualTime::ZERO,
            "local fork is COW, free"
        );
        assert_eq!(
            report.commit_cost,
            VirtualTime::ZERO,
            "local commit is adoption"
        );
        assert_eq!(c.read(origin, 0, 1).unwrap(), vec![0xDD]);
    }

    #[test]
    fn modern_network_restores_the_win() {
        // Same workload, datacenter network: overhead collapses and
        // speculation wins again — the Figure 4 story in distributed form.
        let mut c = Cluster::new(3, 4096, NetModel::datacenter());
        let origin = c.create_world(NodeId(0));
        for vpn in 0..18 {
            c.write(origin, vpn, &[0xCC]).unwrap();
        }
        let report = run_distributed_block(
            &mut c,
            origin,
            vec![
                DistAlt::new("a", VirtualTime::from_ms(100.0), writer(1)),
                DistAlt::new("b", VirtualTime::from_ms(500.0), writer(1)),
            ],
        )
        .unwrap();
        // Wall ≈ best + ε.
        assert!(report.wall.as_ms() < 110.0, "wall {}", report.wall);
    }

    /// An in-process transport whose link goes down on cue: at the
    /// `fail_image`-th image shipped (counting from 1) or at every
    /// `ship_pages`.
    struct Failing {
        inner: InProcess,
        images: usize,
        fail_image: Option<usize>,
        fail_pages: bool,
    }

    fn link_down(what: &str) -> PageStoreError {
        PageStoreError::NoSuchFile(format!("{what}: link down"))
    }

    impl Transport for Failing {
        fn ship_image(&mut self, dst: usize, images: &[&[u8]]) -> Vec<Result<u64, PageStoreError>> {
            images
                .iter()
                .map(|image| {
                    self.images += 1;
                    if self.fail_image == Some(self.images) {
                        return Err(link_down("ship_image"));
                    }
                    self.inner.ship_image(dst, &[image]).remove(0)
                })
                .collect()
        }
        fn ship_pages(
            &mut self,
            dst: usize,
            base: u64,
            pages: &[(u64, Vec<u8>)],
        ) -> Result<(), PageStoreError> {
            if self.fail_pages {
                return Err(link_down("ship_pages"));
            }
            self.inner.ship_pages(dst, base, pages)
        }
        fn probe_hashes(
            &mut self,
            dst: usize,
            hashes: &[u64],
        ) -> Result<Vec<bool>, PageStoreError> {
            self.inner.probe_hashes(dst, hashes)
        }
        fn discard(&mut self, dst: usize, worlds: &[u64]) -> Vec<Result<(), PageStoreError>> {
            self.inner.discard(dst, worlds)
        }
        fn set_fault_schedule(&mut self, _schedule: FaultSchedule) {}
        fn name(&self) -> &'static str {
            "failing"
        }
    }

    /// A 2-node cluster on a [`Failing`] transport, its origin set up as
    /// in [`setup`], and a block of three alternatives that all queue on
    /// node 1.
    fn failing_block(
        fail_image: Option<usize>,
        fail_pages: bool,
    ) -> (Cluster, RemoteWorld, Vec<DistAlt>) {
        let obs = Registry::disabled();
        let stores = Cluster::stores(2, 4096, &obs);
        let transport = Box::new(Failing {
            inner: InProcess::new(stores.clone()),
            images: 0,
            fail_image,
            fail_pages,
        });
        let mut c = Cluster::assemble(stores, 4096, NetModel::lan_1989(), obs, transport);
        let origin = c.create_world(NodeId(0));
        for vpn in 0..4 {
            c.write(origin, vpn, &[0xCC]).unwrap();
        }
        let alts = (0..3)
            .map(|i| DistAlt::new(format!("alt{i}"), VirtualTime::from_secs(1.0), writer(4)))
            .collect();
        (c, origin, alts)
    }

    fn assert_block_left_no_trace(c: &Cluster, origin: RemoteWorld, worlds_there: usize) {
        assert_eq!(
            c.node(NodeId(1)).store().world_count(),
            worlds_there,
            "every shipped replica was discarded"
        );
        for vpn in 0..4 {
            assert_eq!(c.read(origin, vpn, 1).unwrap(), vec![0xCC], "vpn {vpn}");
        }
    }

    #[test]
    fn failed_commit_discards_every_replica() {
        let (mut c, origin, alts) = failing_block(None, true);
        let worlds_there = c.node(NodeId(1)).store().world_count();
        let err = run_distributed_block(&mut c, origin, alts).unwrap_err();
        assert_eq!(err, link_down("ship_pages"));
        assert_block_left_no_trace(&c, origin, worlds_there);
    }

    #[test]
    fn failed_rfork_discards_the_replicas_already_shipped() {
        let (mut c, origin, alts) = failing_block(Some(2), false);
        let worlds_there = c.node(NodeId(1)).store().world_count();
        let err = run_distributed_block(&mut c, origin, alts).unwrap_err();
        assert_eq!(err, link_down("ship_image"));
        assert_block_left_no_trace(&c, origin, worlds_there);
    }

    /// One transport call as the wire would carry it: which method, and
    /// the size of each frame (image bytes, probed hashes, pages, or
    /// worlds discarded).
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Call {
        Probe(usize),
        Images(usize, Vec<usize>),
        Pages(usize),
        Discard(usize, usize),
    }

    /// An in-process transport that logs every call it forwards.
    struct Counting {
        inner: InProcess,
        log: std::sync::Arc<std::sync::Mutex<Vec<Call>>>,
    }

    impl Counting {
        fn note(&self, call: Call) {
            self.log.lock().unwrap().push(call);
        }
    }

    impl Transport for Counting {
        fn ship_image(&mut self, dst: usize, images: &[&[u8]]) -> Vec<Result<u64, PageStoreError>> {
            self.note(Call::Images(dst, images.iter().map(|i| i.len()).collect()));
            self.inner.ship_image(dst, images)
        }
        fn ship_pages(
            &mut self,
            dst: usize,
            base: u64,
            pages: &[(u64, Vec<u8>)],
        ) -> Result<(), PageStoreError> {
            self.note(Call::Pages(pages.len()));
            self.inner.ship_pages(dst, base, pages)
        }
        fn probe_hashes(
            &mut self,
            dst: usize,
            hashes: &[u64],
        ) -> Result<Vec<bool>, PageStoreError> {
            self.note(Call::Probe(hashes.len()));
            self.inner.probe_hashes(dst, hashes)
        }
        fn discard(&mut self, dst: usize, worlds: &[u64]) -> Vec<Result<(), PageStoreError>> {
            self.note(Call::Discard(dst, worlds.len()));
            self.inner.discard(dst, worlds)
        }
        fn set_fault_schedule(&mut self, _schedule: FaultSchedule) {}
        fn name(&self) -> &'static str {
            "counting"
        }
    }

    /// The transport calls of the second of two 3-alternative delta
    /// blocks (the first pins the base) on `nodes` nodes, each
    /// alternative writing four pages.
    fn steady_block_calls(nodes: usize) -> Vec<Call> {
        let obs = Registry::disabled();
        let stores = Cluster::stores(nodes, 4096, &obs);
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let transport = Box::new(Counting {
            inner: InProcess::new(stores.clone()),
            log: log.clone(),
        });
        let mut c = Cluster::assemble(stores, 4096, NetModel::lan_1989(), obs, transport);
        c.set_delta_rfork(true);
        let origin = c.create_world(NodeId(0));
        for vpn in 0..16 {
            c.write(origin, vpn, &[0xCC; 64]).unwrap();
        }
        let block = |c: &mut Cluster, byte: u8| {
            let alts = (0..3)
                .map(|i| {
                    DistAlt::new(
                        format!("alt{i}"),
                        VirtualTime::from_secs(1.0),
                        move |c, w| {
                            for vpn in 0..4 {
                                c.write(w, vpn, &[byte]).expect("replica live");
                            }
                        },
                    )
                })
                .collect();
            assert!(run_distributed_block(c, origin, alts).unwrap().succeeded());
        };
        block(&mut c, 0xD0);
        log.lock().unwrap().clear();
        // The first block's commit moved the origin off the pinned
        // base, so this one probes and ships a delta with pages.
        block(&mut c, 0xD1);
        let calls = log.lock().unwrap().clone();
        for node in 1..nodes {
            assert_eq!(
                c.node(NodeId(node)).store().world_count(),
                1,
                "node {node} holds only its pinned base"
            );
        }
        calls
    }

    #[test]
    fn a_delta_block_ships_its_state_once_per_node() {
        // Parent shape: a probe and an image per alternative, the
        // commit, then one discard per replica — 10 calls.
        let calls = steady_block_calls(2);
        let header = 32;
        assert!(
            matches!(&calls[..], [
                Call::Probe(4),
                Call::Images(1, first),
                Call::Images(1, siblings),
                Call::Pages(4),
                Call::Discard(1, 3),
            ] if first.len() == 1 && first[0] > header && siblings == &[header, header]),
            "{calls:?}"
        );
        let frames: usize = calls
            .iter()
            .map(|c| match c {
                Call::Probe(_) | Call::Pages(_) => 1,
                Call::Images(_, sizes) => sizes.len(),
                Call::Discard(_, n) => *n,
            })
            .sum();
        assert_eq!(frames, 8);
    }

    #[test]
    fn every_node_receives_one_image_with_pages_per_block() {
        // Three alternatives on two workers: node 1 holds alternatives 0
        // and 2, node 2 holds alternative 1.
        let calls = steady_block_calls(3);
        for node in 1..3 {
            let with_pages = calls
                .iter()
                .filter_map(|c| match c {
                    Call::Images(dst, sizes) if *dst == node => {
                        Some(sizes.iter().filter(|&&len| len > 32).count())
                    }
                    _ => None,
                })
                .sum::<usize>();
            assert_eq!(with_pages, 1, "node {node}: {calls:?}");
        }
        assert!(calls.contains(&Call::Images(1, vec![32])), "{calls:?}");
        assert!(calls.contains(&Call::Discard(1, 2)), "{calls:?}");
        assert!(calls.contains(&Call::Discard(2, 1)), "{calls:?}");
    }
}
