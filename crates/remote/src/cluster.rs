//! Nodes and remote forking.

use worlds_net::FaultSchedule;
use worlds_obs::{Event as ObsEvent, EventKind, Registry, VirtualTime};
use worlds_pagestore::{
    checkpoint, checkpoint_content, delta_manifest, PageStore, PageStoreError, WorldId,
};

use crate::net::NetModel;
use crate::transport::{DeltaBase, DeltaCache, InProcess, Tcp, Transport};

/// Identifier of a node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// One machine: an independent page store plus accounting.
#[derive(Debug)]
pub struct Node {
    /// The node's id.
    pub id: NodeId,
    store: PageStore,
    bytes_received: u64,
    bytes_sent: u64,
}

impl Node {
    /// The node's local page store.
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// Total bytes this node has received over the network.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Total bytes this node has sent.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }
}

/// A world living on a remote node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteWorld {
    /// Which node holds it.
    pub node: NodeId,
    /// The world id within that node's store.
    pub world: WorldId,
}

/// One replica forked on a remote node and what shipping it cost, or
/// why it failed.
pub(crate) type Forked = Result<(RemoteWorld, VirtualTime), PageStoreError>;

/// A set of nodes joined by a modelled network. Node 0 is the *origin*
/// (where the parent process lives).
pub struct Cluster {
    nodes: Vec<Node>,
    net: NetModel,
    page_size: usize,
    obs: Registry,
    clock_ns: u64,
    /// Deterministic fault injection, consulted per cross-node transfer.
    faults: FaultSchedule,
    transfers: u64,
    /// How bytes actually move between stores.
    transport: Box<dyn Transport + Send>,
    /// When on, repeat rforks of the same world ship deltas against a
    /// pinned base instead of full images.
    delta_rfork: bool,
    delta_cache: DeltaCache,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes)
            .field("net", &self.net)
            .field("transport", &self.transport.name())
            .field("transfers", &self.transfers)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Build a cluster of `n ≥ 1` nodes with the given page size and
    /// network model.
    pub fn new(n: usize, page_size: usize, net: NetModel) -> Cluster {
        Self::with_obs(n, page_size, net, Registry::disabled())
    }

    /// Like [`Cluster::new`], wired to an observability registry: every
    /// cross-node transfer emits `RpcSend` (plus `RpcTimeout`/`RpcRetry`
    /// under fault injection), and each node's page store reports its
    /// COW and checkpoint traffic through the same registry.
    ///
    /// All node stores share the origin's world-id allocator
    /// ([`PageStore::new_sharing_ids`]), so a world id is unique across
    /// the whole cluster and trace events from any node can name worlds
    /// on other nodes without ambiguity.
    pub fn with_obs(n: usize, page_size: usize, net: NetModel, obs: Registry) -> Cluster {
        let stores = Self::stores(n, page_size, &obs);
        let transport = Box::new(InProcess::new(stores.clone()));
        Self::assemble(stores, page_size, net, obs, transport)
    }

    /// Like [`Cluster::with_obs`], but state moves over real loopback
    /// TCP: each node's store sits behind a `worlds-net` server, and
    /// every cross-node rfork, commit-back and discard is a framed RPC
    /// with deadlines and retries. Virtual-time accounting (the
    /// [`NetModel`], fault cost doubling) is unchanged — only the bytes'
    /// vehicle differs — so outcomes match [`Cluster::with_obs`] exactly.
    pub fn tcp(
        n: usize,
        page_size: usize,
        net: NetModel,
        obs: Registry,
    ) -> std::io::Result<Cluster> {
        let stores = Self::stores(n, page_size, &obs);
        let transport = Box::new(Tcp::serve(&stores, obs.clone())?);
        Ok(Self::assemble(stores, page_size, net, obs, transport))
    }

    pub(crate) fn stores(n: usize, page_size: usize, obs: &Registry) -> Vec<PageStore> {
        assert!(n >= 1, "a cluster needs at least the origin node");
        let origin_store = PageStore::with_obs(page_size, obs.clone());
        (0..n)
            .map(|i| {
                if i == 0 {
                    origin_store.clone()
                } else {
                    origin_store.new_sharing_ids()
                }
            })
            .collect()
    }

    pub(crate) fn assemble(
        stores: Vec<PageStore>,
        page_size: usize,
        net: NetModel,
        obs: Registry,
        transport: Box<dyn Transport + Send>,
    ) -> Cluster {
        let nodes = stores
            .into_iter()
            .enumerate()
            .map(|(i, store)| Node {
                id: NodeId(i),
                store,
                bytes_received: 0,
                bytes_sent: 0,
            })
            .collect();
        Cluster {
            nodes,
            net,
            page_size,
            obs,
            clock_ns: 0,
            faults: FaultSchedule::none(),
            transfers: 0,
            transport,
            delta_rfork: false,
            delta_cache: DeltaCache::default(),
        }
    }

    /// The cluster's observability registry.
    pub fn obs(&self) -> &Registry {
        &self.obs
    }

    /// `"in-process"` or `"tcp"`.
    pub fn transport_name(&self) -> &'static str {
        self.transport.name()
    }

    /// The serving [`worlds_net::NetNode`]s behind the transport, one
    /// per node on TCP, empty in-process. The telemetry plane attaches
    /// per-node query handlers through these.
    pub fn net_nodes(&self) -> &[worlds_net::NetNode] {
        self.transport.nodes()
    }

    /// Arm a [`FaultSchedule`]. Transfers are numbered from the moment a
    /// schedule is armed (op 0 is the next transfer), and the same
    /// numbering drives both the virtual cost model here and — on the
    /// TCP transport — the real [`worlds_net::FaultProxy`] fleet, so one
    /// schedule produces one retry sequence on either wire.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.faults = schedule;
        self.transfers = 0;
        self.transport.set_fault_schedule(schedule);
    }

    /// Turn delta rforks on or off. When on, the first rfork of a world
    /// to a node ships the full image **plus** pins a base (a snapshot
    /// here, a replica there; two transfers); every later rfork of that
    /// world to that node first probes the receiver's content index and
    /// ships 8-byte refs for changed pages the receiver already holds;
    /// pages it lacks — all of them when the probe fails — travel inline
    /// in the same image, and a receiver that no longer holds a page it
    /// was probed for costs one resend with every page inline.
    /// Turning it off releases all pinned bases.
    pub fn set_delta_rfork(&mut self, on: bool) {
        self.delta_rfork = on;
        if on {
            // Content probes only answer from sealed-frame indexes, and
            // each node store has its own dedupe switch (they share ids,
            // not configuration), so arm them all.
            for node in &self.nodes {
                node.store.set_dedupe(true);
            }
        } else {
            for (dst, base) in self.delta_cache.drain() {
                // Best-effort: pinned bases are invisible infrastructure.
                let _ = self.nodes[base.src_node].store.drop_world(base.snapshot);
                let _ = self.transport.discard(dst, &[base.replica]);
            }
        }
    }

    /// Re-bound the delta-rfork pinned-base cache to `bytes` (default:
    /// `WORLDS_NET_CACHE_BYTES`, else 64 MiB), releasing any bases the
    /// new budget no longer covers.
    pub fn set_net_cache_bytes(&mut self, bytes: u64) {
        let evicted = self.delta_cache.set_budget(bytes);
        self.release_evicted(evicted);
    }

    /// Lifetime `(evictions, evicted_bytes)` of the delta-base cache.
    pub fn net_cache_stats(&self) -> (u64, u64) {
        self.delta_cache.eviction_stats()
    }

    /// Pinned bytes currently charged against the delta-base budget.
    pub fn net_cache_resident_bytes(&self) -> u64 {
        self.delta_cache.resident_bytes()
    }

    /// Release bases the cache evicted: unpin both halves and record the
    /// eviction so `worlds-report --net` can show cache churn.
    fn release_evicted(&mut self, evicted: Vec<(usize, DeltaBase)>) {
        for (dst, base) in evicted {
            let _ = self.nodes[base.src_node].store.drop_world(base.snapshot);
            let _ = self.transport.discard(dst, &[base.replica]);
            self.obs.emit(|| {
                ObsEvent::new(
                    EventKind::NetCacheEvict {
                        node: dst as u64,
                        bytes: base.bytes,
                    },
                    base.snapshot.raw(),
                    None,
                    self.clock_ns,
                )
            });
        }
    }

    /// Advance the virtual-time stamp applied to subsequently emitted
    /// events (the driver owns the clock; forwarded to every node store).
    pub fn set_clock_ns(&mut self, ns: u64) {
        self.clock_ns = ns;
        for node in &self.nodes {
            node.store.set_clock_ns(ns);
        }
    }

    /// Account one cross-node transfer of `bytes` from node `src` to node
    /// `dst` on behalf of `world`: charges both nodes' byte counters,
    /// applies fault injection, emits the RPC events, and returns the
    /// total virtual cost including any retry.
    fn transfer(&mut self, world: u64, src: NodeId, dst: NodeId, bytes: usize) -> VirtualTime {
        self.nodes[src.0].bytes_sent += bytes as u64;
        self.nodes[dst.0].bytes_received += bytes as u64;
        let mut cost = self.net.transfer_time(bytes);
        let op = self.transfers;
        self.transfers += 1;
        if self.faults.fault_for(op).is_some() {
            // The attempt is lost: the sender waits out the transfer
            // before retrying, and the retry deterministically succeeds.
            self.obs.emit(|| {
                ObsEvent::new(
                    EventKind::RpcTimeout {
                        node: dst.0 as u64,
                        waited_ns: cost.as_ns(),
                    },
                    world,
                    None,
                    self.clock_ns,
                )
            });
            self.obs.emit(|| {
                ObsEvent::new(
                    EventKind::RpcRetry {
                        node: dst.0 as u64,
                        attempt: 1,
                    },
                    world,
                    None,
                    self.clock_ns,
                )
            });
            cost = cost + cost;
        }
        self.obs.emit(|| {
            ObsEvent::new(
                EventKind::RpcSend {
                    node: dst.0 as u64,
                    bytes: bytes as u64,
                    latency_ns: cost.as_ns(),
                },
                world,
                None,
                self.clock_ns,
            )
        });
        cost
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the origin exists.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The network model.
    pub fn net(&self) -> &NetModel {
        &self.net
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// The origin node (node 0).
    pub fn origin(&self) -> &Node {
        &self.nodes[0]
    }

    /// Create a fresh world on a node.
    pub fn create_world(&mut self, node: NodeId) -> RemoteWorld {
        let world = self.nodes[node.0].store.create_world();
        RemoteWorld { node, world }
    }

    /// `rfork()`: replicate `src` onto node `dst` by checkpoint/restore —
    /// the paper's construction. Returns the new remote world plus the
    /// virtual time the checkpoint transfer cost (the ≈ 1 s of §3.4 for a
    /// 70 KB process on the 1989 LAN). With [`Cluster::set_delta_rfork`]
    /// on, the first rfork of a world to a node pays two transfers (full
    /// image + pinned-base delta) and every later one ships only changed
    /// pages.
    pub fn rfork(
        &mut self,
        src: RemoteWorld,
        dst: NodeId,
    ) -> Result<(RemoteWorld, VirtualTime), worlds_pagestore::PageStoreError> {
        if src.node == dst {
            // Same node: a local COW fork, no network traffic.
            let world = self.nodes[src.node.0].store.fork_world(src.world)?;
            return Ok((RemoteWorld { node: dst, world }, VirtualTime::ZERO));
        }
        let mut total = VirtualTime::ZERO;
        let shipped = if self.delta_rfork {
            self.ship_delta(src, dst, &mut total)?
        } else {
            let image = checkpoint(&self.nodes[src.node.0].store, src.world)?;
            self.ship(src, dst, &image, &mut total)?
        };
        Ok((self.forked(src, dst, shipped), total))
    }

    /// Fork `count` further replicas of `src` on `first`'s node, from
    /// `first` — a replica of `src` nothing has written to yet — instead
    /// of shipping `src` again. Each sibling is a header-only delta image
    /// (no records, base `first`), which the receiver restores as a fork
    /// of `first`; all of them travel in one transport batch. Each is
    /// charged its own transfer of that image and emits its own
    /// `RemoteFork` under `src`, in the order the images go on the wire,
    /// so the transfer numbering still matches a fault proxy's op
    /// numbering. Slot `i` is sibling `i`, or why it failed.
    pub(crate) fn fork_siblings(
        &mut self,
        src: RemoteWorld,
        first: RemoteWorld,
        count: usize,
    ) -> Result<Vec<Forked>, PageStoreError> {
        let dst = first.node;
        let image = checkpoint_content(
            &self.nodes[src.node.0].store,
            src.world,
            first.world.raw(),
            &[],
            &[],
        )?;
        let costs: Vec<VirtualTime> = (0..count)
            .map(|_| self.transfer(src.world.raw(), src.node, dst, image.len()))
            .collect();
        let shipped = self.transport.ship_image(dst.0, &vec![&image[..]; count]);
        Ok(shipped
            .into_iter()
            .zip(costs)
            .map(|(world, cost)| Ok((self.forked(src, dst, world?), cost)))
            .collect())
    }

    /// The replica `world` that a fork of `src` restored on `dst`.
    fn forked(&self, src: RemoteWorld, dst: NodeId, world: u64) -> RemoteWorld {
        // The restored world is a *child* of the origin world in the
        // speculation tree: node stores share one id allocator, so the
        // parent reference is unambiguous and the span layer links the
        // cross-node fork as a tree edge instead of an orphan root.
        self.obs.emit(|| {
            ObsEvent::new(
                EventKind::RemoteFork { node: dst.0 as u64 },
                world,
                Some(src.world.raw()),
                self.clock_ns,
            )
        });
        RemoteWorld {
            node: dst,
            world: WorldId::from_raw(world),
        }
    }

    /// Move one checkpoint image from `src`'s node to `dst`: charge the
    /// transfer to `total`, then restore it there. Returns the restored
    /// world's raw id.
    fn ship(
        &mut self,
        src: RemoteWorld,
        dst: NodeId,
        image: &[u8],
        total: &mut VirtualTime,
    ) -> Result<u64, worlds_pagestore::PageStoreError> {
        *total += self.transfer(src.world.raw(), src.node, dst, image.len());
        self.transport
            .ship_image(dst.0, &[image])
            .pop()
            .expect("one outcome per image")
    }

    /// The delta shipment of `src → dst`, one straight line: pinned base
    /// → manifest of what changed since → probe the receiver for the
    /// content it already holds → encode (refs for those pages, bytes for
    /// the rest) → ship. An empty manifest or a failed probe is simply "no
    /// refs"; a receiver that cannot resolve a ref it said it held (the
    /// frame went away between the probe and the image; its restore left
    /// nothing behind) gets the same manifest again with every page
    /// inline, once.
    fn ship_delta(
        &mut self,
        src: RemoteWorld,
        dst: NodeId,
        total: &mut VirtualTime,
    ) -> Result<u64, worlds_pagestore::PageStoreError> {
        let store = self.nodes[src.node.0].store.clone();
        let base = match self.delta_cache.get(dst.0, src.world) {
            Some(base) => base,
            None => {
                // First shipment of this world to this node: the full
                // image pins a base replica there and a snapshot here.
                // Neither is ever handed out, so future rforks can
                // diff against them no matter what the block commits.
                let full = checkpoint(&store, src.world)?;
                let replica = self.ship(src, dst, &full, total)?;
                let base = DeltaBase {
                    src_node: src.node.0,
                    snapshot: store.fork_world(src.world)?,
                    replica,
                    bytes: full.len() as u64,
                };
                let evicted = self.delta_cache.insert(dst.0, src.world, base);
                self.release_evicted(evicted);
                base
            }
        };
        let manifest = delta_manifest(&store, src.world, base.snapshot)?;
        let mut present = vec![false; manifest.len()];
        if !manifest.is_empty() {
            let hashes: Vec<u64> = manifest.iter().map(|&(_, h)| h).collect();
            if let Ok(answer) = self.transport.probe_hashes(dst.0, &hashes) {
                if answer.len() == hashes.len() {
                    // Request: count u32 + hashes. Reply: count u32 +
                    // presence bitmap. Small, but it is wire traffic and
                    // the virtual cost model must see it.
                    let probe_bytes = 4 + 8 * hashes.len() + 4 + hashes.len().div_ceil(8);
                    *total += self.transfer(src.world.raw(), src.node, dst, probe_bytes);
                    present = answer;
                }
            }
        }
        let image = checkpoint_content(&store, src.world, base.replica, &manifest, &present)?;
        match self.ship(src, dst, &image, total) {
            Err(_) if present.contains(&true) => {
                present.fill(false);
                let bytes =
                    checkpoint_content(&store, src.world, base.replica, &manifest, &present)?;
                self.ship(src, dst, &bytes, total)
            }
            shipped => shipped,
        }
    }

    /// Ship only the pages of `child` that differ from `base` back to the
    /// origin-side `base` world and commit them — "there is more copying
    /// to be performed during synchronization, as the changed state is
    /// updated in the parent's storage" (§3.1). Returns the virtual time
    /// the diff transfer cost and the number of pages moved.
    ///
    /// The dirty set is content-based: every vpn `child` maps whose bytes
    /// differ from `base`'s. Finding it reads only a *candidate* set of
    /// pages. With [`Cluster::set_delta_rfork`] on, the cache may hold a
    /// base pinned for `base.world` on the child's node: a `snapshot`
    /// here and a `replica` there with identical bytes, the invariant
    /// every delta rfork already rests on. Two worlds of one store that
    /// map the same frame at a vpn read the same bytes, so a vpn outside
    /// both `diff_worlds(child, replica)` and `diff_worlds(base,
    /// snapshot)` reads the replica's bytes in the child and the
    /// snapshot's in the base: equal, never dirty. The candidates are
    /// then the vpns of those two diffs that the child maps. That is
    /// O(changed) for a child forked from the replica, and exact for any
    /// child: the argument never asks where the child came from. Without
    /// a pinned base every mapped vpn is a candidate.
    ///
    /// A remote child is discarded once its pages are home.
    pub fn commit_back(
        &mut self,
        base: RemoteWorld,
        child: RemoteWorld,
    ) -> Result<(VirtualTime, usize), worlds_pagestore::PageStoreError> {
        let shipped = self.commit_home(base, child)?;
        if child.node != base.node {
            // The remote replica is done with.
            self.discard_all(&[child], Some(child))?;
        }
        Ok(shipped)
    }

    /// [`Cluster::commit_back`] without the discard: a remote `child`
    /// stays live, for its caller to discard in a batch with others. A
    /// local child is adopted, which consumes it.
    pub(crate) fn commit_home(
        &mut self,
        base: RemoteWorld,
        child: RemoteWorld,
    ) -> Result<(VirtualTime, usize), worlds_pagestore::PageStoreError> {
        if child.node == base.node {
            // Local child: the ordinary atomic adoption.
            self.nodes[base.node.0]
                .store
                .adopt(base.world, child.world)?;
            return Ok((VirtualTime::ZERO, 0));
        }
        // Compute the dirty set on the child's node: pages whose bytes
        // differ from the base world's view.
        let child_store = &self.nodes[child.node.0].store;
        let base_store = &self.nodes[base.node.0].store;
        let mapped = child_store.mapped_vpns(child.world)?;
        let candidates = match self.delta_cache.peek(child.node.0, base.world) {
            Some(pinned) if pinned.src_node == base.node.0 => {
                let replica = WorldId::from_raw(pinned.replica);
                let mut vpns = child_store.diff_worlds(child.world, replica)?;
                vpns.extend(base_store.diff_worlds(base.world, pinned.snapshot)?);
                vpns.sort_unstable();
                vpns.dedup();
                vpns.retain(|vpn| mapped.binary_search(vpn).is_ok());
                vpns
            }
            _ => mapped,
        };
        let mut moved = Vec::new();
        let mut cbuf = vec![0u8; self.page_size];
        let mut bbuf = vec![0u8; self.page_size];
        for vpn in candidates {
            child_store.read(child.world, vpn, 0, &mut cbuf)?;
            base_store.read(base.world, vpn, 0, &mut bbuf)?;
            if cbuf != bbuf {
                moved.push((vpn, cbuf.clone()));
            }
        }
        let bytes: usize = moved.len() * (8 + self.page_size);
        let cost = self.transfer(child.world.raw(), child.node, base.node, bytes);
        let n = moved.len();
        self.transport
            .ship_pages(base.node.0, base.world.raw(), &moved)?;
        // Close the remote world's span: its edits now live in `base`.
        self.obs.emit(|| {
            ObsEvent::new(
                EventKind::Commit {
                    dirty_pages: n as u64,
                    overhead_ns: cost.as_ns(),
                    site: None,
                },
                child.world.raw(),
                Some(base.world.raw()),
                self.clock_ns,
            )
        });
        Ok((cost, n))
    }

    /// Discard a remote world (sibling elimination on another node).
    pub fn discard(&mut self, w: RemoteWorld) -> Result<(), worlds_pagestore::PageStoreError> {
        self.discard_all(&[w], None)
    }

    /// Discard `worlds`, one transport batch per node, in node order.
    /// Every discarded world but `committed` — whose span its commit
    /// already closed — is an elimination. Best effort: every batch is
    /// sent, and the first error is returned.
    pub(crate) fn discard_all(
        &mut self,
        worlds: &[RemoteWorld],
        committed: Option<RemoteWorld>,
    ) -> Result<(), worlds_pagestore::PageStoreError> {
        let mut result = Ok(());
        for node in 0..self.nodes.len() {
            let batch: Vec<u64> = worlds
                .iter()
                .filter(|w| w.node.0 == node)
                .map(|w| w.world.raw())
                .collect();
            if batch.is_empty() {
                continue;
            }
            let outcomes = self.transport.discard(node, &batch);
            for (&world, outcome) in batch.iter().zip(outcomes) {
                match outcome {
                    Err(e) => {
                        if result.is_ok() {
                            result = Err(e);
                        }
                    }
                    Ok(()) if committed.is_some_and(|c| c.world.raw() == world) => {}
                    // Remote elimination never blocks the winner: always
                    // async.
                    Ok(()) => self.obs.emit(|| {
                        ObsEvent::new(EventKind::EliminateAsync, world, None, self.clock_ns)
                    }),
                }
            }
        }
        result
    }

    /// Read from a remote world (test/diagnostic path; charged no time).
    pub fn read(
        &self,
        w: RemoteWorld,
        vpn: u64,
        len: usize,
    ) -> Result<Vec<u8>, worlds_pagestore::PageStoreError> {
        self.nodes[w.node.0].store.read_vec(w.world, vpn, 0, len)
    }

    /// Write into a remote world (the remote child computing locally).
    pub fn write(
        &self,
        w: RemoteWorld,
        vpn: u64,
        data: &[u8],
    ) -> Result<(), worlds_pagestore::PageStoreError> {
        self.nodes[w.node.0].store.write(w.world, vpn, 0, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(n, 4096, NetModel::lan_1989())
    }

    #[test]
    fn rfork_replicates_state_across_nodes() {
        let mut c = cluster(2);
        let origin = c.create_world(NodeId(0));
        c.write(origin, 0, b"hello remote").unwrap();
        let (replica, cost) = c.rfork(origin, NodeId(1)).unwrap();
        assert_eq!(replica.node, NodeId(1));
        assert_eq!(c.read(replica, 0, 12).unwrap(), b"hello remote");
        assert!(
            cost > VirtualTime::ZERO,
            "cross-node rfork costs network time"
        );
        // Accounting.
        assert!(c.node(NodeId(1)).bytes_received() > 0);
        assert_eq!(
            c.node(NodeId(0)).bytes_sent(),
            c.node(NodeId(1)).bytes_received()
        );
    }

    #[test]
    fn rfork_of_70kb_process_costs_about_a_second() {
        let mut c = cluster(2);
        let origin = c.create_world(NodeId(0));
        for vpn in 0..18 {
            c.write(origin, vpn, &[1u8; 4096]).unwrap(); // ≈ 72 KB
        }
        let (_, cost) = c.rfork(origin, NodeId(1)).unwrap();
        assert!(
            (0.8..1.3).contains(&cost.as_secs()),
            "paper: ~1 s for a 70 KB rfork; got {cost}"
        );
    }

    /// An in-process transport whose content probe answers "present" for
    /// everything: what a receiver looks like when the frames it was
    /// probed for are gone by the time the image arrives.
    struct StaleProbe(InProcess);

    impl Transport for StaleProbe {
        fn ship_image(
            &mut self,
            dst: usize,
            images: &[&[u8]],
        ) -> Vec<Result<u64, worlds_pagestore::PageStoreError>> {
            self.0.ship_image(dst, images)
        }
        fn ship_pages(
            &mut self,
            dst: usize,
            base: u64,
            pages: &[(u64, Vec<u8>)],
        ) -> Result<(), worlds_pagestore::PageStoreError> {
            self.0.ship_pages(dst, base, pages)
        }
        fn probe_hashes(
            &mut self,
            _dst: usize,
            hashes: &[u64],
        ) -> Result<Vec<bool>, worlds_pagestore::PageStoreError> {
            Ok(vec![true; hashes.len()])
        }
        fn discard(
            &mut self,
            dst: usize,
            worlds: &[u64],
        ) -> Vec<Result<(), worlds_pagestore::PageStoreError>> {
            self.0.discard(dst, worlds)
        }
        fn set_fault_schedule(&mut self, _schedule: FaultSchedule) {}
        fn name(&self) -> &'static str {
            "stale-probe"
        }
    }

    #[test]
    fn rfork_resends_bytes_when_the_receiver_nacks_a_ref() {
        let obs = Registry::disabled();
        let stores = Cluster::stores(2, 4096, &obs);
        let transport = Box::new(StaleProbe(InProcess::new(stores.clone())));
        let mut c = Cluster::assemble(stores, 4096, NetModel::lan_1989(), obs, transport);
        c.set_delta_rfork(true);
        let origin = c.create_world(NodeId(0));
        c.write(origin, 0, b"base").unwrap();
        // Full image, pinned base, empty delta.
        c.rfork(origin, NodeId(1)).unwrap();
        let worlds_there = c.node(NodeId(1)).store().world_count();

        c.write(origin, 3, b"bytes the receiver has never seen")
            .unwrap();
        let sent = c.origin().bytes_sent();
        let (replica, _) = c
            .rfork(origin, NodeId(1))
            .expect("a nacked ref costs one resend, not the rfork");
        assert_eq!(c.read(replica, 0, 4).unwrap(), b"base");
        assert_eq!(
            c.read(replica, 3, 33).unwrap(),
            b"bytes the receiver has never seen"
        );
        // The nacked image and its all-inline resend both crossed the
        // wire, and the failed restore left no world behind.
        assert!(c.origin().bytes_sent() - sent > 4096 + 17);
        assert_eq!(
            c.node(NodeId(1)).store().world_count(),
            worlds_there + 1,
            "only the replica is new"
        );
    }

    #[test]
    fn same_node_rfork_is_free_cow() {
        let mut c = cluster(2);
        let origin = c.create_world(NodeId(0));
        c.write(origin, 0, &[1]).unwrap();
        let (child, cost) = c.rfork(origin, NodeId(0)).unwrap();
        assert_eq!(cost, VirtualTime::ZERO);
        assert_eq!(c.read(child, 0, 1).unwrap(), vec![1]);
        assert_eq!(c.origin().bytes_sent(), 0);
    }

    #[test]
    fn remote_writes_stay_remote_until_commit() {
        let mut c = cluster(2);
        let origin = c.create_world(NodeId(0));
        c.write(origin, 0, b"base").unwrap();
        let (replica, _) = c.rfork(origin, NodeId(1)).unwrap();
        c.write(replica, 0, b"edit").unwrap();
        assert_eq!(c.read(origin, 0, 4).unwrap(), b"base");
        let (cost, pages) = c.commit_back(origin, replica).unwrap();
        assert_eq!(c.read(origin, 0, 4).unwrap(), b"edit");
        assert_eq!(pages, 1, "only the dirty page travels");
        assert!(cost > VirtualTime::ZERO);
    }

    #[test]
    fn commit_back_moves_only_dirty_pages() {
        let mut c = cluster(2);
        let origin = c.create_world(NodeId(0));
        for vpn in 0..20 {
            c.write(origin, vpn, &[7u8; 64]).unwrap();
        }
        let (replica, _) = c.rfork(origin, NodeId(1)).unwrap();
        let sent_before = c.node(NodeId(1)).bytes_sent();
        // Touch 3 pages.
        for vpn in 0..3 {
            c.write(replica, vpn, &[9u8; 64]).unwrap();
        }
        let (_, pages) = c.commit_back(origin, replica).unwrap();
        assert_eq!(pages, 3);
        let sent = c.node(NodeId(1)).bytes_sent() - sent_before;
        assert_eq!(sent, 3 * (8 + 4096) as u64, "3 page records, not 20");
    }

    #[test]
    fn rewrite_of_identical_bytes_is_not_dirty() {
        // The diff is content-based: a write that restores the original
        // bytes ships nothing.
        let mut c = cluster(2);
        let origin = c.create_world(NodeId(0));
        c.write(origin, 0, b"same").unwrap();
        let (replica, _) = c.rfork(origin, NodeId(1)).unwrap();
        c.write(replica, 0, b"same").unwrap();
        let (_, pages) = c.commit_back(origin, replica).unwrap();
        assert_eq!(pages, 0);
    }

    #[test]
    fn discard_eliminates_remote_sibling() {
        let mut c = cluster(3);
        let origin = c.create_world(NodeId(0));
        c.write(origin, 0, &[1]).unwrap();
        let (r1, _) = c.rfork(origin, NodeId(1)).unwrap();
        let (r2, _) = c.rfork(origin, NodeId(2)).unwrap();
        c.discard(r1).unwrap();
        assert!(c.read(r1, 0, 1).is_err(), "discarded world is gone");
        assert!(c.read(r2, 0, 1).is_ok());
        assert_eq!(c.node(NodeId(1)).store().world_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least the origin")]
    fn empty_cluster_rejected() {
        let _ = Cluster::new(0, 4096, NetModel::ideal());
    }

    #[test]
    fn rpc_traffic_is_observed() {
        let mut c = Cluster::with_obs(2, 4096, NetModel::lan_1989(), Registry::enabled());
        let origin = c.create_world(NodeId(0));
        c.write(origin, 0, b"state").unwrap();
        let (replica, _) = c.rfork(origin, NodeId(1)).unwrap();
        c.write(replica, 0, b"edits").unwrap();
        let (_, _) = c.commit_back(origin, replica).unwrap();
        let stats = c.obs().stats().expect("registry is enabled");
        assert_eq!(stats.remote.rpc_sends.get(), 2, "rfork out + diff home");
        assert_eq!(stats.remote.rpc_retries.get(), 0);
        assert!(stats.remote.bytes_sent.get() > 0);
        // Node stores share the registry: the replica's checkpoint and
        // write traffic is visible too.
        assert!(stats.pagestore.checkpoints.get() >= 1);
        assert_eq!(
            stats.checkpoint_duration.snapshot().count,
            stats.pagestore.checkpoints.get(),
            "one duration per checkpoint"
        );
        assert_eq!(stats.remote.rforks.get(), 1);
        assert!(stats.rpc_latency.snapshot().count >= 2);
    }

    #[test]
    fn cross_node_forks_are_tree_edges_not_orphan_roots() {
        use worlds_obs::{Registry, SpanTree};
        let (obs, ring) = Registry::with_ring(256);
        let mut c = Cluster::with_obs(2, 4096, NetModel::lan_1989(), obs);
        let origin = c.create_world(NodeId(0));
        c.write(origin, 0, b"seed").unwrap();
        let (replica, _) = c.rfork(origin, NodeId(1)).unwrap();
        // Shared id allocator: the replica's id is unique cluster-wide.
        assert_ne!(replica.world.raw(), origin.world.raw());
        c.write(replica, 0, b"edit").unwrap();
        c.commit_back(origin, replica).unwrap();
        let tree = SpanTree::build(&ring.events());
        let span = tree.get(replica.world.raw()).expect("replica has a span");
        assert_eq!(
            span.parent,
            Some(origin.world.raw()),
            "rfork links the restored world under its origin"
        );
        assert_eq!(span.outcome, worlds_obs::SpanOutcome::Committed);
        assert!(
            !tree.roots().contains(&replica.world.raw()),
            "the replica is not an orphan root"
        );
    }

    #[test]
    fn delta_rfork_ships_only_changes_after_the_first() {
        let mut c = cluster(2);
        c.set_delta_rfork(true);
        let origin = c.create_world(NodeId(0));
        for vpn in 0..20 {
            c.write(origin, vpn, &[7u8; 64]).unwrap();
        }
        // First rfork: full image + pinned base + header-only delta.
        let (r1, _) = c.rfork(origin, NodeId(1)).unwrap();
        let first = c.node(NodeId(1)).bytes_received();
        assert_eq!(c.read(r1, 9, 1).unwrap(), vec![7]);
        // Change one page at home; the next rfork ships only that.
        c.write(origin, 3, b"changed").unwrap();
        let (r2, _) = c.rfork(origin, NodeId(1)).unwrap();
        let delta = c.node(NodeId(1)).bytes_received() - first;
        assert!(
            delta * 4 < first,
            "delta shipment ({delta} B) must be far below the full one ({first} B)"
        );
        assert_eq!(c.read(r2, 3, 7).unwrap(), b"changed");
        assert_eq!(c.read(r2, 9, 1).unwrap(), vec![7]);
        assert_eq!(c.read(r1, 3, 1).unwrap(), vec![7], "older replica frozen");
        // Turning delta off releases the pinned snapshot and replica.
        c.discard(r1).unwrap();
        c.discard(r2).unwrap();
        c.set_delta_rfork(false);
        assert_eq!(c.node(NodeId(1)).store().world_count(), 0);
    }

    #[test]
    fn delta_rfork_still_commits_back_correctly() {
        let mut c = cluster(2);
        c.set_delta_rfork(true);
        let origin = c.create_world(NodeId(0));
        for vpn in 0..8 {
            c.write(origin, vpn, &[1u8; 64]).unwrap();
        }
        let (r1, _) = c.rfork(origin, NodeId(1)).unwrap();
        c.write(r1, 2, b"winner").unwrap();
        let (_, pages) = c.commit_back(origin, r1).unwrap();
        assert_eq!(pages, 1);
        assert_eq!(c.read(origin, 2, 6).unwrap(), b"winner");
        // The commit dirtied the origin; a fresh rfork must see it, and
        // ship it as a delta against the pinned (pre-commit) base.
        let first = c.node(NodeId(1)).bytes_received();
        let (r2, _) = c.rfork(origin, NodeId(1)).unwrap();
        assert_eq!(c.read(r2, 2, 6).unwrap(), b"winner");
        let delta = c.node(NodeId(1)).bytes_received() - first;
        assert!(delta * 4 < first, "{delta} vs {first}");
    }

    #[test]
    fn delta_commit_back_reads_only_changed_pages() {
        // 256 mapped pages, 8 edited in the replica: comparing every
        // mapped page reads 512; the pinned base narrows the compare to
        // the 8 edited pages, two reads each.
        let mut c = cluster(2);
        c.set_delta_rfork(true);
        let origin = c.create_world(NodeId(0));
        for vpn in 0..256u64 {
            c.write(origin, vpn, &vpn.to_le_bytes()).unwrap();
        }
        let (replica, _) = c.rfork(origin, NodeId(1)).unwrap();
        for vpn in (0..256).step_by(32) {
            c.write(replica, vpn, b"edit").unwrap();
        }
        let reads = |c: &Cluster| {
            c.origin().store().stats().reads + c.node(NodeId(1)).store().stats().reads
        };
        let before = reads(&c);
        let (_, pages) = c.commit_back(origin, replica).unwrap();
        assert_eq!(pages, 8);
        let added = reads(&c) - before;
        assert!(added <= 32, "commit_back read {added} pages to find 8");
        assert_eq!(c.read(origin, 64, 4).unwrap(), b"edit");
    }

    #[test]
    fn warm_index_rfork_ships_refs_not_bytes() {
        // A changed page whose content the receiver already holds (any
        // sealed frame, any world) travels as an 8-byte ref instead of a
        // page of bytes — strictly under the all-inline cost.
        let mut c = Cluster::with_obs(2, 4096, NetModel::lan_1989(), Registry::enabled());
        c.set_delta_rfork(true);
        let origin = c.create_world(NodeId(0));
        for vpn in 0..20 {
            let mut page = vec![0u8; 4096];
            page[0] = vpn as u8; // distinct contents, all sealed on ship
            c.write(origin, vpn, &page).unwrap();
        }
        let (_r1, _) = c.rfork(origin, NodeId(1)).unwrap();
        let first = c.node(NodeId(1)).bytes_received();
        // Rewrite page 3 to the exact content of page 9: changed w.r.t.
        // the pinned base, but the receiver's index already has it.
        let mut page = vec![0u8; 4096];
        page[0] = 9;
        c.write(origin, 3, &page).unwrap();
        let (r2, _) = c.rfork(origin, NodeId(1)).unwrap();
        let delta = c.node(NodeId(1)).bytes_received() - first;
        // Inline would ship 32 + 9 + 4096; the ref ships 32 + 9 + 8 plus
        // the 17-byte probe round-trip. Assert the order of magnitude.
        assert!(
            delta < 128,
            "warm-index delta must ship a ref, not a page: {delta} B"
        );
        assert_eq!(c.read(r2, 3, 4096).unwrap(), page, "ref resolves to bytes");
        let stats = c.obs().stats().unwrap();
        assert!(
            stats.dedupe.frames_deduped.get() >= 1,
            "the receiver adopted a sealed frame"
        );
    }

    #[test]
    fn cold_index_rfork_falls_back_to_inline_bytes() {
        let mut c = cluster(2);
        c.set_delta_rfork(true);
        let origin = c.create_world(NodeId(0));
        for vpn in 0..8 {
            let mut page = vec![0u8; 4096];
            page[0] = vpn as u8;
            c.write(origin, vpn, &page).unwrap();
        }
        let (_r1, _) = c.rfork(origin, NodeId(1)).unwrap();
        // Brand-new content the receiver cannot have: ships inline, and
        // the replica still reads back exactly.
        c.write(origin, 2, b"never seen before").unwrap();
        let (r2, _) = c.rfork(origin, NodeId(1)).unwrap();
        assert_eq!(c.read(r2, 2, 17).unwrap(), b"never seen before");
    }

    #[test]
    fn net_cache_budget_evicts_lru_bases() {
        let (obs, ring) = worlds_obs::Registry::with_ring(4096);
        let mut c = Cluster::with_obs(3, 4096, NetModel::lan_1989(), obs);
        c.set_delta_rfork(true);
        // Budget fits roughly one pinned base (image ≈ 4 pages ≈ 16 KB).
        c.set_net_cache_bytes(20 * 1024);
        let origin = c.create_world(NodeId(0));
        for vpn in 0..4 {
            c.write(origin, vpn, &[vpn as u8 + 1; 4096]).unwrap();
        }
        let before = c.node(NodeId(0)).store().world_count();
        let (_r1, _) = c.rfork(origin, NodeId(1)).unwrap();
        // Pinning a base for node 2 pushes node 1's base out.
        let (_r2, _) = c.rfork(origin, NodeId(2)).unwrap();
        let (evictions, evicted_bytes) = c.net_cache_stats();
        assert_eq!(evictions, 1, "budget holds one base, two were pinned");
        assert!(evicted_bytes > 4 * 4096);
        assert!(c.net_cache_resident_bytes() <= 20 * 1024);
        // The evicted snapshot was released (replicas r1/r2 still live).
        assert_eq!(
            c.node(NodeId(0)).store().world_count(),
            before + 1,
            "one pinned snapshot remains at the origin"
        );
        // A later rfork to the evicted node re-pins and still works.
        c.write(origin, 1, b"fresh").unwrap();
        let (r3, _) = c.rfork(origin, NodeId(1)).unwrap();
        assert_eq!(c.read(r3, 1, 5).unwrap(), b"fresh");
        assert!(
            ring.events()
                .iter()
                .any(|e| matches!(e.kind, EventKind::NetCacheEvict { node: 1, .. })),
            "eviction is observable"
        );
        assert_eq!(
            c.obs().stats().unwrap().dedupe.cache_evictions.get(),
            c.net_cache_stats().0,
            "and counted once per eviction"
        );
    }

    #[test]
    fn fault_injection_retries_deterministically_and_doubles_cost() {
        let mut faulty = Cluster::with_obs(2, 4096, NetModel::lan_1989(), Registry::enabled());
        let mut clean = cluster(2);
        faulty.set_fault_schedule(FaultSchedule::every(1)); // every transfer times out once
        let forigin = faulty.create_world(NodeId(0));
        let corigin = clean.create_world(NodeId(0));
        faulty.write(forigin, 0, b"y").unwrap();
        clean.write(corigin, 0, b"y").unwrap();
        let (_, fcost) = faulty.rfork(forigin, NodeId(1)).unwrap();
        let (_, ccost) = clean.rfork(corigin, NodeId(1)).unwrap();
        assert_eq!(
            fcost.as_ns(),
            2 * ccost.as_ns(),
            "one lost attempt doubles the cost"
        );
        let stats = faulty.obs().stats().unwrap();
        assert_eq!(stats.remote.rpc_timeouts.get(), 1);
        assert_eq!(stats.remote.rpc_retries.get(), 1);
        // Determinism: disabling injection stops the faults.
        faulty.set_fault_schedule(FaultSchedule::every(0));
        let (_, recost) = faulty.rfork(forigin, NodeId(1)).unwrap();
        assert_eq!(recost.as_ns(), ccost.as_ns());
        assert_eq!(faulty.obs().stats().unwrap().remote.rpc_timeouts.get(), 1);
    }
}
