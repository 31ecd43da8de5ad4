//! Pluggable byte movers: how cluster state actually travels.
//!
//! The [`Cluster`](crate::Cluster) decides *what* to ship (checkpoint
//! images, dirty pages), *what it costs* (the [`NetModel`](crate::NetModel)
//! virtual-time account, fault doubling included) and *when*. A
//! distributed block's schedule is serial: one rfork per node, each one
//! image with pages, then one batch per node of header-only images that
//! fork that node's further alternatives from its first replica; after
//! the commit, one discard batch per node. No call asks a receiver what
//! it holds: a delta carries its changed pages inline. The
//! [`Transport`] decides only *how the bytes get to the other store*,
//! and a batch is one call: on [`Tcp`] it is one pipelined burst, so it
//! waits one round trip.
//!
//! An image reaches a transport as a description
//! ([`worlds_pagestore::ImageDesc`]): snapshots of the origin's page
//! frames, never an encoded copy.
//!
//! * [`InProcess`] applies them directly — today's simulation semantics,
//!   zero real I/O, exactly the behaviour every existing test encodes. It
//!   copies each described page into the destination store's own frame.
//! * [`Tcp`] runs one `worlds-net` [`NetNode`] per node and pushes every
//!   image and page over real loopback sockets, through real framing,
//!   deadlines and retries — and, when a fault schedule is armed, through
//!   a real [`FaultProxy`] per node that drops and mangles frames. An
//!   image streams from the origin's frames into the socket, and from the
//!   socket into the frames of the world it restores.
//!
//! Both transports are driven by the same [`FaultSchedule`] consulted at
//! the same logical op numbering, so "fault op 3" means *virtual cost
//! doubles* on `InProcess` and *the frame really vanishes* (timeout,
//! backoff, retransmit) on `Tcp` — one seed, one retry sequence, two
//! wires. The distributed-block outcome and the committed page bytes are
//! identical on both; `tests/transport_parity.rs` holds that line.

use std::collections::{HashMap, VecDeque};
use worlds_net::{
    Conn, FaultProxy, FaultSchedule, NetError, NetNode, OpLedger, Pool, Request, RetryPolicy,
};
use worlds_obs::{env, Registry};
use worlds_pagestore::{ImageDesc, PageStore, PageStoreError, WorldId};

/// The byte-moving half of a cluster. Node indexes are positions in the
/// cluster's node list; world ids are raw (cluster stores share one id
/// allocator, so they are unambiguous).
pub trait Transport {
    /// Restore each described checkpoint image into node `dst`'s store,
    /// in order; slot `i` is the world restored from `images[i]`, or why
    /// it was not. A failed image does not stop the ones after it. The
    /// pages land in `dst`'s own frames: nodes never share memory.
    fn ship_image(&mut self, dst: usize, images: &[&ImageDesc])
        -> Vec<Result<u64, PageStoreError>>;

    /// Commit dirty pages into world `base` in node `dst`'s store, all
    /// or nothing ([`PageStore::commit_pages`]).
    fn ship_pages(
        &mut self,
        dst: usize,
        base: u64,
        pages: &[(u64, Vec<u8>)],
    ) -> Result<(), PageStoreError>;

    /// Drop each of `worlds` on node `dst`; slot `i` is `worlds[i]`'s
    /// outcome. A failed discard does not stop the ones after it.
    fn discard(&mut self, dst: usize, worlds: &[u64]) -> Vec<Result<(), PageStoreError>>;

    /// Re-arm wire-level fault injection. `InProcess` has no wire, so
    /// this is a no-op there (the cluster's virtual cost doubling is the
    /// whole fault); `Tcp` rebuilds its fault proxies with the new
    /// schedule and a fresh op numbering.
    fn set_fault_schedule(&mut self, schedule: FaultSchedule);

    /// `"in-process"` or `"tcp"` — for reports and diagnostics.
    fn name(&self) -> &'static str;

    /// The serving [`NetNode`]s behind this transport, one per cluster
    /// node — empty when there is no wire (`InProcess`). The telemetry
    /// plane uses these to install per-node query handlers without the
    /// cluster knowing telemetry exists.
    fn nodes(&self) -> &[NetNode] {
        &[]
    }
}

/// Direct store-to-store application: the simulation transport.
pub struct InProcess {
    stores: Vec<PageStore>,
}

impl InProcess {
    /// A transport applying operations straight to `stores` (cheap
    /// clones sharing state with the cluster's nodes).
    pub fn new(stores: Vec<PageStore>) -> InProcess {
        InProcess { stores }
    }
}

impl Transport for InProcess {
    fn ship_image(
        &mut self,
        dst: usize,
        images: &[&ImageDesc],
    ) -> Vec<Result<u64, PageStoreError>> {
        images
            .iter()
            .map(|image| image.copy_into(&self.stores[dst]).map(WorldId::raw))
            .collect()
    }

    fn ship_pages(
        &mut self,
        dst: usize,
        base: u64,
        pages: &[(u64, Vec<u8>)],
    ) -> Result<(), PageStoreError> {
        self.stores[dst].commit_pages(WorldId::from_raw(base), pages)
    }

    fn discard(&mut self, dst: usize, worlds: &[u64]) -> Vec<Result<(), PageStoreError>> {
        worlds
            .iter()
            .map(|&world| self.stores[dst].drop_world(WorldId::from_raw(world)))
            .collect()
    }

    fn set_fault_schedule(&mut self, _schedule: FaultSchedule) {}

    fn name(&self) -> &'static str {
        "in-process"
    }
}

/// Real sockets: every node's store behind a loopback [`NetNode`], every
/// operation a framed RPC with deadlines and retries, every batch one
/// pipelined burst ([`Conn::call_many`]). With a fault
/// schedule armed, accounted operations (rfork, commit-back) route
/// through a per-node [`FaultProxy`]; unaccounted chatter (discards)
/// always goes direct, so wire faults land on exactly the ops the
/// cluster's virtual cost model faults.
pub struct Tcp {
    servers: Vec<NetNode>,
    /// Un-proxied connections: discards and other unaccounted traffic.
    direct: Pool,
    /// Proxied connections for accounted ops; `None` when no schedule.
    proxies: Vec<FaultProxy>,
    proxied: Option<Pool>,
    policy: RetryPolicy,
    obs: Registry,
}

impl Tcp {
    /// Start one [`NetNode`] per store and connect a client pool.
    pub fn serve(stores: &[PageStore], obs: Registry) -> std::io::Result<Tcp> {
        Tcp::serve_with_policy(stores, obs, RetryPolicy::fast())
    }

    /// [`Tcp::serve`] with an explicit client retry policy.
    pub fn serve_with_policy(
        stores: &[PageStore],
        obs: Registry,
        policy: RetryPolicy,
    ) -> std::io::Result<Tcp> {
        let mut servers = Vec::with_capacity(stores.len());
        let mut direct = Pool::new(policy, obs.clone());
        for (i, store) in stores.iter().enumerate() {
            let node = NetNode::serve(i as u64, store.clone(), obs.clone())?;
            direct.register(i as u64, node.addr());
            servers.push(node);
        }
        Ok(Tcp {
            servers,
            direct,
            proxies: Vec::new(),
            proxied: None,
            policy,
            obs,
        })
    }

    /// The connection accounted ops should use: through the fault
    /// proxies when armed, direct otherwise.
    fn accounted(&mut self, dst: usize) -> Result<&mut Conn, PageStoreError> {
        conn_for(self.proxied.as_mut().unwrap_or(&mut self.direct), dst)
    }
}

/// `pool`'s connection to node `dst`.
fn conn_for(pool: &mut Pool, dst: usize) -> Result<&mut Conn, PageStoreError> {
    pool.conn(dst as u64)
        .ok_or_else(|| net_err(dst, &NetError::Protocol("node not registered".into())))
}

/// Map a transport failure into the cluster's error vocabulary.
fn net_err(dst: usize, e: &NetError) -> PageStoreError {
    // A Nack about a missing world keeps its precise meaning.
    if let NetError::Nack {
        code: worlds_net::nack::NO_SUCH_WORLD,
        detail,
    } = e
    {
        if let Some(id) = detail
            .rsplit(|c: char| !c.is_ascii_digit())
            .find(|s| !s.is_empty())
            .and_then(|s| s.parse().ok())
        {
            return PageStoreError::NoSuchWorld(id);
        }
    }
    PageStoreError::NoSuchFile(format!("tcp transport, node {dst}: {e}"))
}

/// Send one burst of `len` requests to node `dst` on `conn`, with each
/// slot's outcome in the cluster's error vocabulary; with no connection,
/// every slot fails alike.
fn burst(
    dst: usize,
    conn: Result<&mut Conn, PageStoreError>,
    len: usize,
    send: impl FnOnce(&mut Conn) -> Vec<Result<u64, NetError>>,
) -> Vec<Result<u64, PageStoreError>> {
    match conn {
        Ok(conn) => send(conn)
            .into_iter()
            .map(|r| r.map_err(|e| net_err(dst, &e)))
            .collect(),
        Err(e) => vec![Err(e); len],
    }
}

impl Transport for Tcp {
    fn ship_image(
        &mut self,
        dst: usize,
        images: &[&ImageDesc],
    ) -> Vec<Result<u64, PageStoreError>> {
        burst(dst, self.accounted(dst), images.len(), |conn| {
            conn.call_rforks(images)
        })
    }

    fn ship_pages(
        &mut self,
        dst: usize,
        base: u64,
        pages: &[(u64, Vec<u8>)],
    ) -> Result<(), PageStoreError> {
        self.accounted(dst)?
            .call_commit_back(base, pages)
            .map(|_| ())
            .map_err(|e| net_err(dst, &e))
    }

    fn discard(&mut self, dst: usize, worlds: &[u64]) -> Vec<Result<(), PageStoreError>> {
        let reqs: Vec<_> = worlds
            .iter()
            .map(|&world| Request::Discard { world })
            .collect();
        burst(dst, conn_for(&mut self.direct, dst), reqs.len(), |conn| {
            conn.call_many(&reqs)
        })
        .into_iter()
        .map(|r| r.map(drop))
        .collect()
    }

    fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        // Old proxies (and the pool pointing at them) wind down on drop.
        self.proxied = None;
        self.proxies.clear();
        if !schedule.is_active() {
            return;
        }
        let ops = OpLedger::new();
        let mut pool = Pool::new(self.policy, self.obs.clone());
        for (i, server) in self.servers.iter().enumerate() {
            match FaultProxy::spawn_with_ops(server.addr(), schedule, self.obs.clone(), ops.clone())
            {
                Ok(proxy) => {
                    pool.register(i as u64, proxy.addr());
                    self.proxies.push(proxy);
                }
                Err(e) => {
                    // No proxy, no wire faults for this node; the
                    // virtual cost model still accounts them.
                    eprintln!("worlds-remote: fault proxy for node {i} failed: {e}");
                    pool.register(i as u64, server.addr());
                }
            }
        }
        self.proxied = Some(pool);
    }

    fn name(&self) -> &'static str {
        "tcp"
    }

    fn nodes(&self) -> &[NetNode] {
        &self.servers
    }
}

impl Drop for Tcp {
    fn drop(&mut self) {
        for proxy in &self.proxies {
            proxy.shutdown();
        }
        for server in &self.servers {
            server.shutdown();
        }
    }
}

/// Default pinned-base budget when [`env::NET_CACHE_BYTES`] is unset: 64 MiB.
pub const CACHE_BYTES_DEFAULT: u64 = 64 * 1024 * 1024;

/// The delta-rfork base cache: per (destination node, source world), the
/// locally pinned snapshot of what was shipped and the pinned replica id
/// on the destination. See [`crate::Cluster::set_delta_rfork`].
///
/// LRU-bounded by a byte budget ([`env::NET_CACHE_BYTES`], default 64 MiB):
/// each entry is charged the full image that pinned it, and inserting
/// past the budget evicts least-recently-forked entries — the caller
/// releases their pinned worlds and emits `net_cache_evict`. The
/// most-recent entry is never evicted, even when it alone exceeds the
/// budget: evicting it would force a full re-ship on every rfork, which
/// is strictly worse than briefly exceeding the budget.
#[derive(Debug)]
pub struct DeltaCache {
    entries: HashMap<(usize, u64), DeltaBase>,
    /// Keys oldest-first; `get` refreshes, `insert` appends.
    order: VecDeque<(usize, u64)>,
    bytes: u64,
    budget: u64,
    evictions: u64,
    evicted_bytes: u64,
}

impl Default for DeltaCache {
    fn default() -> DeltaCache {
        DeltaCache::with_budget(env::number(env::NET_CACHE_BYTES).unwrap_or(CACHE_BYTES_DEFAULT))
    }
}

/// One pinned shipment: `snapshot` lives in the source node's store (the
/// exact bytes that were shipped), `replica` lives on the destination
/// node. Neither is ever handed out, so block logic can never drop them.
#[derive(Debug, Clone, Copy)]
pub struct DeltaBase {
    /// Which node holds the snapshot (the rfork source).
    pub src_node: usize,
    /// Source-store world frozen at ship time.
    pub snapshot: WorldId,
    /// The pinned replica's raw id on the destination store.
    pub replica: u64,
    /// What this entry costs the budget: the full image that pinned it
    /// (one copy here, one there — charging the shipped size covers
    /// both to a page of accuracy).
    pub bytes: u64,
}

impl DeltaCache {
    /// A cache bounded to `budget` pinned bytes.
    pub fn with_budget(budget: u64) -> DeltaCache {
        DeltaCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            budget,
            evictions: 0,
            evicted_bytes: 0,
        }
    }

    pub fn get(&mut self, dst: usize, src: WorldId) -> Option<DeltaBase> {
        let key = (dst, src.raw());
        let hit = self.peek(dst, src);
        if hit.is_some() {
            // Refresh recency: this base was just used for a delta.
            if let Some(pos) = self.order.iter().position(|&k| k == key) {
                self.order.remove(pos);
                self.order.push_back(key);
            }
        }
        hit
    }

    /// The base pinned for `src` on `dst`, without refreshing its
    /// recency: only rforks decide what stays in the cache.
    pub fn peek(&self, dst: usize, src: WorldId) -> Option<DeltaBase> {
        self.entries.get(&(dst, src.raw())).copied()
    }

    /// Insert a pinned base, evicting least-recently-used entries past
    /// the byte budget. Returns the evicted entries; the caller must
    /// release their pinned worlds (snapshot and replica).
    pub fn insert(&mut self, dst: usize, src: WorldId, base: DeltaBase) -> Vec<(usize, DeltaBase)> {
        let key = (dst, src.raw());
        if let Some(old) = self.entries.insert(key, base) {
            self.bytes -= old.bytes;
            if let Some(pos) = self.order.iter().position(|&k| k == key) {
                self.order.remove(pos);
            }
        }
        self.bytes += base.bytes;
        self.order.push_back(key);
        self.evict_to_budget()
    }

    /// Re-bound the cache, evicting down to the new budget immediately.
    pub fn set_budget(&mut self, budget: u64) -> Vec<(usize, DeltaBase)> {
        self.budget = budget;
        self.evict_to_budget()
    }

    fn evict_to_budget(&mut self) -> Vec<(usize, DeltaBase)> {
        let mut evicted = Vec::new();
        while self.bytes > self.budget && self.order.len() > 1 {
            let key = self.order.pop_front().expect("len checked");
            let base = self.entries.remove(&key).expect("order tracks entries");
            self.bytes -= base.bytes;
            self.evictions += 1;
            self.evicted_bytes += base.bytes;
            evicted.push((key.0, base));
        }
        evicted
    }

    /// Pinned bytes currently charged against the budget.
    pub fn resident_bytes(&self) -> u64 {
        self.bytes
    }

    /// Lifetime `(evictions, evicted_bytes)` — surfaced by
    /// `worlds-report --net`.
    pub fn eviction_stats(&self) -> (u64, u64) {
        (self.evictions, self.evicted_bytes)
    }

    /// Empty the cache, yielding each entry's destination node and base
    /// so the caller can release the pinned worlds. Not counted as
    /// evictions: this is teardown, not budget pressure.
    pub fn drain(&mut self) -> Vec<(usize, DeltaBase)> {
        self.order.clear();
        self.bytes = 0;
        self.entries.drain().map(|((dst, _), b)| (dst, b)).collect()
    }
}
