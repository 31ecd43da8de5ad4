//! worlds-trace: the speculation tree reconstructed as spans.
//!
//! The event stream ([`crate::Event`]) is flat; this module folds it
//! back into the shape operators think in — one [`WorldSpan`] per world
//! (spawn → guard → rendezvous → commit/eliminate), linked into the
//! speculation tree by the `parent` field, with CoW faults, checkpoints
//! and message routing attached as sub-events. On top of the tree sit
//! the two analyses the paper's accounting argument needs:
//!
//! * [`SpanTree::critical_path`] — the commit winner's lineage and its
//!   wall time (what the run actually waited for), and
//! * [`SpanTree::waste`] — virtual time and pages burned by everything
//!   *off* that lineage, broken down per alternative index.
//!
//! The builder is replay-tolerant by design: it accepts truncated and
//! interleaved streams (a capture cut mid-run, or several subsystems
//! writing one JSONL). A span missing its terminal event is closed at
//! the end of the stream, and children are clamped inside their parents,
//! so "every span nests inside its parent" holds for any input.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};
use crate::fmt_ns;

/// Trace context carried across causal boundaries (predicated messages,
/// remote RPCs): which run this belongs to and which world caused it.
/// Receivers stamp `world` as the `parent` of the events they emit, so
/// message-induced splits and cross-node forks join the sender's tree
/// instead of starting orphan roots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The root world of the run that originated this causal chain.
    pub root: u64,
    /// The world on the causing side of the edge (sender / fork origin).
    pub world: u64,
}

/// How a world came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOrigin {
    /// No spawn-like event seen — a run root, or a truncated capture.
    Root,
    /// Forked by the kernel to run alternative `alt`.
    Spawned {
        /// Alternative index within the block.
        alt: u64,
    },
    /// The accepting copy of a message-induced receiver split.
    SplitCopy,
    /// Restored from a checkpoint on remote node `node`.
    RemoteForked {
        /// Destination node id.
        node: u64,
    },
}

/// How a world's span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// No terminal event in the stream (run root, or truncated capture).
    Open,
    /// Won the rendezvous and was adopted into its parent.
    Committed,
    /// Eliminated while the parent waited.
    EliminatedSync,
    /// Handed to background elimination.
    EliminatedAsync,
    /// Guard failed; the world self-aborted.
    GuardFailed,
}

impl SpanOutcome {
    /// Short label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            SpanOutcome::Open => "open",
            SpanOutcome::Committed => "committed",
            SpanOutcome::EliminatedSync => "elim_sync",
            SpanOutcome::EliminatedAsync => "elim_async",
            SpanOutcome::GuardFailed => "guard_failed",
        }
    }
}

/// The guard evaluation inside a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardSpan {
    /// When evaluation began (verdict time minus duration, saturating).
    pub start_ns: u64,
    /// When the verdict landed.
    pub end_ns: u64,
    /// The verdict.
    pub pass: bool,
}

/// One write fault attached to a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultMark {
    /// Virtual time of the fault.
    pub vt_ns: u64,
    /// Virtual page number.
    pub vpn: u64,
    /// Bytes physically copied (0 for zero fills).
    pub bytes: u64,
    /// True for zero fills, false for CoW copies.
    pub zero_fill: bool,
}

/// One checkpoint serialisation attached to a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointSpan {
    /// When serialisation started.
    pub start_ns: u64,
    /// Start plus measured duration.
    pub end_ns: u64,
    /// Pages in the image.
    pub pages: u64,
    /// Image bytes.
    pub bytes: u64,
}

/// A message-routing or RPC moment attached to a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    /// Virtual time of the moment.
    pub vt_ns: u64,
    /// The wire name of the underlying event (`msg_accept`, `rpc_send`…).
    pub what: &'static str,
    /// The causing world on the far side of the edge, when the event
    /// carried one (message sender via [`TraceCtx`]).
    pub from: Option<u64>,
}

/// One world's reconstructed lifetime.
#[derive(Debug, Clone)]
pub struct WorldSpan {
    /// The world id.
    pub world: u64,
    /// Parent world in the speculation tree, if the stream named one.
    pub parent: Option<u64>,
    /// Alternative index, when the world was spawned for one.
    pub alt: Option<u64>,
    /// How the world came to exist.
    pub origin: SpanOrigin,
    /// First moment attributed to this world.
    pub start_ns: u64,
    /// Last moment: terminal event, or end-of-stream for open spans.
    pub end_ns: u64,
    /// How the span ended.
    pub outcome: SpanOutcome,
    /// The guard evaluation, if observed.
    pub guard: Option<GuardSpan>,
    /// When the world reached the rendezvous point.
    pub rendezvous_ns: Option<u64>,
    /// Dirty pages reported by the commit, when this world won.
    pub commit_dirty_pages: Option<u64>,
    /// Write faults (CoW copies and zero fills) charged to this world.
    pub faults: Vec<FaultMark>,
    /// Checkpoint serialisations of this world.
    pub checkpoints: Vec<CheckpointSpan>,
    /// Message-routing and RPC moments on this world.
    pub marks: Vec<Mark>,
    /// Child worlds (tree order = first-seen order).
    pub children: Vec<u64>,
    /// Profiler samples attributed to this world (`cpu` flush events).
    pub cpu_samples: u64,
    /// Estimated on-CPU nanoseconds (`Σ samples × period`). Raw sum —
    /// sampling error can nudge it past the span's wall time, so
    /// renders use [`WorldSpan::est_cpu_capped_ns`].
    pub est_cpu_ns: u64,
}

impl WorldSpan {
    fn new(world: u64, start_ns: u64) -> WorldSpan {
        WorldSpan {
            world,
            parent: None,
            alt: None,
            origin: SpanOrigin::Root,
            start_ns,
            end_ns: start_ns,
            outcome: SpanOutcome::Open,
            guard: None,
            rendezvous_ns: None,
            commit_dirty_pages: None,
            faults: Vec::new(),
            checkpoints: Vec::new(),
            marks: Vec::new(),
            children: Vec::new(),
            cpu_samples: 0,
            est_cpu_ns: 0,
        }
    }

    /// Span duration (virtual ns).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Pages this world materialised (CoW copies + zero fills).
    pub fn pages_faulted(&self) -> u64 {
        self.faults.len() as u64
    }

    /// Bytes this world physically copied on CoW faults.
    pub fn bytes_copied(&self) -> u64 {
        self.faults.iter().map(|f| f.bytes).sum()
    }

    /// Estimated on-CPU time, capped at the span's wall time: a span
    /// can never have burned more CPU than it existed for, but ±1
    /// sample of quantisation error (and flush lag on short spans) can
    /// push the raw estimate past the wall clock.
    pub fn est_cpu_capped_ns(&self) -> u64 {
        self.est_cpu_ns.min(self.duration_ns())
    }
}

/// One per-worker utilization point from a profiler flush (`wutil`
/// event): worker `worker` was on-CPU for `busy` of `total` sampler
/// ticks in the flush window ending at `vt_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerUtilPoint {
    /// Virtual time of the flush.
    pub vt_ns: u64,
    /// Marker-registry slot index of the worker.
    pub worker: u64,
    /// On-CPU sampler ticks in the window.
    pub busy: u64,
    /// Total sampler ticks in the window.
    pub total: u64,
}

/// What a causal flow arrow means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Parent forked a speculative child.
    Spawn,
    /// Winner adopted back into its parent.
    Commit,
    /// Message-induced receiver split.
    Split,
    /// Cross-node checkpoint/restore fork.
    RemoteFork,
    /// Predicated message delivery (sender → receiver).
    Message,
}

impl EdgeKind {
    /// Short label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            EdgeKind::Spawn => "spawn",
            EdgeKind::Commit => "commit",
            EdgeKind::Split => "split",
            EdgeKind::RemoteFork => "rfork",
            EdgeKind::Message => "msg",
        }
    }
}

/// One causal edge between two worlds, for flow arrows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalEdge {
    /// What the edge means.
    pub kind: EdgeKind,
    /// Causing world.
    pub src: u64,
    /// Caused world.
    pub dst: u64,
    /// When the edge fired.
    pub vt_ns: u64,
}

/// The winner lineage: every span on the root-to-commit chain.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Worlds on the path, root first, commit winner last.
    pub worlds: Vec<u64>,
    /// The committing world.
    pub commit_world: u64,
    /// When the commit landed.
    pub commit_ns: u64,
    /// Root start → commit: the wall time the run actually waited for.
    pub total_ns: u64,
}

/// Waste charged to one alternative index (or to `alt: None` when the
/// stream never said which alternative a subtree belonged to).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WasteBucket {
    /// Worlds attributed to this alternative.
    pub worlds: u64,
    /// Summed span durations (virtual ns) of those worlds.
    pub vt_ns: u64,
    /// Pages they materialised.
    pub pages: u64,
    /// Bytes they physically copied.
    pub bytes: u64,
    /// Estimated on-CPU nanoseconds (capped per span; 0 without a
    /// profiler capture).
    pub cpu_ns: u64,
}

/// Per-run waste attribution. The partition is exact by construction:
/// every span is charged either to the winner lineage or to exactly one
/// alternative bucket, so `lineage.vt_ns + Σ buckets.vt_ns ==
/// total_vt_ns` — the run's total virtual time, defined as the summed
/// lifetime of every world (a cost integral, like CPU-seconds).
#[derive(Debug, Clone)]
pub struct WasteReport {
    /// The winner lineage's totals (worlds, vt, pages, bytes).
    pub lineage: WasteBucket,
    /// Waste per alternative index; `None` = subtree with no known alt.
    pub buckets: Vec<(Option<u64>, WasteBucket)>,
    /// Summed lifetime of every world in the run.
    pub total_vt_ns: u64,
}

/// The reconstructed speculation tree.
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    spans: BTreeMap<u64, WorldSpan>,
    edges: Vec<CausalEdge>,
    roots: Vec<u64>,
    max_vt_ns: u64,
    worker_util: Vec<WorkerUtilPoint>,
}

impl SpanTree {
    /// Reconstruct spans from an event stream. Events are sorted by
    /// virtual time internally, so interleaved multi-subsystem captures
    /// are fine; truncation only yields open spans, never an error.
    pub fn build<'a>(events: impl IntoIterator<Item = &'a Event>) -> SpanTree {
        let mut sorted: Vec<&Event> = events.into_iter().collect();
        sorted.sort_by_key(|ev| ev.vt_ns);
        let mut tree = SpanTree::default();
        for ev in sorted {
            tree.absorb(ev);
        }
        tree.finish();
        tree
    }

    fn ensure(&mut self, world: u64, vt: u64) -> &mut WorldSpan {
        self.spans
            .entry(world)
            .or_insert_with(|| WorldSpan::new(world, vt))
    }

    /// Record a spawn-like event: open (or re-parent) `world` under
    /// `parent` and record the causal edge.
    fn open_child(
        &mut self,
        world: u64,
        parent: Option<u64>,
        vt: u64,
        origin: SpanOrigin,
        kind: EdgeKind,
    ) {
        let span = self.ensure(world, vt);
        span.start_ns = span.start_ns.min(vt);
        span.origin = origin;
        if let SpanOrigin::Spawned { alt } = origin {
            span.alt = Some(alt);
        }
        if let Some(p) = parent {
            if p != world && span.parent.is_none() {
                span.parent = Some(p);
                let pspan = self.ensure(p, vt);
                if !pspan.children.contains(&world) {
                    pspan.children.push(world);
                }
                self.edges.push(CausalEdge {
                    kind,
                    src: p,
                    dst: world,
                    vt_ns: vt,
                });
            }
        }
    }

    fn close(&mut self, world: u64, vt: u64, outcome: SpanOutcome) {
        let span = self.ensure(world, vt);
        span.end_ns = span.end_ns.max(vt);
        if span.outcome == SpanOutcome::Open {
            span.outcome = outcome;
        }
    }

    fn absorb(&mut self, ev: &Event) {
        let (w, vt) = (ev.world, ev.vt_ns);
        self.max_vt_ns = self.max_vt_ns.max(vt);
        match &ev.kind {
            EventKind::Spawn { alt } => {
                self.open_child(
                    w,
                    ev.parent,
                    vt,
                    SpanOrigin::Spawned { alt: *alt },
                    EdgeKind::Spawn,
                );
            }
            EventKind::SplitSpawn => {
                self.open_child(w, ev.parent, vt, SpanOrigin::SplitCopy, EdgeKind::Split);
            }
            EventKind::RemoteFork { node } => {
                self.open_child(
                    w,
                    ev.parent,
                    vt,
                    SpanOrigin::RemoteForked { node: *node },
                    EdgeKind::RemoteFork,
                );
            }
            EventKind::GuardVerdict {
                pass, duration_ns, ..
            } => {
                let span = self.ensure(w, vt);
                span.guard = Some(GuardSpan {
                    start_ns: vt.saturating_sub(*duration_ns),
                    end_ns: vt,
                    pass: *pass,
                });
                if !pass {
                    // The terminal elimination (if any) overrides this.
                    span.end_ns = span.end_ns.max(vt);
                }
            }
            EventKind::Rendezvous => {
                let span = self.ensure(w, vt);
                span.rendezvous_ns = Some(vt);
                span.end_ns = span.end_ns.max(vt);
            }
            EventKind::Commit { dirty_pages, .. } => {
                let dirty = *dirty_pages;
                self.close(w, vt, SpanOutcome::Committed);
                let span = self.ensure(w, vt);
                span.commit_dirty_pages = Some(dirty);
                if let Some(p) = span.parent {
                    self.edges.push(CausalEdge {
                        kind: EdgeKind::Commit,
                        src: w,
                        dst: p,
                        vt_ns: vt,
                    });
                }
            }
            EventKind::EliminateSync { .. } => self.close(w, vt, SpanOutcome::EliminatedSync),
            EventKind::EliminateAsync => self.close(w, vt, SpanOutcome::EliminatedAsync),
            EventKind::Timeout => {
                // Emitted against the waiting parent; the killed children
                // get their own elimination events. A mark, not a close.
                let span = self.ensure(w, vt);
                span.marks.push(Mark {
                    vt_ns: vt,
                    what: "timeout",
                    from: None,
                });
            }
            EventKind::CowCopy { vpn, bytes } => {
                let span = self.ensure(w, vt);
                span.faults.push(FaultMark {
                    vt_ns: vt,
                    vpn: *vpn,
                    bytes: *bytes,
                    zero_fill: false,
                });
                span.end_ns = span.end_ns.max(vt);
            }
            EventKind::ZeroFill { vpn } => {
                let span = self.ensure(w, vt);
                span.faults.push(FaultMark {
                    vt_ns: vt,
                    vpn: *vpn,
                    bytes: 0,
                    zero_fill: true,
                });
                span.end_ns = span.end_ns.max(vt);
            }
            EventKind::Checkpoint {
                pages,
                bytes,
                duration_ns,
            } => {
                // Duration is wall time (serialisation is real work even
                // in the simulator); anchor the sub-span at vt and give it
                // the measured width so it renders as work, not a tick.
                let dur = *duration_ns;
                let span = self.ensure(w, vt);
                span.checkpoints.push(CheckpointSpan {
                    start_ns: vt,
                    end_ns: vt + dur,
                    pages: *pages,
                    bytes: *bytes,
                });
                span.end_ns = span.end_ns.max(vt);
            }
            EventKind::MsgAccept
            | EventKind::MsgExtend
            | EventKind::MsgIgnore
            | EventKind::MsgSplit => {
                // Message events overload `parent` as the *sender* world
                // (the TraceCtx causal edge) — never a tree edge.
                let what = ev.kind.name();
                let from = ev.parent.filter(|&p| p != w);
                if let Some(src) = from {
                    self.ensure(src, vt);
                    self.edges.push(CausalEdge {
                        kind: EdgeKind::Message,
                        src,
                        dst: w,
                        vt_ns: vt,
                    });
                }
                let span = self.ensure(w, vt);
                span.marks.push(Mark {
                    vt_ns: vt,
                    what,
                    from,
                });
                span.end_ns = span.end_ns.max(vt);
            }
            EventKind::RpcSend { .. }
            | EventKind::RpcRetry { .. }
            | EventKind::RpcTimeout { .. }
            | EventKind::NetSend { .. }
            | EventKind::NetRecv { .. }
            | EventKind::NetRetry { .. }
            | EventKind::NetTimeout { .. }
            | EventKind::NetNack { .. } => {
                let span = self.ensure(w, vt);
                span.marks.push(Mark {
                    vt_ns: vt,
                    what: ev.kind.name(),
                    from: None,
                });
                span.end_ns = span.end_ns.max(vt);
            }
            EventKind::FrameDedup { .. } => {
                let span = self.ensure(w, vt);
                span.marks.push(Mark {
                    vt_ns: vt,
                    what: "frame_dedup",
                    from: None,
                });
                span.end_ns = span.end_ns.max(vt);
            }
            EventKind::FrameFree { .. } => {
                // Frame accounting has no per-world span meaning (the
                // freeing world is often already closed).
            }
            EventKind::NetCacheEvict { .. } => {
                // Cache housekeeping on the sender; no world to pin it to.
            }
            EventKind::Meta { .. } | EventKind::SiteLabel { .. } => {
                // Stream metadata: world 0 here is a placeholder, not
                // a span — opening one would fabricate an orphan root.
            }
            EventKind::CpuSamples {
                samples, period_ns, ..
            } => {
                // Profiler flushes lag the work they measured, so they
                // attribute CPU but never extend a span's wall clock.
                let span = self.ensure(w, vt);
                span.cpu_samples += samples;
                span.est_cpu_ns += samples.saturating_mul(*period_ns);
            }
            EventKind::WorkerUtil {
                worker,
                busy,
                total,
            } => {
                // Worker-level, not world-level: kept as counter points
                // for trace export, never a span.
                self.worker_util.push(WorkerUtilPoint {
                    vt_ns: vt,
                    worker: *worker,
                    busy: *busy,
                    total: *total,
                });
            }
            EventKind::Stall { .. } => {
                // A watchdog bark against a live world; world 0 means the
                // wedged worker held no world — nothing to pin it on.
                if let Some(span) = self.spans.get_mut(&w) {
                    span.marks.push(Mark {
                        vt_ns: vt,
                        what: "stall",
                        from: None,
                    });
                }
            }
        }
    }

    /// Close open spans at end-of-stream and clamp children inside their
    /// parents, making the nesting invariant hold for truncated input:
    /// an open span under a closed parent would otherwise outlive it.
    fn finish(&mut self) {
        let worlds: Vec<u64> = self.spans.keys().copied().collect();
        for w in &worlds {
            let span = self.spans.get_mut(w).expect("listed world");
            if span.outcome == SpanOutcome::Open {
                span.end_ns = span.end_ns.max(self.max_vt_ns);
                if matches!(span.guard, Some(GuardSpan { pass: false, .. })) {
                    span.outcome = SpanOutcome::GuardFailed;
                }
            }
        }
        self.roots = worlds
            .iter()
            .copied()
            .filter(|w| self.spans[w].parent.is_none())
            .collect();
        // Top-down clamp, breadth-first from the roots.
        let mut queue: Vec<u64> = self.roots.clone();
        while let Some(w) = queue.pop() {
            let (pstart, pend, children) = {
                let s = &self.spans[&w];
                (s.start_ns, s.end_ns, s.children.clone())
            };
            for c in children {
                let child = self.spans.get_mut(&c).expect("child span exists");
                child.start_ns = child.start_ns.clamp(pstart, pend);
                child.end_ns = child.end_ns.clamp(child.start_ns, pend);
                queue.push(c);
            }
        }
    }

    /// All spans, ascending world id.
    pub fn spans(&self) -> impl Iterator<Item = &WorldSpan> {
        self.spans.values()
    }

    /// One span by world id.
    pub fn get(&self, world: u64) -> Option<&WorldSpan> {
        self.spans.get(&world)
    }

    /// Worlds with no parent (run roots — or orphans from truncation).
    pub fn roots(&self) -> &[u64] {
        &self.roots
    }

    /// Causal edges in emission order.
    pub fn edges(&self) -> &[CausalEdge] {
        &self.edges
    }

    /// Number of worlds seen.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no events were absorbed.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Per-worker utilization points from profiler flushes, in stream
    /// order. Empty without a profiler capture.
    pub fn worker_util(&self) -> &[WorkerUtilPoint] {
        &self.worker_util
    }

    /// Total profiler samples attributed to worlds in this tree.
    pub fn total_cpu_samples(&self) -> u64 {
        self.spans.values().map(|s| s.cpu_samples).sum()
    }

    /// The winner lineage: from the latest committing world up to its
    /// root. `None` when the stream carries no commit (timeout, all
    /// guards failed, or the tail was cut before the commit).
    pub fn critical_path(&self) -> Option<CriticalPath> {
        let winner = self
            .spans
            .values()
            .filter(|s| s.outcome == SpanOutcome::Committed)
            .max_by_key(|s| (s.end_ns, s.world))?;
        let mut worlds = vec![winner.world];
        let mut cur = winner;
        while let Some(p) = cur.parent {
            let Some(pspan) = self.spans.get(&p) else {
                break;
            };
            // Malformed input could cycle; a world never repeats on a
            // real lineage.
            if worlds.contains(&p) {
                break;
            }
            worlds.push(p);
            cur = pspan;
        }
        worlds.reverse();
        let root_start = self.spans[&worlds[0]].start_ns;
        Some(CriticalPath {
            worlds,
            commit_world: winner.world,
            commit_ns: winner.end_ns,
            total_ns: winner.end_ns.saturating_sub(root_start),
        })
    }

    /// Attribute every world to the winner lineage or to one alternative
    /// bucket. A world inherits the nearest ancestor's alt index when it
    /// has none of its own (split copies, remote restores).
    pub fn waste(&self) -> WasteReport {
        let lineage_set: Vec<u64> = self.critical_path().map(|cp| cp.worlds).unwrap_or_default();
        let mut lineage = WasteBucket::default();
        let mut buckets: BTreeMap<Option<u64>, WasteBucket> = BTreeMap::new();
        let mut total_vt = 0u64;
        for span in self.spans.values() {
            total_vt += span.duration_ns();
            let target = if lineage_set.contains(&span.world) {
                &mut lineage
            } else {
                buckets.entry(self.attributed_alt(span)).or_default()
            };
            target.worlds += 1;
            target.vt_ns += span.duration_ns();
            target.pages += span.pages_faulted();
            target.bytes += span.bytes_copied();
            target.cpu_ns += span.est_cpu_capped_ns();
        }
        WasteReport {
            lineage,
            buckets: buckets.into_iter().collect(),
            total_vt_ns: total_vt,
        }
    }

    fn attributed_alt(&self, span: &WorldSpan) -> Option<u64> {
        let mut cur = span;
        let mut hops = 0;
        loop {
            if let Some(alt) = cur.alt {
                return Some(alt);
            }
            let p = cur.parent?;
            cur = self.spans.get(&p)?;
            hops += 1;
            if hops > self.spans.len() {
                return None; // malformed parent cycle
            }
        }
    }

    /// Human-readable critical-path table.
    pub fn render_critical_path(&self) -> String {
        let mut out = String::from("== critical path (winner lineage) ==\n");
        match self.critical_path() {
            None => out.push_str("  no commit in stream\n"),
            Some(cp) => {
                let mut path_cpu = 0u64;
                for w in &cp.worlds {
                    let s = &self.spans[w];
                    let role = match s.alt {
                        Some(a) => format!("alt {a}"),
                        None => "root".to_string(),
                    };
                    let cpu = s.est_cpu_capped_ns();
                    path_cpu += cpu;
                    out.push_str(&format!(
                        "  world {:<6} {:<12} [{} .. {}]  wall={:<9} cpu={:<9} {}\n",
                        s.world,
                        role,
                        fmt_ns(s.start_ns),
                        fmt_ns(s.end_ns),
                        fmt_ns(s.duration_ns()),
                        fmt_ns(cpu),
                        s.outcome.label(),
                    ));
                }
                out.push_str(&format!(
                    "  commit at {} — path wall time {}, est on-CPU {}\n",
                    fmt_ns(cp.commit_ns),
                    fmt_ns(cp.total_ns),
                    fmt_ns(path_cpu),
                ));
            }
        }
        out
    }

    /// Human-readable waste-attribution table. Rows grow an est. CPU
    /// share column when the capture carries profiler samples.
    pub fn render_waste(&self) -> String {
        let w = self.waste();
        let total_cpu: u64 =
            w.lineage.cpu_ns + w.buckets.iter().map(|(_, b)| b.cpu_ns).sum::<u64>();
        // Without samples the bytes column stays last and unpadded, so
        // pre-prof captures replay byte-identically.
        let cpu_col = |b: &WasteBucket| -> String {
            if total_cpu == 0 {
                return String::new();
            }
            format!(
                " cpu={:<9} ({:>3.0}%)",
                fmt_ns(b.cpu_ns),
                100.0 * b.cpu_ns as f64 / total_cpu as f64
            )
        };
        let bytes_col = |b: &WasteBucket| -> String {
            if total_cpu == 0 {
                b.bytes.to_string()
            } else {
                format!("{:<9}", b.bytes)
            }
        };
        let mut out = String::from("== waste attribution ==\n");
        out.push_str(&format!(
            "  {:<14} worlds={:<4} vt={:<10} pages={:<6} bytes={}{}\n",
            "winner-lineage",
            w.lineage.worlds,
            fmt_ns(w.lineage.vt_ns),
            w.lineage.pages,
            bytes_col(&w.lineage),
            cpu_col(&w.lineage),
        ));
        for (alt, b) in &w.buckets {
            let name = match alt {
                Some(a) => format!("alt {a}"),
                None => "unattributed".to_string(),
            };
            out.push_str(&format!(
                "  {:<14} worlds={:<4} vt={:<10} pages={:<6} bytes={}{}\n",
                name,
                b.worlds,
                fmt_ns(b.vt_ns),
                b.pages,
                bytes_col(b),
                cpu_col(b),
            ));
        }
        out.push_str(&format!(
            "  total world-lifetime vt: {} (lineage {} + waste {})\n",
            fmt_ns(w.total_vt_ns),
            fmt_ns(w.lineage.vt_ns),
            fmt_ns(w.total_vt_ns.saturating_sub(w.lineage.vt_ns)),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, world: u64, parent: Option<u64>, vt: u64) -> Event {
        Event::new(kind, world, parent, vt)
    }

    /// A complete 2-alt run: world 1 is the parent, 2 loses, 3 wins.
    fn small_run() -> Vec<Event> {
        vec![
            ev(EventKind::Spawn { alt: 0 }, 2, Some(1), 10),
            ev(EventKind::Spawn { alt: 1 }, 3, Some(1), 20),
            ev(EventKind::ZeroFill { vpn: 0 }, 2, Some(1), 30),
            ev(
                EventKind::CowCopy {
                    vpn: 1,
                    bytes: 4096,
                },
                3,
                Some(1),
                40,
            ),
            ev(
                EventKind::GuardVerdict {
                    pass: true,
                    duration_ns: 5,
                    alt: None,
                    site: None,
                },
                3,
                Some(1),
                50,
            ),
            ev(EventKind::Rendezvous, 3, Some(1), 60),
            ev(
                EventKind::Commit {
                    dirty_pages: 1,
                    overhead_ns: 7,
                    site: None,
                },
                3,
                Some(1),
                70,
            ),
            ev(
                EventKind::EliminateSync {
                    overhead_ns: 3,
                    site: None,
                },
                2,
                Some(1),
                70,
            ),
        ]
    }

    #[test]
    fn builds_one_span_per_world_with_tree_edges() {
        let events = small_run();
        let tree = SpanTree::build(&events);
        assert_eq!(tree.len(), 3);
        assert_eq!(tree.roots(), &[1]);
        let winner = tree.get(3).unwrap();
        assert_eq!(winner.parent, Some(1));
        assert_eq!(winner.alt, Some(1));
        assert_eq!(winner.outcome, SpanOutcome::Committed);
        assert_eq!(winner.guard.unwrap().start_ns, 45);
        assert_eq!(winner.rendezvous_ns, Some(60));
        assert_eq!(winner.commit_dirty_pages, Some(1));
        assert_eq!(tree.get(2).unwrap().outcome, SpanOutcome::EliminatedSync);
        assert_eq!(tree.get(1).unwrap().children, vec![2, 3]);
        // Two spawn edges + one commit edge.
        let spawns = tree
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::Spawn)
            .count();
        assert_eq!(spawns, 2);
        assert!(tree
            .edges()
            .iter()
            .any(|e| e.kind == EdgeKind::Commit && e.src == 3 && e.dst == 1));
    }

    #[test]
    fn critical_path_is_root_to_commit() {
        let tree = SpanTree::build(&small_run());
        let cp = tree.critical_path().unwrap();
        assert_eq!(cp.worlds, vec![1, 3]);
        assert_eq!(cp.commit_world, 3);
        assert_eq!(cp.commit_ns, 70);
        assert_eq!(cp.total_ns, 60, "root opens at 10, commit at 70");
    }

    #[test]
    fn waste_partitions_total_virtual_time_exactly() {
        let tree = SpanTree::build(&small_run());
        let w = tree.waste();
        let bucket_sum: u64 = w.buckets.iter().map(|(_, b)| b.vt_ns).sum();
        assert_eq!(w.lineage.vt_ns + bucket_sum, w.total_vt_ns);
        // The loser (alt 0) burned one page.
        let alt0 = &w.buckets.iter().find(|(a, _)| *a == Some(0)).unwrap().1;
        assert_eq!(alt0.pages, 1);
        assert_eq!(alt0.worlds, 1);
        // The winner's fault is on the lineage, not in waste.
        assert_eq!(w.lineage.pages, 1);
        assert_eq!(w.lineage.bytes, 4096);
    }

    #[test]
    fn truncated_stream_yields_open_nested_spans() {
        let mut events = small_run();
        events.truncate(4); // cut before any verdict/commit
        let tree = SpanTree::build(&events);
        assert!(tree.critical_path().is_none());
        for span in tree.spans() {
            assert_eq!(span.outcome, SpanOutcome::Open);
            if let Some(p) = span.parent {
                let parent = tree.get(p).unwrap();
                assert!(parent.start_ns <= span.start_ns);
                assert!(span.end_ns <= parent.end_ns, "child escapes parent");
            }
        }
    }

    #[test]
    fn message_parent_is_a_causal_edge_not_a_tree_edge() {
        let events = vec![
            ev(EventKind::Spawn { alt: 0 }, 2, Some(1), 10),
            // World 5 receives a message *sent by* world 2.
            ev(EventKind::MsgAccept, 5, Some(2), 20),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.get(5).unwrap().parent, None, "sender is not a parent");
        assert!(tree
            .edges()
            .iter()
            .any(|e| e.kind == EdgeKind::Message && e.src == 2 && e.dst == 5));
        assert_eq!(tree.get(5).unwrap().marks[0].from, Some(2));
    }

    #[test]
    fn split_and_remote_forks_are_tree_edges() {
        let events = vec![
            ev(EventKind::Spawn { alt: 0 }, 2, Some(1), 10),
            ev(EventKind::SplitSpawn, 7, Some(2), 20),
            ev(EventKind::RemoteFork { node: 3 }, 9, Some(7), 30),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.get(7).unwrap().origin, SpanOrigin::SplitCopy);
        assert_eq!(tree.get(7).unwrap().parent, Some(2));
        assert_eq!(
            tree.get(9).unwrap().origin,
            SpanOrigin::RemoteForked { node: 3 }
        );
        assert_eq!(tree.roots(), &[1], "no orphan roots");
        // Split copies inherit the nearest ancestor's alt for waste.
        let w = tree.waste();
        let alt0 = &w.buckets.iter().find(|(a, _)| *a == Some(0)).unwrap().1;
        assert_eq!(alt0.worlds, 3, "alt subtree: spawned + split + rfork");
    }

    #[test]
    fn renders_mention_key_facts() {
        let tree = SpanTree::build(&small_run());
        let cp = tree.render_critical_path();
        assert!(cp.contains("world 3"), "{cp}");
        assert!(cp.contains("alt 1"), "{cp}");
        assert!(cp.contains("wall="), "{cp}");
        assert!(cp.contains("cpu="), "{cp}");
        let waste = tree.render_waste();
        assert!(waste.contains("winner-lineage"), "{waste}");
        assert!(waste.contains("alt 0"), "{waste}");
        assert!(
            !waste.contains("cpu="),
            "no samples, no cpu column: {waste}"
        );
    }

    /// `small_run` plus profiler flushes: 3 samples on the winner, 2 on
    /// the loser, one worker-util point, one stall on the loser.
    fn profiled_run() -> Vec<Event> {
        let mut events = small_run();
        events.push(ev(
            EventKind::CpuSamples {
                samples: 3,
                period_ns: 10,
                site: Some(1),
                alt: Some(1),
                phase: 2,
            },
            3,
            None,
            65,
        ));
        events.push(ev(
            EventKind::CpuSamples {
                samples: 2,
                period_ns: 10,
                site: Some(1),
                alt: Some(0),
                phase: 2,
            },
            2,
            None,
            65,
        ));
        events.push(ev(
            EventKind::WorkerUtil {
                worker: 0,
                busy: 5,
                total: 8,
            },
            0,
            None,
            65,
        ));
        events.push(ev(
            EventKind::Stall {
                site: Some(1),
                phase: 2,
                waited_ns: 40,
            },
            2,
            None,
            66,
        ));
        events
    }

    #[test]
    fn cpu_samples_attribute_without_extending_spans() {
        let plain = SpanTree::build(&small_run());
        let tree = SpanTree::build(&profiled_run());
        let winner = tree.get(3).unwrap();
        assert_eq!(winner.cpu_samples, 3);
        assert_eq!(winner.est_cpu_ns, 30);
        assert_eq!(
            winner.end_ns,
            plain.get(3).unwrap().end_ns,
            "flush must not move the wall clock"
        );
        assert_eq!(tree.total_cpu_samples(), 5);
        // The stall landed as a mark on the loser, not a new span.
        assert!(tree.get(2).unwrap().marks.iter().any(|m| m.what == "stall"));
        assert!(tree.get(0).is_none(), "world-0 events must not open spans");
        assert_eq!(
            tree.worker_util(),
            &[WorkerUtilPoint {
                vt_ns: 65,
                worker: 0,
                busy: 5,
                total: 8,
            }]
        );
    }

    #[test]
    fn est_cpu_is_capped_at_wall_time() {
        let mut events = small_run();
        // 1000 samples × 10ns ≫ the loser's 60ns lifetime.
        events.push(ev(
            EventKind::CpuSamples {
                samples: 1000,
                period_ns: 10,
                site: None,
                alt: Some(0),
                phase: 2,
            },
            2,
            None,
            65,
        ));
        let tree = SpanTree::build(&events);
        let loser = tree.get(2).unwrap();
        assert_eq!(loser.est_cpu_ns, 10_000, "raw sum is kept");
        assert_eq!(loser.est_cpu_capped_ns(), loser.duration_ns());
        // The waste table charges the capped value.
        let w = tree.waste();
        let alt0 = &w.buckets.iter().find(|(a, _)| *a == Some(0)).unwrap().1;
        assert_eq!(alt0.cpu_ns, loser.duration_ns());
    }

    #[test]
    fn renders_grow_cpu_columns_with_samples() {
        let tree = SpanTree::build(&profiled_run());
        let cp = tree.render_critical_path();
        assert!(cp.contains("cpu=30ns"), "{cp}");
        assert!(cp.contains("est on-CPU"), "{cp}");
        let waste = tree.render_waste();
        assert!(waste.contains("cpu="), "{waste}");
        assert!(waste.contains("%"), "{waste}");
    }
}
