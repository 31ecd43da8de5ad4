//! Aggregated run statistics and the end-of-run summary table.
//!
//! [`RunStats`] is the single event→metric mapping: the live registry
//! routes every emitted event through [`RunStats::absorb`], and
//! `worlds-report` replays a JSONL file through the same function — so a
//! replayed report is bit-identical to the live one by construction.

use crate::counter_struct;
use crate::event::{Event, EventKind};
use crate::metrics::{Gauge, Histogram};

counter_struct! {
    /// Speculation lifecycle (kernel::machine).
    pub struct KernelCounters {
        /// Speculative worlds forked.
        pub worlds_spawned,
        /// Guard predicates that passed.
        pub guard_pass,
        /// Guard predicates that failed.
        pub guard_fail,
        /// Worlds that reached the rendezvous point.
        pub rendezvous,
        /// Winning worlds committed into their parents.
        pub commits,
        /// Losers eliminated while the parent waited.
        pub eliminations_sync,
        /// Losers handed to background elimination.
        pub eliminations_async,
        /// Worlds aborted at their deadline.
        pub timeouts,
    }
}

counter_struct! {
    /// Memory behaviour (pagestore::store).
    pub struct PageCounters {
        /// All write faults (CoW copies + zero fills).
        pub faults,
        /// Pages privatised by copy-on-write.
        pub page_copies,
        /// Pages materialised from the zero page.
        pub zero_fills,
        /// Bytes physically copied by CoW.
        pub bytes_copied,
        /// Frames freed (last reference dropped).
        pub frames_freed,
        /// Checkpoint images written.
        pub checkpoints,
    }
}

counter_struct! {
    /// Content-addressed dedupe (pagestore content index + net cache).
    /// Event-derived; the summary omits the section when the store never
    /// deduped anything, so replays of pre-dedupe captures (and of runs
    /// with dedupe off, the default) stay byte-identical.
    pub struct DedupCounters {
        /// Commits that re-shared an existing identical frame.
        pub frames_deduped,
        /// Remote-fork base-cache evictions (byte budget pressure).
        pub cache_evictions,
    }
}

counter_struct! {
    /// Predicated message routing (ipc::router).
    pub struct IpcCounters {
        /// Messages matching the receiver's predicate set.
        pub accepts,
        /// Messages accepted by extending the predicate set.
        pub extends,
        /// Messages outside the predicate set.
        pub ignores,
        /// Messages that split the receiver into two worlds.
        pub splits,
    }
}

counter_struct! {
    /// Remote speculation (remote::cluster).
    pub struct RemoteCounters {
        /// RPCs dispatched (rforks + commit-backs).
        pub rpc_sends,
        /// Attempts re-sent after a timeout.
        pub rpc_retries,
        /// Attempts that timed out.
        pub rpc_timeouts,
        /// Payload bytes shipped over the modeled network.
        pub bytes_sent,
        /// Worlds restored on a remote node by rfork.
        pub rforks,
    }
}

counter_struct! {
    /// Wire traffic (worlds-net client/server). Event-derived like the
    /// kernel/pagestore groups, so JSONL replay reconstructs them; the
    /// summary omits the section when no wire activity was recorded,
    /// which keeps replays of pre-net captures byte-identical.
    pub struct NetCounters {
        /// Request frames put on the wire (every attempt counts).
        pub frames_sent,
        /// Bytes on the wire outbound (frame headers + checksums included).
        pub wire_bytes_sent,
        /// Requests re-sent after a timeout or connection error.
        pub retries,
        /// Request deadlines missed.
        pub timeouts,
        /// Requests the remote refused (admission rejections, limit
        /// refusals, bad requests). Rendered only when nonzero so
        /// replays of captures from before the nack event stay
        /// byte-identical.
        pub nacks,
    }
}

counter_struct! {
    /// Sampling profiler ([`crate::prof`]). Event-derived from the
    /// flush stream, so JSONL replay reconstructs it; the summary omits
    /// the section when no samples were recorded, keeping replays of
    /// pre-prof captures byte-identical.
    pub struct ProfCounters {
        /// Marker samples attributed to a world (flush-event sum).
        pub cpu_samples,
        /// Stall watchdog firings.
        pub stalls,
    }
}

counter_struct! {
    /// Execution substrate (worlds-exec pool + reaper). Unlike the other
    /// groups these are **not** derived from events: the pool is below
    /// the world-lifecycle layer, so its bookkeeping is bumped directly
    /// via `Registry::with` and appears in live summaries only — JSONL
    /// replay has no executor events to reconstruct it from, and the
    /// summary omits the section when every counter is zero.
    pub struct ExecCounters {
        /// Tasks executed by pool workers. A task its submitter takes
        /// back (`Executor::take`) is not counted, whether the submitter
        /// then runs it or drops it unrun.
        pub tasks_run,
        /// Always 0: the pool has one queue and nothing to steal from.
        /// Kept because `benchmark/` reads it, until ROADMAP item 8's
        /// single `BENCHMARK.json` revision.
        pub tasks_stolen,
        /// Tasks submitted by a thread that is not a worker of the pool
        /// it submitted to.
        pub tasks_injected,
        /// Workers added beyond the pool's base count because queued
        /// tasks would have outnumbered free workers (reserve-or-grow).
        /// An added worker lingers, so this counts thread creations, not
        /// blocks that needed one.
        pub fallback_threads,
        /// Reaper `drop_worlds` calls: one per store per reaper-thread
        /// batch, plus one per inline teardown by an enqueuer that found
        /// the reaper's backlog full.
        pub reaper_batches,
        /// Worlds torn down through the reaper, by its thread or inline
        /// past the backlog cap: every world enqueued that still existed.
        pub reaper_worlds,
    }
}

/// Every counter and histogram the observability layer maintains,
/// grouped by subsystem. Plain atomics throughout — shared freely.
#[derive(Debug, Default)]
pub struct RunStats {
    /// kernel::machine counters.
    pub kernel: KernelCounters,
    /// pagestore::store counters.
    pub pagestore: PageCounters,
    /// Content-dedupe counters (event-derived, see [`DedupCounters`]).
    pub dedupe: DedupCounters,
    /// ipc::router counters.
    pub ipc: IpcCounters,
    /// remote::cluster counters.
    pub remote: RemoteCounters,
    /// worlds-net wire counters (event-derived, see [`NetCounters`]).
    pub net: NetCounters,
    /// Profiler sampler counters (event-derived, see [`ProfCounters`]).
    pub prof: ProfCounters,
    /// worlds-exec pool/reaper counters (live-only, see [`ExecCounters`]).
    pub exec: ExecCounters,
    /// Speculation tasks submitted to the executor but not yet picked up
    /// by a worker (level, not count). Live-only, like [`ExecCounters`].
    pub exec_queue_depth: Gauge,
    /// Frames currently resident in the page store (level, not count).
    /// Pure event arithmetic — `CowCopy`/`ZeroFill` raise it, `FrameFree`
    /// lowers it — so JSONL replay reconstructs it exactly. It counts
    /// frames materialised since this registry attached: a store carrying
    /// pages from before attachment reports correspondingly fewer, and a
    /// `frame_free` whose allocation predates the stream clamps the gauge
    /// at zero instead of wrapping.
    pub frames_resident: Gauge,
    /// Commit overhead per winning world (virtual ns).
    pub commit_latency: Histogram,
    /// Synchronous elimination overhead per loser (virtual ns).
    pub elim_latency: Histogram,
    /// Checkpoint serialisation duration (virtual ns).
    pub checkpoint_duration: Histogram,
    /// End-to-end RPC latency over the modeled network (virtual ns).
    pub rpc_latency: Histogram,
    /// Request→reply round trip over the real wire (wall ns as the
    /// sender measured it).
    pub net_rtt: Histogram,
}

impl RunStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> RunStats {
        RunStats::default()
    }

    /// Fold one event into counters and histograms. This is the
    /// canonical mapping used both live and on JSONL replay.
    pub fn absorb(&self, ev: &Event) {
        match &ev.kind {
            EventKind::Spawn { .. } => self.kernel.worlds_spawned.incr(),
            EventKind::GuardVerdict { pass: true, .. } => self.kernel.guard_pass.incr(),
            EventKind::GuardVerdict { pass: false, .. } => self.kernel.guard_fail.incr(),
            EventKind::Rendezvous => self.kernel.rendezvous.incr(),
            EventKind::Commit { overhead_ns, .. } => {
                self.kernel.commits.incr();
                self.commit_latency.record(*overhead_ns);
            }
            EventKind::EliminateSync { overhead_ns, .. } => {
                self.kernel.eliminations_sync.incr();
                self.elim_latency.record(*overhead_ns);
            }
            EventKind::EliminateAsync => self.kernel.eliminations_async.incr(),
            EventKind::Timeout => self.kernel.timeouts.incr(),
            EventKind::CowCopy { bytes, .. } => {
                self.pagestore.faults.incr();
                self.pagestore.page_copies.incr();
                self.pagestore.bytes_copied.add(*bytes);
                self.frames_resident.add(1);
            }
            EventKind::ZeroFill { .. } => {
                self.pagestore.faults.incr();
                self.pagestore.zero_fills.incr();
                self.frames_resident.add(1);
            }
            EventKind::FrameFree { frames } => {
                self.pagestore.frames_freed.add(*frames);
                self.frames_resident.sub(*frames);
            }
            // A dedupe commit re-shares a frame that is already resident,
            // so it deliberately does NOT touch `frames_resident` — only
            // CowCopy/ZeroFill/FrameFree move the gauge.
            EventKind::FrameDedup { .. } => self.dedupe.frames_deduped.incr(),
            EventKind::NetCacheEvict { .. } => self.dedupe.cache_evictions.incr(),
            EventKind::Checkpoint { duration_ns, .. } => {
                self.pagestore.checkpoints.incr();
                self.checkpoint_duration.record(*duration_ns);
            }
            EventKind::MsgAccept => self.ipc.accepts.incr(),
            EventKind::MsgExtend => self.ipc.extends.incr(),
            EventKind::MsgIgnore => self.ipc.ignores.incr(),
            EventKind::MsgSplit => self.ipc.splits.incr(),
            EventKind::RemoteFork { .. } => self.remote.rforks.incr(),
            EventKind::RpcSend {
                bytes, latency_ns, ..
            } => {
                self.remote.rpc_sends.incr();
                self.remote.bytes_sent.add(*bytes);
                self.rpc_latency.record(*latency_ns);
            }
            EventKind::RpcRetry { .. } => self.remote.rpc_retries.incr(),
            EventKind::RpcTimeout { .. } => self.remote.rpc_timeouts.incr(),
            EventKind::NetSend { bytes, .. } => {
                self.net.frames_sent.incr();
                self.net.wire_bytes_sent.add(*bytes);
            }
            EventKind::NetRecv { rtt_ns, .. } => self.net_rtt.record(*rtt_ns),
            EventKind::NetRetry { .. } => self.net.retries.incr(),
            EventKind::NetTimeout { .. } => self.net.timeouts.incr(),
            // The per-reason breakdown lives in the `--net` table (it is
            // per node+code); the summary carries only the total.
            EventKind::NetNack { .. } => self.net.nacks.incr(),
            EventKind::CpuSamples { samples, .. } => self.prof.cpu_samples.add(*samples),
            EventKind::Stall { .. } => self.prof.stalls.incr(),
            // Utilization is a per-worker level, not a run counter; the
            // trace export renders it, the summary does not. A split's
            // accepting copy is a span edge (span.rs), counted by the
            // `splits` that made it.
            EventKind::WorkerUtil { .. } | EventKind::SplitSpawn => {}
            // Capture provenance, not a run metric: absorbing it would
            // make new captures aggregate differently from old ones.
            EventKind::Meta { .. } | EventKind::SiteLabel { .. } => {}
        }
    }

    /// Guard pass rate in [0, 1], or `None` before any verdicts.
    pub fn guard_pass_rate(&self) -> Option<f64> {
        let pass = self.kernel.guard_pass.get();
        let total = pass + self.kernel.guard_fail.get();
        (total > 0).then(|| pass as f64 / total as f64)
    }

    /// The human-readable end-of-run summary table.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str("== worlds observability summary ==\n");

        section(&mut out, "kernel", &self.kernel.snapshot());
        if let Some(rate) = self.guard_pass_rate() {
            out.push_str(&format!(
                "  {:<22} {:.1}%\n",
                "guard_pass_rate",
                rate * 100.0
            ));
        }
        hist_line(&mut out, "commit_latency", &self.commit_latency);
        hist_line(&mut out, "elim_latency", &self.elim_latency);

        section(&mut out, "pagestore", &self.pagestore.snapshot());
        out.push_str(&format!(
            "  {:<22} {}\n",
            "frames_resident",
            self.frames_resident.get()
        ));
        hist_line(&mut out, "checkpoint_duration", &self.checkpoint_duration);

        // Only runs that actually deduped (or evicted) print a [dedupe]
        // section: the index is opt-in, so replays of captures from
        // before it existed — and of runs with it off — stay identical.
        let dedupe = self.dedupe.snapshot();
        if dedupe.iter().any(|&(_, v)| v > 0) {
            section(&mut out, "dedupe", &dedupe);
        }

        section(&mut out, "ipc", &self.ipc.snapshot());
        section(&mut out, "remote", &self.remote.snapshot());
        hist_line(&mut out, "rpc_latency", &self.rpc_latency);

        // Only runs that actually touched the wire print a [net] section,
        // so replays of captures from before worlds-net stay identical.
        let mut net = self.net.snapshot();
        // `nacks` postdates the other wire counters; dropping the zero
        // line keeps replays of older captures byte-identical.
        if self.net.nacks.get() == 0 {
            net.retain(|&(name, _)| name != "nacks");
        }
        if net.iter().any(|&(_, v)| v > 0) {
            section(&mut out, "net", &net);
            hist_line(&mut out, "net_rtt", &self.net_rtt);
        }

        // Profiler section only when samples (or stalls) were recorded,
        // so pre-prof captures replay byte-identically.
        let prof = self.prof.snapshot();
        if prof.iter().any(|&(_, v)| v > 0) {
            section(&mut out, "prof", &prof);
        }

        // Executor counters are live-only (no events back them), so a
        // replayed report would always print zeros here; omitting the
        // idle section keeps replayed summaries identical to pre-exec
        // captures and keeps live == replay for runs that never touched
        // the pool.
        let exec = self.exec.snapshot();
        if exec.iter().any(|&(_, v)| v > 0) || self.exec_queue_depth.get() > 0 {
            section(&mut out, "exec", &exec);
            out.push_str(&format!(
                "  {:<22} {}\n",
                "queue_depth",
                self.exec_queue_depth.get()
            ));
        }
        out
    }
}

fn section(out: &mut String, name: &str, counters: &[(&'static str, u64)]) {
    out.push_str(&format!("[{name}]\n"));
    for (cname, v) in counters {
        out.push_str(&format!("  {cname:<22} {v}\n"));
    }
}

fn hist_line(out: &mut String, name: &str, hist: &Histogram) {
    let snap = hist.snapshot();
    if snap.count > 0 {
        out.push_str(&format!("  {name:<22} {}\n", snap.summary_line()));
    }
}

/// Replay parsed events into fresh statistics.
pub fn replay<'a>(events: impl IntoIterator<Item = &'a Event>) -> RunStats {
    let stats = RunStats::new();
    for ev in events {
        stats.absorb(ev);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind) -> Event {
        Event::new(kind, 1, Some(0), 100)
    }

    #[test]
    fn absorb_routes_every_kind() {
        let s = RunStats::new();
        s.absorb(&ev(EventKind::Spawn { alt: 0 }));
        s.absorb(&ev(EventKind::GuardVerdict {
            pass: true,
            duration_ns: 10,
            alt: Some(0),
            site: Some(0),
        }));
        s.absorb(&ev(EventKind::GuardVerdict {
            pass: false,
            duration_ns: 0,
            alt: None,
            site: None,
        }));
        s.absorb(&ev(EventKind::Rendezvous));
        s.absorb(&ev(EventKind::Commit {
            dirty_pages: 3,
            overhead_ns: 500,
            site: None,
        }));
        s.absorb(&ev(EventKind::EliminateSync {
            overhead_ns: 50,
            site: None,
        }));
        s.absorb(&ev(EventKind::Meta { effective_cores: 1 }));
        s.absorb(&ev(EventKind::EliminateAsync));
        s.absorb(&ev(EventKind::Timeout));
        s.absorb(&ev(EventKind::CowCopy {
            vpn: 1,
            bytes: 4096,
        }));
        s.absorb(&ev(EventKind::ZeroFill { vpn: 2 }));
        s.absorb(&ev(EventKind::FrameFree { frames: 1 }));
        s.absorb(&ev(EventKind::FrameDedup {
            vpn: 3,
            bytes: 4096,
        }));
        s.absorb(&ev(EventKind::NetCacheEvict {
            node: 1,
            bytes: 8192,
        }));
        s.absorb(&ev(EventKind::Checkpoint {
            pages: 2,
            bytes: 8192,
            duration_ns: 900,
        }));
        s.absorb(&ev(EventKind::MsgAccept));
        s.absorb(&ev(EventKind::MsgExtend));
        s.absorb(&ev(EventKind::MsgIgnore));
        s.absorb(&ev(EventKind::MsgSplit));
        s.absorb(&ev(EventKind::SplitSpawn));
        s.absorb(&ev(EventKind::RemoteFork { node: 1 }));
        s.absorb(&ev(EventKind::RpcSend {
            node: 1,
            bytes: 100,
            latency_ns: 2000,
        }));
        s.absorb(&ev(EventKind::RpcRetry {
            node: 1,
            attempt: 1,
        }));
        s.absorb(&ev(EventKind::RpcTimeout {
            node: 1,
            waited_ns: 99,
        }));
        s.absorb(&ev(EventKind::NetNack { node: 1, code: 5 }));

        assert_eq!(s.kernel.worlds_spawned.get(), 1);
        assert_eq!(s.kernel.guard_pass.get(), 1);
        assert_eq!(s.kernel.guard_fail.get(), 1);
        assert_eq!(s.kernel.commits.get(), 1);
        assert_eq!(s.kernel.eliminations_sync.get(), 1);
        assert_eq!(s.kernel.eliminations_async.get(), 1);
        assert_eq!(s.kernel.timeouts.get(), 1);
        assert_eq!(s.pagestore.faults.get(), 2);
        assert_eq!(s.pagestore.page_copies.get(), 1);
        assert_eq!(s.pagestore.zero_fills.get(), 1);
        assert_eq!(s.pagestore.bytes_copied.get(), 4096);
        assert_eq!(s.pagestore.frames_freed.get(), 1);
        assert_eq!(
            s.frames_resident.get(),
            1,
            "one CoW + one zero-fill - one free; dedupe does not move it"
        );
        assert_eq!(s.dedupe.frames_deduped.get(), 1);
        assert_eq!(s.dedupe.cache_evictions.get(), 1);
        assert_eq!(s.net.nacks.get(), 1);
        assert_eq!(s.pagestore.checkpoints.get(), 1);
        assert_eq!(s.ipc.snapshot().iter().map(|(_, v)| v).sum::<u64>(), 4);
        assert_eq!(s.remote.rforks.get(), 1);
        assert_eq!(s.remote.rpc_sends.get(), 1);
        assert_eq!(s.remote.rpc_retries.get(), 1);
        assert_eq!(s.remote.rpc_timeouts.get(), 1);
        assert_eq!(s.commit_latency.snapshot().count, 1);
        assert_eq!(s.elim_latency.snapshot().count, 1);
        assert_eq!(s.rpc_latency.snapshot().count, 1);
        assert_eq!(s.guard_pass_rate(), Some(0.5));
    }

    #[test]
    fn replay_equals_live_absorption() {
        let events: Vec<Event> = (0..20)
            .map(|i| {
                ev(match i % 4 {
                    0 => EventKind::Spawn { alt: i },
                    1 => EventKind::Commit {
                        dirty_pages: i,
                        overhead_ns: i * 10,
                        site: None,
                    },
                    2 => EventKind::EliminateSync {
                        overhead_ns: i,
                        site: None,
                    },
                    _ => EventKind::CowCopy {
                        vpn: i,
                        bytes: 4096,
                    },
                })
            })
            .collect();
        let live = replay(&events);
        let replayed = replay(&events);
        assert_eq!(live.render_summary(), replayed.render_summary());
    }

    #[test]
    fn truncated_replay_clamps_frames_resident() {
        // A stream captured from a registry attached mid-run (or truncated
        // at the front) can free frames it never saw allocated; the gauge
        // must clamp at zero rather than wrap to ~u64::MAX.
        let events = vec![
            ev(EventKind::FrameFree { frames: 3 }),
            ev(EventKind::ZeroFill { vpn: 0 }),
            ev(EventKind::CowCopy { vpn: 1, bytes: 64 }),
        ];
        let s = replay(&events);
        assert_eq!(s.frames_resident.get(), 2);
        assert_eq!(s.pagestore.frames_freed.get(), 3, "counter still exact");
    }

    #[test]
    fn summary_mentions_each_subsystem() {
        let s = RunStats::new();
        s.absorb(&ev(EventKind::Spawn { alt: 0 }));
        let text = s.render_summary();
        for needle in [
            "[kernel]",
            "[pagestore]",
            "[ipc]",
            "[remote]",
            "worlds_spawned",
            "frames_resident",
        ] {
            assert!(text.contains(needle), "summary missing {needle}:\n{text}");
        }
        assert!(
            !text.contains("[exec]"),
            "idle executor section must stay out of replayed summaries:\n{text}"
        );
        assert!(
            !text.contains("[dedupe]"),
            "dedupe section must stay out when nothing deduped:\n{text}"
        );
    }

    #[test]
    fn summary_shows_dedupe_section_only_when_index_hit() {
        let s = RunStats::new();
        s.absorb(&ev(EventKind::FrameDedup {
            vpn: 0,
            bytes: 4096,
        }));
        let text = s.render_summary();
        for needle in ["[dedupe]", "frames_deduped", "cache_evictions"] {
            assert!(text.contains(needle), "summary missing {needle}:\n{text}");
        }
    }

    #[test]
    fn summary_shows_exec_section_only_when_pool_was_used() {
        let s = RunStats::new();
        s.exec.tasks_run.incr();
        s.exec.tasks_stolen.incr();
        let text = s.render_summary();
        for needle in ["[exec]", "tasks_run", "tasks_stolen", "queue_depth"] {
            assert!(text.contains(needle), "summary missing {needle}:\n{text}");
        }
    }
}
