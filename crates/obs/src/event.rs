//! The speculation lifecycle as a flat event stream.
//!
//! Every observable moment in a world's life — spawn, guard verdict,
//! rendezvous, commit, elimination, CoW fault, checkpoint, predicated
//! message routing, remote RPC — becomes one [`Event`]: a kind plus the
//! world it happened to, that world's parent, and both clocks (virtual
//! simulation time and wall time since the registry was created).
//!
//! Events serialise to one flat JSON object per line (JSONL). The codec
//! is hand-rolled: the schema is flat (string/number/bool/null values
//! only), so a full JSON parser buys nothing.

use std::fmt;

/// What happened. Payload fields are the quantities a report needs —
/// page numbers, byte counts, overhead durations — all plain integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A speculative world was forked to run alternative `alt`.
    Spawn { alt: u64 },
    /// A world's guard predicate was evaluated. `duration_ns` is how long
    /// the evaluation took (virtual ns in the simulator, wall ns in the
    /// thread executor; 0 when the emitter cannot time it), so the trace
    /// layer can render guard work as a real sub-span, not an instant.
    /// `alt` is the alternative index the verdict belongs to, when the
    /// emitter knows it — in particular pre-spawn rejections carry the
    /// parent world plus `alt`, which is the only way to tell skipped
    /// alternatives apart in a trace (`None` on old captures).
    /// `site` is the registered call-site id of the speculation block the
    /// verdict belongs to ([`crate::site_id`]), `None` when the block was
    /// not labelled (and on old captures).
    GuardVerdict {
        pass: bool,
        duration_ns: u64,
        alt: Option<u64>,
        site: Option<u64>,
    },
    /// A finished world reached the rendezvous point.
    Rendezvous,
    /// The winning world was committed into its parent. `site` as on
    /// [`EventKind::GuardVerdict`].
    Commit {
        dirty_pages: u64,
        overhead_ns: u64,
        site: Option<u64>,
    },
    /// A losing sibling was eliminated synchronously (parent waits).
    /// `site` as on [`EventKind::GuardVerdict`].
    EliminateSync { overhead_ns: u64, site: Option<u64> },
    /// A losing sibling was queued for background elimination.
    EliminateAsync,
    /// A world ran past its deadline and was aborted.
    Timeout,
    /// A write fault copied a shared page (copy-on-write).
    CowCopy { vpn: u64, bytes: u64 },
    /// A write fault materialised a fresh zero page.
    ZeroFill { vpn: u64 },
    /// `frames` physical frames lost their last reference and were freed
    /// (world drop, adopt replacing the parent's map, or a COW fault racing
    /// a sibling drop). Emitting this keeps `frames_resident` pure event
    /// arithmetic, so JSONL replay reconstructs the gauge exactly.
    FrameFree { frames: u64 },
    /// A commit found its result byte-identical to an already-sealed frame
    /// and re-shared that frame instead of installing the copy — the
    /// content-addressed dedupe path. `bytes` is the page size the hit
    /// avoided materialising. Dedupe commits emit this **instead of**
    /// [`EventKind::CowCopy`]/[`EventKind::ZeroFill`], so the
    /// `frames_resident` gauge stays pure event arithmetic.
    FrameDedup { vpn: u64, bytes: u64 },
    /// The remote-fork replica/base cache evicted `bytes` of pinned base
    /// state for node `node` to stay inside its byte budget.
    NetCacheEvict { node: u64, bytes: u64 },
    /// A world's pages were serialised to a checkpoint image.
    Checkpoint {
        pages: u64,
        bytes: u64,
        duration_ns: u64,
    },
    /// A predicated message matched the receiver's predicate set.
    MsgAccept,
    /// A message was accepted by extending the receiver's predicate set.
    MsgExtend,
    /// A message fell outside the receiver's predicate set.
    MsgIgnore,
    /// A message forced the receiver to split into two worlds.
    MsgSplit,
    /// The accepting copy created by a message-induced split. `world` is
    /// the fresh copy, `parent` the receiver world it was forked from —
    /// the causal edge that keeps split copies out of the orphan-root
    /// bucket in the span tree.
    SplitSpawn,
    /// A world restored on node `node` by a remote fork. `world` is the
    /// restored world, `parent` the origin world whose checkpoint it was
    /// built from — the cross-node causal edge.
    RemoteFork { node: u64 },
    /// A remote fork/commit RPC left for node `node`.
    RpcSend {
        node: u64,
        bytes: u64,
        latency_ns: u64,
    },
    /// An RPC attempt was re-sent after a timeout.
    RpcRetry { node: u64, attempt: u64 },
    /// An RPC attempt timed out after `waited_ns`.
    RpcTimeout { node: u64, waited_ns: u64 },
    /// A request frame left on the wire toward `node` (`bytes` is the
    /// full framed size, header and checksum included).
    NetSend { node: u64, bytes: u64 },
    /// A reply frame arrived from `node`; `rtt_ns` is the request→reply
    /// round trip as the sender measured it.
    NetRecv { node: u64, bytes: u64, rtt_ns: u64 },
    /// A request to `node` was re-sent (attempt `attempt`, 1-based) after
    /// backing off `backoff_ns`.
    NetRetry {
        node: u64,
        attempt: u64,
        backoff_ns: u64,
    },
    /// A request to `node` missed its deadline after `waited_ns`.
    NetTimeout { node: u64, waited_ns: u64 },
    /// `node` refused a request with nack code `code` (a *successful*
    /// transport outcome, so neither retry nor timeout records it) —
    /// admission rejections and limit refusals surface here.
    NetNack { node: u64, code: u64 },
    /// Profiler flush: `samples` sampler hits attributed to this world
    /// at call-site `site`, alternative `alt`, and marker phase `phase`
    /// (see `worlds-prof`) since the previous flush. Each hit stands
    /// for ≈`period_ns` of on-CPU time, so `samples * period_ns`
    /// estimates the on-CPU nanoseconds this tuple burned.
    CpuSamples {
        samples: u64,
        period_ns: u64,
        site: Option<u64>,
        alt: Option<u64>,
        phase: u64,
    },
    /// Profiler flush: worker `worker` was on-CPU for `busy` of `total`
    /// sampler ticks since the previous flush — the per-worker
    /// utilization counter track. `world` is meaningless here (0).
    WorkerUtil { worker: u64, busy: u64, total: u64 },
    /// Watchdog: a worker's marker has not advanced for `waited_ns`,
    /// past its deadline — the thread is wedged in `phase` on this
    /// world (at `site`, when known).
    Stall {
        site: Option<u64>,
        phase: u64,
        waited_ns: u64,
    },
    /// Capture metadata, emitted once at the head of a stream (and at
    /// the head of every flight-recorder dump): how many CPU cores the
    /// recording process could actually use. Replay tooling keys its
    /// 1-CPU caveat banner off this; [`crate::RunStats::absorb`] ignores
    /// it entirely, so old and new captures aggregate identically.
    Meta { effective_cores: u64 },
    /// The human label behind an interned site id, emitted once per
    /// site per registry the first time a labelled block runs (and for
    /// every known site at the head of a flight dump). Site ids are
    /// process-local ([`crate::site_id`]), so without this line a
    /// capture replayed in another process can only render `site#N`;
    /// parsing one teaches the replayer's table the original label.
    /// `world` is meaningless here (0).
    SiteLabel { site: u64, label: String },
}

impl EventKind {
    /// The call-site id this event is attributed to, for the kinds
    /// that carry one.
    pub fn site(&self) -> Option<u64> {
        match self {
            EventKind::GuardVerdict { site, .. }
            | EventKind::Commit { site, .. }
            | EventKind::EliminateSync { site, .. }
            | EventKind::CpuSamples { site, .. }
            | EventKind::Stall { site, .. } => *site,
            EventKind::SiteLabel { site, .. } => Some(*site),
            _ => None,
        }
    }

    /// Stable wire name (the JSONL `ev` field).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Spawn { .. } => "spawn",
            EventKind::GuardVerdict { .. } => "guard",
            EventKind::Rendezvous => "rendezvous",
            EventKind::Commit { .. } => "commit",
            EventKind::EliminateSync { .. } => "elim_sync",
            EventKind::EliminateAsync => "elim_async",
            EventKind::Timeout => "timeout",
            EventKind::CowCopy { .. } => "cow_copy",
            EventKind::ZeroFill { .. } => "zero_fill",
            EventKind::FrameFree { .. } => "frame_free",
            EventKind::FrameDedup { .. } => "frame_dedup",
            EventKind::NetCacheEvict { .. } => "net_cache_evict",
            EventKind::Checkpoint { .. } => "checkpoint",
            EventKind::MsgAccept => "msg_accept",
            EventKind::MsgExtend => "msg_extend",
            EventKind::MsgIgnore => "msg_ignore",
            EventKind::MsgSplit => "msg_split",
            EventKind::SplitSpawn => "split_spawn",
            EventKind::RemoteFork { .. } => "rfork",
            EventKind::RpcSend { .. } => "rpc_send",
            EventKind::RpcRetry { .. } => "rpc_retry",
            EventKind::RpcTimeout { .. } => "rpc_timeout",
            EventKind::NetSend { .. } => "net_send",
            EventKind::NetRecv { .. } => "net_recv",
            EventKind::NetRetry { .. } => "net_retry",
            EventKind::NetTimeout { .. } => "net_timeout",
            EventKind::NetNack { .. } => "net_nack",
            EventKind::CpuSamples { .. } => "cpu",
            EventKind::WorkerUtil { .. } => "wutil",
            EventKind::Stall { .. } => "stall",
            EventKind::Meta { .. } => "meta",
            EventKind::SiteLabel { .. } => "site_label",
        }
    }
}

/// One observed moment: kind + world lineage + both clocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// The world it happened to.
    pub world: u64,
    /// That world's parent, if it has one.
    pub parent: Option<u64>,
    /// Virtual (simulated) time in nanoseconds.
    pub vt_ns: u64,
    /// Wall-clock nanoseconds since the registry's epoch (stamped by the
    /// registry at emit time; 0 until then).
    pub wall_ns: u64,
}

impl Event {
    /// An event with `wall_ns` unset (the registry stamps it).
    pub fn new(kind: EventKind, world: u64, parent: Option<u64>, vt_ns: u64) -> Event {
        Event {
            kind,
            world,
            parent,
            vt_ns,
            wall_ns: 0,
        }
    }

    /// One flat JSON object, no trailing newline.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"ev\":\"");
        s.push_str(self.kind.name());
        s.push_str("\",\"world\":");
        push_u64(&mut s, self.world);
        s.push_str(",\"parent\":");
        match self.parent {
            Some(p) => push_u64(&mut s, p),
            None => s.push_str("null"),
        }
        s.push_str(",\"vt\":");
        push_u64(&mut s, self.vt_ns);
        s.push_str(",\"wt\":");
        push_u64(&mut s, self.wall_ns);
        match &self.kind {
            EventKind::Spawn { alt } => push_field(&mut s, "alt", *alt),
            EventKind::GuardVerdict {
                pass,
                duration_ns,
                alt,
                site,
            } => {
                s.push_str(",\"pass\":");
                s.push_str(if *pass { "true" } else { "false" });
                push_field(&mut s, "dur", *duration_ns);
                if let Some(alt) = alt {
                    push_field(&mut s, "alt", *alt);
                }
                if let Some(site) = site {
                    push_field(&mut s, "site", *site);
                }
            }
            EventKind::Commit {
                dirty_pages,
                overhead_ns,
                site,
            } => {
                push_field(&mut s, "dirty", *dirty_pages);
                push_field(&mut s, "overhead", *overhead_ns);
                if let Some(site) = site {
                    push_field(&mut s, "site", *site);
                }
            }
            EventKind::EliminateSync { overhead_ns, site } => {
                push_field(&mut s, "overhead", *overhead_ns);
                if let Some(site) = site {
                    push_field(&mut s, "site", *site);
                }
            }
            EventKind::CowCopy { vpn, bytes } => {
                push_field(&mut s, "vpn", *vpn);
                push_field(&mut s, "bytes", *bytes);
            }
            EventKind::ZeroFill { vpn } => push_field(&mut s, "vpn", *vpn),
            EventKind::FrameFree { frames } => push_field(&mut s, "frames", *frames),
            EventKind::FrameDedup { vpn, bytes } => {
                push_field(&mut s, "vpn", *vpn);
                push_field(&mut s, "bytes", *bytes);
            }
            EventKind::NetCacheEvict { node, bytes } => {
                push_field(&mut s, "node", *node);
                push_field(&mut s, "bytes", *bytes);
            }
            EventKind::Checkpoint {
                pages,
                bytes,
                duration_ns,
            } => {
                push_field(&mut s, "pages", *pages);
                push_field(&mut s, "bytes", *bytes);
                push_field(&mut s, "dur", *duration_ns);
            }
            EventKind::RemoteFork { node } => push_field(&mut s, "node", *node),
            EventKind::RpcSend {
                node,
                bytes,
                latency_ns,
            } => {
                push_field(&mut s, "node", *node);
                push_field(&mut s, "bytes", *bytes);
                push_field(&mut s, "latency", *latency_ns);
            }
            EventKind::RpcRetry { node, attempt } => {
                push_field(&mut s, "node", *node);
                push_field(&mut s, "attempt", *attempt);
            }
            EventKind::RpcTimeout { node, waited_ns } => {
                push_field(&mut s, "node", *node);
                push_field(&mut s, "waited", *waited_ns);
            }
            EventKind::NetSend { node, bytes } => {
                push_field(&mut s, "node", *node);
                push_field(&mut s, "bytes", *bytes);
            }
            EventKind::NetRecv {
                node,
                bytes,
                rtt_ns,
            } => {
                push_field(&mut s, "node", *node);
                push_field(&mut s, "bytes", *bytes);
                push_field(&mut s, "rtt", *rtt_ns);
            }
            EventKind::NetRetry {
                node,
                attempt,
                backoff_ns,
            } => {
                push_field(&mut s, "node", *node);
                push_field(&mut s, "attempt", *attempt);
                push_field(&mut s, "backoff", *backoff_ns);
            }
            EventKind::NetTimeout { node, waited_ns } => {
                push_field(&mut s, "node", *node);
                push_field(&mut s, "waited", *waited_ns);
            }
            EventKind::NetNack { node, code } => {
                push_field(&mut s, "node", *node);
                push_field(&mut s, "code", *code);
            }
            EventKind::CpuSamples {
                samples,
                period_ns,
                site,
                alt,
                phase,
            } => {
                push_field(&mut s, "samples", *samples);
                push_field(&mut s, "period", *period_ns);
                if let Some(site) = site {
                    push_field(&mut s, "site", *site);
                }
                if let Some(alt) = alt {
                    push_field(&mut s, "alt", *alt);
                }
                push_field(&mut s, "phase", *phase);
            }
            EventKind::WorkerUtil {
                worker,
                busy,
                total,
            } => {
                push_field(&mut s, "worker", *worker);
                push_field(&mut s, "busy", *busy);
                push_field(&mut s, "total", *total);
            }
            EventKind::Stall {
                site,
                phase,
                waited_ns,
            } => {
                if let Some(site) = site {
                    push_field(&mut s, "site", *site);
                }
                push_field(&mut s, "phase", *phase);
                push_field(&mut s, "waited", *waited_ns);
            }
            EventKind::Meta { effective_cores } => push_field(&mut s, "cores", *effective_cores),
            EventKind::SiteLabel { site, label } => {
                push_field(&mut s, "site", *site);
                s.push_str(",\"label\":\"");
                // The flat codec rejects escapes, so characters that
                // would need them are flattened instead of quoted.
                for c in label.chars() {
                    s.push(if c == '"' || c == '\\' || c.is_control() {
                        '_'
                    } else {
                        c
                    });
                }
                s.push('"');
            }
            EventKind::Rendezvous
            | EventKind::EliminateAsync
            | EventKind::Timeout
            | EventKind::MsgAccept
            | EventKind::MsgExtend
            | EventKind::MsgIgnore
            | EventKind::MsgSplit
            | EventKind::SplitSpawn => {}
        }
        s.push('}');
        s
    }

    /// Parse one JSONL line produced by [`Event::to_json`].
    pub fn from_json(line: &str) -> Result<Event, ParseError> {
        let fields = parse_flat_object(line)?;
        let ev = fields.str_field("ev")?;
        let kind = match ev {
            "spawn" => EventKind::Spawn {
                alt: fields.u64_field("alt")?,
            },
            "guard" => EventKind::GuardVerdict {
                pass: fields.bool_field("pass")?,
                // Lenient: captures from before these fields existed
                // parse as zero-duration, unattributed verdicts.
                duration_ns: fields.opt_u64_field("dur")?.unwrap_or(0),
                alt: fields.opt_u64_field("alt")?,
                site: fields.opt_u64_field("site")?,
            },
            "rendezvous" => EventKind::Rendezvous,
            "commit" => EventKind::Commit {
                dirty_pages: fields.u64_field("dirty")?,
                overhead_ns: fields.u64_field("overhead")?,
                site: fields.opt_u64_field("site")?,
            },
            "elim_sync" => EventKind::EliminateSync {
                overhead_ns: fields.u64_field("overhead")?,
                site: fields.opt_u64_field("site")?,
            },
            "elim_async" => EventKind::EliminateAsync,
            "timeout" => EventKind::Timeout,
            "cow_copy" => EventKind::CowCopy {
                vpn: fields.u64_field("vpn")?,
                bytes: fields.u64_field("bytes")?,
            },
            "zero_fill" => EventKind::ZeroFill {
                vpn: fields.u64_field("vpn")?,
            },
            "frame_free" => EventKind::FrameFree {
                frames: fields.u64_field("frames")?,
            },
            "frame_dedup" => EventKind::FrameDedup {
                vpn: fields.u64_field("vpn")?,
                bytes: fields.u64_field("bytes")?,
            },
            "net_cache_evict" => EventKind::NetCacheEvict {
                node: fields.u64_field("node")?,
                bytes: fields.u64_field("bytes")?,
            },
            "checkpoint" => EventKind::Checkpoint {
                pages: fields.u64_field("pages")?,
                bytes: fields.u64_field("bytes")?,
                duration_ns: fields.u64_field("dur")?,
            },
            "msg_accept" => EventKind::MsgAccept,
            "msg_extend" => EventKind::MsgExtend,
            "msg_ignore" => EventKind::MsgIgnore,
            "msg_split" => EventKind::MsgSplit,
            "split_spawn" => EventKind::SplitSpawn,
            "rfork" => EventKind::RemoteFork {
                node: fields.u64_field("node")?,
            },
            "rpc_send" => EventKind::RpcSend {
                node: fields.u64_field("node")?,
                bytes: fields.u64_field("bytes")?,
                latency_ns: fields.u64_field("latency")?,
            },
            "rpc_retry" => EventKind::RpcRetry {
                node: fields.u64_field("node")?,
                attempt: fields.u64_field("attempt")?,
            },
            "rpc_timeout" => EventKind::RpcTimeout {
                node: fields.u64_field("node")?,
                waited_ns: fields.u64_field("waited")?,
            },
            "net_send" => EventKind::NetSend {
                node: fields.u64_field("node")?,
                bytes: fields.u64_field("bytes")?,
            },
            "net_recv" => EventKind::NetRecv {
                node: fields.u64_field("node")?,
                bytes: fields.u64_field("bytes")?,
                rtt_ns: fields.u64_field("rtt")?,
            },
            "net_retry" => EventKind::NetRetry {
                node: fields.u64_field("node")?,
                attempt: fields.u64_field("attempt")?,
                backoff_ns: fields.u64_field("backoff")?,
            },
            "net_timeout" => EventKind::NetTimeout {
                node: fields.u64_field("node")?,
                waited_ns: fields.u64_field("waited")?,
            },
            "net_nack" => EventKind::NetNack {
                node: fields.u64_field("node")?,
                code: fields.u64_field("code")?,
            },
            "cpu" => EventKind::CpuSamples {
                samples: fields.u64_field("samples")?,
                period_ns: fields.u64_field("period")?,
                site: fields.opt_u64_field("site")?,
                alt: fields.opt_u64_field("alt")?,
                phase: fields.opt_u64_field("phase")?.unwrap_or(0),
            },
            "wutil" => EventKind::WorkerUtil {
                worker: fields.u64_field("worker")?,
                busy: fields.u64_field("busy")?,
                total: fields.u64_field("total")?,
            },
            "stall" => EventKind::Stall {
                site: fields.opt_u64_field("site")?,
                phase: fields.opt_u64_field("phase")?.unwrap_or(0),
                waited_ns: fields.u64_field("waited")?,
            },
            "meta" => EventKind::Meta {
                effective_cores: fields.u64_field("cores")?,
            },
            "site_label" => {
                let site = fields.u64_field("site")?;
                let label = fields.str_field("label")?.to_string();
                // Replay side effect, by design: parsing a capture
                // teaches this process the recorder's site names, so
                // every downstream renderer resolves them for free.
                crate::site::learn_site_label(site, &label);
                EventKind::SiteLabel { site, label }
            }
            other => return Err(ParseError(format!("unknown event kind {other:?}"))),
        };
        Ok(Event {
            kind,
            world: fields.u64_field("world")?,
            parent: fields.opt_u64_field("parent")?,
            vt_ns: fields.u64_field("vt")?,
            wall_ns: fields.u64_field("wt")?,
        })
    }
}

/// A malformed JSONL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad event line: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn push_u64(s: &mut String, v: u64) {
    s.push_str(&v.to_string());
}

fn push_field(s: &mut String, name: &str, v: u64) {
    s.push_str(",\"");
    s.push_str(name);
    s.push_str("\":");
    push_u64(s, v);
}

#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Num(u64),
    Bool(bool),
    Str(String),
    Null,
}

struct FlatObject(Vec<(String, JsonValue)>);

impl FlatObject {
    fn get(&self, key: &str) -> Option<&JsonValue> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn str_field(&self, key: &str) -> Result<&str, ParseError> {
        match self.get(key) {
            Some(JsonValue::Str(s)) => Ok(s),
            other => Err(ParseError(format!(
                "field {key:?}: expected string, got {other:?}"
            ))),
        }
    }

    fn u64_field(&self, key: &str) -> Result<u64, ParseError> {
        match self.get(key) {
            Some(JsonValue::Num(n)) => Ok(*n),
            other => Err(ParseError(format!(
                "field {key:?}: expected number, got {other:?}"
            ))),
        }
    }

    fn bool_field(&self, key: &str) -> Result<bool, ParseError> {
        match self.get(key) {
            Some(JsonValue::Bool(b)) => Ok(*b),
            other => Err(ParseError(format!(
                "field {key:?}: expected bool, got {other:?}"
            ))),
        }
    }

    fn opt_u64_field(&self, key: &str) -> Result<Option<u64>, ParseError> {
        match self.get(key) {
            Some(JsonValue::Num(n)) => Ok(Some(*n)),
            Some(JsonValue::Null) | None => Ok(None),
            other => Err(ParseError(format!(
                "field {key:?}: expected number|null, got {other:?}"
            ))),
        }
    }
}

/// Parse `{"k":v,...}` with string/unsigned-number/bool/null values.
/// Strings never contain escapes in this schema (event names only), so
/// escape handling is rejection, not interpretation.
fn parse_flat_object(line: &str) -> Result<FlatObject, ParseError> {
    let s = line.trim();
    let inner = s
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| ParseError("not a JSON object".into()))?;
    let mut fields = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        // Key.
        rest = rest
            .strip_prefix('"')
            .ok_or_else(|| ParseError("expected quoted key".into()))?;
        let kq = rest
            .find('"')
            .ok_or_else(|| ParseError("unterminated key".into()))?;
        let key = rest[..kq].to_string();
        rest = rest[kq + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| ParseError(format!("missing ':' after key {key:?}")))?
            .trim_start();
        // Value.
        let (value, after) = if let Some(r) = rest.strip_prefix('"') {
            let vq = r
                .find('"')
                .ok_or_else(|| ParseError("unterminated string".into()))?;
            let raw = &r[..vq];
            if raw.contains('\\') {
                return Err(ParseError(format!("escapes unsupported in value {raw:?}")));
            }
            (JsonValue::Str(raw.to_string()), &r[vq + 1..])
        } else if let Some(r) = rest.strip_prefix("true") {
            (JsonValue::Bool(true), r)
        } else if let Some(r) = rest.strip_prefix("false") {
            (JsonValue::Bool(false), r)
        } else if let Some(r) = rest.strip_prefix("null") {
            (JsonValue::Null, r)
        } else {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            if end == 0 {
                return Err(ParseError(format!(
                    "bad value near {:?}",
                    &rest[..rest.len().min(12)]
                )));
            }
            let n = rest[..end]
                .parse()
                .map_err(|_| ParseError(format!("bad number {:?}", &rest[..end])))?;
            (JsonValue::Num(n), &rest[end..])
        };
        fields.push((key, value));
        rest = after.trim_start();
        match rest.strip_prefix(',') {
            Some(r) => rest = r.trim_start(),
            None if rest.is_empty() => break,
            None => {
                return Err(ParseError(format!(
                    "expected ',' near {:?}",
                    &rest[..rest.len().min(12)]
                )))
            }
        }
    }
    Ok(FlatObject(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<EventKind> {
        vec![
            EventKind::Spawn { alt: 3 },
            EventKind::GuardVerdict {
                pass: true,
                duration_ns: 250,
                alt: Some(2),
                site: Some(4),
            },
            EventKind::GuardVerdict {
                pass: false,
                duration_ns: 0,
                alt: None,
                site: None,
            },
            EventKind::Rendezvous,
            EventKind::Commit {
                dirty_pages: 7,
                overhead_ns: 1234,
                site: Some(1),
            },
            EventKind::Commit {
                dirty_pages: 7,
                overhead_ns: 1234,
                site: None,
            },
            EventKind::EliminateSync {
                overhead_ns: 88,
                site: Some(0),
            },
            EventKind::EliminateSync {
                overhead_ns: 88,
                site: None,
            },
            EventKind::EliminateAsync,
            EventKind::Timeout,
            EventKind::CowCopy {
                vpn: 42,
                bytes: 4096,
            },
            EventKind::ZeroFill { vpn: 9 },
            EventKind::FrameFree { frames: 3 },
            EventKind::FrameDedup {
                vpn: 42,
                bytes: 4096,
            },
            EventKind::NetCacheEvict {
                node: 2,
                bytes: 131_072,
            },
            EventKind::Checkpoint {
                pages: 5,
                bytes: 20480,
                duration_ns: 999,
            },
            EventKind::MsgAccept,
            EventKind::MsgExtend,
            EventKind::MsgIgnore,
            EventKind::MsgSplit,
            EventKind::SplitSpawn,
            EventKind::RemoteFork { node: 2 },
            EventKind::RpcSend {
                node: 2,
                bytes: 8192,
                latency_ns: 150_000_000,
            },
            EventKind::RpcRetry {
                node: 2,
                attempt: 1,
            },
            EventKind::RpcTimeout {
                node: 2,
                waited_ns: 1_000_000,
            },
            EventKind::NetSend {
                node: 1,
                bytes: 4222,
            },
            EventKind::NetRecv {
                node: 1,
                bytes: 30,
                rtt_ns: 87_000,
            },
            EventKind::NetRetry {
                node: 1,
                attempt: 2,
                backoff_ns: 2_000_000,
            },
            EventKind::NetTimeout {
                node: 1,
                waited_ns: 50_000_000,
            },
            EventKind::CpuSamples {
                samples: 12,
                period_ns: 1_003_009,
                site: Some(2),
                alt: Some(0),
                phase: 2,
            },
            EventKind::CpuSamples {
                samples: 1,
                period_ns: 1_003_009,
                site: None,
                alt: None,
                phase: 1,
            },
            EventKind::WorkerUtil {
                worker: 3,
                busy: 200,
                total: 250,
            },
            EventKind::Stall {
                site: Some(5),
                phase: 2,
                waited_ns: 5_000_000_000,
            },
            EventKind::Stall {
                site: None,
                phase: 6,
                waited_ns: 30_000_000_000,
            },
            EventKind::Meta { effective_cores: 4 },
        ]
    }

    #[test]
    fn every_kind_round_trips() {
        for (i, kind) in all_kinds().into_iter().enumerate() {
            let ev = Event {
                kind,
                world: i as u64 + 1,
                parent: if i % 2 == 0 { Some(i as u64) } else { None },
                vt_ns: 17 * i as u64,
                wall_ns: 1000 + i as u64,
            };
            let line = ev.to_json();
            let back = Event::from_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev, "line {line}");
        }
    }

    #[test]
    fn json_is_flat_single_line() {
        let ev = Event::new(
            EventKind::Commit {
                dirty_pages: 1,
                overhead_ns: 2,
                site: None,
            },
            5,
            Some(1),
            77,
        );
        let line = ev.to_json();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"ev\":\"commit\""), "{line}");
        assert!(line.contains("\"parent\":1"), "{line}");
    }

    #[test]
    fn null_parent_round_trips() {
        let ev = Event::new(EventKind::Rendezvous, 1, None, 0);
        let line = ev.to_json();
        assert!(line.contains("\"parent\":null"), "{line}");
        assert_eq!(Event::from_json(&line).unwrap().parent, None);
    }

    #[test]
    fn malformed_lines_are_rejected_not_panicked() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"ev\":\"spawn\"}",
            "{\"ev\":\"nonsense\",\"world\":1,\"parent\":null,\"vt\":0,\"wt\":0}",
            "{\"ev\":\"spawn\",\"world\":-1,\"parent\":null,\"vt\":0,\"wt\":0,\"alt\":0}",
            "{\"ev\":\"spawn\",\"world\":1,\"parent\":null,\"vt\":0,\"wt\":0,\"alt\":\"x\"}",
            "{\"ev\":\"spawn\",\"world\":1",
        ] {
            assert!(Event::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn guard_without_duration_parses_as_zero() {
        // Captures written before `dur` existed must still replay.
        let line = "{\"ev\":\"guard\",\"world\":4,\"parent\":1,\"vt\":50,\"wt\":0,\"pass\":true}";
        let ev = Event::from_json(line).unwrap();
        assert_eq!(
            ev.kind,
            EventKind::GuardVerdict {
                pass: true,
                duration_ns: 0,
                alt: None,
                site: None,
            }
        );
    }

    #[test]
    fn unlabelled_events_carry_no_site_field() {
        // Site-less emission must stay byte-identical to pre-site
        // captures, so golden fixtures and diff-based tests never move.
        let ev = Event::new(
            EventKind::EliminateSync {
                overhead_ns: 3,
                site: None,
            },
            2,
            Some(1),
            0,
        );
        assert!(!ev.to_json().contains("site"), "{}", ev.to_json());
        let labelled = Event::new(
            EventKind::EliminateSync {
                overhead_ns: 3,
                site: Some(7),
            },
            2,
            Some(1),
            0,
        );
        assert!(
            labelled.to_json().contains("\"site\":7"),
            "{}",
            labelled.to_json()
        );
    }

    #[test]
    fn whitespace_tolerant_parse() {
        let line = "{ \"ev\" : \"zero_fill\" , \"world\" : 3 , \"parent\" : 1 , \"vt\" : 9 , \"wt\" : 0 , \"vpn\" : 4 }";
        let ev = Event::from_json(line).unwrap();
        assert_eq!(ev.kind, EventKind::ZeroFill { vpn: 4 });
        assert_eq!(ev.world, 3);
    }
}
