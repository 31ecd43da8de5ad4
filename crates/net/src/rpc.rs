//! The RPC vocabulary: what cluster nodes say to each other.
//!
//! One request kind per remote-fork lifecycle step (§3.4's rfork /
//! commit-back protocol), plus telemetry and the tenant session family.
//! Predicated IPC (§2.4.1) is simulated, not sent: kind 5, which once
//! carried an `ipc::Message`, is retired and never reused, so a peer that
//! still sends it gets the unknown-kind `BAD_REQUEST` Nack. So is kind 7,
//! which once asked a receiver which page hashes its content index held
//! before a delta rfork: a delta now carries its changed pages inline and
//! asks nothing first. Its answer, reply kind 0x83, is retired with it.
//!
//! | kind | request          | carries                                   |
//! |------|------------------|-------------------------------------------|
//! | 1    | `Ping`           | nothing — liveness + RTT probe            |
//! | 2    | `Rfork`          | a checkpoint image (full or delta)        |
//! | 3    | `CommitBack`     | the winner's dirty pages, applied to base |
//! | 4    | `Discard`        | a losing world to drop                    |
//! | 5    | —                | retired, never reused                     |
//! | 6    | `Telemetry`      | opaque telemetry bytes (rollup delta/query)|
//! | 7    | —                | retired, never reused                     |
//! | 8    | `SessionOpen`    | tenant name + resource limits             |
//! | 9    | `SessionSpawn`   | speculative world: page writes + vt cost  |
//! | 10   | `SessionCommit`  | the session's chosen winner world         |
//! | 11   | `SessionFork`    | lineage-fork a child session              |
//! | 12   | `SessionClose`   | teardown; child close may adopt-to-parent |
//!
//! Replies are `Ack { world }` (0x80), `Nack { code, detail }` (0x81), or
//! `Telemetry { payload }` (0x82) answering a telemetry query; 0x83 is
//! retired and never reused.
//!
//! Serialisation is hand-rolled little-endian — the same std-only
//! discipline as the checkpoint image and the obs JSONL codec. Every
//! variable-length field is length-prefixed, and decoders read through
//! the bounds-checked [`worlds_pagestore::Cursor`] the image decoder
//! uses, so a hostile payload yields `NetError::Protocol`, never a panic.

use crate::error::{NetError, Result};
use crate::frame::{encode_into, encode_with};
use worlds_pagestore::Cursor;

/// Frame-kind bytes for requests.
pub mod kind {
    pub const PING: u8 = 1;
    pub const RFORK: u8 = 2;
    pub const COMMIT_BACK: u8 = 3;
    pub const DISCARD: u8 = 4;
    // 5 is retired (it carried predicated sends) and never reused.
    pub const TELEMETRY: u8 = 6;
    // 7 is retired (it probed a receiver's content index) and never reused.
    pub const SESSION_OPEN: u8 = 8;
    pub const SESSION_SPAWN: u8 = 9;
    pub const SESSION_COMMIT: u8 = 10;
    pub const SESSION_FORK: u8 = 11;
    pub const SESSION_CLOSE: u8 = 12;
    pub const ACK: u8 = 0x80;
    pub const NACK: u8 = 0x81;
    pub const TELEMETRY_REPLY: u8 = 0x82;
    // 0x83 is retired (it answered kind 7) and never reused.
}

/// Nack codes — coarse, machine-checkable failure classes.
pub mod nack {
    /// Checkpoint image rejected (bad magic/version/size, missing base).
    pub const BAD_IMAGE: u32 = 1;
    /// Target world does not exist on this node.
    pub const NO_SUCH_WORLD: u32 = 2;
    /// Request payload failed to parse.
    pub const BAD_REQUEST: u32 = 3;
    /// The store refused the operation (I/O level failure).
    pub const STORE: u32 = 4;
    /// The server is saturated (bounded admission queue full, or the
    /// reaper/recycler has fallen behind) — back off and retry later.
    pub const OVERLOADED: u32 = 5;
    /// The session's own `ResourceLimits` would be exceeded; retrying
    /// without releasing resources is pointless.
    pub const LIMIT_EXCEEDED: u32 = 6;
    /// The named session does not exist (never opened, or already
    /// closed/adopted by its parent).
    pub const UNKNOWN_SESSION: u32 = 7;

    /// Stable human name for a nack code; client errors and the
    /// `worlds-report --net` per-reason table both render through this
    /// so a code never surfaces as a bare number.
    pub fn reason(code: u32) -> &'static str {
        match code {
            BAD_IMAGE => "bad_image",
            NO_SUCH_WORLD => "no_such_world",
            BAD_REQUEST => "bad_request",
            STORE => "store",
            OVERLOADED => "overloaded",
            LIMIT_EXCEEDED => "limit_exceeded",
            UNKNOWN_SESSION => "unknown_session",
            _ => "unknown",
        }
    }
}

/// A client-to-server request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; the reply's RTT feeds the `net_rtt` histogram.
    Ping,
    /// Restore this checkpoint image as a new world on the receiving
    /// node — the state-shipping half of `rfork()`.
    Rfork { image: Vec<u8> },
    /// Apply the winner's dirty pages to world `base` on the receiving
    /// node — the commit-back that makes speculative remote work real.
    /// Retransmits reuse the correlation id, and the server's reply
    /// ledger guarantees the pages are applied at most once.
    CommitBack {
        base: u64,
        pages: Vec<(u64, Vec<u8>)>,
    },
    /// Drop a losing speculative world on the receiving node.
    Discard { world: u64 },
    /// Telemetry-plane traffic (rollup deltas pushed node→collector,
    /// table queries from `worlds-top`). The payload is opaque at this
    /// layer — `worlds-telemetry` owns the schema — so the wire protocol
    /// stays ignorant of metric shapes, exactly as it is of checkpoint
    /// internals. Servers without a telemetry handler Nack it.
    Telemetry { payload: Vec<u8> },
    /// Admit a named tenant session with its resource limits (0 means
    /// "unlimited" for each axis). Ack carries the new session id.
    /// Servers without a session handler Nack with `BAD_REQUEST`.
    SessionOpen {
        name: String,
        max_live_worlds: u64,
        max_resident_frames: u64,
        vt_budget_ns: u64,
    },
    /// Fork a speculative world under the session root, apply `writes`
    /// (one page image per vpn, written at offset 0) and charge
    /// `spin_ns` of exploration work against the session's vt budget.
    /// Ack carries the spawned world id.
    SessionSpawn {
        session: u64,
        spin_ns: u64,
        writes: Vec<(u64, Vec<u8>)>,
    },
    /// Commit one of the session's speculative worlds into the session
    /// root and discard its siblings — the exactly-one-commit step.
    SessionCommit { session: u64, world: u64 },
    /// Lineage-fork a child session whose root is a fork of the
    /// parent's root; the parent later adopts or discards it wholesale
    /// via `SessionClose`. Ack carries the child session id.
    SessionFork { session: u64, name: String },
    /// Tear a session down, releasing every world and frame it owns.
    /// For a child session, `adopt` commits its root back into the
    /// parent's root first (adopt-wholesale); otherwise everything is
    /// discarded.
    SessionClose { session: u64, adopt: bool },
}

/// A server-to-client reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Success. `world` is the operation's subject: the restored world
    /// for `Rfork`, the base for `CommitBack`, the dropped world for
    /// `Discard`, 0 for `Ping`.
    Ack { world: u64 },
    /// Failure the server diagnosed; see [`nack`] for codes.
    Nack { code: u32, detail: String },
    /// Answer to a [`Request::Telemetry`] query — an opaque payload the
    /// telemetry layer decodes (e.g. the collector's cluster table).
    Telemetry { payload: Vec<u8> },
}

impl Request {
    /// The frame-kind byte announcing this request.
    pub fn kind(&self) -> u8 {
        match self {
            Request::Ping => kind::PING,
            Request::Rfork { .. } => kind::RFORK,
            Request::CommitBack { .. } => kind::COMMIT_BACK,
            Request::Discard { .. } => kind::DISCARD,
            Request::Telemetry { .. } => kind::TELEMETRY,
            Request::SessionOpen { .. } => kind::SESSION_OPEN,
            Request::SessionSpawn { .. } => kind::SESSION_SPAWN,
            Request::SessionCommit { .. } => kind::SESSION_COMMIT,
            Request::SessionFork { .. } => kind::SESSION_FORK,
            Request::SessionClose { .. } => kind::SESSION_CLOSE,
        }
    }

    /// Serialise as one complete wire frame under correlation id `corr`:
    /// header, payload and CRC written once, straight from the borrowed
    /// request. A [`crate::Conn`] sends the same bytes gathered from the
    /// request's payload.
    pub fn encode_frame(&self, corr: u64) -> Vec<u8> {
        encode_with(self.kind(), corr, self.payload_len(), |out| {
            self.encode_into(out)
        })
    }

    /// Serialise the payload (the frame codec adds header and CRC).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload_len());
        self.encode_into(&mut out);
        out
    }

    /// Exactly how many bytes [`Request::encode_into`] appends, so the
    /// frame buffer is reserved once and a 1 MiB image never regrows it.
    fn payload_len(&self) -> usize {
        match self {
            Request::Ping => 0,
            Request::Rfork { image } => image.len(),
            Request::CommitBack { pages, .. } => 8 + pages_len(pages),
            Request::Discard { .. } => 8,
            Request::Telemetry { payload } => payload.len(),
            Request::SessionOpen { name, .. } => 28 + name.len(),
            Request::SessionSpawn { writes, .. } => 16 + pages_len(writes),
            Request::SessionCommit { .. } => 16,
            Request::SessionFork { name, .. } => 12 + name.len(),
            Request::SessionClose { .. } => 9,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => {}
            Request::Rfork { image } => out.extend_from_slice(image),
            Request::CommitBack { base, pages } => put_commit_back(out, *base, pages),
            Request::Discard { world } => out.extend_from_slice(&world.to_le_bytes()),
            Request::Telemetry { payload } => out.extend_from_slice(payload),
            Request::SessionOpen {
                name,
                max_live_worlds,
                max_resident_frames,
                vt_budget_ns,
            } => {
                out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
                out.extend_from_slice(&max_live_worlds.to_le_bytes());
                out.extend_from_slice(&max_resident_frames.to_le_bytes());
                out.extend_from_slice(&vt_budget_ns.to_le_bytes());
            }
            Request::SessionSpawn {
                session,
                spin_ns,
                writes,
            } => {
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&spin_ns.to_le_bytes());
                put_pages(out, writes);
            }
            Request::SessionCommit { session, world } => {
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&world.to_le_bytes());
            }
            Request::SessionFork { session, name } => {
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
            }
            Request::SessionClose { session, adopt } => {
                out.extend_from_slice(&session.to_le_bytes());
                out.push(u8::from(*adopt));
            }
        }
    }

    /// Parse a request from its frame-kind byte and payload.
    pub fn decode(kind_byte: u8, payload: &[u8]) -> Result<Request> {
        Request::parse(kind_byte, payload).map_err(NetError::Protocol)
    }

    /// [`Request::decode`] for a payload the caller owns.
    pub fn decode_owned(kind_byte: u8, payload: Vec<u8>) -> Result<Request> {
        Request::decode(kind_byte, &payload)
    }

    fn parse(kind_byte: u8, payload: &[u8]) -> std::result::Result<Request, String> {
        let mut r = Cursor::new(payload);
        let req = match kind_byte {
            kind::PING => Request::Ping,
            kind::RFORK => Request::Rfork {
                image: payload.to_vec(),
            },
            kind::COMMIT_BACK => {
                let base = r.u64()?;
                let pages = get_pages(&mut r)?;
                r.finish()?;
                Request::CommitBack { base, pages }
            }
            kind::DISCARD => {
                let world = r.u64()?;
                r.finish()?;
                Request::Discard { world }
            }
            kind::TELEMETRY => Request::Telemetry {
                payload: payload.to_vec(),
            },
            kind::SESSION_OPEN => {
                let nlen = r.u32()? as usize;
                let name = String::from_utf8_lossy(r.take(nlen)?).into_owned();
                let max_live_worlds = r.u64()?;
                let max_resident_frames = r.u64()?;
                let vt_budget_ns = r.u64()?;
                r.finish()?;
                Request::SessionOpen {
                    name,
                    max_live_worlds,
                    max_resident_frames,
                    vt_budget_ns,
                }
            }
            kind::SESSION_SPAWN => {
                let session = r.u64()?;
                let spin_ns = r.u64()?;
                let writes = get_pages(&mut r)?;
                r.finish()?;
                Request::SessionSpawn {
                    session,
                    spin_ns,
                    writes,
                }
            }
            kind::SESSION_COMMIT => {
                let session = r.u64()?;
                let world = r.u64()?;
                r.finish()?;
                Request::SessionCommit { session, world }
            }
            kind::SESSION_FORK => {
                let session = r.u64()?;
                let nlen = r.u32()? as usize;
                let name = String::from_utf8_lossy(r.take(nlen)?).into_owned();
                r.finish()?;
                Request::SessionFork { session, name }
            }
            kind::SESSION_CLOSE => {
                let session = r.u64()?;
                let adopt = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(format!("bad adopt flag {other}"));
                    }
                };
                r.finish()?;
                Request::SessionClose { session, adopt }
            }
            other => return Err(format!("unknown request kind {other}")),
        };
        Ok(req)
    }
}

impl Reply {
    /// The frame-kind byte announcing this reply.
    pub fn kind(&self) -> u8 {
        match self {
            Reply::Ack { .. } => kind::ACK,
            Reply::Nack { .. } => kind::NACK,
            Reply::Telemetry { .. } => kind::TELEMETRY_REPLY,
        }
    }

    /// Serialise as one complete wire frame echoing the request's
    /// correlation id; see [`Request::encode_frame`].
    pub fn encode_frame(&self, corr: u64) -> Vec<u8> {
        encode_with(self.kind(), corr, self.payload_len(), |out| {
            self.encode_into(out)
        })
    }

    /// [`Reply::encode_frame`] into a buffer the caller keeps.
    pub fn encode_frame_into(&self, corr: u64, out: &mut Vec<u8>) {
        encode_into(self.kind(), corr, self.payload_len(), out, |out| {
            self.encode_into(out)
        })
    }

    /// Serialise the payload (the frame codec adds header and CRC).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload_len());
        self.encode_into(&mut out);
        out
    }

    fn payload_len(&self) -> usize {
        match self {
            Reply::Ack { .. } => 8,
            Reply::Nack { detail, .. } => 8 + detail.len(),
            Reply::Telemetry { payload } => payload.len(),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Reply::Ack { world } => out.extend_from_slice(&world.to_le_bytes()),
            Reply::Nack { code, detail } => {
                out.extend_from_slice(&code.to_le_bytes());
                out.extend_from_slice(&(detail.len() as u32).to_le_bytes());
                out.extend_from_slice(detail.as_bytes());
            }
            Reply::Telemetry { payload } => out.extend_from_slice(payload),
        }
    }

    /// Parse a reply from its frame-kind byte and payload.
    pub fn decode(kind_byte: u8, payload: &[u8]) -> Result<Reply> {
        Reply::decode_owned(kind_byte, payload.to_vec())
    }

    /// [`Reply::decode`] for a payload the caller is done with; a
    /// `Telemetry` reply keeps the buffer instead of copying it.
    pub fn decode_owned(kind_byte: u8, payload: Vec<u8>) -> Result<Reply> {
        Reply::parse(kind_byte, payload).map_err(NetError::Protocol)
    }

    fn parse(kind_byte: u8, payload: Vec<u8>) -> std::result::Result<Reply, String> {
        let mut r = Cursor::new(&payload);
        let reply = match kind_byte {
            kind::ACK => {
                let world = r.u64()?;
                r.finish()?;
                Reply::Ack { world }
            }
            kind::NACK => {
                let code = r.u32()?;
                let len = r.u32()? as usize;
                let detail = String::from_utf8_lossy(r.take(len)?).into_owned();
                r.finish()?;
                Reply::Nack { code, detail }
            }
            kind::TELEMETRY_REPLY => Reply::Telemetry { payload },
            other => return Err(format!("unknown reply kind {other}")),
        };
        Ok(reply)
    }
}

/// The `(vpn, bytes)` list `CommitBack` and `SessionSpawn` share: a count,
/// then each page as vpn, length, bytes.
fn pages_len(pages: &[(u64, Vec<u8>)]) -> usize {
    4 + pages.iter().map(|(_, p)| 12 + p.len()).sum::<usize>()
}

fn put_pages(out: &mut Vec<u8>, pages: &[(u64, Vec<u8>)]) {
    out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
    for (vpn, bytes) in pages {
        out.extend_from_slice(&vpn.to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    }
}

/// Parse what [`put_pages`] wrote. The count is the sender's claim, so it
/// bounds the reservation only up to a point.
fn get_pages(r: &mut Cursor<'_>) -> std::result::Result<Vec<(u64, Vec<u8>)>, String> {
    let count = r.u32()? as usize;
    let mut pages = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let vpn = r.u64()?;
        let len = r.u32()? as usize;
        pages.push((vpn, r.take(len)?.to_vec()));
    }
    Ok(pages)
}

fn put_commit_back(out: &mut Vec<u8>, base: u64, pages: &[(u64, Vec<u8>)]) {
    out.extend_from_slice(&base.to_le_bytes());
    put_pages(out, pages);
}

/// The payload of a `CommitBack` of `pages` into `base`, from pages the
/// caller keeps — what [`crate::Conn::call_commit_back`] sends.
pub(crate) fn commit_back_payload(base: u64, pages: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + pages_len(pages));
    put_commit_back(&mut out, base, pages);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let payload = req.encode_payload();
        let back = Request::decode(req.kind(), &payload).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn all_requests_round_trip() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Rfork {
            image: vec![1, 2, 3, 4],
        });
        round_trip_request(Request::CommitBack {
            base: 42,
            pages: vec![(0, vec![9; 32]), (17, vec![0; 32]), (3, Vec::new())],
        });
        round_trip_request(Request::CommitBack {
            base: 0,
            pages: Vec::new(),
        });
        round_trip_request(Request::Discard { world: u64::MAX });
        round_trip_request(Request::Telemetry {
            payload: vec![0, 1, 2, 0xFF],
        });
        round_trip_request(Request::Telemetry {
            payload: Vec::new(),
        });
        round_trip_request(Request::SessionOpen {
            name: "tenant-a".into(),
            max_live_worlds: 8,
            max_resident_frames: 1024,
            vt_budget_ns: u64::MAX,
        });
        round_trip_request(Request::SessionOpen {
            name: String::new(),
            max_live_worlds: 0,
            max_resident_frames: 0,
            vt_budget_ns: 0,
        });
        round_trip_request(Request::SessionSpawn {
            session: 7,
            spin_ns: 1_000,
            writes: vec![(0, vec![3; 64]), (9, Vec::new())],
        });
        round_trip_request(Request::SessionSpawn {
            session: 0,
            spin_ns: 0,
            writes: Vec::new(),
        });
        round_trip_request(Request::SessionCommit {
            session: 7,
            world: 42,
        });
        round_trip_request(Request::SessionFork {
            session: 7,
            name: "child".into(),
        });
        round_trip_request(Request::SessionClose {
            session: 7,
            adopt: true,
        });
        round_trip_request(Request::SessionClose {
            session: 7,
            adopt: false,
        });
    }

    #[test]
    fn session_payloads_reject_truncation_and_garbage() {
        let open = Request::SessionOpen {
            name: "t".into(),
            max_live_worlds: 1,
            max_resident_frames: 2,
            vt_budget_ns: 3,
        }
        .encode_payload();
        for n in 0..open.len() {
            assert!(Request::decode(kind::SESSION_OPEN, &open[..n]).is_err());
        }
        let spawn = Request::SessionSpawn {
            session: 1,
            spin_ns: 2,
            writes: vec![(3, vec![4; 8])],
        }
        .encode_payload();
        for n in 0..spawn.len() {
            assert!(Request::decode(kind::SESSION_SPAWN, &spawn[..n]).is_err());
        }
        // A bad adopt flag is a protocol error, not a silent bool.
        let mut close = Request::SessionClose {
            session: 1,
            adopt: false,
        }
        .encode_payload();
        *close.last_mut().unwrap() = 9;
        assert!(Request::decode(kind::SESSION_CLOSE, &close).is_err());
        // Trailing bytes are rejected on fixed-size session frames.
        let mut commit = Request::SessionCommit {
            session: 1,
            world: 2,
        }
        .encode_payload();
        commit.push(0);
        assert!(Request::decode(kind::SESSION_COMMIT, &commit).is_err());
    }

    #[test]
    fn nack_reasons_have_stable_names() {
        assert_eq!(nack::reason(nack::OVERLOADED), "overloaded");
        assert_eq!(nack::reason(nack::LIMIT_EXCEEDED), "limit_exceeded");
        assert_eq!(nack::reason(nack::UNKNOWN_SESSION), "unknown_session");
        assert_eq!(nack::reason(nack::BAD_REQUEST), "bad_request");
        assert_eq!(nack::reason(999), "unknown");
    }

    #[test]
    fn replies_round_trip() {
        for reply in [
            Reply::Ack { world: 123 },
            Reply::Nack {
                code: nack::BAD_IMAGE,
                detail: "no such base".into(),
            },
            Reply::Nack {
                code: 0,
                detail: String::new(),
            },
            Reply::Telemetry {
                payload: vec![9, 8, 7],
            },
        ] {
            let payload = reply.encode_payload();
            assert_eq!(Reply::decode(reply.kind(), &payload).unwrap(), reply);
        }
    }

    #[test]
    fn malformed_payloads_error_not_panic() {
        // Truncated at every prefix of a realistic CommitBack.
        let req = Request::CommitBack {
            base: 1,
            pages: vec![(4, vec![7; 16])],
        };
        let payload = req.encode_payload();
        for n in 0..payload.len() {
            assert!(Request::decode(kind::COMMIT_BACK, &payload[..n]).is_err());
        }
        // A count field promising more pages than the payload holds.
        let mut lying = payload.clone();
        lying[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(kind::COMMIT_BACK, &lying).is_err());
        // Unknown kinds, the retired ones among them: a request of kind 5
        // or 7 and a reply of kind 0x83 parse as nothing at all.
        assert!(Request::decode(0xEE, &[]).is_err());
        assert!(Reply::decode(0xEE, &[]).is_err());
        for retired in [5, 7] {
            assert!(Request::decode(retired, &[]).is_err(), "kind {retired}");
            assert!(
                Request::decode(retired, &[0; 12]).is_err(),
                "kind {retired}"
            );
        }
        assert!(Reply::decode(0x83, &[0; 5]).is_err());
        // Trailing garbage is rejected, not ignored.
        let mut long = Request::Discard { world: 3 }.encode_payload();
        long.push(0);
        assert!(Request::decode(kind::DISCARD, &long).is_err());
    }
}
