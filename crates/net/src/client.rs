//! The client half: per-request deadlines, bounded retries with
//! exponential backoff and deterministic jitter, correlation-id reuse so
//! retries are idempotent end to end, and pipelined bursts.
//!
//! A [`Conn`] is one logical link to one node. Failures below the RPC
//! layer — timeout, reset, truncated frame — drop the TCP stream
//! entirely (so a late reply from a dead attempt can never desync the
//! next request) and retransmit **the same frame, same corr-id** on a
//! fresh connection after backing off. The server's reply ledger turns
//! that retransmit into a replay of the recorded reply, which is what
//! makes a retried `CommitBack` apply exactly once.
//!
//! ## Bursts
//!
//! [`Conn::call_many`] writes every frame of a burst before it reads a
//! reply, then matches replies to requests by correlation id: a burst
//! of `n` requests waits one round trip, not `n`. [`Conn::call`] is the
//! burst of one, so there is one send/retry loop. Two rules make a
//! burst safe:
//!
//! * **Small replies only.** A burst carries ack-style requests, whose
//!   replies are a few bytes. The node writes each reply while the
//!   client may still be writing; the socket buffers hold them all, so
//!   neither side can block the other.
//! * **Resend only what is unanswered.** A reply fills its request's
//!   slot as soon as it is read. After a failed attempt, the retry
//!   resends only the frames still without a reply, each under its
//!   original corr-id; one the node applied but whose reply was lost
//!   comes back from its reply ledger, so every frame of a burst
//!   applies at most once, however the attempts were cut.
//!
//! Backoff jitter is seeded ([`RetryPolicy::seed`]) and derived from
//! `(seed, corr, attempt)`, so a given schedule of faults produces the
//! same retry timing run after run — fault tests replay instead of
//! flaking.

use crate::error::{NetError, Result};
use crate::fault::splitmix64;
use crate::frame::read_frame;
use crate::rpc::{commit_back_frame, rfork_frame, Reply, Request};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use worlds_obs::{Event, EventKind, Registry};

/// Correlation ids are a process-global counter offset by a per-process
/// random base, so two `Conn`s — in this process or another one talking
/// to the same server — can never collide in its reply ledger. (A
/// counter alone restarts at 1 in every process: a fresh `worlds-top`
/// would replay the reply a long-lived tenant's first request recorded.)
static NEXT_CORR: AtomicU64 = AtomicU64::new(1);

fn corr_base() -> u64 {
    static BASE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *BASE.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        splitmix64(nanos ^ ((std::process::id() as u64) << 32))
    })
}

fn next_corr() -> u64 {
    corr_base().wrapping_add(NEXT_CORR.fetch_add(1, Ordering::Relaxed))
}

/// How hard a client tries before giving up on one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try + retries). At least 1.
    pub max_attempts: u32,
    /// Backoff before retry n is `base_backoff * 2^(n-1)` plus jitter,
    /// capped at `max_backoff`.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_backoff: Duration,
    /// Per-attempt deadline covering connect, send and reply.
    pub deadline: Duration,
    /// Seed for deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(200),
            deadline: Duration::from_millis(250),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Tight timings for loopback tests: same structure, faster failure.
    pub fn fast() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
            deadline: Duration::from_millis(150),
            seed: 0,
        }
    }

    /// The jittered sleep before retry `attempt` (1-based) of `corr`.
    pub fn backoff(&self, corr: u64, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.max_backoff);
        let half = exp.as_nanos() as u64 / 2;
        if half == 0 {
            return exp;
        }
        let jitter = splitmix64(self.seed ^ corr.rotate_left(17) ^ attempt as u64) % half;
        exp - Duration::from_nanos(jitter)
    }
}

/// One logical connection to one node's [`crate::NetNode`].
pub struct Conn {
    node: u64,
    addr: SocketAddr,
    policy: RetryPolicy,
    obs: Registry,
    /// The live stream behind the connection's one read buffer, so a
    /// reply that fits it costs a single `read` system call.
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    /// A lazily-connected link to the node at `addr`. `node` is the
    /// cluster id used in observability events.
    pub fn new(node: u64, addr: SocketAddr, policy: RetryPolicy, obs: Registry) -> Conn {
        Conn {
            node,
            addr,
            policy,
            obs,
            stream: None,
        }
    }

    /// The node this connection talks to.
    pub fn node(&self) -> u64 {
        self.node
    }

    /// Issue `req`, retrying per the policy: a burst of one. Returns the
    /// server's reply — including `Nack`, which is a *successful*
    /// transport outcome and is never retried (asking again with the
    /// same corr-id would just replay the same answer).
    pub fn call(&mut self, req: &Request) -> Result<Reply> {
        let corr = next_corr();
        only(self.deliver(&[(corr, req.encode_frame(corr))]))
    }

    /// Issue `req` and unwrap the `Ack`, mapping `Nack` to an error.
    pub fn call_ack(&mut self, req: &Request) -> Result<u64> {
        ack(self.call(req)?)
    }

    /// Issue `reqs` as one pipelined burst and unwrap each `Ack`: every
    /// frame is written before any reply is read, and slot `i` of the
    /// answer is request `i`'s outcome (`Nack` mapped to an error), in
    /// request order whatever order the replies arrived in.
    ///
    /// A burst carries **ack-style requests only** (`Rfork`,
    /// `CommitBack`, `Discard`, `Ping`, the session verbs): their
    /// replies are a few bytes, so the socket buffers hold every reply
    /// of a burst while the client is still writing, and a client that
    /// writes the whole burst before reading cannot deadlock against a
    /// node blocked writing replies. A request whose reply can be large
    /// (`Telemetry`) goes through [`Conn::call`].
    pub fn call_many(&mut self, reqs: &[Request]) -> Vec<Result<u64>> {
        let frames: Vec<_> = reqs
            .iter()
            .map(|req| {
                let corr = next_corr();
                (corr, req.encode_frame(corr))
            })
            .collect();
        acks(self.deliver(&frames))
    }

    /// [`Request::Rfork`] from an image the caller keeps: the bytes are
    /// framed straight from the borrowed slice.
    pub fn call_rfork(&mut self, image: &[u8]) -> Result<u64> {
        self.call_rforks(&[image])
            .pop()
            .expect("one reply per frame")
    }

    /// One [`Request::Rfork`] per image, as one burst ([`Conn::call_many`]);
    /// slot `i` is the world restored from `images[i]`.
    pub fn call_rforks(&mut self, images: &[&[u8]]) -> Vec<Result<u64>> {
        let frames: Vec<_> = images
            .iter()
            .map(|image| {
                let corr = next_corr();
                (corr, rfork_frame(corr, image))
            })
            .collect();
        acks(self.deliver(&frames))
    }

    /// [`Request::CommitBack`] from pages the caller keeps.
    pub fn call_commit_back(&mut self, base: u64, pages: &[(u64, Vec<u8>)]) -> Result<u64> {
        let corr = next_corr();
        ack(only(
            self.deliver(&[(corr, commit_back_frame(corr, base, pages))]),
        )?)
    }

    /// Issue a [`Request::HashProbe`] and unwrap the presence bitmap.
    /// The reply must answer every probed hash, or the server is
    /// confused and the caller should fall back to shipping bytes.
    pub fn call_present(&mut self, hashes: Vec<u64>) -> Result<Vec<bool>> {
        let want = hashes.len();
        match self.call(&Request::HashProbe { hashes })? {
            Reply::Present { present } if present.len() == want => Ok(present),
            Reply::Present { present } => Err(NetError::Protocol(format!(
                "hash probe answered {} of {want} hashes",
                present.len()
            ))),
            Reply::Nack { code, detail } => Err(NetError::Nack { code, detail }),
            _ => Err(NetError::Protocol(
                "unexpected reply to a hash probe".into(),
            )),
        }
    }

    /// The one send/retry loop: deliver already-framed `(corr, frame)`
    /// requests as a burst, and after a failed attempt resend only the
    /// frames still unanswered, each under its own corr-id. Slot `i` of
    /// the answer is `frames[i]`'s reply, or the error that ended its
    /// delivery.
    fn deliver(&mut self, frames: &[(u64, Vec<u8>)]) -> Vec<Result<Reply>> {
        let mut replies: Vec<Option<Result<Reply>>> = frames.iter().map(|_| None).collect();
        let attempts = self.policy.max_attempts.max(1);
        let mut last = None;
        for attempt in 1..=attempts {
            if attempt > 1 {
                // Jitter keys on the first unanswered frame, so a burst
                // of one backs off exactly as a single request did.
                let (corr, _) = frames[replies
                    .iter()
                    .position(Option::is_none)
                    .expect("unanswered")];
                let backoff = self.policy.backoff(corr, attempt - 1);
                self.obs.emit(|| {
                    Event::new(
                        EventKind::NetRetry {
                            node: self.node,
                            attempt: attempt as u64 - 1,
                            backoff_ns: backoff.as_nanos() as u64,
                        },
                        0,
                        None,
                        0,
                    )
                });
                std::thread::sleep(backoff);
            }
            match self.attempt(frames, &mut replies) {
                Ok(()) => {
                    last = None;
                    break;
                }
                Err(e) => {
                    // A failed attempt poisons the stream: a late reply
                    // arriving on it would desync the next request.
                    self.stream = None;
                    let fatal = !e.is_retryable();
                    last = Some(e);
                    if fatal {
                        break;
                    }
                }
            }
        }
        let mut failed = last.map(|e| {
            if e.is_retryable() {
                NetError::RetriesExhausted {
                    attempts,
                    last: Box::new(e),
                }
            } else {
                e
            }
        });
        // Every unanswered frame gets the error; the last one gets the
        // original, so a burst of one loses nothing.
        let mut unanswered = replies.iter().filter(|r| r.is_none()).count();
        replies
            .into_iter()
            .map(|reply| {
                reply.unwrap_or_else(|| {
                    unanswered -= 1;
                    let e = match unanswered {
                        0 => failed.take(),
                        _ => failed.as_ref().map(duplicate),
                    };
                    Err(e.expect("an unanswered frame failed"))
                })
            })
            .collect()
    }

    /// One attempt under one deadline: connect if needed, write every
    /// unanswered frame, then read until each has its reply. A reply
    /// fills its frame's slot the moment it is read, so an attempt that
    /// fails half-way keeps what it already learned.
    fn attempt(
        &mut self,
        frames: &[(u64, Vec<u8>)],
        replies: &mut [Option<Result<Reply>>],
    ) -> Result<()> {
        let started = Instant::now();
        let (obs, node) = (self.obs.clone(), self.node);
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.policy.deadline)?;
            stream.set_nodelay(true)?;
            // The deadline never changes for the life of the stream.
            stream.set_read_timeout(Some(self.policy.deadline))?;
            stream.set_write_timeout(Some(self.policy.deadline))?;
            self.stream = Some(BufReader::new(stream));
        }
        let stream = self.stream.as_mut().expect("just connected");

        let result = (|| -> Result<()> {
            let mut unanswered = 0;
            for ((_, wire), _) in frames.iter().zip(&*replies).filter(|(_, r)| r.is_none()) {
                stream.get_mut().write_all(wire)?;
                unanswered += 1;
                obs.emit(|| {
                    Event::new(
                        EventKind::NetSend {
                            node,
                            bytes: wire.len() as u64,
                        },
                        0,
                        None,
                        0,
                    )
                });
            }
            while unanswered > 0 {
                let (reply, size) = read_frame(stream)?;
                // A reply to a request this Conn already gave up on (the
                // ledger replayed it harmlessly) matches no open slot.
                // Keep waiting.
                let Some(slot) = frames
                    .iter()
                    .zip(&*replies)
                    .position(|((corr, _), r)| *corr == reply.corr && r.is_none())
                else {
                    continue;
                };
                obs.emit(|| {
                    Event::new(
                        EventKind::NetRecv {
                            node,
                            bytes: size as u64,
                            rtt_ns: started.elapsed().as_nanos() as u64,
                        },
                        0,
                        None,
                        0,
                    )
                });
                let reply = Reply::decode_owned(reply.kind, reply.payload)?;
                if let Reply::Nack { code, .. } = &reply {
                    // A refusal is a transport success, so no retry path
                    // records it — emit here so `worlds-report --net` can
                    // count refusals per reason.
                    let code = *code;
                    obs.emit(|| {
                        Event::new(
                            EventKind::NetNack {
                                node,
                                code: code as u64,
                            },
                            0,
                            None,
                            0,
                        )
                    });
                }
                replies[slot] = Some(Ok(reply));
                unanswered -= 1;
            }
            Ok(())
        })();
        if let Err(e) = &result {
            if e.is_timeout() {
                obs.emit(|| {
                    Event::new(
                        EventKind::NetTimeout {
                            node,
                            waited_ns: started.elapsed().as_nanos() as u64,
                        },
                        0,
                        None,
                        0,
                    )
                });
            }
        }
        result
    }
}

/// The one reply of a burst of one.
fn only(mut replies: Vec<Result<Reply>>) -> Result<Reply> {
    replies.pop().expect("one reply per frame")
}

/// Unwrap every reply of a burst as an ack.
fn acks(replies: Vec<Result<Reply>>) -> Vec<Result<u64>> {
    replies.into_iter().map(|r| r.and_then(ack)).collect()
}

/// A copy of the error that ended a burst, for each unanswered frame but
/// the last. `NetError` holds an `io::Error`, which is not `Clone`; its
/// kind and message are what callers read.
fn duplicate(e: &NetError) -> NetError {
    match e {
        NetError::Io(io) => NetError::Io(std::io::Error::new(io.kind(), io.to_string())),
        NetError::BadMagic => NetError::BadMagic,
        NetError::BadVersion(v) => NetError::BadVersion(*v),
        NetError::Truncated => NetError::Truncated,
        NetError::BadCrc => NetError::BadCrc,
        NetError::TooLarge(n) => NetError::TooLarge(*n),
        NetError::Protocol(msg) => NetError::Protocol(msg.clone()),
        NetError::Nack { code, detail } => NetError::Nack {
            code: *code,
            detail: detail.clone(),
        },
        NetError::RetriesExhausted { attempts, last } => NetError::RetriesExhausted {
            attempts: *attempts,
            last: Box::new(duplicate(last)),
        },
    }
}

/// Unwrap an ack-style reply, mapping `Nack` to an error.
fn ack(reply: Reply) -> Result<u64> {
    match reply {
        Reply::Ack { world } => Ok(world),
        Reply::Nack { code, detail } => Err(NetError::Nack { code, detail }),
        Reply::Telemetry { .. } | Reply::Present { .. } => Err(NetError::Protocol(
            "unexpected typed reply to an ack-style request".into(),
        )),
    }
}

/// A per-node pool of [`Conn`]s sharing one policy and one registry.
pub struct Pool {
    policy: RetryPolicy,
    obs: Registry,
    conns: HashMap<u64, Conn>,
}

impl Pool {
    pub fn new(policy: RetryPolicy, obs: Registry) -> Pool {
        Pool {
            policy,
            obs,
            conns: HashMap::new(),
        }
    }

    /// Register (or re-point) the address for `node`.
    pub fn register(&mut self, node: u64, addr: SocketAddr) {
        self.conns
            .insert(node, Conn::new(node, addr, self.policy, self.obs.clone()));
    }

    /// The connection for `node`, if registered.
    pub fn conn(&mut self, node: u64) -> Option<&mut Conn> {
        self.conns.get_mut(&node)
    }

    /// Issue `req` to `node`.
    pub fn call(&mut self, node: u64, req: &Request) -> Result<Reply> {
        self.conn(node)
            .ok_or_else(|| NetError::Protocol(format!("no conn registered for node {node}")))?
            .call(req)
    }

    /// Issue `req` to `node` and unwrap the `Ack`.
    pub fn call_ack(&mut self, node: u64, req: &Request) -> Result<u64> {
        self.conn(node)
            .ok_or_else(|| NetError::Protocol(format!("no conn registered for node {node}")))?
            .call_ack(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_is_deterministic() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            deadline: Duration::from_millis(100),
            seed: 42,
        };
        let b1 = p.backoff(7, 1);
        let b2 = p.backoff(7, 2);
        let b5 = p.backoff(7, 5);
        assert!(b1 <= Duration::from_millis(10));
        assert!(b1 > Duration::from_millis(5), "jitter takes at most half");
        assert!(b2 > b1, "exponential growth");
        assert!(b5 <= Duration::from_millis(80), "capped");
        assert_eq!(p.backoff(7, 3), p.backoff(7, 3), "deterministic");
        assert_ne!(p.backoff(7, 3), p.backoff(8, 3), "per-corr jitter");
    }

    #[test]
    fn a_burst_that_never_lands_fails_every_slot_alike() {
        // A port nothing listens on: every attempt is refused.
        let addr = std::net::TcpListener::bind(("127.0.0.1", 0))
            .unwrap()
            .local_addr()
            .unwrap();
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
            deadline: Duration::from_millis(50),
            seed: 0,
        };
        let mut conn = Conn::new(1, addr, policy, Registry::disabled());
        let replies = conn.call_many(&[Request::Ping, Request::Ping, Request::Ping]);
        assert_eq!(replies.len(), 3);
        for reply in replies {
            match reply {
                Err(NetError::RetriesExhausted { attempts: 2, last }) => {
                    assert!(matches!(*last, NetError::Io(_)), "{last}")
                }
                other => panic!("expected an exhausted burst, got {other:?}"),
            }
        }
    }

    #[test]
    fn corr_ids_are_unique() {
        let a = next_corr();
        let b = next_corr();
        assert_ne!(a, b);
    }
}
