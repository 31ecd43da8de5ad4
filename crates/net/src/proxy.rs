//! `FaultProxy` — a loopback man-in-the-middle that makes the network
//! misbehave on schedule.
//!
//! The proxy sits between a [`crate::Conn`] and a [`crate::NetNode`],
//! parses the frame stream (it must, to drop or truncate *whole* frames
//! rather than arbitrary bytes), and consults a [`FaultSchedule`] to
//! decide each operation's fate. Operations are numbered by **first
//! appearance of a correlation id**: a retransmitted frame carries a
//! corr the proxy has already seen, so a scheduled fault fires exactly
//! once per logical op and the retry sails through — deterministic
//! single-retry faults, never accidental livelock.

use crate::fault::{FaultKind, FaultSchedule};
use crate::frame::{read_frame, read_frame_idle, Frame, FRAME_HEADER};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use worlds_exec::Executor;
use worlds_obs::Registry;

/// Shared first-seen-corr → op-index assignment. A cluster runs one
/// proxy per node but numbers its logical transfers from a single
/// sequence; handing every proxy a clone of one `OpLedger` makes the
/// proxies' op numbering match the cluster's transfer counter, which is
/// what lets one seeded [`FaultSchedule`] mean the same thing on every
/// transport.
#[derive(Clone, Default)]
pub struct OpLedger(Arc<OpLedgerInner>);

#[derive(Default)]
struct OpLedgerInner {
    /// corr → assigned op index; ops are numbered in first-seen order.
    ops: Mutex<HashMap<u64, u64>>,
    next_op: AtomicU64,
}

impl OpLedger {
    pub fn new() -> OpLedger {
        OpLedger::default()
    }

    /// The op index for `corr`, and whether this is its first delivery
    /// (only first deliveries are eligible for faults).
    fn op_for(&self, corr: u64) -> (u64, bool) {
        let mut ops = self.0.ops.lock().expect("ops lock");
        match ops.get(&corr) {
            Some(&op) => (op, false),
            None => {
                let op = self.0.next_op.fetch_add(1, Ordering::Relaxed);
                ops.insert(corr, op);
                (op, true)
            }
        }
    }
}

struct Shared {
    upstream: SocketAddr,
    schedule: FaultSchedule,
    stop: AtomicBool,
    faults: AtomicU64,
    forwarded: AtomicU64,
    ops: OpLedger,
}

/// A fault-injecting TCP relay in front of one upstream server.
pub struct FaultProxy {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl FaultProxy {
    /// Listen on `127.0.0.1:0` and relay every connection to `upstream`,
    /// injecting faults per `schedule`. Point clients at
    /// [`FaultProxy::addr`] instead of the real server.
    pub fn spawn(
        upstream: SocketAddr,
        schedule: FaultSchedule,
        obs: Registry,
    ) -> std::io::Result<FaultProxy> {
        FaultProxy::spawn_with_ops(upstream, schedule, obs, OpLedger::new())
    }

    /// Like [`FaultProxy::spawn`], but numbering operations from a
    /// shared [`OpLedger`] — for fleets of proxies (one per node) that
    /// must share one global op sequence.
    pub fn spawn_with_ops(
        upstream: SocketAddr,
        schedule: FaultSchedule,
        obs: Registry,
        ops: OpLedger,
    ) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            upstream,
            schedule,
            stop: AtomicBool::new(false),
            faults: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            ops,
        });
        let accept_shared = shared.clone();
        Executor::global().spawn(&obs, move || {
            while !accept_shared.stop.load(Ordering::Acquire) {
                let client = match listener.accept() {
                    Ok((s, _)) => s,
                    Err(_) => continue,
                };
                if accept_shared.stop.load(Ordering::Acquire) {
                    break;
                }
                let relay_shared = accept_shared.clone();
                Executor::global().spawn(&Registry::disabled(), move || {
                    relay(client, relay_shared);
                });
            }
        });
        Ok(FaultProxy { shared, addr })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.shared.faults.load(Ordering::Relaxed)
    }

    /// Request frames forwarded cleanly so far.
    pub fn frames_forwarded(&self) -> u64 {
        self.shared.forwarded.load(Ordering::Relaxed)
    }

    /// Stop relaying. Existing connections die on their next frame.
    pub fn shutdown(&self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Relay one client connection, one frame at a time: read a request from
/// the client, decide its fate, forward it upstream, pump the reply back.
/// A pipelined burst is relayed the same way, frame by frame in arrival
/// order, so its ops are numbered in the order they went on the wire.
fn relay(client: TcpStream, shared: Arc<Shared>) {
    let _ = client.set_read_timeout(Some(Duration::from_millis(25)));
    let _ = client.set_nodelay(true);
    let mut client = BufReader::new(client);
    let mut upstream: Option<BufReader<TcpStream>> = None;
    loop {
        let frame = match read_frame_idle(&mut client, &shared.stop) {
            Ok(Some((frame, _))) => frame,
            Ok(None) | Err(_) => return,
        };
        let (op, first) = shared.ops.op_for(frame.corr);
        let fault = if first {
            shared.schedule.fault_for(op)
        } else {
            None
        };
        if let Some(kind) = fault {
            shared.faults.fetch_add(1, Ordering::Relaxed);
            match kind {
                FaultKind::Drop => continue,
                FaultKind::Delay { ms } => {
                    std::thread::sleep(Duration::from_millis(ms));
                    // Fall through to a clean forward; the client has
                    // usually timed out and abandoned this connection,
                    // in which case the forward fails and we exit.
                }
                FaultKind::Reset => {
                    let _ = client.get_ref().shutdown(Shutdown::Both);
                    return;
                }
                FaultKind::Truncate => {
                    // Apply upstream, then cut the reply mid-frame.
                    let reply = match pump(&mut upstream, &shared, &frame) {
                        Ok(r) => r,
                        Err(()) => return,
                    };
                    let bytes = reply.encode();
                    let cut = FRAME_HEADER.min(bytes.len() - 1);
                    let _ = client.get_mut().write_all(&bytes[..cut]);
                    let _ = client.get_ref().shutdown(Shutdown::Both);
                    return;
                }
                FaultKind::DropReply => {
                    // Apply upstream, swallow the reply: the op has
                    // really happened, the client just can't know. Its
                    // retry is the idempotency probe.
                    if pump(&mut upstream, &shared, &frame).is_err() {
                        return;
                    }
                    continue;
                }
            }
        }
        shared.forwarded.fetch_add(1, Ordering::Relaxed);
        let reply = match pump(&mut upstream, &shared, &frame) {
            Ok(r) => r,
            Err(()) => return,
        };
        if client.get_mut().write_all(&reply.encode()).is_err() {
            return;
        }
    }
}

/// Forward `frame` upstream (connecting lazily) and read the reply.
fn pump(
    upstream: &mut Option<BufReader<TcpStream>>,
    shared: &Shared,
    frame: &Frame,
) -> Result<Frame, ()> {
    for fresh in [false, true] {
        if upstream.is_none() || fresh {
            let s = TcpStream::connect(shared.upstream).map_err(|_| ())?;
            let _ = s.set_nodelay(true);
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            *upstream = Some(BufReader::new(s));
        }
        let s = upstream.as_mut().expect("connected above");
        if s.get_mut().write_all(&frame.encode()).is_err() {
            *upstream = None;
            continue;
        }
        match read_frame(s) {
            Ok((reply, _)) => return Ok(reply),
            Err(_) => {
                *upstream = None;
                continue;
            }
        }
    }
    Err(())
}
