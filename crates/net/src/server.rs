//! `NetNode` — the server half of the transport.
//!
//! One node = one loopback TCP listener + one local [`PageStore`]. The
//! accept loop and every per-connection handler run on the shared
//! [`worlds_exec::Executor`], whose reserve-or-grow guarantee means a
//! node blocked in `accept`/`read` can never starve compute tasks out of
//! the pool.
//!
//! ## Idempotency: the reply ledger
//!
//! A client that times out retransmits the *same* request under the
//! *same* correlation id. The server keeps a bounded ledger of
//! `corr → Reply` for operations it has already applied; a retransmitted
//! corr-id short-circuits to the recorded reply without touching the
//! store. This is what makes `CommitBack` safe to retry: the dirty pages
//! land exactly once no matter how many times the frame is delivered
//! (the double-delivery test in `tests/loopback.rs` proves it).

use crate::frame::{read_head_idle, shed_oversized};
use crate::image::read_request_body;
use crate::rpc::{nack, Reply, Request};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use worlds_exec::Executor;
use worlds_obs::Registry;
use worlds_pagestore::{restore, PageStore, PageStoreError, WorldId};

/// Retransmits of operations older than this many *newer* operations no
/// longer hit the ledger. Far beyond any client's retry horizon: a
/// client abandons an op after a handful of attempts, while the ledger
/// remembers the last 1024 ops.
const LEDGER_CAP: usize = 1024;

/// How a node answers [`Request::Telemetry`] frames. The payload is
/// opaque to the wire layer; the handler (installed by the telemetry
/// crate's collector/exporter plumbing) owns the schema. `Ok(None)`
/// acks the frame, `Ok(Some(bytes))` answers with a telemetry reply,
/// `Err` turns into a `BAD_REQUEST` Nack.
pub type TelemetryHandler =
    Arc<dyn Fn(&[u8]) -> std::result::Result<Option<Vec<u8>>, String> + Send + Sync>;

/// How a node answers the `Request::Session*` family. Session semantics
/// (admission, limits, fair scheduling, lineage) live in `worlds-server`;
/// the wire layer only routes. The handler returns the full [`Reply`] so
/// it can pick nack codes ([`nack::OVERLOADED`], [`nack::LIMIT_EXCEEDED`],
/// [`nack::UNKNOWN_SESSION`]) itself.
pub type SessionHandler = Arc<dyn Fn(&Request) -> Reply + Send + Sync>;

struct Shared {
    store: PageStore,
    obs: Registry,
    node: u64,
    stop: AtomicBool,
    /// corr → reply, for at-most-once application of retried requests.
    ledger: Mutex<Ledger>,
    /// Wakes deliveries parked on a corr another delivery is applying.
    ledger_cv: Condvar,
    /// Answers telemetry frames, when something installed one.
    telemetry: Mutex<Option<TelemetryHandler>>,
    /// Answers session frames, when something installed one.
    sessions: Mutex<Option<SessionHandler>>,
}

#[derive(Default)]
struct Ledger {
    replies: HashMap<u64, Reply>,
    order: VecDeque<u64>,
    /// Corr-ids whose first delivery is applying right now.
    inflight: HashSet<u64>,
}

impl Ledger {
    fn get(&self, corr: u64) -> Option<Reply> {
        self.replies.get(&corr).cloned()
    }

    fn put(&mut self, corr: u64, reply: Reply) {
        if self.replies.insert(corr, reply).is_none() {
            self.order.push_back(corr);
            if self.order.len() > LEDGER_CAP {
                if let Some(old) = self.order.pop_front() {
                    self.replies.remove(&old);
                }
            }
        }
    }
}

/// A serving cluster node: call [`NetNode::serve`], hand the address to
/// clients, and [`NetNode::shutdown`] when done (dropping also shuts
/// down).
pub struct NetNode {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl NetNode {
    /// Bind a listener on `127.0.0.1:0` (kernel-assigned port) and start
    /// serving `store`. `node` is this node's cluster id, used only for
    /// diagnostics.
    pub fn serve(node: u64, store: PageStore, obs: Registry) -> std::io::Result<NetNode> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            store,
            obs,
            node,
            stop: AtomicBool::new(false),
            ledger: Mutex::new(Ledger::default()),
            ledger_cv: Condvar::new(),
            telemetry: Mutex::new(None),
            sessions: Mutex::new(None),
        });
        let accept_shared = shared.clone();
        Executor::global().spawn(&accept_shared.obs.clone(), move || {
            accept_loop(listener, accept_shared);
        });
        Ok(NetNode { shared, addr })
    }

    /// The address clients (and fault proxies) connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This node's cluster id.
    pub fn node_id(&self) -> u64 {
        self.shared.node
    }

    /// The store this node applies requests against.
    pub fn store(&self) -> &PageStore {
        &self.shared.store
    }

    /// Install (or replace) the function answering telemetry frames on
    /// this node. Without one, telemetry requests are Nacked — a plain
    /// page server stays a plain page server.
    pub fn set_telemetry_handler(&self, handler: TelemetryHandler) {
        *self.shared.telemetry.lock().expect("telemetry lock") = Some(handler);
    }

    /// Install (or replace) the function answering session frames on
    /// this node. Without one, session requests are Nacked — the wire
    /// layer never grows tenancy semantics of its own.
    pub fn set_session_handler(&self, handler: SessionHandler) {
        *self.shared.sessions.lock().expect("session lock") = Some(handler);
    }

    /// Stop accepting and tell every connection handler to wind down.
    pub fn shutdown(&self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for NetNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.stop.load(Ordering::Acquire) {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => continue,
        };
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let conn_shared = shared.clone();
        let obs = shared.obs.clone();
        Executor::global().spawn(&obs, move || {
            serve_connection(stream, conn_shared);
        });
    }
}

fn serve_connection(stream: TcpStream, shared: Arc<Shared>) {
    // Short poll timeout so the handler notices shutdown between frames;
    // read_frame_idle treats first-byte timeouts as "still idle" so
    // pooled connections survive quiet spells, and waits out the tick
    // once a frame has started arriving.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let _ = stream.set_nodelay(true);
    // One read buffer for the life of the connection: a request that
    // fits it costs one `read` system call.
    let mut stream = BufReader::new(stream);
    // And one frame buffer: every request's payload but an image's is
    // read into it, and every reply encoded into it once the request is
    // answered. It is given back when a frame has grown it past one read
    // chunk. An image is read into the page buffers that become the new
    // world's frames (see the `image` module).
    let mut wire = Vec::new();
    loop {
        // Shutdown requested while idle, or EOF, reset, desync,
        // corruption: this stream is done. The client reconnects and
        // retries; the ledger keeps the retry idempotent.
        let Ok(Some(mut head)) = read_head_idle(&mut stream, &shared.stop) else {
            return;
        };
        let Ok((envelope, image)) =
            read_request_body(&mut stream, &mut head, &shared.store, &mut wire)
        else {
            return;
        };
        let corr = envelope.corr;
        let reply = match image {
            Some(image) => reply_for(&shared, corr, || restored(&shared, image.restore())),
            None => reply_for(&shared, corr, || apply(&shared, envelope.kind, &wire)),
        };
        reply.encode_frame_into(corr, &mut wire);
        if stream.get_mut().write_all(&wire).is_err() {
            return;
        }
        shed_oversized(&mut wire);
    }
}

/// Look up or compute the reply for one request frame. At-most-once per
/// corr-id is kept with an in-flight set instead of holding the ledger
/// mutex across `apply`: the first delivery of a corr claims it, applies
/// with **no lock held**, then records the reply; a simultaneous second
/// delivery (one direct, one via a slow proxy) parks on the condvar and
/// replays the recorded reply. Different corr-ids therefore apply
/// concurrently — essential once session spawns (which block on fair
/// scheduling) share the node with everything else.
fn reply_for(shared: &Shared, corr: u64, apply: impl FnOnce() -> Reply) -> Reply {
    {
        let mut ledger = shared.ledger.lock().expect("ledger lock");
        loop {
            if let Some(prior) = ledger.get(corr) {
                return prior;
            }
            if ledger.inflight.insert(corr) {
                break;
            }
            ledger = shared.ledger_cv.wait(ledger).expect("ledger lock");
        }
    }
    let reply = apply();
    let mut ledger = shared.ledger.lock().expect("ledger lock");
    ledger.inflight.remove(&corr);
    ledger.put(corr, reply.clone());
    shared.ledger_cv.notify_all();
    reply
}

/// Answer one request read into the connection's frame buffer. An
/// `Rfork` that arrives here is an image the reader would not stream:
/// its header fails the check every receiver makes, so `restore` refuses
/// it with the same error.
fn apply(shared: &Shared, kind_byte: u8, payload: &[u8]) -> Reply {
    let request = match Request::decode(kind_byte, payload) {
        Ok(r) => r,
        Err(e) => {
            return Reply::Nack {
                code: nack::BAD_REQUEST,
                detail: format!("node {}: {e}", shared.node),
            }
        }
    };
    match request {
        Request::Ping => Reply::Ack { world: 0 },
        Request::Rfork { image } => restored(shared, restore(&shared.store, &image)),
        Request::CommitBack { base, pages } => {
            match shared.store.commit_pages(WorldId::from_raw(base), &pages) {
                Ok(()) => Reply::Ack { world: base },
                Err(e) => Reply::Nack {
                    code: nack::STORE,
                    detail: format!("node {}: commit back: {e}", shared.node),
                },
            }
        }
        Request::Discard { world } => match shared.store.drop_world(WorldId::from_raw(world)) {
            Ok(()) => Reply::Ack { world },
            Err(e) => Reply::Nack {
                code: nack::NO_SUCH_WORLD,
                detail: format!("node {}: {e}", shared.node),
            },
        },
        Request::Telemetry { payload } => {
            let handler = shared
                .telemetry
                .lock()
                .expect("telemetry lock")
                .as_ref()
                .cloned();
            match handler {
                None => Reply::Nack {
                    code: nack::BAD_REQUEST,
                    detail: format!("node {}: no telemetry handler", shared.node),
                },
                Some(h) => match h(&payload) {
                    Ok(None) => Reply::Ack { world: 0 },
                    Ok(Some(bytes)) => Reply::Telemetry { payload: bytes },
                    Err(e) => Reply::Nack {
                        code: nack::BAD_REQUEST,
                        detail: format!("node {}: telemetry: {e}", shared.node),
                    },
                },
            }
        }
        req @ (Request::SessionOpen { .. }
        | Request::SessionSpawn { .. }
        | Request::SessionCommit { .. }
        | Request::SessionFork { .. }
        | Request::SessionClose { .. }) => {
            let handler = shared
                .sessions
                .lock()
                .expect("session lock")
                .as_ref()
                .cloned();
            match handler {
                None => Reply::Nack {
                    code: nack::BAD_REQUEST,
                    detail: format!("node {}: no session handler", shared.node),
                },
                Some(h) => h(&req),
            }
        }
    }
}

/// The reply to an `Rfork`: the world its image restored, or why not.
fn restored(shared: &Shared, world: Result<WorldId, PageStoreError>) -> Reply {
    match world {
        Ok(world) => Reply::Ack { world: world.raw() },
        Err(e) => Reply::Nack {
            code: nack::BAD_IMAGE,
            detail: format!("node {}: {e}", shared.node),
        },
    }
}
