//! The world context: what one alternative sees while it runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use worlds_obs::TraceCtx;
use worlds_pagestore::{FileSystem, PageStoreError, WorldId};
use worlds_predicate::{Pid, PredicateSet};

use crate::error::AltError;

/// Shared cancellation flag: set once a sibling succeeds or the block is
/// decided, and implied once the block's deadline (if any) has passed;
/// alternatives poll it at [`WorldCtx::checkpoint`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A fresh token that also reads cancelled from `deadline` on
    /// (`None`: never by itself).
    pub fn with_deadline(deadline: Option<Instant>) -> Self {
        CancelToken {
            flag: Arc::default(),
            deadline,
        }
    }

    /// Raise the flag.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has the flag been raised, or the deadline passed?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// An alternative's view of the system: private COW state, deferred
/// output, identity, and cancellation.
///
/// All state access goes through **named cells** backed by the session's
/// single-level store: each cell is a named set of pages, so writes are
/// private to this world until (and unless) this alternative wins. Reads
/// see the parent's state plus this world's own writes — the paper's
/// internal-consistency requirement ("it can read what was written").
pub struct WorldCtx {
    fs: FileSystem,
    world: WorldId,
    pid: Pid,
    predicates: PredicateSet,
    cancel: CancelToken,
    trace: TraceCtx,
    /// Deferred teletype lines (flushed by the parent iff this world wins).
    pub(crate) output: Vec<String>,
}

impl WorldCtx {
    pub(crate) fn new(
        fs: FileSystem,
        world: WorldId,
        pid: Pid,
        predicates: PredicateSet,
        cancel: CancelToken,
        trace: TraceCtx,
    ) -> Self {
        WorldCtx {
            fs,
            world,
            pid,
            predicates,
            cancel,
            trace,
            output: Vec::new(),
        }
    }

    /// This world's process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The assumptions this world runs under (empty for the parent's own
    /// setup/read contexts, "I complete & my siblings don't" inside an
    /// alternative).
    pub fn predicates(&self) -> &PredicateSet {
        &self.predicates
    }

    /// The underlying world id (diagnostics).
    pub fn world_id(&self) -> WorldId {
        self.world
    }

    /// The trace context for causal edges that leave this world: attach
    /// it to outbound [`worlds_ipc::Message`]s (via `with_trace`) so the
    /// receiver's events join this run's span tree instead of starting
    /// an orphan root. `root` is the session's root world; `world` is
    /// this alternative's own world.
    ///
    /// [`worlds_ipc::Message`]: https://docs.rs/worlds
    pub fn trace_ctx(&self) -> TraceCtx {
        self.trace
    }

    // ---- named state cells ----

    /// Store raw bytes under `name`. Creates the cell on first write with
    /// capacity `max(len, 4096)`; later writes must fit the original
    /// capacity.
    pub fn put_bytes(&mut self, name: &str, data: &[u8]) -> Result<(), AltError> {
        // Page-fault-boundary cancellation point: a loser that wakes
        // after the block has been decided is refused here, before it
        // can dirty any page of its (possibly already queued-for-reap)
        // world.
        self.checkpoint()?;
        let total = data.len() + 8;
        match self.fs.open(name) {
            Ok(_) => {}
            Err(PageStoreError::NoSuchFile(_)) => {
                self.fs.create(name, (total as u64).max(4096))?;
            }
            Err(e) => return Err(e.into()),
        }
        let len_prefix = (data.len() as u64).to_le_bytes();
        self.fs.write_at(self.world, name, 0, &len_prefix)?;
        self.fs.write_at(self.world, name, 8, data)?;
        Ok(())
    }

    /// Read the bytes stored under `name` in this world, `None` if the cell
    /// was never written.
    pub fn get_bytes(&self, name: &str) -> Option<Vec<u8>> {
        let _ = self.fs.open(name).ok()?;
        let prefix = self.fs.read_at(self.world, name, 0, 8).ok()?;
        let len = u64::from_le_bytes(prefix.try_into().expect("8-byte prefix")) as usize;
        if len == 0 {
            // Distinguish "never written in any world" from "written
            // empty": an existing file with len 0 might be either; treat
            // a zero-length record as present-but-empty.
            return Some(Vec::new());
        }
        self.fs.read_at(self.world, name, 8, len).ok()
    }

    /// Store a `u64` under `name`.
    pub fn put_u64(&mut self, name: &str, v: u64) -> Result<(), AltError> {
        self.put_bytes(name, &v.to_le_bytes())
    }

    /// Read a `u64` from `name`.
    pub fn get_u64(&self, name: &str) -> Option<u64> {
        let b = self.get_bytes(name)?;
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }

    /// Store an `f64` under `name`.
    pub fn put_f64(&mut self, name: &str, v: f64) -> Result<(), AltError> {
        self.put_bytes(name, &v.to_le_bytes())
    }

    /// Read an `f64` from `name`.
    pub fn get_f64(&self, name: &str) -> Option<f64> {
        let b = self.get_bytes(name)?;
        Some(f64::from_le_bytes(b.try_into().ok()?))
    }

    /// Store a string under `name`.
    pub fn put_str(&mut self, name: &str, v: &str) -> Result<(), AltError> {
        self.put_bytes(name, v.as_bytes())
    }

    /// Read a string from `name`.
    pub fn get_str(&self, name: &str) -> Option<String> {
        String::from_utf8(self.get_bytes(name)?).ok()
    }

    // ---- source output (deferred side effects) ----

    /// Print a line to the session teletype. The line is **buffered**: it
    /// becomes observable only if this alternative wins (Jefferson-style
    /// source buffering, §5 of the paper). Losing worlds' output vanishes.
    pub fn print(&mut self, line: impl Into<String>) {
        self.output.push(line.into());
    }

    /// Lines buffered so far (visible to this world only).
    pub fn buffered_output(&self) -> &[String] {
        &self.output
    }

    // ---- cancellation ----

    /// Has a sibling already succeeded, or the block's deadline passed?
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Cooperative cancellation point: long-running alternatives should
    /// call this inside loops and propagate the error with `?`.
    pub fn checkpoint(&self) -> Result<(), AltError> {
        if self.is_cancelled() {
            Err(AltError::Cancelled)
        } else {
            Ok(())
        }
    }
}

impl std::fmt::Debug for WorldCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldCtx")
            .field("pid", &self.pid)
            .field("world", &self.world)
            .field("predicates", &self.predicates)
            .field("buffered_lines", &self.output.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use worlds_pagestore::PageStore;

    fn ctx() -> WorldCtx {
        let store = PageStore::new(256);
        let world = store.create_world();
        let fs = FileSystem::new(store);
        WorldCtx::new(
            fs,
            world,
            Pid::fresh(),
            PredicateSet::empty(),
            CancelToken::new(),
            TraceCtx {
                root: world.raw(),
                world: world.raw(),
            },
        )
    }

    #[test]
    fn bytes_round_trip() {
        let mut c = ctx();
        assert_eq!(c.get_bytes("x"), None);
        c.put_bytes("x", b"hello").unwrap();
        assert_eq!(c.get_bytes("x").unwrap(), b"hello");
        c.put_bytes("x", b"hi").unwrap(); // shorter rewrite ok
        assert_eq!(c.get_bytes("x").unwrap(), b"hi");
    }

    #[test]
    fn typed_round_trips() {
        let mut c = ctx();
        c.put_u64("u", 99).unwrap();
        c.put_f64("f", 2.5).unwrap();
        c.put_str("s", "worlds").unwrap();
        assert_eq!(c.get_u64("u"), Some(99));
        assert_eq!(c.get_f64("f"), Some(2.5));
        assert_eq!(c.get_str("s").as_deref(), Some("worlds"));
        assert_eq!(c.get_u64("missing"), None);
    }

    #[test]
    fn oversized_rewrite_fails() {
        let mut c = ctx();
        c.put_bytes("x", b"tiny").unwrap(); // capacity 4096
        let big = vec![0u8; 8192];
        assert!(matches!(c.put_bytes("x", &big), Err(AltError::State(_))));
    }

    #[test]
    fn large_initial_write_allocates_enough() {
        let mut c = ctx();
        let big = vec![7u8; 10_000];
        c.put_bytes("big", &big).unwrap();
        assert_eq!(c.get_bytes("big").unwrap(), big);
    }

    #[test]
    fn print_is_buffered_not_observable() {
        let mut c = ctx();
        c.print("line one");
        c.print(String::from("line two"));
        assert_eq!(
            c.buffered_output(),
            &["line one".to_string(), "line two".to_string()]
        );
    }

    #[test]
    fn cancellation() {
        let token = CancelToken::new();
        let store = PageStore::new(256);
        let world = store.create_world();
        let mut c = WorldCtx::new(
            FileSystem::new(store),
            world,
            Pid::fresh(),
            PredicateSet::empty(),
            token.clone(),
            TraceCtx {
                root: world.raw(),
                world: world.raw(),
            },
        );
        assert!(c.checkpoint().is_ok());
        assert!(c.put_u64("pre", 1).is_ok());
        token.cancel();
        assert!(c.is_cancelled());
        assert_eq!(c.checkpoint().unwrap_err(), AltError::Cancelled);
        // Writes are cancellation points too: no page of a cancelled
        // world can ever be dirtied again.
        assert_eq!(c.put_u64("post", 2).unwrap_err(), AltError::Cancelled);
    }

    #[test]
    fn a_past_deadline_cancels_without_the_flag() {
        let token = CancelToken::with_deadline(Some(Instant::now()));
        assert!(token.is_cancelled());
        let store = PageStore::new(256);
        let world = store.create_world();
        let mut c = WorldCtx::new(
            FileSystem::new(store),
            world,
            Pid::fresh(),
            PredicateSet::empty(),
            token,
            TraceCtx {
                root: world.raw(),
                world: world.raw(),
            },
        );
        assert_eq!(c.put_bytes("late", b"x").unwrap_err(), AltError::Cancelled);
        assert_eq!(c.get_bytes("late"), None, "nothing was written");
        assert!(!CancelToken::with_deadline(None).is_cancelled());
    }

    #[test]
    fn trace_ctx_is_carried_through() {
        let c = ctx();
        let t = c.trace_ctx();
        assert_eq!(t.root, c.world_id().raw());
        assert_eq!(t.world, c.world_id().raw());
    }

    #[test]
    fn empty_write_reads_back_empty() {
        let mut c = ctx();
        c.put_bytes("e", b"").unwrap();
        assert_eq!(c.get_bytes("e").unwrap(), Vec::<u8>::new());
    }
}
