//! The optimistic transaction manager.

use std::collections::BTreeSet;
use std::sync::Arc;

use parking_lot::Mutex;
use worlds_pagestore::{PageStore, Vpn, WorldId};

/// Why a commit was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// Version of the transaction that invalidated this one.
    pub with_version: u64,
    /// The first conflicting page found.
    pub page: Vpn,
}

impl std::fmt::Display for Conflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conflict with committed version {} on page {}",
            self.with_version, self.page
        )
    }
}

impl std::error::Error for Conflict {}

/// An in-flight transaction: a snapshot world plus tracked read/write
/// sets. Obtained from [`TxManager::begin`]; finished by
/// [`TxManager::commit`] or [`TxManager::abort`].
#[derive(Debug)]
pub struct Tx {
    world: WorldId,
    begin_version: u64,
    reads: BTreeSet<Vpn>,
    writes: BTreeSet<Vpn>,
}

impl Tx {
    /// The database version this transaction is reading.
    pub fn begin_version(&self) -> u64 {
        self.begin_version
    }
}

#[derive(Debug, Default)]
struct History {
    /// Write sets of committed transactions, indexed by (version - 1).
    committed_writes: Vec<BTreeSet<Vpn>>,
}

/// A versioned page database with optimistic (backward-validating)
/// transactions. Clones share the same database.
#[derive(Clone)]
pub struct TxManager {
    store: PageStore,
    base: WorldId,
    history: Arc<Mutex<History>>,
}

impl TxManager {
    /// A fresh, empty database with the given page size.
    pub fn new(page_size: usize) -> TxManager {
        let store = PageStore::new(page_size);
        let base = store.create_world();
        TxManager {
            store,
            base,
            history: Arc::new(Mutex::new(History::default())),
        }
    }

    /// Current committed version (number of committed transactions).
    pub fn version(&self) -> u64 {
        self.history.lock().committed_writes.len() as u64
    }

    /// The page store (diagnostics).
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// Read a page of the *committed* state, outside any transaction.
    pub fn read_committed(&self, vpn: Vpn, len: usize) -> Vec<u8> {
        self.store
            .read_vec(self.base, vpn, 0, len)
            .expect("base world is live")
    }

    /// Begin a transaction: snapshot the base world COW (the read phase
    /// starts on a private timeline, "assuming it will succeed").
    pub fn begin(&self) -> Tx {
        // Hold the history lock across the fork so the snapshot matches
        // the begin version exactly.
        let history = self.history.lock();
        let world = self
            .store
            .fork_world(self.base)
            .expect("base world is live");
        Tx {
            world,
            begin_version: history.committed_writes.len() as u64,
            reads: BTreeSet::new(),
            writes: BTreeSet::new(),
        }
    }

    /// Transactional read.
    pub fn read(&self, tx: &mut Tx, vpn: Vpn, len: usize) -> Vec<u8> {
        tx.reads.insert(vpn);
        self.store
            .read_vec(tx.world, vpn, 0, len)
            .expect("tx world is live")
    }

    /// Transactional write (at offset 0 of the page; page-granular
    /// conflict detection, as in the paper's page-based design).
    pub fn write(&self, tx: &mut Tx, vpn: Vpn, data: &[u8]) {
        tx.writes.insert(vpn);
        self.store
            .write(tx.world, vpn, 0, data)
            .expect("tx world is live");
    }

    /// Validate and commit. Backward validation (Kung & Robinson): `tx`
    /// aborts iff any transaction with a version newer than
    /// `tx.begin_version` wrote a page `tx` read. On success the write
    /// set replays onto the base world and the version advances.
    pub fn commit(&self, tx: Tx) -> Result<u64, Conflict> {
        let mut history = self.history.lock();
        for (i, writes) in history
            .committed_writes
            .iter()
            .enumerate()
            .skip(tx.begin_version as usize)
        {
            if let Some(&page) = writes.intersection(&tx.reads).next() {
                // Falsified assumption: this world is doomed.
                drop(history);
                self.store.drop_world(tx.world).expect("tx world is live");
                return Err(Conflict {
                    with_version: i as u64 + 1,
                    page,
                });
            }
        }
        // Valid: install the write set into the base.
        let page_size = self.store.page_size();
        let mut buf = vec![0u8; page_size];
        for &vpn in &tx.writes {
            self.store
                .read(tx.world, vpn, 0, &mut buf)
                .expect("tx world is live");
            self.store
                .write(self.base, vpn, 0, &buf)
                .expect("base world is live");
        }
        self.store.drop_world(tx.world).expect("tx world is live");
        history.committed_writes.push(tx.writes);
        Ok(history.committed_writes.len() as u64)
    }

    /// Abandon a transaction; its world and all its writes vanish.
    pub fn abort(&self, tx: Tx) {
        self.store.drop_world(tx.world).expect("tx world is live");
    }

    /// The standard optimistic retry loop: run `body` until it commits,
    /// up to `max_retries` retries. The closure sees the manager and a
    /// fresh transaction each attempt.
    pub fn run<R>(
        &self,
        max_retries: usize,
        mut body: impl FnMut(&TxManager, &mut Tx) -> R,
    ) -> Result<(R, u64), Conflict> {
        let mut last = None;
        for _ in 0..=max_retries {
            let mut tx = self.begin();
            let r = body(self, &mut tx);
            match self.commit(tx) {
                Ok(v) => return Ok((r, v)),
                Err(c) => last = Some(c),
            }
        }
        Err(last.expect("at least one attempt"))
    }
}

impl std::fmt::Debug for TxManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxManager")
            .field("version", &self.version())
            .field("store", &self.store)
            .finish()
    }
}

/// A competing-transaction body.
pub type TxBody<'a, R> = Box<dyn FnMut(&TxManager, &mut Tx) -> R + 'a>;

/// The paper's §5 sentence as an API: run `bodies` as **competing
/// transactions from the same snapshot** — "at most one of which will
/// take effect". Bodies run (sequentially here — the `worlds` executor
/// provides the parallel variant of the same semantics) and the first
/// one whose commit validates wins; every other transaction is aborted.
/// Returns the winner's index and result.
pub fn competing<R>(manager: &TxManager, bodies: Vec<TxBody<'_, R>>) -> Option<(usize, R)> {
    let mut winner = None;
    let mut open: Vec<(usize, Tx, R)> = Vec::new();
    for (i, mut body) in bodies.into_iter().enumerate() {
        let mut tx = manager.begin();
        let r = body(manager, &mut tx);
        open.push((i, tx, r));
    }
    for (i, tx, r) in open {
        if winner.is_none() {
            if manager.commit(tx).is_ok() {
                winner = Some((i, r));
            }
        } else {
            manager.abort(tx);
        }
    }
    winner
}

/// A boxed transaction body for [`competing_parallel`].
pub type ParallelTxBody<R> = Box<dyn FnOnce(&TxManager, &mut Tx) -> R + Send>;

/// The parallel form of [`competing`]: bodies run on real threads, each
/// against its own snapshot; the **first to validate commits** and every
/// other transaction aborts — Multiple Worlds with transactions as the
/// isolation mechanism instead of process management.
///
/// Unlike [`competing`] (which validates in submission order), winners
/// here are decided by *time order*, exactly like the `worlds` executor's
/// rendezvous.
pub fn competing_parallel<R: Send + 'static>(
    manager: &TxManager,
    bodies: Vec<ParallelTxBody<R>>,
) -> Option<(usize, R)> {
    // The block's decision: empty until a rival commits. Each rival holds
    // it across its own commit, so the first to validate decides and every
    // later rival — even one that would also validate — aborts instead.
    let decision: Arc<Mutex<Option<(usize, R)>>> = Arc::new(Mutex::new(None));
    let mut handles = Vec::new();
    // Begin every transaction up front so all rivals share the SAME
    // snapshot — "each alternative is guaranteed the same initial state".
    // (Beginning inside the threads would let a late starter snapshot the
    // early winner's commit and validate trivially.)
    let txs: Vec<Tx> = bodies.iter().map(|_| manager.begin()).collect();
    for ((i, body), mut tx) in bodies.into_iter().enumerate().zip(txs) {
        let mgr = manager.clone();
        let decision = Arc::clone(&decision);
        handles.push(std::thread::spawn(move || {
            let r = body(&mgr, &mut tx);
            let mut decision = decision.lock();
            if decision.is_some() {
                mgr.abort(tx);
            } else if mgr.commit(tx).is_ok() {
                *decision = Some((i, r));
            }
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    let winner = decision.lock().take();
    winner
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> TxManager {
        TxManager::new(64)
    }

    #[test]
    fn read_your_own_writes_and_commit() {
        let m = mgr();
        let mut tx = m.begin();
        m.write(&mut tx, 0, b"hello");
        assert_eq!(&m.read(&mut tx, 0, 5), b"hello");
        let v = m.commit(tx).unwrap();
        assert_eq!(v, 1);
        assert_eq!(&m.read_committed(0, 5), b"hello");
    }

    #[test]
    fn uncommitted_writes_are_invisible() {
        let m = mgr();
        let mut tx = m.begin();
        m.write(&mut tx, 0, b"spec");
        assert_eq!(m.read_committed(0, 4), vec![0; 4]);
        m.abort(tx);
        assert_eq!(m.read_committed(0, 4), vec![0; 4]);
        assert_eq!(m.version(), 0);
    }

    #[test]
    fn rw_conflict_aborts_the_later_reader() {
        let m = mgr();
        // t1 reads page 0; t2 writes page 0 and commits first.
        let mut t1 = m.begin();
        let _ = m.read(&mut t1, 0, 1);
        let mut t2 = m.begin();
        m.write(&mut t2, 0, &[9]);
        assert!(m.commit(t2).is_ok());
        let err = m.commit(t1).unwrap_err();
        assert_eq!(err.with_version, 1);
        assert_eq!(err.page, 0);
    }

    #[test]
    fn disjoint_transactions_both_commit() {
        let m = mgr();
        let mut t1 = m.begin();
        let mut t2 = m.begin();
        m.write(&mut t1, 0, &[1]);
        m.write(&mut t2, 1, &[2]);
        assert!(m.commit(t1).is_ok());
        assert!(m.commit(t2).is_ok(), "no overlap, both valid");
        assert_eq!(m.version(), 2);
    }

    #[test]
    fn blind_writes_do_not_conflict() {
        // Classical OCC: only read sets are validated; two blind writers
        // to the same page serialize trivially (last committer wins).
        let m = mgr();
        let mut t1 = m.begin();
        let mut t2 = m.begin();
        m.write(&mut t1, 0, &[1]);
        m.write(&mut t2, 0, &[2]);
        assert!(m.commit(t1).is_ok());
        assert!(m.commit(t2).is_ok());
        assert_eq!(m.read_committed(0, 1), vec![2]);
    }

    #[test]
    fn snapshot_isolation_within_a_transaction() {
        let m = mgr();
        let mut old = m.begin();
        // A later transaction commits meanwhile.
        let mut newer = m.begin();
        m.write(&mut newer, 5, &[7]);
        m.commit(newer).unwrap();
        // The old transaction still sees its snapshot…
        assert_eq!(m.read(&mut old, 5, 1), vec![0]);
        // …and now cannot commit (it read a page written since).
        assert!(m.commit(old).is_err());
    }

    #[test]
    fn retry_loop_eventually_commits() {
        let m = mgr();
        let mut interfered = false;
        let result = m.run(3, |mgr, tx| {
            let v = mgr.read(tx, 0, 1)[0];
            if !interfered {
                // Sabotage the first attempt from "outside".
                interfered = true;
                let mut rival = mgr.begin();
                mgr.write(&mut rival, 0, &[v + 1]);
                mgr.commit(rival).unwrap();
            }
            mgr.write(tx, 1, &[v + 10]);
            v
        });
        let (seen, version) = result.unwrap();
        assert_eq!(seen, 1, "the retry observed the rival's write");
        assert_eq!(
            version, 2,
            "rival + retried tx; the aborted attempt is not counted"
        );
    }

    #[test]
    fn retry_exhaustion_reports_the_conflict() {
        let m = mgr();
        let r = m.run(2, |mgr, tx| {
            let _ = mgr.read(tx, 0, 1);
            // Always sabotage.
            let mut rival = mgr.begin();
            mgr.write(&mut rival, 0, &[1]);
            mgr.commit(rival).unwrap();
        });
        assert!(r.is_err());
    }

    #[test]
    fn competing_commits_exactly_one() {
        let m = mgr();
        let winner = competing(
            &m,
            vec![
                Box::new(|mgr: &TxManager, tx: &mut Tx| {
                    mgr.write(tx, 0, b"A");
                    'A'
                }),
                Box::new(|mgr: &TxManager, tx: &mut Tx| {
                    mgr.write(tx, 0, b"B");
                    'B'
                }),
                Box::new(|mgr: &TxManager, tx: &mut Tx| {
                    mgr.write(tx, 0, b"C");
                    'C'
                }),
            ],
        );
        let (idx, val) = winner.expect("someone commits");
        assert_eq!(idx, 0, "first validator wins");
        assert_eq!(val, 'A');
        assert_eq!(m.version(), 1, "at most one took effect");
        assert_eq!(&m.read_committed(0, 1), b"A");
        // All the losers' worlds are gone.
        assert_eq!(m.store().world_count(), 1);
    }

    #[test]
    fn competing_parallel_commits_at_most_one_conflicting_body() {
        let m = mgr();
        // Every body reads page 0 then writes it: any pair conflicts, so
        // at most one can validate.
        let winner = competing_parallel(
            &m,
            (0..4u8)
                .map(|i| {
                    Box::new(move |mgr: &TxManager, tx: &mut Tx| {
                        let _ = mgr.read(tx, 0, 1);
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        mgr.write(tx, 0, &[i + 1]);
                        i
                    }) as Box<dyn FnOnce(&TxManager, &mut Tx) -> u8 + Send>
                })
                .collect(),
        );
        let (idx, val) = winner.expect("someone validates first");
        assert_eq!(idx as u8, val);
        assert_eq!(m.version(), 1, "read-write overlap forbids a second commit");
        assert_eq!(m.read_committed(0, 1), vec![val + 1]);
        assert_eq!(m.store().world_count(), 1, "all rival worlds dropped");
    }

    #[test]
    fn competing_parallel_on_disjoint_pages_reports_the_first() {
        let m = mgr();
        let winner = competing_parallel(
            &m,
            (0..3u8)
                .map(|i| {
                    Box::new(move |mgr: &TxManager, tx: &mut Tx| {
                        mgr.write(tx, i as u64, &[9]);
                        i
                    }) as Box<dyn FnOnce(&TxManager, &mut Tx) -> u8 + Send>
                })
                .collect(),
        );
        assert!(winner.is_some());
        assert!(m.version() >= 1);
    }

    #[test]
    fn competing_parallel_on_disjoint_pages_commits_exactly_one() {
        let m = mgr();
        // No body reads, so every one of them would validate: only the
        // block's decision keeps the losers from taking effect.
        let winner = competing_parallel(
            &m,
            (0..3u8)
                .map(|i| {
                    Box::new(move |mgr: &TxManager, tx: &mut Tx| {
                        mgr.write(tx, i as u64, &[9]);
                        i
                    }) as Box<dyn FnOnce(&TxManager, &mut Tx) -> u8 + Send>
                })
                .collect(),
        );
        let (idx, val) = winner.expect("someone validates first");
        assert_eq!(idx as u8, val);
        assert_eq!(m.version(), 1, "exactly one rival took effect");
        for page in 0..3u8 {
            let expected = if page == val { 9 } else { 0 };
            assert_eq!(m.read_committed(page as u64, 1), vec![expected]);
        }
        assert_eq!(m.store().world_count(), 1, "all rival worlds dropped");
    }

    #[test]
    fn no_world_leaks_across_many_transactions() {
        let m = mgr();
        for i in 0..50u8 {
            let mut tx = m.begin();
            m.write(&mut tx, (i % 7) as u64, &[i]);
            if i % 3 == 0 {
                m.abort(tx);
            } else {
                let _ = m.commit(tx);
            }
        }
        assert_eq!(m.store().world_count(), 1, "only the base world survives");
    }
}
