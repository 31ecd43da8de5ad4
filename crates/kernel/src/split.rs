//! Receiver world-splitting: the full §2.4.2 machinery, live.
//!
//! "The message system, the virtual addressing mechanism, and the process
//! management mechanism are linked": when accepting a message would force a
//! receiver to make *new* assumptions, the kernel duplicates the receiver —
//! COW-forking its world and copying its mailbox — into one copy that
//! accepts under `complete(sender)` and one that rejects under
//! `¬complete(sender)`. When the sender's fate resolves, one copy is doomed
//! and eliminated, and the now-true assumptions are dropped everywhere.
//!
//! [`SplitKernel`] is the reference implementation of that linkage over the
//! real `worlds-pagestore` store and the primitive's [`worlds::ipc`] and
//! [`worlds::predicate`] modules. The discrete-event
//! [`crate::Machine`] measures time; this measures *semantics*.

use std::collections::HashMap;

use worlds::ipc::{classify_observed, DeliveryAction, Message, Network};
use worlds::predicate::{Fate, FateBoard};
use worlds::{Pid, PredicateSet};
use worlds_obs::{Event as ObsEvent, EventKind, TraceCtx};
use worlds_pagestore::{PageStore, WorldId};

/// A process under the split kernel.
#[derive(Debug, Clone)]
pub struct SplitProcess {
    /// Its unique id.
    pub pid: Pid,
    /// Its COW world in the shared page store.
    pub world: WorldId,
    /// Its current assumptions.
    pub predicates: PredicateSet,
    /// Pid of the process whose `alt_wait` this one reports to.
    pub parent: Option<Pid>,
    /// True for the *accepting* copy created by a message split. When such
    /// a copy's assumptions all come true, it is the surviving identity of
    /// the split pair and `complete(copy)` becomes TRUE — which is what
    /// lets further-downstream worlds that bet on it resolve (§2.4.2's
    /// "at this point the additional assumptions which receipt of the
    /// message caused will become TRUE").
    pub split_copy: bool,
}

/// What happened when the kernel processed one inbound message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivered {
    /// The receiver accepted the message unchanged (or with extended
    /// predicates); here is the payload.
    Accepted(Vec<u8>),
    /// The message was ignored (incompatible worlds).
    Ignored,
    /// The receiver split: `accepting` is the new copy that received the
    /// message; the original pid kept its state and did not.
    Split {
        /// Pid of the newly created accepting copy.
        accepting: Pid,
        /// The payload, as seen by the accepting copy.
        payload: Vec<u8>,
    },
    /// The mailbox was empty.
    Empty,
}

/// The predicate-aware kernel: processes, worlds, mailboxes, fates.
#[derive(Debug)]
pub struct SplitKernel {
    store: PageStore,
    net: Network,
    fates: FateBoard,
    procs: HashMap<Pid, SplitProcess>,
}

impl SplitKernel {
    /// Fresh kernel over a store with the given page size.
    pub fn new(page_size: usize) -> Self {
        Self::with_obs(page_size, worlds_obs::Registry::disabled())
    }

    /// Like [`SplitKernel::new`], wired to an observability registry:
    /// delivery decisions emit `MsgAccept`/`MsgExtend`/`MsgIgnore`/
    /// `MsgSplit` events, and the shared page store reports its COW
    /// traffic.
    pub fn with_obs(page_size: usize, obs: worlds_obs::Registry) -> Self {
        SplitKernel {
            store: PageStore::with_obs(page_size, obs),
            net: Network::new(),
            fates: FateBoard::new(),
            procs: HashMap::new(),
        }
    }

    /// The kernel's observability registry (shared with its page store).
    pub fn obs(&self) -> &worlds_obs::Registry {
        self.store.obs()
    }

    /// The underlying page store.
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Create a non-speculative root process.
    pub fn spawn_root(&mut self) -> Pid {
        let pid = Pid::fresh();
        let world = self.store.create_world();
        self.procs.insert(
            pid,
            SplitProcess {
                pid,
                world,
                predicates: PredicateSet::empty(),
                parent: None,
                split_copy: false,
            },
        );
        pid
    }

    /// `alt_spawn(n)`: create `n` alternative children of `parent`, each
    /// with a COW copy of the parent's world and sibling-rivalry
    /// predicates.
    pub fn alt_spawn(&mut self, parent: Pid, n: usize) -> Vec<Pid> {
        let parent_proc = self
            .procs
            .get(&parent)
            .expect("alt_spawn of unknown process")
            .clone();
        let kids: Vec<Pid> = (0..n).map(|_| Pid::fresh()).collect();
        for (i, &kid) in kids.iter().enumerate() {
            let world = self
                .store
                .fork_world(parent_proc.world)
                .expect("parent world live");
            self.store.obs().emit(|| {
                ObsEvent::new(
                    EventKind::Spawn { alt: i as u64 },
                    world.raw(),
                    Some(parent_proc.world.raw()),
                    self.store.clock_ns(),
                )
            });
            let predicates = PredicateSet::for_spawned_child(&parent_proc.predicates, kid, &kids);
            self.procs.insert(
                kid,
                SplitProcess {
                    pid: kid,
                    world,
                    predicates,
                    parent: Some(parent),
                    split_copy: false,
                },
            );
        }
        kids
    }

    /// Look up a live process.
    pub fn process(&self, pid: Pid) -> Option<&SplitProcess> {
        self.procs.get(&pid)
    }

    /// Number of live processes.
    pub fn live_processes(&self) -> usize {
        self.procs.len()
    }

    /// Write into a process's speculative world.
    pub fn write_state(&self, pid: Pid, vpn: u64, data: &[u8]) {
        let p = &self.procs[&pid];
        self.store.write(p.world, vpn, 0, data).expect("world live");
    }

    /// Read from a process's speculative world.
    pub fn read_state(&self, pid: Pid, vpn: u64, len: usize) -> Vec<u8> {
        let p = &self.procs[&pid];
        self.store
            .read_vec(p.world, vpn, 0, len)
            .expect("world live")
    }

    /// Send a message from `from` to `to`, stamped with the sender's
    /// current predicate set and its trace context (run root + sender
    /// world), so the receiver's routing events join the sender's
    /// speculation tree as causal edges.
    pub fn send(&mut self, from: Pid, to: Pid, payload: impl Into<Vec<u8>>) {
        let sender = &self.procs[&from];
        let ctx = TraceCtx {
            root: self.root_world_of(from),
            world: sender.world.raw(),
        };
        let preds = sender.predicates.clone();
        self.net
            .send(Message::new(from, to, preds, payload).with_trace(ctx));
    }

    /// The root world of `pid`'s process ancestry (the run id the trace
    /// context carries across message and RPC boundaries).
    fn root_world_of(&self, pid: Pid) -> u64 {
        let mut cur = &self.procs[&pid];
        let mut hops = 0;
        while let Some(pp) = cur.parent {
            match self.procs.get(&pp) {
                // An eliminated ancestor ends the walk; `hops` bounds it
                // against malformed parent cycles.
                Some(p) if hops < self.procs.len() => {
                    cur = p;
                    hops += 1;
                }
                _ => break,
            }
        }
        cur.world.raw()
    }

    /// Process the next message queued for `to`, applying the §2.4.2
    /// acceptance rule, including receiver duplication.
    pub fn deliver_next(&mut self, to: Pid) -> Delivered {
        let Some(msg) = self.net.recv(to) else {
            return Delivered::Empty;
        };
        let action = {
            let receiver = &self.procs[&to];
            classify_observed(
                &receiver.predicates,
                &msg,
                self.store.obs(),
                receiver.world.raw(),
                self.store.clock_ns(),
            )
        };
        match action {
            DeliveryAction::Deliver => Delivered::Accepted(msg.payload),
            DeliveryAction::DeliverExtended { new_set } => {
                self.procs.get_mut(&to).expect("receiver live").predicates = new_set;
                Delivered::Accepted(msg.payload)
            }
            DeliveryAction::Ignore => Delivered::Ignored,
            DeliveryAction::SplitReceiver { with, without } => {
                // Duplicate the receiver: new pid, COW world, copied
                // mailbox (the remaining queue; the in-flight message goes
                // only to the accepting copy).
                let orig = self.procs[&to].clone();
                let accepting = Pid::fresh();
                let world = self
                    .store
                    .fork_world(orig.world)
                    .expect("receiver world live");
                // The accepting copy is a new world in the speculation
                // tree, parented on the receiver it was forked from.
                self.store.obs().emit(|| {
                    ObsEvent::new(
                        EventKind::SplitSpawn,
                        world.raw(),
                        Some(orig.world.raw()),
                        self.store.clock_ns(),
                    )
                });
                self.net.duplicate_mailbox(to, accepting);
                self.procs.insert(
                    accepting,
                    SplitProcess {
                        pid: accepting,
                        world,
                        predicates: with,
                        parent: orig.parent,
                        split_copy: true,
                    },
                );
                self.procs.get_mut(&to).expect("receiver live").predicates = without;
                Delivered::Split {
                    accepting,
                    payload: msg.payload,
                }
            }
        }
    }

    /// Record that `pid` completed (synchronized) or failed, then sweep:
    /// every live process's predicates are normalised against the fate
    /// board, and processes whose assumptions were falsified are
    /// eliminated (worlds dropped, mailboxes discarded). Returns the
    /// eliminated pids, sorted.
    pub fn resolve(&mut self, pid: Pid, completed: bool) -> Vec<Pid> {
        self.fates.record(
            pid,
            if completed {
                Fate::Completed
            } else {
                Fate::Failed
            },
        );
        let mut eliminated = Vec::new();
        // Fixpoint sweep: dooming a process records complete() = FALSE for
        // it, and a split copy whose assumptions all came true records
        // complete() = TRUE — either verdict can resolve further worlds.
        loop {
            let mut changed = false;
            let mut doomed = Vec::new();
            for (&p, proc_) in self.procs.iter_mut() {
                if self.fates.normalize(&mut proc_.predicates) {
                    doomed.push(p);
                } else if proc_.split_copy
                    && proc_.predicates.is_resolved()
                    && self.fates.fate(p) == Fate::Pending
                {
                    // The surviving identity of a split pair: it completes.
                    self.fates.record(p, Fate::Completed);
                    changed = true;
                }
            }
            doomed.sort();
            for &p in &doomed {
                let proc_ = self.procs.remove(&p).expect("doomed process exists");
                // Fate-driven elimination never blocks anyone: async.
                self.store.obs().emit(|| {
                    ObsEvent::new(
                        EventKind::EliminateAsync,
                        proc_.world.raw(),
                        None,
                        self.store.clock_ns(),
                    )
                });
                if self.store.world_exists(proc_.world) {
                    self.store.drop_world(proc_.world).expect("world live");
                }
                self.net.discard_mailbox(p);
                // A doomed process can never complete.
                if self.fates.fate(p) == Fate::Pending {
                    self.fates.record(p, Fate::Failed);
                }
                changed = true;
            }
            eliminated.extend(doomed);
            if !changed {
                break;
            }
        }
        eliminated.sort();
        eliminated
    }

    /// The winning child synchronizes: its world is adopted into its
    /// parent's (atomic page-map replacement), it is recorded as completed,
    /// and the rivalry resolves — dooming its siblings. Returns the
    /// eliminated pids.
    pub fn commit(&mut self, child: Pid) -> Vec<Pid> {
        let child_proc = self
            .procs
            .remove(&child)
            .expect("commit of unknown process");
        let parent = child_proc.parent.expect("root processes cannot commit");
        let parent_world = self.procs[&parent].world;
        let dirty = self
            .store
            .world_stats(child_proc.world)
            .map(|s| s.pages_cowed + s.pages_zero_filled)
            .unwrap_or(0);
        self.store
            .adopt(parent_world, child_proc.world)
            .expect("child world adoptable");
        self.store.obs().emit(|| {
            ObsEvent::new(
                EventKind::Commit {
                    dirty_pages: dirty,
                    overhead_ns: 0,
                    site: None,
                },
                child_proc.world.raw(),
                Some(parent_world.raw()),
                self.store.clock_ns(),
            )
        });
        self.net.discard_mailbox(child);
        self.resolve(child, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> SplitKernel {
        SplitKernel::new(64)
    }

    #[test]
    fn alt_spawn_builds_rival_worlds() {
        let mut k = kernel();
        let root = k.spawn_root();
        k.write_state(root, 0, b"base");
        let kids = k.alt_spawn(root, 3);
        assert_eq!(kids.len(), 3);
        for (i, &kid) in kids.iter().enumerate() {
            let p = k.process(kid).unwrap();
            assert!(p.predicates.assumes_completes(kid));
            for (j, &sib) in kids.iter().enumerate() {
                if i != j {
                    assert!(p.predicates.assumes_fails(sib));
                }
            }
            assert_eq!(k.read_state(kid, 0, 4), b"base", "inherited state");
        }
    }

    #[test]
    fn children_mutate_in_isolation_until_commit() {
        let mut k = kernel();
        let root = k.spawn_root();
        k.write_state(root, 0, b"orig");
        let kids = k.alt_spawn(root, 2);
        k.write_state(kids[0], 0, b"left");
        k.write_state(kids[1], 0, b"rght");
        assert_eq!(k.read_state(root, 0, 4), b"orig");
        let eliminated = k.commit(kids[0]);
        assert_eq!(eliminated, vec![kids[1]]);
        assert_eq!(
            k.read_state(root, 0, 4),
            b"left",
            "winner's state committed"
        );
        assert!(k.process(kids[1]).is_none(), "loser eliminated");
        assert_eq!(k.live_processes(), 1);
    }

    #[test]
    fn sibling_messages_are_ignored() {
        let mut k = kernel();
        let root = k.spawn_root();
        let kids = k.alt_spawn(root, 2);
        k.send(kids[0], kids[1], "psst");
        assert_eq!(k.deliver_next(kids[1]), Delivered::Ignored);
    }

    #[test]
    fn speculative_message_to_outsider_splits_the_receiver() {
        let mut k = kernel();
        let root = k.spawn_root();
        let observer = k.spawn_root();
        k.write_state(observer, 0, b"obs0");
        let kids = k.alt_spawn(root, 2);

        k.send(kids[0], observer, "speculative hello");
        let Delivered::Split { accepting, payload } = k.deliver_next(observer) else {
            panic!("expected a split");
        };
        assert_eq!(payload, b"speculative hello");
        // The accepting copy assumes the sender's world.
        let acc = k.process(accepting).unwrap();
        assert!(acc.predicates.assumes_completes(kids[0]));
        assert!(acc.predicates.assumes_fails(kids[1]));
        // The original bets against the sender.
        let orig = k.process(observer).unwrap();
        assert!(orig.predicates.assumes_fails(kids[0]));
        // Both observer copies share state COW.
        assert_eq!(k.read_state(accepting, 0, 4), b"obs0");
        assert_eq!(k.live_processes(), 5); // root, observer x2, kids x2
    }

    #[test]
    fn resolution_eliminates_exactly_one_observer_copy() {
        let mut k = kernel();
        let root = k.spawn_root();
        let observer = k.spawn_root();
        let kids = k.alt_spawn(root, 2);
        k.send(kids[0], observer, "m");
        let Delivered::Split { accepting, .. } = k.deliver_next(observer) else {
            panic!("expected a split");
        };

        // kids[0] wins: the original observer (which bet against it) dies;
        // the accepting copy survives with its assumptions now true.
        let eliminated = k.commit(kids[0]);
        assert!(eliminated.contains(&observer));
        assert!(eliminated.contains(&kids[1]));
        let survivor = k.process(accepting).unwrap();
        assert!(
            survivor.predicates.is_resolved(),
            "now-true assumptions dropped: {}",
            survivor.predicates
        );
    }

    #[test]
    fn resolution_the_other_way_keeps_the_skeptic() {
        let mut k = kernel();
        let root = k.spawn_root();
        let observer = k.spawn_root();
        let kids = k.alt_spawn(root, 2);
        k.send(kids[0], observer, "m");
        let Delivered::Split { accepting, .. } = k.deliver_next(observer) else {
            panic!("expected a split");
        };

        // kids[1] wins instead: the accepting copy (which assumed kids[0]
        // completes) is doomed; the skeptical original survives.
        let eliminated = k.commit(kids[1]);
        assert!(eliminated.contains(&accepting));
        assert!(eliminated.contains(&kids[0]));
        let survivor = k.process(observer).unwrap();
        assert!(survivor.predicates.is_resolved());
        assert_eq!(k.read_state(root, 0, 4), k.read_state(root, 0, 4));
    }

    #[test]
    fn cascading_elimination_through_chained_assumptions() {
        let mut k = kernel();
        let root = k.spawn_root();
        let obs1 = k.spawn_root();
        let obs2 = k.spawn_root();
        let kids = k.alt_spawn(root, 2);

        // kids[0] → obs1 splits; obs1's accepting copy → obs2 splits.
        k.send(kids[0], obs1, "first hop");
        let Delivered::Split {
            accepting: obs1_yes,
            ..
        } = k.deliver_next(obs1)
        else {
            panic!("expected split");
        };
        k.send(obs1_yes, obs2, "second hop");
        let Delivered::Split {
            accepting: obs2_yes,
            ..
        } = k.deliver_next(obs2)
        else {
            panic!("expected split");
        };
        let before = k.live_processes();
        assert_eq!(before, 7); // root, obs1 x2, obs2 x2, kids x2

        // kids[1] wins: kids[0] fails → obs1_yes doomed → obs1_yes is
        // failed → obs2_yes (which assumed complete(obs1_yes)) doomed too.
        let eliminated = k.commit(kids[1]);
        assert!(eliminated.contains(&kids[0]));
        assert!(eliminated.contains(&obs1_yes));
        assert!(
            eliminated.contains(&obs2_yes),
            "cascade must reach second-hop copies"
        );
        assert!(k.process(obs1).is_some());
        assert!(k.process(obs2).is_some());
    }

    #[test]
    fn split_copies_see_remaining_mailbox_traffic() {
        let mut k = kernel();
        let root = k.spawn_root();
        let observer = k.spawn_root();
        let kids = k.alt_spawn(root, 1);
        k.send(kids[0], observer, "one");
        k.send(root, observer, "two"); // non-speculative
        let Delivered::Split { accepting, .. } = k.deliver_next(observer) else {
            panic!("expected split");
        };
        // Both copies can still receive "two".
        assert!(matches!(k.deliver_next(observer), Delivered::Accepted(p) if p == b"two"));
        assert!(matches!(k.deliver_next(accepting), Delivered::Accepted(p) if p == b"two"));
    }

    #[test]
    fn empty_mailbox() {
        let mut k = kernel();
        let a = k.spawn_root();
        assert_eq!(k.deliver_next(a), Delivered::Empty);
    }

    #[test]
    fn delivery_decisions_are_observed() {
        let mut k = SplitKernel::with_obs(64, worlds_obs::Registry::enabled());
        let root = k.spawn_root();
        let observer = k.spawn_root();
        let kids = k.alt_spawn(root, 2);
        // Ignore: sibling rivalry.
        k.send(kids[0], kids[1], "psst");
        let _ = k.deliver_next(kids[1]);
        // Split: speculative message to an outsider.
        k.send(kids[0], observer, "hello");
        let _ = k.deliver_next(observer);
        // Accept: non-speculative root-to-root traffic.
        k.send(root, observer, "plain");
        let _ = k.deliver_next(observer);
        let stats = k.obs().stats().expect("registry is enabled");
        assert_eq!(stats.ipc.ignores.get(), 1);
        assert_eq!(stats.ipc.splits.get(), 1);
        assert_eq!(stats.ipc.accepts.get(), 1);
        assert_eq!(stats.ipc.extends.get(), 0);
    }

    #[test]
    fn no_frame_leaks_across_full_scenario() {
        let mut k = kernel();
        let root = k.spawn_root();
        for vpn in 0..10 {
            k.write_state(root, vpn, &[9]);
        }
        let observer = k.spawn_root();
        let kids = k.alt_spawn(root, 3);
        for (i, &kid) in kids.iter().enumerate() {
            k.write_state(kid, i as u64, &[i as u8]);
        }
        k.send(kids[2], observer, "m");
        let _ = k.deliver_next(observer);
        let _ = k.commit(kids[2]);
        // Everything left: root (with kid2's state), observer copies that
        // survived. Worlds of eliminated processes must be gone.
        let live_worlds = k.store().world_count();
        assert_eq!(live_worlds, k.live_processes());
    }
}
