//! The block word: one alternative block's whole decision in one
//! `AtomicU64`, plus one report slot per alternative.
//!
//! "`alt_wait()` is an 'at most once' operation for any group of child
//! processes" (§2.2.1). The word holds everything that operation has to
//! agree on:
//!
//! * the **phase** — open, decided for a winner, or timed out; it only
//!   ever leaves `Open`, once;
//! * **late** — some alternative reported at or past the deadline while
//!   the block was open;
//! * the **winner's index**, when decided;
//! * **holding** — the alternatives that still hold their world: spawned,
//!   but neither reported into their slot nor given back by the parent;
//! * **parked** — the parent is parked waiting on the word.
//!
//! Every transition is a pure function of the word ([`Word::offer`],
//! [`Word::release`], [`Word::time_out`], [`Word::park`]) applied with one
//! compare-and-swap ([`BlockWord::update`]), so the model test at the end
//! of this file can run exactly the transitions the executor runs.
//!
//! An alternative puts its report into its slot *before* it offers, so
//! whoever learns the outcome can find it: an offer made while the block
//! is open hands the report (and the world in it) to the parent; one made
//! after the decision is late, and its world goes back the way
//! [`late_loser_disposes`] says. A report made past the deadline cannot
//! win, but it does not decide the block either: an on-time success whose
//! offer lands after it still wins. The block times out when the parent
//! sees its deadline pass, or when every report is in and one was late
//! (then nobody is left to win). The parent parks at most once per wait
//! and is unparked at most once per park: only by the offer that settles
//! what it waits for, which clears `parked` in the same CAS.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::Instant;

use crate::block::ElimMode;

const HOLDING: u64 = (1 << 32) - 1;
const PARKED: u64 = 1 << 32;
const DECIDED: u64 = 1 << 33;
const TIMED_OUT: u64 = 1 << 34;
const LATE: u64 = 1 << 35;
const WINNER_SHIFT: u32 = 36;

/// Where a block stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Nothing decided yet.
    Open,
    /// This alternative's on-time success won.
    Won(usize),
    /// The deadline passed before any success: the parent saw it pass,
    /// or every report is in and one was made past it.
    TimedOut,
}

/// What an offer did.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Verdict {
    /// This report decided the block for its alternative.
    Won,
    /// The block was open: the parent owns the report and its world.
    Handed,
    /// The block was already decided.
    Late,
}

/// One value of the block word. Plain data: every method is a pure
/// transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Word(u64);

impl Word {
    /// An open block whose `n` alternatives all hold a world.
    pub(crate) fn new(n: usize) -> Word {
        assert!(n < (1 << 28), "{n} alternatives in one block");
        Word(n as u64)
    }

    pub(crate) fn phase(self) -> Phase {
        if self.0 & DECIDED != 0 {
            Phase::Won((self.0 >> WINNER_SHIFT) as usize)
        } else if self.0 & TIMED_OUT != 0 || (self.0 & LATE != 0 && self.holding() == 0) {
            Phase::TimedOut
        } else {
            Phase::Open
        }
    }

    pub(crate) fn holding(self) -> usize {
        (self.0 & HOLDING) as usize
    }

    pub(crate) fn parked(self) -> bool {
        self.0 & PARKED != 0
    }

    /// Is the parent's wait over? It waits for a decision or for every
    /// report, or — with `all` — for every world to come back.
    pub(crate) fn settled(self, all: bool) -> bool {
        self.holding() == 0 || (!all && self.phase() != Phase::Open)
    }

    /// The word after one fewer alternative holds a world, clearing
    /// `parked` when that settles the wait the parent parked for, and
    /// whether the parent must be unparked. A parent parks only unsettled,
    /// so an open word means it waits for the decision or the last
    /// report, a decided one that it waits for every world.
    fn drop_one(self, next: u64) -> (Word, bool) {
        let next = Word(next - 1);
        if self.parked() && next.settled(self.phase() != Phase::Open) {
            (Word(next.0 & !PARKED), true)
        } else {
            (next, false)
        }
    }

    /// Alternative `i` reports: `ok` is a success, `late` one made at or
    /// past the block's deadline. Returns the new word, the verdict, and
    /// whether the reporter must unpark the parent.
    pub(crate) fn offer(self, i: usize, ok: bool, late: bool) -> (Word, Verdict, bool) {
        debug_assert!(
            self.holding() > 0,
            "an offer from a world the block gave back"
        );
        let (next, verdict) = match self.phase() {
            Phase::Open if late => (self.0 | LATE, Verdict::Handed),
            Phase::Open if ok => (self.0 | DECIDED | (i as u64) << WINNER_SHIFT, Verdict::Won),
            Phase::Open => (self.0, Verdict::Handed),
            _ => (self.0, Verdict::Late),
        };
        let (word, wake) = self.drop_one(next);
        (word, verdict, wake)
    }

    /// The parent gives back `n` worlds of alternatives that will never
    /// report: withdrawn before they started, or never spawned. The
    /// parent is running, so nobody is woken.
    pub(crate) fn release(self, n: usize) -> Word {
        debug_assert!(self.holding() >= n && !self.parked());
        Word(self.0 - n as u64)
    }

    /// The parent's deadline passed: an open block times out. Clears
    /// `parked`, since the parent is the one running.
    pub(crate) fn time_out(self) -> Word {
        let w = Word(self.0 & !PARKED);
        match w.phase() {
            Phase::Open => Word(w.0 | TIMED_OUT),
            _ => w,
        }
    }

    /// The parent is about to park. Only an unsettled word may be parked
    /// on; the offer that settles it clears the bit and unparks.
    pub(crate) fn park(self) -> Word {
        Word(self.0 | PARKED)
    }
}

/// Who tears down a world whose offer came after the decision. In
/// [`ElimMode::Async`] a loser on another thread hands its own world to
/// the reaper, off the parent's critical path; everything else — every
/// report in [`ElimMode::Sync`], where the parent waits for all of them,
/// and alternatives the parent ran itself — stays in its slot for the
/// parent's one batch.
pub(crate) fn late_loser_disposes(elim: ElimMode, on_parent: bool) -> bool {
    elim == ElimMode::Async && !on_parent
}

/// One alternative's slot. Which side wins a transition decides who owns
/// the alternative: the runner that claims it runs it; the parent that
/// withdraws it disposes of its world unrun; whoever takes the report
/// owns the world in it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Slot<R> {
    /// Not started: a worker may claim it, or the parent withdraw it.
    Queued,
    /// Claimed by a runner, not yet reported.
    Running,
    /// The runner's report, waiting to be taken.
    Reported(R),
    /// Withdrawn, never spawned, or its report taken.
    Empty,
}

impl<R> Slot<R> {
    pub(crate) fn claim(&mut self) -> bool {
        let queued = matches!(self, Slot::Queued);
        if queued {
            *self = Slot::Running;
        }
        queued
    }

    pub(crate) fn withdraw(&mut self) -> bool {
        let queued = matches!(self, Slot::Queued);
        if queued {
            *self = Slot::Empty;
        }
        queued
    }

    pub(crate) fn put(&mut self, report: R) {
        debug_assert!(matches!(self, Slot::Running));
        *self = Slot::Reported(report);
    }

    pub(crate) fn take(&mut self) -> Option<R> {
        match std::mem::replace(self, Slot::Empty) {
            Slot::Reported(r) => Some(r),
            other => {
                *self = other;
                None
            }
        }
    }
}

/// The shared half of one running block: the word, the slots, and the
/// thread to unpark.
pub(crate) struct BlockWord<R> {
    word: AtomicU64,
    slots: Box<[Mutex<Slot<R>>]>,
    parent: Thread,
}

impl<R> BlockWord<R> {
    /// An open block of `n` queued alternatives, parented by the calling
    /// thread.
    pub(crate) fn new(n: usize) -> BlockWord<R> {
        BlockWord {
            word: AtomicU64::new(Word::new(n).0),
            slots: (0..n).map(|_| Mutex::new(Slot::Queued)).collect(),
            parent: std::thread::current(),
        }
    }

    pub(crate) fn load(&self) -> Word {
        Word(self.word.load(Ordering::Acquire))
    }

    /// Apply `f` with one compare-and-swap, retried on contention; the
    /// word before and `f`'s result for it.
    pub(crate) fn update<X>(&self, f: impl Fn(Word) -> (Word, X)) -> (Word, X) {
        let mut old = self.load();
        loop {
            let (next, x) = f(old);
            match self.word.compare_exchange_weak(
                old.0,
                next.0,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return (old, x),
                Err(now) => old = Word(now),
            }
        }
    }

    /// Run `f` on slot `i` under its lock (held by at most the parent and
    /// one runner).
    pub(crate) fn slot<X>(&self, i: usize, f: impl FnOnce(&mut Slot<R>) -> X) -> X {
        f(&mut self.slots[i].lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Is the calling thread the block's parent?
    pub(crate) fn on_parent(&self) -> bool {
        std::thread::current().id() == self.parent.id()
    }

    /// Alternative `i` reports `report`: put it in its slot, then offer.
    pub(crate) fn offer(&self, i: usize, report: R, ok: bool, late: bool) -> Verdict {
        self.slot(i, |s| s.put(report));
        let (_, (verdict, wake)) = self.update(|w| {
            let (next, verdict, wake) = w.offer(i, ok, late);
            (next, (verdict, wake))
        });
        if wake {
            self.parent.unpark();
        }
        verdict
    }

    /// The parent waits until [`Word::settled`]`(all)`, timing the block
    /// out at `deadline`. Parks at most once: only a settling offer clears
    /// `parked`, and a spurious return parks again on the same bit.
    pub(crate) fn wait(&self, all: bool, deadline: Option<Instant>) -> Word {
        let mut w = self.load();
        loop {
            if w.settled(all) {
                return w;
            }
            let now = Instant::now();
            let next = match deadline {
                Some(d) if now >= d => w.time_out(),
                _ if !w.parked() => w.park(),
                Some(d) => {
                    std::thread::park_timeout(d - now);
                    w = self.load();
                    continue;
                }
                None => {
                    std::thread::park();
                    w = self.load();
                    continue;
                }
            };
            w = match self
                .word
                .compare_exchange(w.0, next.0, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => next,
                Err(now) => Word(now),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    //! Exhaustive model of the block protocol for N ≤ 4: every
    //! interleaving of claim, report, offer (ok or err, on time or late),
    //! late disposal, take-back, withdrawal, parking, timeout and the
    //! parent's sweep, in both elimination modes, with and without a
    //! deadline. Each step is one atomic action of the executor (one CAS
    //! on the word, or one hold of one slot), made with the same
    //! functions.
    use super::*;
    use std::collections::HashSet;

    const MAX: usize = 4;

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Alt {
        /// Not started by anyone.
        Idle,
        /// Claimed; its body has run; the report is not in the slot yet.
        Ran,
        /// Report in the slot; offer not made yet.
        Put,
        /// Offered late; a loser on a worker still has to dispose.
        Late,
        Done,
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Parent {
        /// Running alternative `.0` itself (its own, or one taken back).
        Runs(usize),
        /// Helping, then waiting for the decision or every report.
        Wait1,
        /// Withdrawing still-queued alternatives, index `.0` next.
        Withdraw(usize),
        /// Giving back the withdrawn worlds in one release.
        Release,
        /// Sync: waiting for every world.
        Wait2,
        /// Taking the reports, index `.0` next.
        Sweep(usize),
        Done,
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct M {
        word: Word,
        slot: [Slot<()>; MAX],
        alt: [Alt; MAX],
        /// Who runs each claimed alternative: true for the parent.
        by_parent: [bool; MAX],
        /// What each alternative offered: (verdict, ok, late).
        offered: [Option<(Verdict, bool, bool)>; MAX],
        parent: Parent,
        /// Worlds torn down, and adopted, per alternative.
        disposed: [u8; MAX],
        adopted: [u8; MAX],
        /// Withdrawn by the parent: its world is in the parent's batch.
        withdrawn: [bool; MAX],
        unparks_this_park: u8,
        /// The parent has seen the deadline pass.
        deadline_seen: bool,
        parks: u8,
    }

    #[derive(Clone, Copy)]
    struct Case {
        n: usize,
        elim: ElimMode,
        timed: bool,
    }

    impl M {
        fn start(n: usize) -> M {
            let mut m = M {
                word: Word::new(n),
                slot: [Slot::Queued, Slot::Queued, Slot::Queued, Slot::Queued],
                alt: [Alt::Idle; MAX],
                by_parent: [false; MAX],
                offered: [None; MAX],
                parent: Parent::Runs(0),
                disposed: [0; MAX],
                adopted: [0; MAX],
                withdrawn: [false; MAX],
                unparks_this_park: 0,
                deadline_seen: false,
                parks: 0,
            };
            // Alternative 0 is the caller's own: never queued.
            assert!(m.slot[0].claim());
            m.alt[0] = Alt::Ran;
            m.by_parent[0] = true;
            m
        }

        /// Alternative `i`'s next action, made by whoever runs it; an
        /// offer branches on ok/err and on-time/late.
        fn step_alt(&self, i: usize, c: Case) -> Vec<M> {
            let mut m = self.clone();
            match self.alt[i] {
                Alt::Ran => {
                    m.slot[i].put(());
                    m.alt[i] = Alt::Put;
                    vec![m]
                }
                Alt::Put => {
                    let lates: &[bool] = if c.timed { &[false, true] } else { &[false] };
                    let mut out = Vec::new();
                    for ok in [false, true] {
                        for &late in lates {
                            let mut m = self.clone();
                            let (next, verdict, wake) = m.word.offer(i, ok, late);
                            // Only a winner or the parent's own deadline
                            // can beat an on-time success; a sibling's
                            // late report cannot.
                            let beaten = matches!(m.word.phase(), Phase::Won(_)) || m.deadline_seen;
                            if ok && !late && !beaten {
                                assert_eq!(verdict, Verdict::Won, "an on-time success lost");
                            }
                            m.word = next;
                            m.offered[i] = Some((verdict, ok, late));
                            m.unparks_this_park += wake as u8;
                            let disposes = late_loser_disposes(c.elim, m.by_parent[i]);
                            m.alt[i] = match verdict {
                                Verdict::Late if disposes => Alt::Late,
                                _ => Alt::Done,
                            };
                            out.push(m);
                        }
                    }
                    out
                }
                Alt::Late => {
                    if m.slot[i].take().is_some() {
                        m.disposed[i] += 1;
                    }
                    m.alt[i] = Alt::Done;
                    vec![m]
                }
                Alt::Idle | Alt::Done => unreachable!(),
            }
        }

        /// Every state one atomic action away.
        fn successors(&self, c: Case) -> Vec<M> {
            let mut out = Vec::new();
            // Workers: claim a queued sibling, or advance one they run.
            // A worker that popped a task the parent withdrew does nothing.
            for i in 1..c.n {
                if self.alt[i] == Alt::Idle && self.slot[i] == Slot::Queued {
                    let mut m = self.clone();
                    assert!(m.slot[i].claim());
                    m.alt[i] = Alt::Ran;
                    out.push(m);
                }
                if !self.by_parent[i] && !matches!(self.alt[i], Alt::Idle | Alt::Done) {
                    out.extend(self.step_alt(i, c));
                }
            }
            out.extend(self.step_parent(c));
            out
        }

        fn step_parent(&self, c: Case) -> Vec<M> {
            let mut m = self.clone();
            match self.parent {
                Parent::Runs(i) => {
                    let mut out = self.step_alt(i, c);
                    for m in &mut out {
                        if m.alt[i] == Alt::Done {
                            m.parent = Parent::Wait1;
                        }
                    }
                    return out;
                }
                Parent::Wait1 => {
                    let mut out = Vec::new();
                    // Help: take back any still-queued sibling while an
                    // untimed block is open (not once parked: it parks
                    // only when none is left).
                    if !c.timed && self.word.phase() == Phase::Open && !self.word.parked() {
                        for j in 1..c.n {
                            if self.slot[j] == Slot::Queued {
                                let mut h = self.clone();
                                assert!(h.slot[j].claim());
                                h.alt[j] = Alt::Ran;
                                h.by_parent[j] = true;
                                h.parent = Parent::Runs(j);
                                out.push(h);
                            }
                        }
                    }
                    out.extend(self.wait(false, c));
                    return out;
                }
                Parent::Wait2 => return self.wait(true, c).into_iter().collect(),
                Parent::Withdraw(i) if i == c.n => m.parent = Parent::Release,
                Parent::Withdraw(i) => {
                    m.withdrawn[i] = m.slot[i].withdraw();
                    m.parent = Parent::Withdraw(i + 1);
                }
                Parent::Release => {
                    let k = m.withdrawn.iter().filter(|&&w| w).count();
                    m.word = m.word.release(k);
                    m.parent = match c.elim {
                        ElimMode::Sync => Parent::Wait2,
                        ElimMode::Async => Parent::Sweep(0),
                    };
                }
                Parent::Sweep(i) if i == c.n => m.parent = Parent::Done,
                Parent::Sweep(i) => {
                    if m.slot[i].take().is_some() {
                        if m.word.phase() == Phase::Won(i) {
                            m.adopted[i] += 1;
                        } else {
                            m.disposed[i] += 1;
                        }
                    } else if m.withdrawn[i] {
                        m.disposed[i] += 1;
                    }
                    m.parent = Parent::Sweep(i + 1);
                }
                Parent::Done => return Vec::new(),
            }
            vec![m]
        }

        /// One step of [`BlockWord::wait`]: leave if settled, else park
        /// (set the bit) or, once parked, time out. A parked parent with
        /// the bit still set has no other move: nobody woke it.
        fn wait(&self, all: bool, c: Case) -> Option<M> {
            let mut m = self.clone();
            if self.word.settled(all) {
                assert!(!self.word.parked(), "settled with the parent parked");
                m.parent = if all {
                    Parent::Sweep(0)
                } else {
                    Parent::Withdraw(0)
                };
            } else if !self.word.parked() {
                m.word = self.word.park();
                m.parks += 1;
                m.unparks_this_park = 0;
            } else if c.timed && !all {
                m.word = self.word.time_out();
                m.deadline_seen = true;
            } else {
                return None;
            }
            Some(m)
        }

        fn check_step(&self) {
            assert!(self.unparks_this_park <= 1, "two unparks for one park");
            let won = self
                .offered
                .iter()
                .flatten()
                .filter(|o| o.0 == Verdict::Won);
            assert!(won.count() <= 1, "two winners");
            if let Phase::Won(i) = self.word.phase() {
                assert_eq!(self.offered[i].map(|o| o.0), Some(Verdict::Won));
            }
            for i in 0..MAX {
                assert!(self.disposed[i] + self.adopted[i] <= 1, "world {i} twice");
            }
        }

        fn check_end(&self, c: Case) {
            assert_eq!(self.parent, Parent::Done, "the parent never woke: {self:?}");
            assert!(self.parks <= 1 || (c.elim == ElimMode::Sync && self.parks <= 2));
            let won: Vec<usize> = (0..c.n)
                .filter(|&i| self.offered[i].is_some_and(|o| o.0 == Verdict::Won))
                .collect();
            match self.word.phase() {
                Phase::Won(i) => assert_eq!(won, vec![i]),
                Phase::TimedOut => assert!(won.is_empty(), "timed out and won"),
                // Every alternative failed on time.
                Phase::Open => assert!((0..c.n).all(|i| self.offered[i]
                    .is_some_and(|(v, ok, late)| v == Verdict::Handed && !ok && !late))),
            }
            for i in 0..c.n {
                let winner = won.contains(&i);
                assert_eq!(self.adopted[i], winner as u8, "adoption of {i}: {self:?}");
                assert_eq!(self.disposed[i], !winner as u8, "disposal of {i}: {self:?}");
            }
            assert_eq!(self.word.holding(), 0);
        }
    }

    fn explore(c: Case) -> usize {
        let mut seen = HashSet::new();
        let mut stack = vec![M::start(c.n)];
        while let Some(m) = stack.pop() {
            if !seen.insert(m.clone()) {
                continue;
            }
            m.check_step();
            let next = m.successors(c);
            if next.is_empty() {
                m.check_end(c);
            }
            stack.extend(next);
        }
        seen.len()
    }

    #[test]
    fn every_interleaving_decides_once_and_disposes_every_world_once() {
        let mut states = 0;
        for n in 1..=MAX {
            for elim in [ElimMode::Sync, ElimMode::Async] {
                for timed in [false, true] {
                    states += explore(Case { n, elim, timed });
                }
            }
        }
        assert!(states > 10_000, "explored only {states} states");
    }

    #[test]
    fn the_word_packs_phase_winner_holding_and_parked() {
        let w = Word::new(3);
        assert_eq!(
            (w.phase(), w.holding(), w.parked()),
            (Phase::Open, 3, false)
        );
        let (w, v, wake) = w.park().offer(2, true, false);
        assert_eq!(
            (w.phase(), w.holding(), v, wake),
            (Phase::Won(2), 2, Verdict::Won, true)
        );
        assert!(!w.parked());
        let (w, v, wake) = w.offer(0, true, false);
        assert_eq!(
            (w.phase(), w.holding(), v, wake),
            (Phase::Won(2), 1, Verdict::Late, false)
        );
        let (w, _, wake) = w.park().offer(1, false, false);
        assert_eq!((w.holding(), wake, w.parked()), (0, true, false));
        let t = Word::new(2).park().time_out();
        assert_eq!((t.phase(), t.parked()), (Phase::TimedOut, false));
        // A late report leaves the block open: an on-time success whose
        // offer lands after it still wins.
        let (w, v, wake) = Word::new(3).park().offer(1, false, true);
        assert_eq!((w.phase(), v, wake), (Phase::Open, Verdict::Handed, false));
        let (w, v, _) = w.offer(2, true, false);
        assert_eq!((w.phase(), v), (Phase::Won(2), Verdict::Won));
        // Every report in, one late, none a success: timed out.
        let (w, _, _) = Word::new(2).offer(1, true, true);
        assert_eq!(w.phase(), Phase::Open);
        let (w, v, wake) = w.park().offer(0, false, false);
        assert_eq!(
            (w.phase(), v, wake),
            (Phase::TimedOut, Verdict::Handed, true)
        );
    }
}
