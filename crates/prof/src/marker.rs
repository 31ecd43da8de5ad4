//! Per-worker execution markers: what is this thread doing *right now*?
//!
//! Each participating thread owns one [`MarkerSlot`] — four cache-local
//! atomics published seqlock-style. The writer (always the owning
//! thread) bumps the sequence word to odd, stores the fields, and bumps
//! it back to even; the sampler retries any read that observes an odd or
//! changed sequence, so it never sees a torn `(world, site, alt, phase)`
//! tuple. A transition is a handful of relaxed stores plus two release
//! fences — single-digit nanoseconds on x86, where release fences
//! compile to nothing.
//!
//! Markers are **fully off by default**: until a sampler registers as a
//! reader, [`mark`] is one relaxed load and a predicted-not-taken
//! branch. Code therefore marks unconditionally at every phase boundary
//! (task pickup, guard entry, commit, reaper drain) and lets the gate
//! decide.
//!
//! Slots register lazily: the first `mark` on a thread claims a slot
//! from the process-global registry (reusing retired indices, so pool
//! workers that come and go don't grow it without bound) and a
//! thread-local guard retires the slot when the thread exits.

use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What a thread is doing, at marker granularity. Fits in a `u64` slot
/// field; `MAX_PHASES` bounds the fixed attribution grids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Phase {
    /// Parked or between tasks — not attributed to any world.
    Idle = 0,
    /// Running an executor task whose world is not (yet) known.
    Task = 1,
    /// Evaluating a guard / executing an alternative's body.
    Guard = 2,
    /// Blocked in `alt_wait` while children race (off-CPU by intent;
    /// kept distinct so the watchdog doesn't call a long race a wedge).
    Wait = 3,
    /// Adopting the winner's pages into the parent.
    Commit = 4,
    /// Tearing down a loser synchronously.
    Elim = 5,
    /// Background reaper draining a batch of losers.
    Reap = 6,
}

/// Number of distinct phases — the size of per-phase tables.
pub const MAX_PHASES: usize = 7;

impl Phase {
    /// Stable lower-case name (folded-stack and JSON field material).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::Task => "task",
            Phase::Guard => "guard",
            Phase::Wait => "wait",
            Phase::Commit => "commit",
            Phase::Elim => "elim",
            Phase::Reap => "reap",
        }
    }

    /// Inverse of `as u8`, clamping unknown values to `Idle`.
    pub fn from_u8(v: u8) -> Phase {
        match v {
            1 => Phase::Task,
            2 => Phase::Guard,
            3 => Phase::Wait,
            4 => Phase::Commit,
            5 => Phase::Elim,
            6 => Phase::Reap,
            _ => Phase::Idle,
        }
    }

    /// Everything except `Idle` and `Wait` counts as on-CPU work.
    /// `Wait` is a blocked parent — sampling it as CPU would re-create
    /// exactly the wall-clock inflation this profiler exists to remove.
    pub fn is_on_cpu(self) -> bool {
        !matches!(self, Phase::Idle | Phase::Wait)
    }
}

/// Sentinel for "no world" in a marker slot (world ids are small).
pub const NO_WORLD: u64 = u64::MAX;
/// Sentinel for "no site" in a marker slot.
pub const NO_SITE: u64 = u64::MAX;
/// Sentinel for "no alternative" in a marker slot.
pub const NO_ALT: u64 = u64::MAX;

/// One thread's published position, seqlock-protected.
#[derive(Debug)]
pub struct MarkerSlot {
    /// Even = stable, odd = mid-write. Only the owning thread writes.
    seq: AtomicU64,
    world: AtomicU64,
    site: AtomicU64,
    /// `alt` in the low 32 bits, `phase` in the high 32.
    alt_phase: AtomicU64,
    /// Retired slots stay in the registry but are skipped by readers
    /// until a new thread reclaims the index.
    retired: AtomicU64,
}

/// A consistent read of one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkerSample {
    /// World id, or `NO_WORLD`.
    pub world: u64,
    /// Interned call-site id, or `NO_SITE`.
    pub site: u64,
    /// Alternative index, or `NO_ALT`.
    pub alt: u64,
    /// Current phase.
    pub phase: Phase,
    /// Transition count at read time — the watchdog's progress signal.
    pub seq: u64,
}

impl MarkerSlot {
    fn new() -> MarkerSlot {
        MarkerSlot {
            seq: AtomicU64::new(0),
            world: AtomicU64::new(NO_WORLD),
            site: AtomicU64::new(NO_SITE),
            alt_phase: AtomicU64::new(Phase::Idle as u64),
            retired: AtomicU64::new(0),
        }
    }

    /// Publish a new position. Owning thread only.
    #[inline]
    pub fn publish(&self, world: u64, site: u64, alt: u64, phase: Phase) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        self.world.store(world, Ordering::Relaxed);
        self.site.store(site, Ordering::Relaxed);
        self.alt_phase
            .store(pack_alt_phase(alt, phase), Ordering::Relaxed);
        fence(Ordering::Release);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Read a consistent sample, retrying torn reads. Returns `None`
    /// only if the writer kept the slot mid-write for `retries`
    /// consecutive observations (practically impossible — writes are a
    /// few stores — but the sampler still accounts such a sample rather
    /// than losing it).
    pub fn sample(&self, retries: usize) -> Option<MarkerSample> {
        for _ in 0..retries.max(1) {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let world = self.world.load(Ordering::Relaxed);
            let site = self.site.load(Ordering::Relaxed);
            let ap = self.alt_phase.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            let s2 = self.seq.load(Ordering::Relaxed);
            if s1 == s2 {
                let (alt, phase) = unpack_alt_phase(ap);
                return Some(MarkerSample {
                    world,
                    site,
                    alt,
                    phase,
                    seq: s1,
                });
            }
            std::hint::spin_loop();
        }
        None
    }

    fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire) != 0
    }
}

#[inline]
fn pack_alt_phase(alt: u64, phase: Phase) -> u64 {
    let alt32 = if alt == NO_ALT {
        u32::MAX as u64
    } else {
        alt.min(u32::MAX as u64 - 1)
    };
    ((phase as u64) << 32) | alt32
}

fn unpack_alt_phase(ap: u64) -> (u64, Phase) {
    let alt32 = ap & 0xffff_ffff;
    let alt = if alt32 == u32::MAX as u64 {
        NO_ALT
    } else {
        alt32
    };
    (alt, Phase::from_u8((ap >> 32) as u8))
}

/// Process-global slot registry. Slots are append-only `Arc`s; retired
/// indices go on a free list for the next registering thread.
struct SlotRegistry {
    slots: Mutex<RegistryState>,
}

struct RegistryState {
    all: Vec<Arc<MarkerSlot>>,
    free: Vec<usize>,
}

fn registry() -> &'static SlotRegistry {
    static REG: OnceLock<SlotRegistry> = OnceLock::new();
    REG.get_or_init(|| SlotRegistry {
        slots: Mutex::new(RegistryState {
            all: Vec::new(),
            free: Vec::new(),
        }),
    })
}

/// Count of attached samplers. `mark` is a no-op while this is zero —
/// the "fully off by default with zero marker readers" gate.
static READERS: AtomicUsize = AtomicUsize::new(0);

/// Register a sampler as a marker reader. Balance with
/// [`release_reader`]; while any reader is live, `mark` pays the
/// seqlock write.
pub fn acquire_reader() {
    READERS.fetch_add(1, Ordering::SeqCst);
}

/// Drop a sampler's reader registration.
pub fn release_reader() {
    READERS.fetch_sub(1, Ordering::SeqCst);
}

/// Whether any sampler is attached (markers active).
#[inline]
pub fn markers_active() -> bool {
    READERS.load(Ordering::Relaxed) != 0
}

struct ThreadSlot {
    index: usize,
    slot: Arc<MarkerSlot>,
}

impl Drop for ThreadSlot {
    fn drop(&mut self) {
        // Park the slot at idle and retire the index for reuse.
        self.slot.publish(NO_WORLD, NO_SITE, NO_ALT, Phase::Idle);
        self.slot.retired.store(1, Ordering::Release);
        let mut st = registry().slots.lock().unwrap_or_else(|e| e.into_inner());
        st.free.push(self.index);
    }
}

thread_local! {
    static THREAD_SLOT: std::cell::RefCell<Option<ThreadSlot>> =
        const { std::cell::RefCell::new(None) };
}

#[inline]
fn with_thread_slot(f: impl FnOnce(&MarkerSlot)) {
    THREAD_SLOT.with(|cell| {
        let mut guard = cell.borrow_mut();
        if guard.is_none() {
            let mut st = registry().slots.lock().unwrap_or_else(|e| e.into_inner());
            let index = st.free.pop().unwrap_or_else(|| {
                st.all.push(Arc::new(MarkerSlot::new()));
                st.all.len() - 1
            });
            let slot = st.all[index].clone();
            slot.retired.store(0, Ordering::Release);
            slot.publish(NO_WORLD, NO_SITE, NO_ALT, Phase::Idle);
            *guard = Some(ThreadSlot { index, slot });
        }
        f(&guard.as_ref().expect("slot just installed").slot);
    });
}

/// Publish this thread's current position. One relaxed load when no
/// sampler is attached; a seqlock write (a few ns) when one is.
#[inline]
pub fn mark(world: Option<u64>, site: Option<u64>, alt: Option<u64>, phase: Phase) {
    if !markers_active() {
        return;
    }
    mark_always(world, site, alt, phase);
}

/// Publish unconditionally, even with no reader — benchmarks measure
/// the enabled-path transition cost through this.
#[inline]
pub fn mark_always(world: Option<u64>, site: Option<u64>, alt: Option<u64>, phase: Phase) {
    with_thread_slot(|slot| {
        slot.publish(
            world.unwrap_or(NO_WORLD),
            site.unwrap_or(NO_SITE),
            alt.unwrap_or(NO_ALT),
            phase,
        )
    });
}

/// Publish `Idle` — the reset every marked region ends with.
#[inline]
pub fn mark_idle() {
    mark(None, None, None, Phase::Idle);
}

/// Snapshot this thread's own marker — the save half of nesting. Only
/// the owning thread writes a slot, so reading one's own slot never
/// races. `None` when markers are off or this thread has no slot yet.
pub fn current_mark() -> Option<MarkerSample> {
    if !markers_active() {
        return None;
    }
    THREAD_SLOT.with(|cell| cell.borrow().as_ref().and_then(|ts| ts.slot.sample(8)))
}

/// Re-publish a snapshot taken with [`current_mark`] — the restore half:
/// a parent that marked `Wait` for a nested block puts its outer mark
/// back when the block returns. `None` restores to `Idle`.
pub fn restore_mark(saved: Option<MarkerSample>) {
    if !markers_active() {
        return;
    }
    match saved {
        Some(s) => with_thread_slot(|slot| slot.publish(s.world, s.site, s.alt, s.phase)),
        None => mark_always(None, None, None, Phase::Idle),
    }
}

/// Snapshot every live (non-retired) slot: `(slot_index, Arc)` pairs.
/// The sampler calls this each tick; registration is rare enough that
/// one mutex acquisition per tick is noise.
pub fn live_slots() -> Vec<(usize, Arc<MarkerSlot>)> {
    let st = registry().slots.lock().unwrap_or_else(|e| e.into_inner());
    st.all
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_retired())
        .map(|(i, s)| (i, s.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn publish_then_sample_round_trips() {
        let slot = MarkerSlot::new();
        slot.publish(7, 3, 1, Phase::Guard);
        let s = slot.sample(8).expect("uncontended read");
        assert_eq!(s.world, 7);
        assert_eq!(s.site, 3);
        assert_eq!(s.alt, 1);
        assert_eq!(s.phase, Phase::Guard);
        assert_eq!(s.seq, 2, "one transition = two sequence bumps");
    }

    #[test]
    fn sentinels_survive_packing() {
        let slot = MarkerSlot::new();
        slot.publish(NO_WORLD, NO_SITE, NO_ALT, Phase::Reap);
        let s = slot.sample(8).unwrap();
        assert_eq!(s.world, NO_WORLD);
        assert_eq!(s.site, NO_SITE);
        assert_eq!(s.alt, NO_ALT);
        assert_eq!(s.phase, Phase::Reap);
    }

    #[test]
    fn phase_names_and_codes_round_trip() {
        for p in [
            Phase::Idle,
            Phase::Task,
            Phase::Guard,
            Phase::Wait,
            Phase::Commit,
            Phase::Elim,
            Phase::Reap,
        ] {
            assert_eq!(Phase::from_u8(p as u8), p);
            assert!(!p.name().is_empty());
        }
        assert!(!Phase::Wait.is_on_cpu(), "a blocked parent is not on-CPU");
        assert!(!Phase::Idle.is_on_cpu());
        assert!(Phase::Guard.is_on_cpu());
    }

    #[test]
    fn concurrent_reads_never_tear() {
        // One writer flips between two self-consistent tuples; readers
        // must only ever observe one of the two.
        let slot = Arc::new(MarkerSlot::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let slot = slot.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if i.is_multiple_of(2) {
                        slot.publish(1, 1, 1, Phase::Guard);
                    } else {
                        slot.publish(2, 2, 2, Phase::Commit);
                    }
                    i += 1;
                }
            })
        };
        let mut seen = 0u64;
        for _ in 0..50_000 {
            if let Some(s) = slot.sample(64) {
                seen += 1;
                let a = s.world == 1 && s.site == 1 && s.alt == 1 && s.phase == Phase::Guard;
                let b = s.world == 2 && s.site == 2 && s.alt == 2 && s.phase == Phase::Commit;
                let init = s.world == NO_WORLD && s.phase == Phase::Idle;
                assert!(a || b || init, "torn read: {s:?}");
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        assert!(seen > 0, "reader starved entirely");
    }

    #[test]
    fn retired_slots_are_reused() {
        // A short-lived thread's slot index must return to the free
        // list and be handed to the next registering thread.
        let _serial = crate::test_serial();
        acquire_reader();
        std::thread::spawn(|| mark(Some(1), None, None, Phase::Task))
            .join()
            .unwrap();
        let before = live_slots().len();
        std::thread::spawn(|| mark(Some(2), None, None, Phase::Task))
            .join()
            .unwrap();
        let after = live_slots().len();
        release_reader();
        assert_eq!(before, after, "retired index was not reused");
    }

    #[test]
    fn mark_is_gated_on_readers() {
        // With no reader this thread must not register a slot. Run in a
        // fresh thread so other tests' thread-locals can't interfere.
        let _serial = crate::test_serial();
        std::thread::spawn(|| {
            let slots_before = live_slots().len();
            mark(Some(9), None, None, Phase::Guard);
            assert_eq!(
                live_slots().len(),
                slots_before,
                "gated mark must not allocate a slot"
            );
        })
        .join()
        .unwrap();
    }
}
