//! The always-on sampling profiler for the speculation substrate.
//!
//! Wall-clock numbers lie on time-sliced hosts: a guard that *waited*
//! looks as expensive as one that *computed*. This module recovers
//! on-CPU truth statistically, with three pieces:
//!
//! * **Markers** ([`marker`]): each worker thread publishes its current
//!   `(world, site, alt, phase)` into a seqlock-protected per-thread
//!   slot at every phase boundary — task pickup, guard entry, commit,
//!   reaper drain. A transition costs a few nanoseconds; with no
//!   sampler attached it costs one relaxed load.
//! * **The sampler** ([`sampler`]): a watcher thread reads every slot
//!   at a fixed rate (default 997 Hz), accumulates per-world /
//!   per-site / per-phase tables, and flushes deltas into the obs
//!   event stream as `cpu` and `wutil` events — so span
//!   reconstruction, telemetry rollups, and trace export all inherit
//!   CPU attribution without new plumbing.
//! * **The watchdog**: a marker that stops advancing past its deadline
//!   (5 s in a guard, 30 s anywhere) emits a `stall` event and fires a
//!   rate-limited dump hook — a wedged speculation leaves a post-mortem
//!   instead of a mystery.
//!
//! [`fold`] renders the tables (or a replayed capture) as collapsed
//! folded stacks for flamegraph tooling.

pub mod fold;
pub mod marker;
pub mod sampler;

pub use fold::{parse_folded_line, render_folded_events, render_folded_tables};
pub use marker::{
    current_mark, mark, mark_always, mark_idle, markers_active, restore_mark, MarkerSample,
    MarkerSlot, Phase, MAX_PHASES, NO_ALT, NO_SITE, NO_WORLD,
};
pub use sampler::{
    SampleKey, SampleTables, Sampler, SamplerConfig, StallHook, StallInfo, DEFAULT_HZ,
};

use crate::{env, Registry};
use std::sync::{Mutex, OnceLock};

/// The process-global sampler slot. `None` once decided against.
static GLOBAL: OnceLock<Option<Mutex<Sampler>>> = OnceLock::new();

/// Stop the global sampler when the process exits normally. Without
/// this a run shorter than one flush interval — a CLI invocation under
/// `WORLDS_PROF=1` — would leave no folded output and no `cpu` events
/// at all: the sampler lives in a static and is never dropped, so the
/// periodic flush is the only flush it ever gets.
#[cfg(unix)]
fn register_exit_flush() {
    extern "C" fn flush_global_sampler() {
        if let Some(Some(m)) = GLOBAL.get() {
            m.lock().unwrap_or_else(|e| e.into_inner()).stop();
        }
    }
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| unsafe {
        libc::atexit(flush_global_sampler);
    });
}

#[cfg(not(unix))]
fn register_exit_flush() {}

/// Start the process-global sampler if [`env::PROF`] asks for one and
/// none is installed yet. Sessions call this at construction, so any
/// binary built on the speculation layer honours the switch without
/// bespoke wiring. Returns whether a global sampler is live afterwards.
/// The first caller's registry wins; the sampler runs for the rest of
/// the process.
pub fn autostart_from_env(obs: &Registry) -> bool {
    let live = GLOBAL
        .get_or_init(|| {
            env::flag(env::PROF)
                .then(|| Mutex::new(Sampler::start(SamplerConfig::from_env(), obs.clone(), None)))
        })
        .is_some();
    if live {
        register_exit_flush();
    }
    live
}

/// Snapshot the global sampler's tables, if one is live.
pub fn global_tables() -> Option<SampleTables> {
    GLOBAL
        .get()
        .and_then(|s| s.as_ref())
        .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()).tables())
}

#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
