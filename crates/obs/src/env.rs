//! The library's environment: every `WORLDS_*` knob is named here and
//! read here, with one parse rule per value type.
//!
//! | knob | type | default | read by | set by |
//! |------|------|---------|---------|--------|
//! | `WORLDS_OBS` | flag | off | [`Registry::from_env`](crate::Registry::from_env) | CI *Root-finder run report round-trips*; README, EXPERIMENTS.md |
//! | `WORLDS_OBS_JSONL` | path | none | [`Registry::from_env`](crate::Registry::from_env) (a set path alone enables the registry) | same CI step; README, EXPERIMENTS.md |
//! | `WORLDS_FLIGHT_DUMP` | path | none | the `flight_recorder` example (where its panic dump lands) | CI *Forced panic leaves a replayable flight dump*; EXPERIMENTS.md |
//! | `WORLDS_FLIGHT_DIR` | path | working directory | `worlds_telemetry::flight_dir` | the flight-dir unit test |
//! | `WORLDS_PROF` | flag | off | [`prof::autostart_from_env`](crate::prof::autostart_from_env) | CI *Sampled bench-exec leaves parseable folded stacks* and *A recorded race replays into folded stacks*; EXPERIMENTS.md |
//! | `WORLDS_PROF_HZ` | number | 997, clamped to 1..=100 000 | [`prof::SamplerConfig::from_env`](crate::prof::SamplerConfig::from_env) | same CI steps |
//! | `WORLDS_PROF_FOLDED` | path | none | [`prof::SamplerConfig::from_env`](crate::prof::SamplerConfig::from_env) | CI *Sampled bench-exec leaves parseable folded stacks* |
//! | `WORLDS_EXEC_THREADS` | number | available cores; 0 counts as unset | the global `worlds_exec::Executor` | DESIGN.md *The block executor* |
//! | `WORLDS_DEDUPE` | flag | off | `Speculation::with_obs` and `Machine::with_obs` (arm the content index) | EXPERIMENTS.md |
//! | `WORLDS_NET_CACHE_BYTES` | number | 64 MiB | `worlds_remote::DeltaCache::default` | DESIGN.md *The content index*; EXPERIMENTS.md |
//!
//! The rules:
//!
//! * a **flag** is on when it is set, non-empty and not `0`;
//! * a **path** is set when it is non-empty;
//! * a **number** is the trimmed value, parsed; anything else counts as
//!   unset.
//!
//! Range checks (the `WORLDS_PROF_HZ` clamp, `WORLDS_EXEC_THREADS > 0`)
//! stay with the crate that owns the value. Nothing is cached: every call
//! reads the process environment afresh.

use std::ffi::OsStr;
use std::path::PathBuf;
use std::str::FromStr;

/// Enable counters and histograms.
pub const OBS: &str = "WORLDS_OBS";
/// Stream every event to this JSONL file.
pub const OBS_JSONL: &str = "WORLDS_OBS_JSONL";
/// Where the `flight_recorder` example dumps its flight ring on panic.
pub const FLIGHT_DUMP: &str = "WORLDS_FLIGHT_DUMP";
/// Directory that relative flight-dump paths land in.
pub const FLIGHT_DIR: &str = "WORLDS_FLIGHT_DIR";
/// Start the process-global sampling profiler.
pub const PROF: &str = "WORLDS_PROF";
/// Sampling rate (Hz).
pub const PROF_HZ: &str = "WORLDS_PROF_HZ";
/// Rewrite cumulative folded stacks here at every sampler flush.
pub const PROF_FOLDED: &str = "WORLDS_PROF_FOLDED";
/// Worker count of the process-global executor.
pub const EXEC_THREADS: &str = "WORLDS_EXEC_THREADS";
/// Arm the page store's content index in sessions and machines.
pub const DEDUPE: &str = "WORLDS_DEDUPE";
/// Byte budget of the delta-rfork base cache.
pub const NET_CACHE_BYTES: &str = "WORLDS_NET_CACHE_BYTES";

/// The flag `name`: on when set, non-empty and not `0`.
pub fn flag(name: &str) -> bool {
    is_on(std::env::var_os(name).as_deref())
}

/// The path `name`: `None` when unset or empty.
pub fn path(name: &str) -> Option<PathBuf> {
    as_path(std::env::var_os(name).as_deref())
}

/// The number `name`: its trimmed value parsed as `T`; `None` when unset
/// or unparsable.
pub fn number<T: FromStr>(name: &str) -> Option<T> {
    as_number(std::env::var_os(name).as_deref())
}

fn is_on(v: Option<&OsStr>) -> bool {
    v.is_some_and(|v| !v.is_empty() && v != "0")
}

fn as_path(v: Option<&OsStr>) -> Option<PathBuf> {
    v.filter(|v| !v.is_empty()).map(PathBuf::from)
}

fn as_number<T: FromStr>(v: Option<&OsStr>) -> Option<T> {
    v?.to_str()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Option<&OsStr> {
        Some(OsStr::new(s))
    }

    #[test]
    fn a_flag_is_on_when_set_non_empty_and_not_zero() {
        assert!(!is_on(None));
        assert!(!is_on(v("")));
        assert!(!is_on(v("0")));
        assert!(is_on(v("1")));
        assert!(is_on(v("yes")));
    }

    #[test]
    fn a_path_is_set_when_non_empty() {
        assert_eq!(as_path(None), None);
        assert_eq!(as_path(v("")), None);
        assert_eq!(as_path(v("x")), Some(PathBuf::from("x")));
    }

    #[test]
    fn a_number_is_its_trimmed_value_parsed() {
        assert_eq!(as_number::<u64>(v(" 3 ")), Some(3));
        assert_eq!(as_number::<u64>(v("3")), Some(3));
        assert_eq!(as_number::<u64>(v("x")), None);
        assert_eq!(as_number::<u64>(v("")), None);
        assert_eq!(as_number::<u64>(None), None);
    }
}
