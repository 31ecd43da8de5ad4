//! `Registry::from_env` turns observability on only when `WORLDS_OBS`
//! is a set flag (or `WORLDS_OBS_JSONL` names a file).
//!
//! This file holds one test on purpose: it sets the process environment,
//! and each test file is its own process, so no other test reads the
//! variables while they change.

use worlds_obs::Registry;

#[test]
fn from_env_round_trip() {
    // Env mutation: test process only, distinct var values per case.
    std::env::remove_var("WORLDS_OBS");
    std::env::remove_var("WORLDS_OBS_JSONL");
    assert!(!Registry::from_env().is_enabled());
    std::env::set_var("WORLDS_OBS", "0");
    assert!(!Registry::from_env().is_enabled());
    std::env::set_var("WORLDS_OBS", "1");
    assert!(Registry::from_env().is_enabled());
    std::env::remove_var("WORLDS_OBS");
}
