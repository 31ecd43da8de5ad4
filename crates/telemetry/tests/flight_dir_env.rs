//! `flight_path` resolves a relative dump name against `WORLDS_FLIGHT_DIR`
//! (created on demand), and against the working directory when it is
//! unset.
//!
//! This file holds one test on purpose: it sets the process environment,
//! and each test file is its own process, so no other test reads the
//! variable while it changes.

use std::path::Path;
use worlds_obs::env;
use worlds_telemetry::flight_path;

#[test]
fn flight_path_resolves_against_env_dir() {
    // Env mutation: test process only.
    let dir = std::env::temp_dir().join("worlds_flight_dir_test");
    std::env::set_var(env::FLIGHT_DIR, &dir);
    let p = flight_path("dump.jsonl");
    assert_eq!(p, dir.join("dump.jsonl"));
    assert!(dir.is_dir(), "flight_dir creates the directory");
    // Absolute names bypass the directory.
    let abs = std::env::temp_dir().join("elsewhere.jsonl");
    assert_eq!(flight_path(&abs), abs);
    std::env::remove_var(env::FLIGHT_DIR);
    assert_eq!(flight_path("dump.jsonl"), Path::new(".").join("dump.jsonl"));
    let _ = std::fs::remove_dir_all(&dir);
}
