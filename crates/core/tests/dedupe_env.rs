//! `WORLDS_DEDUPE` is a flag: `Speculation::with_obs` and
//! `Machine::with_obs` arm the content index only when it is set,
//! non-empty and not `0`.
//!
//! This file holds one test on purpose: it sets the process environment,
//! and each test file is its own process, so no other test reads the
//! variable while it changes.

use worlds::Speculation;
use worlds_kernel::{CostModel, Machine};
use worlds_obs::{env, Registry};

fn armed() -> (bool, bool) {
    let session = Speculation::with_obs(4096, Registry::disabled());
    let machine = Machine::with_obs(CostModel::modern(1), Registry::disabled());
    (
        session.store().dedupe_enabled(),
        machine.store().dedupe_enabled(),
    )
}

#[test]
fn sessions_and_machines_read_dedupe_as_a_flag() {
    for (value, on) in [("", false), ("0", false), ("1", true), ("yes", true)] {
        std::env::set_var(env::DEDUPE, value);
        assert_eq!(armed(), (on, on), "WORLDS_DEDUPE={value:?}");
    }
    std::env::remove_var(env::DEDUPE);
    assert_eq!(armed(), (false, false), "WORLDS_DEDUPE unset");
}
