//! # multiple-worlds — umbrella crate
//!
//! Re-exports the full Multiple Worlds stack (Smith & Maguire, *Exploring
//! "Multiple Worlds" in Parallel*, ICPP 1989) under one roof for the
//! examples and cross-crate integration tests. Library users normally
//! depend on the individual crates:
//!
//! * [`worlds`] — the committed-choice speculation API (start here),
//!   with two modules of the paper's own:
//!   - [`worlds::predicate`] — speculation predicates;
//!   - [`worlds::ipc`] — predicated messages and source devices;
//! * [`worlds_pagestore`] — COW single-level store;
//! * [`worlds_kernel`] — deterministic virtual-time kernel simulator, a
//!   client of [`worlds`];
//! * [`worlds_analysis`] — the paper's performance model (`PI`, `Rμ`, `Ro`);
//! * [`worlds_remote`] — distributed (rfork) execution over simulated nodes;
//! * [`worlds_apps`] — the paper's applications, one module each:
//!   - [`worlds_apps::recovery`] — recovery blocks (§4.1);
//!   - [`worlds_apps::prolog`] — OR-parallel Horn-clause engine (§4.2);
//!   - [`worlds_apps::poly`] — NAPSS-style polyalgorithms, fastest-first (§4.3);
//!   - [`worlds_apps::rootfinder`] — Jenkins–Traub rootfinder (Table I workload);
//!   - [`worlds_apps::tx`] — optimistic transactions over COW worlds (§5's framing);
//!   - `worlds_apps::os` (Unix only) — real `fork(2)` COW backend (§3.4).

pub use worlds;
pub use worlds_analysis;
pub use worlds_apps;
pub use worlds_kernel;
pub use worlds_pagestore;
pub use worlds_remote;
