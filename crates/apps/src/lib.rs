//! # worlds-apps — the paper's applications of Multiple Worlds
//!
//! Smith & Maguire have one primitive and a handful of uses for it. Each
//! use is one module here, and each depends only on the primitive
//! ([`worlds`]) or the COW store under it ([`worlds_pagestore`]):
//!
//! * [`recovery`] — recovery blocks, sequential and parallel (§4.1);
//! * [`prolog`] — an OR-parallel Horn-clause engine (§4.2);
//! * [`poly`] — NAPSS-style polyalgorithms, fastest-first (§4.3);
//! * [`rootfinder`] — the Jenkins–Traub rootfinder, the Table I workload
//!   (§4.3);
//! * [`tx`] — optimistic transactions over COW worlds, Multiple Worlds as
//!   competing transactions (§5);
//! * `os` (Unix only) — the real `fork(2)` prototype and its measurement
//!   kit (§3.4).

pub mod poly;
pub mod prolog;
pub mod recovery;
pub mod rootfinder;
pub mod tx;

#[cfg(unix)]
pub mod os;
