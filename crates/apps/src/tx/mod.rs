//! # `tx` — Multiple Worlds as competing transactions (§5)
//!
//! The paper situates its mechanism against optimistic concurrency
//! control: "the notion of multiple alternatives is orthogonal to the
//! transaction concept ... Alternately, 'Multiple Worlds' could be viewed
//! as a set of **competing transactions, at most one of which will take
//! effect**", and its predicates are "optimistic in the sense that each
//! timeline assumes that it will succeed" (citing Kung & Robinson).
//!
//! This module makes that correspondence concrete by building classical
//! Kung–Robinson optimistic transactions **on the same COW substrate**:
//!
//! * [`TxManager`] — a versioned database of pages; every transaction
//!   runs against a COW snapshot world (the read phase is exactly a
//!   Multiple-Worlds fork);
//! * [`Tx`] — tracked read/write sets over page granularity;
//! * [`TxManager::commit`] — backward validation: a transaction aborts
//!   iff some transaction that committed after it began wrote a page it
//!   read (serializability); valid writes replay onto the base world;
//! * [`TxManager::run`] — the retry loop optimistic systems wrap around
//!   aborts;
//! * [`competing`] / [`competing_parallel`] — the paper's sentence as an
//!   API: run several transactions from the *same* snapshot and commit
//!   **at most one** (the first validator wins; the rest abort).

mod manager;

pub use manager::{competing, competing_parallel, Conflict, ParallelTxBody, Tx, TxBody, TxManager};
