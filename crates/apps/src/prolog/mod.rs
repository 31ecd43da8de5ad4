//! # `prolog` — OR-parallelism over Multiple Worlds (§4.2)
//!
//! "OR-parallelism, where at least one of a list of clauses must be shown
//! true ... maps closely to our problem of attempting alternatives in
//! parallel. The alternatives are specialized to clauses of predicate
//! logic." The paper advocates *committed-choice* nondeterminism: explore
//! the matching clauses of a goal in parallel worlds, commit the first
//! derivation that succeeds, discard the rest — "since we choose only one
//! alternative, no merging is necessary".
//!
//! This module is a small but complete Horn-clause engine built for that
//! experiment:
//!
//! * [`Term`] / [`parse_program`] / [`parse_query`] — terms, clauses and a
//!   hand-rolled parser for the classical syntax
//!   (`grand(X,Z) :- parent(X,Y), parent(Y,Z).`);
//! * [`unify`] — sound unification with an occurs check;
//! * [`Database`] + [`solve`] — depth-bounded SLD resolution with
//!   backtracking (the sequential semantics the parallel version must
//!   preserve), with arithmetic builtins (`is/2`, `lt/2`, ... — prefix
//!   functors, the engine's parser being operator-free);
//! * [`or_parallel_solve`] / [`or_parallel_solve_deep`] — the Multiple-Worlds version: the top-level goal's
//!   matching clauses race as alternatives through the `worlds` API.

mod builtins;
mod db;
mod or_parallel;
mod parser;
mod solve;
mod term;
mod unify;

pub use builtins::eval_arith;
pub use db::{Clause, Database};
pub use or_parallel::{or_parallel_solve, or_parallel_solve_deep, OrParallelOutcome};
pub use parser::{parse_program, parse_query, ParseError};
pub use solve::{solve, solve_first, Bindings, SolveConfig};
pub use term::Term;
pub use unify::{unify, Subst};
