//! # `poly` — polyalgorithms through Multiple Worlds (§4.3)
//!
//! A *polyalgorithm* (Rice, 1968) "encapsulat\[es\] a numerical analyst's
//! knowledge into a system for solving numerical problems. The basic idea
//! is that several methods are combined along with information about the
//! circumstances under which a method is likely to be successful. As
//! different methods are tried and fail, information about the problem is
//! built up."
//!
//! The paper proposes to run such systems through Multiple Worlds by
//! "creating artificial 'alternatives' with the available solution
//! methods. Each 'alternative' tries a different solution method *first*,
//! to create alternative versions of the polyalgorithm. 'Fastest first'
//! scheduling could improve the response time properties of a system such
//! as NAPSS" — whose perceived problem was exactly performance.
//!
//! This module implements:
//!
//! * [`Method`] / [`Knowledge`] — solution methods that either produce a
//!   result or *fail informatively*, contributing facts later methods can
//!   use;
//! * [`Polyalgorithm`] — the sequential driver (likelihood-ordered
//!   attempts with knowledge accumulation) and the Multiple-Worlds
//!   *fastest-first* driver (one alternative per rotation of the method
//!   order, first success commits);
//! * [`scalar`] — a concrete instance: scalar root-finding with
//!   bisection, Newton and secant methods whose success depends on the
//!   problem, so different orderings genuinely differ in cost.

pub mod driver;
pub mod knowledge;
pub mod method;
pub mod scalar;

pub use driver::{PolyOutcome, Polyalgorithm};
pub use knowledge::Knowledge;
pub use method::{Method, MethodError};
