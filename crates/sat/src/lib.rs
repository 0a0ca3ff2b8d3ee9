//! # netarch-sat
//!
//! A from-scratch conflict-driven clause-learning (CDCL) SAT solver. This is
//! the reasoning substrate for the `netarch` workspace, which reproduces
//! *Lightweight Automated Reasoning for Network Architectures* (HotNets '24):
//! the paper's prototype is "a shim layer over SAT solvers" (§5.1), and this
//! crate is that solver.
//!
//! Features:
//! - two-watched-literal unit propagation with blocker literals,
//! - first-UIP clause learning with local minimization,
//! - exponential VSIDS branching with phase saving,
//! - Luby restarts and LBD/activity-ranked learnt-clause deletion,
//! - incremental solving under assumptions with unsat-core extraction,
//! - model enumeration (optionally projected onto a variable subset),
//! - DRAT proof logging ([`proof`]) with an independent counter-based
//!   RUP/DRAT checker ([`checker`]) so UNSAT verdicts are certifiable,
//! - parallel solving on a probe pool ([`probes`]): persistent diversified
//!   workers racing rounds of assumption probes under first-winner-cancels,
//! - DIMACS CNF I/O,
//! - per-feature ablation switches in [`SolverConfig`].
//!
//! ```
//! use netarch_sat::{Solver, SolveResult};
//!
//! let mut solver = Solver::new();
//! let x = solver.new_var();
//! let y = solver.new_var();
//! solver.add_clause([x.positive(), y.positive()]);
//! solver.add_clause([x.negative()]);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.model_value(y), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clause;
pub mod checker;
pub mod dimacs;
pub mod enumerate;
mod heap;
mod lit;
pub mod probes;
pub mod proof;
mod solver;
mod stats;

pub use checker::{check_refutation, check_refutation_under_assumptions, CheckError, Checker};
pub use lit::{LBool, Lit, Var};
pub use probes::{lit_value_in, ProbeOutcome, ProbePool, ProbePoolConfig};
pub use proof::{DratProof, ProofSink, ProofStep};
pub use solver::{SolveResult, Solver, SolverConfig};
pub use stats::Stats;
