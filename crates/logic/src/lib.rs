//! # netarch-logic
//!
//! The logic layer between the raw CDCL solver (`netarch-sat`) and the
//! architecture reasoning engine (`netarch-core`). It provides everything
//! the HotNets '24 paper's "shim layer over SAT solvers" (§5.1) needs:
//!
//! * a propositional [`Formula`] AST with first-class cardinality operators,
//! * the Tseitin [`Encoder`] with selector-guarded assertion groups,
//! * cardinality encodings (pairwise / sequential counter / totalizer),
//! * pseudo-Boolean constraints ([`pb`]): binary-adder comparisons, and
//!   generalized-totalizer outputs for bound probes,
//! * weighted & lexicographic MaxSAT ([`maxsat`]) for
//!   `Optimize(latency > Hardware cost > monitoring)`-style objectives,
//! * order-encoded bounded integers ([`int`]) for capacity planning,
//! * minimal unsatisfiable subset extraction ([`mus`]) for diagnosis,
//! * projected model enumeration ([`enumerate`]) for design equivalence
//!   classes,
//! * solve-then-check verified solving ([`verify`]): SAT models are
//!   re-evaluated and UNSAT verdicts must carry a DRAT proof the
//!   independent checker accepts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod backend;
pub mod cardinality;
pub mod encoder;
pub mod enumerate;
pub mod int;
pub mod maxsat;
pub mod mus;
pub mod pb;
pub mod sink;
pub mod verify;

pub use ast::{Atom, Formula};
pub use backend::{backend_from_env, threads_requested, PortfolioOptions, SolveBackend};
pub use cardinality::CardEncoding;
pub use encoder::{EncodeConfig, Encoder};
pub use int::{Bound, OrderInt};
pub use maxsat::{CompiledSofts, MaxSatAlgorithm, MaxSatOutcome, Soft, WeightOverflow};
pub use mus::{GroupId, GroupedAssertions};
pub use sink::{ClauseSink, CollectSink};
pub use verify::{proofs_requested, verified_solve, Verified, VerifyError};
