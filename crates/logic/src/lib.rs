//! # netarch-logic
//!
//! The logic layer between the raw CDCL solver (`netarch-sat`) and the
//! architecture reasoning engine (`netarch-core`). It provides everything
//! the HotNets '24 paper's "shim layer over SAT solvers" (§5.1) needs:
//!
//! * a propositional [`Formula`] AST with first-class cardinality operators,
//! * the Tseitin [`Encoder`] with selector-guarded assertion groups,
//! * cardinality encodings ([`cardinality`]): one size-based policy for
//!   asserted bounds, a totalizer for reified ones,
//! * pseudo-Boolean constraints ([`pb`]): guarded binary-adder `≤`
//!   comparisons, and generalized-totalizer outputs for bound probes,
//! * weighted MaxSAT by linear descent ([`maxsat`]), run level by level for
//!   `Optimize(latency > Hardware cost > monitoring)`-style objectives,
//! * order-encoded bounded integers ([`int`]) for capacity planning,
//! * minimal unsatisfiable subset extraction ([`mus`]) for diagnosis,
//! * projected model enumeration ([`enumerate`]) for the sweep's variant
//!   streams,
//! * the encoder's verify mode ([`verify`]): every SAT model is
//!   re-evaluated and every UNSAT verdict must carry a DRAT proof the
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
pub use backend::{PortfolioOptions, SolveBackend};
pub use encoder::{EncodeConfig, Encoder};
pub use int::{Bound, OrderInt};
pub use maxsat::{CompiledSofts, MaxSatOutcome, Soft, WeightOverflow};
pub use mus::{GroupId, GroupedAssertions};
pub use sink::{ClauseSink, CollectSink};
pub use verify::{proofs_requested, VerifyError};
