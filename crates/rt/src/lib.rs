//! `netarch-rt` — the zero-dependency runtime layer of the `netarch`
//! workspace.
//!
//! Every capability the workspace previously pulled from crates.io is
//! implemented here against the standard library alone:
//!
//! * [`rng`] — a seedable SplitMix64 / Xoshiro256++ PRNG with the
//!   `gen_range` / `gen_bool` / `shuffle` / `choose` surface the rest of
//!   the workspace uses for randomized tests and simulated extraction.
//! * [`json`] — a [`json::Json`] value type with a recursive-descent
//!   parser, a serializer (compact and pretty), and the
//!   [`json::ToJson`] / [`json::FromJson`] trait pair plus declarative
//!   macros for deriving both on structs and enums.
//! * [`prop`] — a minimal property-testing harness: seeded case
//!   generation, an iteration budget, failure-seed reporting, and basic
//!   shrinking for integers and vectors.
//! * [`bench`](mod@bench) — a warmup+measure timing harness reporting min,
//!   median, and p95 per benchmark.
//! * [`text`] — a lexer with line/column spans and a recursive-descent
//!   parser for HCL-ish block syntax (the `.narch` scenario frontend's
//!   syntax layer; semantics live in `netarch-dsl`).
//!
//! The crate is intentionally dependency-free (including
//! dev-dependencies) so the whole workspace builds and tests offline;
//! see DESIGN.md ("The `netarch-rt` layer").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod json;
pub mod prop;
pub mod rng;
pub mod text;

pub use json::{FromJson, Json, ToJson};
pub use rng::Rng;
