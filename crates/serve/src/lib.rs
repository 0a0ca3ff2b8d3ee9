//! # netarch-serve
//!
//! A multi-tenant query service over the incremental [`netarch_core::query::Engine`].
//!
//! The paper's pitch is interactive-speed reasoning; this crate is the
//! layer that keeps it interactive when many users share one deployment.
//! Three observations drive the design:
//!
//! 1. **Compilation dominates cold queries.** Building an engine means
//!    encoding the whole scenario to CNF; answering a follow-up query on
//!    an existing session is assumption-only. A cache of *compiled
//!    scenarios* therefore converts repeat traffic from
//!    compile-and-solve to solve-only.
//! 2. **Scenarios repeat, nearly.** Tenants iterate: same catalog, a
//!    tweaked workload or budget. Content-addressed fingerprints
//!    ([`netarch_core::fingerprint`]) make exact repeats cache hits. A
//!    near-repeat is new content that compiles its own session, so it
//!    gains nothing from landing beside its relatives; routing spreads
//!    distinct scenarios instead.
//! 3. **Sessions are single-threaded but independent.** One engine
//!    serves one request at a time; N engines across N worker threads
//!    scale throughput without touching the solver.
//!
//! The service ([`service::Service`]) owns a fixed pool of worker
//! threads ("shards"), each holding a small LRU of warm engine sessions
//! keyed by full scenario fingerprint. Routing is stateless and
//! deterministic: with caching on, a request goes to shard
//! `full_fingerprint % shards`, where an exact repeat finds its warm
//! session; with caching off, requests round-robin by id. Determinism
//! end to end — same request tape, same answers, same hit/miss/eviction
//! counts, regardless of thread interleaving — is a test invariant, not
//! an aspiration (see `tests/service_determinism.rs`).
//!
//! [`replay`] generates deterministic request tapes (cold / repeat /
//! near-variant mixes from a seeded PRNG) for load tests and the
//! `netarch serve-replay` CLI; [`report`] turns response streams into
//! latency/throughput summaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod replay;
pub mod report;
pub mod request;
pub mod service;

pub use replay::{generate_tape, ReplaySpec};
pub use request::{Answer, QueryKind, Request, RequestClass, Response};
pub use service::{Service, ServiceConfig, ServiceStats, ShardStats};
