//! # netarch-dsl
//!
//! The declarative `.narch` scenario frontend: the paper's whole interface
//! is text the architect writes (Listings 1–3 describe systems, hardware,
//! workloads, conditional orderings, and queries as blocks), and this
//! crate is that surface syntax for the `netarch` engine.
//!
//! A `.narch` document is a sequence of HCL-ish blocks:
//!
//! ```text
//! system "SIMON" {
//!   category = monitoring
//!   solves   = [capture_delays, detect_queue_length]
//!   requires "simon-needs-nic-timestamps" {
//!     condition = nics.have(NIC_TIMESTAMPS)
//!     citation  = "Geng et al., NSDI 2019"
//!   }
//!   consumes { cores = 0.001 * num_flows }
//! }
//!
//! hardware "CISCO_CATALYST_9500_40X" {
//!   kind     = switch
//!   model    = "Cisco Catalyst 9500-40X"
//!   features = [ECN]
//!   cost_usd = 24000
//!   attrs { port_bandwidth_gbps = 10  ports = 40 }
//! }
//!
//! ordering {
//!   better    = NETCHANNEL
//!   worse     = LINUX
//!   dimension = throughput
//!   when      = link_speed_gbps >= 40
//! }
//!
//! workload "inference_app" {
//!   properties = [dc_flows, short_flows, high_priority]
//!   racks      = 0..3
//!   peak_cores = 2800
//!   needs      = [load_balancing]
//!   bound { dimension = load_balancing_quality  better_than = PACKET_SPRAY }
//! }
//!
//! scenario {
//!   params     { link_speed_gbps = 100 }
//!   roles      { monitoring = required }
//!   objectives = [maximize(latency), minimize_cost]
//! }
//!
//! query "check" { }
//! ```
//!
//! The *syntax* layer (lexer, spans, generic block parser) lives in
//! [`netarch_rt::text`]; this crate assigns meaning: [`lower`] turns
//! blocks into [`netarch_core`] `Catalog` / `Scenario` / [`QuerySpec`]
//! values with span-carrying diagnostics, and [`print`](mod@print)
//! pretty-prints those values back to canonical `.narch` text. The two are
//! inverse: `lower(parse(print(x))) == x`, which the crate's property
//! tests and the corpus's canonical-format test enforce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod lower;
pub mod print;
pub mod query;
pub mod sweep;
mod vocab;

pub use error::DslError;
pub use lower::{load_str, Loader, ScenarioDoc};
pub use print::{print_doc, print_queries, print_scenario, print_sweeps};
pub use query::QuerySpec;
pub use sweep::{AltRef, ChoiceGroup, ChoiceKind, SweepConstraint, SweepSpec};
pub use vocab::dimension_from_name;
