//! # netarch-core
//!
//! The reasoning engine from *Lightweight Automated Reasoning for Network
//! Architectures* (HotNets '24): a "broad but shallow" knowledge
//! representation for network systems, hardware, and workloads, compiled
//! onto a SAT/MaxSAT substrate.
//!
//! The pieces map to the paper like so:
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Listing 1 (hardware encodings) | [`component::HardwareSpec`] |
//! | Listing 2 (system encodings) | [`component::SystemSpec`] |
//! | Listing 3 (workloads, `Optimize(...)`) | [`workload`], [`scenario::Objective`] |
//! | Figure 1 (conditional partial orders) | [`ordering`] |
//! | §3.4 (SAT-based reasoning) | [`compile`], [`query::Engine`] |
//! | §5.1 (queries) | [`query`] |
//! | §6 (explainability, equivalence classes) | [`explain`], [`query::Engine::enumerate_designs`] |
//!
//! ```
//! use netarch_core::prelude::*;
//!
//! let mut catalog = Catalog::new();
//! catalog.add_system(
//!     SystemSpec::builder("SIMON", Category::Monitoring)
//!         .solves("detect_queue_length")
//!         .requires("needs-nic-timestamps", Condition::nics_have("NIC_TIMESTAMPS"))
//!         .build(),
//! ).unwrap();
//! catalog.add_hardware(
//!     HardwareSpec::builder("CX6", HardwareKind::Nic)
//!         .feature("NIC_TIMESTAMPS")
//!         .build(),
//! ).unwrap();
//! let scenario = Scenario::new(catalog)
//!     .with_workload(Workload::builder("app").needs("detect_queue_length").build())
//!     .with_inventory(Inventory {
//!         nic_candidates: vec![HardwareId::new("CX6")],
//!         num_servers: 8,
//!         ..Inventory::default()
//!     });
//! let mut engine = Engine::new(scenario).unwrap();
//! let outcome = engine.check().unwrap();
//! assert!(outcome.design().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod catalog;
pub mod compile;
pub mod component;
pub mod condition;
pub mod disambiguate;
pub mod error;
pub mod explain;
pub mod fingerprint;
pub mod ordering;
pub mod query;
pub mod scenario;
pub mod solution;
pub mod types;
pub mod workload;

/// Convenient glob import for typical engine use.
pub mod prelude {
    pub use crate::catalog::{Catalog, CatalogDelta};
    pub use crate::component::{HardwareSpec, Requirement, ResourceDemand, SystemSpec};
    pub use crate::condition::{AmountExpr, CmpOp, Condition, StaticContext};
    pub use crate::disambiguate::{plan_questions, render_plan, Disambiguation, Question};
    pub use crate::error::{CatalogError, CompileError};
    pub use crate::explain::{render_diagnosis, suggest_relaxations};
    pub use crate::fingerprint::{
        fingerprint_catalog, fingerprint_scenario, Fingerprint, ScenarioFingerprint,
    };
    pub use crate::ordering::{Comparison, EdgeKind, OrderingEdge, PreferenceOrder, ResolvedOrder};
    pub use crate::query::{CapacityPlan, Diagnosis, Engine, MeasurementAdvice, Outcome};
    pub use crate::scenario::{Inventory, Objective, Pin, RoleRule, Scenario, ScenarioEdit};
    pub use crate::solution::Design;
    pub use crate::types::{
        Capability, Category, Dimension, Feature, HardwareId, HardwareKind, ParamName, Property,
        Resource, SystemId, WorkloadId,
    };
    pub use crate::workload::{PerformanceBound, Workload};
}
