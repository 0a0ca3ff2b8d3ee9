//! Error types for the reasoning engine.

use crate::types::{Category, HardwareId, ParamName, SystemId};
use std::fmt;

/// Errors raised while building a catalog.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CatalogError {
    /// A system id was registered twice.
    DuplicateSystem(SystemId),
    /// A hardware id was registered twice.
    DuplicateHardware(HardwareId),
    /// An edge, rule or removal references a system not in the catalog.
    UnknownSystem(SystemId),
    /// A removal references a hardware model not in the catalog.
    UnknownHardware(HardwareId),
    /// A spec references another spec that is not registered.
    DanglingReference {
        /// The spec holding the reference.
        from: SystemId,
        /// The missing target.
        to: SystemId,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::DuplicateSystem(id) => write!(f, "duplicate system id {id}"),
            CatalogError::DuplicateHardware(id) => write!(f, "duplicate hardware id {id}"),
            CatalogError::UnknownSystem(id) => write!(f, "unknown system {id}"),
            CatalogError::UnknownHardware(id) => write!(f, "unknown hardware {id}"),
            CatalogError::DanglingReference { from, to } => {
                write!(f, "system {from} references unknown system {to}")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// Errors raised while compiling a scenario to SAT.
#[derive(Clone, PartialEq, Debug)]
pub enum CompileError {
    /// A pinned / referenced system is not in the catalog.
    UnknownSystem(SystemId),
    /// A referenced hardware model is not in the catalog.
    UnknownHardware(HardwareId),
    /// A hardware candidate was offered for the wrong inventory slot.
    WrongHardwareKind(HardwareId),
    /// A hardware model is listed more than once among an inventory slot's
    /// candidates.
    RepeatedCandidate(HardwareId),
    /// A required role has no candidate systems in the catalog.
    EmptyRole(Category),
    /// A resource amount references an undefined scenario parameter.
    MissingParam {
        /// The system whose demand failed to evaluate.
        system: SystemId,
        /// The undefined parameter.
        param: ParamName,
    },
    /// The preference order has a strict cycle in this scenario's context.
    PreferenceCycle {
        /// Systems witnessing the cycle.
        witnesses: Vec<SystemId>,
    },
    /// The catalog failed referential validation.
    InvalidCatalog(Vec<CatalogError>),
    /// An objective level's soft-constraint weights overflow `u64` when
    /// summed, so the optimum is not representable.
    ObjectiveOverflow,
    /// A weighted total the compiler must compare exactly (resource
    /// demand against capacity, workload cores) overflows `u64`.
    WeightOverflow(String),
    /// The engine reached a state its own invariants rule out (e.g. a
    /// feasible scenario turned infeasible mid-optimization). Indicates a
    /// bug in the engine, never in the scenario.
    Internal(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownSystem(id) => write!(f, "unknown system {id}"),
            CompileError::UnknownHardware(id) => write!(f, "unknown hardware {id}"),
            CompileError::WrongHardwareKind(id) => {
                write!(f, "hardware {id} offered for the wrong inventory slot")
            }
            CompileError::RepeatedCandidate(id) => {
                write!(
                    f,
                    "hardware {id} is listed more than once among the inventory candidates"
                )
            }
            CompileError::EmptyRole(cat) => {
                write!(f, "required role {cat} has no candidate systems")
            }
            CompileError::MissingParam { system, param } => {
                write!(
                    f,
                    "system {system} needs undefined scenario parameter {param}"
                )
            }
            CompileError::PreferenceCycle { witnesses } => {
                write!(f, "preference order has a strict cycle involving ")?;
                for (i, w) in witnesses.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{w}")?;
                }
                Ok(())
            }
            CompileError::InvalidCatalog(errors) => {
                write!(f, "catalog failed validation: ")?;
                for (i, e) in errors.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
            CompileError::ObjectiveOverflow => {
                write!(
                    f,
                    "objective soft-constraint weights overflow u64 when summed"
                )
            }
            CompileError::WeightOverflow(what) => {
                write!(f, "the weighted total of {what} overflows u64")
            }
            CompileError::Internal(context) => {
                write!(
                    f,
                    "internal engine inconsistency (this is a bug): {context}"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_culprit() {
        let e = CatalogError::DuplicateSystem(SystemId::new("SNAP"));
        assert!(e.to_string().contains("SNAP"));
        let e = CompileError::EmptyRole(Category::Monitoring);
        assert!(e.to_string().contains("monitoring"));
        let e = CompileError::MissingParam {
            system: SystemId::new("SIMON"),
            param: ParamName::new("num_flows"),
        };
        assert!(e.to_string().contains("SIMON") && e.to_string().contains("num_flows"));
        let e = CompileError::PreferenceCycle {
            witnesses: vec![SystemId::new("A"), SystemId::new("B")],
        };
        assert!(e.to_string().contains("A, B"));
        let e = CompileError::ObjectiveOverflow;
        assert!(e.to_string().contains("overflow"));
        let e = CompileError::WeightOverflow("cores demand".into());
        assert!(e.to_string().contains("cores demand") && e.to_string().contains("overflow"));
        let e = CompileError::Internal("optimize lost feasibility".into());
        assert!(e.to_string().contains("bug") && e.to_string().contains("optimize"));
    }
}
