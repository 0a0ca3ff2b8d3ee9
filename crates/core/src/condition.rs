//! The rule condition DSL.
//!
//! Conditions are the right-hand sides of rules-of-thumb: "Timely requires
//! NIC timestamps", "Annulus matters only when WAN and DC traffic compete",
//! "NetChannel is preferable only at link speeds ≥ 40 Gbps" (paper §2.3,
//! Figure 1). A condition is evaluated against a *deployment context* that
//! mixes statically-known facts (scenario parameters, workload properties)
//! with solver decisions (which systems and hardware models are selected),
//! so compilation yields a [`netarch_logic::Formula`] rather than a
//! Boolean.

use crate::types::{Category, Feature, ParamName, Property, SystemId};
use netarch_rt::impl_json_enum;
use std::fmt;

/// Comparison operators for numeric parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==` (exact floating comparison; parameters are architect-supplied
    /// constants, not computed values).
    Eq,
}

impl_json_enum!(CmpOp {
    unit Lt,
    unit Le,
    unit Gt,
    unit Ge,
    unit Eq,
});

impl CmpOp {
    /// Applies the comparison.
    pub fn apply(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Eq => lhs == rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
        };
        f.write_str(s)
    }
}

/// A rule condition over the deployment context.
#[derive(Clone, PartialEq, Debug)]
pub enum Condition {
    /// Always holds.
    True,
    /// Never holds.
    False,
    /// The named system is part of the selected design.
    SystemSelected(SystemId),
    /// Some system of the category is part of the selected design.
    CategoryFilled(Category),
    /// The selected NIC model provides the feature.
    NicFeature(Feature),
    /// The selected switch model provides the feature.
    SwitchFeature(Feature),
    /// The selected server model provides the feature.
    ServerFeature(Feature),
    /// Some selected system or hardware model provides the abstract
    /// feature (e.g. `"TUNNEL_OFFLOAD"` provided by a hardware-offloaded
    /// virtual switch).
    ProvidedFeature(Feature),
    /// Some deployed workload has the property.
    WorkloadProperty(Property),
    /// A scenario parameter satisfies a comparison (statically resolved:
    /// parameters are fixed per scenario).
    Param(ParamName, CmpOp, f64),
    /// Negation.
    Not(Box<Condition>),
    /// Conjunction.
    All(Vec<Condition>),
    /// Disjunction.
    Any(Vec<Condition>),
}

impl_json_enum!(Condition {
    unit True,
    unit False,
    one SystemSelected(SystemId),
    one CategoryFilled(Category),
    one NicFeature(Feature),
    one SwitchFeature(Feature),
    one ServerFeature(Feature),
    one ProvidedFeature(Feature),
    one WorkloadProperty(Property),
    tuple Param(ParamName, CmpOp, f64),
    one Not(Box<Condition>),
    one All(Vec<Condition>),
    one Any(Vec<Condition>),
});

impl Condition {
    /// Convenience: conjunction.
    pub fn all(parts: impl IntoIterator<Item = Condition>) -> Condition {
        Condition::All(parts.into_iter().collect())
    }

    /// Convenience: disjunction.
    pub fn any(parts: impl IntoIterator<Item = Condition>) -> Condition {
        Condition::Any(parts.into_iter().collect())
    }

    /// Convenience: negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(part: Condition) -> Condition {
        Condition::Not(Box::new(part))
    }

    /// Convenience: `NICs.have(feature)` from Listing 2.
    pub fn nics_have(feature: impl Into<Feature>) -> Condition {
        Condition::NicFeature(feature.into())
    }

    /// Convenience: switches provide `feature`.
    pub fn switches_have(feature: impl Into<Feature>) -> Condition {
        Condition::SwitchFeature(feature.into())
    }

    /// Convenience: parameter comparison.
    pub fn param(name: impl Into<ParamName>, op: CmpOp, value: f64) -> Condition {
        Condition::Param(name.into(), op, value)
    }

    /// Convenience: the named system is deployed.
    pub fn system(id: impl Into<SystemId>) -> Condition {
        Condition::SystemSelected(id.into())
    }

    /// Convenience: some workload carries `property`.
    pub fn workload(property: impl Into<Property>) -> Condition {
        Condition::WorkloadProperty(property.into())
    }

    /// Systems referenced by the condition (for catalog validation).
    pub fn referenced_systems(&self) -> Vec<&SystemId> {
        let mut out = Vec::new();
        self.collect_systems(&mut out);
        out
    }

    fn collect_systems<'a>(&'a self, out: &mut Vec<&'a SystemId>) {
        match self {
            Condition::SystemSelected(id) => out.push(id),
            Condition::Not(inner) => inner.collect_systems(out),
            Condition::All(parts) | Condition::Any(parts) => {
                for p in parts {
                    p.collect_systems(out);
                }
            }
            _ => {}
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::True => write!(f, "true"),
            Condition::False => write!(f, "false"),
            Condition::SystemSelected(id) => write!(f, "deployed({id})"),
            Condition::CategoryFilled(c) => write!(f, "filled({c})"),
            Condition::NicFeature(feat) => write!(f, "NICs.have({feat})"),
            Condition::SwitchFeature(feat) => write!(f, "switches.have({feat})"),
            Condition::ServerFeature(feat) => write!(f, "servers.have({feat})"),
            Condition::ProvidedFeature(feat) => write!(f, "provided({feat})"),
            Condition::WorkloadProperty(p) => write!(f, "workload.has({p})"),
            Condition::Param(name, op, v) => write!(f, "{name} {op} {v}"),
            Condition::Not(inner) => write!(f, "not({inner})"),
            Condition::All(parts) => write_list(f, "all", parts),
            Condition::Any(parts) => write_list(f, "any", parts),
        }
    }
}

fn write_list(f: &mut fmt::Formatter<'_>, name: &str, parts: &[Condition]) -> fmt::Result {
    write!(f, "{name}(")?;
    for (i, p) in parts.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{p}")?;
    }
    write!(f, ")")
}

/// Static facts available before solving: scenario parameters and workload
/// properties are fixed per scenario, so conditions over them can be
/// resolved at compile time.
pub trait StaticContext {
    /// The value of a scenario parameter, if defined.
    fn param(&self, name: &ParamName) -> Option<f64>;

    /// Whether any deployed workload carries the property.
    fn workload_has(&self, property: &Property) -> bool;
}

impl Condition {
    /// Partially evaluates the condition against static facts, folding
    /// parameter comparisons and workload properties to constants while
    /// leaving solver-dependent parts (selections, hardware features)
    /// intact. Unknown parameters resolve to `False` — a rule gated on a
    /// parameter the architect did not supply is conservatively inactive.
    pub fn partial_eval(&self, ctx: &dyn StaticContext) -> Condition {
        match self {
            Condition::Param(name, op, value) => match ctx.param(name) {
                Some(actual) => {
                    if op.apply(actual, *value) {
                        Condition::True
                    } else {
                        Condition::False
                    }
                }
                None => Condition::False,
            },
            Condition::WorkloadProperty(p) => {
                if ctx.workload_has(p) {
                    Condition::True
                } else {
                    Condition::False
                }
            }
            Condition::Not(inner) => match inner.partial_eval(ctx) {
                Condition::True => Condition::False,
                Condition::False => Condition::True,
                other => Condition::Not(Box::new(other)),
            },
            Condition::All(parts) => {
                let mut out = Vec::new();
                for p in parts {
                    match p.partial_eval(ctx) {
                        Condition::True => {}
                        Condition::False => return Condition::False,
                        other => out.push(other),
                    }
                }
                match out.len() {
                    0 => Condition::True,
                    1 => out.pop().expect("len checked"),
                    _ => Condition::All(out),
                }
            }
            Condition::Any(parts) => {
                let mut out = Vec::new();
                for p in parts {
                    match p.partial_eval(ctx) {
                        Condition::False => {}
                        Condition::True => return Condition::True,
                        other => out.push(other),
                    }
                }
                match out.len() {
                    0 => Condition::False,
                    1 => out.pop().expect("len checked"),
                    _ => Condition::Any(out),
                }
            }
            other => other.clone(),
        }
    }
}

/// A linear expression over scenario parameters, used for resource demand
/// amounts — Listing 2's `cores_needed(CPU_FACTOR * num_flows)`.
#[derive(Clone, PartialEq, Debug)]
pub enum AmountExpr {
    /// A fixed amount.
    Const(u64),
    /// `ceil(factor × param)`.
    ParamScaled {
        /// The scenario parameter supplying the scale base.
        param: ParamName,
        /// The multiplier (e.g. the paper's `CPU_FACTOR`).
        factor: f64,
    },
    /// Sum of sub-expressions.
    Sum(Vec<AmountExpr>),
}

impl_json_enum!(AmountExpr {
    one Const(u64),
    record ParamScaled { param: ParamName, factor: f64 },
    one Sum(Vec<AmountExpr>),
});

impl AmountExpr {
    /// Evaluates against the scenario's parameter table. Unknown
    /// parameters yield an error carrying the parameter name.
    pub fn eval(&self, params: &dyn Fn(&ParamName) -> Option<f64>) -> Result<u64, ParamName> {
        match self {
            AmountExpr::Const(v) => Ok(*v),
            AmountExpr::ParamScaled { param, factor } => {
                let base = params(param).ok_or_else(|| param.clone())?;
                let v = (base * factor).ceil();
                Ok(if v <= 0.0 { 0 } else { v as u64 })
            }
            AmountExpr::Sum(parts) => {
                let mut total = 0u64;
                for p in parts {
                    total = total.saturating_add(p.eval(params)?);
                }
                Ok(total)
            }
        }
    }

    /// Convenience: a constant amount.
    pub fn constant(v: u64) -> AmountExpr {
        AmountExpr::Const(v)
    }

    /// Convenience: `factor × param`.
    pub fn scaled(param: impl Into<ParamName>, factor: f64) -> AmountExpr {
        AmountExpr::ParamScaled {
            param: param.into(),
            factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_ops() {
        assert!(CmpOp::Lt.apply(1.0, 2.0));
        assert!(!CmpOp::Lt.apply(2.0, 2.0));
        assert!(CmpOp::Le.apply(2.0, 2.0));
        assert!(CmpOp::Gt.apply(3.0, 2.0));
        assert!(CmpOp::Ge.apply(2.0, 2.0));
        assert!(CmpOp::Eq.apply(2.0, 2.0));
        assert!(!CmpOp::Eq.apply(2.0, 2.1));
    }

    #[test]
    fn display_reads_like_listing_2() {
        let c = Condition::all([
            Condition::nics_have("NIC_TIMESTAMPS"),
            Condition::param("link_speed_gbps", CmpOp::Ge, 40.0),
        ]);
        assert_eq!(
            c.to_string(),
            "all(NICs.have(NIC_TIMESTAMPS), link_speed_gbps >= 40)"
        );
    }

    #[test]
    fn referenced_systems_found_in_nesting() {
        let c = Condition::any([
            Condition::system("SNAP"),
            Condition::not(Condition::all([Condition::system("OVS"), Condition::True])),
        ]);
        let refs: Vec<&str> = c.referenced_systems().iter().map(|s| s.as_str()).collect();
        assert_eq!(refs, vec!["SNAP", "OVS"]);
    }

    #[test]
    fn amount_expr_eval() {
        let params = |name: &ParamName| match name.as_str() {
            "num_flows" => Some(10_000.0),
            _ => None,
        };
        assert_eq!(AmountExpr::constant(5).eval(&params), Ok(5));
        assert_eq!(AmountExpr::scaled("num_flows", 0.001).eval(&params), Ok(10));
        assert_eq!(
            AmountExpr::Sum(vec![
                AmountExpr::constant(2),
                AmountExpr::scaled("num_flows", 0.0001)
            ])
            .eval(&params),
            Ok(3)
        );
        assert_eq!(
            AmountExpr::scaled("missing", 1.0).eval(&params),
            Err(ParamName::new("missing"))
        );
    }

    #[test]
    fn amount_expr_rounds_up_and_clamps() {
        let params = |name: &ParamName| match name.as_str() {
            "x" => Some(2.1),
            "neg" => Some(-5.0),
            _ => None,
        };
        assert_eq!(AmountExpr::scaled("x", 1.0).eval(&params), Ok(3));
        assert_eq!(AmountExpr::scaled("neg", 1.0).eval(&params), Ok(0));
    }

    struct Ctx;
    impl StaticContext for Ctx {
        fn param(&self, name: &ParamName) -> Option<f64> {
            match name.as_str() {
                "link_speed_gbps" => Some(100.0),
                _ => None,
            }
        }
        fn workload_has(&self, property: &Property) -> bool {
            property.as_str() == "wan_traffic"
        }
    }

    #[test]
    fn partial_eval_folds_static_facts() {
        let c = Condition::all([
            Condition::param("link_speed_gbps", CmpOp::Ge, 40.0),
            Condition::workload("wan_traffic"),
            Condition::nics_have("QCN"),
        ]);
        assert_eq!(c.partial_eval(&Ctx), Condition::nics_have("QCN"));
    }

    #[test]
    fn partial_eval_short_circuits() {
        let c = Condition::all([
            Condition::param("link_speed_gbps", CmpOp::Lt, 40.0),
            Condition::nics_have("QCN"),
        ]);
        assert_eq!(c.partial_eval(&Ctx), Condition::False);

        let c = Condition::any([
            Condition::workload("wan_traffic"),
            Condition::system("SNAP"),
        ]);
        assert_eq!(c.partial_eval(&Ctx), Condition::True);
    }

    #[test]
    fn partial_eval_unknown_param_is_false() {
        let c = Condition::param("undefined", CmpOp::Ge, 1.0);
        assert_eq!(c.partial_eval(&Ctx), Condition::False);
        // Under negation, the unknown-param-false rule flips as expected.
        let c = Condition::not(Condition::param("undefined", CmpOp::Ge, 1.0));
        assert_eq!(c.partial_eval(&Ctx), Condition::True);
    }

    #[test]
    fn partial_eval_keeps_dynamic_structure() {
        let c = Condition::any([
            Condition::system("SNAP"),
            Condition::all([
                Condition::nics_have("QCN"),
                Condition::param("link_speed_gbps", CmpOp::Ge, 40.0),
            ]),
        ]);
        let r = c.partial_eval(&Ctx);
        assert_eq!(
            r,
            Condition::any([Condition::system("SNAP"), Condition::nics_have("QCN")])
        );
    }

    #[test]
    fn json_roundtrip() {
        let c = Condition::all([
            Condition::nics_have("QCN"),
            Condition::workload("wan_traffic"),
            Condition::param("link_speed_gbps", CmpOp::Ge, 40.0),
        ]);
        let text = netarch_rt::json::to_string(&c);
        assert_eq!(netarch_rt::json::from_str::<Condition>(&text).unwrap(), c);
    }
}
