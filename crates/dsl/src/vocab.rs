//! Canonical surface names for the core vocabulary enums.
//!
//! Built-in variants spell as bare lower_snake identifiers; `Custom`
//! variants use an explicit `custom("name")` call (categories, dimensions)
//! or a quoted key (resources, params), so a custom name can never be
//! confused with a built-in one.

use netarch_core::prelude::*;

pub(crate) const CATEGORY_NAMES: &[(&str, Category)] = &[
    ("network_stack", Category::NetworkStack),
    ("congestion_control", Category::CongestionControl),
    ("monitoring", Category::Monitoring),
    ("firewall", Category::Firewall),
    ("virtual_switch", Category::VirtualSwitch),
    ("load_balancer", Category::LoadBalancer),
    ("transport", Category::Transport),
];

pub(crate) fn category_name(c: &Category) -> Option<&'static str> {
    CATEGORY_NAMES.iter().find(|(_, v)| v == c).map(|(n, _)| *n)
}

pub(crate) fn category_from_name(name: &str) -> Option<Category> {
    CATEGORY_NAMES.iter().find(|(n, _)| *n == name).map(|(_, v)| v.clone())
}

pub(crate) const DIMENSION_NAMES: &[(&str, Dimension)] = &[
    ("throughput", Dimension::Throughput),
    ("isolation", Dimension::Isolation),
    ("app_compatibility", Dimension::AppCompatibility),
    ("latency", Dimension::Latency),
    ("tail_latency", Dimension::TailLatency),
    ("monitoring_quality", Dimension::MonitoringQuality),
    ("deployment_ease", Dimension::DeploymentEase),
    ("load_balancing_quality", Dimension::LoadBalancingQuality),
    ("cpu_efficiency", Dimension::CpuEfficiency),
];

pub(crate) fn dimension_name(d: &Dimension) -> Option<&'static str> {
    DIMENSION_NAMES.iter().find(|(_, v)| v == d).map(|(n, _)| *n)
}

/// The built-in dimension a `.narch` file names `name`
/// (`monitoring_quality`), if any.
pub fn dimension_from_name(name: &str) -> Option<Dimension> {
    DIMENSION_NAMES.iter().find(|(n, _)| *n == name).map(|(_, v)| v.clone())
}

pub(crate) const RESOURCE_NAMES: &[(&str, Resource)] = &[
    ("cores", Resource::Cores),
    ("server_memory_gb", Resource::ServerMemoryGb),
    ("switch_memory_mb", Resource::SwitchMemoryMb),
    ("p4_stages", Resource::P4Stages),
    ("smartnic_capacity", Resource::SmartNicCapacity),
    ("qos_classes", Resource::QosClasses),
];

pub(crate) fn resource_name(r: &Resource) -> Option<&'static str> {
    RESOURCE_NAMES.iter().find(|(_, v)| v == r).map(|(n, _)| *n)
}

/// A bare identifier in resource position: built-in name or custom.
pub(crate) fn resource_from_ident(name: &str) -> Resource {
    RESOURCE_NAMES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| Resource::Custom(name.to_string()))
}

pub(crate) fn hardware_kind_name(k: HardwareKind) -> &'static str {
    match k {
        HardwareKind::Switch => "switch",
        HardwareKind::Nic => "nic",
        HardwareKind::Server => "server",
    }
}

pub(crate) fn hardware_kind_from_name(name: &str) -> Option<HardwareKind> {
    match name {
        "switch" => Some(HardwareKind::Switch),
        "nic" => Some(HardwareKind::Nic),
        "server" => Some(HardwareKind::Server),
        _ => None,
    }
}

pub(crate) fn role_rule_name(r: RoleRule) -> &'static str {
    match r {
        RoleRule::Required => "required",
        RoleRule::Optional => "optional",
        RoleRule::Forbidden => "forbidden",
    }
}

pub(crate) fn role_rule_from_name(name: &str) -> Option<RoleRule> {
    match name {
        "required" => Some(RoleRule::Required),
        "optional" => Some(RoleRule::Optional),
        "forbidden" => Some(RoleRule::Forbidden),
        _ => None,
    }
}

pub(crate) fn edge_kind_name(k: EdgeKind) -> &'static str {
    match k {
        EdgeKind::Strict => "strict",
        EdgeKind::Equal => "equal",
    }
}

pub(crate) fn edge_kind_from_name(name: &str) -> Option<EdgeKind> {
    match name {
        "strict" => Some(EdgeKind::Strict),
        "equal" => Some(EdgeKind::Equal),
        _ => None,
    }
}

pub(crate) fn cmp_op_from_binop(op: netarch_rt::text::BinOp) -> Option<CmpOp> {
    use netarch_rt::text::BinOp;
    match op {
        BinOp::Lt => Some(CmpOp::Lt),
        BinOp::Le => Some(CmpOp::Le),
        BinOp::Gt => Some(CmpOp::Gt),
        BinOp::Ge => Some(CmpOp::Ge),
        BinOp::EqEq => Some(CmpOp::Eq),
        BinOp::Add | BinOp::Mul => None,
    }
}

pub(crate) fn cmp_op_text(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
        CmpOp::Eq => "==",
    }
}
