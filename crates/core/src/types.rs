//! Foundational identifiers and vocabulary types.
//!
//! The paper's encoding style (Listings 1–3) names systems, hardware,
//! capabilities, hardware features, workload properties and preference
//! dimensions as opaque tokens — "we don't assign semantics to any
//! individual property" (§6, proof modularity). These newtypes keep those
//! token spaces from mixing while staying open-ended: any string is a
//! valid capability or feature, so new systems can be encoded without
//! touching the engine.

use netarch_rt::impl_json_enum;
use netarch_rt::json::{FromJson, Json, JsonError, JsonKey, ToJson};
use std::fmt;

macro_rules! string_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub String);

        impl $name {
            /// Creates an identifier from anything string-like.
            pub fn new(value: impl Into<String>) -> $name {
                $name(value.into())
            }

            /// The identifier text.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl From<&str> for $name {
            fn from(value: &str) -> $name {
                $name(value.to_string())
            }
        }

        impl From<String> for $name {
            fn from(value: String) -> $name {
                $name(value)
            }
        }

        // Ids serialize transparently as their inner string, and double
        // as JSON object keys.
        impl ToJson for $name {
            fn to_json(&self) -> Json {
                Json::Str(self.0.clone())
            }
        }

        impl FromJson for $name {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                Ok($name(String::from_json(j)?))
            }
        }

        impl JsonKey for $name {
            fn to_key(&self) -> String {
                self.0.clone()
            }
            fn from_key(key: &str) -> Result<Self, JsonError> {
                Ok($name(key.to_string()))
            }
        }
    };
}

string_id! {
    /// Identifies a deployable software system (e.g. `"SNAP"`, `"SIMON"`).
    SystemId
}

string_id! {
    /// Identifies a hardware model (e.g. `"CISCO_CATALYST_9500_40X"`).
    HardwareId
}

string_id! {
    /// Identifies a workload (e.g. `"ml_inference"`).
    WorkloadId
}

string_id! {
    /// A capability a system can provide — the paper's `solves = [...]`
    /// tokens, e.g. `"capture_delays"`, `"detect_queue_length"`.
    Capability
}

string_id! {
    /// A hardware feature flag, e.g. `"NIC_TIMESTAMPS"`, `"INT"`, `"QCN"`.
    Feature
}

string_id! {
    /// A workload property, e.g. `"dc_flows"`, `"short_flows"`,
    /// `"high_priority"`, `"wan_traffic"`.
    Property
}

string_id! {
    /// A named numeric scenario parameter, e.g. `"link_speed_gbps"`.
    ParamName
}

/// Implements [`JsonKey`] for an enum whose variants are unit names plus
/// one `Custom(String)` escape hatch: keys are the variant name, with
/// `Custom` values spelled `Custom:<name>`.
macro_rules! enum_json_key {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl JsonKey for $ty {
            fn to_key(&self) -> String {
                match self {
                    $($ty::$variant => stringify!($variant).to_string(),)+
                    $ty::Custom(name) => format!("Custom:{name}"),
                }
            }
            fn from_key(key: &str) -> Result<Self, JsonError> {
                $(if key == stringify!($variant) {
                    return Ok($ty::$variant);
                })+
                if let Some(name) = key.strip_prefix("Custom:") {
                    return Ok($ty::Custom(name.to_string()));
                }
                Err(JsonError(format!(
                    "unknown {} key `{key}`",
                    stringify!($ty)
                )))
            }
        }
    };
}

/// The functional role a system fills in the architecture. The paper's
/// prototype spans seven categories (§5.1).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Category {
    /// End-host network stacks (Linux, Snap, Shenango, …).
    NetworkStack,
    /// Congestion control algorithms (Cubic, DCTCP, Swift, …).
    CongestionControl,
    /// Network monitoring / telemetry (Simon, Sonata, Marple, …).
    Monitoring,
    /// Firewalls and packet filters.
    Firewall,
    /// Virtual switches (OVS, Andromeda, VFP, …).
    VirtualSwitch,
    /// Load balancing schemes (ECMP, packet spraying, …).
    LoadBalancer,
    /// Transport protocols (TCP, RDMA/RoCE, QUIC, …).
    Transport,
    /// An extension category not among the paper's seven.
    Custom(String),
}

impl_json_enum!(Category {
    unit NetworkStack,
    unit CongestionControl,
    unit Monitoring,
    unit Firewall,
    unit VirtualSwitch,
    unit LoadBalancer,
    unit Transport,
    one Custom(String),
});

enum_json_key!(Category {
    NetworkStack,
    CongestionControl,
    Monitoring,
    Firewall,
    VirtualSwitch,
    LoadBalancer,
    Transport,
});

impl Category {
    /// All built-in categories, in display order.
    pub fn builtin() -> [Category; 7] {
        [
            Category::NetworkStack,
            Category::CongestionControl,
            Category::Monitoring,
            Category::Firewall,
            Category::VirtualSwitch,
            Category::LoadBalancer,
            Category::Transport,
        ]
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Category::NetworkStack => write!(f, "network-stack"),
            Category::CongestionControl => write!(f, "congestion-control"),
            Category::Monitoring => write!(f, "monitoring"),
            Category::Firewall => write!(f, "firewall"),
            Category::VirtualSwitch => write!(f, "virtual-switch"),
            Category::LoadBalancer => write!(f, "load-balancer"),
            Category::Transport => write!(f, "transport"),
            Category::Custom(name) => write!(f, "custom:{name}"),
        }
    }
}

/// A preference dimension along which systems are partially ordered —
/// the colored edges of the paper's Figure 1 plus the dimensions used by
/// Listings 2–3.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Dimension {
    /// Sustained data rate (Figure 1, yellow).
    Throughput,
    /// Inter-tenant/process isolation (Figure 1, red).
    Isolation,
    /// How little application modification is needed (Figure 1, blue;
    /// higher = fewer modifications required).
    AppCompatibility,
    /// End-to-end latency (lower is better; higher rank = lower latency).
    Latency,
    /// Tail latency specifically.
    TailLatency,
    /// Monitoring fidelity (Listing 2: Simon ≻ Pingmesh).
    MonitoringQuality,
    /// Operational ease of rollout (Listing 2: Pingmesh ≻ Simon).
    DeploymentEase,
    /// Quality of load balancing (Listing 3's performance bound).
    LoadBalancingQuality,
    /// CPU efficiency of the data path.
    CpuEfficiency,
    /// An extension dimension.
    Custom(String),
}

impl_json_enum!(Dimension {
    unit Throughput,
    unit Isolation,
    unit AppCompatibility,
    unit Latency,
    unit TailLatency,
    unit MonitoringQuality,
    unit DeploymentEase,
    unit LoadBalancingQuality,
    unit CpuEfficiency,
    one Custom(String),
});

impl fmt::Display for Dimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dimension::Throughput => write!(f, "throughput"),
            Dimension::Isolation => write!(f, "isolation"),
            Dimension::AppCompatibility => write!(f, "app-compatibility"),
            Dimension::Latency => write!(f, "latency"),
            Dimension::TailLatency => write!(f, "tail-latency"),
            Dimension::MonitoringQuality => write!(f, "monitoring-quality"),
            Dimension::DeploymentEase => write!(f, "deployment-ease"),
            Dimension::LoadBalancingQuality => write!(f, "load-balancing-quality"),
            Dimension::CpuEfficiency => write!(f, "cpu-efficiency"),
            Dimension::Custom(name) => write!(f, "custom:{name}"),
        }
    }
}

/// A consumable deployment resource (§2.2 "Resource contention").
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Resource {
    /// Server CPU cores.
    Cores,
    /// Server memory, GiB.
    ServerMemoryGb,
    /// Switch table/buffer memory, MiB.
    SwitchMemoryMb,
    /// Programmable-switch pipeline stages.
    P4Stages,
    /// SmartNIC processing capacity, percent of one NIC (100 = whole NIC).
    SmartNicCapacity,
    /// Distinct QoS classes available in the fabric.
    QosClasses,
    /// An extension resource.
    Custom(String),
}

impl_json_enum!(Resource {
    unit Cores,
    unit ServerMemoryGb,
    unit SwitchMemoryMb,
    unit P4Stages,
    unit SmartNicCapacity,
    unit QosClasses,
    one Custom(String),
});

enum_json_key!(Resource {
    Cores,
    ServerMemoryGb,
    SwitchMemoryMb,
    P4Stages,
    SmartNicCapacity,
    QosClasses,
});

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Cores => write!(f, "cores"),
            Resource::ServerMemoryGb => write!(f, "server-memory-gb"),
            Resource::SwitchMemoryMb => write!(f, "switch-memory-mb"),
            Resource::P4Stages => write!(f, "p4-stages"),
            Resource::SmartNicCapacity => write!(f, "smartnic-capacity"),
            Resource::QosClasses => write!(f, "qos-classes"),
            Resource::Custom(name) => write!(f, "custom:{name}"),
        }
    }
}

/// Hardware kind: which slot of the inventory a model competes for.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum HardwareKind {
    /// Top-of-rack / fabric switches.
    Switch,
    /// Server NICs.
    Nic,
    /// Server SKUs.
    Server,
}

impl_json_enum!(HardwareKind {
    unit Switch,
    unit Nic,
    unit Server,
});

impl JsonKey for HardwareKind {
    fn to_key(&self) -> String {
        match self {
            HardwareKind::Switch => "Switch".to_string(),
            HardwareKind::Nic => "Nic".to_string(),
            HardwareKind::Server => "Server".to_string(),
        }
    }
    fn from_key(key: &str) -> Result<Self, JsonError> {
        match key {
            "Switch" => Ok(HardwareKind::Switch),
            "Nic" => Ok(HardwareKind::Nic),
            "Server" => Ok(HardwareKind::Server),
            other => Err(JsonError(format!("unknown HardwareKind key `{other}`"))),
        }
    }
}

impl fmt::Display for HardwareKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HardwareKind::Switch => write!(f, "switch"),
            HardwareKind::Nic => write!(f, "nic"),
            HardwareKind::Server => write!(f, "server"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netarch_rt::json;

    #[test]
    fn id_construction_and_display() {
        let s = SystemId::new("SNAP");
        assert_eq!(s.as_str(), "SNAP");
        assert_eq!(s.to_string(), "SNAP");
        assert_eq!(format!("{s:?}"), "SystemId(SNAP)");
        let s2: SystemId = "SNAP".into();
        assert_eq!(s, s2);
    }

    #[test]
    fn ids_of_different_types_do_not_mix() {
        // Compile-time property; runtime sanity that values are distinct
        // wrappers over the same text.
        let sys = SystemId::new("X");
        let hw = HardwareId::new("X");
        assert_eq!(sys.as_str(), hw.as_str());
    }

    #[test]
    fn category_display_roundtrips_against_builtin() {
        let all = Category::builtin();
        assert_eq!(all.len(), 7);
        let names: Vec<String> = all.iter().map(|c| c.to_string()).collect();
        assert!(names.contains(&"network-stack".to_string()));
        assert_eq!(Category::Custom("cache".into()).to_string(), "custom:cache");
    }

    #[test]
    fn json_roundtrip() {
        let c = Category::CongestionControl;
        let text = json::to_string(&c);
        assert_eq!(json::from_str::<Category>(&text).unwrap(), c);

        let d = Dimension::MonitoringQuality;
        let text = json::to_string(&d);
        assert_eq!(json::from_str::<Dimension>(&text).unwrap(), d);

        let id = SystemId::new("SIMON");
        let text = json::to_string(&id);
        assert_eq!(text, "\"SIMON\"");
        assert_eq!(json::from_str::<SystemId>(&text).unwrap(), id);
    }

    #[test]
    fn custom_variants_roundtrip() {
        let c = Category::Custom("cache".into());
        let text = json::to_string(&c);
        assert_eq!(text, r#"{"Custom":"cache"}"#);
        assert_eq!(json::from_str::<Category>(&text).unwrap(), c);
    }

    #[test]
    fn map_keys_roundtrip() {
        for kind in [
            HardwareKind::Switch,
            HardwareKind::Nic,
            HardwareKind::Server,
        ] {
            assert_eq!(HardwareKind::from_key(&kind.to_key()).unwrap(), kind);
        }
        for cat in Category::builtin() {
            assert_eq!(Category::from_key(&cat.to_key()).unwrap(), cat);
        }
        let custom = Resource::Custom("fpga-luts".into());
        assert_eq!(Resource::from_key(&custom.to_key()).unwrap(), custom);
        assert!(Category::from_key("NoSuch").is_err());
    }

    #[test]
    fn resource_display() {
        assert_eq!(Resource::SmartNicCapacity.to_string(), "smartnic-capacity");
        assert_eq!(
            Resource::Custom("fpga-luts".into()).to_string(),
            "custom:fpga-luts"
        );
    }
}
