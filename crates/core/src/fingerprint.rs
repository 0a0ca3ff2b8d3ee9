//! Content-addressed scenario fingerprints.
//!
//! A serving layer that caches compiled scenarios needs a cache key that
//! is (a) a pure function of scenario *content* — no pointers, no
//! iteration-order accidents, no per-process salt — and (b) insensitive
//! to representation noise that cannot change any answer: the order in
//! which systems were registered, workloads appended, pins stacked, or
//! inventory candidates listed. Everywhere the model treats a collection
//! as a set or multiset, the fingerprint combines the member digests
//! commutatively; everywhere order carries meaning (the lexicographic
//! objective stack), the combination is sequential.
//!
//! The digest is built bottom-up from **fragment digests**: each system
//! spec, hardware spec, ordering edge, workload, and pin is hashed on its
//! own (over its canonical JSON serialization, which is deterministic —
//! struct fields serialize in declaration order and maps in key order)
//! and the per-section digests are then folded into catalog / context /
//! full digests. Two users posing different questions over the *same
//! catalog* produce different full fingerprints but the same
//! [`ScenarioFingerprint::catalog`] component. The catalog digest is
//! memoized in the catalog itself, so in-process requests that share a
//! catalog object digest it once.
//!
//! The hash is 128-bit FNV-1a with a SplitMix-style finalizer on the
//! commutative paths. It is not cryptographic: a cache keyed by it trusts
//! its tenants not to engineer collisions. At 128 bits, accidental
//! collision over any realistic scenario population is negligible
//! (birthday bound ≈ 2⁶⁴ distinct scenarios).

use crate::catalog::Catalog;
use crate::scenario::Scenario;
use netarch_rt::json::ToJson;
use std::fmt;

/// A 128-bit content digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({:032x})", self.0)
    }
}

/// The layered digest of one scenario.
///
/// `full` keys exact-match caching and routing (same digest ⇒ a warm
/// compiled session can answer); `catalog` identifies the corpus (same
/// for every question posed over it, whatever the workload, pins or
/// objectives); `context` is everything but the catalog, so `full` is a
/// pure function of the other two.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScenarioFingerprint {
    /// Digest of the whole scenario.
    pub full: Fingerprint,
    /// Digest of the catalog alone (systems + hardware + ordering edges).
    pub catalog: Fingerprint,
    /// Digest of the architect's inputs (workloads, inventory, params,
    /// roles, objectives, pins, budget).
    pub context: Fingerprint,
}

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

fn fnv_bytes(mut state: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        state ^= u128::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// SplitMix64 finalizer, used to spread fragment digests before the
/// commutative sum so that structured near-collisions cannot cancel.
fn finalize64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix128(h: u128) -> u128 {
    let lo = finalize64((h as u64).wrapping_add(0x9E37_79B9_7F4A_7C15));
    let hi = finalize64(((h >> 64) as u64).wrapping_add(lo));
    (u128::from(hi) << 64) | u128::from(lo)
}

/// Digest of one fragment: a domain tag plus the fragment's canonical
/// JSON. The tag keeps fragments from different sections (e.g. a pin and
/// a workload that happen to serialize identically) in disjoint domains.
fn fragment<T: ToJson + ?Sized>(tag: &str, value: &T) -> u128 {
    let state = fnv_bytes(FNV_OFFSET, tag.as_bytes());
    let state = fnv_bytes(state, &[0]);
    fnv_bytes(state, netarch_rt::json::to_string(value).as_bytes())
}

/// Order-insensitive combination: the multiset of fragment digests fully
/// determines the result. Each digest is finalized before summing so a
/// coordinated pair of edits cannot cancel by simple arithmetic.
fn unordered(tag: &str, digests: impl Iterator<Item = u128>) -> u128 {
    let mut sum: u128 = 0;
    let mut xor: u128 = 0;
    let mut count: u64 = 0;
    for d in digests {
        let m = mix128(d);
        sum = sum.wrapping_add(m);
        xor ^= m.rotate_left(43);
        count += 1;
    }
    let state = fnv_bytes(FNV_OFFSET, tag.as_bytes());
    let state = fnv_bytes(state, &sum.to_le_bytes());
    let state = fnv_bytes(state, &xor.to_le_bytes());
    fnv_bytes(state, &count.to_le_bytes())
}

/// Order-sensitive combination (the objective stack is lexicographic:
/// swapping two levels is a different scenario).
fn ordered(tag: &str, digests: impl Iterator<Item = u128>) -> u128 {
    let mut state = fnv_bytes(FNV_OFFSET, tag.as_bytes());
    for d in digests {
        state = fnv_bytes(state, &d.to_le_bytes());
    }
    state
}

/// Digest of a catalog: systems, hardware, and ordering edges, each as an
/// unordered multiset of fragment digests. Catalog maps are already
/// id-sorted, but the combination does not rely on it — a catalog
/// assembled in any insertion order digests identically.
///
/// The digest is memoized in the catalog's shared content, so it is
/// computed once per distinct catalog object, however many clones of it
/// requests carry.
pub fn fingerprint_catalog(catalog: &Catalog) -> Fingerprint {
    *catalog
        .digest_memo()
        .get_or_init(|| digest_catalog(catalog))
}

fn digest_catalog(catalog: &Catalog) -> Fingerprint {
    let systems = unordered("systems", catalog.systems().map(|s| fragment("system", s)));
    let hardware = unordered(
        "hardware",
        catalog.hardware_specs().map(|h| fragment("hardware", h)),
    );
    let edges = unordered(
        "orderings",
        catalog.order().edges().iter().map(|e| fragment("edge", e)),
    );
    Fingerprint(ordered("catalog", [systems, hardware, edges].into_iter()))
}

fn fingerprint_context(scenario: &Scenario) -> Fingerprint {
    let workloads = unordered(
        "workloads",
        scenario.workloads.iter().map(|w| fragment("workload", w)),
    );
    let inv = &scenario.inventory;
    let inventory = ordered(
        "inventory",
        [
            unordered(
                "servers",
                inv.server_candidates.iter().map(|h| fragment("hw-id", h)),
            ),
            unordered(
                "nics",
                inv.nic_candidates.iter().map(|h| fragment("hw-id", h)),
            ),
            unordered(
                "switches",
                inv.switch_candidates.iter().map(|h| fragment("hw-id", h)),
            ),
            fragment("num-servers", &inv.num_servers),
            fragment("num-switches", &inv.num_switches),
        ]
        .into_iter(),
    );
    // Params and roles are BTreeMaps: their canonical JSON is already
    // key-ordered, so a single fragment digest is insertion-order-proof.
    let params = fragment("params", &scenario.params);
    let roles = fragment("roles", &scenario.roles);
    let objectives = ordered(
        "objectives",
        scenario.objectives.iter().map(|o| fragment("objective", o)),
    );
    let pins = unordered("pins", scenario.pins.iter().map(|p| fragment("pin", p)));
    let budget = fragment("budget", &scenario.budget_usd);
    Fingerprint(ordered(
        "context",
        [
            workloads, inventory, params, roles, objectives, pins, budget,
        ]
        .into_iter(),
    ))
}

/// Computes the layered fingerprint of a scenario.
pub fn fingerprint_scenario(scenario: &Scenario) -> ScenarioFingerprint {
    let catalog = fingerprint_catalog(&scenario.catalog);
    let context = fingerprint_context(scenario);
    let full = Fingerprint(ordered("scenario", [catalog.0, context.0].into_iter()));
    ScenarioFingerprint {
        full,
        catalog,
        context,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::SystemSpec;
    use crate::types::Category;

    #[test]
    fn empty_scenario_fingerprint_is_stable() {
        let a = fingerprint_scenario(&Scenario::new(Catalog::new()));
        let b = fingerprint_scenario(&Scenario::new(Catalog::new()));
        assert_eq!(a, b);
        assert_ne!(a.full.0, 0);
    }

    #[test]
    fn catalog_content_changes_all_layers() {
        let empty = Scenario::new(Catalog::new());
        let mut catalog = Catalog::new();
        catalog
            .add_system(SystemSpec::builder("X", Category::Monitoring).build())
            .unwrap();
        let nonempty = Scenario::new(catalog);
        let a = fingerprint_scenario(&empty);
        let b = fingerprint_scenario(&nonempty);
        assert_ne!(a.full, b.full);
        assert_ne!(a.catalog, b.catalog);
        assert_eq!(
            a.context, b.context,
            "catalog edits must not leak into context"
        );
    }

    #[test]
    fn display_is_32_hex_digits() {
        let fp = fingerprint_catalog(&Catalog::new());
        let text = fp.to_string();
        assert_eq!(text.len(), 32);
        assert!(text.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
