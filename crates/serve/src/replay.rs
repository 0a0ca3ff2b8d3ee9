//! Deterministic request-replay load generation.
//!
//! Real multi-tenant traffic is mostly iteration: a tenant poses a
//! scenario, then re-poses it (new query, same content) or nudges it
//! (same catalog, tweaked fleet size / params / budget). The generator
//! reproduces that shape as a pure function of a [`ReplaySpec`] and a
//! pool of base scenarios — every byte of the tape derives from the
//! spec's seed through the `rt` PRNG, so a tape can be regenerated
//! exactly for differential replay, bisection, or bug reports.
//!
//! Three traffic classes:
//! - **cold**: the next unseen scenario. When the base pool is
//!   exhausted, pool scenarios are re-issued with a fresh salt param so
//!   the content (and fingerprint) is genuinely new — cold always means
//!   a real compile, never an accidental cache hit.
//! - **repeat**: an exact clone of an earlier request's scenario. With
//!   caching on this is the warm path: same full fingerprint, same
//!   shard, warm session.
//! - **variant**: an earlier scenario with a mutated context (fleet
//!   size, a param, the budget). Same catalog fingerprint but a
//!   different full fingerprint, so it routes on its own, compiles, then
//!   becomes warm for its own repeats.

use netarch_core::prelude::*;
use netarch_rt::json::Json;
use netarch_rt::Rng;

use crate::request::{QueryKind, Request, RequestClass};

/// Parameters of one generated tape. All weights are relative; a weight
/// of zero disables that class or query kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplaySpec {
    /// PRNG seed; the tape is a pure function of this spec.
    pub seed: u64,
    /// Number of requests to generate.
    pub requests: usize,
    /// Weight of exact-repeat traffic.
    pub repeat_weight: u32,
    /// Weight of near-variant traffic.
    pub variant_weight: u32,
    /// Weight of cold traffic.
    pub cold_weight: u32,
    /// Weight of `check` queries.
    pub check_weight: u32,
    /// Weight of `optimize` queries.
    pub optimize_weight: u32,
    /// Weight of `enumerate` queries.
    pub enumerate_weight: u32,
    /// Weight of `capacity` queries.
    pub capacity_weight: u32,
    /// Repeat/variant requests draw their base from the last this-many
    /// issued scenarios (0 = the whole history). Tenants iterate on
    /// *recent* state; a window models that and is what makes an LRU
    /// session cache effective at all.
    pub recency_window: usize,
}

impl Default for ReplaySpec {
    fn default() -> Self {
        ReplaySpec {
            seed: 0,
            requests: 64,
            repeat_weight: 6,
            variant_weight: 3,
            cold_weight: 1,
            check_weight: 4,
            optimize_weight: 3,
            enumerate_weight: 2,
            capacity_weight: 1,
            recency_window: 12,
        }
    }
}

impl ReplaySpec {
    /// Reads a spec from a JSON object, filling absent fields from the
    /// defaults — a workload file only states what it overrides.
    pub fn from_json(json: &Json) -> Result<ReplaySpec, String> {
        let mut spec = ReplaySpec::default();
        let obj = json
            .as_object()
            .ok_or_else(|| "replay spec must be a JSON object".to_string())?;
        for (key, value) in obj {
            let n = value.as_u64().ok_or_else(|| {
                format!("replay spec field '{key}' must be a non-negative integer")
            })?;
            let as_u32 =
                || u32::try_from(n).map_err(|_| format!("replay spec field '{key}' too large"));
            match key.as_str() {
                "seed" => spec.seed = n,
                "requests" => spec.requests = n as usize,
                "repeat_weight" => spec.repeat_weight = as_u32()?,
                "variant_weight" => spec.variant_weight = as_u32()?,
                "cold_weight" => spec.cold_weight = as_u32()?,
                "check_weight" => spec.check_weight = as_u32()?,
                "optimize_weight" => spec.optimize_weight = as_u32()?,
                "enumerate_weight" => spec.enumerate_weight = as_u32()?,
                "capacity_weight" => spec.capacity_weight = as_u32()?,
                "recency_window" => spec.recency_window = n as usize,
                other => return Err(format!("unknown replay spec field '{other}'")),
            }
        }
        Ok(spec)
    }
}

/// Weighted pick over `choices`; returns the chosen index. Falls back to
/// index 0 when all weights are zero.
fn pick(rng: &mut Rng, weights: &[u32]) -> usize {
    let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    if total == 0 {
        return 0;
    }
    let mut roll = rng.gen_range(0..total);
    for (i, &w) in weights.iter().enumerate() {
        let w = u64::from(w);
        if roll < w {
            return i;
        }
        roll -= w;
    }
    weights.len() - 1
}

/// The next cold scenario: pool entries in order, then salted re-issues
/// once the pool runs dry. The salt is a context param, so the re-issue
/// shares the pool entry's catalog but has fresh full content — an
/// honest compile.
fn next_cold(pool: &[Scenario], cursor: &mut usize) -> Scenario {
    let i = *cursor;
    *cursor += 1;
    let base = pool[i % pool.len()].clone();
    if i < pool.len() {
        base
    } else {
        base.with_param(format!("cold_salt_{i}"), i as f64)
    }
}

/// Mutates a base scenario's context without touching its catalog: the
/// variant shares the base's catalog fingerprint but is new content (new
/// full fingerprint). The per-request nonce guarantees newness even when
/// the drawn mutation happens to reproduce an earlier one — a variant
/// always means a genuine compile; warm traffic comes from the repeat
/// class.
fn mutate(rng: &mut Rng, base: &Scenario, id: u64) -> Scenario {
    let scenario = base.clone().with_param("variant_nonce", id as f64);
    match rng.gen_range(0..3u32) {
        0 => {
            let mut inventory = scenario.inventory.clone();
            inventory.num_servers = (inventory.num_servers.max(1) + rng.gen_range(1..=3u64))
                .min(inventory.num_servers.max(1) * 2 + 3);
            scenario.with_inventory(inventory)
        }
        1 => scenario.with_param("replay_tweak", rng.gen_range(1..=64u64) as f64),
        _ => {
            // Loosen or introduce a budget; never tighten below the
            // current one so variants stay plausibly feasible (an
            // infeasible variant is still a valid request, just noisier).
            let base_budget = scenario.budget_usd.unwrap_or(10_000);
            scenario.with_budget(base_budget + rng.gen_range(0..=5u64) * 1_000)
        }
    }
}

fn gen_query(rng: &mut Rng, spec: &ReplaySpec, scenario: &Scenario) -> QueryKind {
    let weights = [
        spec.check_weight,
        spec.optimize_weight,
        spec.enumerate_weight,
        spec.capacity_weight,
    ];
    match pick(rng, &weights) {
        0 => QueryKind::Check,
        1 => QueryKind::Optimize,
        2 => QueryKind::Enumerate(rng.gen_range(2..=4usize)),
        _ => {
            let fleet = scenario.inventory.num_servers.max(1);
            QueryKind::Capacity(fleet + rng.gen_range(0..=2u64))
        }
    }
}

/// Generates the request tape. Pure: same `(spec, pool)` ⇒ same tape,
/// byte for byte. Panics if the pool is empty.
pub fn generate_tape(spec: &ReplaySpec, pool: &[Scenario]) -> Vec<Request> {
    assert!(
        !pool.is_empty(),
        "replay pool must contain at least one scenario"
    );
    let mut rng = Rng::seed_from_u64(spec.seed);
    let mut issued: Vec<Scenario> = Vec::new();
    let mut cold_cursor = 0usize;
    let mut tape = Vec::with_capacity(spec.requests);
    let class_weights = [spec.cold_weight, spec.repeat_weight, spec.variant_weight];
    for id in 0..spec.requests as u64 {
        // Nothing to repeat or vary until something has been issued.
        let class = if issued.is_empty() {
            RequestClass::Cold
        } else {
            match pick(&mut rng, &class_weights) {
                0 => RequestClass::Cold,
                1 => RequestClass::Repeat,
                _ => RequestClass::Variant,
            }
        };
        let window: &[Scenario] = if spec.recency_window == 0 {
            &issued
        } else {
            &issued[issued.len().saturating_sub(spec.recency_window)..]
        };
        let scenario = match class {
            RequestClass::Cold => next_cold(pool, &mut cold_cursor),
            RequestClass::Repeat => rng.choose(window).expect("issued non-empty").clone(),
            RequestClass::Variant => {
                let base = rng.choose(window).expect("issued non-empty").clone();
                mutate(&mut rng, &base, id)
            }
        };
        let query = gen_query(&mut rng, spec, &scenario);
        issued.push(scenario.clone());
        tape.push(Request {
            id,
            scenario,
            query,
            class,
        });
    }
    tape
}

#[cfg(test)]
mod tests {
    use super::*;
    use netarch_core::fingerprint::fingerprint_scenario;

    fn tiny_pool() -> Vec<Scenario> {
        let mut catalog = Catalog::new();
        catalog
            .add_system(
                SystemSpec::builder("M", Category::Monitoring)
                    .solves("see")
                    .build(),
            )
            .unwrap();
        vec![Scenario::new(catalog)
            .with_workload(Workload::builder("w").needs("see").build())
            .with_inventory(Inventory {
                num_servers: 2,
                ..Inventory::default()
            })]
    }

    #[test]
    fn tape_is_reproducible() {
        let spec = ReplaySpec {
            requests: 24,
            ..ReplaySpec::default()
        };
        let pool = tiny_pool();
        let a = generate_tape(&spec, &pool);
        let b = generate_tape(&spec, &pool);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.class, y.class);
            assert_eq!(x.query, y.query);
            assert_eq!(
                fingerprint_scenario(&x.scenario),
                fingerprint_scenario(&y.scenario)
            );
        }
    }

    #[test]
    fn classes_keep_their_promises() {
        let spec = ReplaySpec {
            requests: 40,
            seed: 7,
            ..ReplaySpec::default()
        };
        let pool = tiny_pool();
        let tape = generate_tape(&spec, &pool);
        let mut seen_full = Vec::new();
        for request in &tape {
            let fp = fingerprint_scenario(&request.scenario);
            match request.class {
                RequestClass::Cold => {
                    assert!(
                        !seen_full.contains(&fp.full),
                        "cold request {} re-issued known content",
                        request.id
                    );
                }
                RequestClass::Repeat => {
                    assert!(seen_full.contains(&fp.full), "repeat of unseen content");
                }
                RequestClass::Variant => {
                    assert!(
                        !seen_full.contains(&fp.full),
                        "variant {} collided with issued content",
                        request.id
                    );
                }
            }
            seen_full.push(fp.full);
        }
    }

    #[test]
    fn spec_json_roundtrip_with_defaults() {
        let json = netarch_rt::json::from_str(r#"{"seed": 9, "requests": 5}"#).unwrap();
        let spec = ReplaySpec::from_json(&json).unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.requests, 5);
        assert_eq!(spec.repeat_weight, ReplaySpec::default().repeat_weight);
        assert!(
            ReplaySpec::from_json(&netarch_rt::json::from_str(r#"{"bogus": 1}"#).unwrap()).is_err()
        );
    }
}
