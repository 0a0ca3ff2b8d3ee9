//! Latency/throughput reporting over response streams.
//!
//! The summary JSON separates *content* fields (counts, hit rates,
//! disagreements — deterministic) from
//! *timing* fields (qps, percentiles — never reproducible). The
//! determinism suite compares summaries after [`strip_timing`], which
//! removes exactly the timing-derived keys; everything that survives
//! must be bit-identical across reruns.

use netarch_rt::jobj;
use netarch_rt::json::Json;

use crate::request::{RequestClass, Response};
use crate::service::ServiceStats;

/// Nearest-rank percentile over service times. Returns 0 for an empty
/// sample (a mix with no requests of that class).
pub fn percentile(sorted_micros: &[u64], p: f64) -> u64 {
    if sorted_micros.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted_micros.len() as f64).ceil() as usize;
    sorted_micros[rank.clamp(1, sorted_micros.len()) - 1]
}

fn latency_json(mut micros: Vec<u64>) -> Json {
    micros.sort_unstable();
    let mean = if micros.is_empty() {
        0.0
    } else {
        micros.iter().sum::<u64>() as f64 / micros.len() as f64
    };
    jobj! {
        "count": micros.len() as u64,
        "mean_us": mean,
        "p50_us": percentile(&micros, 50.0),
        "p95_us": percentile(&micros, 95.0),
        "p99_us": percentile(&micros, 99.0),
        "max_us": micros.last().copied().unwrap_or(0),
    }
}

/// Mean service time of the responses matching `keep`, in microseconds.
pub fn mean_micros(responses: &[Response], keep: impl Fn(&Response) -> bool) -> f64 {
    let sample: Vec<u64> = responses
        .iter()
        .filter(|r| keep(r))
        .map(|r| r.micros)
        .collect();
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<u64>() as f64 / sample.len() as f64
    }
}

/// Builds the service summary: request/class/cache counters, each
/// shard's request and hit counts, per-class latency, throughput, and
/// the warm-over-cold speedup that the cache is measured by.
pub fn summary(responses: &[Response], stats: &ServiceStats, elapsed_micros: u64) -> Json {
    let count_class =
        |class: RequestClass| responses.iter().filter(|r| r.class == class).count() as u64;
    let errors = responses.iter().filter(|r| r.answer.is_err()).count() as u64;
    let all: Vec<u64> = responses.iter().map(|r| r.micros).collect();
    let warm: Vec<u64> = responses
        .iter()
        .filter(|r| r.cache_hit)
        .map(|r| r.micros)
        .collect();
    let cold: Vec<u64> = responses
        .iter()
        .filter(|r| !r.cache_hit)
        .map(|r| r.micros)
        .collect();
    // Median-based: warm and cold paths carry different query mixes, and
    // a single first-time heavy query answered on a warm session would
    // dominate a mean. The median compares the typical request on each
    // path, which is the claim the cache makes.
    let mut warm_sorted = warm.clone();
    warm_sorted.sort_unstable();
    let mut cold_sorted = cold.clone();
    cold_sorted.sort_unstable();
    let warm_p50 = percentile(&warm_sorted, 50.0);
    let cold_p50 = percentile(&cold_sorted, 50.0);
    let warm_over_cold = if warm_p50 > 0 {
        cold_p50 as f64 / warm_p50 as f64
    } else {
        0.0
    };
    let qps = if elapsed_micros > 0 {
        responses.len() as f64 / (elapsed_micros as f64 / 1e6)
    } else {
        0.0
    };
    jobj! {
        "requests": responses.len() as u64,
        "cold": count_class(RequestClass::Cold),
        "repeat": count_class(RequestClass::Repeat),
        "variant": count_class(RequestClass::Variant),
        "errors": errors,
        "cache_hits": stats.cache_hits(),
        "cache_misses": stats.cache_misses(),
        "evictions": stats.evictions(),
        "compiles": stats.compiles(),
        "sessions_retained": stats.shards.iter().map(|s| s.sessions_retained).sum::<u64>(),
        "learnt_clauses": stats.learnt_clauses(),
        "shards": stats.shards.len() as u64,
        "per_shard": stats
            .shards
            .iter()
            .map(|s| jobj! { "requests": s.requests, "cache_hits": s.cache_hits })
            .collect::<Vec<Json>>(),
        "qps": qps,
        "elapsed_ms": elapsed_micros as f64 / 1000.0,
        "latency": latency_json(all),
        "warm_latency": latency_json(warm),
        "cold_latency": latency_json(cold),
        "warm_over_cold": warm_over_cold,
    }
}

/// Keys whose values derive from wall-clock measurement and therefore
/// legitimately differ between reruns of an otherwise deterministic
/// tape. Everything else in a summary must reproduce bit-for-bit.
const TIMING_KEYS: [&str; 3] = ["qps", "elapsed_ms", "warm_over_cold"];

fn is_timing_key(key: &str) -> bool {
    key.ends_with("_us") || TIMING_KEYS.contains(&key)
}

/// Recursively removes timing-derived fields, leaving the deterministic
/// content skeleton two reruns can be compared on.
pub fn strip_timing(json: &Json) -> Json {
    match json {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| !is_timing_key(k))
                .map(|(k, v)| (k.clone(), strip_timing(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_timing).collect()),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let sample = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&sample, 50.0), 50);
        assert_eq!(percentile(&sample, 95.0), 100);
        assert_eq!(percentile(&sample, 99.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn summary_keeps_per_shard_counts_through_strip_timing() {
        use crate::service::ShardStats;
        let stats = ServiceStats {
            shards: vec![
                ShardStats {
                    requests: 3,
                    cache_hits: 1,
                    ..ShardStats::default()
                },
                ShardStats {
                    requests: 2,
                    cache_hits: 0,
                    ..ShardStats::default()
                },
            ],
        };
        let stripped = strip_timing(&summary(&[], &stats, 1));
        let per_shard = stripped.get("per_shard").and_then(Json::as_array).unwrap();
        let counts: Vec<(u64, u64)> = per_shard
            .iter()
            .map(|s| {
                let count = |key| s.get(key).and_then(Json::as_u64).unwrap();
                (count("requests"), count("cache_hits"))
            })
            .collect();
        assert_eq!(counts, [(3, 1), (2, 0)]);
    }

    #[test]
    fn strip_timing_removes_only_timing() {
        let json = jobj! {
            "requests": 4u64,
            "p99_us": 123u64,
            "qps": 4.5,
            "latency": jobj! { "mean_us": 1.0, "count": 4u64 },
        };
        let stripped = strip_timing(&json);
        assert!(stripped.get("requests").is_some());
        assert!(stripped.get("p99_us").is_none());
        assert!(stripped.get("qps").is_none());
        let latency = stripped.get("latency").unwrap();
        assert!(latency.get("mean_us").is_none());
        assert!(latency.get("count").is_some());
    }
}
