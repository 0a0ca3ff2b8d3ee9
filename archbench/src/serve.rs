//! `serve`: the `exp_serve` tenant pool and its repeat/variant/cold mix,
//! replayed offline through `Service` with every request submitted at t0.
//! Two shards with the cache on: the only workload with fingerprint
//! routing and the warm-session LRU, mixing hits with misses that compile
//! and evict.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use netarch_core::fingerprint::fingerprint_scenario;
use netarch_core::prelude::*;
use netarch_logic::SolveBackend;
use netarch_rt::Rng;
use netarch_serve::request::run_query;
use netarch_serve::{
    generate_tape, Answer, QueryKind, ReplaySpec, Request, Response, Service, ServiceConfig,
};

use crate::architect::{optimize_mirror, Counters};
use crate::trace::Tracer;
use crate::{stats, Args, Outcome};

/// Requests per tape. 480 holds `ops_per_s` and `latency_p95_ms` steady
/// where 240 did not, and leaves 24 samples beyond p95.
const TAPE_REQUESTS: usize = 480;

/// Set-up repetitions timed after each tape. The set-up is `Service::start`,
/// which spawns the shard threads: a step of tens of microseconds, so
/// many repetitions keep one slow spawn from moving the median.
const SETUP_REPS: usize = 40;

/// Tapes a run replays at least. The p95 rank of one tape sits two
/// requests from the gap between the 30- and 45-system optimize clusters
/// and moved 20% between runs; two tapes pool twice the samples.
const MIN_TAPES: usize = 2;

fn config() -> ServiceConfig {
    ServiceConfig {
        shards: 2,
        sessions_per_shard: 8,
        cache: true,
        backend: SolveBackend::Sequential,
    }
}

/// `exp_serve`'s tenant base scenario over a sub-corpus of `n_systems`,
/// with the tenant's workload demand.
fn base_scenario(n_systems: usize, n_hardware: usize, peak_cores: u64, num_flows: u64) -> Scenario {
    let catalog = netarch_bench::subset_catalog(n_systems, n_hardware);
    let first3 = |kind| -> Vec<HardwareId> {
        catalog
            .hardware_of_kind(kind)
            .iter()
            .take(3)
            .map(|h| h.id.clone())
            .collect()
    };
    let inventory = Inventory {
        nic_candidates: first3(HardwareKind::Nic),
        switch_candidates: first3(HardwareKind::Switch),
        server_candidates: Vec::new(),
        num_servers: 16,
        num_switches: 2,
    };
    Scenario::new(catalog.clone())
        .with_workload(
            Workload::builder("app")
                .property("dc_flows")
                .peak_cores(peak_cores)
                .num_flows(num_flows)
                .needs("host_networking")
                .build(),
        )
        .with_param("link_speed_gbps", 100.0)
        .with_objective(Objective::MinimizeCost)
        .with_inventory(inventory)
}

/// `exp_serve`'s full-run pool: two tenants at each of four corpus sizes.
/// The seed draws each tenant's workload demand around `exp_serve`'s
/// (200 peak cores, 10k flows).
fn pool(seed: u64) -> Vec<Scenario> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x7E4A_4701);
    let mut scenarios = Vec::new();
    for (n_systems, n_hardware) in [(30, 30), (45, 40), (60, 50), (70, 60)] {
        for t in 0..2 {
            let cores = rng.gen_range(160..=240u64);
            let flows = rng.gen_range(8..=12u64) * 1_000;
            scenarios.push(
                base_scenario(n_systems, n_hardware, cores, flows)
                    .with_param(format!("tenant_{t}"), f64::from(t)),
            );
        }
    }
    scenarios
}

/// The tape: `exp_serve`'s replay spec, so its class, query and tenant
/// sequence is `exp_serve`'s at every seed, over the seeded pool. Tapes
/// drawn from other spec seeds differ in how many large-tenant optimizes
/// miss the cache, which moved `ops_per_s` by 36% between seeds.
fn tape(seed: u64) -> Vec<Request> {
    let spec = ReplaySpec {
        seed: 0x5E12_4E01,
        requests: TAPE_REQUESTS,
        ..ReplaySpec::default()
    };
    generate_tape(&spec, &pool(seed))
}

/// Submits the whole tape at t0 and drains it. Returns responses, the
/// exact counters, and the wall time from first submit to last response.
fn replay(requests: Vec<Request>, tracer: &mut Tracer) -> (Vec<Response>, [u64; 4], f64) {
    let mut service = Service::start(config());
    let started = Instant::now();
    for request in requests {
        tracer.set_op(request.id + 1);
        let open = tracer.enter("serve.submit");
        service.submit(request);
        tracer.exit(open);
    }
    tracer.set_op(0);
    let open = tracer.enter("serve.finish");
    let (responses, stats) = service.finish();
    tracer.exit(open);
    let wall = started.elapsed().as_secs_f64();
    let counts = [
        stats.cache_hits(),
        stats.cache_misses(),
        stats.compiles(),
        stats.evictions(),
    ];
    (responses, counts, wall)
}

type Key = (u128, String);

fn key(request: &Request) -> Key {
    (
        fingerprint_scenario(&request.scenario).full.0,
        format!("{:?}", request.query),
    )
}

/// One request of each distinct (scenario, query) pair, in tape order.
fn distinct(tape: &[Request]) -> Vec<(Key, &Request)> {
    let mut seen = HashMap::new();
    let mut out = Vec::new();
    for request in tape {
        let k = key(request);
        if seen.insert(k.clone(), ()).is_none() {
            out.push((k, request));
        }
    }
    out
}

/// The fresh-engine oracle of `exp_serve`, once per distinct pair, on
/// two threads.
fn oracle(tape: &[Request]) -> HashMap<Key, Result<Answer, String>> {
    let pairs = distinct(tape);
    let (left, right) = pairs.split_at(pairs.len() / 2);
    let answer = |chunk: &[(Key, &Request)]| -> Vec<(Key, Result<Answer, String>)> {
        chunk
            .iter()
            .map(|(k, r)| {
                let answer = Engine::with_backend(r.scenario.clone(), SolveBackend::Sequential)
                    .map_err(|e| e.to_string())
                    .and_then(|mut engine| run_query(&mut engine, &r.query));
                (k.clone(), answer)
            })
            .collect()
    };
    std::thread::scope(|s| {
        let other = s.spawn(|| answer(right));
        let mut out = answer(left);
        out.extend(other.join().expect("oracle thread panicked"));
        out.into_iter().collect()
    })
}

fn check(
    out: &mut Outcome,
    tape: &[Request],
    responses: &[Response],
    expected: &HashMap<Key, Result<Answer, String>>,
) {
    if responses.len() != tape.len() {
        out.fail(format!(
            "{} responses to {} requests",
            responses.len(),
            tape.len()
        ));
    }
    for (request, response) in tape.iter().zip(responses) {
        if response.answer != expected[&key(request)] {
            out.fail(format!(
                "request {} ({:?}, hit={}): service {:?}, oracle {:?}",
                request.id,
                request.query,
                response.cache_hit,
                response.answer,
                expected[&key(request)]
            ));
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return run_traced(args);
    }
    let mut out = Outcome::default();
    let tape = tape(args.seed);
    let mut latencies = Vec::new();
    let mut runs = Vec::new();
    let (setup_s, walls) = crate::run_passes(
        args.seconds,
        MIN_TAPES,
        || Ok(Service::start(config())),
        |service| drop(service.finish()),
        |sample_setup| {
            let (responses, counts, _) = replay(tape.clone(), &mut Tracer::new(false));
            latencies.extend(responses.iter().map(|r| r.micros as f64 / 1e3));
            runs.push((responses, counts));
            (0..SETUP_REPS).try_for_each(|_| sample_setup())
        },
    )?;
    crate::end_to_end(&mut out, setup_s, &latencies, &walls)?;

    let expected = oracle(&tape);
    for (responses, counts) in &runs {
        out.attempted += responses.len() as u64;
        check(&mut out, &tape, responses, &expected);
        if *counts != runs[0].1 {
            out.fail(format!("replays of one tape disagree on hits/misses/compiles/evictions: {counts:?} vs {:?}", runs[0].1));
        }
    }
    println!(
        "{} tape(s); hits/misses/compiles/evictions {:?}",
        runs.len(),
        runs[0].1
    );
    Ok(out)
}

fn kind(query: &QueryKind) -> &'static str {
    match query {
        QueryKind::Check => "core.check",
        QueryKind::Optimize => "core.optimize",
        QueryKind::Enumerate(_) => "core.enumerate",
        QueryKind::Capacity(_) => "core.capacity",
    }
}

/// The traced run: fingerprint every request, replay the tape untraced
/// (overhead baseline) and traced, then replay every distinct request on
/// a fresh engine with spans on each layer (optimize through the mirror).
/// That replay checks the service's answers and attributes the p95 tail.
fn run_traced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(true);
    let tape = tape(args.seed);
    for request in &tape {
        tracer.set_op(request.id + 1);
        std::hint::black_box(tracer.time("core.fingerprint", || {
            fingerprint_scenario(&request.scenario)
        }));
    }
    let (responses, counts, traced_s) = replay(tape.clone(), &mut tracer);
    let (_, _, untraced_s) = replay(tape.clone(), &mut Tracer::new(false));

    // Distinct-request replay: per-layer breakdown and the oracle check.
    let mut counters = Counters::default();
    let mut breakdown: HashMap<Key, BTreeMap<&'static str, u64>> = HashMap::new();
    let pairs = distinct(&tape);
    for (k, request) in &pairs {
        let first_span = tracer.spans().len();
        tracer.set_op(request.id + 1);
        let open = tracer.enter("op");
        let digest = if request.query == QueryKind::Optimize {
            optimize_mirror(
                &request.scenario,
                &SolveBackend::Sequential,
                &mut tracer,
                &mut counters,
            )
            .map(|a| a.digest)
        } else {
            let open = tracer.enter("core.compile");
            let engine = Engine::with_backend(request.scenario.clone(), SolveBackend::Sequential);
            tracer.exit(open);
            engine.map_err(|e| e.to_string()).and_then(|mut engine| {
                let answer = tracer.time(kind(&request.query), || {
                    run_query(&mut engine, &request.query)
                });
                counters.absorb_engine(&engine);
                answer.map(|a| format!("{a:?}"))
            })
        };
        tracer.exit(open);
        out.attempted += 1;
        let service = &responses[request.id as usize].answer;
        let want = match service {
            Ok(Answer::Penalties(Some(p))) => Ok(format!("optimize {p:?}")),
            Ok(Answer::Penalties(None)) => Ok("optimize infeasible".to_string()),
            Ok(other) => Ok(format!("{other:?}")),
            Err(e) => Err(e.clone()),
        };
        if digest != want {
            out.fail(format!(
                "request {}: fresh replay {digest:?}, service {want:?}",
                request.id
            ));
        }
        breakdown.insert(
            k.clone(),
            crate::trace::self_times(tracer.spans(), first_span),
        );
    }

    // Who owns the p95: the query kind most common among tail requests,
    // and the layer with the most self time in their replays (compile
    // excluded for warm hits, which skip it).
    let latencies: Vec<f64> = responses.iter().map(|r| r.micros as f64 / 1e3).collect();
    let (p95, _) = stats::percentile(&latencies, 95.0);
    let tail: Vec<&Request> = tape
        .iter()
        .filter(|r| latencies[r.id as usize] >= p95)
        .collect();
    let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for request in &tail {
        *kinds.entry(kind(&request.query)).or_default() += 1;
        for (&name, &nanos) in &breakdown[&key(request)] {
            if !(responses[request.id as usize].cache_hit && name == "core.compile") {
                *layers.entry(name).or_default() += nanos;
            }
        }
    }
    let (owner_kind, kind_count) = kinds
        .iter()
        .max_by_key(|(_, &n)| n)
        .map(|(&k, &n)| (k, n))
        .unwrap_or(("none", 0));
    let tail_total: u64 = layers.values().sum();
    let (owner_layer, layer_nanos) = layers
        .iter()
        .max_by_key(|(_, &n)| n)
        .map(|(&k, &n)| (k, n))
        .unwrap_or(("none", 0));
    println!(
        "serve p95 {p95:.1} ms owned by {owner_kind} ({kind_count} of {} tail requests); \
         layer {owner_layer} holds {:.0}% of their replayed time",
        tail.len(),
        100.0 * layer_nanos as f64 / tail_total.max(1) as f64
    );

    let mut busy = vec![0.0; config().shards];
    for r in &responses {
        busy[r.shard] += r.micros as f64 / 1e6;
    }
    let service_p50 = |hit: bool| {
        let v: Vec<f64> = responses
            .iter()
            .filter(|r| r.cache_hit == hit)
            .map(|r| r.micros as f64 / 1e3)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    crate::layer_times(&mut out, &tracer);
    counters.insert_into(&mut out);
    let m = &mut out.metrics;
    m.insert("serve.hits", counts[0] as f64);
    m.insert("serve.misses", counts[1] as f64);
    m.insert("serve.compiles", counts[2] as f64);
    m.insert("serve.evictions", counts[3] as f64);
    m.insert(
        "serve.cache_hit_ratio",
        counts[0] as f64 / tape.len() as f64,
    );
    m.insert("serve.hit_service_ms_p50", service_p50(true));
    m.insert("serve.miss_service_ms_p50", service_p50(false));
    m.insert(
        "serve.shard_busy_max_s",
        busy.iter().copied().fold(0.0, f64::max),
    );
    m.insert("serve.shard_imbalance", stats::imbalance(&busy));
    m.insert(
        "serve.p95_owner_kind_share",
        kind_count as f64 / tail.len().max(1) as f64,
    );
    m.insert(
        "serve.p95_owner_layer_share",
        layer_nanos as f64 / tail_total.max(1) as f64,
    );
    m.insert("trace.ops", pairs.len() as f64);
    m.insert(
        "trace.overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    println!(
        "shard busy {:.2} s / {:.2} s; traced tape {traced_s:.2} s vs untraced {untraced_s:.2} s",
        busy[0], busy[1]
    );
    tracer.write_jsonl(&crate::trace_path(&args.workload, args.seed))?;
    Ok(out)
}
