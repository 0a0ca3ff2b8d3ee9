//! The sharded engine pool.
//!
//! A [`Service`] owns `shards` worker threads. Each worker holds a small
//! LRU cache of warm [`Engine`] sessions keyed by the *full* scenario
//! fingerprint: a request whose scenario content matches a cached
//! session skips compilation entirely and inherits everything the
//! session has learned — learned clauses, branching activity, memoized
//! optimize/enumerate answers.
//!
//! **Routing is stateless and deterministic.** With caching on, a
//! request goes to shard `full_fingerprint mod shards`: an exact repeat
//! lands where its warm session lives, and distinct scenarios spread
//! over every shard even when they share one catalog. Sessions are keyed
//! by full fingerprint and share nothing, so co-locating a catalog's
//! near-variants would buy no reuse and would pile a one-catalog tape
//! onto one shard. With caching off, requests round-robin by id. Neither
//! mode consults runtime state, so the shard assignment, every answer
//! and every counter are a pure function of the request tape. The differential and determinism suites hold the
//! service to exactly that.
//!
//! **Eviction is logical-clock LRU.** Each worker stamps cache entries
//! with its per-shard request tick (never wall time); when the cache is
//! full the stalest entry is dropped. Deterministic by construction.

use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use netarch_core::fingerprint::{fingerprint_scenario, ScenarioFingerprint};
use netarch_core::prelude::*;

use crate::request::{run_query, Request, Response};

/// Service shape and policy.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads, each owning an independent session cache.
    pub shards: usize,
    /// Warm sessions retained per shard before LRU eviction.
    pub sessions_per_shard: usize,
    /// Whether to cache compiled scenarios at all. Off ⇒ every request
    /// compiles a throwaway engine (the baseline the cache is measured
    /// against) and routing degrades to round-robin.
    pub cache: bool,
    /// Ignored: every engine solves on its own session solver. Kept only
    /// because the benchmark harness under `archbench/` still sets it;
    /// ROADMAP item 1a deletes it.
    pub backend: netarch_logic::SolveBackend,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 2,
            sessions_per_shard: 4,
            cache: true,
            backend: Default::default(),
        }
    }
}

impl ServiceConfig {
    /// Clamps degenerate shapes (zero shards/sessions) up to 1.
    fn normalized(mut self) -> Self {
        self.shards = self.shards.max(1);
        self.sessions_per_shard = self.sessions_per_shard.max(1);
        self
    }
}

/// Per-shard counters, returned when the shard's thread joins.
///
/// Contains no timing: everything here must be bit-identical across
/// reruns of the same tape, and wall time never is. Latency lives on individual [`Response`]s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests this shard served.
    pub requests: u64,
    /// Requests answered by a warm cached session.
    pub cache_hits: u64,
    /// Requests that had to compile (cache miss or caching off).
    pub cache_misses: u64,
    /// Warm sessions dropped to make room.
    pub evictions: u64,
    /// Engines compiled (= misses that compiled successfully or not;
    /// compile failures count — the work was attempted).
    pub compiles: u64,
    /// Warm sessions still cached at shutdown.
    pub sessions_retained: u64,
    /// Learned clauses credited to retained sessions at shutdown.
    pub learnt_clauses: u64,
    /// Conflicts resolved by retained sessions at shutdown.
    pub conflicts: u64,
}

/// Shutdown summary: one [`ShardStats`] per shard, in shard order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardStats>,
}

impl ServiceStats {
    /// Total requests served.
    pub fn requests(&self) -> u64 {
        self.shards.iter().map(|s| s.requests).sum()
    }

    /// Total warm-session hits.
    pub fn cache_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.cache_hits).sum()
    }

    /// Total compiling misses.
    pub fn cache_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.cache_misses).sum()
    }

    /// Total evictions across shards.
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.evictions).sum()
    }

    /// Total engines compiled.
    pub fn compiles(&self) -> u64 {
        self.shards.iter().map(|s| s.compiles).sum()
    }

    /// Learned clauses across all retained sessions.
    pub fn learnt_clauses(&self) -> u64 {
        self.shards.iter().map(|s| s.learnt_clauses).sum()
    }
}

/// A request annotated with its precomputed fingerprint — hashed once at
/// submission, used for both routing and cache lookup.
struct Job {
    request: Request,
    fingerprint: ScenarioFingerprint,
}

/// One cached warm session.
struct CacheEntry {
    full_fp: u128,
    engine: Engine,
    last_used: u64,
}

/// The running service. Submit requests, then [`Service::finish`] to
/// drain responses (sorted by id) and join the shards.
pub struct Service {
    config: ServiceConfig,
    job_txs: Vec<mpsc::Sender<Job>>,
    response_rx: mpsc::Receiver<Response>,
    handles: Vec<thread::JoinHandle<ShardStats>>,
    submitted: u64,
}

impl Service {
    /// Spawns the shard workers.
    pub fn start(config: ServiceConfig) -> Service {
        let config = config.normalized();
        let (response_tx, response_rx) = mpsc::channel::<Response>();
        let mut job_txs = Vec::with_capacity(config.shards);
        let mut handles = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let (job_tx, job_rx) = mpsc::channel::<Job>();
            let response_tx = response_tx.clone();
            let worker_config = config.clone();
            handles.push(
                thread::Builder::new()
                    .name(format!("netarch-serve-{shard}"))
                    .spawn(move || shard_worker(shard, worker_config, job_rx, response_tx))
                    .expect("spawn shard worker"),
            );
            job_txs.push(job_tx);
        }
        // Workers hold the only remaining response senders; the drain
        // loop in `finish` ends when the last worker exits.
        drop(response_tx);
        Service {
            config,
            job_txs,
            response_rx,
            handles,
            submitted: 0,
        }
    }

    /// Routes one request to its shard.
    ///
    /// Cache on: by full fingerprint, so an exact repeat reaches the shard
    /// holding its warm session and distinct scenarios spread evenly.
    /// Cache off: round-robin by id.
    pub fn submit(&mut self, request: Request) {
        let fingerprint = fingerprint_scenario(&request.scenario);
        let shards = self.job_txs.len() as u64;
        let shard = if self.config.cache {
            (fingerprint.full.0 % u128::from(shards)) as usize
        } else {
            (request.id % shards) as usize
        };
        self.submitted += 1;
        self.job_txs[shard]
            .send(Job {
                request,
                fingerprint,
            })
            .expect("shard worker alive");
    }

    /// Closes intake, drains every response, joins the shards.
    /// Responses come back sorted by request id.
    pub fn finish(self) -> (Vec<Response>, ServiceStats) {
        let Service {
            job_txs,
            response_rx,
            handles,
            submitted,
            ..
        } = self;
        drop(job_txs);
        let mut responses: Vec<Response> = response_rx.iter().collect();
        responses.sort_by_key(|r| r.id);
        debug_assert_eq!(responses.len() as u64, submitted);
        let shards = handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect();
        (responses, ServiceStats { shards })
    }

    /// Convenience: start, submit a whole tape, finish.
    pub fn run(config: ServiceConfig, requests: Vec<Request>) -> (Vec<Response>, ServiceStats) {
        let mut service = Service::start(config);
        for request in requests {
            service.submit(request);
        }
        service.finish()
    }
}

fn shard_worker(
    shard: usize,
    config: ServiceConfig,
    jobs: mpsc::Receiver<Job>,
    responses: mpsc::Sender<Response>,
) -> ShardStats {
    let mut stats = ShardStats::default();
    let mut cache: Vec<CacheEntry> = Vec::new();
    let mut tick: u64 = 0;
    for Job {
        request,
        fingerprint,
    } in jobs
    {
        tick += 1;
        stats.requests += 1;
        let started = Instant::now();
        let full_fp = fingerprint.full.0;
        let cached = config
            .cache
            .then(|| cache.iter_mut().find(|e| e.full_fp == full_fp))
            .flatten();
        let (cache_hit, answer) = match cached {
            Some(entry) => {
                entry.last_used = tick;
                stats.cache_hits += 1;
                (true, run_query(&mut entry.engine, &request.query))
            }
            None => {
                stats.cache_misses += 1;
                stats.compiles += 1;
                match Engine::new(request.scenario) {
                    Ok(mut engine) => {
                        let answer = run_query(&mut engine, &request.query);
                        if config.cache {
                            if cache.len() >= config.sessions_per_shard {
                                // Evict the stalest session. `min_by_key`
                                // breaks ties by position, which is itself
                                // deterministic — but ticks are unique, so
                                // ties cannot arise.
                                let stalest = cache
                                    .iter()
                                    .enumerate()
                                    .min_by_key(|(_, e)| e.last_used)
                                    .map(|(i, _)| i)
                                    .expect("cache non-empty");
                                cache.swap_remove(stalest);
                                stats.evictions += 1;
                            }
                            cache.push(CacheEntry {
                                full_fp,
                                engine,
                                last_used: tick,
                            });
                        }
                        (false, answer)
                    }
                    // Compile failures are answers too (the scenario is
                    // broken); nothing to cache.
                    Err(e) => (false, Err(e.to_string())),
                }
            }
        };
        let micros = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let response = Response {
            id: request.id,
            shard,
            cache_hit,
            class: request.class,
            answer,
            micros,
        };
        if responses.send(response).is_err() {
            break; // receiver gone; shutting down
        }
    }
    for entry in &cache {
        let engine_stats = entry.engine.stats();
        stats.learnt_clauses += engine_stats.learnt_clauses;
        stats.conflicts += engine_stats.conflicts;
    }
    stats.sessions_retained = cache.len() as u64;
    stats
}
