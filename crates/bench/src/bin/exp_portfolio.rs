//! Portfolio speedup experiment: diversified parallel solving vs one
//! sequential worker.
//!
//! Solves a seeded corpus of hard instances with one broadcast round on a
//! 1-seat and on a 4-seat racing `ProbePool` — the shape of the engine's
//! portfolio backend (seat 0 *is* the sequential solver's configuration)
//! — and reports the median wall-clock speedup, pool start-up included.
//! The corpus is built so diversification — not raw core count — carries
//! the win: the planted family is trivial for the flipped-polarity seat and
//! a grind for the base configuration, so the pool pays off even on a
//! single CPU. Every instance is also solved sequentially and all verdicts
//! must agree; any disagreement exits nonzero.
//!
//! `--smoke` runs a reduced corpus with a conservative ≥1.0× median bound
//! (vs ≥1.5× for the full run) so CI can gate on it without flaking.

use netarch_rt::Rng;
use netarch_sat::{Lit, ProbePool, ProbePoolConfig, SolveResult, Solver, SolverConfig, Var};
use std::sync::Arc;
use std::time::Instant;

/// Random 3-SAT with every all-negative clause rejected, so the all-true
/// assignment satisfies the formula. The flipped-polarity seat decides
/// true everywhere and finishes without a single conflict; the base
/// (false-polarity) seat has to search.
fn polarity_planted(num_vars: usize, ratio: f64, seed: u64) -> (usize, Vec<Vec<Lit>>) {
    let mut rng = Rng::seed_from_u64(seed);
    let num_clauses = (num_vars as f64 * ratio) as usize;
    let mut clauses = Vec::with_capacity(num_clauses);
    while clauses.len() < num_clauses {
        let mut clause: Vec<Lit> = Vec::with_capacity(3);
        while clause.len() < 3 {
            let v = rng.gen_range(0..num_vars);
            if clause.iter().all(|l| l.var().index() != v) {
                clause.push(Lit::new(Var::from_index(v), rng.gen_bool(0.5)));
            }
        }
        if clause.iter().any(|l| l.is_positive()) {
            clauses.push(clause);
        }
    }
    (num_vars, clauses)
}

/// Random 3-SAT at the given ratio (both phases allowed).
fn random_3sat(num_vars: usize, ratio: f64, seed: u64) -> (usize, Vec<Vec<Lit>>) {
    let mut rng = Rng::seed_from_u64(seed);
    let num_clauses = (num_vars as f64 * ratio) as usize;
    let mut clauses = Vec::with_capacity(num_clauses);
    for _ in 0..num_clauses {
        let mut clause: Vec<Lit> = Vec::with_capacity(3);
        while clause.len() < 3 {
            let v = rng.gen_range(0..num_vars);
            if clause.iter().all(|l| l.var().index() != v) {
                clause.push(Lit::new(Var::from_index(v), rng.gen_bool(0.5)));
            }
        }
        clauses.push(clause);
    }
    (num_vars, clauses)
}

fn pigeonhole(n: usize) -> (usize, Vec<Vec<Lit>>) {
    let holes = n - 1;
    let p = |pigeon: usize, hole: usize| Var::from_index(pigeon * holes + hole).positive();
    let mut clauses = Vec::new();
    for pigeon in 0..n {
        clauses.push((0..holes).map(|h| p(pigeon, h)).collect());
    }
    for hole in 0..holes {
        for i in 0..n {
            for j in (i + 1)..n {
                clauses.push(vec![!p(i, hole), !p(j, hole)]);
            }
        }
    }
    (n * holes, clauses)
}

struct Instance {
    label: String,
    num_vars: usize,
    clauses: Arc<Vec<Vec<Lit>>>,
}

fn corpus(smoke: bool) -> Vec<Instance> {
    let mut instances = Vec::new();
    let (planted, random, unsat_seeds) = if smoke {
        (6usize, 1usize, 1u64)
    } else {
        (14, 4, 3)
    };
    let planted_vars = if smoke { 300 } else { 350 };
    for i in 0..planted as u64 {
        let (nv, clauses) = polarity_planted(planted_vars, 4.1, 0x9A27_0000 + i);
        instances.push(Instance {
            label: format!("planted/{planted_vars}/{i}"),
            num_vars: nv,
            clauses: Arc::new(clauses),
        });
    }
    for i in 0..random as u64 {
        let (nv, clauses) = random_3sat(60, 4.26, 0x7456_0000 + i);
        instances.push(Instance {
            label: format!("threshold3sat/60/{i}"),
            num_vars: nv,
            clauses: Arc::new(clauses),
        });
    }
    for i in 0..unsat_seeds {
        let (nv, clauses) = random_3sat(42, 6.0, 0xF00D_0000 + i);
        instances.push(Instance {
            label: format!("unsat3sat/42/{i}"),
            num_vars: nv,
            clauses: Arc::new(clauses),
        });
    }
    if !smoke {
        let (nv, clauses) = pigeonhole(7);
        instances.push(Instance {
            label: "pigeonhole/7".to_string(),
            num_vars: nv,
            clauses: Arc::new(clauses),
        });
    }
    instances
}

/// One broadcast round on a fresh racing pool, timed from spawning the
/// seats to joining them; the verdict is the lowest-index decisive seat's.
fn solve_pooled(inst: &Instance, seats: usize) -> (SolveResult, f64) {
    let start = Instant::now();
    let mut pool = ProbePool::new(ProbePoolConfig {
        seats,
        num_vars: inst.num_vars,
        clauses: Arc::clone(&inst.clauses),
        base: SolverConfig::default(),
        deterministic: false,
        seed: 0xBEEF,
        conflict_budget: None,
    });
    let outcomes = pool.solve_round(&vec![Vec::new(); seats]);
    pool.finish();
    let elapsed = start.elapsed().as_secs_f64();
    let verdict = outcomes
        .iter()
        .map(|o| o.result)
        .find(|&r| r != SolveResult::Unknown)
        .unwrap_or(SolveResult::Unknown);
    (verdict, elapsed)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    values[values.len() / 2]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let bound = if smoke { 1.0 } else { 1.5 };
    netarch_bench::section(if smoke {
        "Portfolio speedup (smoke corpus): 4 diversified probe seats vs 1"
    } else {
        "Portfolio speedup: 4 diversified probe seats vs 1"
    });

    let instances = corpus(smoke);
    let mut speedups = Vec::with_capacity(instances.len());
    let mut disagreements = 0usize;
    println!(
        "  {:<22} {:>9} {:>10} {:>10} {:>8}",
        "instance", "verdict", "t1", "t4", "speedup"
    );
    for inst in &instances {
        let mut sequential = Solver::new();
        sequential.ensure_vars(inst.num_vars);
        for c in inst.clauses.iter() {
            sequential.add_clause(c.iter().copied());
        }
        let expected = sequential.solve();
        let (r1, t1) = solve_pooled(inst, 1);
        let (r4, t4) = solve_pooled(inst, 4);
        if r1 != expected || r4 != expected {
            disagreements += 1;
            eprintln!("DISAGREEMENT on {}: sequential={expected:?} t1={r1:?} t4={r4:?}", inst.label);
        }
        let speedup = t1 / t4.max(1e-9);
        speedups.push(speedup);
        println!(
            "  {:<22} {:>9} {:>9.2}ms {:>9.2}ms {:>7.2}x",
            inst.label,
            format!("{expected:?}"),
            t1 * 1e3,
            t4 * 1e3,
            speedup
        );
    }

    let med = median(&mut speedups);
    println!("\n  instances                   {:>8}", instances.len());
    println!("  verdict disagreements       {:>8}", disagreements);
    println!("  median speedup (4 vs 1)     {med:>7.2}x (bound {bound:.1}x)");

    let summary = netarch_rt::jobj! {
        "experiment": "portfolio",
        "smoke": smoke,
        "instances": instances.len(),
        "disagreements": disagreements,
        "median_speedup": med,
        "bound": bound,
    };
    println!("RESULT_JSON: {}", netarch_rt::json::to_string(&summary));
    // Smoke runs (CI) use few instances; they persist only into an
    // explicit NETARCH_BENCH_DIR scratch dir, never over the committed
    // trajectory file.
    netarch_bench::persist_result_gated("portfolio", &summary, smoke);

    if disagreements > 0 {
        eprintln!("FAIL: {disagreements} verdict disagreement(s) between backends");
        std::process::exit(1);
    }
    if med < bound {
        eprintln!("FAIL: median speedup {med:.2}x below the {bound:.1}x bound");
        std::process::exit(1);
    }
    println!("\nPASS: zero disagreements, median speedup {med:.2}x ≥ {bound:.1}x.");
}
