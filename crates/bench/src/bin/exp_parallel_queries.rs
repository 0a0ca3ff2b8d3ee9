//! Parallel MaxSAT descent: the racing descent on a persistent probe pool,
//! measured against the sequential bisection on identical inputs.
//!
//! The speedup here is *algorithmic*, not a core-count artifact, so it
//! survives single-core CI runners: the racing window always includes the
//! most aggressive open candidate, and on instances whose optimum sits at
//! the bottom of a tall candidate ladder that probe jackpots in the first
//! round, while the sequential binary search pays a full descent of bound
//! probes.
//!
//! Every parallel optimum is checked against the sequential oracle — any
//! disagreement exits nonzero. `--smoke` runs reduced shapes and checks
//! correctness only; the speedup gate (descent ≥ 1.3×) applies to full
//! runs.

use netarch_logic::backend::{PortfolioOptions, SolveBackend};
use netarch_logic::maxsat::{minimize, MaxSatOutcome, Soft};
use netarch_logic::{Atom, EncodeConfig, Encoder, Formula};
use netarch_rt::Rng;
use std::time::Instant;

const SEATS: usize = 4;

fn portfolio_backend() -> SolveBackend {
    // Racing mode — the production default — so first-winner-cancels
    // arbitration is part of what gets measured. Deterministic mode runs
    // every seat to completion, which on a single core multiplies the work
    // instead of racing it; its bit-identity guarantees are covered by the
    // differential test suites, not this bench.
    SolveBackend::Portfolio(PortfolioOptions {
        num_threads: SEATS,
        deterministic: false,
        ..PortfolioOptions::default()
    })
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    values[values.len() / 2]
}

/// A descent instance: near-threshold random 3-SAT with a *hidden* planted
/// assignment, plus one unit-weight soft literal per variable pinning the
/// planted point — a candidate ladder of `num_softs + 1` cost levels with
/// the optimum at zero. Clauses are complement-closed (each has one literal
/// agreeing with the planted point, one disagreeing, one uniform), so both
/// the planted point and its complement satisfy the hard theory and the
/// literal-polarity statistics leak nothing — naive planted 3-SAT betrays
/// its solution to occurrence-counting heuristics and turns easy. The
/// asymmetry is structural, not seed luck: the racing loop's aggressive-lo
/// probe assumes every soft, unit-propagates straight to the planted point,
/// and verifies the clauses in one sweep, while the sequential bisection
/// must grind down ~log2(n) cost-bounded probes, each a constrained search
/// with the complement cluster (cost ~n) as a decoy.
struct DescentShape {
    label: String,
    num_softs: u32,
    hard: Vec<Formula>,
    soft: Vec<Soft>,
}

fn descent_shapes(smoke: bool, rng: &mut Rng) -> Vec<DescentShape> {
    let sizes: &[(u32, f64)] = if smoke {
        &[(40, 3.0), (50, 3.0)]
    } else {
        &[(250, 2.5), (300, 2.5), (350, 2.5)]
    };
    sizes
        .iter()
        .map(|&(num_softs, ratio)| {
            let planted: Vec<bool> = (0..num_softs).map(|_| rng.gen_bool(0.5)).collect();
            let atom = |v: u32| Formula::Atom(Atom(v));
            let not = |f: Formula| Formula::not(f);
            let lit = |v: u32, positive: bool| {
                if positive {
                    atom(v)
                } else {
                    not(atom(v))
                }
            };
            let mut hard = Vec::new();
            for _ in 0..(num_softs as f64 * ratio) as usize {
                let mut vars = Vec::new();
                while vars.len() < 3 {
                    let v = rng.gen_range(0..num_softs);
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
                let (x, y, z) = (vars[0], vars[1], vars[2]);
                hard.push(Formula::or([
                    lit(x, planted[x as usize]),
                    lit(y, !planted[y as usize]),
                    lit(z, rng.gen_bool(0.5)),
                ]));
            }
            let soft = (0..num_softs)
                .map(|i| Soft::new(1, lit(i, planted[i as usize])))
                .collect();
            DescentShape { label: format!("descent/{num_softs}"), num_softs, hard, soft }
        })
        .collect()
}

fn run_descent(shape: &DescentShape, backend: SolveBackend) -> (f64, u64) {
    let mut e = Encoder::with_config(EncodeConfig { backend, ..EncodeConfig::default() });
    for h in &shape.hard {
        e.assert(h);
    }
    let start = Instant::now();
    let outcome = minimize(&mut e, &shape.soft);
    let elapsed = start.elapsed().as_secs_f64();
    match outcome {
        MaxSatOutcome::Optimal { cost, .. } => (elapsed, cost),
        other => panic!("{}: unexpected outcome {other:?}", shape.label),
    }
}

// ------------------------------------------------------------------ main

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let bound = 1.3f64;
    netarch_bench::section(if smoke {
        "Parallel MaxSAT descent (smoke shapes): racing probe pool vs sequential bisection"
    } else {
        "Parallel MaxSAT descent: racing probe pool vs sequential bisection"
    });

    let mut disagreements = 0usize;
    let mut rng = Rng::seed_from_u64(0x9A2A_11E1);

    println!("  {:<16} {:>10} {:>10} {:>8}  note", "descent", "t-seq", "t-par", "speedup");
    let mut descent_speedups = Vec::new();
    for shape in &descent_shapes(smoke, &mut rng) {
        let (t_seq, cost_seq) = run_descent(shape, SolveBackend::Sequential);
        let (t_par, cost_par) = run_descent(shape, portfolio_backend());
        if cost_seq != cost_par {
            disagreements += 1;
            eprintln!("DISAGREEMENT on {}: optimum {cost_seq} vs {cost_par}", shape.label);
        }
        let speedup = t_seq / t_par.max(1e-9);
        descent_speedups.push(speedup);
        println!(
            "  {:<16} {:>9.1}ms {:>9.1}ms {:>7.2}x  ladder of {} candidates",
            shape.label,
            t_seq * 1e3,
            t_par * 1e3,
            speedup,
            shape.num_softs + 1,
        );
    }

    let descent = median(&mut descent_speedups);
    println!("\n  verdict disagreements       {disagreements:>8}");
    println!("  median descent speedup      {descent:>7.2}x (bound {bound:.1}x)");

    let summary = netarch_rt::jobj! {
        "experiment": "parallel_queries",
        "smoke": smoke,
        "seats": SEATS,
        "disagreements": disagreements,
        "descent_speedup": descent,
        "bound": bound,
    };
    println!("RESULT_JSON: {}", netarch_rt::json::to_string(&summary));
    netarch_bench::persist_result_gated("parallel_queries", &summary, smoke);

    if disagreements > 0 {
        eprintln!("FAIL: {disagreements} parallel-vs-sequential disagreement(s)");
        std::process::exit(1);
    }
    if smoke {
        println!("\nPASS (smoke): zero disagreements; speedup gate applies to full runs only.");
        return;
    }
    if descent < bound {
        eprintln!("FAIL: median descent speedup {descent:.2}x below the {bound:.1}x bound");
        std::process::exit(1);
    }
    println!("\nPASS: zero disagreements, median descent speedup {descent:.2}x ≥ {bound:.1}x.");
}
