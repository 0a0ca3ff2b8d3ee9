//! `sweep`: the 510-variant `grid` sweep of `exp_sweep`, closed loop, one
//! client. Each op is one variant's `run_differential`: a fresh-engine
//! oracle per query plus every ordering of the variant's 3-query tape,
//! each on a fresh session. Thousands of tiny engines, so fixed
//! per-engine costs dominate and objective encoding is negligible.

use std::time::Instant;

use netarch_core::baseline::validate_design;
use netarch_core::prelude::*;
use netarch_logic::SolveBackend;
use netarch_rt::Rng;
use netarch_sweep::{
    enumerate_sweep, run_differential, variant_scenario, variant_tape, DiffOptions, DiffReport,
    QueryOp, SweepSpec, SweepStream, Variant,
};

use crate::architect::{optimize_mirror, Counters};
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// Reads, parses and lowers the sweep document, then enumerates its
/// variant stream: the program's set-up for this workload.
fn load(tracer: &mut Tracer) -> Result<(Scenario, SweepSpec, SweepStream), String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("sweep_grid.narch");
    let open = tracer.enter("dsl.load");
    let doc = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
        .and_then(|text| netarch_dsl::load_str(&text).map_err(|e| e.to_string()));
    tracer.exit(open);
    let mut doc = doc?;
    let scenario = doc.require_scenario().map_err(|e| e.to_string())?.clone();
    let spec = doc
        .sweeps
        .pop()
        .ok_or("sweep document has no sweep block")?;
    let open = tracer.enter("sweep.enumerate");
    let stream = enumerate_sweep(&spec, &scenario.catalog).map_err(|e| e.to_string());
    tracer.exit(open);
    Ok((scenario, spec, stream?))
}

/// One single-variant stream per variant, visited in a seeded order.
fn ops(stream: &SweepStream, seed: u64) -> Vec<SweepStream> {
    let mut order: Vec<usize> = (0..stream.variants.len()).collect();
    Rng::seed_from_u64(seed ^ 0x5EE9_0001).shuffle(&mut order);
    let template = SweepStream {
        variants: Vec::new(),
        ..stream.clone()
    };
    order
        .into_iter()
        .map(|i| SweepStream {
            variants: vec![stream.variants[i].clone()],
            ..template.clone()
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let opts = DiffOptions::default();
    if args.trace {
        return run_traced(args, &opts);
    }

    let (scenario, spec, stream) = load(&mut Tracer::new(false))?;
    let ops = ops(&stream, args.seed);
    let mut latencies = Vec::new();
    let mut reports = Vec::new();
    let (setup_s, walls) = crate::run_passes(
        args.seconds,
        1,
        || load(&mut Tracer::new(false)),
        drop,
        |sample_setup| {
            for op in &ops {
                let t0 = Instant::now();
                let report = run_differential(&spec, &scenario, op, &opts);
                latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                reports.push(report);
            }
            sample_setup()
        },
    )?;
    crate::end_to_end(&mut out, setup_s, &latencies, &walls)?;
    // The differential oracle ran inside each op; read its verdicts.
    out.attempted = reports.len() as u64;
    for report in reports {
        match report {
            Ok(r) if r.disagreement.is_none() && r.variants == 1 => {}
            Ok(r) => out.fail(
                r.disagreement
                    .unwrap_or_else(|| "variant not exercised".into()),
            ),
            Err(e) => out.fail(e),
        }
    }
    Ok(out)
}

/// The traced run: a warm-up pass of `run_differential` (the reference
/// counts), a traced pass of [`differential_mirror`], and a second
/// untraced pass for the overhead.
fn run_traced(args: &Args, opts: &DiffOptions) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(true);
    let (scenario, spec, stream) = load(&mut tracer)?;
    let ops = ops(&stream, args.seed);
    let untraced_pass = || -> Result<(Vec<DiffReport>, f64), String> {
        let started = Instant::now();
        let reports = ops
            .iter()
            .map(|op| run_differential(&spec, &scenario, op, opts).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((reports, started.elapsed().as_secs_f64()))
    };
    let (reference, _) = untraced_pass()?;

    let mut counters = Counters::default();
    let (mut sessions, mut queries, mut orderings) = (0, 0, 0);
    let started = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        tracer.set_op(i as u64 + 1);
        let open = tracer.enter("op");
        let inner = tracer.enter("sweep.run_differential");
        let mirrored = differential_mirror(
            &spec,
            &scenario,
            &op.variants[0],
            opts,
            &mut tracer,
            &mut counters,
        );
        tracer.exit(inner);
        tracer.exit(open);
        out.attempted += 1;
        let want = &reference[i];
        match mirrored {
            Err(e) => out.fail(format!("variant {}: {e}", op.variants[0].index)),
            Ok(_) if want.disagreement.is_some() => {
                out.fail(want.disagreement.clone().expect("checked"))
            }
            Ok(counts) if counts != (want.sessions, want.queries, want.orderings) => {
                out.fail(format!(
                    "variant {}: mirror counted {counts:?}, run_differential {:?}",
                    op.variants[0].index,
                    (want.sessions, want.queries, want.orderings)
                ))
            }
            Ok((s, q, o)) => {
                sessions += s;
                queries += q;
                orderings += o;
            }
        }
    }
    let traced_s = started.elapsed().as_secs_f64();
    let (_, untraced_s) = untraced_pass()?;
    crate::layer_times(&mut out, &tracer);
    counters.insert_into(&mut out);
    out.metrics.insert("sweep.sessions", sessions as f64);
    out.metrics.insert("sweep.queries", queries as f64);
    out.metrics.insert("sweep.orderings", orderings as f64);
    out.metrics.insert("trace.ops", ops.len() as f64);
    out.metrics.insert(
        "trace.overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    println!(
        "traced pass {traced_s:.3} s vs untraced {untraced_s:.3} s over {} variants",
        ops.len()
    );
    tracer.write_jsonl(&crate::trace_path(&args.workload, args.seed))?;
    Ok(out)
}

/// `run_differential` on one variant rebuilt from public calls, so that
/// each engine it builds and each query it asks gets a span: the
/// fresh-engine oracle (one engine per query), then every ordering of
/// the variant's tape on a fresh session, each answer compared with the
/// oracle's. Returns (sessions, queries, orderings) as `DiffReport` counts
/// them.
fn differential_mirror(
    spec: &SweepSpec,
    base: &Scenario,
    variant: &Variant,
    opts: &DiffOptions,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Result<(u64, u64, u64), String> {
    let scenario = variant_scenario(spec, base, &variant.picks);
    let pool = label_pool(&scenario);
    let tape = variant_tape(variant.index, opts);
    let engine = |tracer: &mut Tracer| {
        let open = tracer.enter("core.compile");
        let engine = Engine::new(scenario.clone());
        tracer.exit(open);
        engine.map_err(|e| e.to_string())
    };
    let mut oracle = Vec::with_capacity(tape.len());
    for (k, &op) in tape.iter().enumerate() {
        if op == QueryOp::Optimize {
            // A fresh engine's optimize, through the mirror: its objective
            // encoding and descent get spans of their own.
            let mirrored = optimize_mirror(&scenario, &SolveBackend::Sequential, tracer, counters)?;
            for (design, _) in &mirrored.designs {
                let violations = validate_design(&scenario, design);
                if !violations.is_empty() {
                    return Err(format!(
                        "optimize returned an invalid design: {violations:?}"
                    ));
                }
            }
            oracle.push(mirrored.digest);
            continue;
        }
        let mut fresh = engine(tracer)?;
        let answer = answer(&mut fresh, &scenario, &pool, op, tracer)?;
        let (digest, diagnosis) = answer.split_once(" | ").unwrap_or((&answer, ""));
        if k == 0 && !diagnosis.is_empty() {
            // As run_differential does once per variant: the diagnosis
            // must be an unsatisfiable rule subset on a fresh engine.
            let labels: Vec<&str> = diagnosis.split(' ').collect();
            let mut replay = engine(tracer)?;
            if tracer
                .time("core.subset", || replay.check_rule_subset(&labels))
                .map_err(|e| e.to_string())?
            {
                return Err(format!("diagnosis {labels:?} is satisfiable"));
            }
            counters.absorb_engine(&replay);
        }
        counters.absorb_engine(&fresh);
        oracle.push(digest.to_string());
    }
    let (mut sessions, mut queries, mut orderings) = (0, 0, 0);
    let mut perm: Vec<usize> = (0..tape.len()).collect();
    loop {
        orderings += 1;
        sessions += 1;
        let mut session = engine(tracer)?;
        for &slot in &perm {
            queries += 1;
            let answer = answer(&mut session, &scenario, &pool, tape[slot], tracer)?;
            if answer.split(" | ").next() != Some(oracle[slot].as_str()) {
                return Err(format!(
                    "ordering {perm:?} {:?}: session {answer}, oracle {}",
                    tape[slot], oracle[slot]
                ));
            }
        }
        counters.absorb_engine(&session);
        if orderings as usize >= opts.ordering_budget || !next_permutation(&mut perm) {
            break;
        }
    }
    Ok((sessions, queries, orderings))
}

/// Subset-query labels, as `run_differential` builds them: every rule
/// label the scenario may compile.
fn label_pool(scenario: &Scenario) -> Vec<String> {
    let mut pool: Vec<String> = scenario.roles.keys().map(|c| format!("role:{c}")).collect();
    for w in &scenario.workloads {
        pool.extend(
            w.needs
                .iter()
                .map(|cap| format!("workload:{}:needs:{cap}", w.id)),
        );
    }
    for pin in &scenario.pins {
        pool.push(match pin {
            Pin::Require(id) => format!("pin:require:{id}"),
            Pin::Forbid(id) => format!("pin:forbid:{id}"),
        });
    }
    for system in scenario.catalog.systems() {
        pool.extend(
            system
                .requires
                .iter()
                .map(|r| format!("req:{}:{}", system.id, r.label)),
        );
    }
    pool
}

/// One query, validated and digested to its witness-free content. An
/// infeasible check appends its diagnosis labels after ` | `.
fn answer(
    engine: &mut Engine,
    scenario: &Scenario,
    pool: &[String],
    op: QueryOp,
    tracer: &mut Tracer,
) -> Result<String, String> {
    let e = |e: CompileError| e.to_string();
    let valid = |design: &Design| {
        let violations = validate_design(scenario, design);
        if violations.is_empty() {
            Ok(())
        } else {
            Err(format!("{op:?} returned an invalid design: {violations:?}"))
        }
    };
    Ok(match op {
        QueryOp::Check => match tracer.time("core.check", || engine.check()).map_err(e)? {
            netarch_core::query::Outcome::Feasible(d) => {
                valid(&d)?;
                "check feasible".into()
            }
            netarch_core::query::Outcome::Infeasible(diag) if diag.conflicts.is_empty() => {
                return Err("infeasible check with an empty diagnosis".into())
            }
            netarch_core::query::Outcome::Infeasible(diag) => {
                let labels: Vec<&str> = diag.conflicts.iter().map(|c| c.label.as_str()).collect();
                format!("check infeasible | {}", labels.join(" "))
            }
        },
        QueryOp::Optimize => match tracer
            .time("core.optimize", || engine.optimize())
            .map_err(e)?
        {
            Ok(o) => {
                valid(&o.design)?;
                format!(
                    "optimize {:?}",
                    o.levels.iter().map(|l| l.penalty).collect::<Vec<_>>()
                )
            }
            Err(_) => "optimize infeasible".into(),
        },
        QueryOp::Enumerate(limit) => {
            let designs = tracer
                .time("core.enumerate", || engine.enumerate_designs(limit, false))
                .map_err(e)?;
            designs.iter().try_for_each(valid)?;
            let mut sets: Vec<Vec<String>> = designs
                .iter()
                .map(|d| d.systems().iter().map(|s| s.to_string()).collect())
                .collect();
            sets.sort();
            if designs.len() < limit {
                format!("enumerate {} {sets:?}", designs.len())
            } else {
                format!("enumerate {} truncated", designs.len())
            }
        }
        QueryOp::Subset(mask) => {
            let labels: Vec<&str> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| (mask >> (i % 32)) & 1 == 1)
                .map(|(_, l)| l.as_str())
                .collect();
            let sat = tracer
                .time("core.subset", || engine.check_rule_subset(&labels))
                .map_err(e)?;
            format!("subset {sat}")
        }
        QueryOp::Disambiguate(limit) => {
            let plan = tracer
                .time("core.disambiguate", || engine.disambiguate(limit))
                .map_err(e)?;
            format!(
                "disambiguate {} {} {} {}",
                plan.classes,
                plan.truncated,
                plan.residual_classes,
                plan.questions.len()
            )
        }
        QueryOp::Capacity(max) => match tracer
            .time("core.capacity", || engine.plan_capacity(max))
            .map_err(e)?
        {
            Ok(plan) => format!("capacity {}", plan.servers_needed),
            Err(_) => "capacity infeasible".into(),
        },
    })
}

/// Advances `perm` to the next lexicographic permutation; false after
/// the last.
fn next_permutation(perm: &mut [usize]) -> bool {
    let Some(i) = (0..perm.len().saturating_sub(1))
        .rev()
        .find(|&i| perm[i] < perm[i + 1])
    else {
        return false;
    };
    let j = (i + 1..perm.len())
        .rev()
        .find(|&j| perm[j] > perm[i])
        .expect("successor exists");
    perm.swap(i, j);
    perm[i + 1..].reverse();
    true
}

#[cfg(test)]
mod tests {
    use super::next_permutation;

    #[test]
    fn permutations_walk_lexicographically() {
        let mut perm = vec![0, 1, 2];
        let mut seen = vec![perm.clone()];
        while next_permutation(&mut perm) {
            seen.push(perm.clone());
        }
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[1], vec![0, 2, 1]);
        assert_eq!(seen[5], vec![2, 1, 0]);
        assert!(!next_permutation(&mut [7]));
    }
}
