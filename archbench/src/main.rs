//! Layered benchmark of the netarch query path.
//!
//! ```text
//! archbench --workload <architect|sweep|serve|architect-2t>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! archbench --record-digests
//! ```
//!
//! The untraced run (`--trace 0`) measures the end-to-end metrics; the
//! traced run (`--trace 1`) records spans around every call into a public
//! function of the program and reports per-layer self time and counts.
//! Every answer is checked outside the timed region. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. See README.md beside this file for the workloads.

mod architect;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use trace::Tracer;

/// Seed used when `--seed` is absent, and the seed the architect tape is
/// drawn from (`architect_digests.txt` holds that tape's answers).
pub const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics of the untraced run: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: name and unit. Times are self
/// times summed over one traced pass of the workload's tape; counts are
/// totals over the same pass and must repeat exactly for a given seed.
const PER_LAYER: &[(&str, &str)] = &[
    ("dsl.load_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("core.compile_calls", "count"),
    ("core.clauses", "count"),
    ("core.check_ms", "ms"),
    ("core.check_calls", "count"),
    ("core.optimize_ms", "ms"),
    ("core.optimize_calls", "count"),
    ("core.enumerate_ms", "ms"),
    ("core.enumerate_calls", "count"),
    ("core.disambiguate_ms", "ms"),
    ("core.disambiguate_calls", "count"),
    ("core.capacity_ms", "ms"),
    ("core.capacity_calls", "count"),
    ("core.subset_ms", "ms"),
    ("core.subset_calls", "count"),
    ("core.render_ms", "ms"),
    ("core.fingerprint_ms", "ms"),
    ("logic.objective_encode_ms", "ms"),
    ("logic.objective_clauses", "count"),
    ("logic.objective_vars", "count"),
    ("logic.descent_ms", "ms"),
    ("logic.descent_solves", "count"),
    ("sat.solves", "count"),
    ("sat.conflicts", "count"),
    ("sat.learnt_clauses", "count"),
    ("sat.subsumed", "count"),
    ("sat.eliminated_vars", "count"),
    ("sat.vivified", "count"),
    ("sat.portfolio_solves", "count"),
    ("sweep.enumerate_ms", "ms"),
    ("sweep.run_differential_ms", "ms"),
    ("sweep.sessions", "count"),
    ("sweep.queries", "count"),
    ("sweep.orderings", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.finish_ms", "ms"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.compiles", "count"),
    ("serve.evictions", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.hit_service_ms_p50", "ms"),
    ("serve.miss_service_ms_p50", "ms"),
    ("serve.shard_busy_max_s", "s"),
    ("serve.shard_imbalance", "ratio"),
    ("serve.p95_owner_kind_share", "ratio"),
    ("serve.p95_owner_layer_share", "ratio"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What a workload hands back: op counts plus named metric values.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one failed op with its reason on standard error.
    pub fn fail(&mut self, why: impl std::fmt::Display) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("FAILED: {why}");
        }
    }
}

/// Runs whole passes over a workload's tape: another pass starts while it
/// is expected to end within the run's time, and at least `min_passes`
/// run, so every run does the same work. A pass calls the sampler it is
/// handed, between ops or after them, to time one repetition of the
/// set-up there (the first, cold set-up is the caller's), so the set-up
/// median sees the same machine the ops saw; a burst of repetitions
/// before the ops moved 30% between processes. Each set-up's value goes
/// to `teardown`, untimed; the time both take is kept off the pass's
/// wall time. Returns the set-up median and each pass's wall time.
pub fn run_passes<T>(
    seconds: Duration,
    min_passes: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
    mut pass: impl FnMut(&mut dyn FnMut() -> Result<(), String>) -> Result<(), String>,
) -> Result<(f64, Vec<f64>), String> {
    let started = std::time::Instant::now();
    let mut samples = Vec::new();
    let mut walls = Vec::new();
    loop {
        let mut inside = 0.0;
        let pass_started = std::time::Instant::now();
        pass(&mut || {
            let setup_started = std::time::Instant::now();
            let value = std::hint::black_box(setup()?);
            samples.push(setup_started.elapsed().as_secs_f64());
            teardown(value);
            inside += setup_started.elapsed().as_secs_f64();
            Ok(())
        })?;
        let took = pass_started.elapsed();
        walls.push(took.as_secs_f64() - inside);
        if walls.len() >= min_passes && started.elapsed() + took > seconds {
            if samples.is_empty() {
                return Err("no set-up was timed".into());
            }
            return Ok((stats::median(&samples), walls));
        }
    }
}

/// The end-to-end metrics common to every workload, from per-op
/// latencies laid out pass after pass, each pass visiting the same ops in
/// the same order. `ops_per_s` is the median over passes of the pass's
/// ops over its wall time: the virtual machines this runs on lose whole
/// seconds to steal time, and a median keeps one slowed pass from moving
/// the run. `latency_p50_ms` is the median over ops of each op's median
/// over passes: the architect tape's ops split into a cheap and a heavy
/// cluster with the median three ops below the gap, and a few slow
/// samples of cheap ops moved the pooled median 2.5 times.
/// `latency_p95_ms` pools every sample. Fails when fewer than ten
/// samples lie beyond the p95 rank.
pub fn end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    latencies_ms: &[f64],
    pass_walls: &[f64],
) -> Result<(), String> {
    if latencies_ms.is_empty() || pass_walls.is_empty() {
        return Err("no op completed".into());
    }
    let (p95, beyond) = stats::percentile(latencies_ms, 95.0);
    if beyond < 10 {
        return Err(format!(
            "only {beyond} of {} samples beyond p95; run longer",
            latencies_ms.len()
        ));
    }
    let per_pass = latencies_ms.len() / pass_walls.len();
    let typical = stats::per_op_medians(latencies_ms, per_pass)
        .ok_or("passes of unequal length")?;
    let p50 = stats::median(&typical);
    let rates: Vec<f64> = pass_walls
        .iter()
        .map(|wall| per_pass as f64 / wall)
        .collect();
    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("ops_per_s", stats::median(&rates));
    out.metrics.insert("latency_p50_ms", p50);
    out.metrics.insert("latency_p95_ms", p95);
    out.metrics.insert("peak_rss_mb", stats::peak_rss_mib()?);
    println!(
        "{} ops in {} passes, {:.2} s; p50 {p50:.3} ms, p95 {p95:.3} ms ({beyond} samples beyond)",
        latencies_ms.len(),
        pass_walls.len(),
        pass_walls.iter().sum::<f64>(),
    );
    Ok(())
}

/// Turns the spans of a traced run into per-layer self times (ms) and
/// call counts, plus the share of op wall time no layer claimed.
pub fn layer_times(out: &mut Outcome, tracer: &Tracer) {
    let spans = tracer.spans();
    for (name, nanos) in trace::self_times(spans, 0) {
        let ms = nanos as f64 / 1e6;
        if name == "op" {
            let total: u64 = spans
                .iter()
                .filter(|s| s.name == "op")
                .map(|s| s.end - s.start)
                .sum();
            out.metrics.insert(
                "trace.unattributed_pct",
                100.0 * nanos as f64 / total.max(1) as f64,
            );
            continue;
        }
        let key = metric_name(format!("{name}_ms"));
        *out.metrics.entry(key).or_default() += ms;
        if name.starts_with("core.") && name != "core.render" && name != "core.fingerprint" {
            let calls = spans.iter().filter(|s| s.name == name).count();
            *out.metrics
                .entry(metric_name(format!("{name}_calls")))
                .or_default() += calls as f64;
        }
    }
    out.metrics.insert("trace.spans", spans.len() as f64);
}

/// The `PER_LAYER` entry named `name`; every span name maps to one.
fn metric_name(name: String) -> &'static str {
    PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|n| *n == name)
        .unwrap_or_else(|| panic!("metric {name} missing from PER_LAYER"))
}

/// Where a traced run writes its spans, one JSON object per line.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-{seed}.jsonl"))
}

/// Refuses to run when a `NETARCH_*` variable is set: solver knobs read
/// from the environment would silently change the measured program.
fn environment_guard() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("NETARCH_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "unset {} first: NETARCH_* knobs change the measured program",
            set.join(", ")
        ))
    }
}

/// `None` asks for `--record-digests`.
fn parse_args() -> Result<Option<Args>, String> {
    let mut argv = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        if flag == "--record-digests" {
            return Ok(None);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    }))
}

fn run() -> Result<Option<Outcome>, String> {
    environment_guard()?;
    let Some(args) = parse_args()? else {
        architect::record_digests()?;
        return Ok(None);
    };
    let mut out = match args.workload.as_str() {
        "architect" => architect::run(&args, false)?,
        "architect-2t" => architect::run(&args, true)?,
        "sweep" => sweep::run(&args)?,
        "serve" => serve::run(&args)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, _) in wanted {
        out.metrics.entry(name).or_insert(0.0);
    }
    out.metrics
        .retain(|name, _| wanted.iter().any(|&(n, _)| n == *name));
    Ok(Some(out))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // Shortest representation that round-trips: every digit measured.
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(out)) => {
            let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
            let metrics: Vec<String> = out
                .metrics
                .iter()
                .map(|(name, &v)| {
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        json_number(v),
                        units[name]
                    )
                })
                .collect();
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                out.failed == 0,
                out.attempted,
                out.failed,
                metrics.join(", ")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("archbench: {e}");
            ExitCode::from(2)
        }
    }
}
