#!/usr/bin/env bash
# Tier-1 gate: build, test, and lint the whole workspace offline.
# Everything here must pass before a change lands.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --offline --workspace

echo "== test =="
cargo test -q --offline --workspace

echo "== archbench (build + unit tests) =="
# The benchmark package has its own workspace and builds against crates/*
# by path, so an API change that breaks it must fail here rather than in
# the benchmark run.
cargo build --release --offline --manifest-path archbench/Cargo.toml
cargo test -q --offline --manifest-path archbench/Cargo.toml

echo "== clippy =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --workspace --all-targets -- -D warnings
elif [ "${CI:-0}" = "1" ]; then
    # On CI a missing linter is a broken toolchain, not an optional step:
    # silently skipping here once let warnings land unreviewed.
    echo "error: CI=1 but cargo clippy is not installed" >&2
    exit 1
else
    echo "WARNING: clippy not installed; lint step SKIPPED (set CI=1 to make this fatal)" >&2
fi

echo "== rustdoc =="
# Broken, ambiguous or private intra-doc links fail here, so a doc link to
# a deleted item cannot land.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== rustfmt (netarch-corpus, netarch-logic, netarch-core) =="
# The corpus, logic and core crates are held to rustfmt's default style;
# the rest of the workspace is not formatted yet.
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt -p netarch-corpus -p netarch-logic -p netarch-core --check
elif [ "${CI:-0}" = "1" ]; then
    echo "error: CI=1 but cargo fmt is not installed" >&2
    exit 1
else
    echo "WARNING: rustfmt not installed; format step SKIPPED (set CI=1 to make this fatal)" >&2
fi

# Trajectory output of the experiment runs below goes here: CI must not
# dirty the tree.
bench_tmp="$(mktemp -d)"
trap 'rm -rf "$bench_tmp"' EXIT

echo "== budgeted case study (CLI) =="
# The committed case study at 64 servers under a $1,212,000 budget, read
# through the .narch `budget_usd` path: check, optimize and capacity must
# print their known verdicts and fleet size. Answers only, no timing.
budget_tmp="$(mktemp -d)"
trap 'rm -rf "$bench_tmp" "$budget_tmp"' EXIT
sed -e 's/^    num_servers = .*/    num_servers = 64/' \
    -e '/^  objectives = /a\  budget_usd = 1212000' \
    corpus/case_study.narch > "$budget_tmp/case_study.narch"
if ! grep -q '^    num_servers = 64$' "$budget_tmp/case_study.narch" ||
    ! grep -q '^  budget_usd = 1212000$' "$budget_tmp/case_study.narch"; then
    echo "error: could not set the fleet and budget in the committed case study" >&2
    exit 1
fi
budget_files=(corpus/systems/*.narch corpus/hardware/*.narch
    corpus/orderings.narch "$budget_tmp/case_study.narch")
budget_answer() { # <expected first line> <query> [trailing args]
    local want="$1" query="$2" out
    shift 2
    out="$(cargo run --release --offline -q --bin netarch -- "$query" "${budget_files[@]}" "$@")"
    if [ "${out%%$'\n'*}" != "$want" ]; then
        echo "error: budgeted case study: netarch $query printed" >&2
        echo "$out" >&2
        exit 1
    fi
}
budget_answer "FEASIBLE" check
budget_answer "OPTIMAL" optimize
budget_answer "SERVERS NEEDED: 44" capacity 256

echo "== case-study optimum (CLI) =="
# The committed case study's Listing 3 stack (latency > cost > monitoring)
# must print OPTIMAL and the level penalties 0, 529 and 2, in order.
# Answers only: the dollar total depends on which optimal design the
# solver witnesses, so it is not checked.
optimum="$(cargo run --release --offline -q --bin netarch -- optimize \
    corpus/*.narch corpus/*/*.narch)"
penalties="$(printf '%s\n' "$optimum" | sed -n 's/^level .* penalty \([0-9]*\)$/\1/p' |
    tr '\n' ' ')"
if [ "${optimum%%$'\n'*}" != "OPTIMAL" ] || [ "$penalties" != "0 529 2 " ]; then
    echo "error: case-study optimum: netarch optimize printed" >&2
    echo "$optimum" >&2
    exit 1
fi

echo "== serve-replay (case study) =="
# The committed case study through the sharded service, every answer
# checked against a fresh single-use engine (the command fails on any
# disagreement). Routing by full fingerprint must give every shard some
# of this one-catalog tape. Answers and counts only, no timing.
serve_json="$(cargo run --release --offline -q --bin netarch -- serve-replay \
    corpus/systems/*.narch corpus/hardware/*.narch corpus/orderings.narch \
    corpus/case_study.narch --requests 120 --oracle --json)"
serve_shards="$(printf '%s\n' "$serve_json" | sed -n 's/^  "shards": \([0-9]*\),$/\1/p')"
serve_busy="$(printf '%s\n' "$serve_json" | sed -n '/^  "per_shard": \[/,/^  \]/p' |
    grep -c '"requests": [1-9]' || true)"
if [ -z "$serve_shards" ] || [ "$serve_busy" != "$serve_shards" ]; then
    echo "error: serve-replay served the case study on $serve_busy of ${serve_shards:-?} shards" >&2
    echo "$serve_json" >&2
    exit 1
fi

echo "== DSL frontend throughput =="
# Parse + lower the full text corpus; asserts the lowered catalog is at
# the paper's scale and that a full load stays under a second.
NETARCH_BENCH_DIR="$bench_tmp" \
    cargo run --release --offline -q -p netarch-bench --bin exp_parse

echo "== bench trajectory files =="
# The committed BENCH_*.json perf summaries must parse and name their
# experiment (full checks live in tests/bench_trajectory.rs, run above).
for f in BENCH_scaling.json BENCH_incremental.json BENCH_portfolio.json BENCH_parse.json BENCH_serve.json BENCH_parallel_queries.json BENCH_sweep.json; do
    [ -s "$f" ] || { echo "error: missing trajectory file $f" >&2; exit 1; }
done

echo "== proof-check =="
# Solve a seeded UNSAT corpus (500+ instances) with DRAT logging on and
# replay every proof through the independent checker; any rejection fails.
cargo run --release --offline -q -p netarch-bench --bin exp_proof_check

echo "== incremental-session smoke =="
# The 50-query differential workload: session answers must match a fresh
# engine's per query, and the session must be at least 3× faster.
NETARCH_BENCH_DIR="$bench_tmp" \
    cargo run --release --offline -q -p netarch-bench --bin exp_incremental

echo "== session suite on probe seats (2 threads) =="
# The adversarial-ordering session suite builds its engines from the
# environment, so NETARCH_THREADS=2 puts it on a 2-seat portfolio backend:
# optimize's racing descent runs on probe seats, interleaved with check,
# enumerate and subset queries on the same session. Racing arbitration
# first, then deterministic. Answers must match fresh engines.
NETARCH_THREADS=2 cargo test -q --offline -p netarch-core --test interleaved_queries
NETARCH_THREADS=2 NETARCH_DETERMINISTIC=1 cargo test -q --offline -p netarch-core \
    --test interleaved_queries

echo "== portfolio smoke =="
# Reduced corpus: zero verdict disagreements and a ≥1.0× median speedup
# for a 4-seat broadcast round vs 1 seat (the full bound of ≥1.5× is
# asserted by the un-flagged run, which CI skips for time).
NETARCH_BENCH_DIR="$bench_tmp" \
    cargo run --release --offline -q -p netarch-bench --bin exp_portfolio -- --smoke

echo "== session suite (certified) =="
# The session-engine suite with every solve proof-checked end-to-end
# (NETARCH_VERIFY_PROOFS=1): SAT models re-evaluated, UNSAT verdicts and
# cores replayed through the DRAT checker. Proof mode keeps every verdict
# on the certified session solver whatever NETARCH_THREADS says, so a
# 2-thread rerun here would repeat this run exactly.
NETARCH_VERIFY_PROOFS=1 cargo test -q --offline -p netarch-core --test interleaved_queries

echo "== parallel descent smoke =="
# Toy shapes through the racing MaxSAT descent with the full
# parallel-vs-sequential oracle; persists BENCH_parallel_queries.json to
# the temp dir for the regression gate below. Smoke gates correctness
# only — the ≥1.3× descent speedup claim lives in the committed full run.
NETARCH_BENCH_DIR="$bench_tmp" \
    cargo run --release --offline -q -p netarch-bench --bin exp_parallel_queries -- --smoke

echo "== serving suite (2 threads) =="
# The sharded service under the portfolio backend: every shard count ×
# cache mode must match fresh single-use engines, and seeded runs must
# reproduce bit-identically modulo timing.
NETARCH_THREADS=2 cargo test -q --offline -p netarch-serve \
    --test service_differential --test service_determinism

echo "== serving smoke =="
# Reduced pool + tape through the sharded service with the full
# differential oracle; persists BENCH_serve.json to the temp dir for the
# regression gate below (the committed file only tracks full runs).
# Smoke gates correctness only — warm-over-cold wall time is reported
# but not asserted, because 1-core CI containers make sub-ms medians
# scheduler noise; the ≥3× claim lives in the committed full run.
NETARCH_BENCH_DIR="$bench_tmp" \
    cargo run --release --offline -q -p netarch-bench --bin exp_serve -- --smoke

echo "== sweep smoke (seeded, golden manifest) =="
# The combinatorial sweep pipeline end to end on the committed example:
# enumerate the fixed spec and require the exact variant count and
# stream digest. Any drift in grammar lowering, CNF encoding, projected
# enumeration, the canonical ordering, or the seeded shuffle shows up
# here as a digest mismatch.
sweep_golden="sweep monitoring_matrix: variants=30 admissible=30 seed=7 digest=646007cbf294adb3dd5e9bde202f842b"
sweep_got="$(cargo run --release --offline -q --bin netarch -- sweep examples/sweep.narch --smoke)"
if [ "$sweep_got" != "$sweep_golden" ]; then
    echo "error: sweep manifest drifted" >&2
    echo "  expected: $sweep_golden" >&2
    echo "  got:      $sweep_got" >&2
    exit 1
fi
# The same stream must be reproduced bit-identically under different
# thread counts: the manifest digest covers every variant in order.
sweep_mt="$(NETARCH_THREADS=2 cargo run --release --offline -q --bin netarch -- sweep examples/sweep.narch --smoke)"
if [ "$sweep_mt" != "$sweep_golden" ]; then
    echo "error: sweep manifest depends on NETARCH_THREADS" >&2
    exit 1
fi

echo "== sweep differential smoke =="
# Reduced sweep universe through the full fan-out: thread-count
# invariance of the stream plus the warm-session-vs-fresh-oracle
# differential over every query kind and ordering; persists
# BENCH_sweep.json to the temp dir for the regression gate below.
NETARCH_BENCH_DIR="$bench_tmp" \
    cargo run --release --offline -q -p netarch-bench --bin exp_sweep -- --smoke

echo "== bench regression gate =="
# Compare the candidate trajectory written above against the committed
# BENCH_*.json files: full-fidelity timings within the allowed factor,
# smoke runs held to their own bounds and zero disagreements.
NETARCH_BENCH_CANDIDATE="$bench_tmp" \
    cargo test -q --offline --test bench_regression

echo "== seeded-RNG policy =="
# Solver, probe pool, and their tests must not read wall clock or ambient
# entropy: determinism of the deterministic mode (and of every test) rests
# on all randomness flowing from explicit seeds. grep exits 0 on a match,
# 1 on none, and 2 on an error such as a missing file — a stale list must
# fail loudly, not pass because some other listed file was read.
rng_status=0
grep -nE 'thread_rng|from_entropy|rand::random|SystemTime::now|Instant::now' \
    crates/sat/src/solver.rs crates/sat/src/probes.rs crates/sat/src/enumerate.rs \
    crates/sat/tests/solver_properties.rs crates/sat/tests/parallel_probes.rs \
    crates/logic/tests/parallel_descent.rs crates/core/tests/portfolio_engine.rs \
    || rng_status=$?
if [ "$rng_status" -eq 0 ]; then
    echo "error: wall-clock or ambient-entropy source in solver/probe-pool code" >&2
    exit 1
elif [ "$rng_status" -ne 1 ]; then
    echo "error: seeded-RNG policy grep failed (status $rng_status)" >&2
    exit 1
fi

echo "== ci: all green =="
