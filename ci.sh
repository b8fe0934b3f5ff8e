#!/usr/bin/env bash
# Tier-1 verification: build, test, format, lint, docs. Everything here must
# pass offline (the workspace has no external dependencies; benchmarks are the
# dependency-free `harness bench` subcommand).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release --workspace"
cargo build --release --workspace

echo "== cargo test -q"
cargo test -q

# The Tier-1 command above tests only the root facade package; the crate
# tests (lint rules, model checkers, oracle self-tests, cascade and policy
# internals) run here, in debug so `debug_assert!`s are live.
echo "== cargo test -q --workspace"
cargo test -q --workspace

# `DetRng::normal_index` must give every workload the slots of the libm
# rejection loop it replaced; the debug suite checks 10⁶ requests per
# shape, this ignored sweep 10⁸ at release speed.
echo "== cargo test -q --release -p sim-clock -- --ignored"
cargo test -q --release -p sim-clock -- --ignored

# The benchmark package is a workspace of its own, so the steps above never
# build or test it. Its tests hold sliced runs equal to uninterrupted ones,
# decorated runs equal to undecorated ones, and the concrete Chrono equal to
# `PolicyKind::build`, on the same crates the rest of the gate checks.
echo "== cargo test -q --release --offline --manifest-path tierbench/Cargo.toml"
cargo test -q --release --offline --manifest-path tierbench/Cargo.toml

# The benchmark's deterministic metrics (simulated throughput, FMAR,
# simulated p99 and slot-share equality) at the default and hold-out seed of
# every workload. A change that moves one fails here until it re-records
# tests/tierbench_holdout.txt with the same three commands.
echo "== tierbench --holdout (deterministic metrics vs tests/tierbench_holdout.txt)"
holdout_out=$(mktemp)
for w in steady-2tier churn-3tier fleet-2tier; do
  cargo run -q --release --offline --manifest-path tierbench/Cargo.toml -- \
    --workload "$w" --holdout >> "$holdout_out"
done
if ! diff -u tests/tierbench_holdout.txt "$holdout_out"; then
  echo "holdout check FAILED: a deterministic benchmark metric moved"
  exit 1
fi
rm -f "$holdout_out"

echo "== cargo fmt --check"
cargo fmt --check

# tierbench is a workspace of its own, so neither the step above nor the
# clippy steps below see it.
echo "== cargo fmt --manifest-path tierbench/Cargo.toml --check"
cargo fmt --manifest-path tierbench/Cargo.toml --check

echo "== cargo clippy -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy --manifest-path tierbench/Cargo.toml --all-targets -- -D warnings"
cargo clippy --offline --manifest-path tierbench/Cargo.toml --all-targets -- -D warnings

# Doc comments link to public names across crates; a rename or deletion
# that leaves a link dangling fails here.
echo "== cargo doc --workspace --no-deps (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== harness lint (chrono-lint: zero unwaived findings)"
./target/release/harness lint

echo "== harness model-check (exhaustive PageFlags lifecycle vs golden)"
./target/release/harness model-check

echo "== harness race-check (exhaustive shard-interleaving model + injected-bug self-test)"
./target/release/harness race-check

echo "== harness fuzz smoke (32 seeds x 2000 ops, fixed base)"
./target/release/harness fuzz --seeds 32 --ops 2000 --seed-base 0x5EED0000

echo "== harness fuzz migration-stress (write-abort/backpressure paths, tiny in-flight tables)"
./target/release/harness fuzz --migration-stress --seeds 32 --ops 2000

echo "== harness fuzz fault-storm (poison/quarantine/capacity paths under storm-rate FaultPlans)"
./target/release/harness fuzz --fault-storm --seeds 32 --ops 2000

echo "== harness fuzz tenant-storm (cross-shard invariants + admission rejects, mixed policies)"
./target/release/harness fuzz --tenant-storm --seeds 32

echo "== harness fuzz three-tier (tier-chain op schedules over DRAM+CXL+PMem)"
./target/release/harness fuzz --three-tier --seeds 32 --ops 2000

echo "== harness fuzz tier-chaos (offline/evacuate/rejoin arcs under canonical3/storm3)"
./target/release/harness fuzz --tier-chaos --seeds 32 --ops 2000

echo "== tier_failover example (failure-domain arc end to end, throughput bar asserted)"
cargo run --release --example tier_failover

# The other examples that assert: quarantine and copy-fault counts equal on
# replay, the write-abort and backpressure paths, tuning and graph runs, and
# per-edge traffic on the three-tier chain.
for ex in fault_chaos migration_inflight adaptive_tuning graph_analytics; do
  echo "== $ex example (asserts)"
  cargo run --release --example "$ex"
done
echo "== harness three_tier example (every tier and both chain edges active)"
cargo run --release -p harness --example three_tier

echo "== harness run thread-invariance (same seed, 1 vs 4 worker threads)"
d1=$(./target/release/harness run --tenants 200 --millis 5 --threads 1 | awk '/digest:/{print $2}')
d4=$(./target/release/harness run --tenants 200 --millis 5 --threads 4 | awk '/digest:/{print $2}')
if [[ -z "$d1" || "$d1" != "$d4" ]]; then
  echo "thread-invariance FAILED: 1-thread digest '$d1' != 4-thread digest '$d4'"
  exit 1
fi
echo "   digest $d1 identical at 1 and 4 threads"

# Every figure builds its system through `harness::runner`, so the global
# knobs must reach the figures that once built their own: each id writes
# period rows, and every run's rows show the canonical plan's mid-run
# fast-tier shrink (offlined frames).
echo "== harness --fault-plan canonical --json (knobs reach fig1, fig10b, ext-adapt, ext-limits)"
knob_dir=$(mktemp -d)
./target/release/harness --fault-plan canonical --json "$knob_dir" fig1 fig10b ext-adapt ext-limits > /dev/null
for id in fig1 fig10b ext-adapt ext-limits; do
  rows=("$knob_dir/${id}__"*.json)
  if [[ ! -e "${rows[0]}" ]] || grep -L '"offlined_frames":[1-9]' "${rows[@]}" | grep -q .; then
    echo "knob check FAILED: $id wrote no period rows, or a run whose rows never show the fault plan's shrink"
    exit 1
  fi
  echo "   $id: ${#rows[@]} runs, each with offlined frames"
done
rm -rf "$knob_dir"

echo "== harness fuzz self-test (injected bug must be caught and shrunk)"
./target/release/harness fuzz --self-test

echo "== harness verify (determinism + metamorphic + goldens)"
./target/release/harness verify

# Reduced-scale perf smoke: validates the committed BENCH_*.json schema and
# fails on a >25 % end-to-end throughput regression. Wall-clock dependent,
# so slow or loaded machines can skip it.
if [[ "${CHRONO_SKIP_BENCH:-0}" == "1" ]]; then
  echo "== harness bench --quick --check (skipped: CHRONO_SKIP_BENCH=1)"
else
  echo "== harness bench --quick --check (throughput vs committed baseline)"
  ./target/release/harness bench --quick --check
fi

echo "CI OK"
