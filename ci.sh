#!/usr/bin/env bash
# Repository CI gate: build, tier-1 tests, full workspace tests,
# lint-clean clippy, and the pinned fault-injection regressions.
#
# Everything here is deterministic (fixed seeds throughout), so a red run
# is always reproducible locally with the same commands.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> rustfmt (check only)"
cargo fmt --check

echo "==> build (release)"
cargo build --release

echo "==> benchmark compile check (perfbench is its own workspace)"
# `--workspace` never reaches perfbench/, so a sada-fleet API change that
# breaks the benchmark would otherwise only surface when it is run.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> tier-1 tests (root package: safety properties + chaos sweep)"
cargo test -q

echo "==> full workspace tests"
cargo test -q --workspace

echo "==> clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (deny warnings)"
# Broken intra-doc links (e.g. to a deleted or private item) only warn by
# default; fail the gate on them instead.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> pinned chaos seeds (regression corpus + reproducibility)"
# The sweep covers SADA_CHAOS_SEEDS random fault plans per intensity
# (default 50) with the manager itself among the crash victims, and
# replays every manager-journal prefix of every run. CI keeps the default
# subset; set SADA_FULL_CHAOS=1 for the 250-seed soak before releases.
if [ "${SADA_FULL_CHAOS:-0}" != "0" ]; then
    SADA_CHAOS_SEEDS="${SADA_CHAOS_SEEDS:-250}" cargo test -q --test chaos_sweep
else
    cargo test -q --test chaos_sweep
fi

echo "==> observability timeline smoke (video case study + chaos seed replay)"
cargo run -q --release -p sada-bench --bin report -- timeline > /dev/null
cargo run -q --release -p sada-bench --bin report -- timeline 3 > /dev/null

echo "==> fleet control-plane smoke (100 groups, concurrent sessions + crash/restore leg)"
cargo run -q --release -p sada-bench --bin report -- fleet > /dev/null

echo "==> planner hot-path smoke (sweep + pinned safety-check budget, no timing loops)"
# Runs the 16/24/32-component sweep and its embedded assertions: compiled
# kernels >= 5x fewer predicate evaluations at 24 components, and the
# 16-component safety-check count within the budget pinned in
# crates/bench/benches/bench_planning.rs. Fails the gate on regression.
SADA_BENCH_SMOKE=1 cargo bench -q -p sada-bench --bench bench_planning > /dev/null

echo "==> overload-protection smoke (admission control vs always-admit baseline)"
# Renders the overload comparison table, then runs the pinned robustness
# asserts from crates/bench/benches/bench_overload.rs: protected goodput
# >= 80% of calibrated capacity at 4x Poisson arrivals with bounded p99
# admission wait, baseline collapse, breaker trips, bulkhead shedding, and
# fingerprint-identical replays. Regenerates BENCH_overload.json.
cargo run -q --release -p sada-bench --bin report -- overload > /dev/null
SADA_BENCH_SMOKE=1 cargo bench -q -p sada-bench --bench bench_overload > /dev/null

echo "==> sharded control-plane smoke (2-shard determinism + scaling sweep)"
# Renders the per-shard table (includes a 1-thread vs 4-thread fingerprint
# comparison over a straddler-bearing workload and a fabric-chaos leg with
# fault/retransmission counters), then runs the pinned asserts from
# crates/bench/benches/bench_shard.rs: identical final configurations and
# event-stream fingerprints at 1/2/4/8 worker threads, zero fabric traffic
# for the local storm, lossy straddler outcomes identical to lossless, and
# — on hosts with >= 4 cores — the >= 3x sessions/sec speedup at 4
# threads. Regenerates BENCH_shard.json (incl. the fabric_chaos leg).
cargo run -q --release -p sada-bench --bin report -- shard > /dev/null
SADA_BENCH_SMOKE=1 cargo bench -q -p sada-bench --bench bench_shard > /dev/null

echo "==> scenario-generator smoke (seeded serverless + IaaS universes end-to-end)"
# Generates one universe per domain and seed (serverless, IaaS, IaaS with
# the energy objective), runs each through the sharded control plane at 1
# and 4 worker threads with a fingerprint-identity assert, and prints the
# energy-objective showcase (watt route != ms route). Then the bench's
# smoke mode re-runs the full assertion sweep — every session concludes,
# thread-invariance at 1/2/4 threads per (domain, seed), goal
# reachability for every generated cluster — and regenerates
# BENCH_scenario.json (3 seeds per domain, sessions/sec + plan-cache hit
# rate + standalone planning pred-evals).
cargo run -q --release -p sada-bench --bin report -- scenario > /dev/null
SADA_BENCH_SMOKE=1 cargo bench -q -p sada-bench --bench bench_scenario > /dev/null

echo "==> scale smoke (strided storms, thread-invariance + bytes-per-agent gate)"
# Renders the 1k/10k-group strided-storm table (flat throughput plus
# sharded runs with fingerprints asserted identical at 1 and 8 worker
# threads, every region loaded), then the bench's smoke mode runs the
# 10k-group row end-to-end: every session commits, 1/2/4/8-thread
# fingerprint identity, and flat peak heap under the bytes-per-agent
# ceiling pinned in crates/bench/benches/bench_scale.rs — memory
# regressions on the hot path fail loudly. The full 1k/10k/100k sweep
# (BENCH_scale.json) is regenerated by running the same bench without
# SADA_BENCH_SMOKE.
cargo run -q --release -p sada-bench --bin report -- scale > /dev/null
SADA_BENCH_SMOKE=1 cargo bench -q -p sada-bench --bench bench_scale > /dev/null

echo "==> fabric-chaos sweep (lossy fabric + global-tier crash + region crash)"
# 20 seeded fault universes over a straddler-bearing fleet with the global
# tier AND one region crashing mid-handshake: bit-for-bit identity at
# 1/2/4/8 worker threads (fingerprints, journals, the global WAL, results),
# lossy outcomes identical to the lossless twin, duplicate-delivery
# idempotence, ladder-exhaustion abandonment with a journaled verdict, and
# the fabric-codec round-trip property. Set SADA_FULL_CHAOS=1 for the
# 60-seed soak, or SADA_CHAOS_SEEDS=N to pin the sweep width.
cargo test -q -p sada-fleet --test fabric_chaos

echo "CI OK"
