#!/usr/bin/env sh
# Determinism gate: the experiments binary must produce byte-identical
# output across two runs in separate processes. Any divergence means
# nondeterminism leaked into the simulation (ambient randomness, hash
# iteration order, wall-clock reads) and fails the build.
#
# A third run with TCA_TRACE=1 must match the baseline byte-for-byte as
# well: causal span tracing is required to be a pure observer — if
# recording spans shifts a single metric, the tracer has perturbed the
# schedule or the RNG stream.
#
# The resilience experiment (E17) is additionally gated on its own: it is
# the only workload exercising seeded retry jitter, retry budgets,
# circuit breakers, and admission control, and its output embeds the
# rpc.shed / breaker.open / retry.budget_exhausted / server.shed
# counters — two runs must agree on every one of them byte-for-byte.
#
# At seed 42 the first run is also compared with the committed
# experiments_output.txt: every consolidation in this repository leans on
# "same seed, same bytes as before", so a run that agrees with itself but
# not with the record is a changed schedule, and fails with the diff.
# Regenerate the file (and the tables EXPERIMENTS.md quotes from it) only
# for a change that is meant to move the numbers.
#
# Usage: scripts/determinism_gate.sh [seed]
set -eu

SEED="${1:-42}"
OUT_A="$(mktemp)"
OUT_B="$(mktemp)"
OUT_T="$(mktemp)"
OUT_R1="$(mktemp)"
OUT_R2="$(mktemp)"
trap 'rm -f "$OUT_A" "$OUT_B" "$OUT_T" "$OUT_R1" "$OUT_R2"' EXIT

export CARGO_NET_OFFLINE=true
cargo build -q -p tca-bench --bin experiments --release --offline

./target/release/experiments --seed "$SEED" >"$OUT_A"
./target/release/experiments --seed "$SEED" >"$OUT_B"
TCA_TRACE=1 ./target/release/experiments --seed "$SEED" >"$OUT_T"

if cmp -s "$OUT_A" "$OUT_B"; then
    echo "DETERMINISM-OK: two seed=$SEED runs are byte-identical ($(wc -c <"$OUT_A") bytes)"
else
    echo "DETERMINISM-FAIL: same-seed runs diverged (seed=$SEED)" >&2
    diff "$OUT_A" "$OUT_B" >&2 || true
    exit 1
fi

if [ "$SEED" = 42 ]; then
    if cmp -s "$OUT_A" experiments_output.txt; then
        echo "RECORD-OK: seed=42 run is byte-identical to experiments_output.txt"
    else
        echo "RECORD-FAIL: seed=42 run differs from the committed experiments_output.txt" >&2
        diff experiments_output.txt "$OUT_A" >&2 || true
        exit 1
    fi
fi

if cmp -s "$OUT_A" "$OUT_T"; then
    echo "TRACE-DETERMINISM-OK: TCA_TRACE=1 run matches the baseline byte-for-byte"
else
    echo "TRACE-DETERMINISM-FAIL: tracing perturbed the seed=$SEED run" >&2
    diff "$OUT_A" "$OUT_T" >&2 || true
    exit 1
fi

# Resilience-enabled pair: jittered retries, budgets, breakers, and
# admission control must be exactly as reproducible as everything else
# (a different seed widens coverage beyond the main pair's seed).
RSEED=$((SEED + 7))
./target/release/experiments --seed "$RSEED" e17 >"$OUT_R1"
./target/release/experiments --seed "$RSEED" e17 >"$OUT_R2"

if cmp -s "$OUT_R1" "$OUT_R2"; then
    echo "RESILIENCE-DETERMINISM-OK: two seed=$RSEED E17 runs are byte-identical ($(wc -c <"$OUT_R1") bytes)"
else
    echo "RESILIENCE-DETERMINISM-FAIL: resilience stack diverged (seed=$RSEED)" >&2
    diff "$OUT_R1" "$OUT_R2" >&2 || true
    exit 1
fi

# Sharded pair: E19 is the only workload exercising the router fleet,
# ring placement, and the Zipfian key chooser at scale — two runs at a
# third seed must agree byte-for-byte on throughput, latency percentiles,
# and per-shard hot-spot shares.
SSEED=$((SEED + 13))
OUT_S1="$(mktemp)"
OUT_S2="$(mktemp)"
trap 'rm -f "$OUT_A" "$OUT_B" "$OUT_T" "$OUT_R1" "$OUT_R2" "$OUT_S1" "$OUT_S2"' EXIT

./target/release/experiments --seed "$SSEED" e19 >"$OUT_S1"
./target/release/experiments --seed "$SSEED" e19 >"$OUT_S2"

if cmp -s "$OUT_S1" "$OUT_S2"; then
    echo "SHARDING-DETERMINISM-OK: two seed=$SSEED E19 runs are byte-identical ($(wc -c <"$OUT_S1") bytes)"
else
    echo "SHARDING-DETERMINISM-FAIL: sharded deployment diverged (seed=$SSEED)" >&2
    diff "$OUT_S1" "$OUT_S2" >&2 || true
    exit 1
fi

# Dataflow pair: E20 is the only workload running the transfer cells at
# fleet sizes other than the default (1 to 16 partitions) and at longer
# dataflow epochs — two runs at a fourth seed must agree byte-for-byte.
DSEED=$((SEED + 17))
OUT_D1="$(mktemp)"
OUT_D2="$(mktemp)"
trap 'rm -f "$OUT_A" "$OUT_B" "$OUT_T" "$OUT_R1" "$OUT_R2" "$OUT_S1" "$OUT_S2" "$OUT_D1" "$OUT_D2"' EXIT

./target/release/experiments --seed "$DSEED" e20 >"$OUT_D1"
./target/release/experiments --seed "$DSEED" e20 >"$OUT_D2"

if cmp -s "$OUT_D1" "$OUT_D2"; then
    echo "DATAFLOW-DETERMINISM-OK: two seed=$DSEED E20 runs are byte-identical ($(wc -c <"$OUT_D1") bytes)"
else
    echo "DATAFLOW-DETERMINISM-FAIL: dataflow head-to-head diverged (seed=$DSEED)" >&2
    diff "$OUT_D1" "$OUT_D2" >&2 || true
    exit 1
fi

# Workflow pair: E21 is the only workload exercising the exactly-once
# workflow runtime — durable intents, the idempotence table, wf_guard
# fences, and the naive retry baseline's countable double-applies — two
# runs at a fifth seed must agree byte-for-byte on every marker audit
# and latency percentile.
WSEED=$((SEED + 19))
OUT_W1="$(mktemp)"
OUT_W2="$(mktemp)"
trap 'rm -f "$OUT_A" "$OUT_B" "$OUT_T" "$OUT_R1" "$OUT_R2" "$OUT_S1" "$OUT_S2" "$OUT_D1" "$OUT_D2" "$OUT_W1" "$OUT_W2"' EXIT

./target/release/experiments --seed "$WSEED" e21 >"$OUT_W1"
./target/release/experiments --seed "$WSEED" e21 >"$OUT_W2"

if cmp -s "$OUT_W1" "$OUT_W2"; then
    echo "WORKFLOW-DETERMINISM-OK: two seed=$WSEED E21 runs are byte-identical ($(wc -c <"$OUT_W1") bytes)"
else
    echo "WORKFLOW-DETERMINISM-FAIL: exactly-once workflow runs diverged (seed=$WSEED)" >&2
    diff "$OUT_W1" "$OUT_W2" >&2 || true
    exit 1
fi
