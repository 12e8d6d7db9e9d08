#!/bin/sh
# Whole-stack benchmark: build, run, check outputs, print every metric.
#
#   sh benchmark/run.sh [--seed N]         every workload, end-to-end metrics
#   sh benchmark/run.sh trace [--seed N]   every workload, per-layer metrics
#   sh benchmark/run.sh compare A.json B.json
#   sh benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run, as the driver makes it
#
# Run from the repository root. Nothing outside the checkout is read or
# written; build outputs land in $CARGO_TARGET_DIR or the two target/ dirs.
set -eu

root=$(pwd)
here="$root/benchmark"
[ -f "$here/Cargo.toml" ] || { echo "run.sh: run from the repository root" >&2; exit 2; }
export CARGO_NET_OFFLINE=true

now_ns() { date +%s%N; }

# Build the benchmark package and the root `experiments` binary; set $bin
# and $experiments. $build_s is what every run pays for cargo's two
# up-to-date checks: each is timed eight times and counts with its fastest
# time (a check takes 25-45 ms on a host whose slow moments last longer
# than a check). The one-off build itself is not in it, so that a run's
# set-up time repeats.
build_bench() {
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
}
build_experiments() {
    cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
        -p tca-bench --bin experiments
}

build() {
    build_bench
    build_experiments
    checks=
    for _ in 1 2 3 4 5 6 7 8; do
        t0=$(now_ns)
        build_bench
        t1=$(now_ns)
        build_experiments
        t2=$(now_ns)
        checks="$checks$((t1 - t0)) $((t2 - t1))
"
    done
    build_s=$(printf '%s' "$checks" | awk '
        NR == 1 || $1 < a { a = $1 }
        NR == 1 || $2 < b { b = $2 }
        END { printf "%.9f", (a + b) / 1e9 }')
    if [ -n "${CARGO_TARGET_DIR:-}" ]; then
        case "$CARGO_TARGET_DIR" in
            /*) out="$CARGO_TARGET_DIR" ;;
            *) out="$root/$CARGO_TARGET_DIR" ;;
        esac
        bin="$out/release/tca-benchmark"
        experiments="$out/release/experiments"
    else
        bin="$here/target/release/tca-benchmark"
        experiments="$root/target/release/experiments"
    fi
}

bench() { # flags passed through
    "$bin" --repo-root "$root" --experiments-bin "$experiments" --build-s "$build_s" "$@"
}

workloads="kernel-storm ycsb-read ycsb-hot-write twopc-transfer dataflow-transfer
workflow-faults mc-explore experiments-suite"

mode=all
case "${1:-}" in
    compare)
        build
        shift
        exec "$bin" compare "$@"
        ;;
    trace)
        mode=trace
        shift
        ;;
esac

case " $* " in
    *" --workload "*)
        build
        bench "$@"
        exit
        ;;
esac

seed=42
if [ "${1:-}" = "--seed" ]; then
    seed=$2
fi
build
mkdir -p "$here/out"
failed=0
if [ "$mode" = trace ]; then
    for w in $workloads; do
        bench --workload "$w" --seed "$seed" --reps 1 --trace 1 || failed=1
    done
else
    result="$here/out/run-seed$seed.json"
    lines="$result.lines"
    : >"$lines"
    for w in $workloads; do
        bench --workload "$w" --seed "$seed" --reps 5 --trace 0 --detail "$lines" || failed=1
    done
    {
        printf '{"seed": %s, "workloads": [\n' "$seed"
        sed '$!s/$/,/' "$lines"
        printf ']}\n'
    } >"$result"
    rm -f "$lines"
    echo "wrote $result"
fi
[ "$failed" = 0 ] || { echo "run.sh: an output check failed" >&2; exit 1; }
