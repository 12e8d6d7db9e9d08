#!/usr/bin/env sh
# Simulation-digest gate: every in-process benchmark workload, run once at
# seed 42, must print the `sim_digest` recorded in
# scripts/sim_digests_seed42.txt. The digest folds every simulated metric
# and counter of the run, so a host-side optimisation that moved a single
# event, message or timer fails here with both values — before anybody
# looks at its timings. (`experiments-suite` runs a child process and is
# covered byte for byte by scripts/determinism_gate.sh.)
#
# Re-record a line only for a change that is meant to move the simulation,
# together with the tables in benchmark/README.md.
#
# Usage: scripts/sim_digest_gate.sh      (from the repository root)
set -eu

RECORD=scripts/sim_digests_seed42.txt
failed=0
while read -r workload want; do
    out=$(sh benchmark/run.sh --workload "$workload" --seed 42 --reps 1 --trace 0) || {
        echo "SIM-DIGEST-FAIL: $workload: benchmark run failed" >&2
        failed=1
        continue
    }
    got=$(printf '%s\n' "$out" | sed -n 's/^ *sim_digest \(0x[0-9a-f]*\).*/\1/p')
    if [ "$got" = "$want" ]; then
        echo "SIM-DIGEST-OK: $workload $got"
    else
        echo "SIM-DIGEST-FAIL: $workload: recorded $want, this run ${got:-none}" >&2
        failed=1
    fi
done <"$RECORD"
exit "$failed"
