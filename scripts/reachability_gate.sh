#!/usr/bin/env sh
# Reachability gate: a `pub mod` in a crate's lib.rs must be named by
# Rust code other than itself — an experiment, example, test, world,
# benchmark or sibling module. A module `m` of crate `x` is named when
# some `.rs` file besides the module and that lib.rs mentions an item
# lib.rs re-exports from it, or writes `m::` while sitting in crate `x`
# or mentioning it (`tca_x`, `tca::x`, `x::`). Modules only their own
# unit tests reach grow unnoticed; this is how `messaging::queue` and
# `storage::tiered` were found.
#
# Usage: scripts/reachability_gate.sh  (from the repo root)
set -eu

roots="crates src tests examples benchmark"
# Drop module `$m` itself and the lib.rs declaring it from a file list.
others() {
    grep -v -e "^$src/$m\\.rs\$" -e "^$src/$m/" -e "^$lib\$" || true
}
fail=0
for lib in crates/*/src/lib.rs; do
    src=${lib%/lib.rs}
    crate=$(basename "${src%/src}")
    for m in $(sed -n 's/^pub mod \([a-z0-9_]*\);.*/\1/p' "$lib"); do
        # `pub use m::{A, B};` (possibly over several lines) or `pub use m::A;`
        items=$(tr '\n' ' ' <"$lib" | grep -o "pub use $m::[^;]*;" |
            sed "s/^pub use $m:://" | tr -c 'A-Za-z0-9_' '\n' |
            grep -v -x -e '' -e as -e self || true)
        users=""
        if [ -n "$items" ]; then
            words=$(echo $items | tr ' ' '|')
            users=$(grep -rlE --include='*.rs' "\\b($words)\\b" $roots | others)
        fi
        if [ -z "$users" ]; then
            for f in $(grep -rlE --include='*.rs' "\\b$m::" $roots | others); do
                case "$f" in
                "$src"/*) users=$f ;;
                *) grep -qE "\\btca_$crate\\b|\\btca::$crate\\b|\\b$crate::" "$f" && users=$f ;;
                esac
                [ -n "$users" ] && break
            done
        fi
        if [ -z "$users" ]; then
            echo "UNREACHABLE: $crate::$m — nothing outside $src/$m.rs names it" >&2
            fail=1
        fi
    done
done

[ "$fail" -eq 0 ] && echo "REACHABILITY-OK: every pub mod is named outside itself"
exit "$fail"
