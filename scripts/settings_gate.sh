#!/usr/bin/env sh
# Settings gate: a `pub` field of a `pub struct …Config` / `…Params` /
# `…Profile` / `…Policy` in a crate must be named by Rust code that could
# set it — some `.rs` file
# other than the one defining the struct (an experiment, world, example,
# test, benchmark workload or sibling module), or the defining file's own
# `#[cfg(test)]` part. A field nothing else names has one value in use,
# its default: it is a constant wearing a setting's clothes (DESIGN.md
# "Settings"). The match is by word, so a field that shares its name with
# anything else passes; the gate finds the plainly dead ones, which is
# how `ServiceConfig::handler_latency` — documented, defaulted, and read
# nowhere — was found.
#
# `core::taxonomy::ModelProfile` is skipped: it is a row of the paper's
# Figure 1 that `profile()` returns, not something a caller sets.
#
# Usage: scripts/settings_gate.sh  (from the repo root)
set -eu

roots="crates src tests examples benchmark"
fail=0
for file in $(grep -rlE --include='*.rs' \
    '^pub struct [A-Za-z0-9_]*(Config|Params|Profile|Policy) \{' crates/*/src); do
    # One `Type::field` per pub field of every such struct in `$file`.
    for setting in $(awk '
        /^pub struct ModelProfile \{/ { next }
        /^pub struct [A-Za-z0-9_]*(Config|Params|Profile|Policy) \{/ { ty = $3; next }
        /^\}/ { ty = "" }
        ty != "" && /^    pub [a-z0-9_]+:/ { sub(":", "", $2); print ty "::" $2 }
    ' "$file"); do
        field=${setting##*::}
        elsewhere=$(grep -rlw --include='*.rs' --exclude-dir=target -e "$field" $roots |
            grep -v -x "$file" | head -n 1)
        if [ -z "$elsewhere" ] &&
            ! sed -n '/#\[cfg(test)\]/,$p' "$file" | grep -qw -e "$field"; then
            echo "UNSET: $setting — nothing outside $file names it" >&2
            fail=1
        fi
    done
done

[ "$fail" -eq 0 ] && echo "SETTINGS-OK: every pub field of a Config/Params/Profile/Policy struct is named outside its file"
exit "$fail"
