#!/usr/bin/env bash
# Checks that every public function has a caller outside its own file.
# Lists each `pub fn`, `pub const fn` and `pub unsafe fn` defined under
# crates/*/src (the e2e benchmark's own sources excepted) whose name, as a
# whole word, appears in no other .rs file under crates/, tests/ or
# examples/. Such a function is either dead or should be private; a
# reference implementation that only tests compare against can sit behind
# #[cfg(test)] in its own file.
# Usage: scripts/check_pub.sh (exits 1 and lists each file:name).
set -euo pipefail
cd "$(dirname "$0")/.."

all=$(find crates tests examples -name '*.rs' | sort)
fail=0
for file in $(find crates/*/src -name '*.rs' -not -path 'crates/bench/src/bin/e2e/*' | sort); do
    names=$(grep -oE '^\s*pub (const |unsafe )?fn [A-Za-z_][A-Za-z0-9_]*' "$file" |
        sed -E 's/.*fn //' | sort -u || true)
    for name in $names; do
        # shellcheck disable=SC2086
        if ! grep -lwF -- "$name" $all | grep -qvxF "$file"; then
            echo "$file: pub fn $name is named in no other file"
            fail=1
        fi
    done
done
[ "$fail" -eq 0 ] && echo "every pub fn is named outside its own file"
exit "$fail"
