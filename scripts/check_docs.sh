#!/usr/bin/env bash
# Checks that the prose docs cite only code that exists. In README.md,
# DESIGN.md and EXPERIMENTS.md, every backticked `Type::lower_item` must
# name a `fn`, `const` or `pub field:` defined under crates/, and every
# backticked repo path (crates/..., tests/..., scripts/..., with an
# optional :line) must exist, with at least that many lines.
# Usage: scripts/check_docs.sh (exits 1 and lists each stale citation).
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
for doc in README.md DESIGN.md EXPERIMENTS.md; do
    # Join lines first so a span broken across two lines stays one span.
    spans=$(tr '\n' ' ' <"$doc" | grep -o '`[^`]*`' || true)
    for cite in $(grep -oE '\b[A-Z][A-Za-z0-9_]*::[a-z_][a-z0-9_]*' <<<"$spans" | sort -u); do
        item=${cite##*::}
        if ! grep -rqE "(fn|const) $item\b|pub $item:" crates --include='*.rs'; then
            echo "$doc: \`$cite\` has no fn, const or pub field under crates/"
            fail=1
        fi
    done
    for cite in $(grep -oE '\b(crates|tests|scripts)/[A-Za-z0-9_./-]+(:[0-9]+)?' <<<"$spans" | sort -u); do
        path=${cite%%:*}
        line=${cite#"$path"}
        line=${line#:}
        if [ ! -e "$path" ] || { [ -n "$line" ] && [ "$(wc -l <"$path")" -lt "$line" ]; }; then
            echo "$doc: \`$cite\` does not exist"
            fail=1
        fi
    done
done
[ "$fail" -eq 0 ] && echo "docs cite only existing code"
exit "$fail"
