#!/usr/bin/env bash
# Checks that the prose docs cite only code that exists. In README.md,
# DESIGN.md and EXPERIMENTS.md, every backticked `Type::lower_item` must
# name a `fn`, `const` or `pub field:` defined under crates/, and every
# backticked repo path (crates/..., tests/..., scripts/..., with an
# optional :line) must exist, with at least that many lines, and every
# backticked metric name `layer.name` must appear as the string literal
# "layer.name" somewhere under crates/ (an e2e metric in spec.rs, or a
# counter or histogram the code records). The layers are the prefixes of
# the e2e benchmark's `layer("...")` table; file names (`serve.rs`) are
# not metric names. Every `--bin <name>` the docs cite must be a binary of
# shmt-bench: crates/bench/src/bin/<name>.rs or <name>/main.rs.
# Usage: scripts/check_docs.sh (exits 1 and lists each stale citation).
set -euo pipefail
cd "$(dirname "$0")/.."

# The e2e benchmark's per-layer prefixes, as an alternation (core|serve|...).
layers=$(grep -oE 'layer\("[a-z]+\.' crates/bench/src/bin/e2e/spec.rs |
    sed -E 's/^layer\("//; s/\.$//' | sort -u | paste -sd'|')

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
    for bin in $(tr '\n' ' ' <"$doc" | grep -oE -- '--bin +[A-Za-z0-9_-]+' |
        sed -E 's/^--bin +//' | sort -u); do
        if [ ! -e "crates/bench/src/bin/$bin.rs" ] && [ ! -e "crates/bench/src/bin/$bin/main.rs" ]; then
            echo "$doc: \`--bin $bin\` is no binary of shmt-bench"
            fail=1
        fi
    done
    # A metric name starts a word that no `.` or `/` precedes (so neither
    # `report.trace.as_ref` nor a path component counts).
    for cite in $(grep -oE "(^|[^A-Za-z0-9_./])($layers)\.[a-z_][a-z0-9_]*" <<<"$spans" |
        sed -E 's/^[^a-z]//' | grep -vE '\.(rs|md|json|txt|sh|toml)$' | sort -u); do
        if ! grep -rqF "\"$cite\"" crates --include='*.rs'; then
            echo "$doc: \`$cite\` is no metric name recorded under crates/"
            fail=1
        fi
    done
done
[ "$fail" -eq 0 ] && echo "docs cite only existing code"
exit "$fail"
