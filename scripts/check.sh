#!/usr/bin/env bash
# Canonical pre-merge check: tier-1 gate + formatting, fully offline.
#
#   scripts/check.sh
#
# The workspace has no external dependencies, so every step runs with
# --offline against an empty registry cache.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== tier-1: cargo build --release --offline (warnings are errors) =="
RUSTFLAGS="-D warnings" cargo build --release --offline --workspace --all-targets

# Every test suite runs at both worker extremes. That includes the
# switch gates: shard invariance, chaos (fixed fault seeds 11 and 47),
# controller idempotence, TCAM/float parity, SoA parity, scale parity
# (sketched vs exact, budget cap, pinned budgeted fingerprints), ruleset
# swap, overload and phase parity (DESIGN.md secs. 12-16).
echo "== tier-1: cargo test -q --offline (IGUARD_WORKERS=1) =="
IGUARD_WORKERS=1 cargo test -q --offline --workspace

echo "== cargo test -q --offline (IGUARD_WORKERS=8) =="
IGUARD_WORKERS=8 cargo test -q --offline --workspace

# bench_report computes every gate row itself and exits 1 if any failed;
# the document is written either way, so failing rows can be shown.
echo "== bench_report smoke run: every gate row must pass =="
smoke_dir="$(mktemp -d /tmp/bench_smoke.XXXXXX)"
trap 'rm -rf "$smoke_dir"' EXIT
smoke="$smoke_dir/BENCH.json"
status=0
cargo run -q --release --offline -p iguard-bench --bin bench_report -- --smoke --out "$smoke" \
    || status=$?
git diff --exit-code -- 'BENCH_PR*.json' BENCH.json \
    || { echo "bench_report smoke run overwrote a committed bench document"; exit 1; }
if [ "$status" -ne 0 ] || ! grep -q '"all_gates_pass": true' "$smoke"; then
    grep '"pass": false' "$smoke" || true
    echo "bench_report smoke run failed its gates (exit $status)"
    exit 1
fi
# A change that drops or renames a gate must edit the committed baseline.
gate_names() { grep -o '{"name": "[^"]*"' "$1" | sort; }
diff <(gate_names BENCH.json) <(gate_names "$smoke") \
    || { echo "smoke gate names differ from the committed BENCH.json"; exit 1; }

echo "All checks passed."
