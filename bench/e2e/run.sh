#!/usr/bin/env bash
# The one command of the host-time benchmark: build the programs under
# test and the harness, then run it.
#
#   bench/e2e/run.sh                  every workload, every end-to-end metric
#   bench/e2e/run.sh --trace          … plus the traced pass and the per-layer metrics
#   bench/e2e/run.sh --check          shrunk self-test of the harness, < 30 s
#   bench/e2e/run.sh --record FILE    … and write the numbers to FILE as JSON
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     one run, last stdout line a JSON result
#                                     (the form BENCHMARK.json's driver calls)
#
# Run from the repository root.  Builds go to $CARGO_TARGET_DIR when it is
# set (one shared directory), else to target/ and bench/e2e/target/.
set -euo pipefail

here="bench/e2e"
if [[ ! -f Cargo.toml || ! -f "$here/Cargo.toml" ]]; then
    echo "run.sh: run me from the root of a full checkout (no Cargo.toml here)" >&2
    exit 3
fi

if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    mkdir -p "$CARGO_TARGET_DIR"
    CARGO_TARGET_DIR="$(cd "$CARGO_TARGET_DIR" && pwd)"
    export CARGO_TARGET_DIR
    programs="$CARGO_TARGET_DIR/release"
    harness="$CARGO_TARGET_DIR/release/v2d-e2e"
else
    programs="$PWD/target/release"
    harness="$PWD/$here/target/release/v2d-e2e"
fi

# Build output goes to stderr: stdout carries only the results.
cargo build --release --offline --quiet --bin v2d --bin v2d-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$harness" --bin-dir "$programs" "$@"
    fi
done
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$harness" all --bin-dir "$programs" --commit "$commit" "$@"
