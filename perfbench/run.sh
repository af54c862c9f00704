#!/usr/bin/env bash
# Builds the server (`qmatch`, from the repository workspace) and the load
# generator (this package), then runs the generator with every argument
# passed through:
#
#   bash perfbench/run.sh --workload match-protein --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --smoke
#
# Run it from the repository root. Build output goes to stderr, so the
# last line of stdout is the generator's JSON result. Artifacts land in
# $CARGO_TARGET_DIR (default: target/).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p qmatch-cli >&2
cargo build --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perfbench" --server "$target/release/qmatch" --work-dir "$root/.bench_work" "$@"
