#!/usr/bin/env bash
# The benchmark's one command: build the benchmark binary from source
# (offline; a no-op when it is up to date) and run it with the caller's
# arguments, from any working directory.
#
#   bash benchmark/run.sh --workload control_poll --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh --smoke
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/lidc-benchmark" --results-dir "$here/results" "$@"
