#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh                       every workload, both passes, all metrics
#   benchmark/run.sh --out results.json    ... and write the result document
#   benchmark/run.sh --workload tri-inmem --seed 1 --seconds 10 --trace 0
#                                          one pass; the last line is the result
#   benchmark/run.sh compare A.json B.json apply the end-to-end bounds
#
# Builds the root workspace first (that is what produces the cc-clique-node
# and cc-clique-host worker binaries), then this package into the same target
# directory, so the benchmark binary sits beside the workers and the
# multi-process fabrics find them without CC_NODE_BIN.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# The benchmark measures the repository it sits in; without it there is
# nothing to build (cargo would otherwise search the parent directories).
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ]; then
  echo "benchmark/run.sh: $root is not the congested-clique repository" >&2
  exit 1
fi

# CARGO_TARGET_DIR may be relative to the caller's directory.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries only the benchmark's report.
(cd "$root" && cargo build --release --offline --quiet) >&2
(cd "$here" && cargo build --release --offline --quiet) >&2

# The socket fabric binds its unix sockets under the temporary directory.
# Keep that inside the build directory, and name it relative to the caller's
# directory where possible: socket paths are limited to about 100 bytes.
mkdir -p "$target/tmp"
TMPDIR="$(realpath --relative-to="$PWD" "$target/tmp" 2>/dev/null || echo "$target/tmp")"
export TMPDIR

exec "$target/release/cc-benchmark" "$@"
