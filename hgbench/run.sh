#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash hgbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout. Build output goes to stderr, so the
# last line on stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./hgbench/main.exe 1>&2
exec ./_build/default/hgbench/main.exe "$@"
