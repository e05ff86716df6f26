#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it. Run from the
# root of the source tree; every argument goes to dmutex_bench.exe:
#
#   bash bench/e2e/run.sh --workload live-saturated --seed 1 --seconds 36 --trace 0
#
# Build output goes to stderr, so standard output ends with the
# benchmark's JSON result line.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the root of the dmutex source tree" >&2
  exit 2
fi

# Everything the build writes stays in this tree (_build/), not in
# dune's shared cache under the home directory.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/dmutex_bench.exe 1>&2
exec ./_build/default/bench/e2e/dmutex_bench.exe "$@"
