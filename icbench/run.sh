#!/usr/bin/env bash
# Build the benchmark from source, then run it:
#   bash icbench/run.sh --workload tune|train|grid --seed N --seconds S --trace 0|1
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result.  Exits non-zero, printing no result, outside a full
# source checkout.
set -u
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "icbench: not a source checkout (dune-project or lib/ missing)" >&2
  exit 2
fi
dune build --root . ./icbench/main.exe 1>&2 || {
  echo "icbench: build failed" >&2
  exit 2
}
exec ./_build/default/icbench/main.exe "$@"
