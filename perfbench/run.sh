#!/usr/bin/env bash
# Build the benchmark from source and run it. Run from the root of an opdw
# checkout; arguments pass through to the benchmark, e.g.
#   bash perfbench/run.sh --workload olap-warm --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not an opdw checkout (no dune-project or lib/ here)" >&2
  exit 2
fi
# the dune cache lives outside the checkout: keep every write inside it
dune build --root . --cache=disabled --display=quiet -j 2 ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
