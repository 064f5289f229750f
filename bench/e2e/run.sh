#!/usr/bin/env bash
# Build the scallop CLI and the end-to-end benchmark from source, then run
# the benchmark.  Run from the root of a checkout:
#
#   bash bench/e2e/run.sh --workload sessions-maintain --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its JSON
# result.  Exits nonzero (without a result) when the checkout cannot be built.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/dune-project" ] || [ ! -f "$root/bin/scallop.ml" ] || [ ! -d "$root/lib" ]; then
  echo "run.sh: run from the root of a scallop checkout (dune-project, bin/ and lib/ not found)" >&2
  exit 2
fi

if command -v dune >/dev/null 2>&1; then
  dune=(dune)
elif command -v opam >/dev/null 2>&1; then
  dune=(opam exec -- dune)
else
  echo "run.sh: dune not found on PATH" >&2
  exit 2
fi

# Keep every build artifact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
"${dune[@]}" build --root "$root" ./bin/scallop.exe ./bench/e2e/e2e.exe 1>&2

exec "$root/_build/default/bench/e2e/e2e.exe" --scallop "$root/_build/default/bin/scallop.exe" \
  --work "$root/.e2e_work" "$@"
