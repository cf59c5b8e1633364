#!/usr/bin/env bash
# Builds the server and the benchmark program from source, then runs the
# benchmark with the arguments given, from the repository root:
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 15 --trace 0
# Build output goes to stderr; the benchmark's last stdout line is the JSON
# result. Everything written stays inside the checkout (_build/ and
# .perfbench_run/).
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
mkdir -p .perfbench_run/tmp
export TMPDIR="$PWD/.perfbench_run/tmp" DUNE_CACHE=disabled
dune build --root . ./bin/omflp_cli.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe \
  --server ./_build/default/bin/omflp_cli.exe "$@"
