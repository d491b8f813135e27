#!/usr/bin/env bash
# One run of one workload of the elsdb benchmark, from the root of a
# source checkout: builds bench/perf/perf.exe with dune, then runs
#
#   perf.exe one --workload NAME --seed N --seconds S --trace 0|1
#
# whose last line of stdout is the JSON result. Build output goes to
# stderr; the build stays inside the checkout (_build, no shared cache).
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/perf.exe 1>&2
exec timeout --kill-after=5 175 ./_build/default/bench/perf/perf.exe one "$@"
