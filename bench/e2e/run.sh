#!/bin/sh
# Build the end-to-end benchmark from this checkout's sources, then run one
# workload:
#
#   sh bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line on stdout is the result
# line of e2e.exe. Fails (without a result line) when the checkout cannot
# be built.
set -eu
cd "$(dirname "$0")/../.."
if ! command -v dune >/dev/null 2>&1; then
    eval "$(opam env 2>/dev/null)" || true
fi
DUNE_CACHE=disabled dune build --root . ./bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
