#!/bin/sh
# The tier-1 gate (see README "CI"), then the no-committed-artifacts
# invariant. Every check, including the byte-for-byte comparisons between
# separate processes, runs inside `dune runtest`; what stays here needs a
# git work tree, which tier-1 must not (it also passes in a plain copy of
# the sources).
set -eu

cd "$(dirname "$0")"

echo "== dune build @all"
dune build @all 2>&1

echo "== dune runtest"
dune runtest

echo "== checking for stray _build files in git"
# nothing under _build/ may be tracked, and none may appear in git status
# (deletions are fine — that is _build being purged, not committed);
# outside a git work tree the check cannot run, which is a failure
if ! git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    echo "error: not inside a git work tree; cannot check for tracked _build/ files" >&2
    exit 1
fi
stray=$( { git ls-files _build;
           git status --porcelain -- _build | grep -v '^ \?D' | awk '{print $2}'; } \
         | sort -u )
if [ -n "$stray" ]; then
    echo "error: _build/ artifacts visible to git (is .gitignore intact?):" >&2
    echo "$stray" | head >&2
    exit 1
fi

echo "OK"
