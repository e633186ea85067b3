#!/bin/sh
# The full gate in one command (see README "CI"): the tier-1 build and
# test suite, then the checks that need two or more processes, then the
# no-committed-artifacts invariant. Everything a single process can show
# (every `bench MODE --check` baseline, the gate's +10% self-test, and
# the CLI goldens test/*.expected) runs inside `dune runtest`; what stays
# here compares the output of separate processes byte for byte.
set -eu

cd "$(dirname "$0")"
root=$(pwd)
spack=$root/_build/default/bin/spack.exe
bench=$root/_build/default/bench/main.exe

echo "== dune build @all"
dune build @all 2>&1

echo "== dune runtest"
dune runtest

echo "== obs: a traced install is byte-identical across processes"
# the trace runs on the virtual clock only
obs_tmp=_build/obs-smoke
mkdir -p "$obs_tmp"
"$spack" install --trace "$obs_tmp/trace1.json" libdwarf > /dev/null
"$spack" install --trace "$obs_tmp/trace2.json" libdwarf > /dev/null
cmp "$obs_tmp/trace1.json" "$obs_tmp/trace2.json"

echo "== profile: report and JSONL log byte-identical across processes at -j1 and -j4"
prof_tmp=_build/profile-smoke
mkdir -p "$prof_tmp"
for j in 1 4; do
    "$spack" profile -j "$j" --events "$prof_tmp/ev.jsonl" mpileaks > "$prof_tmp/report-a.txt"
    cp "$prof_tmp/ev.jsonl" "$prof_tmp/ev-a.jsonl"
    "$spack" profile -j "$j" --events "$prof_tmp/ev.jsonl" mpileaks > "$prof_tmp/report-b.txt"
    cmp "$prof_tmp/report-a.txt" "$prof_tmp/report-b.txt"
    cmp "$prof_tmp/ev-a.jsonl" "$prof_tmp/ev.jsonl"
done

echo "== parallel: -j4 deterministic across processes, store identical to -j1"
par_tmp=_build/parallel-smoke
mkdir -p "$par_tmp"
"$spack" install -j 4 --trace "$par_tmp/trace1.json" \
    --index-out "$par_tmp/index-j4a.json" mpileaks > /dev/null
"$spack" install -j 4 --trace "$par_tmp/trace2.json" \
    --index-out "$par_tmp/index-j4b.json" mpileaks > /dev/null
"$spack" install -j 1 --index-out "$par_tmp/index-j1.json" mpileaks > /dev/null
cmp "$par_tmp/trace1.json" "$par_tmp/trace2.json"
cmp "$par_tmp/index-j4a.json" "$par_tmp/index-j4b.json"
cmp "$par_tmp/index-j1.json" "$par_tmp/index-j4a.json"

echo "== ccache: cold == warm == --fresh byte-for-byte, persisted cache deterministic, warm hits > 0"
# the concretization cache must be observationally invisible: a cold run,
# a warm run against the persisted cache, and a --fresh run print
# byte-identical concrete specs. The persisted file is deterministic
# across processes: the warm run's rewrite and a second cold run's file
# equal the first cold run's byte-for-byte
cc_tmp=_build/ccache-smoke
mkdir -p "$cc_tmp"
rm -f "$cc_tmp/ccache.json" "$cc_tmp/ccache-cold2.json" "$cc_tmp/stats-ccache.json"
"$spack" spec --ccache "$cc_tmp/ccache.json" mpileaks > "$cc_tmp/cold.out"
cp "$cc_tmp/ccache.json" "$cc_tmp/ccache-cold.json"
"$spack" spec --ccache "$cc_tmp/ccache.json" mpileaks > "$cc_tmp/warm.out"
"$spack" spec --ccache "$cc_tmp/ccache-cold2.json" mpileaks > /dev/null
"$spack" spec --fresh mpileaks > "$cc_tmp/fresh.out"
cmp "$cc_tmp/cold.out" "$cc_tmp/warm.out"
cmp "$cc_tmp/cold.out" "$cc_tmp/fresh.out"
cmp "$cc_tmp/ccache-cold.json" "$cc_tmp/ccache.json"
cmp "$cc_tmp/ccache-cold.json" "$cc_tmp/ccache-cold2.json"
# a second process hits the cache the first one persisted
"$spack" stats --ccache "$cc_tmp/stats-ccache.json" libdwarf > /dev/null
"$spack" stats --ccache "$cc_tmp/stats-ccache.json" libdwarf > "$cc_tmp/stats-warm.out"
warm_hits=$(awk '/^ccache\.hits/ {print $2}' "$cc_tmp/stats-warm.out")
if [ -z "$warm_hits" ] || [ "$warm_hits" -lt 1 ]; then
    echo "error: warm run reported no ccache hits" >&2
    exit 1
fi

echo "== buildcache: the fleet document is byte-identical across processes"
# the mirror-fleet trace is seeded and runs on the virtual clock
bc_tmp=_build/buildcache-smoke
mkdir -p "$bc_tmp"
"$bench" buildcache "$bc_tmp/doc1.json" > /dev/null
"$bench" buildcache "$bc_tmp/doc2.json" > /dev/null
cmp "$bc_tmp/doc1.json" "$bc_tmp/doc2.json"

echo "== env: lockfile replay byte-identical across processes, stale lock refused"
# process 1 solves an environment fresh and exports its lockfile and
# store index (test/env_solve.spack); process 2 (an empty store) imports
# the lockfile, replays it with install_locked, and must end at a
# byte-identical index; process 3 layers a drifted site config and must
# refuse the same lockfile with a typed staleness error, installing nothing
env_tmp=_build/env-smoke
rm -rf "$env_tmp"
mkdir -p "$env_tmp/solve" "$env_tmp/replay" "$env_tmp/stale"
cat > "$env_tmp/replay.spack" <<EOF
env-create apps /opt/apps
env-add apps lulesh +openmp
env-add apps hpccg
env-lock-import apps ../solve/env_lock.json
env-install-locked apps -j 4
index-export env_index.json
EOF
(cd "$env_tmp/solve" && "$spack" script "$root/test/env_solve.spack" > out)
(cd "$env_tmp/replay" && "$spack" script ../replay.spack > out)
grep -q 'lockfile replayed' "$env_tmp/replay/out"
# the solve store and the replay store agree record for record
cmp "$env_tmp/solve/env_index.json" "$env_tmp/replay/env_index.json"
printf 'site.name = elsewhere\n' > "$env_tmp/drifted.conf"
if (cd "$env_tmp/stale" && "$spack" script --config ../drifted.conf \
        ../replay.spack > out 2>&1); then
    echo "error: a stale lockfile replayed under a drifted config" >&2
    exit 1
fi
grep -q 'stale' "$env_tmp/stale/out"
# the refusal names the fingerprint part that drifted
grep -q 'config fingerprint changed' "$env_tmp/stale/out"
grep -q '"records": \[\]' "$env_tmp/stale/env_index.json"

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
