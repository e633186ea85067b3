#!/bin/sh
# Tier-1 gate: full build, full test suite, and the no-committed-artifacts
# invariant, in one command (see README "CI").
set -eu

cd "$(dirname "$0")"

echo "== dune build @all"
dune build @all 2>&1

echo "== dune runtest"
dune runtest

echo "== obs smoke: trace a small install, validate it, check BENCH_obs.json"
# the trace must parse as Chrome trace-event JSON, contain the expected
# phase spans, and be byte-identical across two runs (virtual clock only)
obs_tmp=_build/obs-smoke
mkdir -p "$obs_tmp"
./_build/default/bin/spack.exe install --trace "$obs_tmp/trace1.json" libdwarf > /dev/null
./_build/default/bin/spack.exe install --trace "$obs_tmp/trace2.json" libdwarf > /dev/null
cmp "$obs_tmp/trace1.json" "$obs_tmp/trace2.json"
./_build/default/bin/spack.exe trace-validate "$obs_tmp/trace1.json" \
    --expect concretize --expect build.stage --expect build.configure \
    --expect build.compile --expect build.link --expect build.install \
    --expect "install libdwarf"
# the committed baseline must match a fresh run within the per-metric
# tolerance policy (bench --check never writes; re-baselining is an
# explicit `bench obs --update-baselines`)
./_build/default/bench/main.exe obs --check > /dev/null

echo "== profile smoke: critical-path report and JSONL log deterministic at every -j"
# `spack profile` must produce a byte-identical report and structured
# event log across repeated runs, serial and parallel, and the JSONL log
# must validate (balanced spans, monotone timestamps, profile.* events)
prof_tmp=_build/profile-smoke
mkdir -p "$prof_tmp"
for j in 1 4; do
    ./_build/default/bin/spack.exe profile -j "$j" --events "$prof_tmp/ev.jsonl" mpileaks > "$prof_tmp/report-a.txt"
    cp "$prof_tmp/ev.jsonl" "$prof_tmp/ev-a.jsonl"
    ./_build/default/bin/spack.exe profile -j "$j" --events "$prof_tmp/ev.jsonl" mpileaks > "$prof_tmp/report-b.txt"
    cmp "$prof_tmp/report-a.txt" "$prof_tmp/report-b.txt"
    cmp "$prof_tmp/ev-a.jsonl" "$prof_tmp/ev.jsonl"
done
./_build/default/bin/spack.exe trace-validate "$prof_tmp/ev-a.jsonl" \
    --expect concretize --expect install --expect mpileaks
grep -q '"ev":"profile.summary"' "$prof_tmp/ev-a.jsonl"
# the slack table surfaces through `spack stats --slack` too
./_build/default/bin/spack.exe stats --slack mpileaks | grep -q 'cp efficiency'

echo "== bench regression gate: --check passes on baselines, fires on +10% injected cost"
# an injected +10% per-node cost (a uniform scaling of the deterministic
# schedule) must fail the gate; the unperturbed run must pass
if ./_build/default/bench/main.exe parallel --check --inject-cost-pct 10 > "$prof_tmp/inject.out" 2>&1; then
    echo "error: bench --check did not catch a +10% cost injection" >&2
    exit 1
fi
grep -q 'REGRESSION' "$prof_tmp/inject.out"

echo "== parallel smoke: -j4 deterministic, store identical to -j1, check BENCH_parallel.json"
# the install scheduler must be deterministic (two -j4 runs byte-identical,
# trace included) and must leave exactly the store a -j1 install leaves
par_tmp=_build/parallel-smoke
mkdir -p "$par_tmp"
./_build/default/bin/spack.exe install -j 4 --trace "$par_tmp/trace1.json" \
    --index-out "$par_tmp/index-j4a.json" mpileaks > /dev/null
./_build/default/bin/spack.exe install -j 4 --trace "$par_tmp/trace2.json" \
    --index-out "$par_tmp/index-j4b.json" mpileaks > /dev/null
./_build/default/bin/spack.exe install -j 1 \
    --index-out "$par_tmp/index-j1.json" mpileaks > /dev/null
cmp "$par_tmp/trace1.json" "$par_tmp/trace2.json"
cmp "$par_tmp/index-j4a.json" "$par_tmp/index-j4b.json"
cmp "$par_tmp/index-j1.json" "$par_tmp/index-j4a.json"
./_build/default/bench/main.exe parallel --check > /dev/null

echo "== ccache smoke: cold == warm == --fresh byte-for-byte, persisted cache deterministic, warm hits > 0, check BENCH_concretize.json"
# the concretization cache must be observationally invisible: a cold run,
# a warm run against the persisted cache, and a --fresh run must print
# byte-identical concrete specs; the warm run must report cache hits.
# The persisted file itself must be deterministic across processes: the
# warm run's rewrite and a second cold run's file equal the first cold
# run's byte-for-byte
cc_tmp=_build/ccache-smoke
mkdir -p "$cc_tmp"
rm -f "$cc_tmp/ccache.json" "$cc_tmp/ccache-cold2.json"
./_build/default/bin/spack.exe spec --ccache "$cc_tmp/ccache.json" mpileaks > "$cc_tmp/cold.out"
cp "$cc_tmp/ccache.json" "$cc_tmp/ccache-cold.json"
./_build/default/bin/spack.exe spec --ccache "$cc_tmp/ccache.json" mpileaks > "$cc_tmp/warm.out"
./_build/default/bin/spack.exe spec --ccache "$cc_tmp/ccache-cold2.json" mpileaks > /dev/null
./_build/default/bin/spack.exe spec --fresh mpileaks > "$cc_tmp/fresh.out"
cmp "$cc_tmp/cold.out" "$cc_tmp/warm.out"
cmp "$cc_tmp/cold.out" "$cc_tmp/fresh.out"
cmp "$cc_tmp/ccache-cold.json" "$cc_tmp/ccache.json"
cmp "$cc_tmp/ccache-cold.json" "$cc_tmp/ccache-cold2.json"
rm -f "$cc_tmp/stats-ccache.json"
./_build/default/bin/spack.exe stats --ccache "$cc_tmp/stats-ccache.json" libdwarf > "$cc_tmp/stats-cold.out"
./_build/default/bin/spack.exe stats --ccache "$cc_tmp/stats-ccache.json" libdwarf > "$cc_tmp/stats-warm.out"
grep -q '^ccache\.misses  *1$' "$cc_tmp/stats-cold.out"
warm_hits=$(awk '/^ccache\.hits/ {print $2}' "$cc_tmp/stats-warm.out")
if [ -z "$warm_hits" ] || [ "$warm_hits" -lt 1 ]; then
    echo "error: warm run reported no ccache hits" >&2
    exit 1
fi
# the bench asserts byte-identity and the >=5x iteration reduction over
# the whole 21-workload suite
./_build/default/bench/main.exe concretize --check > /dev/null

echo "== solve smoke: clause backend solves what greedy cannot, deterministically; check BENCH_solve.json"
# the §4.5 divergence spec: greedy must dead-end with a blocked decision
# path, the clause backend must solve it (through openmpi) with
# byte-identical output across runs; a true conflict must produce the
# golden unsat core on the clause backend
sv_tmp=_build/solve-smoke
mkdir -p "$sv_tmp"
div_spec="mpileaks ^mpi+hwloc ^hwloc@1.9"
if ./_build/default/bin/spack.exe solve $div_spec > "$sv_tmp/greedy.out" 2>&1; then
    echo "error: greedy unexpectedly solved the divergence spec" >&2
    exit 1
fi
grep -q 'blocked decision path (greedy backend):' "$sv_tmp/greedy.out"
./_build/default/bin/spack.exe solve --concretizer clauses $div_spec > "$sv_tmp/clauses1.out"
./_build/default/bin/spack.exe solve --concretizer clauses $div_spec > "$sv_tmp/clauses2.out"
cmp "$sv_tmp/clauses1.out" "$sv_tmp/clauses2.out"
grep -q 'openmpi' "$sv_tmp/clauses1.out"
if ./_build/default/bin/spack.exe solve --concretizer clauses "gerris ^mpich@1.4" > "$sv_tmp/unsat.out" 2>&1; then
    echo "error: clause backend solved an unsatisfiable spec" >&2
    exit 1
fi
# the whole rendered core, byte for byte: reasons render on demand, so a
# rendering regression shows up across the process boundary
cmp "$sv_tmp/unsat.out" test/solve_unsat.expected
# the bench asserts byte-identical backend agreement over the whole
# 21-workload suite plus the divergence/unsat contract
./_build/default/bench/main.exe solve --check > /dev/null

echo "== store smoke: crash-consistency torture at sampled kill points, check BENCH_store.json"
# the torture command kills an install at filesystem write barriers,
# recovers the store with a fresh installer, and verifies the reloaded
# index is a prefix of the completed store with no unindexed orphans;
# sampled here (every 13th barrier, serial and -j4) — the full
# every-boundary sweep runs in the test suite (test_torture)
st_tmp=_build/store-smoke
mkdir -p "$st_tmp"
./_build/default/bin/spack.exe torture --every 13 mpileaks > "$st_tmp/torture-j1.out"
grep -q 'kill point' "$st_tmp/torture-j1.out"
./_build/default/bin/spack.exe torture -j 4 --every 13 mpileaks > "$st_tmp/torture-j4.out"
grep -q 'kill point' "$st_tmp/torture-j4.out"
# durability traffic is pinned: a changed write count moves every kill point
grep -q ' 105 barriers,' "$st_tmp/torture-j1.out"
grep -q ' 105 barriers,' "$st_tmp/torture-j4.out"
# the bench asserts sharded index traffic beats the legacy whole-file
# rewrite and that a single-recipe edit leaves unrelated ccache entries
# live (per-entry Merkle invalidation)
./_build/default/bench/main.exe store --check > /dev/null

echo "== buildcache smoke: fleet trace deterministic, splice verified, check BENCH_buildcache.json"
# the mirror-fleet trace is seeded and runs on the virtual clock, so two
# generations of the document must be byte-identical; splicing a cached
# dyninst onto libelf@0.8.12 must recompute the hash and pass the
# empty-environment loader verification
bc_tmp=_build/buildcache-smoke
mkdir -p "$bc_tmp"
./_build/default/bench/main.exe buildcache "$bc_tmp/doc1.json" > /dev/null
./_build/default/bench/main.exe buildcache "$bc_tmp/doc2.json" > /dev/null
cmp "$bc_tmp/doc1.json" "$bc_tmp/doc2.json"
# a pushed entry is format 2: its first line is the compact JSON header
cat > "$bc_tmp/entry.spack" <<EOF
install libdwarf
cache-push
cache-entry-export libdwarf $bc_tmp/libdwarf.entry
EOF
./_build/default/bin/spack.exe script "$bc_tmp/entry.spack" > "$bc_tmp/entry.out"
head -n 1 "$bc_tmp/libdwarf.entry" | grep -q '^{"format":2,.*"spec_bytes":[0-9]*}$'
./_build/default/bin/spack.exe splice dyninst --replace libelf@0.8.12 > "$bc_tmp/splice.out"
grep -q 'spliced hash differs' "$bc_tmp/splice.out"
grep -q 'loader verified' "$bc_tmp/splice.out"
# the bench asserts the full accounting: hits + source builds cover the
# trace, every recovery path fires, and the zipf skew shows
./_build/default/bench/main.exe buildcache --check > /dev/null

echo "== env smoke: unified solve -j4, lockfile replay byte-identical, stale lock refused, check BENCH_env.json"
# process 1 solves an environment fresh and exports its lockfile and
# store index; process 2 (an empty store) imports the lockfile, replays
# it with install_locked, and must end at a byte-identical index;
# process 3 layers a drifted site config and must refuse the same
# lockfile with a typed staleness error, installing nothing
env_tmp=_build/env-smoke
mkdir -p "$env_tmp"
cat > "$env_tmp/solve.spack" <<EOF
env-create apps /opt/apps
env-add apps lulesh +openmp
env-add apps hpccg
env-install apps -j 4
env-status apps
env-lock-export apps $env_tmp/lock.json
index-export $env_tmp/index-solve.json
EOF
cat > "$env_tmp/replay.spack" <<EOF
env-create apps /opt/apps
env-add apps lulesh +openmp
env-add apps hpccg
env-lock-import apps $env_tmp/lock.json
env-install-locked apps -j 4
index-export $env_tmp/index-replay.json
EOF
cat > "$env_tmp/stale.spack" <<EOF
env-create apps /opt/apps
env-add apps lulesh +openmp
env-add apps hpccg
env-lock-import apps $env_tmp/lock.json
env-install-locked apps -j 4
index-export $env_tmp/index-stale.json
EOF
./_build/default/bin/spack.exe script "$env_tmp/solve.spack" > "$env_tmp/solve.out"
grep -q 'lockfile written' "$env_tmp/solve.out"
# the exported lock is format 3: one compact line, checksummed as written
grep -q '"format":3' "$env_tmp/lock.json"
test "$(wc -l < "$env_tmp/lock.json")" -eq 1
./_build/default/bin/spack.exe script "$env_tmp/replay.spack" > "$env_tmp/replay.out"
grep -q 'lockfile replayed' "$env_tmp/replay.out"
# the solve store and the replay store agree record for record
cmp "$env_tmp/index-solve.json" "$env_tmp/index-replay.json"
printf 'site.name = elsewhere\n' > "$env_tmp/drifted.conf"
if ./_build/default/bin/spack.exe script --config "$env_tmp/drifted.conf" \
       "$env_tmp/stale.spack" > "$env_tmp/stale.out" 2>&1; then
    echo "error: a stale lockfile replayed under a drifted config" >&2
    exit 1
fi
grep -q 'stale' "$env_tmp/stale.out"
# the refusal names the fingerprint part that drifted
grep -q 'config fingerprint changed' "$env_tmp/stale.out"
grep -q '"records": \[\]' "$env_tmp/index-stale.json"
# the env lifecycle survives a kill at every 7th filesystem barrier
./_build/default/bin/spack.exe torture --env --every 7 libdwarf gsl > "$env_tmp/torture.out"
grep -q 'kill point' "$env_tmp/torture.out"
grep -q ' 55 write barriers ' "$env_tmp/torture.out"
# a root that does not parse fails the env sweep instead of being skipped
if ./_build/default/bin/spack.exe torture --env libelf 'zzz@@' \
       > "$env_tmp/torture-bad.out" 2>&1; then
    echo "error: env torture exited 0 with a root that does not parse" >&2
    exit 1
fi
grep -q 'zzz@@' "$env_tmp/torture-bad.out"
# the bench asserts byte-identical solve-vs-replay stores/indexes/views,
# the typed staleness refusal, and closure-exact shared-store views
./_build/default/bench/main.exe env --check > /dev/null

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
