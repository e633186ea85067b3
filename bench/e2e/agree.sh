#!/bin/sh
# Run-to-run agreement of the end-to-end benchmark on this machine.
#
#   sh bench/e2e/agree.sh            # RUNS=3 untraced runs per set
#   RUNS=10 sh bench/e2e/agree.sh
#
# For every workload: two sets of RUNS untraced runs (set A on seeds
# 1..RUNS, set B on seeds RUNS+1..2*RUNS), then one traced run on seed 1.
# Prints each end-to-end metric's median and IQR per set and fails when
# the two medians differ by more than the metric's bound in
# BENCHMARK.json, when any op fails, or when the traced run's Chrome trace
# does not validate or leaves more than 5% of op time unattributed. The
# traced run's op time against the untraced one is the tracing overhead.
# Files go to _build/e2e-agree.
set -eu
cd "$(dirname "$0")/../.."
runs=${RUNS:-3}
out=_build/e2e-agree
mkdir -p "$out"
dune build ./bench/e2e/e2e.exe ./bin/spack.exe
exe=./_build/default/bench/e2e/e2e.exe
secs=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for w in $workloads; do
    for i in $(seq 1 "$runs"); do
        for set in a b; do
            seed=$i
            [ "$set" = b ] && seed=$((runs + i))
            $exe --workload "$w" --seed "$seed" --seconds "$secs" --trace 0 \
                | tail -n 1 > "$out/$w-$set-$i.json"
        done
    done
    $exe --workload "$w" --seed 1 --seconds "$secs" --trace 1 \
        --trace-out "$out/$w-trace.json" > "$out/$w-traced.txt" || true
    tail -n 1 "$out/$w-traced.txt" > "$out/$w-traced.json"
    ./_build/default/bin/spack.exe trace-validate "$out/$w-trace.json" \
        --expect "op $w"
done

python3 - "$out" "$runs" $workloads <<'EOF'
import json, statistics, sys

out, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
bench = json.load(open("BENCHMARK.json"))
load = lambda path: json.load(open(path))
ok = True
for w in workloads:
    sets = {s: [load(f"{out}/{w}-{s}-{i}.json") for i in range(1, runs + 1)] for s in "ab"}
    traced = load(f"{out}/{w}-traced.json")
    print(f"== {w}")
    for r in sets["a"] + sets["b"] + [traced]:
        if not r["correct"] or r["failed"]:
            print(f"  FAIL: {r['failed']} of {r['attempted']} ops failed")
            ok = False
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        stats = {}
        for s, rs in sets.items():
            xs = [r["metrics"][name]["value"] for r in rs]
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
            stats[s] = (statistics.median(xs), (q[2] - q[0]) / statistics.median(xs))
        (ma, ia), (mb, ib) = stats["a"], stats["b"]
        diff = (mb - ma) / ma
        verdict = "ok" if abs(diff) <= bound else "FAIL"
        ok &= verdict == "ok"
        print(f"  {name:13s} A {ma:12.4f} (IQR {100*ia:5.1f}%)  B {mb:12.4f} "
              f"(IQR {100*ib:5.1f}%)  diff {100*diff:+6.1f}%  bound {100*bound:.0f}%  {verdict}")
    tm = {k: v["value"] for k, v in traced["metrics"].items()}
    wall = tm["trace.op_wall.ms"]
    parts = sum(v for k, v in tm.items()
                if k.endswith(".ms") and k != "trace.op_wall.ms")
    untraced = statistics.median(
        [r["metrics"]["ops_per_s"]["value"] for r in sets["a"] + sets["b"]])
    unattributed = tm["unattributed.ms"] / wall
    print(f"  traced: op {wall:.4f} ms = layers + unattributed {parts:.4f} ms; "
          f"unattributed {100*unattributed:.2f}%; "
          f"tracing overhead {100*(wall / (1000 / untraced) - 1):+.1f}% vs untraced")
    if unattributed > 0.05 or abs(parts - wall) > 0.02 * wall:
        print("  FAIL: the layer breakdown does not account for the op time")
        ok = False
sys.exit(0 if ok else 1)
EOF
