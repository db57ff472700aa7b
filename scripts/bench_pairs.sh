#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against this checkout:
#
#   scripts/bench_pairs.sh <parent-ref> <workload>[,<workload>...] <pairs> <seed-base> [seconds]
#
# Pair i runs both trees on seed <seed-base>+i through each tree's own
# benchmark/run.sh (so each side is measured by the benchmark code it
# ships), alternating which side goes first; with several workloads, pair i
# of each runs before pair i+1 of any, so a slow stretch of the host falls
# on all of them. Prints, per workload and end-to-end metric of
# BENCHMARK.json, both medians, both inter-quartile ranges and the pairs
# each side won (ties count for neither), then the same as JSON rows in
# BENCH_history.json's format. The run length defaults to the benchmark's
# own 30 s; a shorter one is for trying the script, not for a claim.
#
# The parent is unpacked with `git archive` into a temporary directory
# rather than checked out as a worktree, so an interrupted run leaves
# nothing registered in .git.
#
# With `.` as the parent ref the "parent" is a copy of this working tree
# (without .git and .bench_build): an A/A run, the same code on both sides
# through the same script, whose spread and pair split are the session's
# noise floor. Its rows carry "kind": "A/A"; record one per session.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
ref=$1 workloads=${2//,/ } pairs=$3 seed_base=$4 seconds=${5:-30}

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
if [ "$ref" = . ]; then
    tar -C "$root" --exclude=./.git --exclude=./.bench_build -c . | tar -x -C "$tmp/parent"
else
    git -C "$root" archive "$ref" | tar -x -C "$tmp/parent"
fi

run() { # run <side> <tree> <seed> <workload>
    printf '%s\t%s\t%s\t' "$1" "$3" "$4" >>"$tmp/runs.tsv"
    bash "$2/benchmark/run.sh" --workload "$4" --seed "$3" --seconds "$seconds" --trace 0 |
        tail -n 1 >>"$tmp/runs.tsv"
}

for i in $(seq 1 "$pairs"); do
    seed=$((seed_base + i))
    for workload in $workloads; do
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$tmp/parent" "$seed" "$workload"
            run change "$root" "$seed" "$workload"
        else
            run change "$root" "$seed" "$workload"
            run parent "$tmp/parent" "$seed" "$workload"
        fi
    done
    echo "pair $i/$pairs (seed $seed) done" >&2
done

commit=$(git -C "$root" rev-parse --short HEAD)
git -C "$root" diff --quiet HEAD -- . ':!BENCH_history.json' || commit="$commit+"
parent=$commit kind=A/A
[ "$ref" = . ] || parent=$(git -C "$root" rev-parse --short "$ref") kind=
PARENT=$parent KIND=$kind COMMIT=$commit SECONDS_RUN=$seconds \
    PROCS=${GOMAXPROCS:-$(nproc)} GOVERSION=$(go env GOVERSION) \
    python3 - "$tmp/runs.tsv" "$root/BENCHMARK.json" <<'EOF'
import json, os, statistics, sys

runs = {}  # workload -> side -> seed -> metrics
failed = {"parent": 0, "change": 0}
for line in open(sys.argv[1]):
    side, seed, workload, obj = line.rstrip("\n").split("\t")
    res = json.loads(obj)
    failed[side] += res["failed"] + (0 if res["correct"] else 1)
    sides = runs.setdefault(workload, {"parent": {}, "change": {}})
    sides[side][int(seed)] = {k: v["value"] for k, v in res["metrics"].items()}

def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)  # the exclusive method, as the gate uses
    return q[2] - q[0]

rows = []
for workload, sides in runs.items():
    seeds = sorted(sides["parent"])
    print(f"{workload:<16} {'parent median':>14} {'IQR':>10} {'change median':>14} {'IQR':>10}  won p/c")
    for m in json.load(open(sys.argv[2]))["end_to_end"]:
        p = [sides["parent"][s][m["name"]] for s in seeds]
        c = [sides["change"][s][m["name"]] for s in seeds]
        sign = 1 if m["better"] == "higher" else -1
        won_c = sum(sign * (y - x) > 0 for x, y in zip(p, c))
        won_p = sum(sign * (y - x) < 0 for x, y in zip(p, c))
        print(f"  {m['name']:<14} {statistics.median(p):>14.6g} {iqr(p):>10.4g} "
              f"{statistics.median(c):>14.6g} {iqr(c):>10.4g}  {won_p}/{won_c}")
        rows.append({
            **({"kind": os.environ["KIND"]} if os.environ["KIND"] else {}),
            "workload": workload, "metric": m["name"], "unit": m["unit"],
            "parent_median": statistics.median(p), "parent_iqr": iqr(p),
            "change_median": statistics.median(c), "change_iqr": iqr(c),
            "pairs": len(seeds), "change_won": won_c, "parent_won": won_p,
            "seeds": seeds, "seconds": float(os.environ["SECONDS_RUN"]),
            "parent_commit": os.environ["PARENT"], "commit": os.environ["COMMIT"],
            "gomaxprocs": int(os.environ["PROCS"]), "go": os.environ["GOVERSION"],
        })
print(f"failed operations or incorrect runs: parent {failed['parent']}, change {failed['change']}")
print("rows:")
for r in rows:
    print(json.dumps(r))
EOF
