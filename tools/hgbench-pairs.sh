#!/usr/bin/env bash
# Paired comparison of two checkouts on one hgbench workload:
#   bash tools/hgbench-pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD N SECONDS
# Runs N pairs on seeds 1001..1000+N, alternating which side goes first
# (the loop in hgbench/README.md, "Comparing two commits"), then prints
# one line per end-to-end metric of BENCHMARK.json: each side's median,
# its IQR/median, and in how many pairs the change was better. A gain
# counts when the change wins at least nine pairs in ten and the
# medians differ by more than the parent's IQR.
# Exits 1 if a run printed no result or reported a failed check.
set -euo pipefail

if [ $# -ne 5 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD N SECONDS" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
n=$4
seconds=$5
spec="$change/BENCHMARK.json"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for i in $(seq 1 "$n"); do
  if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
  for side in $order; do
    if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
    # a run that fails a check still prints its JSON line, exit 1
    line=$(cd "$dir" && { bash hgbench/run.sh --workload "$workload" \
      --seed $((1000 + i)) --seconds "$seconds" --trace 0 || true; } | tail -1)
    echo "$line" >> "$out/$side.jsonl"
    echo "pair $i $side seed $((1000 + i)) done" >&2
  done
done

python3 - "$spec" "$out/parent.jsonl" "$out/change.jsonl" <<'PY'
import json, statistics, sys

spec_file, parent_file, change_file = sys.argv[1:]
metrics = json.load(open(spec_file))["end_to_end"]

def runs(path):
    out = []
    for line in open(path):
        try:
            out.append(json.loads(line))
        except ValueError:
            out.append(None)
    return out

parent, change = runs(parent_file), runs(change_file)
bad = [i + 1 for i, (p, c) in enumerate(zip(parent, change))
       if p is None or c is None or not p.get("correct") or not c.get("correct")]
if bad:
    print("pairs with a missing result or a failed check: %s" % bad, file=sys.stderr)

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3

pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
print("%-16s %14s %9s %14s %9s %8s" % ("metric", "parent", "IQR/med", "change", "IQR/med", "won"))
for m in metrics:
    name = m["name"]
    pv = [p["metrics"][name]["value"] for p, _ in pairs]
    cv = [c["metrics"][name]["value"] for _, c in pairs]
    if not pv:
        print("%-16s no results" % name)
        continue
    lower = m["better"] == "lower"
    wins = sum(1 for a, b in zip(pv, cv) if (b < a if lower else b > a))
    (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(pv), quartiles(cv)
    rel = lambda q1, med, q3: (q3 - q1) / med if med else 0.0
    print("%-16s %14.6g %8.1f%% %14.6g %8.1f%% %4d/%-3d %s" % (
        name, pm, 100 * rel(pq1, pm, pq3), cm, 100 * rel(cq1, cm, cq3),
        wins, len(pairs), m["unit"]))
sys.exit(1 if bad else 0)
PY
