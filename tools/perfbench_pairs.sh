#!/bin/sh
# Alternating perfbench pairs of two checkouts, for a before/after claim.
#
#   tools/perfbench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS
#
# Each pair runs
#   python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds 30 --trace 0
# once in each checkout: the parent first in odd pairs, the change first in
# even ones. Every run's summary and result lines are printed. Then, for each
# end-to-end metric of CHANGE_DIR/BENCHMARK.json, it prints each side's
# median and quartiles, the pairs the change won, and whether the medians
# differ by more than the parent's interquartile spread. A last line per
# metric reads "claim rule: met" or "claim rule: not met (...)": the rule
# holds when the change won at least nine tenths of the pairs (a tie counts
# for neither side) and its median beats the parent's, in the metric's
# better direction, by more than the parent's interquartile spread. Last
# comes the same summary of the unscaled processor-time throughput that
# each summary line prints as "(unscaled N)", marked "not gated": a change
# that may move the reference kernel's timing should be judged on it as
# well.
#
# Exit status: 0 when the sides did the same work; 1 when a fingerprint line
# differs between the sides or a run reports failed operations; 2 on a usage
# error or a run that produced no result.
#
# Keep the machine otherwise idle while it runs: a pair takes a little over
# a minute.

set -eu

if [ $# -ne 5 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS" >&2
  exit 2
fi
parent=$1
change=$2
workload=$3
seed=$4
pairs=$5
case $pairs in
  '' | *[!0-9]* | 0)
    echo "$0: PAIRS must be a positive integer" >&2
    exit 2
    ;;
esac
for dir in "$parent" "$change"; do
  if [ ! -f "$dir/perfbench/run.py" ]; then
    echo "$0: $dir has no perfbench/run.py" >&2
    exit 2
  fi
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

run() { # run SIDE DIR PAIR
  if ! (cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
    --seconds 30 --trace 0) > "$out/$1.$3" 2> "$out/$1.$3.err"; then
    echo "$1 run of pair $3 exited non-zero" >&2
  fi
  printf '%s pair %d: ' "$1" "$3"
  grep '^summary' "$out/$1.$3" || echo "(no summary line)"
  tail -n 1 "$out/$1.$3"
}

i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$i"
    run change "$change" "$i"
  else
    run change "$change" "$i"
    run parent "$parent" "$i"
  fi
  i=$((i + 1))
done

python3 - "$out" "$pairs" "$change/BENCHMARK.json" <<'EOF'
import json, os, re, statistics, sys

out, pairs, bench = sys.argv[1], int(sys.argv[2]), sys.argv[3]
metrics = json.load(open(bench))["end_to_end"]
status = 0
runs = {"parent": [], "change": []}
unscaled = {"parent": [], "change": []}
fingerprints = None
for side in runs:
    for i in range(1, pairs + 1):
        lines = open(os.path.join(out, f"{side}.{i}")).read().splitlines()
        for line in lines:
            found = re.search(r"\(unscaled ([0-9.]+)\)", line) if line.startswith("summary") else None
            if found:
                unscaled[side].append(float(found.group(1)))
                break
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{side} pair {i}: no result line")
            sys.exit(2)
        runs[side].append(result)
        if result.get("failed", 0) > 0 or not result.get("correct", False):
            print(f"{side} pair {i}: failed={result.get('failed')} correct={result.get('correct')}")
            status = 1
        fp = [l for l in lines if l.startswith("fingerprint")]
        if fingerprints is None:
            fingerprints = fp
        elif fp != fingerprints:
            print(f"{side} pair {i}: fingerprint lines differ from parent pair 1")
            status = 1


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


print()
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    pq, cq = quartiles(p), quartiles(c)
    won = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
    ties = sum(1 for a, b in zip(p, c) if a == b)
    gap = cq[1] - pq[1]
    spread = pq[2] - pq[0]
    rel = gap / pq[1] if pq[1] else 0.0
    worse = -rel if higher else rel
    print(f"{name} ({m['better']} is better, bound {m['bound']:.0%})")
    for side, q in (("parent", pq), ("change", cq)):
        print(f"  {side}  median {q[1]:.6g}  q1 {q[0]:.6g}  q3 {q[2]:.6g}")
    print(
        f"  change won {won}/{pairs} pairs ({ties} ties); median {rel:+.1%}; "
        f"|gap| {abs(gap):.6g} {'>' if abs(gap) > spread else '<='} parent IQR {spread:.6g}; "
        f"{'worse than the bound' if worse > m['bound'] else 'within the bound'}"
    )
    better_by = gap if higher else 0.0 - gap
    misses = []
    if won * 10 < pairs * 9:
        misses.append(f"won {won}/{pairs} pairs, fewer than nine tenths")
    if not better_by > spread:
        misses.append(f"median better by {better_by:.6g}, not more than parent IQR {spread:.6g}")
    print(f"  claim rule: {'not met (' + '; '.join(misses) + ')' if misses else 'met'}")

p, c = unscaled["parent"], unscaled["change"]
print("unscaled throughput (processor time, from the summary lines; higher is better; not gated)")
if len(p) != pairs or len(c) != pairs:
    print("  (a summary line has no unscaled figure)")
else:
    pq, cq = quartiles(p), quartiles(c)
    won = sum(1 for a, b in zip(p, c) if b > a)
    for side, q in (("parent", pq), ("change", cq)):
        print(f"  {side}  median {q[1]:.6g}  q1 {q[0]:.6g}  q3 {q[2]:.6g}")
    print(f"  change won {won}/{pairs} pairs; median {(cq[1] - pq[1]) / pq[1] if pq[1] else 0.0:+.1%}")
sys.exit(status)
EOF
