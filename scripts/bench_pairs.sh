#!/usr/bin/env bash
# Alternated parent/change runs of one BENCHMARK.json workload.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> [pairs=10] [seed=1]
#
# The parent's committed files are unpacked under target/bench_pairs/<rev>/
# (with `git archive`: like the PR driver, the benchmark then runs from the
# committed files alone, and no worktree entry is left in .git); the change is
# the tree this script is run from, uncommitted edits included. Both sides
# are built first, then the BENCHMARK.json command runs `pairs` times on each,
# the side that goes first alternating. Prints, per end-to-end metric, each
# side's median and quartiles, the ratio of the medians and the pairs the
# change won (ties count for neither side). Exit 1 if any run failed.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,13p' "$0" >&2
    exit 2
fi
parent=$1 workload=$2 pairs=${3:-10} seed=${4:-1}

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$parent^{commit}")
tree="$root/target/bench_pairs/$rev"
if [ ! -d "$tree" ]; then
    mkdir -p "$tree.partial"
    git -C "$root" archive "$rev" | tar -x -C "$tree.partial"
    mv "$tree.partial" "$tree"
fi

exec python3 - "$root" "$tree" "$workload" "$pairs" "$seed" <<'PY'
import json, statistics, subprocess, sys

root, parent_tree, workload, pairs, seed = sys.argv[1:]
pairs = int(pairs)
spec = json.load(open(f"{root}/BENCHMARK.json"))
command = spec["command"] + ["--workload", workload, "--seed", seed,
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
build = ["build" if c == "run" else c for c in spec["command"] if c != "--"]
trees = {"parent": parent_tree, "change": root}

for side, tree in trees.items():
    print(f"building {side} in {tree}", file=sys.stderr)
    subprocess.run(build, cwd=tree, check=True)

runs = {"parent": [], "change": []}
bad = 0
for pair in range(pairs):
    for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
        done = subprocess.run(command, cwd=trees[side], stdout=subprocess.PIPE, text=True)
        last = json.loads(done.stdout.strip().splitlines()[-1])
        ok = done.returncode == 0 and last["correct"] and last["failed"] == 0
        bad += not ok
        runs[side].append({k: v["value"] for k, v in last["metrics"].items()})
        print(f"pair {pair + 1}/{pairs} {side}: exit {done.returncode}, "
              f"failed {last['failed']} of {last['attempted']}", file=sys.stderr)

def summary(values):
    q1, median, q3 = statistics.quantiles(values * 2 if len(values) == 1 else values,
                                          n=4, method="inclusive")
    return median, f"{median:.6g} [{q1:.6g} .. {q3:.6g}]"

print(f"{workload}, seed {seed}, {pairs} pairs, parent {parent_tree.rsplit('/', 1)[1][:7]}")
print(f"{'metric':<18} {'parent median [q1 .. q3]':<36} {'change median [q1 .. q3]':<36} "
      f"{'change/parent':<14} pairs won")
for metric in spec["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    p = [r[name] for r in runs["parent"]]
    c = [r[name] for r in runs["change"]]
    won = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    (pm, ptext), (cm, ctext) = summary(p), summary(c)
    ratio = f"{cm / pm:.3f}" if pm else "-"
    print(f"{name:<18} {ptext:<36} {ctext:<36} {ratio:<14} {won}/{pairs - ties}")
sys.exit(1 if bad else 0)
PY
