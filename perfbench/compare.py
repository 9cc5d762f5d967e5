"""Compare two sets of benchmark runs of one workload.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds the last stdout line of several runs, one JSON object per
line.  For every metric the script prints each side's median and spread
(distance between the first and third quartile, as a share of the median)
and the change of the median.  Where BENCHMARK.json gives the metric a
bound, a change for the worse beyond it is marked WORSE.
"""

import json
import os
import statistics
import sys


def load(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def summary(runs, name):
    values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
    if not values:
        return None, None
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return middle, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return middle, (q3 - q1) / abs(middle)


def main(before_path, after_path):
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load(before_path), load(after_path)
    for label, runs in (("before", before), ("after", after)):
        shares = {run["failed"] / run["attempted"] for run in runs}
        correct = all(run["correct"] for run in runs)
        print(f"{label}: {len(runs)} runs, correct={correct}, failed share {sorted(shares)}")
    names = sorted({name for run in before + after for name in run["metrics"]})
    for name in names:
        (b, b_spread), (a, a_spread) = summary(before, name), summary(after, name)
        if b is None or a is None:
            print(f"{name:28s} absent on one side")
            continue
        change = (a - b) / abs(b) if b else 0.0
        spec_entry = bounds.get(name, {})
        worse = change if spec_entry.get("better") == "lower" else -change
        mark = "WORSE" if "bound" in spec_entry and worse > spec_entry["bound"] else ""
        print(f"{name:28s} {b:12.5g} ({b_spread:.3f})  {a:12.5g} ({a_spread:.3f})"
              f"  {100 * change:+7.1f}% {mark}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    main(sys.argv[1], sys.argv[2])
