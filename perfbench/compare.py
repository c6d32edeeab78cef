"""Compare two sets of benchmark results.

Usage::

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file holds result documents appended by ``run.py --out``.  For every
workload and metric it prints each side's median and quartiles and the
share of pairs NEW won (pairs match by seed when both sides ran the same
seeds, else by order; ties count for neither side), then a verdict:

* ``improved`` — NEW won at least 9 of 10 pairs and the medians differ by
  more than OLD's own spread (the distance between its quartiles);
* ``worse`` — NEW's median is worse than OLD's by more than the metric's
  bound in ``BENCHMARK.json`` (or, for a metric without a bound, OLD won
  9 of 10 pairs by more than its spread);
* ``unchanged`` — within the bound, and OLD's spread is within it too (or
  every NEW run beats every OLD run);
* ``unresolved`` — anything else: the runs are too noisy to tell.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load(path: str) -> "dict[tuple[str, bool], list[dict]]":
    groups: "dict[tuple[str, bool], list[dict]]" = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                document = json.loads(line)
                envelope = document["envelope"]
                key = (envelope["workload"], envelope["trace"])
                groups.setdefault(key, []).append(document)
    return groups


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(old: "list[dict]", new: "list[dict]") -> "list[tuple[dict, dict]]":
    by_seed = {doc["envelope"]["seed"]: doc for doc in old}
    matched = [(by_seed[doc["envelope"]["seed"]], doc) for doc in new
               if doc["envelope"]["seed"] in by_seed]
    return matched if len(matched) == min(len(old), len(new)) \
        else list(zip(old, new))


def verdict(old: "list[float]", new: "list[float]", won: int, lost: int,
            total: int, lower_better: bool,
            bound: "float | None") -> str:
    o1, om, o3 = quartiles(old)
    _, nm, _ = quartiles(new)
    spread = o3 - o1
    gain = (om - nm) if lower_better else (nm - om)
    if total and won / total >= WIN_SHARE and gain > spread:
        return "improved"
    if bound is None:
        if total and lost / total >= WIN_SHARE and -gain > spread:
            return "worse"
        return "unresolved"
    if -gain > bound * abs(om):
        return "worse"
    all_better = (max(new) < min(old)) if lower_better \
        else (min(new) > max(old))
    if all_better or (om and spread / abs(om) <= bound):
        return "unchanged"
    return "unresolved"


def compare(old_path: str, new_path: str) -> str:
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old_groups, new_groups = load(old_path), load(new_path)
    lines = []
    for key in sorted(set(old_groups) & set(new_groups)):
        workload, traced = key
        matched = pairs(old_groups[key], new_groups[key])
        lines.append(f"== {workload} ({'traced' if traced else 'measured'};"
                     f" {len(old_groups[key])} vs {len(new_groups[key])} "
                     f"runs, {len(matched)} pairs)")
        lines.append(f"{'metric':34s} {'old q1/med/q3':>28s} "
                     f"{'new q1/med/q3':>28s} {'won':>5s}  verdict")
        names = sorted(set(old_groups[key][0]["metrics"])
                       & set(new_groups[key][0]["metrics"]))
        for name in names:
            meta = metrics.get(name, {})
            lower_better = meta.get("better", "lower") == "lower"
            old = [d["metrics"][name]["value"] for d in old_groups[key]]
            new = [d["metrics"][name]["value"] for d in new_groups[key]]
            won = lost = 0
            for a, b in matched:
                va = a["metrics"][name]["value"]
                vb = b["metrics"][name]["value"]
                if va != vb:
                    better = vb < va if lower_better else vb > va
                    won += better
                    lost += not better
            shown = [("%.4g/%.4g/%.4g" % quartiles(values))
                     for values in (old, new)]
            outcome = verdict(old, new, won, lost, len(matched),
                              lower_better, meta.get("bound"))
            share = f"{won}/{len(matched)}"
            lines.append(f"{name:34s} {shown[0]:>28s} {shown[1]:>28s} "
                         f"{share:>5s}  {outcome}")
        lines.append("")
    return "\n".join(lines)


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(compare(*argv))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
