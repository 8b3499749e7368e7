#!/usr/bin/env python3
"""Compares two sets of benchmark runs: a parent commit and a change.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

Each file holds history records as perfbench/run.py appends them; give each
side its own file with PERFBENCH_HISTORY=<file> (see README.md for the
alternating-pairs procedure). For every workload and every end-to-end metric
of BENCHMARK.json it prints each side's median and quartiles and one of:

  improved        the change won at least 9 in 10 of the pairs (ties count
                  for neither), there were at least 10 pairs, and the medians
                  differ by more than the parent's own quartile spread;
  regression      the change's median is worse than the parent's by more
                  than the metric's bound;
  unresolved      the run-to-run spread (quartile distance over median, of
                  either side) is wider than the bound, so "no worse" cannot
                  be shown, unless every run of one side beats every run of
                  the other;
  within bound    none of the above.

Runs pair up by seed when both sides ran the same seeds, else by order.
Per-layer metrics counted in "count" units (from --trace 1 runs) are reported
as counts, parent -> change, never as a speed-up. Exits 1 when any metric
regressed, 0 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

MIN_CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_up(base, head):
    """Pairs (base_value, head_value) from {seed: value} maps."""
    shared = sorted(set(base) & set(head))
    if shared:
        return [(base[s], head[s]) for s in shared]
    return list(zip([base[s] for s in sorted(base)],
                    [head[s] for s in sorted(head)]))


def decide(base, head, better, bound, pairs=None):
    """Applies the comparison rule to one metric on one workload.

    `base` and `head` are lists of values, `better` is "lower" or "higher",
    `bound` the share of the parent's median the metric may worsen by.
    Returns (status, facts)."""
    if pairs is None:
        pairs = list(zip(base, head))
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    worse = sign * (hm - bm) / abs(bm) if bm else 0.0
    spread = max((b3 - b1) / abs(bm) if bm else 0.0,
                 (h3 - h1) / abs(hm) if hm else 0.0)

    def beats(x, y):  # x strictly better than y
        return sign * (x - y) < 0

    wins = sum(1 for b, h in pairs if beats(h, b))
    all_head_better = all(beats(h, b) for h in head for b in base)
    all_head_worse = all(beats(b, h) for h in head for b in base)
    facts = {"base": (b1, bm, b3), "head": (h1, hm, h3), "worse": worse,
             "spread": spread, "wins": wins, "pairs": len(pairs)}
    if (len(pairs) >= MIN_CLAIM_PAIRS and wins >= CLAIM_WIN_SHARE * len(pairs)
            and worse < 0 and abs(hm - bm) > (b3 - b1)):
        return "improved", facts
    if spread > bound and not (all_head_better or all_head_worse):
        return "unresolved", facts
    if worse > bound:
        return "regression", facts
    return "within bound", facts


def load_records(path):
    records = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError as e:
                raise SystemExit(f"{path}:{n}: not JSON: {e}")
    return records


def collect(records, trace):
    """{workload: {metric: {seed: value}}} from correct records."""
    out = {}
    for r in records:
        if bool(r.get("trace")) != trace or not r.get("correct"):
            continue
        per = out.setdefault(r["workload"], {})
        for name, m in r["metrics"].items():
            per.setdefault(name, {})[r["seed"]] = m["value"]
    return out


def compare(base_records, head_records, spec, out=sys.stdout):
    """Prints the comparison; returns the number of regressions."""
    base = collect(base_records, False)
    head = collect(head_records, False)
    regressions = 0
    print(f"{'workload':13s} {'metric':18s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'worse':>7s} {'spread':>7s} "
          f"{'bound':>6s} {'wins':>6s}  status", file=out)
    for workload in sorted(set(base) | set(head)):
        for m in spec["end_to_end"]:
            name = m["name"]
            b = base.get(workload, {}).get(name, {})
            h = head.get(workload, {}).get(name, {})
            if not b or not h:
                print(f"{workload:13s} {name:18s} missing on "
                      f"{'parent' if not b else 'change'}", file=out)
                continue
            status, f = decide(list(b.values()), list(h.values()),
                               m["better"], m["bound"], pair_up(b, h))
            regressions += status == "regression"
            fmt = "{1:.6g} [{0:.6g}, {2:.6g}]"
            print(f"{workload:13s} {name:18s} {fmt.format(*f['base']):>32s} "
                  f"{fmt.format(*f['head']):>32s} {100 * f['worse']:6.1f}% "
                  f"{100 * f['spread']:6.1f}% {100 * m['bound']:5.1f}% "
                  f"{f['wins']:>2d}/{f['pairs']:<3d}  {status}", file=out)

    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    base_t = collect(base_records, True)
    head_t = collect(head_records, True)
    for workload in sorted(set(base_t) & set(head_t)):
        for name in sorted(counts):
            b = sorted(set(base_t[workload].get(name, {}).values()))
            h = sorted(set(head_t[workload].get(name, {}).values()))
            if not b or not h:
                continue
            show = lambda v: f"{v[0]:.6g}" if len(v) == 1 else "varies"
            print(f"{workload:13s} {name:36s} count {show(b)} -> {show(h)}",
                  file=out)
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="history records of the parent commit")
    parser.add_argument("head", help="history records of the change")
    parser.add_argument("--spec", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)
    regressions = compare(load_records(args.base), load_records(args.head),
                          spec)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
