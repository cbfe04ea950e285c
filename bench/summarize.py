"""Summarize benchmark results: median, quartiles and spread per workload.

    python3 bench/summarize.py [--results .bench_out/results] [--out FILE]

Reads every result file that bench/run.py wrote. For each workload, it
reports each end-to-end, per-verb and quality number of the untraced runs:
the median, the quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median, and the seeds. It also gives the per-layer metrics of
the traced runs, as medians.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None}


def summarize(paths):
    runs = {}
    for p in sorted(paths):
        with open(p, "r", encoding="ascii") as f:
            res = json.load(f)
        runs.setdefault(res["workload"], []).append(res)
    out = {}
    for wl, rs in sorted(runs.items()):
        plain = [r for r in rs if not r["env"].get("trace")]
        traced = [r for r in rs if r["env"].get("trace")]
        series = {}
        for r in plain:
            for k, v in list(r["metrics"].items()) + list(r["quality"].items()):
                series.setdefault(k, []).append(v)
            for k, v in r["verb_s"].items():
                series.setdefault(f"verb.{k}_s", []).append(v)
            series.setdefault("failed_frac", []).append(r["failed"] / r["attempted"])
        layers = {}
        for r in traced:
            for k, v in r.get("layers", {}).items():
                layers.setdefault(k, []).append(v)
        out[wl] = {
            "seeds": sorted(r["seed"] for r in plain),
            "all_correct": all(r["correct"] for r in rs),
            "metrics": {k: _stats(v) for k, v in sorted(series.items())},
            "layers": {k: statistics.median(v) for k, v in sorted(layers.items())},
            "traced_seeds": sorted(r["seed"] for r in traced),
            "env": rs[-1]["env"],
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--results", default=os.path.join(ROOT, ".bench_out", "results"))
    ap.add_argument("--out")
    args = ap.parse_args()
    paths = glob.glob(os.path.join(args.results, "*.json"))
    if not paths:
        print(f"error: no results under {args.results}", file=sys.stderr)
        return 2
    text = json.dumps(summarize(paths), indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
