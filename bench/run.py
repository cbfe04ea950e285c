"""selfvio benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload walkthrough --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout. The workload runs in a fresh
interpreter (bench/worker.py) against the package in src/, with BLAS held
to one thread. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
The lines before it print every metric by name and unit, the quality
numbers, failures and the environment. Everything the run writes goes to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER_TIMEOUT_S = 170
PRINTED_METRICS = [   # (name, unit) of every end-to-end number a run prints
    ("setup_s", "s"), ("wall_s", "s"), ("estimate_s", "s"), ("train_s", "s"),
    ("fuse_s", "s"), ("peak_rss_mb", "MB"), ("failed_frac", "ratio"),
]
VERB_METRIC = {"estimate": "estimate_s", "train-model": "train_s", "fuse": "fuse_s"}


def _source_digest(*roots):
    h = hashlib.sha256()
    for root in roots:
        h.update(_tree_digest(root).encode())
    return h.hexdigest()


def _tree_digest(src):
    h = hashlib.sha256()
    for dirpath, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "selfvio", "cli.py")):
        print(f"error: no selfvio sources under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    src_digest = _source_digest(src)
    # outputs are compared across runs only for the same program and benchmark
    code_digest = _source_digest(src, os.path.join(ROOT, "bench"))
    out = os.path.join(ROOT, ".bench_out")
    tag = f"{args.workload}-seed{args.seed}"
    run_dir = os.path.join(out, "runs", f"{tag}-{os.getpid()}")
    result_path = os.path.join(out, "results", f"{tag}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(result_path), exist_ok=True)
    os.makedirs(os.path.join(out, "traces"), exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[k] = "1"
    cmd = [sys.executable, os.path.join(ROOT, "bench", "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", run_dir, "--result", result_path,
           "--digest-file", os.path.join(out, "digests", f"{tag}-{code_digest[:16]}.json"),
           "--trace-file", os.path.join(out, "traces", f"{tag}.spans.jsonl")]
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0 or not os.path.exists(result_path):
        print(f"error: worker exited {proc.returncode}\n{err[-3000:]}", file=sys.stderr)
        return 1
    with open(result_path, "r", encoding="ascii") as f:
        res = json.load(f)
    res["env"].update({"git_sha": _git_sha(), "source_sha256": src_digest,
                       "seconds": args.seconds, "trace": args.trace})
    with open(result_path, "w", encoding="ascii") as f:
        json.dump(res, f, indent=1, sort_keys=True)

    e2e = dict(res["metrics"])
    e2e.update({VERB_METRIC[v]: t for v, t in res["verb_s"].items() if v in VERB_METRIC})
    e2e["failed_frac"] = res["failed"] / res["attempted"]
    print(f"env {json.dumps(res['env'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {res['rounds']} round(s), "
          f"{res['attempted']} verb calls, {res['failed']} failed")
    for name, unit in PRINTED_METRICS:
        if name in e2e:
            print(f"metric {name} = {e2e[name]!r} {unit}")
    for name, value in sorted(res["quality"].items()):
        unit, limit = res["tolerances"][name]
        print(f"quality {name} = {value!r} {unit} (tolerance <= {limit})")
    for p in res["problems"]:
        print(f"problem {p['verb']}: {p['why']}")

    if args.trace:
        wanted, source = spec["per_layer"], res.get("layers", {})
    else:
        wanted, source = spec["end_to_end"], e2e
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
