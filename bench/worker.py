"""One workload run in a fresh interpreter, started by bench/run.py.

Measures the import of `selfvio.cli`, sets the workload's inputs up several
times, then runs rounds of the workload's verb chain through
`selfvio.cli.main` until the measuring time is used. With --trace 1 it adds
one traced set-up and round after the untraced rounds. Writes one JSON
result file; run.py prints it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata

T_IMPORT0 = time.perf_counter()
import selfvio.cli as cli  # noqa: E402  (timed: this is the first import)
IMPORT_S = time.perf_counter() - T_IMPORT0

import tracer as tracing  # noqa: E402  (bench/ is the script's directory)
import workloads  # noqa: E402

SETUP_REPS = 3        # set-up repetitions per run (median reported)
IMPORT_REPS = 3       # fresh-interpreter imports per run, this one included

# per-layer metrics that may read 0 where their layer does work: counts of
# defects, and image loads (only `estimate` loads images)
MAY_BE_ZERO = {
    "poseopt.capped_pairs", "poseopt.stalled_pairs", "poseopt.retries",
    "dataio.image_loads", "dataio.image_load_s",
}


def _fresh_import_s():
    code = ("import time; t = time.perf_counter(); import selfvio.cli; "
            "print(repr(time.perf_counter() - t))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Runner:
    """Calls verbs, checks their outputs and counts failed calls."""

    def __init__(self, trace):
        self.attempted = 0
        self.failed_calls = set()
        self.problems = []
        self.trace = trace

    def call(self, verb, traced=False):
        """Run one CLI verb; returns (seconds, exit code, call id)."""
        sink = io.StringIO()
        sp = self.trace.open(f"cli.{verb.name}") if traced else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(verb.argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:   # a traceback is a failed verb call, never fatal
            rc = 1
            sink.write(traceback.format_exc())
        dt = time.perf_counter() - t0
        if sp is not None:
            self.trace.close(sp, rc == 0)
        call_id = self.attempted
        self.attempted += 1
        if rc != 0:
            self.fail(call_id, verb, f"exit {rc}: {sink.getvalue().strip()[-500:]}")
        return dt, rc, call_id

    def check(self, verb, rc, call_id, quality):
        """Outputs parse and every quality number is finite and in tolerance."""
        if rc != 0:
            return
        got = {}
        try:
            verb.check(got)
        except Exception as e:   # malformed output must fail the call, not the run
            self.fail(call_id, verb, f"output check: {e!r}")
            return
        for k, v in got.items():
            tol = workloads.QUALITY[k][1]
            if not (math.isfinite(v) and v <= tol):
                self.fail(call_id, verb, f"{k} = {v!r} outside tolerance {tol}")
        quality.update(got)

    def fail(self, call_id, verb, why):
        self.failed_calls.add(call_id)
        self.problems.append({"call": call_id, "verb": verb.name, "why": why})

    def compare(self, calls, ref, got, what):
        """Mark calls whose output digests differ from a reference."""
        for (verb, call_id), a, b in zip(calls, ref, got):
            if a != b:
                self.fail(call_id, verb, f"outputs differ from {what}")


def _run_setup(wl, runner, seed, inputs, traced=False):
    """Returns (seconds, [(verb, call id)], digest of the inputs)."""
    t0 = time.perf_counter()
    wl.prepare(seed, inputs)
    verbs = wl.setup_verbs(inputs)
    results = [runner.call(v, traced) for v in verbs]
    wl.setup_extra(inputs)
    dt = time.perf_counter() - t0
    for v, (_, rc, cid) in zip(verbs, results):
        runner.check(v, rc, cid, {})
    return dt, [(v, cid) for v, (_, _, cid) in zip(verbs, results)], \
        workloads.digest_dir(inputs)


def _run_round(wl, runner, inputs, rdir, traced=False):
    verbs, moving = wl.round_verbs(inputs, rdir)
    timed = [(v, *runner.call(v, traced)) for v in verbs]
    quality = {}
    for v, _, rc, cid in timed:
        runner.check(v, rc, cid, quality)
    times = {}
    for v, dt, _, _ in timed:
        times[v.name] = times.get(v.name, 0.0) + dt
    return {"wall_s": sum(t[1] for t in timed), "verb_s": times, "quality": quality,
            "calls": [(v, cid) for v, _, _, cid in timed], "moving": list(moving),
            "digests": [workloads.digest_dir(v.out) if os.path.isdir(v.out) else {}
                        for v in verbs]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--digest-file", required=True)
    ap.add_argument("--trace-file", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    tr = tracing.Tracer()
    runner = Runner(tr)

    imports = [IMPORT_S] + [_fresh_import_s() for _ in range(IMPORT_REPS - 1)]

    # set-up, several times: the median is reported, and every repetition
    # must write byte-identical inputs
    setups = [_run_setup(wl, runner, args.seed, os.path.join(args.run_dir, f"inputs{k}"))
              for k in range(SETUP_REPS)]
    for k in range(1, SETUP_REPS):
        if setups[k][2] != setups[0][2]:
            for verb, cid in setups[k][1]:
                runner.fail(cid, verb, f"set-up repetition {k} differs from the first")
        shutil.rmtree(os.path.join(args.run_dir, f"inputs{k}"))
    inputs = os.path.join(args.run_dir, "inputs0")

    rounds = []
    t_start = time.perf_counter()
    while True:
        rdir = os.path.join(args.run_dir, f"round{len(rounds)}")
        rd = _run_round(wl, runner, inputs, rdir)
        rounds.append(rd)
        if len(rounds) > 1:
            runner.compare(rd["calls"], rounds[0]["digests"], rd["digests"], "round 0")
            shutil.rmtree(rdir)
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(r["wall_s"] for r in rounds) > args.seconds:
            break
    first = rounds[0]

    # outputs of the same code and seed must match byte for byte across runs
    digest = {"setup": setups[0][2], "round": first["digests"]}
    if os.path.exists(args.digest_file):
        with open(args.digest_file, "r", encoding="ascii") as f:
            old = json.load(f)
        if old["setup"] != digest["setup"]:
            for verb, cid in setups[0][1]:
                runner.fail(cid, verb, "inputs differ from an earlier run with this seed")
        runner.compare(first["calls"], old["round"], digest["round"],
                       "an earlier run with this seed")
    else:
        os.makedirs(os.path.dirname(args.digest_file), exist_ok=True)
        with open(args.digest_file, "w", encoding="ascii") as f:
            json.dump(digest, f, indent=1, sort_keys=True)

    wall = statistics.median(r["wall_s"] for r in rounds)
    result = {
        "workload": wl.name, "seed": args.seed, "rounds": len(rounds),
        "metrics": {
            "wall_s": wall,
            "setup_s": statistics.median(imports) + statistics.median(s[0] for s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "verb_s": {v: statistics.median(r["verb_s"][v] for r in rounds)
                   for v in first["verb_s"]},
        "quality": first["quality"],
        "tolerances": workloads.QUALITY,
        "import_s": imports, "setup_runs_s": [s[0] for s in setups],
        "round_wall_s": [r["wall_s"] for r in rounds],
    }

    if args.trace:
        tr.install()
        try:
            tin = os.path.join(args.run_dir, "traced_inputs")
            _run_setup(wl, runner, args.seed, tin, traced=True)
            trd = _run_round(wl, runner, tin, os.path.join(args.run_dir, "traced_round"),
                             traced=True)
        finally:
            tr.uninstall()
        runner.compare(trd["calls"], first["digests"], trd["digests"], "the untraced round")
        layers = tracing.layer_metrics(tr, statistics.median(imports), trd["moving"])
        layers["bench.trace_overhead"] = trd["wall_s"] / wall
        layers["bench.spans"] = len(tr.spans)
        tr.dump(args.trace_file)
        result["layers"] = layers
        # a renamed or moved function must not silently zero its metrics
        for name in tr.missing:
            runner.problems.append({"call": None, "verb": "trace",
                                    "why": f"traced function {name} not found"})
        ran = {f"cli.{v.name.split('-')[0]}_s" for v, _ in trd["calls"]}
        ran |= {f"cli.{v.name.split('-')[0]}_s" for v in wl.setup_verbs(tin)}
        for key, val in layers.items():
            layer = key.split(".", 1)[0]
            idle = key.startswith("cli.") and key.endswith("_s") and key not in ran \
                and key not in ("cli.import_s", "cli.self_s")
            if layer in wl.active_layers and key not in MAY_BE_ZERO and not idle \
                    and not val > 0:
                runner.problems.append({"call": None, "verb": "trace",
                                        "why": f"{key} is {val!r} where {layer} does work"})

    result.update({
        "attempted": runner.attempted, "failed": len(runner.failed_calls),
        "problems": runner.problems,
        "correct": not runner.failed_calls and not runner.problems,
        "env": {
            "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "nproc": os.cpu_count(),
            "blas_threads": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "fuse_jobs": wl.fuse_jobs,
        },
    })
    with open(args.result, "w", encoding="ascii") as f:
        json.dump(result, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
