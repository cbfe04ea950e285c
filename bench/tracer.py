"""Out-of-program tracing: wraps the public functions of each selfvio module
at every binding site, records spans (name, start, end, parent) and the
counts a probe reads from arguments and results, and derives per-layer
metrics from them.

Nothing in the program changes: a wrapped name is replaced in every selfvio
module that binds the same object (so `from .x import y` sites such as
`poseopt.se3_exp_entries` or `cli.quat_to_matrix` are covered), methods are
replaced on their class, and `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

import numpy as np


def _val(x):
    return getattr(x, "value", x)


def _fsize(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _pixels(args, kw, out):
    return int(np.size(_val(args[1])))    # depth_t of (source, depth_t, K, R, t)


def _estimates(args, kw, out):
    return [(e.iterations, bool(e.converged), float(e.final_loss)) for e in out[0]]


# (module, qualified name, span name, probe). A probe maps
# (args, kwargs, result) to the span's count; it runs only on success.
TARGETS = [
    ("dataio", "load_sequence", "dataio.load", None),
    ("dataio", "_sha256", "dataio.read", lambda a, k, o: _fsize(a[0])),
    ("dataio", "_read_csv", "dataio.read", lambda a, k, o: _fsize(a[0])),
    ("dataio", "read_pgm16", "dataio.read", lambda a, k, o: _fsize(a[0])),
    ("dataio", "DatasetBundle.load_image", "dataio.image_load", None),
    ("dataio", "DatasetBundle.load_depth", "dataio.image_load", None),
    ("dataio", "DatasetWriter._put", "dataio.write_bytes", lambda a, k, o: len(a[2])),
    ("dataio", "DatasetWriter.add_frame", "dataio.write", None),
    ("dataio", "DatasetWriter.write_imu", "dataio.write", None),
    ("dataio", "DatasetWriter.write_motors", "dataio.write", None),
    ("dataio", "DatasetWriter.write_groundtruth", "dataio.write", None),
    ("dataio", "DatasetWriter.finalize", "dataio.write",
     lambda a, k, o: _fsize(os.path.join(a[0].root, "manifest.json"))),
    ("synth", "render", "synth.render", None),
    ("synth", "simulate_imu_motors", "synth.simulate", None),
    ("geometry", "project_grid", "geometry.project", _pixels),
    ("geometry", "warp_image", "geometry.warp", _pixels),
    ("geometry", "warp_depth_parts", "geometry.warp", _pixels),
    ("geometry", "se3_exp_entries", "geometry.se3_entries", None),
    ("geometry", "quat_to_matrix", "geometry.quat", None),
    ("losses", "total_loss_generic", "losses.total_loss", None),
    ("autodiff", "Var.backward", "autodiff.backward", None),
    ("poseopt", "run_sequence", "poseopt.run_sequence", _estimates),
    ("poseopt", "estimate_pose", "poseopt.estimate_pose",
     lambda a, k, o: (o.iterations, float(o.final_loss))),
    ("poseopt", "loss_and_grad", "poseopt.loss_and_grad", None),
    ("poseopt", "_loss_only", "poseopt.loss_only", lambda a, k, o: o),
    ("attitude", "AttitudeFilter.run", "attitude.run", lambda a, k, o: len(a[1]) - 1),
    ("dronemodel", "prepare_sequence", "dronemodel.prepare", None),
    ("dronemodel", "train", "dronemodel.train",
     lambda a, k, o: (a[1].steps, float(o[1][-1]) if o[1] else 0.0)),
    ("dronemodel", "window_loss_and_grads", "dronemodel.window_loss", None),
    ("dronemodel", "_batched_windows_loss_and_grads", "dronemodel.window_loss", None),
    ("dronemodel", "rollout", "dronemodel.rollout", lambda a, k, o: len(o.t) - 1),
    ("fusion", "run_filter", "fusion.run_filter",
     lambda a, k, o: (len(a[0]) - 1, o.n_updates)),
    ("fusion", "model_specific_force", "fusion.model_sf", None),
    ("evalign", "position_rmse", "evalign.rmse", None),
    ("evalign", "umeyama_align", "evalign.align", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "ok", "count")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end = name, start, None
        self.parent, self.ok, self.count = parent, False, None


class Tracer:
    """Spans kept in memory; written out by `dump` when the run ends."""

    def __init__(self):
        self.spans = []
        self.missing = []          # targets that no longer exist
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched = []         # (owner, attribute, original)

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name):
        stack = self._stack()
        # a pool thread's span belongs to whatever the main thread has open
        parents = stack or self._main_stack
        sp = Span(name, time.perf_counter(), parents[-1] if parents else None)
        with self._lock:
            sp_id = len(self.spans)
            self.spans.append(sp)
        stack.append(sp_id)
        return sp_id

    def close(self, sp_id, ok=True, count=None):
        sp = self.spans[sp_id]
        sp.end, sp.ok, sp.count = time.perf_counter(), ok, count
        self._stack().pop()

    def _wrap(self, fn, name, probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp_id = tracer.open(name)
            ok, out = False, None
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                count = probe(args, kwargs, out) if (ok and probe) else None
                tracer.close(sp_id, ok, count)
        return wrapper

    def install(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "selfvio" or n.startswith("selfvio."))]
        for mod_name, qual, name, probe in TARGETS:
            mod = sys.modules.get(f"selfvio.{mod_name}")
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{qual}")
                continue
            wrapper = self._wrap(fn, name, probe)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w", encoding="ascii") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent, "ok": s.ok,
                                    "count": s.count}) + "\n")


# --------------------------------------------------------------------------
# derived metrics


def _union(intervals):
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def layer_metrics(tracer, import_s, moving_pairs):
    """Per-layer metrics of the traced spans.

    moving_pairs: per estimated pair (in order), whether the true camera
    moved; a stalled pair is a moving pair that stopped after one iteration.
    """
    spans = tracer.spans
    by = {}
    for i, s in enumerate(spans):
        by.setdefault(s.name, []).append(i)
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)

    def ids(*names):
        return [i for n in names for i in by.get(n, [])]

    def covered(*names):
        return _union([(spans[i].start, spans[i].end) for i in ids(*names)])

    def n(*names):
        return len(ids(*names))

    def csum(name, k=None):
        vals = [spans[i].count for i in by.get(name, []) if spans[i].count is not None]
        return float(sum(v if k is None else v[k] for v in vals))

    def layer_self(layer):
        """Time of the layer's outermost spans not covered by other layers."""
        pre = layer + "."
        total = 0.0
        for i, s in enumerate(spans):
            if not s.name.startswith(pre):
                continue
            if s.parent is not None and spans[s.parent].name.startswith(pre):
                continue
            inner, stack = [], [i]
            while stack:
                for c in children.get(stack.pop(), []):
                    if spans[c].name.startswith(pre):
                        stack.append(c)
                    else:
                        inner.append((spans[c].start, spans[c].end))
            total += (s.end - s.start) - _union(inner)
        return total

    m = {}
    mb = 1024.0 * 1024.0
    m["cli.import_s"] = import_s
    for verb in ("generate", "estimate", "train-model", "rollout", "fuse", "eval"):
        m[f"cli.{verb.split('-')[0]}_s"] = covered(f"cli.{verb}")
    m["cli.self_s"] = layer_self("cli")

    m["dataio.load_calls"] = n("dataio.load")
    m["dataio.load_s"] = covered("dataio.load")
    m["dataio.read_mb"] = csum("dataio.read") / mb
    m["dataio.image_loads"] = n("dataio.image_load")
    m["dataio.image_load_s"] = covered("dataio.image_load")
    m["dataio.write_s"] = covered("dataio.write")
    m["dataio.write_mb"] = (csum("dataio.write_bytes") + csum("dataio.write")) / mb

    m["synth.render_calls"] = n("synth.render")
    m["synth.render_s"] = covered("synth.render")
    m["synth.simulate_s"] = covered("synth.simulate")

    m["geometry.warp_calls"] = n("geometry.warp")
    m["geometry.warp_s"] = covered("geometry.warp", "geometry.project")
    m["geometry.se3_entries_calls"] = n("geometry.se3_entries")
    m["geometry.se3_entries_s"] = covered("geometry.se3_entries")
    m["geometry.quat_calls"] = n("geometry.quat")
    m["geometry.quat_s"] = covered("geometry.quat")

    m["losses.total_loss_calls"] = n("losses.total_loss")
    m["losses.forward_s"] = covered("losses.total_loss")
    m["losses.pixels_evaluated"] = csum("geometry.warp")

    # forward = a loss evaluation without the tape (line-search candidates)
    fwd = [spans[i].end - spans[i].start for i in by.get("losses.total_loss", [])
           if spans[i].parent is not None and spans[spans[i].parent].name == "poseopt.loss_only"]
    grad = [spans[i].end - spans[i].start for i in by.get("poseopt.loss_and_grad", [])]
    bwd = [spans[i].end - spans[i].start for i in by.get("autodiff.backward", [])]
    mean_fwd = float(np.mean(fwd)) if fwd else 0.0
    m["autodiff.backward_calls"] = len(bwd)
    m["autodiff.backward_s"] = covered("autodiff.backward")
    m["autodiff.backward_to_forward"] = (
        sum(bwd) / len(grad) / mean_fwd if grad and mean_fwd > 0 else 0.0)
    m["autodiff.grad_to_forward"] = float(np.mean(grad)) / mean_fwd if grad and mean_fwd > 0 else 0.0

    # per pair: from the end of the previous pair to the end of the pair's
    # last estimate_pose call (a failed call is retried for the same pair)
    pair_ms, iters, capped, accepted = [], [], 0, 0
    for rs in by.get("poseopt.run_sequence", []):
        t_prev = spans[rs].start
        calls = [c for c in children.get(rs, []) if spans[c].name == "poseopt.estimate_pose"]
        first_attempt = True
        for j, c in enumerate(calls):
            if not spans[c].ok and first_attempt and j + 1 < len(calls):
                first_attempt = False
            else:
                pair_ms.append(1e3 * (spans[c].end - t_prev))
                t_prev, first_attempt = spans[c].end, True
            if spans[c].ok:
                # an accepted step is a candidate followed by a gradient, or
                # the final candidate when it is the returned loss
                ev = [k for k in children.get(c, [])
                      if spans[k].name in ("poseopt.loss_only", "poseopt.loss_and_grad")]
                for a, b in zip(ev, ev[1:]):
                    accepted += (spans[a].name == "poseopt.loss_only"
                                 and spans[b].name == "poseopt.loss_and_grad")
                if ev and spans[ev[-1]].name == "poseopt.loss_only" and \
                        spans[ev[-1]].count == spans[c].count[1]:
                    accepted += 1
        if spans[rs].count:
            for it, conv, _ in spans[rs].count:
                iters.append(it)
                capped += (not conv) and it > 0
    stalled = sum(1 for it, mv in zip(iters, moving_pairs) if it == 1 and mv)
    n_pairs = len(pair_ms)
    # the highest percentile with at least ten pairs beyond it (p50 floor)
    tail_pct = max(50.0, 100.0 * (1.0 - 10.0 / n_pairs)) if n_pairs else 0.0
    loss_evals = n("poseopt.loss_only")
    ls_evals = sum(1 for c in ids("poseopt.estimate_pose")
                   for k in children.get(c, []) if spans[k].name == "poseopt.loss_only")
    m["poseopt.pairs"] = n_pairs
    m["poseopt.pair_ms_p50"] = _percentile(pair_ms, 50)
    m["poseopt.pair_ms_tail"] = _percentile(pair_ms, tail_pct)
    m["poseopt.pair_tail_pct"] = tail_pct
    m["poseopt.iters_total"] = int(sum(iters))
    m["poseopt.iters_p50"] = _percentile(iters, 50)
    m["poseopt.capped_pairs"] = capped
    m["poseopt.stalled_pairs"] = stalled
    m["poseopt.grad_evals"] = n("poseopt.loss_and_grad")
    m["poseopt.loss_evals"] = loss_evals
    m["poseopt.linesearch_accept_ratio"] = accepted / ls_evals if ls_evals else 0.0
    m["poseopt.retries"] = n("poseopt.estimate_pose") - n_pairs
    m["poseopt.self_s"] = layer_self("poseopt")

    att_steps = csum("attitude.run")
    m["attitude.runs"] = n("attitude.run")
    m["attitude.steps"] = int(att_steps)
    m["attitude.run_s"] = covered("attitude.run")
    m["attitude.us_per_step"] = 1e6 * m["attitude.run_s"] / att_steps if att_steps else 0.0

    train_steps = csum("dronemodel.train", 0)
    train_ids = by.get("dronemodel.train", [])
    ro_steps = csum("dronemodel.rollout")
    m["dronemodel.prepare_s"] = covered("dronemodel.prepare")
    m["dronemodel.train_s"] = covered("dronemodel.train")
    m["dronemodel.train_steps"] = int(train_steps)
    m["dronemodel.steps_per_s"] = (train_steps / m["dronemodel.train_s"]
                                   if m["dronemodel.train_s"] > 0 else 0.0)
    m["dronemodel.window_loss_calls"] = n("dronemodel.window_loss")
    m["dronemodel.window_loss_s"] = covered("dronemodel.window_loss")
    m["dronemodel.final_loss"] = (spans[train_ids[-1]].count[1]
                                  if train_ids and spans[train_ids[-1]].count else 0.0)
    m["dronemodel.rollout_steps"] = int(ro_steps)
    m["dronemodel.rollout_us_per_step"] = (1e6 * covered("dronemodel.rollout") / ro_steps
                                           if ro_steps else 0.0)

    imu_steps = csum("fusion.run_filter", 0)
    m["fusion.runs"] = n("fusion.run_filter")
    m["fusion.imu_steps"] = int(imu_steps)
    m["fusion.run_filter_s"] = covered("fusion.run_filter")
    m["fusion.us_per_imu_step"] = (1e6 * m["fusion.run_filter_s"] / imu_steps
                                   if imu_steps else 0.0)
    m["fusion.updates"] = int(csum("fusion.run_filter", 1))
    m["fusion.model_sf_calls"] = n("fusion.model_sf")
    m["fusion.model_sf_s"] = covered("fusion.model_sf")

    m["evalign.rmse_calls"] = n("evalign.rmse")
    m["evalign.rmse_s"] = covered("evalign.rmse")
    m["evalign.align_calls"] = n("evalign.align")
    return m
