"""Workload definitions: inputs made from a seed, the CLI verb chain, and
the output checks and quality metrics computed from synthetic ground truth.

Every workload runs through `selfvio.cli.main` exactly as a user chains the
verbs through files. Quality numbers are computed here with plain numpy from
the generated ground truth; the program itself only ever receives the
generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Scale planted between the visual velocities and the truth: `estimate`
# multiplies depth by it (its `depth_scale_factor` default), and the
# `dynamics` teacher file multiplies true velocities by it. A correct
# training run learns the sequence scale 1 / PLANTED_FACTOR = 2.70.
PLANTED_FACTOR = 0.37

# Stated tolerances against ground truth. They are sanity bounds that catch
# a broken stage; they are loose enough to accept the defects recorded in
# bench/baseline.json (ekf attitude leaves the learned scale near 1.0, so
# scale_err ~ 0.63 and the fused RMSE ~ 2 m), which are reported, not hidden.
QUALITY = {   # name: (unit, tolerance: the value must be finite and at most this)
    "pose_dir_err_deg": ("deg", 60.0),   # median direction error of moving pairs
    "traj_rmse_sim3_m": ("m", 0.25),     # sim3 RMSE of the estimated trajectory
    "scale_err": ("ratio", 1.0),         # |learned scale * planted factor - 1|
    "rollout_vel_err": ("ratio", 3.0),   # count-weighted relative velocity error
    "fuse_rmse_m": ("m", 10.0),          # median SE3 RMSE over the fusion sweep
}


class CheckFailed(Exception):
    """An output is missing, does not parse, or breaks a tolerance."""


def _write_cfg(path, items):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("".join(f"{k}={v}\n" for k, v in items))


def _uniform(seed, lo, hi, salt):
    """Deterministic draw in [lo, hi) from the workload seed."""
    h = hashlib.sha256(f"{seed}:{salt}".encode()).digest()
    return lo + (hi - lo) * int.from_bytes(h[:8], "big") / 2.0 ** 64


# --------------------------------------------------------------------------
# reading outputs (independent of the program's own readers)


def read_table(path, header):
    """Numeric CSV with an exact header; raises CheckFailed otherwise."""
    if not os.path.exists(path):
        raise CheckFailed(f"missing output {path}")
    with open(path, "r", encoding="ascii") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path}: expected header {header!r}")
    try:
        arr = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]],
                       dtype=np.float64).reshape(len(lines) - 1, header.count(",") + 1)
    except ValueError as e:
        raise CheckFailed(f"{path}: {e}") from None
    if not np.all(np.isfinite(arr)):
        raise CheckFailed(f"{path}: non-finite values")
    return arr


def read_rmse(path):
    """The single rmse_m value of an `eval` rmse.csv."""
    if not os.path.exists(path):
        raise CheckFailed(f"missing output {path}")
    with open(path, "r", encoding="ascii") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if len(lines) != 2 or lines[0] != "trajectory,mode,rmse_m":
        raise CheckFailed(f"{path}: expected one rmse row")
    try:
        value = float(lines[1].split(",")[2])
    except (IndexError, ValueError):
        raise CheckFailed(f"{path}: unparsable row") from None
    return value


def _quat_to_matrix(q):
    """(N,4) w,x,y,z unit quaternions -> (N,3,3) rotation matrices."""
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
    ], axis=1)


class GroundTruth:
    """Ground truth of a generated dataset, interpolated at any time."""

    def __init__(self, ds_dir):
        with open(os.path.join(ds_dir, "manifest.json"), "r", encoding="ascii") as f:
            man = json.load(f)
        self.R_cb = np.asarray(man["R_cb"], dtype=np.float64)
        gt = read_table(os.path.join(ds_dir, "groundtruth.csv"),
                        "t,px,py,pz,qw,qx,qy,qz,vx,vy,vz")
        self.t, self.pos, self.quat, self.vel_w = gt[:, 0], gt[:, 1:4], gt[:, 4:8], gt[:, 8:11]
        with open(os.path.join(ds_dir, "frames.csv"), "r", encoding="ascii") as f:
            rows = [ln.split(",") for ln in f.read().splitlines()[1:] if ln]
        self.frame_t = np.array([float(r[0]) for r in rows])

    def at(self, t):
        """Position, body->world rotation and world velocity at times t."""
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        j = np.clip(np.searchsorted(self.t, t, side="right") - 1, 0, len(self.t) - 2)
        a = ((t - self.t[j]) / (self.t[j + 1] - self.t[j]))[:, None]
        pos = (1 - a) * self.pos[j] + a * self.pos[j + 1]
        vel = (1 - a) * self.vel_w[j] + a * self.vel_w[j + 1]
        q0, q1 = self.quat[j], self.quat[j + 1]
        q1 = np.where((np.sum(q0 * q1, axis=1) < 0)[:, None], -q1, q1)
        return pos, _quat_to_matrix((1 - a) * q0 + a * q1), vel

    def camera_velocity(self, t):
        """True velocity of the camera origin in camera coordinates."""
        _, R_wb, v_w = self.at(t)
        v_b = np.einsum("nji,nj->ni", R_wb, v_w)
        return v_b @ self.R_cb          # R_cb^T v_b, row-wise


def pose_direction_errors(est_dir, gt):
    """Angle (deg) between each estimated pair translation and the true
    camera-frame relative translation, plus the true mean speed of the pair.

    Row k of velocities.csv is the cur->prev transform's translation over
    dt, stamped with the current frame's time; the previous frame is the
    one before it in frames.csv.
    """
    vel = read_table(os.path.join(est_dir, "velocities.csv"), "t,vcx,vcy,vcz")
    cur_t = vel[:, 0]
    k = np.searchsorted(gt.frame_t, cur_t)
    if np.any(k < 1) or np.any(np.abs(gt.frame_t[np.clip(k, 0, len(gt.frame_t) - 1)] - cur_t) > 1e-9):
        raise CheckFailed("velocities.csv times are not frame times")
    prev_t = gt.frame_t[k - 1]
    p_cur, _, _ = gt.at(cur_t)
    p_prev, R_prev, _ = gt.at(prev_t)
    R_wc_prev = R_prev @ gt.R_cb
    t_true = np.einsum("nji,nj->ni", R_wc_prev, p_cur - p_prev)
    length = np.linalg.norm(t_true, axis=1)
    est = vel[:, 1:4]
    cosang = np.sum(est * t_true, axis=1) / np.maximum(
        np.linalg.norm(est, axis=1) * length, 1e-300)
    return np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))), length / (cur_t - prev_t)


# A pair is scored when the true camera speed reaches the speed floor that
# `eval` uses for velocity errors; below it (hover, the start of the ramp)
# the translation is a fraction of a pixel and its direction is noise.
MIN_SPEED = 0.5


def digest_dir(root):
    """sha256 of every file below root except *.echo.cfg, by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name.endswith(".echo.cfg"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return dict(sorted(out.items()))


# --------------------------------------------------------------------------
# workloads


@dataclass
class Verb:
    """One CLI call: its argv, the output directory it owns and the check
    that reads its outputs (and adds quality metrics to the dict it gets)."""
    name: str
    argv: list
    out: str
    check: Callable[[dict], None]


class Workload:
    name = ""
    active_layers = ()    # layers that do work here (trace self-check)
    fuse_jobs = None

    def prepare(self, seed, inputs):
        """Write this workload's config files into `inputs`."""
        raise NotImplementedError

    def setup_verbs(self, inputs):
        """CLI calls that generate this workload's inputs (set-up)."""
        return []

    def setup_extra(self, inputs):
        """Benchmark-side input files written after the set-up verbs."""

    def round_verbs(self, inputs, rdir):
        raise NotImplementedError


def _check_estimate(gt_dir, est_dir, n_pairs, quality, moving):
    traj = read_table(os.path.join(est_dir, "trajectory.csv"), "t,px,py,pz")
    diag_path = os.path.join(est_dir, "diagnostics.csv")
    if not os.path.exists(diag_path):
        raise CheckFailed(f"missing output {diag_path}")
    with open(diag_path, "r", encoding="ascii") as f:
        n_diag = len([ln for ln in f if ln.strip()]) - 1
    gt = GroundTruth(gt_dir)
    err, speed = pose_direction_errors(est_dir, gt)
    if not (len(traj) == n_pairs + 1 and len(err) == n_pairs and n_diag == n_pairs):
        raise CheckFailed(f"expected {n_pairs} pairs, got {len(err)}")
    keep = speed >= MIN_SPEED
    if not keep.any():
        raise CheckFailed("no moving pairs to score")
    moving[:] = keep.tolist()
    quality["pose_dir_err_deg"] = float(np.median(err[keep]))


def _check_eval(out_dir, quality, key=None, vel_bins=False):
    rmse = read_rmse(os.path.join(out_dir, "rmse.csv"))
    if key:
        quality[key] = rmse
    if vel_bins:
        bins = read_table(os.path.join(out_dir, "velocity_bins.csv"),
                          "bin_low,bin_high,mean,std,count")
        if len(bins) == 0 or bins[:, 4].sum() <= 0:
            raise CheckFailed("velocity_bins.csv has no samples")
        quality["rollout_vel_err"] = float(np.sum(bins[:, 2] * bins[:, 4]) / bins[:, 4].sum())


def _check_model(model_dir, seq_id, steps, quality):
    with open(os.path.join(model_dir, "model.json"), "r", encoding="ascii") as f:
        scale = float(json.load(f)["scales"][seq_id])
    hist = read_table(os.path.join(model_dir, "history.csv"), "step,loss")
    if len(hist) != steps:
        raise CheckFailed(f"history.csv has {len(hist)} rows, expected {steps}")
    quality["scale_err"] = abs(scale * PLANTED_FACTOR - 1.0)


def _check_rollout(rollout_dir, n_imu):
    ro = read_table(os.path.join(rollout_dir, "rollout.csv"), "t,vx,vy,vz")
    if len(ro) != n_imu:
        raise CheckFailed(f"rollout.csv has {len(ro)} rows, expected {n_imu}")


def _check_fuse(fuse_dir, n_runs, quality):
    sweep = read_table(os.path.join(fuse_dir, "sweep.csv"), "rate_hz,model_weight,seed,rmse_m")
    if len(sweep) != n_runs:
        raise CheckFailed(f"sweep.csv has {len(sweep)} rows, expected {n_runs}")
    read_table(os.path.join(fuse_dir, "trajectory.csv"), "t,px,py,pz,vbx,vby,vbz")
    quality["fuse_rmse_m"] = float(np.median(sweep[:, 3]))


def _check_dataset(ds_dir, n_frames):
    gt = GroundTruth(ds_dir)
    if len(gt.frame_t) != n_frames:
        raise CheckFailed(f"dataset has {len(gt.frame_t)} frames, expected {n_frames}")


def _frames(duration, hz):
    return int(round(duration * hz)) + 1


class Walkthrough(Workload):
    """The README walkthrough with its settings and verb order; only the
    length is cut (a prefix of estimate pairs, fewer training steps)."""
    name = "walkthrough"
    active_layers = ("cli", "dataio", "synth", "geometry", "losses", "autodiff",
                     "poseopt", "attitude", "dronemodel", "fusion", "evalign")
    EST_PAIRS = 40          # 30 hover pairs, then 10 through the take-off ramp
    TRAIN_STEPS = 8
    fuse_jobs = min(2, os.cpu_count() or 1)

    def prepare(self, seed, inputs):
        _write_cfg(os.path.join(inputs, "gen.cfg"), [
            ("kind", "ellipse"), ("period", 7), ("peak_speed", 5.0), ("duration", 8.0),
            ("cam_hz", 30), ("imu_hz", 500), ("width", 64), ("height", 48),
            ("fx", 60), ("fy", 60), ("ramp", 0.3), ("seed", seed),
            ("texture_seed", seed), ("sequence_id", "demo")])
        _write_cfg(os.path.join(inputs, "est.cfg"), [("max_pairs", self.EST_PAIRS - 1)])
        _write_cfg(os.path.join(inputs, "train.cfg"), [
            ("steps", self.TRAIN_STEPS), ("batch", 4), ("window_max", 3.0), ("cutoff_hz", 8)])
        _write_cfg(os.path.join(inputs, "fuse.cfg"), [
            ("weights", "0.0,0.3"), ("rates", "30,15"), ("seeds", 3)])

    def round_verbs(self, inputs, r):
        ds, est, model = f"{r}/ds", f"{r}/est", f"{r}/model"
        q_moving = []

        def chk_est(quality):
            _check_estimate(ds, est, self.EST_PAIRS, quality, q_moving)

        return [
            Verb("generate", ["generate", "--config", f"{inputs}/gen.cfg", "--out", ds], ds,
                 lambda q: _check_dataset(ds, _frames(8.0, 30))),
            Verb("estimate", ["estimate", "--dataset", ds, "--out", est, "--scheme", "2f",
                              "--config", f"{inputs}/est.cfg"], est, chk_est),
            Verb("train-model", ["train-model", "--sequence", f"{ds}:{est}/velocities.csv",
                                 "--out", model, "--config", f"{inputs}/train.cfg"], model,
                 lambda q: _check_model(model, "demo", self.TRAIN_STEPS, q)),
            Verb("rollout", ["rollout", "--dataset", ds, "--model", f"{model}/model.json",
                             "--velocities", f"{est}/velocities.csv", "--out", f"{r}/rollout"],
                 f"{r}/rollout", lambda q: _check_rollout(f"{r}/rollout", _frames(8.0, 500))),
            Verb("fuse", ["fuse", "--dataset", ds, "--model", f"{model}/model.json",
                          "--out", f"{r}/fuse", "--config", f"{inputs}/fuse.cfg",
                          "--jobs", str(self.fuse_jobs)], f"{r}/fuse",
                 lambda q: _check_fuse(f"{r}/fuse", 12, q)),
            Verb("eval", ["eval", "--est", f"{est}/trajectory.csv", "--gt", ds,
                          "--mode", "sim3", "--out", f"{r}/eval"], f"{r}/eval",
                 lambda q: _check_eval(f"{r}/eval", q, "traj_rmse_sim3_m")),
            Verb("eval", ["eval", "--est", f"{r}/fuse/trajectory.csv", "--gt", ds,
                          "--mode", "se3", "--vel-est", f"{r}/rollout/rollout.csv",
                          "--out", f"{r}/eval_fuse"], f"{r}/eval_fuse",
                 lambda q: _check_eval(f"{r}/eval_fuse", q, vel_bins=True)),
        ], q_moving


class Pose160(Workload):
    """Triplet-scheme pose estimation at 160x120 on a curved segment."""
    name = "pose160"
    active_layers = ("cli", "dataio", "synth", "geometry", "losses", "autodiff",
                     "poseopt", "evalign")
    EST_PAIRS = 14
    # A per-pair iteration budget: at the default of 100 a few pairs creep
    # to the cap and the run's cost swings 16-41 s across seeds.
    MAX_ITERS = 15
    DURATION = 1.0

    def prepare(self, seed, inputs):
        _write_cfg(os.path.join(inputs, "gen.cfg"), [
            ("kind", "ellipse"), ("period", 7), ("peak_speed", 5.0),
            ("duration", self.DURATION), ("cam_hz", 30), ("imu_hz", 500),
            ("width", 160), ("height", 120), ("fx", 150), ("fy", 150),
            ("start_hover", -1.0), ("ramp", 0.3), ("seed", seed),
            ("texture_seed", seed), ("sequence_id", "pose160")])
        _write_cfg(os.path.join(inputs, "est.cfg"), [("max_pairs", self.EST_PAIRS),
                                                     ("max_iters", self.MAX_ITERS)])

    def setup_verbs(self, inputs):
        ds = f"{inputs}/ds"
        return [Verb("generate", ["generate", "--config", f"{inputs}/gen.cfg", "--out", ds],
                     ds, lambda q: _check_dataset(ds, _frames(self.DURATION, 30)))]

    def round_verbs(self, inputs, r):
        ds, est = f"{inputs}/ds", f"{r}/est"
        q_moving = []
        return [
            Verb("estimate", ["estimate", "--dataset", ds, "--out", est, "--scheme", "3f",
                              "--config", f"{inputs}/est.cfg"], est,
                 lambda q: _check_estimate(ds, est, self.EST_PAIRS, q, q_moving)),
            Verb("eval", ["eval", "--est", f"{est}/trajectory.csv", "--gt", ds,
                          "--mode", "sim3", "--out", f"{r}/eval"], f"{r}/eval",
                 lambda q: _check_eval(f"{r}/eval", q, "traj_rmse_sim3_m")),
        ], q_moving


class Dynamics(Workload):
    """Drone-model training, rollout and a wide fusion sweep on a teacher
    made from ground truth times the planted factor."""
    name = "dynamics"
    active_layers = ("cli", "dataio", "synth", "attitude", "dronemodel", "fusion",
                     "evalign")
    DURATION = 6.0
    TRAIN_STEPS = 8
    WEIGHTS, RATES, SEEDS = "0.0,0.3", "30,15", 5
    fuse_jobs = 1

    def prepare(self, seed, inputs):
        _write_cfg(os.path.join(inputs, "gen.cfg"), [
            ("kind", "ellipse"), ("period", round(_uniform(seed, 6.5, 7.5, "period"), 6)),
            ("peak_speed", round(_uniform(seed, 4.5, 5.5, "speed"), 6)),
            ("duration", self.DURATION), ("cam_hz", 30), ("imu_hz", 500),
            ("start_hover", 0.5), ("ramp", 0.3), ("width", 32), ("height", 24),
            ("fx", 30), ("fy", 30), ("write_depth", "false"), ("seed", seed),
            ("gyro_std", 0.001), ("accel_std", 0.01), ("texture_seed", seed),
            ("sequence_id", "dyn")])
        _write_cfg(os.path.join(inputs, "train.cfg"), [("steps", self.TRAIN_STEPS)])
        _write_cfg(os.path.join(inputs, "fuse.cfg"), [
            ("weights", self.WEIGHTS), ("rates", self.RATES), ("seeds", self.SEEDS)])

    def setup_verbs(self, inputs):
        ds = f"{inputs}/ds"
        return [Verb("generate", ["generate", "--config", f"{inputs}/gen.cfg", "--out", ds],
                     ds, lambda q: _check_dataset(ds, _frames(self.DURATION, 30)))]

    def setup_extra(self, inputs):
        """Teacher velocities: true camera-frame velocity at the frame times
        times the planted factor (what a scale-ambiguous estimator reports)."""
        gt = GroundTruth(f"{inputs}/ds")
        v = PLANTED_FACTOR * gt.camera_velocity(gt.frame_t)
        os.makedirs(f"{inputs}/teacher", exist_ok=True)
        rows = ["t,vcx,vcy,vcz"] + [
            f"{t!r},{a!r},{b!r},{c!r}" for t, (a, b, c) in zip(
                gt.frame_t.tolist(), v.tolist())]
        with open(f"{inputs}/teacher/velocities.csv", "w", encoding="ascii", newline="\n") as f:
            f.write("\n".join(rows) + "\n")

    def round_verbs(self, inputs, r):
        ds, teacher, model = f"{inputs}/ds", f"{inputs}/teacher/velocities.csv", f"{r}/model"
        n_runs = len(self.WEIGHTS.split(",")) * len(self.RATES.split(",")) * self.SEEDS
        return [
            Verb("train-model", ["train-model", "--sequence", f"{ds}:{teacher}",
                                 "--out", model, "--config", f"{inputs}/train.cfg"], model,
                 lambda q: _check_model(model, "dyn", self.TRAIN_STEPS, q)),
            Verb("rollout", ["rollout", "--dataset", ds, "--model", f"{model}/model.json",
                             "--velocities", teacher, "--out", f"{r}/rollout"], f"{r}/rollout",
                 lambda q: _check_rollout(f"{r}/rollout", _frames(self.DURATION, 500))),
            Verb("fuse", ["fuse", "--dataset", ds, "--model", f"{model}/model.json",
                          "--out", f"{r}/fuse", "--config", f"{inputs}/fuse.cfg",
                          "--jobs", str(self.fuse_jobs)], f"{r}/fuse",
                 lambda q: _check_fuse(f"{r}/fuse", n_runs, q)),
            Verb("eval", ["eval", "--est", f"{r}/fuse/trajectory.csv", "--gt", ds,
                          "--mode", "se3", "--vel-est", f"{r}/rollout/rollout.csv",
                          "--out", f"{r}/eval"], f"{r}/eval",
                 lambda q: _check_eval(f"{r}/eval", q, vel_bins=True)),
        ], []


WORKLOADS = {w.name: w for w in (Walkthrough(), Pose160(), Dynamics())}
