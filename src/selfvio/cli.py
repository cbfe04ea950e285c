"""Batch command-line front end.

Verbs: generate, estimate, train-model, rollout, fuse, eval. Commands
communicate only through files and are byte-reproducible under a fixed
seed. `main` is the one runner of every verb: it reads the verb's config,
applies the flags that override config keys, calls `cmd_<verb>(args, cfg)`,
echoes the resolved configuration into the output directory and prints
the summary line the verb returns.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import itertools
import math
import os
import sys

import numpy as np

from . import dataio, dronemodel, evalign, fusion, losses, poseopt, synth
from .attitude import AttitudeFilter
from .geometry import (CameraIntrinsics, ContractViolation, quat_conj,
                       quat_to_matrix)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# glibc mallopt parameters (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


class ConfigError(ValueError):
    pass


def _parse_config(path, known):
    """key=value lines; '#' comments; unknown keys rejected."""
    out = {}
    if path is None:
        return out
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="ascii") as f:
        for ln, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value")
            k, v = (s.strip() for s in line.split("=", 1))
            if k not in known:
                raise ConfigError(f"{path}:{ln}: unknown key {k!r}")
            out[k] = v
    return out


def _coerce(defaults, raw):
    cfg = dict(defaults)
    for k, v in raw.items():
        d = defaults[k]
        if isinstance(d, bool):
            if v not in ("true", "false"):
                raise ConfigError(f"{k} must be true/false")
            cfg[k] = v == "true"
        elif isinstance(d, (int, float)):
            try:
                cfg[k] = type(d)(v)
            except ValueError:
                raise ConfigError(f"{k} must be {type(d).__name__}, got {v!r}") from None
            if not math.isfinite(cfg[k]):
                raise ConfigError(f"{k} must be finite, got {v!r}")
        else:
            cfg[k] = v
    return cfg


def _float_list(cfg, k):
    """A comma-separated list of finite floats from the config."""
    try:
        out = [float(x) for x in cfg[k].split(",")]
        if all(map(math.isfinite, out)):
            return out
    except ValueError:
        pass
    raise ConfigError(f"{k} must be comma-separated finite numbers, got {cfg[k]!r}")


def _build(cls, cfg, **given):
    """A `cls` dataclass from the config values keyed by its field names,
    plus the `given` fields that have no config key."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in cfg.items() if k in names}, **given)


def _echo_config(outdir, name, cfg):
    os.makedirs(outdir, exist_ok=True)
    lines = [f"{k}={cfg[k]}" for k in sorted(cfg)]
    with open(os.path.join(outdir, name), "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# generate

GEN_DEFAULTS = {
    "sequence_id": "seq0",
    "kind": "straight", "period": 12.0, "peak_speed": 4.0, "duration": 6.0,
    "cam_hz": 120.0, "imu_hz": 500.0, "start_hover": 1.0, "ramp": 1.2,
    "climb": 0.0, "z_amplitude": 1.0, "yaw_mode": "fixed", "yaw0": 0.0,
    "width": 448, "height": 256, "fx": 420.0, "fy": 420.0,
    "seed": 0, "gyro_std": 0.0, "accel_std": 0.0,
    "accel_bias_z": 0.0, "kx": 0.5, "ky": 0.8,
    "write_depth": True, "texture_seed": 0,
}


def _scene_for(traj: synth.TrajectorySpec, texture_seed):
    t = np.linspace(0.0, traj.duration, 256)
    p, _, _, _ = synth.trajectory_state(traj, t)
    margin = 3.0
    x_max = float(p[:, 0].max())
    if traj.kind == "straight":
        # place the gate ~62% of the way along the path, never on a sample
        gate_x = float(p[0, 0] + 0.618034 * (x_max - p[0, 0]) + 0.2345)
        bg = x_max + margin if x_max + margin > gate_x + 2.0 else gate_x + 2.0
    else:
        bg = x_max + margin
        gate_x = x_max + 1.2
    return synth.SceneSpec(
        bg_depth=bg,
        box_back=float(p[:, 0].min()) - margin,
        box_halfwidth=float(np.abs(p[:, 1]).max()) + margin,
        box_floor=float(p[:, 2].min()) - margin,
        box_ceiling=float(p[:, 2].max()) + margin,
        gate_x=gate_x,
        gate_center=(float(p[-1, 1]), float(p[-1, 2])),
        texture_seed=texture_seed,
    )


def cmd_generate(args, cfg):
    outdir = args.out
    traj = _build(synth.TrajectorySpec, cfg)
    dyn = _build(synth.RefDynamicsParams, cfg, accel_z_bias=cfg["accel_bias_z"])
    sim = synth.simulate_imu_motors(traj, dyn, _build(synth.NoiseSpec, cfg))
    scene = _scene_for(traj, cfg["texture_seed"])
    K = CameraIntrinsics(fx=cfg["fx"], fy=cfg["fy"],
                         cx=(cfg["width"] - 1) / 2.0, cy=(cfg["height"] - 1) / 2.0,
                         width=cfg["width"], height=cfg["height"])
    depth_scale = scene.bg_depth - scene.box_back + 1.0

    writer = dataio.DatasetWriter(outdir, cfg["sequence_id"], K, synth.R_CB,
                                  np.zeros(3), cfg["cam_hz"], cfg["imu_hz"],
                                  depth_scale=depth_scale)
    for i, pose in enumerate(sim.cam_poses):
        frame = synth.render(scene, pose, K, timestamp=sim.cam_t[i])
        writer.add_frame(frame.timestamp, frame.image,
                         frame.depth if cfg["write_depth"] else None)
    writer.write_imu(sim.imu)
    writer.write_motors(sim.motors)
    writer.write_groundtruth(sim.t_gt, sim.pos_w, sim.quat_wb, sim.vel_w)
    manifest = writer.finalize()
    return (f"dataset {manifest.sequence_id}: {len(sim.cam_poses)} frames at "
            f"{cfg['cam_hz']:g} Hz, IMU {cfg['imu_hz']:g} Hz -> {outdir}")


# --------------------------------------------------------------------------
# estimate

EST_DEFAULTS = {
    "scheme": "2f", "stride": 1, "max_pairs": 0, "alpha": 0.85,
    "lambda1": 0.15, "lambda2": 0.001, "ssim_window": 3,
    "max_iters": 100, "step_size": 0.25, "tol": 1e-9,
    "depth_mode": "gt-scaled", "depth_scale_factor": 0.37,
}


def cmd_estimate(args, cfg):
    if cfg["depth_scale_factor"] <= 0:
        raise ConfigError("depth_scale_factor must be positive")
    if cfg["stride"] < 1 or cfg["max_pairs"] < 0:
        raise ConfigError("stride must be at least 1 and max_pairs nonnegative")
    lcfg = _build(losses.LossConfig, cfg)
    ocfg = _build(poseopt.OptimizerConfig, cfg)
    ds = dataio.load_sequence(args.dataset)
    K = ds.manifest.intrinsics
    idx = list(range(0, len(ds.frames.t), cfg["stride"]))
    if cfg["max_pairs"] > 0:
        idx = idx[:cfg["max_pairs"] + 2]
    if len(idx) < losses.SCHEME_FRAMES[lcfg.scheme]:
        raise ConfigError(f"stride {cfg['stride']} leaves too few frames for scheme "
                          f"{lcfg.scheme}")
    frames = [ds.load_image(i) for i in idx]
    depths = [ds.load_depth(i) * cfg["depth_scale_factor"] for i in idx]
    times = [float(ds.frames.t[i]) for i in idx]
    estimates, traj, cam_vel = poseopt.run_sequence(frames, depths, times, K, ocfg, lcfg)

    os.makedirs(args.out, exist_ok=True)
    dataio.write_csv(os.path.join(args.out, "trajectory.csv"), "t,px,py,pz",
                     np.column_stack([traj.t, traj.pos]))
    dataio.write_csv(os.path.join(args.out, "velocities.csv"), "t,vcx,vcy,vcz",
                     np.column_stack([traj.t[1:], cam_vel]))
    diags = []
    for k, est in enumerate(estimates):
        # a failed pair has no loss: its components read nan, its counts 0
        d = est.diagnostics or losses.LossDiagnostics(photometric=np.nan, depth=np.nan,
                                                      smoothness=np.nan)
        diags.append((k, est.converged, est.iterations, est.final_loss, d.photometric,
                      d.depth, d.smoothness, d.valid_photo, d.valid_depth,
                      est.backtracks, int(est.warm_start), int(est.retried)))
    dataio.write_csv(os.path.join(args.out, "diagnostics.csv"),
                     "pair,converged,iterations,final_loss,photometric,depth,smoothness,"
                     "valid_photo,valid_depth,backtracks,warm_start,retried", diags)
    return f"estimated {len(estimates)} pairs ({cfg['scheme']}) -> {args.out}"


# --------------------------------------------------------------------------
# train-model

TRAIN_DEFAULTS = {
    "steps": 1500, "batch": 6, "lr": 5e-3, "lr_final": 3e-4,
    "window_min": 0.25, "window_max": 5.0, "cutoff_hz": 5.0,
    "seed": 0, "init_scale": 1.0, "attitude": "ekf",
}


def _rpm_at_imu(ds: dataio.DatasetBundle):
    """Motor RPM sampled at the IMU timestamps."""
    rpm = ds.motors.rpm
    if len(rpm) != len(ds.imu.t):
        k = np.clip(np.searchsorted(ds.motors.t, ds.imu.t), 0, len(rpm) - 1)
        rpm = rpm[k]
    return rpm


def _groundtruth_at(ds: dataio.DatasetBundle, t):
    """Ground-truth R_wb (N, 3, 3) and body velocity (N, 3) at the times t,
    from the first ground-truth sample at or after each time."""
    gt = ds.groundtruth
    if gt is None:
        raise dataio.DatasetError("dataset has no groundtruth.csv")
    k = np.clip(np.searchsorted(gt["t"], t), 0, len(gt["t"]) - 1)
    R_wb = quat_to_matrix(gt["quat_wb"][k])
    return R_wb, np.einsum("nij,nj->ni", R_wb.transpose(0, 2, 1), gt["vel_w"][k])


def _load_model(path):
    """A missing, unparsable or incomplete model file is a data error; a
    model of another format or version stays a config error."""
    try:
        return dronemodel.load_params(path)
    except ContractViolation:
        raise
    except FileNotFoundError:
        raise dataio.MissingFileError(f"model file not found: {path}") from None
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        raise dataio.FormatError(f"cannot read model file {path}: {e!r}") from None


def _attitude(ds: dataio.DatasetBundle, mode):
    """R_wb (N, 3, 3) and gravity in the body frame (N, 3) at the IMU times,
    from the attitude filter ('ekf') or from ground truth ('groundtruth');
    `main` checks the value."""
    if mode == "groundtruth":
        R_wb, _ = _groundtruth_at(ds, ds.imu.t)
        return R_wb, np.einsum("nij,j->ni", R_wb.transpose(0, 2, 1), synth.G_WORLD)
    quats, g_b = AttitudeFilter().run(ds.imu.t, ds.imu.gyro, ds.imu.accel)
    return quat_to_matrix(quat_conj(quats)), g_b    # R_bw^T, bit for bit


def _sequence_from_dataset(ds: dataio.DatasetBundle, vel_path, attitude):
    vel = dataio.read_series(vel_path, "t,vcx,vcy,vcz")
    _, g_b = _attitude(ds, attitude)
    return dronemodel.TrainSequence(
        seq_id=ds.manifest.sequence_id,
        t=ds.imu.t, gyro=ds.imu.gyro, accel=ds.imu.accel, rpm=_rpm_at_imu(ds),
        g_body=g_b, cam_t=vel[:, 0], v_cam=vel[:, 1:4], R_cb=ds.manifest.R_cb)


def cmd_train_model(args, cfg):
    train_cfg = _build(dronemodel.TrainConfig, cfg)
    if not all(":" in spec for spec in args.sequence):
        raise ConfigError("--sequence expects DATASET_DIR:VELOCITIES_CSV")
    seqs = [_sequence_from_dataset(dataio.load_sequence(root), vel, attitude=cfg["attitude"])
            for root, vel in (spec.rsplit(":", 1) for spec in args.sequence)]
    params, history = dronemodel.train(seqs, train_cfg)
    os.makedirs(args.out, exist_ok=True)
    dronemodel.save_params(os.path.join(args.out, "model.json"), params)
    dataio.write_csv(os.path.join(args.out, "history.csv"), "step,loss",
                     enumerate(history))
    scales = ", ".join(f"{k}={v:.4f}" for k, v in sorted(params.scales.items()))
    return f"trained {cfg['steps']} steps; scales: {scales} -> {args.out}"


# --------------------------------------------------------------------------
# rollout

ROLLOUT_DEFAULTS = {"cutoff_hz": 5.0, "attitude": "ekf"}


def cmd_rollout(args, cfg):
    ds = dataio.load_sequence(args.dataset)
    params = _load_model(args.model)
    seq = _sequence_from_dataset(ds, args.velocities, attitude=cfg["attitude"])
    if seq.seq_id not in params.scales:
        raise ContractViolation(
            f"model has no scale for sequence {seq.seq_id!r}")
    prep = dronemodel.prepare_sequence(seq, cfg["cutoff_hz"])
    ro = dronemodel.rollout(params, prep, np.zeros(3))
    os.makedirs(args.out, exist_ok=True)
    dataio.write_csv(os.path.join(args.out, "rollout.csv"), "t,vx,vy,vz",
                     np.column_stack([ro.t, ro.vel]))
    return f"rolled out {len(ro.t)} samples -> {args.out}"


# --------------------------------------------------------------------------
# fuse

FUSE_DEFAULTS = {
    "weights": "0.0,0.3", "rates": "120,60,40,30,20", "seeds": 10,
    "vis_noise_std": 0.1, "accel_noise_std": 0.05, "attitude": "ekf",
    "dropout_period": 0.0, "dropout_len": 0.0, "align": "se3",
}


def cmd_fuse(args, cfg):
    weights = _float_list(cfg, "weights")
    rates = _float_list(cfg, "rates")
    if cfg["seeds"] < 0:
        raise ConfigError("seeds must be nonnegative")
    if min(rates) <= 0:
        raise ConfigError(f"rates must be positive, got {cfg['rates']!r}")
    period, length = cfg["dropout_period"], cfg["dropout_len"]
    if min(period, length) < 0:
        raise ConfigError(f"dropout_period and dropout_len must be nonnegative, "
                          f"got {period!r} and {length!r}")
    dropouts = period > 0 and length > 0
    if dropouts and length >= period:
        raise ConfigError(f"dropout_len must be shorter than dropout_period, "
                          f"or every update drops; got {length!r} >= {period!r}")
    # one filter pass for the sweep: a group of rows per rate, its rows every
    # (weight, seed) pair
    pairs = list(itertools.product(weights, range(cfg["seeds"])))
    runs = list(itertools.product(rates, pairs))
    fc = _build(fusion.FusionConfig, cfg, model_weight=np.array([w for _, (w, _) in runs]))
    if args.model is None and np.any(fc.model_weight > 0):
        raise ConfigError("a model weight above 0 needs --model")

    ds = dataio.load_sequence(args.dataset)
    _, vel_b_true = _groundtruth_at(ds, ds.frames.t)
    model = _load_model(args.model) if args.model else None
    gt = ds.groundtruth
    R_wb, _ = _attitude(ds, cfg["attitude"])

    drops = []
    if dropouts:
        frame_dt = float(np.median(np.diff(ds.frames.t)))
        if period < frame_dt:
            raise ConfigError(f"dropout_period must be at least the camera frame "
                              f"interval ({frame_dt!r} s), got {period!r}")
        t0 = float(ds.frames.t[0]) + period * 0.5
        while t0 < float(ds.frames.t[-1]):
            drops.append((t0, t0 + length))
            t0 += period

    gt_traj = evalign.TrajectoryEstimate(t=gt["t"][::5], pos=gt["pos"][::5])
    rpm = _rpm_at_imu(ds)
    entries, last = [], None
    if runs:                                    # seeds=0: nothing to run
        groups = [fusion.make_visual_measurements(ds.frames.t, vel_b_true, rate,
                                                  fc.vis_noise_std, [s for _, s in pairs],
                                                  drops) for rate in rates]
        last = fusion.run_filter(ds.imu.t, ds.imu.accel, ds.imu.gyro, rpm, R_wb, groups,
                                 model, fc, p0=gt["pos"][0], v0=gt["vel_w"][0])
        for (rate, (w, seed)), pos in zip(runs, last.pos):
            est = evalign.TrajectoryEstimate(t=last.t[::5], pos=pos[::5])
            entries.append((rate, w, seed,
                            evalign.position_rmse(est, gt_traj, mode=cfg["align"])))

    os.makedirs(args.out, exist_ok=True)
    dataio.write_csv(os.path.join(args.out, "sweep.csv"),
                     "rate_hz,model_weight,seed,rmse_m", entries)
    if last is not None:            # the last rate x weight x seed run
        dataio.write_csv(os.path.join(args.out, "trajectory.csv"), "t,px,py,pz,vbx,vby,vbz",
                         np.column_stack([last.t, last.pos[-1], last.vel_body[-1]])[::5])
    return f"fusion sweep: {len(entries)} runs -> {args.out}"


# --------------------------------------------------------------------------
# eval

EVAL_DEFAULTS = {"mode": "sim3", "bin_width": 1.0, "speed_floor": 0.5}


def _read_trajectory_csv(path):
    arr = dataio.read_series(path, ("t", "px", "py", "pz"))
    return evalign.TrajectoryEstimate(t=arr[:, 0], pos=arr[:, 1:4])


def cmd_eval(args, cfg):
    est = _read_trajectory_csv(args.est)
    if os.path.isdir(args.gt):
        ds = dataio.load_sequence(args.gt)
        if ds.groundtruth is None:
            raise dataio.DatasetError("dataset has no groundtruth.csv")
        gt = evalign.TrajectoryEstimate(t=ds.groundtruth["t"],
                                        pos=ds.groundtruth["pos"])
    else:
        gt = _read_trajectory_csv(args.gt)
    rmse = evalign.position_rmse(est, gt, mode=cfg["mode"])
    if args.vel_est:
        if not os.path.isdir(args.gt):
            raise ConfigError("--vel-est needs a dataset directory as --gt")
        vel = dataio.read_series(args.vel_est, "t,vx,vy,vz")
        _, vb_gt = _groundtruth_at(ds, vel[:, 0])
        bins = evalign.relative_velocity_error(vel[:, 1:4], vb_gt,
                                               bin_width=cfg["bin_width"],
                                               speed_floor=cfg["speed_floor"])
    os.makedirs(args.out, exist_ok=True)
    dataio.write_csv(os.path.join(args.out, "rmse.csv"), "trajectory,mode,rmse_m",
                     [(os.path.basename(args.est), cfg["mode"], rmse)])
    if args.vel_est:
        cols = ("bin_low", "bin_high", "mean", "std", "count")
        dataio.write_csv(os.path.join(args.out, "velocity_bins.csv"), ",".join(cols),
                         [[b[c] for c in cols] for b in bins])
    return f"absolute position RMSE ({cfg['mode']}): {rmse:.6f} m -> {args.out}"


# --------------------------------------------------------------------------


def _verb(sub, name, fn, defaults, help, description=None):
    """A verb's subparser with the `--out` and `--config` every verb takes."""
    v = sub.add_parser(name, help=help, description=description)
    v.add_argument("--out", required=True)
    v.add_argument("--config", help="key=value config file")
    v.set_defaults(fn=fn, defaults=defaults)
    return v


def build_parser():
    p = argparse.ArgumentParser(
        prog="selfvio",
        description="Synthetic ego-motion pipeline: generate datasets, "
                    "estimate poses, train the drone model, fuse, evaluate.")
    sub = p.add_subparsers(dest="command", required=True)

    _verb(sub, "generate", cmd_generate, GEN_DEFAULTS, "render a synthetic dataset")

    e = _verb(sub, "estimate", cmd_estimate, EST_DEFAULTS,
              "per-pair pose estimation over a dataset")
    e.add_argument("--dataset", required=True)
    e.add_argument("--scheme", choices=losses.SCHEMES)

    t = _verb(sub, "train-model", cmd_train_model, TRAIN_DEFAULTS,
              "train the drone dynamics model")
    t.add_argument("--sequence", action="append", required=True,
                   metavar="DATASET_DIR:VELOCITIES_CSV")

    r = _verb(sub, "rollout", cmd_rollout, ROLLOUT_DEFAULTS, "open-loop velocity rollout")
    r.add_argument("--dataset", required=True)
    r.add_argument("--model", required=True)
    r.add_argument("--velocities", required=True)

    f = _verb(sub, "fuse", cmd_fuse, FUSE_DEFAULTS, "fusion filter sweep",
              "Run the fusion filter for every update rate x model weight x seed "
              "combination, all in one filter pass. sweep.csv holds one RMSE row "
              "per combination; trajectory.csv holds the trajectory of the last "
              "combination: the last rate, the last weight and the last seed.")
    f.add_argument("--dataset", required=True)
    f.add_argument("--model")
    f.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect")

    v = _verb(sub, "eval", cmd_eval, EVAL_DEFAULTS, "trajectory metrics")
    v.add_argument("--est", required=True)
    v.add_argument("--gt", required=True, help="trajectory CSV or dataset dir")
    v.add_argument("--mode", choices=evalign.ALIGN_MODES)
    v.add_argument("--vel-est", help="body-velocity CSV (t,vx,vy,vz) for "
                                     "per-speed-bin relative error")
    return p


def _keep_freed_arrays_in_heap():
    """Raise glibc's mmap and trim thresholds, so that the 100 KB-1 MB
    arrays a loss evaluation frees stay in the heap for the next one
    instead of going back to the OS and faulting in again. Allocation does
    not change arithmetic. Without glibc's mallopt this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(M_TRIM_THRESHOLD, 64 << 20)
    mallopt(M_MMAP_THRESHOLD, 4 << 20)


def main(argv=None):
    """Run the verb that argv names, as the module docstring describes, and
    return its exit code."""
    _keep_freed_arrays_in_heap()
    args = build_parser().parse_args(argv)
    try:
        cfg = _coerce(args.defaults, _parse_config(args.config, args.defaults))
        cfg.update((k, v) for k, v in vars(args).items() if k in cfg and v is not None)
        if cfg.get("attitude", "ekf") not in ("ekf", "groundtruth"):
            raise ConfigError(f"attitude must be 'ekf' or 'groundtruth', got {cfg['attitude']!r}")
        summary = args.fn(args, cfg)
    except (evalign.DegeneratePointSet, dronemodel.ShortSequence, dataio.DatasetError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ContractViolation) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (dronemodel.DivergenceError, fusion.FilterDivergence,
            poseopt.OptimizationDiverged, synth.SimulationInfeasible) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    _echo_config(args.out, f"{args.command}.echo.cfg", cfg)
    print(summary)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
