"""Batch command-line front end.

Verbs: generate, estimate, train-model, rollout, fuse, eval. Commands
communicate only through files; every run echoes its resolved
configuration into the output directory and is byte-reproducible under a
fixed seed.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import itertools
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
        else:
            cfg[k] = v
    return cfg


def _float_list(cfg, k):
    """A comma-separated list of floats from the config."""
    try:
        return [float(x) for x in cfg[k].split(",")]
    except ValueError:
        raise ConfigError(f"{k} must be comma-separated numbers, got {cfg[k]!r}") from None


def _echo_config(outdir, name, cfg):
    os.makedirs(outdir, exist_ok=True)
    lines = [f"{k}={cfg[k]}" for k in sorted(cfg)]
    with open(os.path.join(outdir, name), "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _f(x):
    return repr(float(x))


def _write_text(path, text):
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(text)


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


def cmd_generate(args):
    cfg = _coerce(GEN_DEFAULTS, _parse_config(args.config, GEN_DEFAULTS))
    outdir = args.out
    traj = synth.TrajectorySpec(
        kind=cfg["kind"], period=cfg["period"], peak_speed=cfg["peak_speed"],
        duration=cfg["duration"], cam_hz=cfg["cam_hz"], imu_hz=cfg["imu_hz"],
        start_hover=cfg["start_hover"], ramp=cfg["ramp"], climb=cfg["climb"],
        z_amplitude=cfg["z_amplitude"], yaw_mode=cfg["yaw_mode"], yaw0=cfg["yaw0"])
    dyn = synth.RefDynamicsParams(kx=cfg["kx"], ky=cfg["ky"],
                                  accel_z_bias=cfg["accel_bias_z"])
    noise = synth.NoiseSpec(seed=cfg["seed"], gyro_std=cfg["gyro_std"],
                            accel_std=cfg["accel_std"])
    sim = synth.simulate_imu_motors(traj, dyn, noise)
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
    _echo_config(outdir, "generate.echo.cfg", cfg)
    print(f"dataset {manifest.sequence_id}: {len(sim.cam_poses)} frames at "
          f"{cfg['cam_hz']:g} Hz, IMU {cfg['imu_hz']:g} Hz -> {outdir}")
    return EXIT_OK


# --------------------------------------------------------------------------
# estimate

EST_DEFAULTS = {
    "scheme": "2f", "stride": 1, "max_pairs": 0, "alpha": 0.85,
    "lambda1": 0.15, "lambda2": 0.001, "ssim_window": 3,
    "max_iters": 100, "step_size": 0.25, "tol": 1e-9,
    "depth_mode": "gt-scaled", "depth_scale_factor": 0.37,
}


def cmd_estimate(args):
    cfg = _coerce(EST_DEFAULTS, _parse_config(args.config, EST_DEFAULTS))
    if args.scheme:
        cfg["scheme"] = args.scheme
    ds = dataio.load_sequence(args.dataset)
    K = ds.manifest.intrinsics
    stride = max(1, cfg["stride"])
    idx = list(range(0, len(ds.frames.t), stride))
    if cfg["max_pairs"] > 0:
        idx = idx[:cfg["max_pairs"] + 2]
    if len(idx) < 2:
        raise ContractViolation("not enough frames for the requested stride")
    frames = [ds.load_image(i) for i in idx]
    depths = [ds.load_depth(i) * cfg["depth_scale_factor"] for i in idx]
    times = [float(ds.frames.t[i]) for i in idx]

    lcfg = losses.LossConfig(alpha=cfg["alpha"], lambda1=cfg["lambda1"],
                             lambda2=cfg["lambda2"], scheme=cfg["scheme"],
                             ssim_window=cfg["ssim_window"])
    ocfg = poseopt.OptimizerConfig(max_iters=cfg["max_iters"],
                                   step_size=cfg["step_size"], tol=cfg["tol"],
                                   depth_mode=cfg["depth_mode"])
    estimates, traj, cam_vel = poseopt.run_sequence(frames, depths, times, K, ocfg, lcfg)

    os.makedirs(args.out, exist_ok=True)
    rows = ["t,px,py,pz"]
    for t, p in zip(traj.t, traj.pos):
        rows.append(f"{_f(t)},{_f(p[0])},{_f(p[1])},{_f(p[2])}")
    _write_text(os.path.join(args.out, "trajectory.csv"), "\n".join(rows) + "\n")

    rows = ["t,vcx,vcy,vcz"]
    for k, v in enumerate(cam_vel):
        rows.append(f"{_f(traj.t[k + 1])},{_f(v[0])},{_f(v[1])},{_f(v[2])}")
    _write_text(os.path.join(args.out, "velocities.csv"), "\n".join(rows) + "\n")

    diags = []
    for k, est in enumerate(estimates):
        # a failed pair has no loss: its components read nan, its counts 0
        d = est.diagnostics or losses.LossDiagnostics(photometric=np.nan, depth=np.nan,
                                                      smoothness=np.nan)
        diags.append(f"{k},{est.converged},{est.iterations},{_f(est.final_loss)},"
                     f"{_f(d.photometric)},{_f(d.depth)},{_f(d.smoothness)},"
                     f"{d.valid_photo},{d.valid_depth}")
    _write_text(os.path.join(args.out, "diagnostics.csv"),
                "pair,converged,iterations,final_loss,photometric,depth,smoothness,"
                "valid_photo,valid_depth\n" + "\n".join(diags) + "\n")

    _echo_config(args.out, "estimate.echo.cfg", cfg)
    print(f"estimated {len(estimates)} pairs ({cfg['scheme']}) -> {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------------
# train-model

TRAIN_DEFAULTS = {
    "steps": 1500, "batch": 6, "lr": 5e-3, "lr_final": 3e-4,
    "window_min": 0.25, "window_max": 5.0, "cutoff_hz": 5.0,
    "seed": 0, "init_scale": 1.0, "attitude": "ekf",
}


def _read_velocities(path, header):
    arr = dataio._read_floats(path, header)
    dataio._check_monotone(arr[:, 0], path)
    return arr[:, 0], arr[:, 1:4]


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


def _sequence_from_dataset(ds: dataio.DatasetBundle, vel_path, seq_id=None,
                           attitude="ekf"):
    cam_t, v_cam = _read_velocities(vel_path, "t,vcx,vcy,vcz")
    if attitude == "groundtruth":
        R_wb, _ = _groundtruth_at(ds, ds.imu.t)
        g_b = np.einsum("nij,j->ni", R_wb.transpose(0, 2, 1), synth.G_WORLD)
    elif attitude == "ekf":
        att = AttitudeFilter()
        quats, g_b = att.run(ds.imu.t, ds.imu.gyro, ds.imu.accel)
    else:
        raise ConfigError("attitude must be 'ekf' or 'groundtruth'")
    return dronemodel.TrainSequence(
        seq_id=seq_id or ds.manifest.sequence_id,
        t=ds.imu.t, gyro=ds.imu.gyro, accel=ds.imu.accel, rpm=_rpm_at_imu(ds),
        g_body=g_b, cam_t=cam_t, v_cam=v_cam, R_cb=ds.manifest.R_cb)


def cmd_train_model(args):
    cfg = _coerce(TRAIN_DEFAULTS, _parse_config(args.config, TRAIN_DEFAULTS))
    seqs = []
    for spec in args.sequence:
        if ":" not in spec:
            raise ConfigError("--sequence expects DATASET_DIR:VELOCITIES_CSV")
        root, vel = spec.rsplit(":", 1)
        seqs.append(_sequence_from_dataset(dataio.load_sequence(root), vel,
                                           attitude=cfg["attitude"]))
    tc = dronemodel.TrainConfig(
        steps=cfg["steps"], batch=cfg["batch"], lr=cfg["lr"],
        lr_final=cfg["lr_final"], window_min=cfg["window_min"],
        window_max=cfg["window_max"], cutoff_hz=cfg["cutoff_hz"],
        seed=cfg["seed"], init_scale=cfg["init_scale"])
    params, history = dronemodel.train(seqs, tc)
    os.makedirs(args.out, exist_ok=True)
    dronemodel.save_params(os.path.join(args.out, "model.json"), params)
    _write_text(os.path.join(args.out, "history.csv"),
                "step,loss\n" + "\n".join(f"{i},{_f(l)}" for i, l in enumerate(history)) + "\n")
    _echo_config(args.out, "train-model.echo.cfg", cfg)
    scales = ", ".join(f"{k}={v:.4f}" for k, v in sorted(params.scales.items()))
    print(f"trained {cfg['steps']} steps; scales: {scales} -> {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------------
# rollout

ROLLOUT_DEFAULTS = {"cutoff_hz": 5.0, "attitude": "ekf"}


def cmd_rollout(args):
    cfg = _coerce(ROLLOUT_DEFAULTS, _parse_config(args.config, ROLLOUT_DEFAULTS))
    ds = dataio.load_sequence(args.dataset)
    params = _load_model(args.model)
    seq = _sequence_from_dataset(ds, args.velocities, attitude=cfg["attitude"])
    if seq.seq_id not in params.scales:
        raise ContractViolation(
            f"model has no scale for sequence {seq.seq_id!r}")
    prep = dronemodel.prepare_sequence(seq, cfg["cutoff_hz"])
    ro = dronemodel.rollout(params, prep, np.zeros(3))
    os.makedirs(args.out, exist_ok=True)
    rows = ["t,vx,vy,vz"]
    for t, v in zip(ro.t, ro.vel):
        rows.append(f"{_f(t)},{_f(v[0])},{_f(v[1])},{_f(v[2])}")
    _write_text(os.path.join(args.out, "rollout.csv"), "\n".join(rows) + "\n")
    _echo_config(args.out, "rollout.echo.cfg", cfg)
    print(f"rolled out {len(ro.t)} samples -> {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------------
# fuse

FUSE_DEFAULTS = {
    "weights": "0.0,0.3", "rates": "120,60,40,30,20", "seeds": 10,
    "vis_noise_std": 0.1, "accel_noise_std": 0.05, "attitude": "ekf",
    "dropout_period": 0.0, "dropout_len": 0.0, "align": "se3",
}


def cmd_fuse(args):
    cfg = _coerce(FUSE_DEFAULTS, _parse_config(args.config, FUSE_DEFAULTS))
    ds = dataio.load_sequence(args.dataset)
    _, vel_b_true = _groundtruth_at(ds, ds.frames.t)
    model = _load_model(args.model) if args.model else None
    gt = ds.groundtruth
    if cfg["attitude"] == "groundtruth":
        R_wb, _ = _groundtruth_at(ds, ds.imu.t)
    elif cfg["attitude"] == "ekf":
        quats, _ = AttitudeFilter().run(ds.imu.t, ds.imu.gyro, ds.imu.accel)
        R_wb = quat_to_matrix(quat_conj(quats))     # R_bw^T, bit for bit
    else:
        raise ConfigError("attitude must be 'ekf' or 'groundtruth'")

    drops = []
    if cfg["dropout_period"] > 0 and cfg["dropout_len"] > 0:
        t0 = float(ds.frames.t[0]) + cfg["dropout_period"] * 0.5
        while t0 < float(ds.frames.t[-1]):
            drops.append((t0, t0 + cfg["dropout_len"]))
            t0 += cfg["dropout_period"]

    weights = _float_list(cfg, "weights")
    rates = _float_list(cfg, "rates")
    gt_traj = evalign.TrajectoryEstimate(t=gt["t"][::5], pos=gt["pos"][::5])
    rpm = _rpm_at_imu(ds)

    # one filter pass per rate, its rows every (weight, seed) pair
    pairs = list(itertools.product(weights, range(cfg["seeds"])))
    entries, last = [], None
    for rate in (rates if pairs else []):       # seeds=0: nothing to run
        fc = fusion.FusionConfig(model_weight=np.array([w for w, _ in pairs]),
                                 update_rate=rate,
                                 vis_noise_std=cfg["vis_noise_std"],
                                 accel_noise_std=cfg["accel_noise_std"])
        vis_t, vis_v = fusion.make_visual_measurements(
            ds.frames.t, vel_b_true, fc, seed=[s for _, s in pairs],
            dropout_windows=drops)
        res = fusion.run_filter(ds.imu.t, ds.imu.accel, ds.imu.gyro, rpm,
                                R_wb, vis_t, vis_v, model, fc,
                                p0=gt["pos"][0], v0=gt["vel_w"][0])
        for (w, seed), pos in zip(pairs, res.pos):
            est = evalign.TrajectoryEstimate(t=res.t[::5], pos=pos[::5])
            entries.append((rate, w, seed,
                            evalign.position_rmse(est, gt_traj, mode=cfg["align"])))
        last = res

    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "sweep.csv"), fusion.sweep_csv_rows(entries))
    if last is not None:            # the last rate x weight x seed run
        rows = ["t,px,py,pz,vbx,vby,vbz"]
        for i in range(0, len(last.t), 5):
            p, v = last.pos[-1, i], last.vel_body[-1, i]
            rows.append(f"{_f(last.t[i])},{_f(p[0])},{_f(p[1])},{_f(p[2])},"
                        f"{_f(v[0])},{_f(v[1])},{_f(v[2])}")
        _write_text(os.path.join(args.out, "trajectory.csv"), "\n".join(rows) + "\n")
    _echo_config(args.out, "fuse.echo.cfg", cfg)
    print(f"fusion sweep: {len(entries)} runs -> {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------------
# eval

EVAL_DEFAULTS = {"mode": "sim3", "bin_width": 1.0, "speed_floor": 0.5}


def _read_trajectory_csv(path):
    arr = dataio._read_floats(path, ("t", "px", "py", "pz"))
    dataio._check_monotone(arr[:, 0], path)
    return evalign.TrajectoryEstimate(t=arr[:, 0], pos=arr[:, 1:4])


def cmd_eval(args):
    cfg = _coerce(EVAL_DEFAULTS, _parse_config(args.config, EVAL_DEFAULTS))
    if args.mode:
        cfg["mode"] = args.mode
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
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "rmse.csv"),
                evalign.rmse_csv_rows([(os.path.basename(args.est), cfg["mode"], rmse)]))
    if args.vel_est:
        if not os.path.isdir(args.gt):
            raise ConfigError("--vel-est needs a dataset directory as --gt")
        vt, vb = _read_velocities(args.vel_est, "t,vx,vy,vz")
        _, vb_gt = _groundtruth_at(ds, vt)
        bins = evalign.relative_velocity_error(vb, vb_gt,
                                               bin_width=cfg["bin_width"],
                                               speed_floor=cfg["speed_floor"])
        _write_text(os.path.join(args.out, "velocity_bins.csv"),
                    evalign.velocity_bins_csv(bins))
    _echo_config(args.out, "eval.echo.cfg", cfg)
    print(f"absolute position RMSE ({cfg['mode']}): {rmse:.6f} m -> {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="selfvio",
        description="Synthetic ego-motion pipeline: generate datasets, "
                    "estimate poses, train the drone model, fuse, evaluate.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="render a synthetic dataset")
    g.add_argument("--config", help="key=value config file")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_generate)

    e = sub.add_parser("estimate", help="per-pair pose estimation over a dataset")
    e.add_argument("--dataset", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--scheme", choices=losses.SCHEMES)
    e.add_argument("--config")
    e.set_defaults(fn=cmd_estimate)

    t = sub.add_parser("train-model", help="train the drone dynamics model")
    t.add_argument("--sequence", action="append", required=True,
                   metavar="DATASET_DIR:VELOCITIES_CSV")
    t.add_argument("--out", required=True)
    t.add_argument("--config")
    t.set_defaults(fn=cmd_train_model)

    r = sub.add_parser("rollout", help="open-loop velocity rollout")
    r.add_argument("--dataset", required=True)
    r.add_argument("--model", required=True)
    r.add_argument("--velocities", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--config")
    r.set_defaults(fn=cmd_rollout)

    f = sub.add_parser(
        "fuse", help="fusion filter sweep",
        description="Run the fusion filter for every update rate x model weight "
                    "x seed combination, one filter pass per rate. sweep.csv "
                    "holds one RMSE row per combination; trajectory.csv holds "
                    "the trajectory of the last combination: the last rate, "
                    "the last weight and the last seed.")
    f.add_argument("--dataset", required=True)
    f.add_argument("--model")
    f.add_argument("--out", required=True)
    f.add_argument("--config")
    f.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    f.set_defaults(fn=cmd_fuse)

    v = sub.add_parser("eval", help="trajectory metrics")
    v.add_argument("--est", required=True)
    v.add_argument("--gt", required=True, help="trajectory CSV or dataset dir")
    v.add_argument("--mode", choices=evalign.ALIGN_MODES)
    v.add_argument("--vel-est", help="body-velocity CSV (t,vx,vy,vz) for "
                                     "per-speed-bin relative error")
    v.add_argument("--out", required=True)
    v.add_argument("--config")
    v.set_defaults(fn=cmd_eval)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (evalign.DegeneratePointSet, dronemodel.ShortSequence) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ContractViolation) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except dataio.DatasetError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (dronemodel.DivergenceError, fusion.FilterDivergence,
            poseopt.OptimizationDiverged, synth.SimulationInfeasible) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
