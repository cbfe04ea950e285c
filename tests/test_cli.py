"""CLI verbs: determinism, exit codes, file handoff."""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import selfvio
from selfvio import dataio
from selfvio.cli import EST_DEFAULTS, EVAL_DEFAULTS, main
from selfvio.dataio import FormatError, load_sequence
from selfvio.dronemodel import MODEL_FORMAT, init_params, save_params


def _hash_dir(root):
    out = {}
    for name in sorted(os.listdir(root)):
        if name.endswith(".echo.cfg"):
            continue
        out[name] = hashlib.sha256(open(os.path.join(root, name), "rb").read()).hexdigest()
    return out


def _write(path, text):
    with open(path, "w") as f:
        f.write(text)
    return path


GEN_SMALL = """
kind=straight
peak_speed=2.0
duration=2.0
cam_hz=20
imu_hz=200
width=48
height=36
fx=44
fy=44
seed=11
sequence_id=t0
"""


def test_generate_deterministic(tmp_path):
    cfg = _write(os.path.join(tmp_path, "g.cfg"), GEN_SMALL)
    a, b = os.path.join(tmp_path, "a"), os.path.join(tmp_path, "b")
    assert main(["generate", "--config", cfg, "--out", a]) == 0
    assert main(["generate", "--config", cfg, "--out", b]) == 0
    assert _hash_dir(a) == _hash_dir(b)


def test_generate_unknown_key_rejected(tmp_path):
    cfg = _write(os.path.join(tmp_path, "g.cfg"), "bogus_key=1\n")
    assert main(["generate", "--config", cfg, "--out", os.path.join(tmp_path, "x")]) == 2


def test_generate_infeasible_numeric_exit(tmp_path):
    cfg = _write(os.path.join(tmp_path, "g.cfg"), GEN_SMALL + """
kind=racing3d
z_amplitude=2.5
period=3.0
peak_speed=6.0
ramp=1.0
duration=4.0
""")
    assert main(["generate", "--config", cfg, "--out", os.path.join(tmp_path, "x")]) == 4


def test_estimate_eval_roundtrip(tmp_path):
    cfg = _write(os.path.join(tmp_path, "g.cfg"), GEN_SMALL)
    ds = os.path.join(tmp_path, "ds")
    assert main(["generate", "--config", cfg, "--out", ds]) == 0
    ecfg = _write(os.path.join(tmp_path, "e.cfg"), "max_pairs=6\nstride=1\nmax_iters=40\n")
    est1 = os.path.join(tmp_path, "est1")
    est2 = os.path.join(tmp_path, "est2")
    assert main(["estimate", "--dataset", ds, "--out", est1, "--scheme", "2f",
                 "--config", ecfg]) == 0
    assert main(["estimate", "--dataset", ds, "--out", est2, "--scheme", "2f",
                 "--config", ecfg]) == 0
    assert _hash_dir(est1) == _hash_dir(est2)
    ev = os.path.join(tmp_path, "ev")
    assert main(["eval", "--est", os.path.join(est1, "trajectory.csv"),
                 "--gt", ds, "--mode", "none", "--out", ev]) == 0
    rows = open(os.path.join(ev, "rmse.csv")).read().splitlines()
    assert rows[0] == "trajectory,mode,rmse_m"
    assert len(rows) == 2


def test_estimate_diagnostics_sum_to_final_loss(tmp_path):
    """diagnostics.csv carries each pair's loss components at the returned
    twist, and they add up to its final loss."""
    cfg = _write(os.path.join(tmp_path, "g.cfg"), GEN_SMALL)
    ds, est = os.path.join(tmp_path, "ds"), os.path.join(tmp_path, "est")
    assert main(["generate", "--config", cfg, "--out", ds]) == 0
    ecfg = _write(os.path.join(tmp_path, "e.cfg"), "max_pairs=3\nmax_iters=10\n")
    assert main(["estimate", "--dataset", ds, "--out", est, "--scheme", "3f",
                 "--config", ecfg]) == 0
    lines = open(os.path.join(est, "diagnostics.csv")).read().splitlines()
    assert lines[0] == ("pair,converged,iterations,final_loss,photometric,depth,"
                        "smoothness,valid_photo,valid_depth,backtracks,warm_start,retried")
    assert len(lines) == 4
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        final, photo, depth, smooth = (float(x) for x in cells[3:7])
        assert abs(photo + 0.15 * depth + 0.001 * smooth - final) <= 1e-12
        assert 0 < int(cells[8]) <= int(cells[7]) <= 48 * 36
        assert 0 <= int(cells[9]) <= 25 * int(cells[2])
        # the first pair has no previous twist to start from
        assert cells[10] in ("0", "1") and (k > 0 or cells[10] == "0")
        # no pair of this clean dataset needs a restart from zero
        assert cells[11] == "0"


def test_eval_identical_est_gt_zero(tmp_path):
    t = np.arange(10) * 0.1
    pos = np.random.default_rng(0).normal(size=(10, 3))
    rows = ["t,px,py,pz"] + [repr(float(t[i])) + "," + ",".join(repr(float(x)) for x in pos[i])
                             for i in range(10)]
    p = _write(os.path.join(tmp_path, "traj.csv"), "\n".join(rows) + "\n")
    out = os.path.join(tmp_path, "ev")
    assert main(["eval", "--est", p, "--gt", p, "--mode", "sim3", "--out", out]) == 0
    rmse = float(open(os.path.join(out, "rmse.csv")).read().splitlines()[1].split(",")[2])
    assert rmse < 1e-12


def test_estimate_missing_dataset_data_error(tmp_path):
    assert main(["estimate", "--dataset", os.path.join(tmp_path, "nope"),
                 "--out", os.path.join(tmp_path, "o")]) == 3


def test_fuse_sweep_row_count(tmp_path):
    cfg = _write(os.path.join(tmp_path, "g.cfg"), GEN_SMALL + "kind=ellipse\nperiod=6\nduration=3\n")
    ds = os.path.join(tmp_path, "ds")
    assert main(["generate", "--config", cfg, "--out", ds]) == 0
    fcfg = _write(os.path.join(tmp_path, "f.cfg"),
                  "weights=0.0\nrates=20,10\nseeds=2\nattitude=groundtruth\nalign=se3\n")
    out = os.path.join(tmp_path, "fuse")
    assert main(["fuse", "--dataset", ds, "--out", out, "--config", fcfg]) == 0
    rows = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert rows[0] == "rate_hz,model_weight,seed,rmse_m"
    assert len(rows) == 1 + 2 * 1 * 2     # rates x weights x seeds


def test_full_small_pipeline(tmp_path):
    """generate -> estimate -> train-model -> rollout -> fuse -> eval,
    everything chained through files."""
    gen = GEN_SMALL + "kind=ellipse\nperiod=7\nduration=7.0\npeak_speed=5.0\ncam_hz=30\nimu_hz=500\nramp=0.3\n"
    cfg = _write(os.path.join(tmp_path, "g.cfg"), gen)
    ds = os.path.join(tmp_path, "ds")
    assert main(["generate", "--config", cfg, "--out", ds]) == 0

    est = os.path.join(tmp_path, "est")
    ecfg = _write(os.path.join(tmp_path, "e.cfg"), "max_iters=60\n")
    assert main(["estimate", "--dataset", ds, "--out", est, "--scheme", "2f",
                 "--config", ecfg]) == 0

    tm = os.path.join(tmp_path, "model")
    tcfg = _write(os.path.join(tmp_path, "t.cfg"),
                  "steps=60\nbatch=3\nwindow_max=2.0\ncutoff_hz=8\n")
    vel = os.path.join(est, "velocities.csv")
    assert main(["train-model", "--sequence", f"{ds}:{vel}",
                 "--out", tm, "--config", tcfg]) == 0
    model = os.path.join(tm, "model.json")
    assert os.path.exists(model)

    ro = os.path.join(tmp_path, "ro")
    assert main(["rollout", "--dataset", ds, "--model", model,
                 "--velocities", vel, "--out", ro]) == 0
    assert os.path.exists(os.path.join(ro, "rollout.csv"))

    fu = os.path.join(tmp_path, "fuse")
    fcfg = _write(os.path.join(tmp_path, "f.cfg"),
                  "weights=0.0,0.3\nrates=30\nseeds=1\nattitude=groundtruth\n")
    assert main(["fuse", "--dataset", ds, "--model", model, "--out", fu,
                 "--config", fcfg]) == 0
    rows = open(os.path.join(fu, "sweep.csv")).read().splitlines()
    assert len(rows) == 3

    ev = os.path.join(tmp_path, "ev")
    assert main(["eval", "--est", os.path.join(fu, "trajectory.csv"),
                 "--gt", ds, "--mode", "se3", "--out", ev]) == 0


def test_rollout_model_scale_mismatch_rejected(tmp_path):
    from selfvio.dronemodel import init_params, save_params
    cfg = _write(os.path.join(tmp_path, "g.cfg"), GEN_SMALL)
    ds = os.path.join(tmp_path, "ds")
    assert main(["generate", "--config", cfg, "--out", ds]) == 0
    vel = _write(os.path.join(tmp_path, "v.csv"),
                 "t,vcx,vcy,vcz\n0.0,0.0,0.0,0.0\n0.05,0.0,0.0,0.0\n"
                 + "".join(f"{0.1 + 0.05 * i},0.0,0.0,0.0\n" for i in range(40)))
    model = os.path.join(tmp_path, "m.json")
    save_params(model, init_params(np.random.default_rng(0), scales={"other": 1.0}))
    assert main(["rollout", "--dataset", ds, "--model", model,
                 "--velocities", vel, "--out", os.path.join(tmp_path, "r")]) == 2


def test_eval_velocity_bins(tmp_path):
    cfg = _write(os.path.join(tmp_path, "g.cfg"),
                 GEN_SMALL + "kind=ellipse\nperiod=6\nduration=3\npeak_speed=3\n")
    ds = os.path.join(tmp_path, "ds")
    assert main(["generate", "--config", cfg, "--out", ds]) == 0
    # body-velocity estimate = ground truth body velocity, written as CSV
    from selfvio.dataio import load_sequence
    from selfvio.geometry import quat_to_matrix
    d = load_sequence(ds)
    gt = d.groundtruth
    R = np.stack([quat_to_matrix(q) for q in gt["quat_wb"]])
    vb = np.einsum("nij,nj->ni", R.transpose(0, 2, 1), gt["vel_w"])
    rows = ["t,vx,vy,vz"]
    for i in range(0, len(gt["t"]), 10):
        rows.append(f'{float(gt["t"][i])!r},' + ",".join(repr(float(x)) for x in vb[i]))
    vel = _write(os.path.join(tmp_path, "v.csv"), "\n".join(rows) + "\n")
    traj = _write(os.path.join(tmp_path, "traj.csv"),
                  "t,px,py,pz\n"
                  + "".join(f'{float(gt["t"][i])!r},' + ",".join(repr(float(x)) for x in gt["pos"][i]) + "\n"
                            for i in range(0, len(gt["t"]), 10)))
    out = os.path.join(tmp_path, "ev")
    assert main(["eval", "--est", traj, "--gt", ds, "--mode", "se3",
                 "--vel-est", vel, "--out", out]) == 0
    lines = open(os.path.join(out, "velocity_bins.csv")).read().splitlines()
    assert lines[0] == "bin_low,bin_high,mean,std,count"
    assert len(lines) > 1
    # exact velocities: every populated bin reads zero error
    for ln in lines[1:]:
        assert float(ln.split(",")[2]) < 1e-9


def test_fuse_jobs_flag_deterministic(tmp_path):
    cfg = _write(os.path.join(tmp_path, "g.cfg"),
                 GEN_SMALL + "kind=ellipse\nperiod=6\nduration=3\n")
    ds = os.path.join(tmp_path, "ds")
    assert main(["generate", "--config", cfg, "--out", ds]) == 0
    fcfg = _write(os.path.join(tmp_path, "f.cfg"),
                  "weights=0.0\nrates=20,10\nseeds=2\nattitude=groundtruth\n")
    o1, o2 = os.path.join(tmp_path, "s1"), os.path.join(tmp_path, "s2")
    assert main(["fuse", "--dataset", ds, "--out", o1, "--config", fcfg]) == 0
    assert main(["fuse", "--dataset", ds, "--out", o2, "--config", fcfg,
                 "--jobs", "2"]) == 0
    assert open(os.path.join(o1, "sweep.csv")).read() == \
        open(os.path.join(o2, "sweep.csv")).read()


def test_fuse_trajectory_is_the_last_combination(tmp_path):
    """trajectory.csv holds the last rate x weight x seed run of the sweep:
    the same bytes as a sweep of that one combination alone."""
    cfg = _write(os.path.join(tmp_path, "g.cfg"),
                 GEN_SMALL + "kind=ellipse\nperiod=6\nduration=3\n")
    ds = os.path.join(tmp_path, "ds")
    assert main(["generate", "--config", cfg, "--out", ds]) == 0
    model = os.path.join(tmp_path, "m.json")
    save_params(model, init_params(np.random.default_rng(0)))
    runs = {"sweep": "weights=0.0,0.3\nrates=20,10\nseeds=1\n",
            "alone": "weights=0.3\nrates=10\nseeds=1\n"}
    for name, text in runs.items():
        fcfg = _write(os.path.join(tmp_path, f"{name}.cfg"),
                      text + "dropout_period=1.0\ndropout_len=0.3\n")
        assert main(["fuse", "--dataset", ds, "--model", model, "--out",
                     os.path.join(tmp_path, name), "--config", fcfg]) == 0
    sweep = open(os.path.join(tmp_path, "sweep", "sweep.csv")).read().splitlines()
    alone = open(os.path.join(tmp_path, "alone", "sweep.csv")).read().splitlines()
    assert len(sweep) == 5 and sweep[-1] == alone[-1]
    assert open(os.path.join(tmp_path, "sweep", "trajectory.csv")).read() == \
        open(os.path.join(tmp_path, "alone", "trajectory.csv")).read()


@pytest.mark.parametrize("extra", ["weights=0.0\n",
                                   "weights=0.0,0.3\ndropout_period=1.0\ndropout_len=0.3\n"])
def test_fuse_sweep_rows_are_the_rates_alone(tmp_path, extra):
    """A two-rate sweep runs in one filter pass; its sweep.csv lines are
    byte for byte those of each rate swept alone, without and with a
    model and dropouts."""
    cfg = _write(os.path.join(tmp_path, "g.cfg"),
                 GEN_SMALL + "kind=ellipse\nperiod=6\nduration=3\n")
    ds = os.path.join(tmp_path, "ds")
    assert main(["generate", "--config", cfg, "--out", ds]) == 0
    model = os.path.join(tmp_path, "m.json")
    save_params(model, init_params(np.random.default_rng(0)))
    lines = {}
    for rates in ("20,10", "20", "10"):
        fcfg = _write(os.path.join(tmp_path, f"{rates}.cfg"),
                      f"rates={rates}\nseeds=2\n" + extra)
        out = os.path.join(tmp_path, rates)
        assert main(["fuse", "--dataset", ds, "--model", model, "--out", out,
                     "--config", fcfg]) == 0
        lines[rates] = open(os.path.join(out, "sweep.csv"), "rb").read().splitlines()
    assert lines["20,10"] == lines["20"] + lines["10"][1:]


def _thinned_dataset(tmp_path, motors_stride=1, gt_stride=1):
    """A 2 s ellipse dataset at 100 Hz IMU whose motors.csv and
    groundtruth.csv keep every n-th IMU-rate sample, plus a model file."""
    from conftest import small_intrinsics
    from selfvio.dataio import DatasetWriter
    from selfvio.dronemodel import init_params, save_params
    from selfvio.synth import (R_CB, MotorStream, RefDynamicsParams, SceneSpec,
                               TrajectorySpec, render, simulate_imu_motors)
    K = small_intrinsics(24, 16, f=20.0)
    traj = TrajectorySpec(kind="ellipse", peak_speed=2.0, duration=2.0, period=6.0,
                          cam_hz=10.0, imu_hz=100.0)
    sim = simulate_imu_motors(traj, RefDynamicsParams())
    ds = os.path.join(tmp_path, "ds")
    w = DatasetWriter(ds, "half", K, R_CB, np.zeros(3), 10.0, 100.0, depth_scale=25.0)
    for i, pose in enumerate(sim.cam_poses):
        w.add_frame(sim.cam_t[i], render(SceneSpec(), pose, K).image)
    w.write_imu(sim.imu)
    w.write_motors(MotorStream(t=sim.motors.t[::motors_stride],
                               rpm=sim.motors.rpm[::motors_stride]))
    k = slice(None, None, gt_stride)
    w.write_groundtruth(sim.t_gt[k], sim.pos_w[k], sim.quat_wb[k], sim.vel_w[k])
    w.finalize()
    model = os.path.join(tmp_path, "m.json")
    save_params(model, init_params(np.random.default_rng(0), scales={"half": 1.0}))
    return ds, model


def test_fuse_resamples_half_rate_motors(tmp_path):
    """motors.csv at half the IMU rate: the model term reads RPM at IMU
    timestamps instead of indexing past the motor stream."""
    ds, model = _thinned_dataset(tmp_path, motors_stride=2)
    fcfg = _write(os.path.join(tmp_path, "f.cfg"),
                  "weights=0.3\nrates=10\nseeds=1\nattitude=groundtruth\n")
    out = os.path.join(tmp_path, "fuse")
    assert main(["fuse", "--dataset", ds, "--model", model, "--out", out,
                 "--config", fcfg]) == 0
    assert len(open(os.path.join(out, "sweep.csv")).read().splitlines()) == 2


@pytest.mark.parametrize("attitude", ["ekf", "groundtruth"])
def test_fuse_resamples_half_rate_groundtruth(tmp_path, attitude):
    """groundtruth.csv at half the IMU rate: attitude is sampled at IMU
    times and the visual body velocity at frame times, not by IMU index."""
    ds, model = _thinned_dataset(tmp_path, gt_stride=2)
    fcfg = _write(os.path.join(tmp_path, "f.cfg"),
                  f"weights=0.0,0.3\nrates=10\nseeds=1\nattitude={attitude}\n")
    out = os.path.join(tmp_path, "fuse")
    assert main(["fuse", "--dataset", ds, "--model", model, "--out", out,
                 "--config", fcfg]) == 0
    rmse = np.loadtxt(os.path.join(out, "sweep.csv"), delimiter=",", skiprows=1)[:, 3]
    assert len(rmse) == 2 and np.all(np.isfinite(rmse))


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("malformed")
    cfg = _write(os.path.join(root, "g.cfg"), GEN_SMALL)
    ds = os.path.join(root, "ds")
    assert main(["generate", "--config", cfg, "--out", ds]) == 0
    good = _write(os.path.join(root, "traj.csv"), "t,px,py,pz\n" + "".join(
        f"{0.1 * i!r},{0.2 * i!r},{float(np.sin(i))!r},{float(np.cos(0.7 * i))!r}\n"
        for i in range(20)))
    assert main(["eval", "--est", good, "--gt", ds, "--mode", "none",
                 "--out", os.path.join(root, "ev")]) == 0
    return ds, good


MALFORMED_BODIES = {
    "empty": "",
    "header only": "{h}\n",
    "non-numeric cell": "{h}\n" + "".join(f"{0.1 * i!r},1.0,2.0,3.0\n" for i in range(5))
                        + "0.5,1.0,abc,3.0\n",
    "short row": "{h}\n" + "".join(f"{0.1 * i!r},1.0,2.0,3.0\n" for i in range(5))
                 + "0.5,1.0,2.0\n",
    "nan cell": "{h}\n" + "".join(f"{0.1 * i!r},1.0,2.0,3.0\n" for i in range(5))
                + "0.5,1.0,nan,3.0\n",
    "repeated timestamp": "{h}\n" + "".join(f"{0.1 * i!r},1.0,2.0,3.0\n" for i in range(5))
                          + "0.4,1.0,2.0,3.0\n",
}


@pytest.mark.parametrize("verb", ["eval --est", "eval --vel-est", "train-model --sequence"])
@pytest.mark.parametrize("case", sorted(MALFORMED_BODIES))
def test_malformed_csv_is_data_error(tmp_path, small_dataset, verb, case):
    ds, good = small_dataset
    header = {"eval --est": "t,px,py,pz", "eval --vel-est": "t,vx,vy,vz",
              "train-model --sequence": "t,vcx,vcy,vcz"}[verb]
    bad = _write(os.path.join(tmp_path, "bad.csv"), MALFORMED_BODIES[case].format(h=header))
    out = os.path.join(tmp_path, "out")
    argv = {
        "eval --est": ["eval", "--est", bad, "--gt", ds, "--mode", "none", "--out", out],
        "eval --vel-est": ["eval", "--est", good, "--gt", ds, "--mode", "none",
                           "--vel-est", bad, "--out", out],
        "train-model --sequence": ["train-model", "--sequence", f"{ds}:{bad}",
                                   "--out", out],
    }[verb]
    assert main(argv) == 3


def _malform_lines(lines, case):
    """The MALFORMED_BODIES cases applied to a real CSV's lines: the bad
    cell goes in the t column, which every loader parses."""
    last = lines[-1].split(",")
    return {
        "empty": [],
        "header only": lines[:1],
        "non-numeric cell": lines[:-1] + [",".join(["abc"] + last[1:])],
        "short row": lines[:-1] + [",".join(last[:-1])],
        "nan cell": lines[:-1] + [",".join(["nan"] + last[1:])],
        "repeated timestamp": lines[:-1] + [",".join(lines[-2].split(",")[:1] + last[1:])],
    }[case]


@pytest.mark.parametrize("name", ["frames.csv", "imu.csv", "motors.csv", "groundtruth.csv"])
@pytest.mark.parametrize("case", sorted(MALFORMED_BODIES))
def test_malformed_dataset_csv_is_data_error(tmp_path, small_dataset, name, case):
    ds = os.path.join(tmp_path, "ds")
    shutil.copytree(small_dataset[0], ds)
    path = os.path.join(ds, name)
    lines = open(path).read().splitlines()
    body = "".join(ln + "\n" for ln in _malform_lines(lines, case)).encode("ascii")
    with open(path, "wb") as f:
        f.write(body)
    # keep the checksum valid so the loader reaches the parser
    man_path = os.path.join(ds, "manifest.json")
    doc = json.loads(open(man_path).read())
    doc["files"][name] = hashlib.sha256(body).hexdigest()
    _write(man_path, json.dumps(doc, indent=1, sort_keys=True) + "\n")
    with pytest.raises(FormatError):
        load_sequence(ds)
    assert main(["estimate", "--dataset", ds, "--out", os.path.join(tmp_path, "est")]) == 3


@pytest.mark.parametrize("mode", ["sim3", "se3"])
def test_eval_collinear_groundtruth_is_data_error(tmp_path, small_dataset, mode):
    """GEN_SMALL flies a straight line: its ground truth cannot fix a
    rotation, which is a property of the data, not of the call."""
    ds, good = small_dataset
    assert main(["eval", "--est", good, "--gt", ds, "--mode", mode,
                 "--out", os.path.join(tmp_path, "ev")]) == 3


def _teacher_csv(tmp_path, rows):
    """A valid velocities.csv of `rows` samples at the GEN_SMALL frame rate."""
    return _write(os.path.join(tmp_path, f"v{rows}.csv"), "t,vcx,vcy,vcz\n" + "".join(
        f"{0.05 * (i + 1)!r},{0.1 * i!r},0.0,0.0\n" for i in range(rows)))


def _short_data_argv(tmp_path, ds, verb, vel, config=None):
    out = os.path.join(tmp_path, "out")
    if verb == "train-model":
        argv = ["train-model", "--sequence", f"{ds}:{vel}", "--out", out]
    else:
        model = os.path.join(tmp_path, "m.json")
        save_params(model, init_params(np.random.default_rng(0), scales={"t0": 1.0}))
        argv = ["rollout", "--dataset", ds, "--model", model, "--velocities", vel,
                "--out", out]
    return argv + (["--config", config] if config else [])


@pytest.mark.parametrize("verb", ["train-model", "rollout"])
def test_teacher_too_short_to_filter_is_data_error(tmp_path, small_dataset, verb):
    """10 teacher rows: fewer than the zero-phase filter's 12-row padding."""
    vel = _teacher_csv(tmp_path, 10)
    assert main(_short_data_argv(tmp_path, small_dataset[0], verb, vel)) == 3


@pytest.mark.parametrize("verb", ["train-model", "rollout"])
@pytest.mark.parametrize("cutoff", ["0", "-2.5"])
def test_nonpositive_cutoff_is_config_error(tmp_path, small_dataset, verb, cutoff):
    vel = _teacher_csv(tmp_path, 30)
    cfg = _write(os.path.join(tmp_path, "c.cfg"), f"cutoff_hz={cutoff}\n")
    assert main(_short_data_argv(tmp_path, small_dataset[0], verb, vel, cfg)) == 2


def test_train_on_sequence_shorter_than_5s_is_data_error(tmp_path, small_dataset):
    """GEN_SMALL lasts 2 s: too few seconds to train on is the data's fault."""
    vel = _teacher_csv(tmp_path, 30)
    assert main(_short_data_argv(tmp_path, small_dataset[0], "train-model", vel)) == 3


MALFORMED_MODELS = {   # case: the bad file's text from a good model's document
    "missing": None,
    "not json": lambda doc: "{\"format\": ",
    "not an object": lambda doc: "[1, 2]",
    "no layer sizes": lambda doc: json.dumps({"format": MODEL_FORMAT, "version": 1}),
    "short weight row": lambda doc: json.dumps(
        dict(doc, weights=[[row[:3] for row in doc["weights"][0]]] + doc["weights"][1:])),
}


@pytest.mark.parametrize("verb", ["rollout", "fuse"])
@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_model_file_is_data_error(tmp_path, small_dataset, verb, case):
    ds, _ = small_dataset
    model = os.path.join(tmp_path, "m.json")
    if MALFORMED_MODELS[case] is not None:
        save_params(model, init_params(np.random.default_rng(0), scales={"t0": 1.0}))
        _write(model, MALFORMED_MODELS[case](json.load(open(model))))
    out = os.path.join(tmp_path, "out")
    argv = {
        "rollout": ["rollout", "--dataset", ds, "--model", model,
                    "--velocities", _teacher_csv(tmp_path, 30), "--out", out],
        "fuse": ["fuse", "--dataset", ds, "--model", model, "--out", out, "--config",
                 _write(os.path.join(tmp_path, "f.cfg"),
                        "weights=0.3\nrates=10\nseeds=1\nalign=none\n")],
    }[verb]
    assert main(argv) == 3


MALFORMED_CONFIGS = {   # case: (verb, config body); non-number, non-finite, out of range
    "train-model steps=abc": ("train-model", "steps=abc\n"),
    "train-model lr=fast": ("train-model", "lr=fast\n"),
    "fuse weights=0.0,x": ("fuse", "weights=0.0,x\n"),
    "fuse rates=30,,20": ("fuse", "rates=30,,20\n"),
    "generate duration=nan": ("generate", "duration=nan\n"),
    "generate duration=inf": ("generate", "duration=inf\n"),
    "generate cam_hz=nan": ("generate", "cam_hz=nan\n"),
    "generate imu_hz=inf": ("generate", "imu_hz=inf\n"),
    "generate duration=0": ("generate", "duration=0\n"),
    "generate duration=-1": ("generate", "duration=-1\n"),
    "generate duration=1e-3": ("generate", "duration=1e-3\n"),
    "generate cam_hz=-30": ("generate", "cam_hz=-30\n"),
    "generate cam_hz=0": ("generate", "cam_hz=0\n"),
    "generate period=0": ("generate", "period=0\n"),
    "generate texture_seed=-1": ("generate", "texture_seed=-1\n"),
    "generate seed=-1": ("generate", "seed=-1\ngyro_std=0.01\n"),
    "generate gyro_std=-0.5": ("generate", "gyro_std=-0.5\n"),
    "generate accel_std=-0.5": ("generate", "accel_std=-0.5\n"),
    "generate ramp=0": ("generate", "ramp=0\n"),
    "generate ramp=-1": ("generate", "ramp=-1\n"),
    "estimate depth_scale_factor=nan": ("estimate", "depth_scale_factor=nan\n"),
    "estimate depth_scale_factor=inf": ("estimate", "depth_scale_factor=inf\n"),
    "estimate lambda1=nan": ("estimate", "lambda1=nan\n"),
    "estimate step_size=nan": ("estimate", "step_size=nan\n"),
    "estimate step_size=1e-3": ("estimate", "step_size=1e-3\n"),
    "estimate depth_scale_factor=0": ("estimate", "depth_scale_factor=0\n"),
    "estimate depth_scale_factor=-1": ("estimate", "depth_scale_factor=-1\n"),
    "estimate stride=0": ("estimate", "stride=0\n"),
    "estimate stride=-2": ("estimate", "stride=-2\n"),
    "estimate max_pairs=-1": ("estimate", "max_pairs=-1\n"),
    # GEN_SMALL's 41 frames at stride 40 are a pair, too few for a triplet
    "estimate scheme=3f stride=40": ("estimate", "scheme=3f\nstride=40\n"),
    "estimate scheme=benchmark stride=40": ("estimate", "scheme=benchmark\nstride=40\n"),
    "train-model window_max=inf": ("train-model", "window_max=inf\n"),
    "train-model lr=nan": ("train-model", "lr=nan\n"),
    "train-model lr_final=-1": ("train-model", "lr_final=-1\n"),
    "train-model lr_final=0": ("train-model", "lr_final=0\n"),
    "train-model seed=-1": ("train-model", "seed=-1\n"),
    "train-model init_scale=0": ("train-model", "init_scale=0\n"),
    "train-model init_scale=-1": ("train-model", "init_scale=-1\n"),
    # weights=0.0: with no model, the default 0.3 weight is a config error too
    "fuse rates=nan": ("fuse", "weights=0.0\nrates=nan\n"),
    "fuse vis_noise_std=-1": ("fuse", "weights=0.0\nvis_noise_std=-1\n"),
    "fuse accel_noise_std=-1": ("fuse", "weights=0.0\naccel_noise_std=-1\n"),
    "fuse seeds=-1": ("fuse", "weights=0.0\nseeds=-1\n"),
    # a period shorter than a frame interval would lay out ~1e9 windows
    "fuse dropout_period=1e-9": ("fuse", "weights=0.0\ndropout_period=1e-9\ndropout_len=0.1\n"),
    "fuse dropout_len=dropout_period": ("fuse",
                                        "weights=0.0\ndropout_period=0.5\ndropout_len=0.5\n"),
    # a negative period or length is an error, not "no dropouts"
    "fuse dropout_period=-1": ("fuse", "weights=0.0\ndropout_period=-1\ndropout_len=0.5\n"),
    "fuse dropout_len=-0.5": ("fuse", "weights=0.0\ndropout_period=2\ndropout_len=-0.5\n"),
    "fuse rates=0": ("fuse", "weights=0.0\nrates=0\n"),
    "fuse rates=-30": ("fuse", "weights=0.0\nrates=30,-30\n"),
    "fuse weights=1.5": ("fuse", "weights=1.5\n"),
    "fuse weights=-0.1": ("fuse", "weights=0.0,-0.1\n"),
    # the table's fuse runs pass no --model
    "fuse weights=0.3 without a model": ("fuse", "weights=0.0,0.3\n"),
    "eval bin_width=0": ("eval", "bin_width=0\n"),
    "eval bin_width=-1": ("eval", "bin_width=-1\n"),
    "eval speed_floor=0": ("eval", "speed_floor=0\n"),
    "eval speed_floor=-1": ("eval", "speed_floor=-1\n"),
    # the attitude value is checked with the rest of the config, before any load
    **{f"{verb} attitude=bogus": (verb, "weights=0.0\nattitude=bogus\n" if verb == "fuse"
                                  else "attitude=bogus\n")
       for verb in ("train-model", "rollout", "fuse")},
    # every verb rejects a key it does not know, before it reads any input
    **{f"{verb} bogus_key=1": (verb, "bogus_key=1\n") for verb in
       ("generate", "estimate", "train-model", "rollout", "fuse", "eval")},
}


# rows whose check needs the dataset: the camera frame interval
READS_DATA = {"fuse dropout_period=1e-9"}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_malformed_config_value_is_config_error(tmp_path, small_dataset, case, monkeypatch):
    """Exit 2 and no output; `fuse` and `train-model` reject a config before
    they load any dataset."""
    ds, traj = small_dataset
    loads = []
    monkeypatch.setattr(dataio, "load_sequence",
                        lambda *a, **k: loads.append(a) or load_sequence(*a, **k))
    verb, body = MALFORMED_CONFIGS[case]
    cfg = _write(os.path.join(tmp_path, "c.cfg"), body)
    out = os.path.join(tmp_path, "out")
    argv = {
        "generate": ["generate"],
        "estimate": ["estimate", "--dataset", ds],
        "train-model": ["train-model", "--sequence", f"{ds}:{_teacher_csv(tmp_path, 30)}"],
        "rollout": ["rollout", "--dataset", ds, "--model", os.path.join(tmp_path, "m.json"),
                    "--velocities", os.path.join(tmp_path, "v.csv")],
        "fuse": ["fuse", "--dataset", ds],
        "eval": ["eval", "--est", traj, "--gt", ds, "--mode", "none", "--vel-est",
                 _write(os.path.join(tmp_path, "vb.csv"), "t,vx,vy,vz\n" + "".join(
                     f"{0.05 * (i + 1)!r},{0.1 * i!r},0.0,0.0\n" for i in range(30)))],
    }[verb]
    assert main(argv + ["--out", out, "--config", cfg]) == 2
    assert not os.path.exists(out)
    if verb in ("fuse", "train-model") and case not in READS_DATA:
        assert loads == []


def test_echo_holds_the_resolved_config(tmp_path, small_dataset):
    """Each verb's echo holds exactly its config keys, with a flag that
    names a config key overriding the config file's value."""
    ds, traj = small_dataset
    ecfg = _write(os.path.join(tmp_path, "e.cfg"), "scheme=2f\nmax_pairs=1\nmax_iters=2\n")
    runs = {"estimate": (["estimate", "--dataset", ds, "--scheme", "3f", "--config", ecfg],
                         EST_DEFAULTS, "scheme=3f"),
            "eval": (["eval", "--est", traj, "--gt", traj, "--mode", "se3"],
                     EVAL_DEFAULTS, "mode=se3")}
    for verb, (argv, defaults, line) in runs.items():
        out = os.path.join(tmp_path, verb)
        assert main(argv + ["--out", out]) == 0
        echo = open(os.path.join(out, f"{verb}.echo.cfg")).read().splitlines()
        assert line in echo
        assert sorted(ln.split("=", 1)[0] for ln in echo) == sorted(defaults)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_model_window_without_teacher_samples_is_config_error(tmp_path):
    """A window too short to hold a teacher sample has no loss. The table's
    2-s dataset stops at the 5-s minimum first, so this runs on a 6-s one.
    Its teacher gives no scale fit, which must pass without a warning."""
    ds = os.path.join(tmp_path, "ds")
    gen = _write(os.path.join(tmp_path, "g.cfg"), GEN_SMALL + "duration=6.0\n")
    assert main(["generate", "--config", gen, "--out", ds]) == 0
    cfg = _write(os.path.join(tmp_path, "t.cfg"), "steps=2\nwindow_min=0.001\nwindow_max=0.001\n")
    out = os.path.join(tmp_path, "out")
    assert main(["train-model", "--sequence", f"{ds}:{_teacher_csv(tmp_path, 119)}",
                 "--out", out, "--config", cfg]) == 2
    assert not os.path.exists(out)


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy alone; scipy is only the tests' oracle."""
    code = ("import sys, selfvio.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(selfvio.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_keeps_freed_arrays_in_heap():
    """With the heap setting that `main` makes first, 1 MB arrays allocated
    and freed a few hundred times reuse the same pages: glibc's default
    trims the freed heap each time and faults ~200k pages back in."""
    pytest.importorskip("resource")
    import ctypes
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        pytest.skip("no glibc mallopt")
    code = ("import resource, numpy as np, selfvio.cli; "
            "selfvio.cli._keep_freed_arrays_in_heap(); "
            "r0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(200):\n"
            "    a = [np.ones(1 << 17) for _ in range(4)]\n"
            "    del a\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - r0)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(selfvio.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert int(out.stdout) < 2000
