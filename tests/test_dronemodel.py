"""Drone dynamics model: forward bounds, rollout, BPTT gradients, teacher
pipeline, training recovery smoke, serialization."""

import os
import tracemalloc
import warnings

import numpy as np
import pytest

import bptt_oracle
from conftest import constant_output_model, recovery_sequence

from selfvio.dronemodel import (_GRAD_ROWS, DivergenceError, DroneModelParams,
                                ShortSequence, TrainConfig, TrainSequence,
                                _batched_windows_loss_and_grads, _features, _flatten,
                                _grid_init_scales, _mlp_forward, _unflatten_into,
                                _zero_grads, compute_norm_stats, effective_drag,
                                init_params, load_params, model_forward,
                                prepare_sequence, rollout, save_params, smooth_teacher,
                                teacher_velocity, train, window_loss_and_grads)
from selfvio.geometry import ContractViolation, rotvec_to_matrix
from selfvio.synth import R_CB


def _rel_err(got, want):
    """The largest deviation of got from want, relative to want's largest
    magnitude."""
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


def _prep(seed=1, noise_std=0.0, sid="a"):
    seq, sim = recovery_sequence(sid, seed, peak=5.0, period=8.0, duration=8.0,
                                 noise_std=noise_std)
    return seq, sim, prepare_sequence(seq)


# --- forward -----------------------------------------------------------------


def test_forward_zero_params_midpoints():
    p = init_params(np.random.default_rng(0))
    for w in p.weights:
        w[:] = 0.0
    dx, dy, eps = model_forward(p, [1.0, 2.0, 3.0], 9.8, [0.1, 0.2, 0.3],
                                [9000, 9000, 9000, 9000])
    assert dx == 1.0 and dy == 1.0 and eps == 0.0


def test_forward_outputs_structurally_bounded(rng):
    p = init_params(rng)
    for w in p.weights:
        w *= 30.0   # exaggerate; bounds must still hold
    for _ in range(10_000):
        x = rng.normal(scale=100.0, size=11)
        dx, dy, eps = model_forward(p, x[:3], x[3], x[4:7], np.abs(x[7:11]))
        assert 0.0 <= dx <= 2.0 and 0.0 <= dy <= 2.0
        assert -5.0 <= eps <= 5.0


def test_forward_lipschitz_continuity(rng):
    p = init_params(rng, norm_mean=np.zeros(11), norm_std=np.ones(11))
    for _ in range(200):
        x = rng.normal(size=11)
        base = np.array(model_forward(p, x[:3], x[3], x[4:7], np.abs(x[7:11]) + 1))
        i = rng.integers(11)
        x2 = x.copy()
        x2[i] += 1e-6
        out = np.array(model_forward(p, x2[:3], x2[3], x2[4:7], np.abs(x2[7:11]) + 1))
        assert np.abs(out - base).max() < 1e-3


def test_forward_validates_inputs():
    p = init_params(np.random.default_rng(0))
    with pytest.raises(ContractViolation):
        model_forward(p, [np.nan, 0, 0], 9.8, [0, 0, 0], [1, 1, 1, 1])


# --- rollout -----------------------------------------------------------------


def test_rollout_hover_stays_zero():
    p = constant_output_model(dx=1.0, dy=1.0, eps=0.0)
    n = 500
    import selfvio.dronemodel as dm
    prep = dm.PreparedSequence(
        seq_id="h", dt=np.full(n, 0.002), az=np.full(n, 9.81),
        gyro=np.zeros((n, 3)), rpm=np.full((n, 4), 9000.0),
        g_b=np.tile([0.0, 0.0, -9.81], (n, 1)),
        R_step=np.tile(np.eye(3), (n, 1, 1)),
        base_vel=np.zeros((10, 3)), sample_step=np.arange(10) * 50,
        t=np.arange(n + 1) * 0.002)
    ro = rollout(p, prep, np.zeros(3))
    assert np.max(np.abs(ro.vel)) < 1e-9


def test_rollout_pure_yaw_conserves_speed():
    p = constant_output_model(dx=1e-18, dy=1e-18, eps=0.0)
    # force effectively zero drag through saturated sigmoids
    p.biases[-1][:2] = -45.0
    n = 1000
    rate = 1.0
    import selfvio.dronemodel as dm
    from selfvio.geometry import rotvec_to_matrix
    R_step = np.tile(rotvec_to_matrix([0, 0, rate * 0.002]), (n, 1, 1))
    prep = dm.PreparedSequence(
        seq_id="y", dt=np.full(n, 0.002), az=np.full(n, 9.81),
        gyro=np.tile([0.0, 0.0, rate], (n, 1)), rpm=np.full((n, 4), 9000.0),
        g_b=np.tile([0.0, 0.0, -9.81], (n, 1)), R_step=R_step,
        base_vel=np.zeros((5, 3)), sample_step=np.arange(5) * 100,
        t=np.arange(n + 1) * 0.002)
    vb0 = np.array([2.0, 1.0, 0.0])
    ro = rollout(p, prep, vb0)
    speeds = np.linalg.norm(ro.vel, axis=1)
    assert np.max(np.abs(speeds - speeds[0])) < 1e-9
    # direction rotates with -yaw in the body frame
    ang = -rate * n * 0.002
    want = np.array([[np.cos(ang), -np.sin(ang), 0],
                     [np.sin(ang), np.cos(ang), 0], [0, 0, 1.0]]) @ vb0
    assert np.allclose(ro.vel[-1], want, atol=1e-6)


def test_rollout_reproduces_planted_dynamics():
    """Hand-set model with the true drag terms reproduces ground truth to
    1e-3 m/s over 5 s (ground-truth attitude: the round-trip oracle)."""
    from selfvio.geometry import rotvec_to_matrix
    from selfvio.synth import (G_WORLD, RefDynamicsParams, TrajectorySpec,
                               simulate_imu_motors)
    import selfvio.dronemodel as dm
    dyn = RefDynamicsParams(kx=0.5, ky=0.8, accel_z_bias=0.3)
    traj = TrajectorySpec(kind="ellipse", peak_speed=3.0, duration=6.0,
                          period=20.0, yaw_mode="fixed")
    sim = simulate_imu_motors(traj, dyn)
    n = len(sim.imu.t)
    dt = np.diff(sim.imu.t)
    g_b = np.einsum("nji,j->ni", sim.R_wb, G_WORLD)
    prep = dm.PreparedSequence(
        seq_id="s", dt=dt, az=sim.imu.accel[:-1, 2], gyro=sim.imu.gyro[:-1],
        rpm=sim.motors.rpm[:-1], g_b=0.5 * (g_b[:-1] + g_b[1:]),
        R_step=np.stack([rotvec_to_matrix(sim.imu.gyro[i] * dt[i])
                         for i in range(n - 1)]),
        base_vel=sim.vel_b[::4], sample_step=np.arange(0, n, 4), t=sim.imu.t)
    p = constant_output_model(dx=0.5, dy=0.8, eps=0.3)
    horizon = int(5.0 * 500)
    ro = rollout(p, prep, sim.vel_b[0], start=0, horizon=horizon)
    err = np.linalg.norm(ro.vel - sim.vel_b[:horizon + 1], axis=1)
    assert err.max() < 1e-3


def test_rollout_deterministic():
    seq, sim, prep = _prep()
    p = init_params(np.random.default_rng(2), scales={"a": 1.0})
    r1 = rollout(p, prep, np.array([1.0, -0.5, 0.2]), horizon=500)
    r2 = rollout(p, prep, np.array([1.0, -0.5, 0.2]), horizon=500)
    assert np.array_equal(r1.vel, r2.vel)


def test_drag_decays_planar_speed():
    """With positive drag, hover inputs, zero teacher: planar speed is
    non-increasing from any initial velocity up to 10 m/s."""
    p = constant_output_model(dx=0.7, dy=1.2, eps=0.0)
    n = 2000
    import selfvio.dronemodel as dm
    prep = dm.PreparedSequence(
        seq_id="d", dt=np.full(n, 0.002), az=np.full(n, 9.81),
        gyro=np.zeros((n, 3)), rpm=np.full((n, 4), 9000.0),
        g_b=np.tile([0.0, 0.0, -9.81], (n, 1)),
        R_step=np.tile(np.eye(3), (n, 1, 1)),
        base_vel=np.zeros((5, 3)), sample_step=np.arange(5) * 100,
        t=np.arange(n + 1) * 0.002)
    rng = np.random.default_rng(4)
    for _ in range(5):
        v0 = rng.uniform(-1, 1, size=3)
        v0[:2] *= 10.0 / max(np.linalg.norm(v0[:2]), 1e-9)
        ro = rollout(p, prep, v0)
        planar = np.linalg.norm(ro.vel[:, :2], axis=1)
        assert np.all(np.diff(planar) <= 1e-12)


def test_rollout_is_bitwise_the_per_step_chain():
    seq, sim, prep = _prep(noise_std=0.05)
    rng = np.random.default_rng(6)
    params = init_params(rng, *compute_norm_stats([prep]), scales={"a": 1.0})
    for start, horizon, vb0 in ((0, None, np.zeros(3)), (37, 1500, [1.0, -0.5, 0.2])):
        got = rollout(params, prep, np.array(vb0), start=start, horizon=horizon)
        want = bptt_oracle.rollout(params, prep, np.array(vb0), start=start, horizon=horizon)
        assert np.array_equal(got.t, want.t)
        assert np.array_equal(got.vel, want.vel)
        assert np.array_equal(got.specific_force, want.specific_force)


@pytest.mark.parametrize("k", [0, 1, 250])
def test_rollout_names_the_first_non_finite_step(k):
    """A NaN gyro sample at window step k ends the rollout in a
    DivergenceError naming step start + k, with no numpy warning."""
    seq, sim, _ = _prep()
    params = init_params(np.random.default_rng(2), scales={"a": 1.0})
    start = 40
    gyro = seq.gyro.copy()
    gyro[start + k, 1] = np.nan
    seq = TrainSequence(seq_id="a", t=seq.t, gyro=gyro, accel=seq.accel, rpm=seq.rpm,
                        g_body=seq.g_body, cam_t=seq.cam_t, v_cam=seq.v_cam, R_cb=seq.R_cb)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        prep = prepare_sequence(seq)
        with pytest.raises(DivergenceError, match=f"diverged at step {start + k}$"):
            rollout(params, prep, np.array([1.0, 0.0, 0.0]), start=start, horizon=600)


def test_prepared_step_rotations_are_rotvec_to_matrix():
    """R_step is bitwise rotvec_to_matrix(gyro * dt) row by row, on rows of
    the series branch and on rows with |gyro dt| >= 1 rad (closed form)."""
    seq, _, _ = _prep()
    rng = np.random.default_rng(8)
    gyro = seq.gyro.copy()
    gyro[::7] = rng.normal(scale=3.0, size=gyro[::7].shape)
    gyro[::11] = rng.normal(scale=1500.0, size=gyro[::11].shape)
    gyro[5] = 0.0
    dt = np.diff(seq.t)
    assert np.sum(np.linalg.norm(gyro[:-1] * dt[:, None], axis=1) >= 1.0) > 20
    seq = TrainSequence(seq_id="a", t=seq.t, gyro=gyro, accel=seq.accel, rpm=seq.rpm,
                        g_body=seq.g_body, cam_t=seq.cam_t, v_cam=seq.v_cam, R_cb=seq.R_cb)
    want = np.stack([rotvec_to_matrix(g * d) for g, d in zip(gyro[:-1], dt)])
    assert np.array_equal(prepare_sequence(seq).R_step, want)


# --- teacher ------------------------------------------------------------------


def test_teacher_identity_rotation_unit_scale():
    seq, sim, _ = _prep()
    seq2 = TrainSequence(seq_id="t", t=seq.t, gyro=seq.gyro, accel=seq.accel,
                         rpm=seq.rpm, g_body=seq.g_body, cam_t=seq.cam_t,
                         v_cam=seq.v_cam, R_cb=np.eye(3))
    t, v = teacher_velocity(seq2, 1.0)
    from selfvio.dronemodel import smooth_teacher
    assert np.allclose(v, smooth_teacher(seq.cam_t, seq.v_cam), atol=1e-12)


def test_teacher_scale_homogeneity():
    seq, _, _ = _prep()
    _, v1 = teacher_velocity(seq, 1.3)
    _, v2 = teacher_velocity(seq, 2.6)
    assert np.allclose(2.0 * v1, v2, rtol=0, atol=1e-12)


def test_teacher_rejects_nonpositive_scale():
    seq, _, _ = _prep()
    with pytest.raises(ContractViolation):
        teacher_velocity(seq, 0.0)


@pytest.mark.parametrize("n", [13, 40, 241, 1200, 4000])
def test_smooth_teacher_matches_scipy(n):
    """Bitwise scipy's butter(3, wn) + filtfilt, the 0.99 clamp included."""
    signal = pytest.importorskip("scipy.signal")
    x = np.random.default_rng(n).standard_normal((n, 3)).cumsum(axis=0)
    cam_t = 0.5 * np.arange(n)     # 2 Hz: the cutoff in Hz is wn itself
    for wn in (0.02, 0.083, 0.167, 0.25, 0.533, 0.8, 0.99, 1.5):
        want = signal.filtfilt(*signal.butter(3, min(wn, 0.99)), x, axis=0)
        assert np.array_equal(smooth_teacher(cam_t, x, cutoff_hz=wn), want), wn


def test_smooth_teacher_rejects_short_stream_and_nonpositive_cutoff():
    x = np.ones((12, 3))
    with pytest.raises(ShortSequence):
        smooth_teacher(np.arange(12.0), x)
    for cutoff in (0.0, -1.0, float("nan")):
        with pytest.raises(ContractViolation):
            smooth_teacher(np.arange(13.0), np.ones((13, 3)), cutoff)


# --- BPTT gradients -------------------------------------------------------------


def test_bptt_gradients_match_finite_differences():
    """Build-blocking oracle: every MLP parameter and the scale, 20-step
    window, central differences, 1e-3 relative tolerance."""
    seq, sim, prep = _prep(noise_std=0.05)
    rng = np.random.default_rng(7)
    params = init_params(rng, scales={"a": 1.3})
    params.norm_mean = np.concatenate([[0, 0, 0], [9.8], [0, 0, 0], [9000.0] * 4])
    params.norm_std = np.concatenate([[2, 2, 2], [1], [1, 1, 1], [500.0] * 4])

    k0, n_steps = 150, 20
    _, grads = window_loss_and_grads(params, prep, k0, n_steps)
    gflat, keys = _flatten(params, grads)
    theta0, _ = _flatten(params)

    def f(theta):
        p2 = params.copy()
        _unflatten_into(p2, theta, keys)
        l, _ = window_loss_and_grads(p2, prep, k0, n_steps)
        return l

    probe_rng = np.random.default_rng(1)
    probes = list(probe_rng.choice(len(theta0) - 1, size=220, replace=False))
    probes.append(len(theta0) - 1)   # the scale parameter
    eps = 1e-6
    for i in probes:
        tp = theta0.copy(); tp[i] += eps
        tm = theta0.copy(); tm[i] -= eps
        fd = (f(tp) - f(tm)) / (2 * eps)
        assert abs(gflat[i] - fd) <= 1e-3 * max(abs(fd), 1e-7), (i, gflat[i], fd)


def test_batched_bptt_equals_single():
    seq, sim, prep = _prep()
    params = init_params(np.random.default_rng(3), scales={"a": 0.9})
    k0s, L = [40, 200, 350], 150
    g1 = _zero_grads(params)
    tot = 0.0
    for k in k0s:
        l, g1 = window_loss_and_grads(params, prep, k, L, g1)
        tot += l
    f1, _ = _flatten(params, g1)
    g2 = _zero_grads(params)
    l2 = _batched_windows_loss_and_grads(params, [prep] * 3, k0s, L, g2)
    f2, _ = _flatten(params, g2)
    assert abs(tot / 3 - l2) < 1e-12
    assert np.max(np.abs(f1 / 3 - f2)) < 1e-12


@pytest.mark.parametrize("B", [1, 6])
@pytest.mark.parametrize("L", [150, 10])
def test_window_bptt_is_bitwise_the_per_step_chain(B, L):
    """The window loop's loss and every weight, bias and scale gradient are
    bitwise the per-step chain's, for a window that ends inside a weight-grad
    block (L = 150) and one shorter than a block (L = 10)."""
    assert L % (_GRAD_ROWS // B) != 0 or L < _GRAD_ROWS // B
    _, _, pa = _prep(noise_std=0.05, sid="a")
    _, _, pb = _prep(seed=2, noise_std=0.02, sid="b")
    params = init_params(np.random.default_rng(7), *compute_norm_stats([pa, pb]),
                         scales={"a": 1.3, "b": 0.8})
    preps = [pa, pb, pa, pa, pb, pa][:B]
    k0s = [150, 20, 77, 3, 160, 120][:B]
    g = _zero_grads(params)
    loss = _batched_windows_loss_and_grads(params, preps, k0s, L, g)
    want_loss, want = bptt_oracle.loss_and_grads(params, preps, k0s, L)
    assert loss == want_loss
    assert _batched_windows_loss_and_grads(params, preps, k0s, L, None) == want_loss
    for key in ("weights", "biases"):
        for got, ref in zip(g[key], want[key]):
            assert np.array_equal(got, ref), key
    assert g["scales"] == want["scales"]


@pytest.mark.parametrize("B", [1, 6])
@pytest.mark.parametrize("L", [150, 10])
def test_window_loop_is_the_textbook_chain_to_rounding(B, L):
    """The folded window loop agrees with the unfolded textbook chain within
    1e-12 relative: its loss and every weight, bias and scale gradient, and
    the rollout's states and specific force over L steps."""
    _, _, pa = _prep(noise_std=0.05, sid="a")
    _, _, pb = _prep(seed=2, noise_std=0.02, sid="b")
    params = init_params(np.random.default_rng(7), *compute_norm_stats([pa, pb]),
                         scales={"a": 1.3, "b": 0.8})
    preps = [pa, pb, pa, pa, pb, pa][:B]
    k0s = [150, 20, 77, 3, 160, 120][:B]
    g = _zero_grads(params)
    loss = _batched_windows_loss_and_grads(params, preps, k0s, L, g)
    want_loss, want = bptt_oracle.textbook_loss_and_grads(params, preps, k0s, L)
    assert _rel_err(loss, want_loss) <= 1e-12
    for key in ("weights", "biases"):
        for li, (got, ref) in enumerate(zip(g[key], want[key])):
            assert _rel_err(got, ref) <= 1e-12, (key, li)
    ids = sorted({p.seq_id for p in preps})
    assert _rel_err([g["scales"][k] for k in ids], [want["scales"][k] for k in ids]) <= 1e-12
    for start, vb0 in ((0, [0.0, 0.0, 0.0]), (37, [1.0, -0.5, 0.2])):
        got = rollout(params, pa, np.array(vb0), start=start, horizon=L)
        ref = bptt_oracle.textbook_rollout(params, pa, np.array(vb0), start=start, horizon=L)
        assert np.array_equal(got.t, ref.t)
        assert _rel_err(got.vel, ref.vel) <= 1e-12
        assert _rel_err(got.specific_force, ref.specific_force) <= 1e-12


def test_effective_drag_is_the_textbook_mean():
    """effective_drag is the textbook MLP's mean (d_x, d_y) over the teacher
    samples at or above the speed floor, to rounding."""
    _, _, pa = _prep(noise_std=0.05, sid="a")
    params = init_params(np.random.default_rng(7), *compute_norm_stats([pa]),
                         scales={"a": 1.3})
    idx = np.clip(pa.sample_step, 0, len(pa.az) - 1)
    vb = 1.3 * pa.base_vel
    keep = np.linalg.norm(vb, axis=1) >= 1.0
    assert 0 < keep.sum() < len(keep)
    out, _ = bptt_oracle.textbook_mlp_forward(
        params, _features(vb, pa.az[idx], pa.gyro[idx], pa.rpm[idx])[keep])
    assert _rel_err(effective_drag(params, pa), out[:, :2].mean(axis=0)) <= 1e-12


def test_scale_grid_is_the_per_scale_loop():
    """The one broadcast forward of the scale grid gives, bitwise, the 13
    per-scale losses, and _grid_init_scales picks the per-scale loop's
    scale on two sequences."""
    _, _, pa = _prep(noise_std=0.05, sid="a")
    _, _, pb = _prep(seed=2, noise_std=0.02, sid="b")
    for seed in (0, 3):
        params = init_params(np.random.default_rng(seed), *compute_norm_stats([pa, pb]),
                             scales={"a": 1.0, "b": 1.0})
        ref = params.copy()
        _grid_init_scales(params, [pa, pb], np.random.default_rng(seed))
        bptt_oracle.grid_init_scales(ref, [pa, pb], np.random.default_rng(seed))
        assert params.scales == ref.scales
    grid = np.geomspace(0.25, 4.0, 13)
    anchors = [3, 40, 90, 17]
    losses = _batched_windows_loss_and_grads(params, [pa] * 4, anchors, 750, None, grid)
    for s, loss in zip(grid, losses):
        ref.scales["a"] = float(s)
        assert loss == bptt_oracle.batched_windows_loss_and_grads(ref, [pa] * 4, anchors,
                                                                  750, None)


# tracemalloc peak of the 13-call grid (one loss-only forward per scale, a
# cache list per step) on this test's sequence, measured on that code; a
# forward that stacked the 52 (scale, anchor) rows would exceed it.
GRID_PEAK_BYTES_13_CALLS = 5_214_258


def test_scale_grid_peak_memory_is_at_most_the_per_scale_loop():
    seq, _ = recovery_sequence("m", 3, peak=5.0, period=7.0, duration=6.0)
    prep = prepare_sequence(seq)
    assert round(1.0 / np.median(prep.dt)) == 500
    params = init_params(np.random.default_rng(0), *compute_norm_stats([prep]),
                         scales={"m": 1.0})
    tracemalloc.start()
    try:
        _grid_init_scales(params, [prep], np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= GRID_PEAK_BYTES_13_CALLS, peak


# --- training ---------------------------------------------------------------------


def test_zero_step_training_returns_init():
    seq, _, _ = _prep()
    rng = np.random.default_rng(5)
    init = init_params(rng, scales={"a": 1.0})
    out, hist = train([seq], TrainConfig(steps=0), params=init)
    assert hist == []
    for w0, w1 in zip(init.weights, out.weights):
        assert np.array_equal(w0, w1)
    assert out.scales == init.scales


def test_training_recovers_planted_scale_ratio():
    """Two sequences with planted scales 0.5 and 2.0: the learned scale
    ratio approaches 4."""
    s1, _ = recovery_sequence("r1", 1, peak=6.0, period=8.0, duration=10.0,
                              scale_plant=0.5)
    s2, _ = recovery_sequence("r2", 2, peak=6.5, period=7.5, duration=10.0,
                              scale_plant=2.0, yaw0=0.8)
    cfg = TrainConfig(steps=500, batch=4, lr=5e-3, lr_final=1e-3, seed=0,
                      window_max=3.0, cutoff_hz=10.0)
    params, _ = train([s1, s2], cfg)
    ratio = params.scales["r1"] / params.scales["r2"]
    assert abs(ratio - 4.0) < 0.2


def test_training_deterministic():
    seq, _, _ = _prep()
    cfg = TrainConfig(steps=12, batch=2, seed=9)
    p1, h1 = train([seq], cfg)
    p2, h2 = train([seq], cfg)
    assert h1 == h2
    for w1, w2 in zip(p1.weights, p2.weights):
        assert np.array_equal(w1, w2)
    assert p1.scales == p2.scales


def test_training_requires_5s():
    seq, sim = recovery_sequence("short", 1, peak=5.0, period=8.0, duration=3.0)
    with pytest.raises(ContractViolation):
        train([seq], TrainConfig(steps=1))


def test_input_divisor_is_the_floored_std(tmp_path, rng):
    """The z-scoring divides by max(norm_std, floor), set with norm_std
    (also on reassignment); model.json keeps the stored norm_std."""
    p = init_params(rng, norm_mean=rng.normal(size=11), norm_std=np.full(11, 2.0))
    p.norm_std = np.r_[1e-6, 0.0, 3.0, np.full(8, 0.5)]
    x, floor = rng.normal(size=(5, 11)), 1e-3
    assert np.array_equal(p._norm_div, np.maximum(p.norm_std, floor))
    # the folded forward is the textbook layers on inputs z-scored by that divisor
    unit = p.copy()
    unit.norm_mean, unit.norm_std = np.zeros(11), np.ones(11)
    want, _ = bptt_oracle.textbook_mlp_forward(
        unit, (x - p.norm_mean) / np.maximum(p.norm_std, floor))
    assert _rel_err(_mlp_forward(p, x), want) <= 1e-12
    path = os.path.join(tmp_path, "m.json")
    save_params(path, p)
    q = load_params(path)
    assert np.array_equal(q.norm_std, p.norm_std)
    assert np.array_equal(_mlp_forward(q, x), _mlp_forward(p, x))
    assert np.array_equal(_mlp_forward(p.copy(), x), _mlp_forward(p, x))


# --- serialization -------------------------------------------------------------------


def test_params_roundtrip_bit_exact(tmp_path, rng):
    p = init_params(rng, norm_mean=rng.normal(size=11),
                    norm_std=np.abs(rng.normal(size=11)) + 0.1,
                    scales={"a": 1.2345678901234567, "b": 0.7773214})
    path = os.path.join(tmp_path, "m.json")
    save_params(path, p)
    q = load_params(path)
    for w1, w2 in zip(p.weights, q.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(p.biases, q.biases):
        assert np.array_equal(b1, b2)
    assert np.array_equal(p.norm_mean, q.norm_mean)
    assert p.scales == q.scales
    # byte-stable rewrite
    path2 = os.path.join(tmp_path, "m2.json")
    save_params(path2, q)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_params_version_rejected(tmp_path):
    p = init_params(np.random.default_rng(0))
    path = os.path.join(tmp_path, "m.json")
    save_params(path, p)
    doc = open(path).read().replace('"version": 1', '"version": 99')
    open(path, "w").write(doc)
    with pytest.raises(ContractViolation):
        load_params(path)
