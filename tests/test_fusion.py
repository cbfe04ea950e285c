"""Fusion filter: blending arithmetic, clean-sensor tracking, degradations."""

import numpy as np
import pytest

from conftest import constant_output_model

from selfvio.evalign import TrajectoryEstimate, position_rmse
from selfvio.fusion import (FilterDivergence, FusionConfig, _blend,
                            make_visual_measurements, model_specific_force,
                            run_filter, select_update_times)
from selfvio.geometry import ContractViolation
from selfvio.synth import (NoiseSpec, RefDynamicsParams, TrajectorySpec,
                           simulate_imu_motors)


def _sim(duration=8.0, noise=None, kind="ellipse", peak=5.0, period=8.0):
    traj = TrajectorySpec(kind=kind, peak_speed=peak, duration=duration,
                          period=period, yaw_mode="fixed", ramp=0.5)
    dyn = RefDynamicsParams(kx=0.5, ky=0.8, accel_z_bias=0.3)
    return simulate_imu_motors(traj, dyn, noise), dyn


def _group(sim, rate, seeds, vis_noise_std=0.1, drops=()):
    """One update group at `rate`: its times (M,) and (B, M, 3) draws, one
    per seed, of the true body velocity at the camera frames."""
    cam_idx = np.clip(np.searchsorted(sim.imu.t, sim.cam_t), 0, len(sim.imu.t) - 1)
    return make_visual_measurements(sim.cam_t, sim.vel_b[cam_idx], rate, vis_noise_std,
                                    seeds, drops)


def test_fused_accel_degeneracies(rng):
    imu = rng.normal(size=3)
    model = rng.normal(size=3)
    assert np.array_equal(_blend(imu, model, 0.0), imu)
    assert np.array_equal(_blend(imu, model, 1.0), model)
    mid = _blend(imu, model, 0.5)
    assert np.allclose(mid, 0.5 * (imu + model), atol=1e-15)
    with pytest.raises(ContractViolation):
        FusionConfig(model_weight=1.5)


def test_fused_accel_hand_arithmetic():
    # w=0.3, IMU z = 9.6, model z = 9.81 - eps with eps = 0.1
    out = _blend(np.array([0, 0, 9.6]), np.array([0, 0, 9.81 - 0.1]), 0.3)
    assert abs(out[2] - (0.3 * 9.71 + 0.7 * 9.6)) < 1e-12
    assert abs(out[2] - 9.633) < 1e-12


def test_fused_accel_affine_in_w(rng):
    imu = rng.normal(size=3)
    model = rng.normal(size=3)
    lo, hi = _blend(imu, model, 0.0), _blend(imu, model, 1.0)
    assert np.allclose(_blend(imu, model, 0.5), 0.5 * (lo + hi), atol=1e-15)


def test_model_specific_force_structure():
    p = constant_output_model(dx=0.5, dy=0.8, eps=0.3)
    vb = np.array([[2.0, -1.0, 0.5]])
    sf = model_specific_force(p, vb, np.array([0, 0, 9.7]), np.zeros(3),
                              np.full(4, 9000.0))
    assert np.allclose(sf, [-0.5 * 2.0, -0.8 * (-1.0), 9.7 - 0.3], atol=1e-12)


def test_select_update_times():
    cam_t = np.arange(0, 1.0, 1 / 120)
    assert len(select_update_times(cam_t, 120.0)) == len(cam_t)
    assert len(select_update_times(cam_t, 60.0)) == (len(cam_t) + 1) // 2
    for rate in (0.0, -30.0):
        with pytest.raises(ContractViolation):
            select_update_times(cam_t, rate)


def test_clean_sensors_track_ground_truth():
    """Perfect sensors, w=0, 120 Hz updates: position RMSE < 0.05 m."""
    sim, _ = _sim(duration=8.0)
    cfg = FusionConfig(model_weight=0.0, vis_noise_std=1e-6)
    res = run_filter(sim.imu.t, sim.imu.accel, sim.imu.gyro, sim.motors.rpm,
                     sim.R_wb, [_group(sim, 120.0, [0], cfg.vis_noise_std)], None, cfg,
                     p0=sim.pos_w[0], v0=sim.vel_w[0])
    est = TrajectoryEstimate(t=res.t[::10], pos=res.pos[0, ::10])
    gt = TrajectoryEstimate(t=sim.t_gt[::10], pos=sim.pos_w[::10])
    assert position_rmse(est, gt, mode="none") < 0.05


def test_zero_noise_tracks_within_integration_tolerance():
    sim, _ = _sim(duration=8.0)
    cfg = FusionConfig(model_weight=0.0, vis_noise_std=1e-9)
    res = run_filter(sim.imu.t, sim.imu.accel, sim.imu.gyro, sim.motors.rpm,
                     sim.R_wb, [_group(sim, 120.0, [0], cfg.vis_noise_std)], None, cfg,
                     p0=sim.pos_w[0], v0=sim.vel_w[0])
    err = np.linalg.norm(res.pos[0] - sim.pos_w, axis=1)
    assert err.max() < 5e-3


def test_rate_reduction_monotone_rmse():
    """With sensor noise, dropping the update rate never improves the
    median RMSE (5 seeds here; the full sweep runs in acceptance)."""
    noise = NoiseSpec(seed=0, gyro_std=0.002, accel_std=0.2,
                      accel_bias=(0.05, -0.03, 0.04))
    medians = []
    for rate in (120.0, 40.0, 20.0):
        vals = []
        for seed in range(5):
            n2 = NoiseSpec(seed=seed, gyro_std=noise.gyro_std,
                           accel_std=noise.accel_std, accel_bias=noise.accel_bias)
            sim, _ = _sim(duration=8.0, noise=n2)
            cfg = FusionConfig(model_weight=0.0, vis_noise_std=0.1)
            res = run_filter(sim.imu.t, sim.imu.accel, sim.imu.gyro,
                             sim.motors.rpm, sim.R_wb, [_group(sim, rate, [seed + 100])],
                             None, cfg, p0=sim.pos_w[0], v0=sim.vel_w[0])
            est = TrajectoryEstimate(t=res.t[::10], pos=res.pos[0, ::10])
            gt = TrajectoryEstimate(t=sim.t_gt[::10], pos=sim.pos_w[::10])
            vals.append(position_rmse(est, gt, mode="se3"))
        medians.append(np.median(vals))
    assert medians[0] <= medians[1] + 1e-9
    assert medians[1] <= medians[2] + 1e-9


def test_filter_deterministic():
    sim, _ = _sim(duration=4.0)
    cfg = FusionConfig(model_weight=0.3)
    model = constant_output_model(dx=0.5, dy=0.8, eps=0.3)
    groups = [_group(sim, 60.0, [1])]
    r1 = run_filter(sim.imu.t, sim.imu.accel, sim.imu.gyro, sim.motors.rpm,
                    sim.R_wb, groups, model, cfg)
    r2 = run_filter(sim.imu.t, sim.imu.accel, sim.imu.gyro, sim.motors.rpm,
                    sim.R_wb, groups, model, cfg)
    assert np.array_equal(r1.pos, r2.pos)
    assert np.array_equal(r1.vel_body, r2.vel_body)


def test_model_required_when_weighted():
    sim, _ = _sim(duration=2.0)
    cfg = FusionConfig(model_weight=0.3)
    with pytest.raises(ContractViolation):
        run_filter(sim.imu.t, sim.imu.accel, sim.imu.gyro, sim.motors.rpm,
                   sim.R_wb, [(np.array([1.0]), np.zeros((1, 1, 3)))], None, cfg)


def test_model_specific_force_is_the_rollout_bracket():
    """The filter's model term and the rollout's bracket are one function:
    bit-identical at every state of a random rollout."""
    from selfvio.dronemodel import PreparedSequence, init_params, rollout
    from selfvio.geometry import rotvec_to_matrix
    rng = np.random.default_rng(11)
    n, dt = 200, 0.002
    params = init_params(rng, norm_mean=np.r_[0, 0, 0, 9.8, 0, 0, 0, [9000.0] * 4],
                         norm_std=np.r_[2, 2, 2, 1, 1, 1, 1, [500.0] * 4])
    gyro = rng.normal(scale=0.5, size=(n, 3))
    prep = PreparedSequence(
        seq_id="r", dt=np.full(n, dt), az=rng.normal(9.8, 0.5, n), gyro=gyro,
        rpm=rng.uniform(8000.0, 10000.0, (n, 4)), g_b=rng.normal(size=(n, 3)),
        R_step=np.stack([rotvec_to_matrix(g * dt) for g in gyro]),
        base_vel=np.zeros((2, 3)), sample_step=np.arange(2), t=np.arange(n + 1) * dt)
    ro = rollout(params, prep, rng.normal(scale=3.0, size=3))
    for j in range(n):
        accel = np.r_[rng.normal(size=2), prep.az[j]]
        sf = model_specific_force(params, ro.vel[j][None], accel, prep.gyro[j], prep.rpm[j])
        assert np.array_equal(sf[0], ro.specific_force[j])


def _random_model(seed=11):
    from selfvio.dronemodel import init_params
    return init_params(np.random.default_rng(seed),
                       norm_mean=np.r_[0, 0, 0, 9.8, 0, 0, 0, [9000.0] * 4],
                       norm_std=np.r_[2, 2, 2, 1, 1, 1, 1, [500.0] * 4])


def test_model_specific_force_stacked_rows_are_the_single_calls(rng):
    params = _random_model()
    vb = rng.normal(scale=3.0, size=(7, 3))
    accel, gyro = np.r_[rng.normal(size=2), 9.7], rng.normal(size=3)
    rpm = rng.uniform(8000.0, 10000.0, 4)
    stacked = model_specific_force(params, vb, accel, gyro, rpm)
    assert stacked.shape == (7, 3)
    for j in range(7):
        assert np.array_equal(stacked[j], model_specific_force(params, vb[j:j + 1], accel,
                                                               gyro, rpm)[0])


def test_batch_rows_are_the_single_runs():
    """One pass over a mixed batch (two weights x two seeds, with dropout
    windows and a model) is row for row bitwise the four runs alone, each a
    one-row group; the w = 0 rows skip the model."""
    sim, _ = _sim(duration=4.0, noise=NoiseSpec(seed=3, accel_std=0.2))
    model = _random_model()
    drops = [(1.0, 1.6), (2.5, 3.0)]
    pairs = [(w, s) for w in (0.0, 0.3) for s in (4, 9)]
    cfg = FusionConfig(model_weight=np.array([w for w, _ in pairs]))
    vis_t, vis_v = _group(sim, 30.0, [s for _, s in pairs], drops=drops)
    batch = run_filter(sim.imu.t, sim.imu.accel, sim.imu.gyro, sim.motors.rpm,
                       sim.R_wb, [(vis_t, vis_v)], model, cfg,
                       p0=sim.pos_w[0], v0=sim.vel_w[0])
    assert batch.pos.shape == (4, len(sim.imu.t), 3)
    for b, (w, s) in enumerate(pairs):
        cfg1 = FusionConfig(model_weight=w)
        t1, v1 = _group(sim, 30.0, [s], drops=drops)
        assert np.array_equal(t1, vis_t) and np.array_equal(v1[0], vis_v[b])
        one = run_filter(sim.imu.t, sim.imu.accel, sim.imu.gyro, sim.motors.rpm,
                         sim.R_wb, [(t1, v1)], model if w > 0 else None, cfg1,
                         p0=sim.pos_w[0], v0=sim.vel_w[0])
        assert one.n_updates == batch.n_updates
        for name in ("pos", "vel_body"):
            assert np.array_equal(getattr(batch, name)[b], getattr(one, name)[0]), (name, w, s)


def test_batch_with_one_nan_measurement_diverges():
    sim, _ = _sim(duration=2.0)
    cfg = FusionConfig(model_weight=np.array([0.0, 0.3, 0.3]))
    vis_t, vis_v = _group(sim, 30.0, [0, 1, 2])
    vis_v[1, 5, 0] = np.nan
    with pytest.raises(FilterDivergence) as err:
        run_filter(sim.imu.t, sim.imu.accel, sim.imu.gyro, sim.motors.rpm,
                   sim.R_wb, [(vis_t, vis_v)], constant_output_model(), cfg)
    assert err.value.timestamp == sim.imu.t[np.searchsorted(sim.imu.t, vis_t[5])]


def _groups(sim, rows_per_rate, drops=()):
    """One update group per rate, for rows (w, seed), and the rows' weights."""
    groups = [_group(sim, rate, [s for _, s in rows], drops=drops)
              for rate, rows in rows_per_rate.items()]
    weights = np.array([w for rows in rows_per_rate.values() for w, _ in rows])
    return groups, weights


def test_groups_rows_are_the_single_runs():
    """One pass over three update schedules (30 Hz with mixed weights, a
    one-row 15 Hz group, an all-w = 0 10 Hz group), with dropout windows
    and a model, is row for row bitwise the runs alone, and its n_updates
    is the sum of the groups'."""
    sim, _ = _sim(duration=4.0, noise=NoiseSpec(seed=3, accel_std=0.2))
    model = _random_model()
    drops = [(1.0, 1.6), (2.5, 3.0)]
    rows_per_rate = {30.0: [(0.0, 4), (0.3, 9)], 15.0: [(0.3, 5)],
                     10.0: [(0.0, 1), (0.0, 2)]}
    groups, weights = _groups(sim, rows_per_rate, drops)
    cfg = FusionConfig(model_weight=weights)
    batch = run_filter(sim.imu.t, sim.imu.accel, sim.imu.gyro, sim.motors.rpm,
                       sim.R_wb, groups, model, cfg,
                       p0=sim.pos_w[0], v0=sim.vel_w[0])
    assert batch.pos.shape == (5, len(sim.imu.t), 3)
    b, group_updates = 0, []
    for rate, rows in rows_per_rate.items():
        for w, s in rows:
            one = run_filter(sim.imu.t, sim.imu.accel, sim.imu.gyro, sim.motors.rpm,
                             sim.R_wb, [_group(sim, rate, [s], drops=drops)],
                             model if w > 0 else None, FusionConfig(model_weight=w),
                             p0=sim.pos_w[0], v0=sim.vel_w[0])
            for name in ("pos", "vel_body"):
                assert np.array_equal(getattr(batch, name)[b], getattr(one, name)[0]), \
                    (name, rate, w, s)
            b += 1
        group_updates.append(one.n_updates)
    assert len(set(group_updates)) == 3
    assert batch.n_updates == sum(group_updates)


def test_nan_in_a_later_group_diverges_at_its_step():
    sim, _ = _sim(duration=2.0)
    groups, weights = _groups(sim, {30.0: [(0.0, 0), (0.3, 1)],
                                    15.0: [(0.3, 2), (0.0, 3)]})
    t_15, v_15 = groups[1]
    v_15[1, 5, 0] = np.nan
    with pytest.raises(FilterDivergence) as err:
        run_filter(sim.imu.t, sim.imu.accel, sim.imu.gyro, sim.motors.rpm, sim.R_wb,
                   groups, constant_output_model(), FusionConfig(model_weight=weights))
    assert err.value.timestamp == sim.imu.t[np.searchsorted(sim.imu.t, t_15[5])]


def test_two_rates_share_one_model_call_per_step(monkeypatch):
    """The model term runs once per IMU step for every rate's rows, and the
    first-layer pre-activation row hoisted out of the loop is bitwise the
    one the call computes from its own sample, and so is the call's output
    with the hoisted folded weights."""
    import selfvio.fusion as fusion
    from selfvio.dronemodel import _pre_activations
    sim, _ = _sim(duration=1.0, noise=NoiseSpec(seed=3, gyro_std=0.01, accel_std=0.2))
    groups, weights = _groups(sim, {30.0: [(0.3, 0)], 15.0: [(0.3, 1)]})
    calls = []

    def counted(params, vb, accel, gyro, rpm, pre, fold):
        assert np.array_equal(pre, _pre_activations(params, accel[2], gyro, rpm))
        out = model_specific_force(params, vb, accel, gyro, rpm, pre, fold=fold)
        assert np.array_equal(out, model_specific_force(params, vb, accel, gyro, rpm))
        calls.append(len(vb))
        return out

    monkeypatch.setattr(fusion, "model_specific_force", counted)
    run_filter(sim.imu.t, sim.imu.accel, sim.imu.gyro, sim.motors.rpm, sim.R_wb,
               groups, _random_model(), FusionConfig(model_weight=weights))
    assert len(calls) == len(sim.imu.t) - 1 and set(calls) == {2}
