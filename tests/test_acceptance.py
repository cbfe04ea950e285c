"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Budgets: #1 under a minute, #3 under five, #5 under fifteen.
"""

import hashlib
import os
import time

import numpy as np
import pytest

from conftest import (close_gate_pair, constant_output_model,
                      forward_gate_instance, recovery_sequence,
                      small_intrinsics, smooth_image, sweep_losses)

from selfvio import dronemodel, fusion
from selfvio.attitude import AttitudeFilter, AttitudeState
from selfvio.cli import main as cli_main
from selfvio.evalign import TrajectoryEstimate, position_rmse, umeyama_align
from selfvio.geometry import (SE3Pose, inverse_warp, quat_from_axis_angle,
                              rotvec_to_matrix, se3_exp, se3_log)
from selfvio.losses import (SCHEME_2F, SCHEME_3F, SCHEME_BENCHMARK, LossConfig,
                            appearance_loss, appearance_map,
                            depth_consistency_error, masked_min_photometric,
                            smoothness_loss, ssim_loss)
from selfvio.poseopt import _loss_only, loss_and_grad
from selfvio.synth import (NoiseSpec, RefDynamicsParams, SceneSpec,
                           TrajectorySpec, camera_pose, disocclusion_oracle,
                           render, simulate_imu_motors)

G = 9.81


def _ok(num, text):
    print(f"\n[ACCEPTANCE {num}] PASS - {text}")


# --------------------------------------------------------------------------


def test_criterion_1_mask_and_disocclusion_oracles():
    t0 = time.time()
    # (a) ValidMask equals the brute-force per-pixel projection oracle on
    # 100% of pixels for 50 random scene/pose instances
    from test_geometry import brute_force_mask
    K = small_intrinsics(32, 24, f=30.0)
    rng = np.random.default_rng(123)
    for i in range(50):
        scene = SceneSpec(texture_seed=i % 7)
        pose_cam = camera_pose([rng.uniform(-0.5, 2.5), rng.uniform(-0.6, 0.6),
                                rng.uniform(0.8, 1.6)], yaw=rng.uniform(-0.3, 0.3))
        frame = render(scene, pose_cam, K)
        rel = se3_exp(np.concatenate([rng.uniform(-0.3, 0.3, 3),
                                      rng.uniform(-0.1, 0.1, 3)]))
        _, mask = inverse_warp(frame.image, frame.depth, rel, K)
        oracle = brute_force_mask(frame.depth, K, rel)
        assert np.array_equal(mask, oracle), f"mask mismatch on instance {i}"

    # (b) flagged pixels carry >= 90% of the unmasked photometric error
    # mass at the true pose (footprint-aware z-buffer oracle)
    K2 = small_intrinsics(64, 48, f=60.0)
    masses = []
    for seed in range(20):
        scene, p0, p1, f0, f1 = close_gate_pair(seed, K2)
        recon, _ = inverse_warp(f0.image, f1.depth, p0.inverse().compose(p1), K2)
        emap = np.asarray(appearance_map(recon, f1.image, LossConfig()))
        orc = disocclusion_oracle(scene, f1, p0, K2, footprint=1)
        masses.append(emap[orc["flagged"]].sum() / emap.sum())
    assert min(masses) >= 0.9, f"min error mass {min(masses):.3f}"
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    _ok(1, f"mask oracle exact on 50 instances; flagged error mass "
           f">= {min(masses):.3f} on 20 fly-through pairs ({elapsed:.1f}s)")


# --------------------------------------------------------------------------


def _scalar_smoothness(d, img, normalize=True):
    h, w = d.shape
    dn = d / d.mean() if normalize else d
    sx = sy = 0.0
    for y in range(h):
        for x in range(w - 1):
            sx += abs(dn[y, x + 1] - dn[y, x]) * np.exp(-abs(img[y, x + 1] - img[y, x]))
    for y in range(h - 1):
        for x in range(w):
            sy += abs(dn[y + 1, x] - dn[y, x]) * np.exp(-abs(img[y + 1, x] - img[y, x]))
    return sx / (h * (w - 1)) + sy / ((h - 1) * w)


def test_criterion_2_loss_formula_fidelity(rng):
    from test_losses import scalar_ssim_loss
    a = rng.random((8, 8))
    b = rng.random((8, 8))
    # appearance: (1-alpha)L1 + alpha SSIM vs scalar re-implementation
    for alpha in (0.0, 0.85, 1.0):
        ours = appearance_loss(a, b, LossConfig(alpha=alpha))
        ref = (1 - alpha) * np.abs(a - b) + alpha * scalar_ssim_loss(a, b)
        assert np.max(np.abs(ours - ref)) < 1e-9
    # depth consistency
    dw = 1.0 + 3.0 * rng.random((8, 8))
    dt = 1.0 + 3.0 * rng.random((8, 8))
    ref = np.abs(dw - dt) / (dw + dt)
    assert np.max(np.abs(depth_consistency_error(dw, dt) - ref)) < 1e-9
    # smoothness
    d = 1.0 + rng.random((8, 8))
    img = rng.random((8, 8))
    assert abs(smoothness_loss(d, img) - _scalar_smoothness(d, img)) < 1e-9

    # masked-min aggregations: hand-enumerated 3x3 with ties
    e1 = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]])
    e2 = np.array([[0.2, 0.1, 0.3], [0.9, 0.5, 0.1], [0.1, 0.1, 0.1]])
    m1 = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)
    m2 = np.array([[1, 0, 1], [1, 1, 1], [0, 1, 1]], dtype=bool)
    assert abs(masked_min_photometric([e1, e2], [m1, m2]) - 1.3 / 6) < 1e-12
    from selfvio.losses import DegenerateBatchError, masked_min_depth
    assert abs(masked_min_depth([e1, e2], [m1, m2]) - 1.3 / 6) < 1e-12
    with pytest.raises(DegenerateBatchError):
        masked_min_photometric([e1], [np.zeros((3, 3), dtype=bool)])
    _ok(2, "per-pixel losses match scalar oracles at 1e-9; masked-min "
           "aggregation matches hand-enumerated 3x3 cases incl. ties")


# --------------------------------------------------------------------------


def _branch_signature(scheme, frames, depths, twists, dlog, K):
    """Discrete branch state of the loss: validity masks, per-pixel L1
    signs, and min selections. The loss is piecewise smooth; FD probes
    must not straddle a branch change or they measure the kink."""
    from selfvio.geometry import (invert_entries, project_grid,
                                  se3_exp_entries, warp_image,
                                  warp_depth_parts)
    npose = 1 if scheme == SCHEME_2F else 2
    poses_rt = [se3_exp_entries(twists[6 * j:6 * j + 6]) for j in range(npose)]
    d2 = list(depths)
    d2[-1 if scheme == SCHEME_2F else 1] = np.exp(dlog)
    cfg = LossConfig(scheme=scheme)
    sig = []
    if scheme == SCHEME_2F:
        pairs = [(frames[0], frames[1], d2[1], poses_rt[0]),
                 (frames[1], frames[0], d2[0], invert_entries(*poses_rt[0]))]
        dpairs = [(d2[0], d2[1], poses_rt[0]),
                  (d2[1], d2[0], invert_entries(*poses_rt[0]))]
    else:
        pairs = [(frames[0], frames[1], d2[1], poses_rt[0]),
                 (frames[2], frames[1], d2[1], poses_rt[1])]
        dpairs = [(d2[0], d2[1], poses_rt[0])]
        if scheme == SCHEME_3F:
            dpairs.append((d2[2], d2[1], poses_rt[1]))
    emaps = []
    for src, tgt, dep, (R, t) in pairs:
        # bilinear interpolation cells: crossing an integer coordinate is
        # a derivative kink even though the value is continuous
        xs, ys, _, _ = project_grid(dep, K, R, t)
        sig.append(np.floor(xs).tobytes())
        sig.append(np.floor(ys).tobytes())
        recon, mask = warp_image(src, dep, K, R, t)
        sig.append(mask.tobytes())
        sig.append(np.sign(recon - tgt).tobytes())
        emaps.append(np.asarray(appearance_map(recon, tgt, cfg)))
    sig.append((emaps[0] <= emaps[1]).tobytes())
    dmaps = []
    for sdep, tdep, (R, t) in dpairs:
        w, m = warp_depth_parts(sdep, tdep, K, R, t)
        sig.append(m.tobytes())
        sig.append(np.sign(np.asarray(w) - tdep).tobytes())
        dmaps.append(np.abs(np.asarray(w) - tdep) / (np.asarray(w) + tdep))
    if len(dmaps) == 2:
        sig.append((dmaps[0] <= dmaps[1]).tobytes())
    dn = (1.0 / d2[-1 if scheme == SCHEME_2F else 1])
    dn = dn / dn.mean()
    sig.append(np.sign(dn[:, 1:] - dn[:, :-1]).tobytes())
    sig.append(np.sign(dn[1:, :] - dn[:-1, :]).tobytes())
    return b"".join(sig)


def _mask_stable_instance(scheme, npose, K, eps, depth_probes, seed0=100):
    """Instance whose branch signature is identical at every FD probe."""
    nf = 2 if scheme == SCHEME_2F else 3
    for seed in range(seed0, seed0 + 60):
        r = np.random.default_rng(seed)
        frames = [smooth_image(r, 8, 8) for _ in range(nf)]
        depths = [2.0 + r.random((8, 8)) for _ in range(nf)]
        twists = r.normal(scale=0.03, size=6 * npose)
        dlog = np.log(depths[-1 if scheme == SCHEME_2F else 1])
        base = _branch_signature(scheme, frames, depths, twists, dlog, K)
        stable = True
        for i in range(len(twists)):
            for sgn in (eps, -eps):
                tp = twists.copy(); tp[i] += sgn
                if _branch_signature(scheme, frames, depths, tp, dlog, K) != base:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            for (rr, cc) in depth_probes:
                for sgn in (eps, -eps):
                    dp = dlog.copy(); dp[rr, cc] += sgn
                    if _branch_signature(scheme, frames, depths, twists, dp, K) != base:
                        stable = False
                        break
                if not stable:
                    break
        if stable:
            return frames, depths, twists, dlog
    raise RuntimeError("no branch-stable instance found")


def test_criterion_3_gradient_checks(rng):
    t0 = time.time()
    K = small_intrinsics(8, 8, f=9.0)
    eps = 1e-4
    depth_probes = [(1, 2), (4, 4), (0, 7), (7, 0), (6, 3)]
    for scheme, npose in ((SCHEME_2F, 1), (SCHEME_3F, 2), (SCHEME_BENCHMARK, 2)):
        cfg = LossConfig(scheme=scheme)
        frames, depths, twists, dlog = _mask_stable_instance(
            scheme, npose, K, eps, depth_probes)
        _, g_t, g_d, _ = loss_and_grad(frames, depths, twists, K, cfg, dlog)
        for i in range(len(twists)):
            tp = twists.copy(); tp[i] += eps
            tm = twists.copy(); tm[i] -= eps
            fd = (_loss_only(frames, depths, tp, K, cfg, dlog)
                  - _loss_only(frames, depths, tm, K, cfg, dlog)) / (2 * eps)
            assert abs(g_t[i] - fd) <= 1e-3 * max(abs(fd), 1e-7), (scheme, i)
        for (r, c) in depth_probes:
            dp = dlog.copy(); dp[r, c] += eps
            dm = dlog.copy(); dm[r, c] -= eps
            fd = (_loss_only(frames, depths, twists, K, cfg, dp)
                  - _loss_only(frames, depths, twists, K, cfg, dm)) / (2 * eps)
            assert abs(g_d[r, c] - fd) <= 1e-3 * max(abs(fd), 1e-7)

    # BPTT gradients: every sampled MLP parameter and the scale, 20 steps
    seq, _ = recovery_sequence("g", 5, peak=5.0, period=8.0, duration=8.0,
                               noise_std=0.05)
    prep = dronemodel.prepare_sequence(seq)
    params = dronemodel.init_params(np.random.default_rng(7), scales={"g": 1.3})
    params.norm_mean = np.concatenate([[0, 0, 0], [9.8], [0, 0, 0], [9000.0] * 4])
    params.norm_std = np.concatenate([[2, 2, 2], [1], [1, 1, 1], [500.0] * 4])
    k0, n_steps = 150, 20
    _, grads = dronemodel.window_loss_and_grads(params, prep, k0, n_steps)
    gflat, keys = dronemodel._flatten(params, grads)
    theta0, _ = dronemodel._flatten(params)

    def f(theta):
        p2 = params.copy()
        dronemodel._unflatten_into(p2, theta, keys)
        l, _ = dronemodel.window_loss_and_grads(p2, prep, k0, n_steps)
        return l

    probe_rng = np.random.default_rng(2)
    probes = list(probe_rng.choice(len(theta0) - 1, size=240, replace=False))
    probes.append(len(theta0) - 1)
    for i in probes:
        tp = theta0.copy(); tp[i] += 1e-6
        tm = theta0.copy(); tm[i] -= 1e-6
        fd = (f(tp) - f(tm)) / 2e-6
        assert abs(gflat[i] - fd) <= 1e-3 * max(abs(fd), 1e-7), i
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"criterion 3 took {elapsed:.1f}s"
    _ok(3, f"twist/depth and BPTT gradients match central differences at "
           f"1e-3 relative ({elapsed:.1f}s)")


# --------------------------------------------------------------------------


def test_criterion_4_occlusion_scheme_ordering():
    K = small_intrinsics(64, 48, f=60.0)
    gammas = np.arange(0.7, 1.2001, 0.01)
    err2f, errbm, biased = [], [], []
    for seed in range(20):
        scene, poses, frames, xi1, xi2 = forward_gate_instance(seed, K)
        imgs = [f.image for f in frames]
        deps = [f.depth for f in frames]
        l2f = sweep_losses([imgs[0], imgs[1]], [deps[0], deps[1]], xi1,
                           gammas, K, LossConfig(scheme=SCHEME_2F))
        lbm = sweep_losses(imgs, deps, np.concatenate([xi1, xi2]), gammas, K,
                           LossConfig(scheme=SCHEME_BENCHMARK))
        g2 = gammas[np.argmin(l2f)]
        gb = gammas[np.argmin(lbm)]
        tn = np.linalg.norm(xi1[:3])
        err2f.append(abs(g2 - 1.0) * tn)
        errbm.append(abs(gb - 1.0) * tn)
        biased.append(gb < 1.0 - 1e-9)
    med2, medb = np.median(err2f), np.median(errbm)
    frac = np.mean(biased)
    assert med2 < medb, f"2F median {med2:.4f} !< benchmark {medb:.4f}"
    assert frac >= 0.7, f"benchmark underestimation in only {frac:.0%}"
    _ok(4, f"median translation error 2F {med2:.4f} < benchmark {medb:.4f}; "
           f"benchmark argmin underestimates in {frac:.0%} of 20 instances")


# --------------------------------------------------------------------------


def test_criterion_5_drone_model_recovery():
    t0 = time.time()
    kx, ky, eps_true, plant = 0.5, 0.8, 0.3, 0.37
    noise = 0.2
    s1, sim1 = recovery_sequence("e1", 1, peak=7.5, period=7.5, duration=16.0,
                                 scale_plant=plant, noise_std=noise,
                                 kx=kx, ky=ky, accel_z_bias=eps_true)
    s2, sim2 = recovery_sequence("e2", 2, peak=8.0, period=7.0, duration=16.0,
                                 scale_plant=plant, noise_std=noise, yaw0=0.9,
                                 kx=kx, ky=ky, accel_z_bias=eps_true)
    cfg = dronemodel.TrainConfig(steps=2000, batch=6, lr=5e-3, lr_final=3e-4,
                                 seed=0, cutoff_hz=10.0)
    params, hist = dronemodel.train([s1, s2], cfg)

    want_s = 1.0 / plant
    for sid in ("e1", "e2"):
        rel = abs(params.scales[sid] - want_s) / want_s
        assert rel < 0.05, f"scale {sid} off by {rel:.1%}"

    prep1 = dronemodel.prepare_sequence(s1, cutoff_hz=10.0)
    dx, dy = dronemodel.effective_drag(params, prep1, speed_floor=2.0)
    assert abs(dx - kx) / kx < 0.10, f"d_x {dx:.3f}"
    assert abs(dy - ky) / ky < 0.10, f"d_y {dy:.3f}"

    horizon = int(10.0 * 500)
    ro = dronemodel.rollout(params, prep1,
                            params.scales["e1"] * prep1.base_vel[0],
                            start=0, horizon=horizon)
    gt = sim1.vel_b[:len(ro.vel)]
    rmse = float(np.sqrt(np.mean(np.sum((ro.vel - gt) ** 2, axis=1))))
    assert rmse < 0.15, f"rollout RMSE {rmse:.3f}"

    # student vs noisy teacher at speeds > 5 m/s
    idx = np.clip(np.searchsorted(sim1.imu.t, sim1.cam_t), 0, len(sim1.imu.t) - 1)
    gt_cam = sim1.vel_b[idx]
    teacher_metric = (s1.v_cam @ s1.R_cb.T) * want_s
    ro_full = dronemodel.rollout(params, prep1,
                                 params.scales["e1"] * prep1.base_vel[0])
    student = ro_full.vel[np.clip(idx, 0, len(ro_full.vel) - 1)]
    fast = np.linalg.norm(gt_cam, axis=1) > 5.0
    t_rmse = float(np.sqrt(np.mean(np.sum((teacher_metric[fast] - gt_cam[fast]) ** 2, axis=1))))
    s_rmse = float(np.sqrt(np.mean(np.sum((student[fast] - gt_cam[fast]) ** 2, axis=1))))
    assert s_rmse < t_rmse, f"student {s_rmse:.3f} !< teacher {t_rmse:.3f}"
    elapsed = time.time() - t0
    assert elapsed < 900.0, f"criterion 5 took {elapsed:.1f}s"
    _ok(5, f"scales within 5% ({params.scales['e1']:.3f}, {params.scales['e2']:.3f} "
           f"vs {want_s:.3f}); drag ({dx:.3f}, {dy:.3f}); 10 s rollout RMSE "
           f"{rmse:.3f} m/s; student {s_rmse:.3f} < teacher {t_rmse:.3f} at "
           f">5 m/s ({elapsed:.0f}s)")


# --------------------------------------------------------------------------


def test_criterion_6_attitude_filter():
    f = AttitudeFilter()
    # static convergence < 0.5 deg within 5 s at 500 Hz
    q_wb = quat_from_axis_angle([1, 0, 0], np.radians(15.0))
    s = AttitudeState(np.array([q_wb[0], -q_wb[1], -q_wb[2], -q_wb[3]]))
    for _ in range(2500):
        s = f.propagate(s, np.zeros(3), 0.002)
        s = f.accel_update(s, np.array([0.0, 0.0, G]))
    up = s.rotation_bw() @ np.array([0.0, 0.0, 1.0])
    err_deg = np.degrees(np.arccos(np.clip(up[2], -1, 1)))
    assert err_deg < 0.5

    # gate exactly [0.95, 1.05] g: boundaries included, outside excluded
    tilted = AttitudeState(quat_from_axis_angle([0, 1, 0], -0.2))
    up_dir = np.array([0.0, 0.0, 1.0])
    assert np.linalg.norm(f.correction_vector(tilted, 0.95 * G * up_dir)) > 0
    assert np.linalg.norm(f.correction_vector(tilted, 1.05 * G * up_dir)) > 0
    for bad in (0.9499999 * G, 1.0500001 * G, 1.20 * G):
        s2 = f.accel_update(tilted, bad * up_dir)
        assert s2 is tilted

    # yaw invariance: correction exactly orthogonal to estimated up
    rng = np.random.default_rng(3)
    for _ in range(100):
        st = AttitudeState(quat_from_axis_angle(rng.normal(size=3), rng.uniform(0, 0.6)))
        a = rng.normal(size=3)
        a = a / np.linalg.norm(a) * rng.uniform(0.95 * G, 1.05 * G)
        c = f.correction_vector(st, a)
        up_est = st.rotation_bw() @ np.array([0, 0, 1.0])
        assert abs(c @ up_est) < 1e-15
    _ok(6, f"static convergence to {err_deg:.3f} deg in 5 s; closed-interval "
           f"gate at [0.95, 1.05] g; yaw component of correction exactly 0")


# --------------------------------------------------------------------------


def test_criterion_7_umeyama_exactness():
    rng = np.random.default_rng(11)
    worst_s = worst_R = worst_t = 0.0
    for _ in range(50):
        est = rng.normal(size=(40, 3))
        R = rotvec_to_matrix(rng.normal(size=3))
        t = rng.normal(size=3)
        s = rng.uniform(0.2, 5.0)
        gt = s * est @ R.T + t
        T = umeyama_align(est, gt, with_scale=True)
        worst_s = max(worst_s, abs(T.s - s))
        worst_R = max(worst_R, float(np.max(np.abs(T.rotation_matrix() - R))))
        worst_t = max(worst_t, float(np.max(np.abs(T.t - t))))
    assert worst_s < 1e-9 and worst_R < 1e-9 and worst_t < 1e-9

    # SIM3 RMSE invariant under arbitrary positive scaling of the estimate
    tgrid = np.arange(50) * 0.1
    est = rng.normal(size=(50, 3))
    gt_traj = TrajectoryEstimate(t=tgrid, pos=est + 0.08 * rng.normal(size=(50, 3)))
    base = position_rmse(TrajectoryEstimate(t=tgrid, pos=est), gt_traj, mode="sim3")
    for k in (0.01, 0.37, 42.0):
        rk = position_rmse(TrajectoryEstimate(t=tgrid, pos=k * est), gt_traj, mode="sim3")
        assert abs(rk - base) < 1e-9
    _ok(7, f"planted Sim3 recovered to {max(worst_s, worst_R, worst_t):.2e}; "
           f"RMSE invariant under estimate scaling")


# --------------------------------------------------------------------------


def _fusion_run(sim, model, rate, w, seed, drops, vis_noise):
    cfg = fusion.FusionConfig(model_weight=w, vis_noise_std=vis_noise)
    cam_idx = np.clip(np.searchsorted(sim.imu.t, sim.cam_t), 0, len(sim.imu.t) - 1)
    group = fusion.make_visual_measurements(      # one group of one row
        sim.cam_t, sim.vel_b[cam_idx], rate, vis_noise, [seed + 1000], drops)
    res = fusion.run_filter(sim.imu.t, sim.imu.accel, sim.imu.gyro,
                            sim.motors.rpm, sim.R_wb, [group],
                            model if w > 0 else None, cfg,
                            p0=sim.pos_w[0], v0=sim.vel_w[0])
    est = TrajectoryEstimate(t=res.t[::10], pos=res.pos[0, ::10])
    gt = TrajectoryEstimate(t=sim.t_gt[::10], pos=sim.pos_w[::10])
    return position_rmse(est, gt, mode="se3")


def test_criterion_8_fusion_ordering():
    traj = TrajectorySpec(kind="racing3d", peak_speed=8.0, duration=20.0,
                          period=8.0, z_amplitude=0.8, yaw_mode="follow",
                          ramp=0.6, start_hover=1.0)
    dyn = RefDynamicsParams(kx=0.5, ky=0.8, accel_z_bias=0.3)
    model = constant_output_model(dx=0.5, dy=0.8, eps=0.3)
    drops = []
    t = 1.2
    while t < 19.0:
        drops.append((t, t + 2.0))
        t += 4.0

    sims = []
    for seed in range(10):
        noise = NoiseSpec(seed=seed, gyro_std=0.002, accel_std=0.15,
                          accel_bias=(0.05, -0.04, 0.06),
                          gyro_bias=(2e-4, -1e-4, 1.5e-4))
        sims.append(simulate_imu_motors(traj, dyn, noise))

    summary = []
    for rate in (40.0, 30.0, 20.0):
        r0 = [_fusion_run(sims[s], model, rate, 0.0, s, drops, 0.1) for s in range(10)]
        r3 = [_fusion_run(sims[s], model, rate, 0.3, s, drops, 0.1) for s in range(10)]
        m0, m3 = np.median(r0), np.median(r3)
        assert m3 < m0, f"rate {rate}: w=0.3 median {m3:.3f} !< w=0 {m0:.3f}"
        summary.append(f"{rate:.0f}Hz {m3:.2f}<{m0:.2f}")

    # 120 Hz with clean vision (and clean IMU, the no-harm control):
    # the two weights land within 20% of each other
    clean_sims = []
    for seed in range(10):
        noise = NoiseSpec(seed=seed, gyro_std=1e-4, accel_std=0.02)
        clean_sims.append(simulate_imu_motors(traj, dyn, noise))
    c0 = [_fusion_run(clean_sims[s], model, 120.0, 0.0, s, [], 0.02) for s in range(10)]
    c3 = [_fusion_run(clean_sims[s], model, 120.0, 0.3, s, [], 0.02) for s in range(10)]
    m0, m3 = np.median(c0), np.median(c3)
    assert abs(m3 - m0) / m0 < 0.2, f"120 Hz clean: {m3:.3f} vs {m0:.3f}"
    _ok(8, f"w=0.3 beats w=0 at {'; '.join(summary)}; 120 Hz clean within "
           f"{abs(m3 - m0) / m0:.0%}")


# --------------------------------------------------------------------------


def _hash_dir(root):
    out = {}
    for name in sorted(os.listdir(root)):
        if name.endswith(".echo.cfg"):
            continue
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_criterion_9_determinism_and_round_trips(tmp_path):
    gen_cfg = os.path.join(tmp_path, "g.cfg")
    with open(gen_cfg, "w") as fh:
        fh.write("kind=ellipse\nperiod=6\npeak_speed=3.0\nduration=2.5\n"
                 "cam_hz=20\nimu_hz=200\nwidth=48\nheight=36\nfx=44\nfy=44\n"
                 "seed=5\nsequence_id=det\n")
    a = os.path.join(tmp_path, "a")
    b = os.path.join(tmp_path, "b")
    assert cli_main(["generate", "--config", gen_cfg, "--out", a]) == 0
    assert cli_main(["generate", "--config", gen_cfg, "--out", b]) == 0
    assert _hash_dir(a) == _hash_dir(b)

    est_cfg = os.path.join(tmp_path, "e.cfg")
    with open(est_cfg, "w") as fh:
        fh.write("max_pairs=5\nmax_iters=30\n")
    e1 = os.path.join(tmp_path, "e1")
    e2 = os.path.join(tmp_path, "e2")
    assert cli_main(["estimate", "--dataset", a, "--out", e1, "--config", est_cfg]) == 0
    assert cli_main(["estimate", "--dataset", a, "--out", e2, "--config", est_cfg]) == 0
    assert _hash_dir(e1) == _hash_dir(e2)

    fuse_cfg = os.path.join(tmp_path, "f.cfg")
    with open(fuse_cfg, "w") as fh:
        fh.write("weights=0.0\nrates=20\nseeds=2\nattitude=groundtruth\n")
    f1 = os.path.join(tmp_path, "f1")
    f2 = os.path.join(tmp_path, "f2")
    assert cli_main(["fuse", "--dataset", a, "--out", f1, "--config", fuse_cfg]) == 0
    assert cli_main(["fuse", "--dataset", a, "--out", f2, "--config", fuse_cfg]) == 0
    assert _hash_dir(f1) == _hash_dir(f2)

    # dataset write -> load -> write round-trips byte-exactly
    from selfvio.dataio import DatasetWriter, load_sequence
    ds = load_sequence(a)
    c = os.path.join(tmp_path, "c")
    w = DatasetWriter(c, ds.manifest.sequence_id, ds.manifest.intrinsics,
                      ds.manifest.R_cb, ds.manifest.t_cb, ds.manifest.cam_hz,
                      ds.manifest.imu_hz, depth_scale=ds.manifest.depth_scale)
    for i in range(len(ds.frames.t)):
        w.add_frame(ds.frames.t[i], ds.load_image(i), ds.load_depth(i))
    w.write_imu(ds.imu)
    w.write_motors(ds.motors)
    w.write_groundtruth(ds.groundtruth["t"], ds.groundtruth["pos"],
                        ds.groundtruth["quat_wb"], ds.groundtruth["vel_w"])
    w.finalize()
    for name in sorted(os.listdir(a)):
        if name.endswith(".echo.cfg"):
            continue
        with open(os.path.join(a, name), "rb") as fa, \
                open(os.path.join(c, name), "rb") as fc:
            assert fa.read() == fc.read(), name

    # model serialization round-trips bit-exactly
    rng = np.random.default_rng(4)
    p = dronemodel.init_params(rng, norm_mean=rng.normal(size=11),
                               norm_std=np.abs(rng.normal(size=11)) + 0.1,
                               scales={"det": 2.718281828459045})
    m1 = os.path.join(tmp_path, "m1.json")
    m2 = os.path.join(tmp_path, "m2.json")
    dronemodel.save_params(m1, p)
    dronemodel.save_params(m2, dronemodel.load_params(m1))
    with open(m1, "rb") as fa, open(m2, "rb") as fb:
        assert fa.read() == fb.read()
    _ok(9, "CLI outputs byte-reproducible under fixed seed; dataset and "
           "model files round-trip bit-exactly")
