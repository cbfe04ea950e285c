"""Pose/depth optimizer: convergence contracts and scheme orderings."""

import numpy as np
import pytest

import tape_oracle
from conftest import forward_gate_instance, small_intrinsics, smooth_image

from selfvio import autodiff as ad
from selfvio.geometry import (ContractViolation, SE3Pose, invert_entries, se3_exp,
                              se3_exp_entries, se3_log, warp_grid)
from selfvio.losses import (SCHEME_2F, SCHEME_BENCHMARK, SCHEMES, LossConfig,
                            pair_constants)
from selfvio.poseopt import (DEPTH_MODES, OptimizerConfig, _loss_only, estimate_pose,
                             loss_and_grad, run_sequence, sweep_losses)
from selfvio.synth import SceneSpec, camera_pose, render


def _wall_pair(rng, K, twist, depth=4.0):
    """Fronto-parallel textured wall seen before/after a known motion."""
    scene = SceneSpec(bg_depth=depth, box_back=-6.0, gate_x=depth - 0.5,
                      gate_center=(50.0, 50.0), texture_seed=3)
    p_cur = camera_pose([0.0, 0.0, 1.2])
    # T_cur->prev = p_prev^-1 o p_cur must equal exp(twist)
    p_prev = p_cur.compose(se3_exp(twist).inverse())
    f_prev = render(scene, p_prev, K)
    f_cur = render(scene, p_cur, K)
    return f_prev, f_cur


def test_identical_frames_identity_pose(rng):
    K = small_intrinsics(24, 18, f=22.0)
    img = smooth_image(rng, 18, 24)
    depth = 2.0 + rng.random((18, 24))
    est = estimate_pose([img, img.copy()], [depth, depth.copy()], None, K,
                        OptimizerConfig(), LossConfig(scheme=SCHEME_2F))
    assert np.array_equal(est.twist, np.zeros(6))
    cfg = LossConfig(scheme=SCHEME_2F)
    from selfvio.losses import smoothness_loss
    want = cfg.lambda2 * smoothness_loss(1.0 / depth, img)
    assert abs(est.final_loss - want) < 1e-12


def test_lateral_translation_direction_recovered(rng):
    """Ground-truth-shape depth up to a global scale: direction within 2
    degrees, magnitude matching the depth-scale ratio."""
    K = small_intrinsics(96, 72, f=80.0)
    twist = np.array([0.25, 0.1, 0.05, 0.0, 0.0, 0.0])
    f_prev, f_cur = _wall_pair(rng, K, twist)
    scale = 0.4
    est = estimate_pose([f_prev.image, f_cur.image],
                        [f_prev.depth * scale, f_cur.depth * scale], None, K,
                        OptimizerConfig(max_iters=500),
                        LossConfig(scheme=SCHEME_2F))
    t_est = est.twist[:3]
    t_true = twist[:3]
    cosang = t_est @ t_true / (np.linalg.norm(t_est) * np.linalg.norm(t_true))
    assert np.degrees(np.arccos(np.clip(cosang, -1, 1))) < 2.0
    ratio = np.linalg.norm(t_est) / np.linalg.norm(t_true)
    assert abs(ratio - scale) / scale < 0.05


def test_loss_nonincreasing_and_divergence_free(rng):
    K = small_intrinsics(48, 36, f=45.0)
    scene, poses, frames, xi1, _ = forward_gate_instance(3, K)
    imgs = [f.image for f in frames[:2]]
    deps = [f.depth for f in frames[:2]]
    # verify via repeated short runs: best-so-far loss never increases
    losses = []
    for iters in (5, 15, 40):
        est = estimate_pose(imgs, deps, 0.7 * xi1, K,
                            OptimizerConfig(max_iters=iters),
                            LossConfig(scheme=SCHEME_2F))
        losses.append(est.final_loss)
    assert losses[0] >= losses[1] >= losses[2]


def test_two_frame_mutual_inverse(rng):
    K = small_intrinsics(96, 72, f=90.0)
    twist = np.array([0.12, -0.06, 0.3, 0.01, -0.02, 0.015])
    f_prev, f_cur = _wall_pair(rng, K, twist, depth=5.0)
    imgs = [f_prev.image, f_cur.image]
    deps = [f_prev.depth, f_cur.depth]
    opt = OptimizerConfig(max_iters=250)
    cfg = LossConfig(scheme=SCHEME_2F)
    e_ab = estimate_pose(imgs, deps, None, K, opt, cfg)
    e_ba = estimate_pose(imgs[::-1], deps[::-1], None, K, opt, cfg)
    comp = e_ab.pose().compose(e_ba.pose())
    assert np.linalg.norm(se3_log(comp)) < 1e-2


def test_truth_is_local_minimum_with_gt_depth(rng):
    """Gradient norm at the true pose is smaller than at a 5%-perturbed
    pose, across random scenes. The target is built by warping the
    rendered source through the true geometry (warp-consistent pair), so
    the comparison is not confounded by the bilinear-interpolation noise
    floor of two independent renders."""
    from selfvio.geometry import inverse_warp
    K = small_intrinsics(48, 36, f=45.0)
    wins = 0
    for seed in range(20):
        rng_i = np.random.default_rng(seed + 300)
        scene = SceneSpec(gate_center=(50.0, 50.0), texture_seed=seed)
        p_cur = camera_pose([rng_i.uniform(-1, 1), rng_i.uniform(-1, 1),
                             rng_i.uniform(0.8, 1.6)], yaw=rng_i.uniform(-0.3, 0.3))
        twist = np.concatenate([rng_i.uniform(-0.15, 0.15, 3),
                                rng_i.uniform(-0.02, 0.02, 3)])
        p_prev = p_cur.compose(se3_exp(twist).inverse())
        f_prev = render(scene, p_prev, K)
        f_cur = render(scene, p_cur, K)
        target, _ = inverse_warp(f_prev.image, f_cur.depth, se3_exp(twist), K)
        imgs = [f_prev.image, target]
        deps = [f_prev.depth, f_cur.depth]
        cfg = LossConfig(scheme=SCHEME_2F)
        _, g0, _, _ = loss_and_grad(imgs, deps, twist, K, cfg)
        _, g1, _, _ = loss_and_grad(imgs, deps, twist * 1.05, K, cfg)
        if np.linalg.norm(g0) < np.linalg.norm(g1):
            wins += 1
    assert wins >= 18


def test_run_sequence_static(rng):
    K = small_intrinsics(24, 18, f=22.0)
    img = smooth_image(rng, 18, 24)
    depth = 2.0 + rng.random((18, 24))
    frames = [img.copy() for _ in range(5)]
    depths = [depth.copy() for _ in range(5)]
    times = np.arange(5) * 0.1
    ests, traj, vel = run_sequence(frames, depths, times, K,
                                   OptimizerConfig(), LossConfig(scheme=SCHEME_2F))
    assert all(np.linalg.norm(e.twist) < 1e-9 for e in ests)
    assert np.max(np.abs(traj.pos)) < 1e-9


def test_run_sequence_straight_line(rng):
    """Constant-velocity forward motion: chained trajectory straight
    within 1% RMS after Sim3 alignment."""
    K = small_intrinsics(64, 48, f=60.0)
    scene = SceneSpec(texture_seed=2)
    n = 12
    poses = [camera_pose([0.2 * i, 0.0, 1.2]) for i in range(n)]
    frames = [render(scene, p, K) for p in poses]
    imgs = [f.image for f in frames]
    deps = [f.depth * 0.5 for f in frames]
    times = np.arange(n) / 10.0
    ests, traj, vel = run_sequence(imgs, deps, times, K,
                                   OptimizerConfig(max_iters=100),
                                   LossConfig(scheme=SCHEME_2F))
    # straightness: residual after projecting onto the principal axis
    pos = traj.pos - traj.pos.mean(axis=0)
    _, _, Vt = np.linalg.svd(pos)
    resid = pos - np.outer(pos @ Vt[0], Vt[0])
    rms = np.sqrt((resid ** 2).sum(axis=1).mean())
    path = np.linalg.norm(traj.pos[-1] - traj.pos[0])
    assert rms / path < 0.01


def test_frame_skip_scales_translation(rng):
    K = small_intrinsics(64, 48, f=60.0)
    scene = SceneSpec(gate_center=(50.0, 50.0), texture_seed=11)
    poses = [camera_pose([0.15 * i, 0.0, 1.2]) for i in range(5)]
    frames = [render(scene, p, K) for p in poses]
    cfg = LossConfig(scheme=SCHEME_2F)
    opt = OptimizerConfig(max_iters=200)
    e1 = estimate_pose([frames[0].image, frames[1].image],
                       [frames[0].depth, frames[1].depth], None, K, opt, cfg)
    e3 = estimate_pose([frames[0].image, frames[3].image],
                       [frames[0].depth, frames[3].depth], None, K, opt, cfg)
    r = np.linalg.norm(e3.twist[:3]) / np.linalg.norm(e1.twist[:3])
    assert abs(r - 3.0) < 0.25


def test_truth_initialized_drift_2f_below_benchmark(rng):
    """Joint pose+depth optimization started at the exact solution: the
    masked 2F objective stays put while the unmasked benchmark drags the
    estimate away (the occlusion-error mechanism)."""
    K = small_intrinsics(48, 36, f=45.0)
    from conftest import close_gate_pair
    drift2, driftb = [], []
    for seed in range(8):
        rng_i = np.random.default_rng(seed)
        scene = SceneSpec(texture_seed=seed)
        x0 = rng_i.uniform(2.2, 2.7)
        y0 = scene.gate_center[0] + rng_i.uniform(-0.25, 0.25)
        z0 = scene.gate_center[1] + rng_i.uniform(-0.15, 0.15)
        step_f = rng_i.uniform(0.5, 0.75)
        step_y = rng_i.uniform(-0.15, 0.15)
        dyaw = rng_i.choice([-1, 1]) * rng_i.uniform(0.12, 0.25)
        poses = [camera_pose([x0 + i * step_f, y0 + i * step_y, z0], yaw=i * dyaw)
                 for i in range(3)]
        frames = [render(scene, p, K) for p in poses]
        imgs = [f.image for f in frames]
        deps = [f.depth for f in frames]
        xi1 = se3_log(poses[0].inverse().compose(poses[1]))
        xi2 = se3_log(poses[2].inverse().compose(poses[1]))
        opt = OptimizerConfig(max_iters=120, depth_mode="optimize")
        e2 = estimate_pose(imgs[:2], deps[:2], xi1.copy(), K, opt,
                           LossConfig(scheme=SCHEME_2F))
        eb = estimate_pose(imgs, deps, np.concatenate([xi1, xi2]), K, opt,
                           LossConfig(scheme=SCHEME_BENCHMARK))
        drift2.append(np.linalg.norm(e2.twist[:3] - xi1[:3]))
        driftb.append(np.linalg.norm(eb.twist[:3] - xi1[:3]))
    assert np.median(drift2) < np.median(driftb)


def test_sweep_losses_minimum_near_truth(rng):
    K = small_intrinsics(64, 48, f=60.0)
    scene, poses, frames, xi1, _ = forward_gate_instance(7, K)
    gammas = np.arange(0.7, 1.3001, 0.02)
    l2f = sweep_losses([frames[0].image, frames[1].image],
                       [frames[0].depth, frames[1].depth], xi1, gammas, K,
                       LossConfig(scheme=SCHEME_2F))
    g_star = gammas[np.argmin(l2f)]
    assert abs(g_star - 1.0) <= 0.0601


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("depth_mode", DEPTH_MODES)
def test_pair_constants_are_the_inline_terms(scheme, depth_mode):
    """The pose-independent terms built once per pair give bitwise the loss
    computed inline, and the same twist and depth gradients."""
    K = small_intrinsics(32, 24, f=30.0)
    _, _, frames, xi1, xi2 = forward_gate_instance(5, K)
    n = 1 if scheme == SCHEME_2F else 2
    imgs = [f.image for f in frames[:n + 1]]
    deps = [f.depth for f in frames[:n + 1]]
    twists = 0.9 * (xi1 if n == 1 else np.concatenate([xi1, xi2]))
    dlog = None
    if depth_mode == "optimize":
        dlog = np.log(deps[1]) + 0.01 * np.random.default_rng(1).standard_normal(deps[1].shape)
    cfg = LossConfig(scheme=scheme)
    consts = pair_constants(imgs, cfg, deps if dlog is None else None)

    assert (_loss_only(imgs, deps, twists, K, cfg, dlog, consts)
            == _loss_only(imgs, deps, twists, K, cfg, dlog))
    loss, g_t, g_d, _ = loss_and_grad(imgs, deps, twists, K, cfg, dlog, consts)
    want, want_t, want_d, _ = loss_and_grad(imgs, deps, twists, K, cfg, dlog)
    assert loss == want
    assert np.max(np.abs(g_t - want_t)) <= 1e-12 * np.max(np.abs(want_t))
    if dlog is not None:
        assert np.max(np.abs(g_d - want_d)) <= 1e-12 * np.max(np.abs(want_d))
        # a fixed smoothness term cannot serve an optimized depth
        with pytest.raises(ContractViolation):
            _loss_only(imgs, deps, twists, K, cfg, dlog, pair_constants(imgs, cfg, deps))


def _gate_case(scheme, depth_mode, behind=False):
    """A forward gate pair or triplet at 32x24 with pixels that leave the
    image; with `behind`, a backward cur->prev translation that puts the
    near pixels behind the camera."""
    K = small_intrinsics(32, 24, f=30.0)
    _, _, frames, xi1, xi2 = forward_gate_instance(5, K)
    n = 1 if scheme == SCHEME_2F else 2
    imgs = [f.image for f in frames[:n + 1]]
    deps = [f.depth for f in frames[:n + 1]]
    if behind:
        xi1 = np.array([0.1, -0.05, -1.0 - np.min(deps[1]), 0.02, -0.03, 0.01])
    twists = 0.9 * (xi1 if n == 1 else np.concatenate([xi1, xi2]))
    dlog = None
    if depth_mode == "optimize":
        dlog = np.log(deps[1]) + 0.01 * np.random.default_rng(1).standard_normal(deps[1].shape)
    return K, imgs, deps, twists, dlog


@pytest.mark.parametrize("alpha", [0.0, 0.85, 1.0])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("depth_mode", DEPTH_MODES)
@pytest.mark.parametrize("behind", [False, True])
def test_pose_loss_vjp_equals_tape(scheme, depth_mode, alpha, behind):
    """The closed-form reverse gives the twist and depth gradients of the
    fine-grained tape (tests/tape_oracle.py) to 1e-12 relative, and the
    loss bitwise, with and without the pair constants."""
    K, imgs, deps, twists, dlog = _gate_case(scheme, depth_mode, behind)
    R, t = se3_exp_entries(twists[:6])
    grids = [warp_grid(deps[1], K, R, t)]
    grids.append(warp_grid(deps[0], K, *invert_entries(R, t)) if scheme == SCHEME_2F
                 else warp_grid(deps[1], K, *se3_exp_entries(twists[6:])))
    assert not all(g.stencil.in_bounds.all() for g in grids)
    assert all(g.front.all() for g in grids) != behind
    cfg = LossConfig(scheme=scheme, alpha=alpha)
    for consts in (None, pair_constants(imgs, cfg, deps if dlog is None else None)):
        loss, g_t, g_d, diag = loss_and_grad(imgs, deps, twists, K, cfg, dlog, consts)
        want, want_t, want_d, want_diag = tape_oracle.loss_and_grad(
            imgs, deps, twists, K, cfg, dlog, consts)
        assert loss == want == _loss_only(imgs, deps, twists, K, cfg, dlog, consts)
        assert diag == want_diag
        assert np.max(np.abs(g_t - want_t)) <= 1e-12 * np.max(np.abs(want_t))
        if dlog is None:
            assert g_d is None
        else:
            assert np.max(np.abs(g_d - want_d)) <= 1e-12 * np.max(np.abs(want_d))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("depth_mode", DEPTH_MODES)
def test_loss_and_grad_is_one_loss_node(monkeypatch, scheme, depth_mode):
    """One evaluation's tape is the loss node and its (R, t) and depth-log
    leaves, at most 6 Vars, and Var.backward runs once."""
    K, imgs, deps, twists, dlog = _gate_case(scheme, depth_mode)
    sizes = []
    backward = ad.Var.backward

    def counted(self, seed=None):
        sizes.append(len(ad._topo_order(self)))
        return backward(self, seed)

    monkeypatch.setattr(ad.Var, "backward", counted)
    loss_and_grad(imgs, deps, twists, K, LossConfig(scheme=scheme), dlog)
    assert len(sizes) == 1 and sizes[0] <= 6, sizes
