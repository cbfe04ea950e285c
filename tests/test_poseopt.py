"""Pose/depth optimizer: convergence contracts and scheme orderings."""

import numpy as np
import pytest

import tape_oracle
from conftest import forward_gate_instance, small_intrinsics, smooth_image, sweep_losses

from selfvio import autodiff as ad
from selfvio import poseopt
from selfvio.geometry import (ContractViolation, SE3Pose, invert_entries, se3_exp,
                              se3_exp_entries, se3_log, warp_grid)
from selfvio.losses import (SCHEME_2F, SCHEME_BENCHMARK, SCHEME_FRAMES, SCHEMES, LossConfig,
                            pair_constants)
from selfvio.poseopt import (DEPTH_MODES, OptimizerConfig, _loss_only, estimate_pose,
                             loss_and_grad, run_sequence)
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


@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_sequence_gives_one_estimate_per_window(rng, scheme):
    """m frames give m - SCHEME_FRAMES + 1 estimates, each with the
    scheme's transforms, and a trajectory of one sample more; fewer than
    SCHEME_FRAMES frames are refused."""
    K = small_intrinsics(24, 18, f=22.0)
    img = smooth_image(rng, 18, 24)
    depth = 2.0 + rng.random((18, 24))
    k = SCHEME_FRAMES[scheme]
    for m in (k, 5):
        ests, traj, vel = run_sequence([img] * m, [depth] * m, np.arange(m) * 0.1, K,
                                       OptimizerConfig(), LossConfig(scheme=scheme))
        assert len(ests) == len(vel) == m - k + 1
        assert len(traj.t) == len(traj.pos) == len(ests) + 1
        assert all((e.twist2 is None) == (k == 2) for e in ests)
    with pytest.raises(ContractViolation):
        run_sequence([img] * (k - 1), [depth] * (k - 1), np.arange(k - 1) * 0.1, K,
                     OptimizerConfig(), LossConfig(scheme=scheme))


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


def _flow_of(depths, K, cfg):
    """estimate_pose's peak image flow (px) of a parameter step (d_t, d_d)."""
    n = 1 if cfg.scheme == SCHEME_2F else 2
    z_bar = float(np.mean(depths[-1 if cfg.scheme == SCHEME_2F else 1]))
    f_bar = 0.5 * (K.fx + K.fy)

    def flow_of(d_t, d_d):
        flow = max(f_bar * (np.linalg.norm(d_t[6 * j + 3:6 * j + 6])
                            + np.linalg.norm(d_t[6 * j:6 * j + 3]) / z_bar)
                   for j in range(n))
        return flow if d_d is None else max(flow, f_bar * float(np.abs(d_d).max()))
    return flow_of


def _solver_setup(depths, init, opt, cfg):
    """estimate_pose's starting parameter vector [twists, log target
    depth], the log target depth (None unless in 'optimize' mode), and the
    flow-equalizing diagonal metric."""
    n = 1 if cfg.scheme == SCHEME_2F else 2
    tgt = -1 if cfg.scheme == SCHEME_2F else 1
    dlog = np.log(depths[tgt]) if opt.depth_mode == "optimize" else None
    z_bar = float(np.mean(depths[tgt]))
    metric = np.tile(np.concatenate([np.full(3, z_bar ** 2), np.full(3, 1.0)]), n)
    x = np.asarray(init, dtype=np.float64).copy()
    if dlog is not None:
        x = np.concatenate([x, dlog.ravel()])
        metric = np.concatenate([metric, np.ones(dlog.size)])
    return x, dlog, metric


def _gradient_descent_estimate(frames, depths, init, K, opt, cfg):
    """The solver before L-BFGS: diagonally preconditioned gradient descent
    with the same line search. Returns its best loss."""
    n = 1 if cfg.scheme == SCHEME_2F else 2
    _, dlog, metric = _solver_setup(depths, init, opt, cfg)
    precond = metric[:6 * n]
    consts = pair_constants(frames, cfg, None if dlog is not None else depths)
    flow_of = _flow_of(depths, K, cfg)

    theta = np.asarray(init, dtype=np.float64).copy()
    loss, g_t, g_d, _ = loss_and_grad(frames, depths, theta, K, cfg, dlog, consts)
    best, step_px = loss, opt.step_size
    for _ in range(opt.max_iters):
        d_t, d_d = precond * g_t, g_d
        unit = flow_of(d_t, d_d)
        slope = float(g_t @ d_t) / unit
        if d_d is not None:
            slope += float((g_d * d_d).sum()) / unit
        s = step_px
        while s >= poseopt.MIN_STEP_PX:
            cand_t = theta - (s / unit) * d_t
            cand_d = None if dlog is None else dlog - (s / unit) * d_d
            cand_loss = _loss_only(frames, depths, cand_t, K, cfg, cand_d, consts)
            if cand_loss <= loss - 1e-4 * s * slope:
                break
            s *= 0.5
        else:
            break
        decrease = loss - cand_loss
        theta, dlog, loss = cand_t, cand_d, cand_loss
        step_px = min(s * poseopt.STEP_GROW, poseopt.STEP_MAX)
        best = min(best, loss)
        if decrease < opt.tol:
            break
        loss, g_t, g_d, _ = loss_and_grad(frames, depths, theta, K, cfg, dlog, consts)
    return best


def _reference_estimate_pose(frames, depths, init, K, opt, cfg):
    """The L-BFGS loop with a new forward at every accepted point, for its
    gradient and, at the best point, for the returned diagnostics."""
    n = 1 if cfg.scheme == SCHEME_2F else 2
    x, dlog, metric = _solver_setup(depths, init, opt, cfg)
    consts = pair_constants(frames, cfg, None if dlog is not None else depths)
    flow_of = _flow_of(depths, K, cfg)

    def parts(x):
        return x[:6 * n], None if dlog is None else x[6 * n:].reshape(dlog.shape)

    def gradient(x):
        twists, dl = parts(x)
        loss, g_t, g_d, _ = loss_and_grad(frames, depths, twists, K, cfg, dl, consts)
        return loss, g_t if g_d is None else np.concatenate([g_t, g_d.ravel()])

    loss, g = gradient(x)
    best, pairs = (loss, x), []
    step_px, converged = opt.step_size, False
    for iters in range(1, opt.max_iters + 1):
        d = poseopt._lbfgs_direction(g, pairs, metric)
        unit = flow_of(*parts(d))
        slope = float(g @ d) / unit
        s = min(unit, step_px) if pairs else step_px
        while s >= poseopt.MIN_STEP_PX:
            cand = x - (s / unit) * d
            cand_t, cand_d = parts(cand)
            cand_loss = _loss_only(frames, depths, cand_t, K, cfg, cand_d, consts)
            if cand_loss <= loss - 1e-4 * s * slope:
                break
            s *= 0.5
        else:
            converged = True
            break
        decrease = loss - cand_loss
        x_prev, g_prev = x, g
        x, loss = cand, cand_loss
        step_px = min(s * poseopt.STEP_GROW, poseopt.STEP_MAX)
        if loss < best[0]:
            best = (loss, x)
        if decrease < opt.tol:
            converged = True
            break
        loss, g = gradient(x)
        poseopt._remember(pairs, x - x_prev, g - g_prev)
    loss, x = best
    theta, dlog = parts(x)
    poses_rt, deps = poseopt._poses_and_depths(depths, theta, cfg, dlog)
    diag = poseopt.total_loss_generic(frames, deps, poses_rt, K, cfg, consts)[1]
    return theta, dlog, iters, converged, loss, diag


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("depth_mode", DEPTH_MODES)
def test_estimate_pose_evaluates_each_twist_once(monkeypatch, scheme, depth_mode):
    """The loop that keeps each candidate's forward for its gradient and its
    diagnostics returns bitwise the estimate of the loop that evaluates
    accepted points again, with one forward per line-search candidate plus
    the initial one."""
    K, imgs, deps, twists, _ = _gate_case(scheme, depth_mode)
    opt, cfg = OptimizerConfig(max_iters=12, depth_mode=depth_mode), LossConfig(scheme=scheme)
    theta, dlog, iters, converged, loss, diag = _reference_estimate_pose(
        imgs, deps, twists, K, opt, cfg)

    calls = {"forward": 0, "loss_only": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(poseopt, "total_loss_generic",
                        counted("forward", poseopt.total_loss_generic))
    monkeypatch.setattr(poseopt, "_loss_only", counted("loss_only", poseopt._loss_only))
    est = estimate_pose(imgs, deps, twists, K, opt, cfg)

    assert np.array_equal(est.twist, theta[:6])
    if scheme != SCHEME_2F:
        assert np.array_equal(est.twist2, theta[6:])
    if dlog is not None:
        assert np.array_equal(est.depth, np.exp(dlog))
    assert (est.iterations, est.converged, est.final_loss) == (iters, converged, loss)
    assert est.diagnostics == diag
    assert est.iterations > 1 and est.backtracks > 0
    assert calls["forward"] == calls["loss_only"] + 1


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("depth_mode", DEPTH_MODES)
def test_line_search_stops_at_the_flow_floor(monkeypatch, scheme, depth_mode):
    """No candidate step is below MIN_STEP_PX of image flow, and the steps
    of one iteration halve from its first, so an iteration rejects at most
    ceil(log2(STEP_MAX / MIN_STEP_PX)) candidates. Only the last iteration
    may try none: its proposed step was below the floor, so the pair is
    converged."""
    K, imgs, deps, twists, _ = _gate_case(scheme, depth_mode)
    opt, cfg = OptimizerConfig(max_iters=100, depth_mode=depth_mode), LossConfig(scheme=scheme)
    flow_of = _flow_of(deps, K, cfg)
    iterations = []     # per iteration: its start point and its candidates' steps (px)

    def gradient(frames, depths, twists, K, cfg, depth_log=None, consts=None, kept=None):
        iterations.append((np.array(twists), depth_log, []))
        return loss_and_grad(frames, depths, twists, K, cfg, depth_log, consts, kept)

    def candidate(frames, depths, twists, K, cfg, depth_log=None, consts=None, keep=None):
        theta, dlog, steps = iterations[-1]
        steps.append(flow_of(theta - twists, None if dlog is None else dlog - depth_log))
        return _loss_only(frames, depths, twists, K, cfg, depth_log, consts, keep)

    monkeypatch.setattr(poseopt, "loss_and_grad", gradient)
    monkeypatch.setattr(poseopt, "_loss_only", candidate)
    est = estimate_pose(imgs, deps, twists, K, opt, cfg)

    bound = int(np.ceil(np.log2(poseopt.STEP_MAX / poseopt.MIN_STEP_PX)))
    assert est.converged and est.backtracks > 0
    for k, (_, _, steps) in enumerate(iterations):
        assert (k + 1 == len(iterations) or len(steps) >= 1) and len(steps) <= bound
        if steps:
            assert min(steps) >= poseopt.MIN_STEP_PX * (1 - 1e-6)
            assert np.allclose(steps, steps[0] * 0.5 ** np.arange(len(steps)), rtol=1e-6)
    # every iteration but the last accepted its last candidate
    rejected = sum(len(steps) - 1 for _, _, steps in iterations[:-1])
    assert est.backtracks - rejected in (len(iterations[-1][2]) - 1, len(iterations[-1][2]))


def _dense_bfgs_product(g, pairs, metric):
    """H g with H built densely: H₀ = γ diag(metric), γ from the newest
    pair, then each pair's BFGS update H <- Vᵀ H V + ρ s sᵀ, V = I - ρ y sᵀ."""
    _, y, rho = pairs[-1]
    H = np.diag(metric) / (rho * (y @ (metric * y)))
    eye = np.eye(len(g))
    for s, y, rho in pairs:
        V = eye - rho * np.outer(y, s)
        H = V.T @ H @ V + rho * np.outer(s, s)
    return H @ g


def test_lbfgs_direction_is_the_dense_bfgs_product():
    """The two-loop recursion over the newest MEMORY pairs gives the dense
    BFGS inverse-Hessian product to 1e-12, and metric * g without pairs."""
    rng = np.random.default_rng(4)
    for dim in (6, 12, 40):
        A = rng.standard_normal((dim, dim))
        A = A @ A.T + 0.1 * np.eye(dim)       # s ᵀA s > 0: every pair is kept
        metric = rng.uniform(0.1, 10.0, dim)
        g = rng.standard_normal(dim)
        pairs = []
        assert np.array_equal(poseopt._lbfgs_direction(g, pairs, metric), metric * g)
        for k in range(poseopt.MEMORY + 3):
            s = rng.standard_normal(dim)
            poseopt._remember(pairs, s, A @ s)
            assert len(pairs) == min(k + 1, poseopt.MEMORY)
            want = _dense_bfgs_product(g, pairs, metric)
            got = poseopt._lbfgs_direction(g, pairs, metric)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_lbfgs_memory_skips_nonpositive_curvature_and_resets_on_ascent():
    """A pair with sᵀy <= 0 is not kept, and a memory whose direction is not
    a descent direction is cleared, the direction falling back to metric * g."""
    rng = np.random.default_rng(5)
    metric = rng.uniform(0.5, 2.0, 6)
    g = rng.standard_normal(6)
    pairs = []
    s = rng.standard_normal(6)
    poseopt._remember(pairs, s, s)
    kept = list(pairs)
    for y in (-s, np.zeros(6)):
        poseopt._remember(pairs, s, y)
        assert pairs == kept
    # a negative-curvature pair, put in past the check, turns H g uphill
    pairs = [(g, g, -4.0 / (g @ g))]
    assert g @ _dense_bfgs_product(g, pairs, metric) <= 0
    assert np.array_equal(poseopt._lbfgs_direction(g, pairs, metric), metric * g)
    assert pairs == []


def test_lbfgs_reaches_a_lower_loss_than_gradient_descent():
    """On 10 gate pairs and 10 gate triplets from zero at a 15-iteration
    budget, the median of L-BFGS's final loss over the old diagonally
    preconditioned gradient descent's is below 1."""
    K = small_intrinsics(48, 36, f=45.0)
    opt = OptimizerConfig(max_iters=15)
    ratios = []
    for scheme in (SCHEME_2F, "3f"):
        k = SCHEME_FRAMES[scheme]
        cfg = LossConfig(scheme=scheme)
        for seed in range(10):
            _, _, frames, _, _ = forward_gate_instance(seed, K)
            imgs = [f.image for f in frames[:k]]
            deps = [f.depth for f in frames[:k]]
            init = np.zeros(6 * (k - 1))
            est = estimate_pose(imgs, deps, init, K, opt, cfg)
            ratios.append(est.final_loss
                          / _gradient_descent_estimate(imgs, deps, init, K, opt, cfg))
    assert np.median(ratios) < 1.0, np.round(ratios, 3)


def _gate_sequence(n):
    """n frames at 32x24 flying toward the gate with a slow yaw."""
    K = small_intrinsics(32, 24, f=30.0)
    scene = SceneSpec(texture_seed=5)
    poses = [camera_pose([1.8 + 0.5 * i, scene.gate_center[0] + 0.05 * i,
                          scene.gate_center[1]], yaw=0.02 * i) for i in range(n)]
    frames = [render(scene, p, K) for p in poses]
    return K, [f.image for f in frames], [f.depth for f in frames], np.arange(n) / 10.0


def test_run_sequence_marks_restarted_pairs_retried(monkeypatch):
    """A pair whose start fails is estimated again from zero and marked
    `retried`; a pair whose restart fails too keeps its start, not
    converged; pairs that never fail are not marked."""
    K, imgs, deps, times = _gate_sequence(5)
    opt, cfg = OptimizerConfig(max_iters=10), LossConfig(scheme=SCHEME_2F)
    assert not any(e.retried for e in run_sequence(imgs, deps, times, K, opt, cfg)[0])
    estimate = poseopt.estimate_pose

    def failing_start(frames, depths, init, *args):
        if init is not None:
            raise poseopt.OptimizationDiverged("start failed", [])
        return estimate(frames, depths, init, *args)

    monkeypatch.setattr(poseopt, "estimate_pose", failing_start)
    ests = run_sequence(imgs, deps, times, K, opt, cfg)[0]
    assert all(e.retried and np.isfinite(e.final_loss) for e in ests)

    def failing(*args):
        raise poseopt.OptimizationDiverged("failed", [])

    monkeypatch.setattr(poseopt, "estimate_pose", failing)
    ests = run_sequence(imgs, deps, times, K, opt, cfg)[0]
    assert all(e.retried and not e.converged and np.isnan(e.final_loss) for e in ests)


@pytest.mark.parametrize("depth_mode", DEPTH_MODES)
def test_run_sequence_evaluates_each_warm_start_once(monkeypatch, depth_mode):
    """The warm-start check keeps the warm twist's forward, and when that
    twist wins, estimate_pose's first gradient runs only its reverse: one
    forward per twist visited ('optimize' mode checks on the plain depths
    and keeps nothing), and bitwise the estimates of the loop that
    evaluates the warm start again."""
    K, imgs, deps, times = _gate_sequence(6)
    opt, cfg = OptimizerConfig(max_iters=20, depth_mode=depth_mode), LossConfig(scheme="3f")
    estimate = poseopt.estimate_pose
    with monkeypatch.context() as m:
        m.setattr(poseopt, "estimate_pose", lambda *args: estimate(*args[:7]))
        want = run_sequence(imgs, deps, times, K, opt, cfg)[0]

    calls = {"forward": 0, "loss_only": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(poseopt, "total_loss_generic",
                        counted("forward", poseopt.total_loss_generic))
    monkeypatch.setattr(poseopt, "_loss_only", counted("loss_only", poseopt._loss_only))
    ests = run_sequence(imgs, deps, times, K, opt, cfg)[0]

    assert len(ests) == len(want) == 4 and sum(e.warm_start for e in ests) >= 2
    for e, w in zip(ests, want):
        for a, b in ((e.twist, w.twist), (e.twist2, w.twist2)):
            assert np.array_equal(a, b)
        if depth_mode == "optimize":
            assert np.array_equal(e.depth, w.depth)
        assert (e.converged, e.final_loss, e.iterations, e.backtracks, e.warm_start,
                e.diagnostics) == (w.converged, w.final_loss, w.iterations,
                                   w.backtracks, w.warm_start, w.diagnostics)
    cold = len(ests) if depth_mode == "optimize" else sum(not e.warm_start for e in ests)
    assert calls["forward"] == calls["loss_only"] + cold
