"""Direct per-frame pose (and optional depth) estimation by gradient
descent on the reconstruction losses — the desk-scale stand-in for the
CNN pose/depth networks, exercising exactly the same objectives.

The relative pose is a 6-vector twist (12 for the triplet schemes, which
carry two transforms); each twist enters the warp as the (R, t) arrays of
`se3_exp_entries`. The gradient comes from the loss's closed-form reverse
(`total_loss_generic` with its vjp), run by one `autodiff.Var` loss node
whose parents are the (R, t) of each pose and, when the target depth is
optimized, its log; `se3_exp_vjp` then carries (dR, dt) back to the twist.
Plain gradient descent with backtracking (Armijo) line search:
deterministic, loss non-increasing across accepted steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .evalign import TrajectoryEstimate
from .geometry import ContractViolation, SE3Pose, se3_exp, se3_exp_entries, se3_exp_vjp
from .losses import (SCHEME_2F, DegenerateBatchError, LossConfig, LossDiagnostics,
                     pair_constants, total_loss_generic)

DEPTH_MODES = ("gt-scaled", "optimize")

# line search: halvings per iteration, step growth after an accepted step,
# and the flow budget cap per iteration (px)
MAX_BACKTRACKS = 25
STEP_GROW = 1.6
STEP_MAX = 2.0


class OptimizationDiverged(RuntimeError):
    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


@dataclass
class OptimizerConfig:
    max_iters: int = 100
    step_size: float = 0.25        # initial step, in pixels of image flow
    tol: float = 1e-9              # stop when the loss decrease falls below
    depth_mode: str = "gt-scaled"

    def __post_init__(self):
        if self.step_size <= 0 or self.max_iters < 0:
            raise ContractViolation("step size and iteration budget must be positive")
        if self.depth_mode not in DEPTH_MODES:
            raise ContractViolation(f"unknown depth mode {self.depth_mode!r}")


@dataclass
class PoseEstimate:
    twist: np.ndarray              # cur -> prev twist (6,)
    converged: bool
    final_loss: float
    iterations: int
    twist2: np.ndarray | None = None   # cur -> next (triplet schemes)
    depth: np.ndarray | None = None    # refined target depth (optimize mode)
    diagnostics: LossDiagnostics | None = None   # loss components at the returned twist

    def pose(self) -> SE3Pose:
        return se3_exp(self.twist)


def _n_twists(cfg: LossConfig):
    return 1 if cfg.scheme == SCHEME_2F else 2


def _check_consts(consts, depth_log):
    if depth_log is not None and consts is not None and consts.smoothness is not None:
        raise ContractViolation("pair constants with a fixed smoothness term "
                                "cannot serve an optimized depth")


def _poses_and_depths(depths, twists, cfg, depth_log):
    """The (R, t) of each twist, and the depths with the target entry
    replaced by exp(depth_log) when it is given."""
    poses_rt = [se3_exp_entries(twists[6 * j:6 * j + 6]) for j in range(_n_twists(cfg))]
    depths = list(depths)
    if depth_log is not None:
        depths[1] = np.exp(depth_log)
    return poses_rt, depths


def loss_and_grad(frames, depths, twists, K, cfg: LossConfig, depth_log=None, consts=None):
    """Total loss, its twist gradient, and optionally the gradient with
    respect to log target depth.

    twists: (6*n,) stacked twist vector. depth_log: (H,W) log of the
    target-frame depth; when given, it replaces the target entry of
    `depths` through exp(). consts: the pair's `pair_constants`, when the
    caller evaluates the pair repeatedly.
    """
    _check_consts(consts, depth_log)
    twists = np.asarray(twists, dtype=np.float64)
    poses_rt, depths = _poses_and_depths(depths, twists, cfg, depth_log)
    loss, diag, vjp = total_loss_generic(frames, depths, poses_rt, K, cfg, consts, True)

    # one loss node over the (R, t) leaves of each pose and the depth log
    leaves = [ad.Var(x) for rt in poses_rt for x in rt]
    if depth_log is not None:
        leaves.append(ad.Var(depth_log))

    def reverse(g):
        d_poses, d_depth = vjp(g, depth_log is not None)
        grads = [d for rt in d_poses for d in rt]
        if depth_log is not None:
            grads.append(d_depth * depths[1])      # through exp()
        return grads

    ad.Var(loss, tuple(leaves), reverse).backward()
    g_twist = np.concatenate([
        se3_exp_vjp(twists[6 * j:6 * j + 6], leaves[2 * j].grad, leaves[2 * j + 1].grad)
        for j in range(len(poses_rt))])
    g_depth = None if depth_log is None else leaves[-1].grad
    return float(loss), g_twist, g_depth, diag


def _forward(frames, depths, twists, K, cfg, depth_log=None, consts=None):
    _check_consts(consts, depth_log)
    poses_rt, depths = _poses_and_depths(depths, np.asarray(twists, dtype=np.float64),
                                         cfg, depth_log)
    return total_loss_generic(frames, depths, poses_rt, K, cfg, consts)


def _loss_only(frames, depths, twists, K, cfg, depth_log=None, consts=None):
    return float(_forward(frames, depths, twists, K, cfg, depth_log, consts)[0])


def estimate_pose(frames, depths, init, K, opt: OptimizerConfig,
                  cfg: LossConfig) -> PoseEstimate:
    """Gradient descent on the scheme's total loss over the pose twist(s)
    (and log target depth in 'optimize' mode). Deterministic; returns the
    best-so-far iterate.

    Steps are taken in a fixed diagonal metric that equalizes the pixel
    displacement caused by unit translation (~fx/depth) and unit rotation
    (~fx) parameters; plain gradient descent is hopelessly ill-conditioned
    across those blocks otherwise."""
    n = _n_twists(cfg)
    frames = [np.asarray(f, dtype=np.float64) for f in frames]
    depths = [np.asarray(d, dtype=np.float64) for d in depths]

    theta = np.zeros(6 * n) if init is None else np.asarray(init, dtype=np.float64).copy()
    if theta.shape != (6 * n,) or not np.all(np.isfinite(theta)):
        raise ContractViolation(f"init twist must be a finite ({6 * n},) vector")
    dlog = np.log(depths[-1 if cfg.scheme == SCHEME_2F else 1]) \
        if opt.depth_mode == "optimize" else None
    consts = pair_constants(frames, cfg, None if dlog is not None else depths)

    z_bar = float(np.mean(depths[-1 if cfg.scheme == SCHEME_2F else 1]))
    f_bar = 0.5 * (K.fx + K.fy)
    precond = np.tile(np.concatenate([
        np.full(3, z_bar ** 2), np.full(3, 1.0)]), n)

    def flow_of(d_t, d_d):
        """Approximate peak image flow (px) induced by a parameter step."""
        flow = 0.0
        for j in range(n):
            rho, phi = d_t[6 * j:6 * j + 3], d_t[6 * j + 3:6 * j + 6]
            flow = max(flow, f_bar * (np.linalg.norm(phi)
                                      + np.linalg.norm(rho) / z_bar))
        if d_d is not None:
            flow = max(flow, f_bar * float(np.abs(d_d).max()))
        return flow

    trace = []
    loss, g_t, g_d, _ = loss_and_grad(frames, depths, theta, K, cfg, dlog, consts)
    if not np.isfinite(loss):
        raise OptimizationDiverged("initial loss is not finite", trace)
    best = (loss, theta.copy(), None if dlog is None else dlog.copy())
    step_px = opt.step_size
    iters = 0
    converged = False
    for iters in range(1, opt.max_iters + 1):
        d_t = precond * g_t
        d_d = g_d
        unit = flow_of(d_t, d_d)
        if unit == 0.0:
            converged = True
            break
        slope = float(g_t @ d_t) / unit
        if d_d is not None:
            slope += float((g_d * d_d).sum()) / unit
        accepted = False
        s = step_px
        for _ in range(MAX_BACKTRACKS):
            cand_t = theta - (s / unit) * d_t
            cand_d = None if dlog is None else dlog - (s / unit) * d_d
            try:
                cand_loss = _loss_only(frames, depths, cand_t, K, cfg, cand_d, consts)
            except DegenerateBatchError:
                cand_loss = np.inf     # candidate left no valid pixels
            if np.isnan(cand_loss):
                raise OptimizationDiverged("loss became NaN", trace)
            if cand_loss <= loss - 1e-4 * s * slope:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            converged = True
            break
        decrease = loss - cand_loss
        theta, dlog, loss = cand_t, cand_d, cand_loss
        step_px = min(s * STEP_GROW, STEP_MAX)
        trace.append(loss)
        if loss < best[0]:
            best = (loss, theta.copy(), None if dlog is None else dlog.copy())
        if decrease < opt.tol:
            converged = True
            break
        loss, g_t, g_d, _ = loss_and_grad(frames, depths, theta, K, cfg, dlog, consts)

    loss, theta, dlog = best
    return PoseEstimate(
        twist=theta[:6], converged=converged, final_loss=loss, iterations=iters,
        twist2=theta[6:12] if n == 2 else None,
        depth=None if dlog is None else np.exp(dlog),
        diagnostics=_forward(frames, depths, theta, K, cfg, dlog, consts)[1],
    )


def run_sequence(frames, depths, times, K, opt: OptimizerConfig,
                 cfg: LossConfig):
    """Chain pairwise estimates over a frame list (constant-velocity warm
    start). Returns (estimates, TrajectoryEstimate, cam_velocities).

    For the 2f scheme, pair i covers frames (i-1, i); the triplet schemes
    estimate over (i-1, i, i+1) and report the cur->prev transform, so
    the final pair is dropped. Failed pairs are marked not-converged and
    keep their warm-start twist.
    """
    m = len(frames)
    if m < 2:
        raise ContractViolation("need at least two frames")
    n = _n_twists(cfg)
    last = m if n == 1 else m - 1

    estimates = []
    warm = np.zeros(6 * n)
    positions = [np.zeros(3)]
    pose_acc = SE3Pose.identity()
    cam_vel = []
    for i in range(1, last):
        if n == 1:
            fr = [frames[i - 1], frames[i]]
            dp = [depths[i - 1], depths[i]]
        else:
            fr = [frames[i - 1], frames[i], frames[i + 1]]
            dp = [depths[i - 1], depths[i], depths[i + 1]]
        # a poisoned warm start locks the whole chain into a bad basin:
        # seed from whichever of {previous twist, zero} scores lower
        if np.any(warm):
            try:
                l_warm = _loss_only(fr, dp, warm, K, cfg)
            except DegenerateBatchError:
                l_warm = np.inf
            try:
                l_zero = _loss_only(fr, dp, np.zeros_like(warm), K, cfg)
            except DegenerateBatchError:
                l_zero = np.inf
            if l_zero < l_warm:
                warm = np.zeros_like(warm)
        try:
            est = estimate_pose(fr, dp, warm, K, opt, cfg)
        except (OptimizationDiverged, DegenerateBatchError):
            try:
                est = estimate_pose(fr, dp, None, K, opt, cfg)
            except (OptimizationDiverged, DegenerateBatchError):
                est = PoseEstimate(twist=warm[:6].copy(), converged=False,
                                   final_loss=np.nan, iterations=0,
                                   twist2=warm[6:12].copy() if n == 2 else None)
        estimates.append(est)
        warm = est.twist if n == 1 else np.concatenate([est.twist, est.twist2])

        P = est.pose()             # cur -> prev
        pose_acc = pose_acc.compose(P)
        positions.append(pose_acc.t.copy())
        dt = float(times[i] - times[i - 1])
        cam_vel.append(P.t / dt)

    traj = TrajectoryEstimate(t=np.asarray(times[:last], dtype=np.float64),
                              pos=np.stack(positions))
    return estimates, traj, np.stack(cam_vel) if cam_vel else np.zeros((0, 3))


def sweep_losses(frames, depths, base_twists, gammas, K, cfg: LossConfig):
    """Total loss along the 1-D family pose(gamma) = exp(gamma * twist).

    base_twists: the true twist(s), stacked (6*n,). Used to probe where
    each scheme's objective puts its minimum along the true motion
    direction.
    """
    base = np.asarray(base_twists, dtype=np.float64)
    consts = pair_constants(frames, cfg, depths)
    out = np.empty(len(gammas))
    for i, g in enumerate(gammas):
        try:
            out[i] = _loss_only(frames, depths, g * base, K, cfg, consts=consts)
        except DegenerateBatchError:
            out[i] = np.inf      # candidate leaves no jointly-valid pixels
    return out
