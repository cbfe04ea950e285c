"""Direct per-frame pose (and optional depth) estimation by quasi-Newton
descent on the reconstruction losses — the desk-scale stand-in for the
CNN pose/depth networks, exercising exactly the same objectives.

The relative pose is a 6-vector twist (12 for the triplet schemes, which
carry two transforms); each twist enters the warp as the (R, t) arrays of
`se3_exp_entries`. The gradient comes from the loss's closed-form reverse
(the vjp that every `total_loss_generic` forward returns), run by one
`autodiff.Var` loss node whose parents are the (R, t) of each pose and,
when the target depth is optimized, its log; `se3_exp_vjp` then carries
(dR, dt) back to the twist.

The search direction is limited-memory BFGS (Liu & Nocedal, Math.
Programming 1989) over one parameter vector, the twists followed, in
'optimize' mode, by the log target depth: the two-loop recursion over the
last `MEMORY` curvature pairs, started from the diagonal metric that
equalizes the image flow of translation, rotation and depth steps. A
backtracking (Armijo) line search along it keeps the run deterministic
and the loss non-increasing across accepted steps. The line search halves
its step only while the step's peak image flow is at least
`MIN_STEP_PX`: a step far below a pixel cannot change what the image says
about the pose, so when the proposed step, or every candidate at or above
that floor, fails to decrease the loss enough, the pair is converged at
its current iterate.

Every twist the loop visits is evaluated once. Every forward carries its
reverse (`_Evaluation.vjp`); when a line-search candidate is accepted,
`loss_and_grad` runs only the reverse of the evaluation that `_loss_only`
handed out in its `keep` list, and the returned estimate's diagnostics
are those of its best point's own evaluation. At most one kept forward is
alive at a time: a rejected candidate's is dropped before the next
candidate runs. The arrays it
frees go back to the heap, not to the OS, once `cli.main` has raised
glibc's mmap and trim thresholds, so the next evaluation reuses them
without faulting its pages in again. The caller may hand in the
evaluation of the starting point as well (`estimate_pose(..., start=)`):
`run_sequence`'s warm-start check keeps the forward of the warm twist, and
when that twist wins, the first gradient is only its reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .evalign import TrajectoryEstimate
from .geometry import ContractViolation, SE3Pose, se3_exp, se3_exp_entries, se3_exp_vjp
from .losses import (SCHEME_FRAMES, DegenerateBatchError, LossConfig, LossDiagnostics,
                     pair_constants, total_loss_generic)

DEPTH_MODES = ("gt-scaled", "optimize")

# line search: the smallest candidate step, step growth after an accepted
# step, and the flow budget cap per iteration (all in px of image flow)
MIN_STEP_PX = 2e-3
STEP_GROW = 1.6
STEP_MAX = 2.0
# curvature pairs (s, y) that the L-BFGS direction keeps
MEMORY = 6


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
        if self.step_size < MIN_STEP_PX or self.max_iters < 0:
            raise ContractViolation(f"step size must be at least the line search's "
                                    f"{MIN_STEP_PX} px floor, and the iteration "
                                    "budget non-negative")
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
    backtracks: int = 0            # rejected line-search candidates
    warm_start: bool = False       # started from the previous pair's twist (run_sequence)
    retried: bool = False          # restarted from zero after a failed start (run_sequence)

    def pose(self) -> SE3Pose:
        return se3_exp(self.twist)


def _n_twists(cfg: LossConfig):
    return SCHEME_FRAMES[cfg.scheme] - 1


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


class _Evaluation(NamedTuple):
    """One forward: its loss and diagnostics, its reverse, and the (R, t)
    and depths it ran on."""
    loss: float
    diag: LossDiagnostics
    vjp: object
    poses_rt: list
    depths: list


def _evaluate(frames, depths, twists, K, cfg, depth_log, consts):
    """The forward at the twists, with depths' target entry replaced by
    exp(depth_log) when that is given."""
    _check_consts(consts, depth_log)
    poses_rt, depths = _poses_and_depths(depths, np.asarray(twists, dtype=np.float64),
                                         cfg, depth_log)
    return _Evaluation(*total_loss_generic(frames, depths, poses_rt, K, cfg, consts),
                       poses_rt, depths)


def loss_and_grad(frames, depths, twists, K, cfg: LossConfig, depth_log=None, consts=None,
                  kept=None):
    """Total loss, its twist gradient, and optionally the gradient with
    respect to log target depth.

    twists: (6*n,) stacked twist vector. depth_log: (H,W) log of the
    target-frame depth; when given, it replaces the target entry of
    `depths` through exp(). consts: the pair's `pair_constants`, when the
    caller evaluates the pair repeatedly. kept: the evaluation that
    `_loss_only(..., keep)` kept at these twists and depth_log; its reverse
    runs in place of a new forward.
    """
    twists = np.asarray(twists, dtype=np.float64)
    if kept is None:
        kept = _evaluate(frames, depths, twists, K, cfg, depth_log, consts)
    loss, diag, vjp, poses_rt, depths = kept

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


def _loss_only(frames, depths, twists, K, cfg, depth_log=None, consts=None, keep=None):
    """The total loss at the twists, as a float. keep: a list that receives
    the evaluation, for `loss_and_grad(..., kept)`."""
    ev = _evaluate(frames, depths, twists, K, cfg, depth_log, consts)
    if keep is not None:
        keep.append(ev)
    return float(ev.loss)


def _remember(pairs, s, y):
    """Append the curvature pair (s, y, 1 / sᵀy) to `pairs` when sᵀy > 0,
    keeping the newest `MEMORY`; a pair without positive curvature would
    make the inverse Hessian indefinite, so it is skipped."""
    sy = float(s @ y)
    if sy > 0.0:
        pairs.append((s, y, 1.0 / sy))
        del pairs[:-MEMORY]


def _lbfgs_direction(g, pairs, metric):
    """H g for the L-BFGS inverse Hessian H of `pairs` (oldest first),
    by the two-loop recursion from H₀ = γ diag(metric), with γ = sᵀy /
    yᵀ(metric y) of the newest pair (1 without pairs). When H g is not a
    descent direction (gᵀ H g ≤ 0, which rounding alone can cause), the
    pairs are cleared and the direction is metric * g."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    if pairs:
        _, y, rho = pairs[-1]
        r = q * metric / (rho * float(y @ (metric * y)))
    else:
        r = metric * q
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        r += (a - rho * float(y @ r)) * s
    if not float(g @ r) > 0.0:
        pairs.clear()
        return metric * g
    return r


def estimate_pose(frames, depths, init, K, opt: OptimizerConfig,
                  cfg: LossConfig, consts=None, start=None) -> PoseEstimate:
    """L-BFGS on the scheme's total loss over the pose twist(s) (and log
    target depth in 'optimize' mode). Deterministic; returns the
    best-so-far iterate. consts: the pair's `pair_constants` (with the
    depths in 'gt-scaled' mode, without them in 'optimize' mode), when the
    caller has built them already. start: the evaluation that
    `_loss_only(..., keep)` kept at `init` with these consts and the
    starting log depth; the first gradient then runs only its reverse.

    The metric of the direction's H₀ equalizes the pixel displacement
    caused by unit translation (~fx/depth), rotation (~fx) and log-depth
    (~fx) parameters; without it the blocks are hopelessly ill-conditioned.
    Each iteration's line search tries a first step of `step_px` pixels of
    flow while the memory is empty, and of the smaller of `step_px` and
    the full L-BFGS step's flow after that; it halves the step while it is
    at least `MIN_STEP_PX` and accepts the first that meets the Armijo
    condition. `step_px` grows by `STEP_GROW` after an accepted step, up to
    `STEP_MAX`. The pair is converged when the first step is below the
    floor, when no step meets the condition, or when an accepted step
    decreases the loss by less than `opt.tol`."""
    n = _n_twists(cfg)
    frames = [np.asarray(f, dtype=np.float64) for f in frames]
    depths = [np.asarray(d, dtype=np.float64) for d in depths]

    x = np.zeros(6 * n) if init is None else np.asarray(init, dtype=np.float64).copy()
    if x.shape != (6 * n,) or not np.all(np.isfinite(x)):
        raise ContractViolation(f"init twist must be a finite ({6 * n},) vector")
    optimize = opt.depth_mode == "optimize"
    if consts is None:
        consts = pair_constants(frames, cfg, None if optimize else depths)

    z_bar = float(np.mean(depths[1]))
    f_bar = 0.5 * (K.fx + K.fy)
    metric = np.tile(np.concatenate([np.full(3, z_bar ** 2), np.full(3, 1.0)]), n)
    if optimize:
        x = np.concatenate([x, np.log(depths[1]).ravel()])
        metric = np.concatenate([metric, np.ones(depths[1].size)])

    def split(x):
        """(twists, log depth or None) of a parameter vector."""
        return x[:6 * n], x[6 * n:].reshape(depths[1].shape) if optimize else None

    def flow_of(d):
        """Approximate peak image flow (px) induced by a parameter step."""
        flow = max(f_bar * (np.linalg.norm(d[j + 3:j + 6]) + np.linalg.norm(d[j:j + 3]) / z_bar)
                   for j in range(0, 6 * n, 6))
        return max(flow, f_bar * float(np.abs(d[6 * n:]).max())) if optimize else flow

    def gradient(x, kept):
        twists, dlog = split(x)
        loss, g_t, g_d, diag = loss_and_grad(frames, depths, twists, K, cfg, dlog, consts, kept)
        return loss, g_t if g_d is None else np.concatenate([g_t, g_d.ravel()]), diag

    trace = []
    loss, g, diag = gradient(x, start)
    if not np.isfinite(loss):
        raise OptimizationDiverged("initial loss is not finite", trace)
    best = (loss, x, diag)
    pairs = []
    step_px = opt.step_size
    iters = backtracks = 0
    converged = False
    for iters in range(1, opt.max_iters + 1):
        d = _lbfgs_direction(g, pairs, metric)
        unit = flow_of(d)
        if unit == 0.0:
            converged = True
            break
        slope = float(g @ d) / unit
        accepted = False
        s = min(unit, step_px) if pairs else step_px
        while s >= MIN_STEP_PX:
            cand = x - (s / unit) * d
            cand_t, cand_d = split(cand)
            kept = []      # drops the previous candidate's forward before this one
            try:
                cand_loss = _loss_only(frames, depths, cand_t, K, cfg, cand_d, consts, kept)
            except DegenerateBatchError:
                cand_loss = np.inf     # candidate left no valid pixels
            if np.isnan(cand_loss):
                raise OptimizationDiverged("loss became NaN", trace)
            if cand_loss <= loss - 1e-4 * s * slope:
                accepted = True
                break
            s *= 0.5
            backtracks += 1
        if not accepted:
            converged = True
            break
        decrease = loss - cand_loss
        x_prev, g_prev = x, g
        x, loss = cand, cand_loss
        step_px = min(s * STEP_GROW, STEP_MAX)
        trace.append(loss)
        if loss < best[0]:
            best = (loss, x, kept[0].diag)
        if decrease < opt.tol:
            converged = True
            break
        # the accepted candidate's kept forward: only its reverse runs
        loss, g, _ = gradient(x, kept.pop())
        _remember(pairs, x - x_prev, g - g_prev)

    loss, x, diag = best
    theta, dlog = split(x)
    return PoseEstimate(
        twist=theta[:6].copy(), converged=converged, final_loss=loss, iterations=iters,
        twist2=theta[6:12].copy() if n == 2 else None,
        depth=None if dlog is None else np.exp(dlog),
        diagnostics=diag, backtracks=backtracks,
    )


def run_sequence(frames, depths, times, K, opt: OptimizerConfig,
                 cfg: LossConfig):
    """Chain pairwise estimates over a frame list (constant-velocity warm
    start). Returns (estimates, TrajectoryEstimate, cam_velocities).

    Estimate i covers the scheme's `SCHEME_FRAMES` frames from i-1 on:
    (i-1, i) for 2f, (i-1, i, i+1) for the triplet schemes, which report
    the cur->prev transform, so m frames give m - SCHEME_FRAMES + 1
    estimates. A pair whose start fails is restarted from zero and marked
    `retried`; if that fails too, it is marked not-converged and keeps its
    warm-start twist. Each pair's `pair_constants` are built once and
    serve its warm-start check and its estimates, and a warm twist that
    wins the check is not evaluated again: its kept forward is
    `estimate_pose`'s start.
    """
    m = len(frames)
    n = _n_twists(cfg)
    if m < n + 1:
        raise ContractViolation(f"scheme {cfg.scheme} needs at least {n + 1} frames")
    frames = [np.asarray(f, dtype=np.float64) for f in frames]
    depths = [np.asarray(d, dtype=np.float64) for d in depths]
    last = m + 1 - n

    estimates = []
    warm = np.zeros(6 * n)
    positions = [np.zeros(3)]
    pose_acc = SE3Pose.identity()
    cam_vel = []
    for i in range(1, last):
        fr, dp = frames[i - 1:i + n], depths[i - 1:i + n]
        consts = pair_constants(fr, cfg, None if opt.depth_mode == "optimize" else dp)
        # a poisoned warm start locks the whole chain into a bad basin:
        # seed from whichever of {previous twist, zero} scores lower. The
        # warm twist's forward is kept for estimate_pose's first gradient,
        # except in 'optimize' mode: estimate_pose starts there from
        # exp(log depth), not from the depths this check runs on.
        start = None
        if np.any(warm):
            try:
                l_zero = _loss_only(fr, dp, np.zeros_like(warm), K, cfg, consts=consts)
            except DegenerateBatchError:
                l_zero = np.inf
            kept = None if opt.depth_mode == "optimize" else []
            try:
                l_warm = _loss_only(fr, dp, warm, K, cfg, consts=consts, keep=kept)
            except DegenerateBatchError:
                l_warm = np.inf
            start = kept.pop() if kept else None
            if l_zero < l_warm:
                warm, start = np.zeros_like(warm), None
        try:
            est = estimate_pose(fr, dp, warm, K, opt, cfg, consts, start)
            est.warm_start = bool(np.any(warm))
        except (OptimizationDiverged, DegenerateBatchError):
            try:
                est = estimate_pose(fr, dp, None, K, opt, cfg, consts)
            except (OptimizationDiverged, DegenerateBatchError):
                est = PoseEstimate(twist=warm[:6].copy(), converged=False,
                                   final_loss=np.nan, iterations=0,
                                   twist2=warm[6:12].copy() if n == 2 else None)
            est.retried = True
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

