"""Trajectory alignment and error metrics.

Umeyama least-squares similarity alignment (7-DoF with scale, 6-DoF
rigid), absolute position RMSE after a chosen alignment, and relative
velocity error binned by ground-truth speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ContractViolation, matrix_to_quat, quat_to_matrix

ALIGN_MODES = ("none", "se3", "sim3")


class DegeneratePointSet(ContractViolation):
    """The point sets cannot be aligned: too few, coincident, collinear or
    unassociable points. A property of the data, not of the call."""


@dataclass
class TrajectoryEstimate:
    t: np.ndarray
    pos: np.ndarray            # (N,3)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.float64)
        self.pos = np.asarray(self.pos, dtype=np.float64)
        if np.any(np.diff(self.t) <= 0):
            raise ContractViolation("timestamps must be strictly increasing")
        if not np.all(np.isfinite(self.pos)):
            raise ContractViolation("positions must be finite")


@dataclass
class Sim3Transform:
    s: float
    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        if self.s <= 0:
            raise ContractViolation("scale must be positive")
        self.q = np.asarray(self.q, dtype=np.float64)
        self.q = self.q / np.linalg.norm(self.q)
        self.t = np.asarray(self.t, dtype=np.float64)

    def rotation_matrix(self):
        return quat_to_matrix(self.q)

    def apply(self, pts):
        return self.s * (np.asarray(pts) @ self.rotation_matrix().T) + self.t


def umeyama_align(est, gt, with_scale=True) -> Sim3Transform:
    """Least-squares similarity (or rigid) transform mapping est onto gt.

    Minimizes sum ||gt - (s R est + t)||^2 with det(R) = +1 enforced.
    Requires >= 3 non-degenerate correspondences.
    """
    est = np.asarray(est, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if est.shape != gt.shape or est.ndim != 2 or est.shape[1] != 3:
        raise ContractViolation("need matching (N,3) point sets")
    if len(est) < 3:
        raise DegeneratePointSet(f"need at least 3 points, got {len(est)}")
    mu_e = est.mean(axis=0)
    mu_g = gt.mean(axis=0)
    xe = est - mu_e
    xg = gt - mu_g
    cov = xg.T @ xe / len(est)
    var_e = float((xe ** 2).sum() / len(est))
    if var_e < 1e-15:
        raise DegeneratePointSet("degenerate (coincident) point set")
    U, D, Vt = np.linalg.svd(cov)
    if D[1] < 1e-12 * max(D[0], 1e-300):
        raise DegeneratePointSet("degenerate (collinear) point set")
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    s = float(np.trace(np.diag(D) @ S) / var_e) if with_scale else 1.0
    t = mu_g - s * (R @ mu_e)
    return Sim3Transform(s=s, q=matrix_to_quat(R), t=t)


def associate(t_est, t_gt, max_gap):
    """Nearest-timestamp association; pairs further than max_gap drop.

    Returns (idx_est, idx_gt, n_dropped).
    """
    t_est = np.asarray(t_est, dtype=np.float64)
    t_gt = np.asarray(t_gt, dtype=np.float64)
    j = np.searchsorted(t_gt, t_est)
    j = np.clip(j, 1, len(t_gt) - 1)
    left = t_est - t_gt[j - 1]
    right = t_gt[j] - t_est
    j = np.where(left <= right, j - 1, j)
    ok = np.abs(t_gt[j] - t_est) <= max_gap
    return np.nonzero(ok)[0], j[ok], int((~ok).sum())


def position_rmse(est: TrajectoryEstimate, gt: TrajectoryEstimate,
                  mode="sim3", max_gap=None) -> float:
    """Absolute position RMSE after the chosen alignment.

    mode: 'sim3' (7-DoF), 'se3' (6-DoF) or 'none'. Association is by
    nearest timestamp within max_gap (default: half the median estimate
    frame period).
    """
    if mode not in ALIGN_MODES:
        raise ContractViolation(f"unknown alignment mode {mode!r}")
    if max_gap is None:
        max_gap = 0.5 * float(np.median(np.diff(est.t))) if len(est.t) > 1 else np.inf
    ie, ig, _ = associate(est.t, gt.t, max_gap)
    if len(ie) == 0:
        raise DegeneratePointSet("no associable samples between trajectories")
    pe = est.pos[ie]
    pg = gt.pos[ig]
    if mode != "none":
        T = umeyama_align(pe, pg, with_scale=(mode == "sim3"))
        pe = T.apply(pe)
    err = pe - pg
    return float(np.sqrt(np.mean(np.sum(err ** 2, axis=1))))


def relative_velocity_error(v_est, v_gt, bin_width=1.0, speed_floor=0.5):
    """Per-speed-bin relative velocity error.

    Per sample: ||v_est - v_gt|| / ||v_gt||, assigned to the bin of the
    ground-truth speed. Samples slower than speed_floor are excluded.
    Returns a list of dicts (bin_low, bin_high, mean, std, count); empty
    bins are absent.
    """
    if not (bin_width > 0 and speed_floor > 0):
        raise ContractViolation("bin width and speed floor must be positive")
    v_est = np.asarray(v_est, dtype=np.float64)
    v_gt = np.asarray(v_gt, dtype=np.float64)
    if v_est.shape != v_gt.shape:
        raise ContractViolation("velocity streams must share a shape")
    speed = np.linalg.norm(v_gt, axis=-1)
    keep = speed >= speed_floor
    if not keep.any():
        return []
    rel = np.linalg.norm(v_est[keep] - v_gt[keep], axis=-1) / speed[keep]
    sp = speed[keep]
    bins = np.floor(sp / bin_width).astype(int)
    out = []
    for b in sorted(set(bins.tolist())):
        sel = bins == b
        out.append({
            "bin_low": b * bin_width,
            "bin_high": (b + 1) * bin_width,
            "mean": float(rel[sel].mean()),
            "std": float(rel[sel].std()),
            "count": int(sel.sum()),
        })
    return out
