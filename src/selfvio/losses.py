"""Self-supervised reconstruction losses and their occlusion-aware variants.

Three aggregation schemes are supported:

  - ``benchmark``: per-pixel minimum of the two source reconstructions
    plus a single-reprojection depth-consistency term, no validity masks,
    averaged over every pixel (the common unmasked baseline),
  - ``3f``: three frames (prev, cur, next), two independent transforms,
    per-pixel minimum of both error maps gated by the product of both
    validity masks,
  - ``2f``: two frames reprojected onto each other with one transform and
    its exact inverse, same masked-minimum aggregation.

The masked aggregations normalize by the number of jointly-valid pixels.
All per-pixel maps are plain float64 arrays; the internal entry points
also accept autodiff Vars for depth and for the (R, t) pose arrays, so
the pose optimizer can differentiate the total loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .geometry import (CameraIntrinsics, ContractViolation, SE3Pose,
                       invert_entries, pose_entries, warp_depth_parts,
                       warp_grid, warp_image)

SCHEME_BENCHMARK = "benchmark"
SCHEME_2F = "2f"
SCHEME_3F = "3f"
SCHEMES = (SCHEME_BENCHMARK, SCHEME_2F, SCHEME_3F)


class DegenerateBatchError(ValueError):
    """Raised when a masked aggregation has zero jointly-valid pixels."""


@dataclass
class LossConfig:
    alpha: float = 0.85
    lambda1: float = 0.15
    lambda2: float = 0.001
    scheme: str = SCHEME_2F
    ssim_window: int = 3

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ContractViolation("alpha must be in [0,1]")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ContractViolation("loss weights must be nonnegative")
        if self.scheme not in SCHEMES:
            raise ContractViolation(f"unknown scheme {self.scheme!r}")
        if self.ssim_window < 3 or self.ssim_window % 2 == 0:
            raise ContractViolation("ssim_window must be odd and >= 3")


@dataclass
class LossDiagnostics:
    """Per-evaluation component breakdown."""

    total: float = 0.0
    photometric: float = 0.0
    depth: float = 0.0
    smoothness: float = 0.0
    valid_photo: int = 0
    valid_depth: int = 0
    scheme: str = ""


# --------------------------------------------------------------------------
# per-pixel losses

_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2


def ssim_stats(b, window=3):
    """The k x k box mean and variance of b that ssim_map uses."""
    mu_b = ad.box_mean_same(b, window)
    return mu_b, ad.box_mean_same(b * b, window) - mu_b * mu_b


def ssim_map(a, b, window=3, b_stats=None):
    """Per-pixel (1 - SSIM)/2 with k x k box statistics (replicate-padded).
    b_stats: ssim_stats(b, window), when the caller already has it."""
    mu_a = ad.box_mean_same(a, window)
    mu_b, var_b = ssim_stats(b, window) if b_stats is None else b_stats
    var_a = ad.box_mean_same(a * a, window) - mu_a * mu_a
    cov = ad.box_mean_same(a * b, window) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + _SSIM_C1) * (var_a + var_b + _SSIM_C2)
    loss = (1.0 - num / den) * 0.5
    return ad.minimum(ad.maximum(loss, 0.0), 1.0)


def ssim_loss(a, b, window=3):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractViolation("ssim_loss inputs must share a shape")
    return ssim_map(a, b, window)


def appearance_map(recon, target, cfg: LossConfig, target_stats=None):
    l1 = ad.absolute(recon - target)
    if cfg.alpha == 0.0:
        return l1
    s = ssim_map(recon, target, cfg.ssim_window, target_stats)
    if cfg.alpha == 1.0:
        return s
    return (1.0 - cfg.alpha) * l1 + cfg.alpha * s


def appearance_loss(recon, target, cfg: LossConfig):
    recon = np.asarray(recon, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if recon.shape != target.shape:
        raise ContractViolation("appearance_loss inputs must share a shape")
    return appearance_map(recon, target, cfg)


def depth_consistency_error(d_warped, d_t):
    """|Dw - Dt| / (Dw + Dt) per pixel.

    Dt must be strictly positive; Dw may contain zeros (the masked-fill
    value of warp_depth), which land at the maximal error of 1.
    """
    dw = np.asarray(ad.value(d_warped), dtype=np.float64)
    dt = np.asarray(ad.value(d_t), dtype=np.float64)
    if dw.shape != dt.shape:
        raise ContractViolation("depth maps must share a shape")
    if dt.min() <= 0.0 or dw.min() < 0.0:
        raise ContractViolation("depth values must be positive")
    return depth_consistency_map(d_warped, d_t)


def depth_consistency_map(d_warped, d_t):
    return ad.absolute(d_warped - d_t) / (d_warped + d_t)


def smoothness_loss(disp, image, normalize=True):
    """Edge-aware disparity smoothness (forward differences).

    The disparity is divided by its spatial mean first (unless disabled);
    each axis term is averaged over its own difference grid.
    """
    img = np.asarray(ad.value(image), dtype=np.float64)
    if ad.value(disp).shape != img.shape:
        raise ContractViolation("disparity/image shapes differ")
    d = disp / ad.amean(disp) if normalize else disp
    wx = np.exp(-np.abs(img[:, 1:] - img[:, :-1]))
    wy = np.exp(-np.abs(img[1:, :] - img[:-1, :]))
    lx = ad.amean(ad.absolute(ad.diff_h(d)) * wx)
    ly = ad.amean(ad.absolute(ad.diff_v(d)) * wy)
    return lx + ly


# --------------------------------------------------------------------------
# masked-minimum aggregation


def _masked_min_mean(errors, masks):
    if len(errors) not in (1, 2) or len(masks) != len(errors):
        raise ContractViolation("expected 1 or 2 error maps with matching masks")
    joint = np.asarray(masks[0], dtype=bool)
    for m in masks[1:]:
        joint = joint & np.asarray(m, dtype=bool)
    n = int(joint.sum())
    if n == 0:
        raise DegenerateBatchError("no jointly-valid pixels")
    combined = errors[0] if len(errors) == 1 else ad.minimum(errors[0], errors[1])
    return ad.asum(combined * joint.astype(np.float64)) / float(n), n


def masked_min_photometric(errors, masks):
    """Per-pixel min across error maps, gated by all masks, averaged over
    jointly-valid pixels. A single map degenerates to the masked mean."""
    errors = [np.asarray(e, dtype=np.float64) for e in errors]
    loss, _ = _masked_min_mean(errors, masks)
    return float(loss)


masked_min_depth = masked_min_photometric   # same contract, for depth maps


# --------------------------------------------------------------------------
# total loss


def _check_arity(frames, depths, n_poses, cfg):
    """depths and n_poses may be None (not checked)."""
    if cfg.scheme == SCHEME_2F:
        want_frames, want_poses = 2, 1
    else:
        want_frames, want_poses = 3, 2
    if len(frames) != want_frames or (depths is not None and len(depths) != want_frames):
        raise ContractViolation(
            f"scheme {cfg.scheme} expects {want_frames} frames/depths")
    if n_poses is not None and n_poses != want_poses:
        raise ContractViolation(f"scheme {cfg.scheme} expects {want_poses} pose(s)")


@dataclass
class PairConstants:
    """The pose-independent terms of one pair's (or triplet's) loss, built
    by `pair_constants` once and shared by every evaluation at that pair."""

    target_stats: tuple        # ssim_stats of each photometric term's target (None at alpha 0)
    smoothness: float | None   # the smoothness term, when the depths are held fixed


def pair_constants(frames, cfg: LossConfig, depths=None) -> PairConstants:
    """Pose-independent terms of the scheme's loss on `frames`.

    depths: the pair's depths when they stay fixed across evaluations; the
    smoothness term is then a constant too. Leave it out when the target
    depth is optimized.
    """
    _check_arity(frames, depths, None, cfg)
    # 2f's photometric terms target the current and the previous frame;
    # the triplet schemes' both target the current frame
    if cfg.alpha == 0.0:
        stats = (None, None)
    elif cfg.scheme == SCHEME_2F:
        stats = tuple(ssim_stats(frames[i], cfg.ssim_window) for i in (1, 0))
    else:
        stats = (ssim_stats(frames[1], cfg.ssim_window),) * 2
    smooth = None if depths is None else smoothness_loss(1.0 / depths[1], frames[1])
    return PairConstants(stats, smooth)


def _photo_term(source_img, target_img, depth_target, K, R, t, grid, cfg, target_stats):
    recon, mask = warp_image(source_img, depth_target, K, R, t, grid)
    return appearance_map(recon, target_img, cfg, target_stats), mask


def _depth_term(source_depth, depth_target, K, R, t, grid, benchmark):
    warped, mask = warp_depth_parts(source_depth, depth_target, K, R, t, grid)
    if benchmark:
        # zero-fill like the unmasked baseline: hits the max error of 1
        filled = warped * mask.astype(np.float64)
    else:
        filled = ad.where(mask, warped, depth_target)
    return depth_consistency_map(filled, depth_target), mask


def total_loss_generic(frames, depths, poses_rt, K: CameraIntrinsics, cfg: LossConfig,
                       consts: PairConstants | None = None):
    """Scheme dispatch on (R, t) poses; Var-friendly.

    frames: list of constant images. depths: ndarray or Var per frame.
    poses_rt: (R, t) transforms, each a (3, 3) and a (3,) array or Var;
    for 2f a single transform mapping current-frame coordinates into the
    previous frame, for 3f/benchmark the two transforms (cur->prev,
    cur->next). consts: pair_constants of these frames (and depths, when
    fixed); without it, each term computes its constant parts inline.
    """
    _check_arity(frames, depths, len(poses_rt), cfg)
    diag = LossDiagnostics(scheme=cfg.scheme)
    s1, s2 = (None, None) if consts is None else consts.target_stats

    if cfg.scheme == SCHEME_2F:
        prev_img, cur_img = frames
        prev_depth, cur_depth = depths
        R, t = poses_rt[0]
        Ri, ti = invert_entries(R, t)
        g1 = warp_grid(cur_depth, K, R, t)
        g2 = warp_grid(prev_depth, K, Ri, ti)

        e1, m1 = _photo_term(prev_img, cur_img, cur_depth, K, R, t, g1, cfg, s1)
        e2, m2 = _photo_term(cur_img, prev_img, prev_depth, K, Ri, ti, g2, cfg, s2)
        photo, n_p = _masked_min_mean([e1, e2], [m1, m2])

        d1, dm1 = _depth_term(prev_depth, cur_depth, K, R, t, g1, benchmark=False)
        d2, dm2 = _depth_term(cur_depth, prev_depth, K, Ri, ti, g2, benchmark=False)
        depth_l, n_d = _masked_min_mean([d1, d2], [dm1, dm2])
    else:
        prev_img, cur_img, next_img = frames
        prev_depth, cur_depth, next_depth = depths
        (R1, t1), (R2, t2) = poses_rt
        g1 = warp_grid(cur_depth, K, R1, t1)
        g2 = warp_grid(cur_depth, K, R2, t2)

        e1, m1 = _photo_term(prev_img, cur_img, cur_depth, K, R1, t1, g1, cfg, s1)
        e2, m2 = _photo_term(next_img, cur_img, cur_depth, K, R2, t2, g2, cfg, s2)

        if cfg.scheme == SCHEME_3F:
            photo, n_p = _masked_min_mean([e1, e2], [m1, m2])
            d1, dm1 = _depth_term(prev_depth, cur_depth, K, R1, t1, g1, benchmark=False)
            d2, dm2 = _depth_term(next_depth, cur_depth, K, R2, t2, g2, benchmark=False)
            depth_l, n_d = _masked_min_mean([d1, d2], [dm1, dm2])
        else:
            photo = ad.amean(ad.minimum(e1, e2))
            n_p = e1 if isinstance(e1, np.ndarray) else e1.value
            n_p = int(n_p.size)
            d1, _ = _depth_term(prev_depth, cur_depth, K, R1, t1, g1, benchmark=True)
            depth_l = ad.amean(d1)
            n_d = n_p

    smooth = None if consts is None else consts.smoothness
    if smooth is None:
        smooth = smoothness_loss(1.0 / depths[1], frames[1])
    total = photo + cfg.lambda1 * depth_l + cfg.lambda2 * smooth

    diag.photometric = float(ad.value(photo))
    diag.depth = float(ad.value(depth_l))
    diag.smoothness = float(ad.value(smooth))
    diag.total = float(ad.value(total))
    diag.valid_photo = n_p
    diag.valid_depth = n_d
    return total, diag


def total_loss(frames, depths, poses, K: CameraIntrinsics, cfg: LossConfig):
    """Total objective: L_p + lambda1 * L_D + lambda2 * L_s.

    poses: one SE3Pose for the 2f scheme (current -> previous), a pair of
    SE3Pose (current -> previous, current -> next) otherwise. Returns
    (scalar, LossDiagnostics).
    """
    if isinstance(poses, SE3Pose):
        poses = [poses]
    frames = [np.asarray(f, dtype=np.float64) for f in frames]
    depths = [np.asarray(d, dtype=np.float64) for d in depths]
    poses_rt = [pose_entries(p) for p in poses]
    loss, diag = total_loss_generic(frames, depths, poses_rt, K, cfg)
    return float(ad.value(loss)), diag
