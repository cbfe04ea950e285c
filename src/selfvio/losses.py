"""Self-supervised reconstruction losses and their occlusion-aware variants.

A scheme is a row of `SCHEME_WARPS`: the warps it builds over its frames
(prev, cur[, next]), each reconstructing a target frame from a source
frame through one transform or its exact inverse. The current frame
(index 1) holds the depth that estimation refines and smoothness weighs.

  - ``2f``: prev onto cur through one transform, cur onto prev through
    its exact inverse,
  - ``3f`` and ``benchmark``: prev and next onto cur, two transforms;
    ``benchmark`` keeps only the first warp's depth term, with its masked
    pixels filled with 0 (the common unmasked baseline).

Each takes the per-pixel minimum of its error maps, averaged over the
jointly-valid pixels; the benchmark's masks are all valid.
All per-pixel maps are plain float64 arrays. Every forward carries its
reverse, closed-form array code: each term returns, next to its value, a
function that maps the term's gradient back (the box statistics, the
min-selection, the depth ratios it kept), and `total_loss_generic` chains
them with the warp's reverse in `geometry` down to (dR, dt) per pose and
to the target depth. A caller that wants only the value drops the reverse,
and with it what the forward kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (CameraIntrinsics, ContractViolation, SE3Pose,
                       invert_entries, invert_entries_vjp, pose_entries,
                       project_grid_vjp, sample_image_vjp, sample_vjp,
                       warp_depth_parts, warp_depth_vjp, warp_grid, warp_image)

SCHEME_BENCHMARK = "benchmark"
SCHEME_2F = "2f"
SCHEME_3F = "3f"
SCHEMES = (SCHEME_BENCHMARK, SCHEME_2F, SCHEME_3F)

# each scheme's warps: (source frame, target frame, transform index, inverted)
SCHEME_WARPS = {
    SCHEME_2F: ((0, 1, 0, False), (1, 0, 0, True)),
    SCHEME_3F: ((0, 1, 0, False), (2, 1, 1, False)),
    SCHEME_BENCHMARK: ((0, 1, 0, False), (2, 1, 1, False)),
}
# frames per estimate; an estimate carries one transform fewer
SCHEME_FRAMES = {s: 1 + max(max(src, tgt) for src, tgt, _, _ in warps)
                 for s, warps in SCHEME_WARPS.items()}


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
#
# Each private term returns its value and `back`, the reverse of the term:
# it maps the gradient of the term's output to that of its varying input.

_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2


def _box_sum_valid(x, k):
    h, w = x.shape
    out = np.zeros((h - k + 1, w - k + 1))
    for dy in range(k):
        for dx in range(k):
            out += x[dy:dy + h - k + 1, dx:dx + w - k + 1]
    return out


def box_mean_same(a, k):
    """k x k windowed mean with replicate padding; output keeps the shape."""
    return _box_sum_valid(np.pad(a, k // 2, mode="edge"), k) / float(k * k)


def _box_mean_vjp(g, k, scratch):
    """Reverse of box_mean_same for the gradient g, in place of g (scratch:
    an array of g's shape to work in).

    Along one axis, the reverse of a k-window mean over a replicate-padded
    line spreads each window's gradient back over its k entries (a box sum
    cut at the ends) and folds what fell on the padding onto the edge.
    """
    p = k // 2
    g /= float(k * k)
    for gs, ss in ((g.T, scratch.T), (g, scratch)):        # columns, then rows
        np.copyto(ss, gs)
        for d in range(1, min(p, len(gs)) + 1):
            gs[d:] += ss[:-d]
            gs[:-d] += ss[d:]
            gs[0] += (p + 1 - d) * ss[d - 1]
            gs[-1] += (p + 1 - d) * ss[-d]
    return g


def ssim_stats(b, window=3):
    """The k x k box mean and variance of b that the SSIM uses."""
    mu_b = box_mean_same(b, window)
    return mu_b, box_mean_same(b * b, window) - mu_b * mu_b


def _ssim(a, b, window, b_stats):
    """ssim_loss of (a, b) (b_stats: ssim_stats(b, window), or None), and
    its reverse in a. The reverse works in place of a and the kept
    statistics, so it runs once."""
    mu_a = box_mean_same(a, window)
    mu_b, var_b = ssim_stats(b, window) if b_stats is None else b_stats
    var_a = box_mean_same(a * a, window) - mu_a * mu_a
    cov = box_mean_same(a * b, window) - mu_a * mu_b
    p1 = 2.0 * mu_a * mu_b + _SSIM_C1
    p2 = 2.0 * cov + _SSIM_C2
    q1 = mu_a * mu_a + mu_b * mu_b + _SSIM_C1
    q2 = var_a + var_b + _SSIM_C2
    den = q1 * q2
    ratio = p1 * p2 / den
    loss = (1.0 - ratio) * 0.5
    out = np.maximum(loss, 0.0)
    np.minimum(out, 1.0, out=out)

    def back(g):
        # the clip passes the gradient where 0 <= loss <= 1 (ties included)
        dnum = g * ((loss >= 0.0) & (loss <= 1.0))
        dnum *= -0.5
        dnum /= den
        dden = np.multiply(dnum, ratio, out=ratio)
        np.negative(dden, out=dden)
        dp1 = np.multiply(dnum, p2, out=p2)
        dp2 = np.multiply(dnum, p1, out=p1)
        dq1 = np.multiply(dden, q2, out=q2)
        dq2 = np.multiply(dden, q1, out=q1)
        # d mu_a, with d var_a = dq2 and d cov = 2 dp2 (each against
        # -mu_a mu_a and -mu_a mu_b)
        dmu = dp1
        dmu -= dp2
        dmu *= mu_b
        dq1 -= dq2
        dq1 *= mu_a
        dmu += dq1
        dmu *= 2.0
        scratch = np.empty_like(a)
        d_mu, d_var, d_cov = (_box_mean_vjp(d, window, scratch) for d in (dmu, dq2, dp2))
        da = np.multiply(a, d_var, out=a)
        d_cov *= b
        da += d_cov
        da *= 2.0
        da += d_mu
        return da

    return out, back


def ssim_loss(a, b, window=3):
    """Per-pixel (1 - SSIM)/2 with k x k box statistics (replicate-padded)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractViolation("ssim_loss inputs must share a shape")
    return _ssim(a, b, window, None)[0]


def _appearance(recon, target, cfg: LossConfig, target_stats):
    """appearance_map, and its reverse in recon. The reverse works in
    place of recon and the kept arrays, so it runs once."""
    diff = recon - target
    e = l1 = np.abs(diff)
    s_back = None
    if cfg.alpha > 0.0:
        s, s_back = _ssim(recon, target, cfg.ssim_window, target_stats)
        e = s if cfg.alpha == 1.0 else (1.0 - cfg.alpha) * l1 + cfg.alpha * s
    if cfg.alpha == 1.0:
        return e, s_back

    def back(g):
        dl1 = np.sign(diff, out=diff)
        dl1 *= g
        if s_back is None:
            return dl1
        dl1 *= 1.0 - cfg.alpha
        g *= cfg.alpha
        out = s_back(g)
        out += dl1
        return out

    return e, back


def appearance_map(recon, target, cfg: LossConfig, target_stats=None):
    return _appearance(recon, target, cfg, target_stats)[0]


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
    dw = np.asarray(d_warped, dtype=np.float64)
    dt = np.asarray(d_t, dtype=np.float64)
    if dw.shape != dt.shape:
        raise ContractViolation("depth maps must share a shape")
    if dt.min() <= 0.0 or dw.min() < 0.0:
        raise ContractViolation("depth values must be positive")
    return _depth_consistency(dw, dt)[0]


def _depth_consistency(d_warped, d_t):
    """depth_consistency_error, and its reverse in (d_warped, d_t). The
    reverse works in place of its argument and the kept ratios, so it runs
    once."""
    diff = d_warped - d_t
    total = d_warped + d_t
    err = np.abs(diff) / total

    def back(g):
        a = np.divide(g, total, out=g)
        b = np.multiply(err, a, out=err)
        c = np.sign(diff, out=diff)
        c *= a
        d_warped = np.subtract(c, b, out=a)
        np.negative(c, out=c)
        c -= b
        return d_warped, c

    return err, back


def _smoothness(disp, img, normalize):
    """smoothness_loss, and its reverse in disp."""
    m = float(np.mean(disp)) if normalize else 1.0
    d = disp / m if normalize else disp
    wx = np.exp(-np.abs(img[:, 1:] - img[:, :-1]))
    wy = np.exp(-np.abs(img[1:, :] - img[:-1, :]))
    dh = d[..., 1:] - d[..., :-1]
    dv = d[..., 1:, :] - d[..., :-1, :]
    loss = float(np.mean(np.abs(dh) * wx)) + float(np.mean(np.abs(dv) * wy))

    def back(g):
        gh = (g / dh.size) * wx * np.sign(dh)
        gv = (g / dv.size) * wy * np.sign(dv)
        gd = np.zeros(d.shape)
        gd[:, 1:] += gh
        gd[:, :-1] -= gh
        gd[1:, :] += gv
        gd[:-1, :] -= gv
        if not normalize:
            return gd
        # d = disp / mean(disp)
        return gd / m - float(np.sum(gd * disp)) / (m * m * disp.size)

    return loss, back


def smoothness_loss(disp, image, normalize=True):
    """Edge-aware disparity smoothness (forward differences).

    The disparity is divided by its spatial mean first (unless disabled);
    each axis term is averaged over its own difference grid.
    """
    img = np.asarray(image, dtype=np.float64)
    disp = np.asarray(disp, dtype=np.float64)
    if disp.shape != img.shape:
        raise ContractViolation("disparity/image shapes differ")
    return _smoothness(disp, img, normalize)[0]


# --------------------------------------------------------------------------
# masked-minimum aggregation


def _masked_min_mean(errors, masks):
    """Masked minimum mean, its jointly-valid count, and its reverse: the
    gradient of each error map (ties go to the first)."""
    if len(errors) not in (1, 2) or len(masks) != len(errors):
        raise ContractViolation("expected 1 or 2 error maps with matching masks")
    joint = np.asarray(masks[0], dtype=bool)
    for m in masks[1:]:
        joint = joint & np.asarray(m, dtype=bool)
    n = int(joint.sum())
    if n == 0:
        raise DegenerateBatchError("no jointly-valid pixels")
    combined = errors[0] if len(errors) == 1 else np.minimum(errors[0], errors[1])
    loss = float(np.sum(combined * joint.astype(np.float64))) / float(n)

    def back(g):
        w = joint * (g / float(n))
        return (w,) if len(errors) == 1 else _route_min(errors[0], errors[1], w)

    return loss, n, back


def _route_min(e1, e2, w):
    """The gradient w of min(e1, e2) routed to each map, ties to e1 (the
    second map's share is computed in place of w)."""
    w1 = w * (e1 <= e2)
    w -= w1
    return w1, w


def masked_min_photometric(errors, masks):
    """Per-pixel min across error maps, gated by all masks, averaged over
    jointly-valid pixels. A single map degenerates to the masked mean."""
    errors = [np.asarray(e, dtype=np.float64) for e in errors]
    return _masked_min_mean(errors, masks)[0]


masked_min_depth = masked_min_photometric   # same contract, for depth maps


# --------------------------------------------------------------------------
# total loss


def _check_arity(frames, depths, n_poses, cfg):
    """depths and n_poses may be None (not checked)."""
    want = SCHEME_FRAMES[cfg.scheme]
    if len(frames) != want or (depths is not None and len(depths) != want):
        raise ContractViolation(f"scheme {cfg.scheme} expects {want} frames/depths")
    if n_poses is not None and n_poses != want - 1:
        raise ContractViolation(f"scheme {cfg.scheme} expects {want - 1} pose(s)")


@dataclass
class PairConstants:
    """The pose-independent terms of one pair's (or triplet's) loss, built
    by `pair_constants` once and shared by every evaluation at that pair."""

    target_stats: tuple        # ssim_stats of each warp's target (None at alpha 0)
    smoothness: float | None   # the smoothness term, when the depths are held fixed


def pair_constants(frames, cfg: LossConfig, depths=None) -> PairConstants:
    """Pose-independent terms of the scheme's loss on `frames`.

    depths: the pair's depths when they stay fixed across evaluations; the
    smoothness term is then a constant too. Leave it out when the target
    depth is optimized.
    """
    _check_arity(frames, depths, None, cfg)
    targets = [tgt for _, tgt, _, _ in SCHEME_WARPS[cfg.scheme]]
    # one ssim_stats per distinct target frame
    by_target = {} if cfg.alpha == 0.0 else \
        {tgt: ssim_stats(frames[tgt], cfg.ssim_window) for tgt in targets}
    stats = tuple(by_target.get(tgt) for tgt in targets)
    smooth = None if depths is None else smoothness_loss(1.0 / depths[1], frames[1])
    return PairConstants(stats, smooth)


class _PoseTerms:
    """One pose's photometric term (source_img warped onto target_img
    through (R, t) with depth_t) and depth term (of source_depth, when
    given; filled with 0 or with the target depth at masked pixels), both
    through one grid, and what their reverse needs."""

    def __init__(self, source_img, target_img, source_depth, depth_t, K, R, t, cfg,
                 target_stats, zero_fill):
        self.R, self.t, self.depth_t = R, t, depth_t
        self.grid = grid = warp_grid(depth_t, K, R, t)
        recon, self.mask = warp_image(source_img, depth_t, K, R, t, grid)
        self.e, self.back = _appearance(recon, target_img, cfg, target_stats)
        self.d = None
        if source_depth is not None:
            warped, self.dmask = warp_depth_parts(source_depth, depth_t, K, R, t, grid)
            # zero-fill like the unmasked baseline: hits the max error of 1
            filled = warped * self.dmask if zero_fill else np.where(self.dmask, warped, depth_t)
            self.d, self.d_back = _depth_consistency(filled, depth_t)

    def vjp(self, K, de, dd, with_depth, with_source_depth):
        """(dR, dt, d depth_t, d source_depth) for the gradients de and dd of
        the error maps (dd None without a depth term); the depth gradients
        are None unless asked for."""
        grid = self.grid
        de = self.back(de)
        de *= self.mask
        gx, gy = sample_vjp(de, grid.image, grid.stencil)
        dR, dt, d_source = np.zeros((3, 3)), np.zeros(3), None
        if dd is not None:
            dw, d_target = self.d_back(dd)
            dw *= self.dmask
            gxd, gyd, dR, dt, gd = warp_depth_vjp(dw, grid, K, self.R, self.t)
            gx += gxd
            gy += gyd
            if with_source_depth:
                d_source = sample_image_vjp(gd, grid.stencil)
        dRp, dtp, d_depth = project_grid_vjp(gx, gy, grid, self.depth_t, K, self.R, with_depth)
        if with_depth and dd is not None:
            # (off the mask the filled value is the target depth: the error
            # is 0 there, and so is its gradient)
            d_depth += d_target
        return dR + dRp, dt + dtp, d_depth, d_source


def total_loss_generic(frames, depths, poses_rt, K: CameraIntrinsics, cfg: LossConfig,
                       consts: PairConstants | None = None):
    """The scheme's total loss on (R, t) poses, on plain arrays.

    frames, depths: an image and a depth map per frame. poses_rt: (R, t)
    transforms, each a (3, 3) and a (3,) array; for 2f a single transform
    mapping current-frame coordinates into the previous frame, for
    3f/benchmark the two transforms (cur->prev, cur->next). consts:
    pair_constants of these frames (and depths, when fixed); without it,
    each term computes its constant parts inline.

    Returns (loss, LossDiagnostics, vjp), vjp the reverse vjp(g,
    with_depth): for the loss's gradient g, the list of (dR, dt) per
    transform of poses_rt and, when with_depth, the gradient in the current
    frame's depth (depths[1]; else None). It runs once.
    """
    _check_arity(frames, depths, len(poses_rt), cfg)
    warps = SCHEME_WARPS[cfg.scheme]
    stats = (None,) * len(warps) if consts is None else consts.target_stats
    bench = cfg.scheme == SCHEME_BENCHMARK
    cur_img, cur_depth = frames[1], depths[1]

    terms = []
    for (src, tgt, k, inverted), s in zip(warps, stats):
        R, t = invert_entries(*poses_rt[k]) if inverted else poses_rt[k]
        # the benchmark's one depth term is the first warp's
        src_depth = None if bench and terms else depths[src]
        terms.append(_PoseTerms(frames[src], frames[tgt], src_depth, depths[tgt], K, R, t,
                                cfg, s, bench))
    # the unmasked benchmark is the masked aggregation with every pixel valid
    valid = np.ones(cur_img.shape, dtype=bool) if bench else None
    photo, n_p, photo_back = _masked_min_mean(
        [term.e for term in terms], [term.mask if valid is None else valid for term in terms])
    dterms = [term for term in terms if term.d is not None]
    depth_l, n_d, depth_back = _masked_min_mean(
        [term.d for term in dterms], [term.dmask if valid is None else valid for term in dterms])

    smooth = None if consts is None else consts.smoothness
    smooth_back = None
    if smooth is None:
        smooth, smooth_back = _smoothness(1.0 / cur_depth, cur_img, True)
    total = photo + cfg.lambda1 * depth_l + cfg.lambda2 * smooth

    diag = LossDiagnostics(float(total), float(photo), float(depth_l), float(smooth),
                           n_p, n_d, cfg.scheme)

    def vjp(g, with_depth=False):
        if not terms:
            raise RuntimeError("the loss's reverse runs once: it works in place "
                               "of the arrays its forward kept")
        g = float(g)
        de = photo_back(g)
        # the depth terms lead the warps (the benchmark's second has none)
        dd = (*depth_back(cfg.lambda1 * g), None)
        d_depth = None
        if with_depth:
            if smooth_back is None:
                raise ContractViolation("a fixed smoothness term has no depth gradient")
            d_depth = smooth_back(cfg.lambda2 * g) / -(cur_depth * cur_depth)
        out = [None] * len(poses_rt)
        for (src, tgt, k, inverted), term, de_j, dd_j in zip(warps, terms, de, dd):
            # the current depth enters as the warp's target or its source
            dR, dt, d_dep, d_src = term.vjp(K, de_j, dd_j, with_depth and tgt == 1,
                                            with_depth and src == 1)
            if inverted:
                dR, dt = invert_entries_vjp(*poses_rt[k], dR, dt)
            out[k] = (dR, dt) if out[k] is None else (out[k][0] + dR, out[k][1] + dt)
            for d in (d_dep, d_src):
                if d is not None:
                    d_depth += d
        terms.clear()
        return out, d_depth

    return total, diag, vjp


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
    loss, diag, _ = total_loss_generic(frames, depths, poses_rt, K, cfg)
    return float(loss), diag
