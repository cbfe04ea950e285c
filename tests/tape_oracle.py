"""The pose loss as a fine-grained reverse-mode tape: the tests' oracle.

Each elementwise op, box sum, edge pad, difference, index, rigid transform,
bilinear sample and pose inversion is its own Var node with its own VJP,
and the warp and the loss graph are written over them (so a loss+grad
evaluation builds ~170 nodes). `loss_and_grad` here is the reference that
the closed-form reverse of `selfvio.losses.total_loss_generic` is checked
against; the forward ops and their order are the production ones, so the
losses agree bitwise. Every op also accepts plain ndarrays (or floats) and
then stays in pure numpy.

Conventions:
  - float64 everywhere, standard numpy broadcasting (gradients are
    summed back over broadcast axes),
  - ties in minimum/maximum route the gradient to the first operand,
  - |x| has subgradient 0 at x == 0.
"""

import numpy as np

from selfvio import autodiff
from selfvio.autodiff import _topo_order
from selfvio.geometry import (Z_EPS, CameraIntrinsics, ContractViolation,  # noqa: F401
                              Stencil, _snap_coords, bilinear_stencil, sample,
                              se3_exp_vjp)
from selfvio.geometry import se3_exp_entries as _se3_exp_entries
from selfvio.losses import (_SSIM_C1, _SSIM_C2, SCHEME_2F, SCHEME_3F,
                            DegenerateBatchError, LossConfig, LossDiagnostics,
                            PairConstants, _check_arity)
from selfvio.poseopt import _check_consts, _n_twists


class Var(autodiff.Var):
    """A tape node with numpy-style arithmetic and broadcasting."""

    # keep numpy from consuming Vars in mixed expressions
    __array_ufunc__ = None
    __slots__ = ()

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"

    def backward(self, seed=None):
        """autodiff.Var.backward, with each gradient summed back over the
        axes its parent was broadcast along."""
        order = _topo_order(self)
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.value) if seed is None else np.asarray(seed, dtype=np.float64)
        for node in order:
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if g is None:
                    continue
                g = _unbroadcast(g, parent.value.shape)
                parent.grad = g if parent.grad is None else parent.grad + g
        return self.grad

    # --- arithmetic -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, k):
        return powc(self, k)

    def __getitem__(self, idx):
        return getitem(self, idx)


def _unbroadcast(g, shape):
    """Sum gradient g back down to `shape` after numpy broadcasting."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def is_var(x):
    return isinstance(x, Var)


def value(x):
    """Underlying ndarray of a Var, or x itself coerced to float64."""
    if isinstance(x, Var):
        return x.value
    return np.asarray(x, dtype=np.float64)


# --- primitive ops --------------------------------------------------------


def add(a, b):
    if not (is_var(a) or is_var(b)):
        return value(a) + value(b)
    av, bv = value(a), value(b)
    parents = tuple(x for x in (a, b) if is_var(x))

    def vjp(g):
        return tuple(g for x in (a, b) if is_var(x))

    return Var(av + bv, parents, vjp)


def sub(a, b):
    if not (is_var(a) or is_var(b)):
        return value(a) - value(b)
    av, bv = value(a), value(b)
    parents = tuple(x for x in (a, b) if is_var(x))

    def vjp(g):
        out = []
        if is_var(a):
            out.append(g)
        if is_var(b):
            out.append(-g)
        return tuple(out)

    return Var(av - bv, parents, vjp)


def mul(a, b):
    if not (is_var(a) or is_var(b)):
        return value(a) * value(b)
    av, bv = value(a), value(b)
    parents = tuple(x for x in (a, b) if is_var(x))

    def vjp(g):
        out = []
        if is_var(a):
            out.append(g * bv)
        if is_var(b):
            out.append(g * av)
        return tuple(out)

    return Var(av * bv, parents, vjp)


def div(a, b):
    if not (is_var(a) or is_var(b)):
        return value(a) / value(b)
    av, bv = value(a), value(b)
    parents = tuple(x for x in (a, b) if is_var(x))

    def vjp(g):
        out = []
        if is_var(a):
            out.append(g / bv)
        if is_var(b):
            out.append(-g * av / (bv * bv))
        return tuple(out)

    return Var(av / bv, parents, vjp)


def powc(a, k):
    """a**k for a constant exponent k."""
    if not is_var(a):
        return value(a) ** k
    av = a.value
    return Var(av ** k, (a,), lambda g: (g * k * av ** (k - 1),))


def absolute(a):
    if not is_var(a):
        return np.abs(value(a))
    s = np.sign(a.value)
    return Var(np.abs(a.value), (a,), lambda g: (g * s,))


def exp(a):
    if not is_var(a):
        return np.exp(value(a))
    ev = np.exp(a.value)
    return Var(ev, (a,), lambda g: (g * ev,))


def minimum(a, b):
    """Elementwise min; gradient goes to the first operand on exact ties."""
    if not (is_var(a) or is_var(b)):
        return np.minimum(value(a), value(b))
    av, bv = value(a), value(b)
    take_a = av <= bv
    parents = tuple(x for x in (a, b) if is_var(x))

    def vjp(g):
        out = []
        if is_var(a):
            out.append(g * take_a)
        if is_var(b):
            out.append(g * ~take_a)
        return tuple(out)

    return Var(np.where(take_a, av, bv), parents, vjp)


def maximum(a, b):
    """Elementwise max; gradient goes to the first operand on exact ties."""
    if not (is_var(a) or is_var(b)):
        return np.maximum(value(a), value(b))
    av, bv = value(a), value(b)
    take_a = av >= bv
    parents = tuple(x for x in (a, b) if is_var(x))

    def vjp(g):
        out = []
        if is_var(a):
            out.append(g * take_a)
        if is_var(b):
            out.append(g * ~take_a)
        return tuple(out)

    return Var(np.where(take_a, av, bv), parents, vjp)


def where(cond, a, b):
    """Select by a constant boolean mask (the mask is not differentiated)."""
    cond = np.asarray(cond, dtype=bool)
    if not (is_var(a) or is_var(b)):
        return np.where(cond, value(a), value(b))
    av, bv = value(a), value(b)
    parents = tuple(x for x in (a, b) if is_var(x))

    def vjp(g):
        out = []
        if is_var(a):
            out.append(g * cond)
        if is_var(b):
            out.append(g * ~cond)
        return tuple(out)

    return Var(np.where(cond, av, bv), parents, vjp)


def asum(a):
    """Sum of all elements, as a scalar."""
    if not is_var(a):
        return float(np.sum(value(a)))
    shape = a.value.shape
    return Var(np.sum(a.value), (a,), lambda g: (np.broadcast_to(g, shape).copy(),))


def amean(a):
    if not is_var(a):
        return float(np.mean(value(a)))
    return div(asum(a), float(a.value.size))


def getitem(a, idx):
    if not is_var(a):
        return value(a)[idx]
    shape = a.value.shape

    def vjp(g):
        out = np.zeros(shape)
        np.add.at(out, idx, g)
        return (out,)

    return Var(a.value[idx], (a,), vjp)


def diff_h(a):
    """Forward difference along the last axis: a[..., 1:] - a[..., :-1]."""
    if not is_var(a):
        av = value(a)
        return av[..., 1:] - av[..., :-1]

    def vjp(g):
        out = np.zeros(a.value.shape)
        out[..., 1:] += g
        out[..., :-1] -= g
        return (out,)

    return Var(a.value[..., 1:] - a.value[..., :-1], (a,), vjp)


def diff_v(a):
    """Forward difference along the second-to-last axis (rows)."""
    if not is_var(a):
        av = value(a)
        return av[..., 1:, :] - av[..., :-1, :]

    def vjp(g):
        out = np.zeros(a.value.shape)
        out[..., 1:, :] += g
        out[..., :-1, :] -= g
        return (out,)

    return Var(a.value[..., 1:, :] - a.value[..., :-1, :], (a,), vjp)


def rigid_transform(R, t, X, Y, Z):
    """Rows of R @ (X, Y, Z) + t for a (k, 3) R and a (k,) t.

    Returns a tuple of k arrays (Vars when any input is one); row i is
    R[i, 0] * X + R[i, 1] * Y + R[i, 2] * Z + t[i], evaluated in that order.
    """
    Rv, tv = value(R), value(t)
    P = (X, Y, Z)
    Pv = tuple(value(p) for p in P)
    rows = [Rv[i, 0] * Pv[0] + Rv[i, 1] * Pv[1] + Rv[i, 2] * Pv[2] + tv[i]
            for i in range(len(tv))]
    if not any(is_var(x) for x in (R, t) + P):
        return tuple(rows)
    parents = tuple(x for x in (R, t) + P if is_var(x))

    def row_var(i):
        def vjp(g):
            out = []
            if is_var(R):
                dR = np.zeros(Rv.shape)
                dR[i] = [np.sum(g * p) for p in Pv]
                out.append(dR)
            if is_var(t):
                dt = np.zeros(tv.shape)
                dt[i] = np.sum(g)
                out.append(dt)
            out.extend(g * Rv[i, j] for j, p in enumerate(P) if is_var(p))
            return tuple(out)

        return Var(rows[i], parents, vjp)

    return tuple(row_var(i) for i in range(len(tv)))


def _pad_blocks(n, p):
    """The padded indices of pad_edge along an axis of length n, in order:
    those that replicate entry 0, the interior run (entries 1..n-2) and
    those that replicate entry n - 1."""
    return range(p + 1), slice(p + 1, p + n - 1), range(max(p + n - 1, p + 1), n + 2 * p)


def _fold_cols(acc, rows, p):
    """Add each padded row of `rows` into its row of `acc`, folding the
    replicated columns into the edge columns in column order."""
    first, mid, last = _pad_blocks(acc.shape[1], p)
    for j in first:
        acc[:, 0] += rows[:, j]
    acc[:, 1:-1] += rows[:, mid]
    for j in last:
        acc[:, -1] += rows[:, j]


def pad_edge(a, p):
    """Replicate-pad a 2-D array by p on every side."""
    av = value(a)
    out = np.pad(av, p, mode="edge")
    if not is_var(a):
        return out

    def vjp(g):
        # every padded entry's gradient into the entry it replicates, summed
        # in row-major order over the padded grid (np.add.at's order)
        gi = np.zeros(av.shape)
        first, mid, last = _pad_blocks(av.shape[0], p)
        for i in first:
            _fold_cols(gi[:1], g[i:i + 1], p)
        _fold_cols(gi[1:-1], g[mid], p)
        for i in last:
            _fold_cols(gi[-1:], g[i:i + 1], p)
        return (gi,)

    return Var(out, (a,), vjp)


def _box_sum_valid(x, k):
    h, w = x.shape
    out = np.zeros((h - k + 1, w - k + 1))
    for dy in range(k):
        for dx in range(k):
            out += x[dy:dy + h - k + 1, dx:dx + w - k + 1]
    return out


def box_sum(a, k):
    """Valid k x k box sum of a 2-D array (output shrinks by k-1)."""
    if not is_var(a):
        return _box_sum_valid(value(a), k)
    h, w = a.value.shape

    def vjp(g):
        out = np.zeros((h, w))
        gh, gw = g.shape
        for dy in range(k):
            for dx in range(k):
                out[dy:dy + gh, dx:dx + gw] += g
        return (out,)

    return Var(_box_sum_valid(a.value, k), (a,), vjp)


def box_mean_same(a, k):
    """k x k windowed mean with replicate padding; output keeps the shape."""
    return div(box_sum(pad_edge(a, k // 2), k), float(k * k))


def bilinear_sample(img, x, y, stencil=None):
    """Bilinearly sample `img` at continuous pixel coords (x, y).

    Returns (samples, in_bounds). Out-of-bounds lookups are clamped (the
    caller decides how to mask them). `stencil` is bilinear_stencil of
    (x, y) on img's grid, when the caller already has it (several images
    sampled at the same coords). Gradients flow to x, y, and to img when
    any of them is a Var; coordinate gradients at out-of-bounds pixels are
    zeroed.
    """
    iv = value(img)
    h, w = iv.shape
    if stencil is None:
        stencil = bilinear_stencil(value(x), value(y), (h, w))
    out = sample(iv, stencil).value       # the production sampler
    idx, fx, fy, in_bounds, _ = stencil

    flat = iv.ravel()
    i00 = flat.take(idx)
    i01 = flat.take(idx + 1)
    i10 = flat.take(idx + w)
    i11 = flat.take(idx + (w + 1))

    if not (is_var(img) or is_var(x) or is_var(y)):
        return out, in_bounds

    parents = tuple(v for v in (img, x, y) if is_var(v))

    def vjp(g):
        out_grads = []
        if is_var(img):
            # one scatter of the four corners' weighted gradients, corner by
            # corner as four np.add.at calls would add them
            gm = g * in_bounds
            weights = np.concatenate([(gm * ((1.0 - fx) * (1.0 - fy))).ravel(),
                                      (gm * (fx * (1.0 - fy))).ravel(),
                                      (gm * ((1.0 - fx) * fy)).ravel(),
                                      (gm * (fx * fy)).ravel()])
            corners = np.concatenate([idx.ravel(), (idx + 1).ravel(),
                                      (idx + w).ravel(), (idx + (w + 1)).ravel()])
            out_grads.append(np.bincount(corners, weights, h * w).reshape(h, w))
        if is_var(x):
            ddx = (1.0 - fy) * (i01 - i00) + fy * (i11 - i10)
            out_grads.append(g * ddx * in_bounds)
        if is_var(y):
            ddy = (1.0 - fx) * (i10 - i00) + fx * (i11 - i01)
            out_grads.append(g * ddy * in_bounds)
        return tuple(out_grads)

    return Var(out, parents, vjp), in_bounds


# --------------------------------------------------------------------------
# geometry, with Var branches


def se3_exp_entries(xi):
    """geometry.se3_exp_entries; for a Var twist, R and t are two Vars
    whose only parent is xi, with geometry.se3_exp_vjp as their VJPs."""
    R, t = _se3_exp_entries(value(xi))
    if not is_var(xi):
        return R, t
    xv = xi.value
    return (Var(R, (xi,), lambda G: (se3_exp_vjp(xv, G, np.zeros(3)),)),
            Var(t, (xi,), lambda g: (se3_exp_vjp(xv, np.zeros((3, 3)), g),)))


def invert_entries(R, t):
    """Exact inverse of (R, t): (R^T, -R^T t), as Vars when R or t is one."""
    Rv, tv = value(R), value(t)
    Ri, ti = Rv.T, -(Rv.T @ tv)
    if not (is_var(R) or is_var(t)):
        return Ri, ti
    R, t = (x if is_var(x) else Var(x) for x in (R, t))
    return (Var(Ri, (R,), lambda G: (G.T,)),
            Var(ti, (R, t), lambda g: (-np.outer(tv, g), -(Rv @ g))))


def project_grid(depth_t, K: CameraIntrinsics, R, t):
    """Warp coordinates for every target pixel.

    depth_t, R (3, 3) and t (3,) may each be an ndarray or a Var. Returns
    (xs, ys, zc, front) where front marks z > 0 and (xs, ys) are continuous
    source-pixel coords (safe values where front is False).
    """
    xn, yn = K.normalized_grid()
    Xc, Yc, Zc = rigid_transform(R, t, xn * depth_t, yn * depth_t, depth_t)

    front = value(Zc) > Z_EPS
    Zs = where(front, Zc, 1.0)
    xs = K.fx * (Xc / Zs) + K.cx
    ys = K.fy * (Yc / Zs) + K.cy
    return xs, ys, Zc, front


def warp_grid(depth_t, K: CameraIntrinsics, R, t):
    """What a warp needs from one pose: project_grid's (xs, ys) and front
    mask, plus the bilinear stencil of (xs, ys) on the image grid. Pass it
    as `grid` to warp_image and warp_depth_parts when both warp through the
    same pose, so the pose is projected once."""
    xs, ys, _, front = project_grid(depth_t, K, R, t)
    stencil = bilinear_stencil(value(xs), value(ys), (K.height, K.width))
    return xs, ys, front, stencil


def warp_image(source, depth_t, K: CameraIntrinsics, R, t, grid=None):
    """Generic inverse warp; returns (recon, mask) with recon zeroed at
    invalid pixels. Differentiates through depth_t/R/t when they are Vars.
    grid: warp_grid(depth_t, K, R, t), when the caller already has it."""
    xs, ys, front, stencil = warp_grid(depth_t, K, R, t) if grid is None else grid
    sampled, in_bounds = bilinear_sample(source, xs, ys, stencil)
    mask = front & in_bounds
    recon = sampled * mask.astype(np.float64)
    return recon, mask


def warp_depth_parts(source_depth, depth_t, K: CameraIntrinsics, R, t, grid=None):
    """Warp a source depth map onto the target grid, in target coordinates.

    Samples source_depth at the projected coordinates, lifts the sampled
    value back to a 3-D point in the source frame, and transforms it into
    the target frame; the reported depth is that point's target-frame z.
    Returns (warped, mask) where `warped` holds safe positive values at
    masked pixels (callers decide the fill policy). grid: as in warp_image.
    """
    xs, ys, front, stencil = warp_grid(depth_t, K, R, t) if grid is None else grid
    ds, in_bounds = bilinear_sample(source_depth, xs, ys, stencil)

    xn_s = (xs - K.cx) / K.fx
    yn_s = (ys - K.cy) / K.fy
    Xs = xn_s * ds
    Ys = yn_s * ds
    Ri, ti = invert_entries(R, t)
    # target-frame z of the lifted source point: row 2 of R^T P - R^T t
    (warped,) = rigid_transform(Ri[2:], ti[2:], Xs, Ys, ds)
    mask = front & in_bounds & (value(warped) > 0.0)
    return warped, mask




# --------------------------------------------------------------------------
# the loss graph

def ssim_stats(b, window=3):
    """The k x k box mean and variance of b that ssim_map uses."""
    mu_b = box_mean_same(b, window)
    return mu_b, box_mean_same(b * b, window) - mu_b * mu_b


def ssim_map(a, b, window=3, b_stats=None):
    """Per-pixel (1 - SSIM)/2 with k x k box statistics (replicate-padded).
    b_stats: ssim_stats(b, window), when the caller already has it."""
    mu_a = box_mean_same(a, window)
    mu_b, var_b = ssim_stats(b, window) if b_stats is None else b_stats
    var_a = box_mean_same(a * a, window) - mu_a * mu_a
    cov = box_mean_same(a * b, window) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + _SSIM_C1) * (var_a + var_b + _SSIM_C2)
    loss = (1.0 - num / den) * 0.5
    return minimum(maximum(loss, 0.0), 1.0)


def appearance_map(recon, target, cfg: LossConfig, target_stats=None):
    l1 = absolute(recon - target)
    if cfg.alpha == 0.0:
        return l1
    s = ssim_map(recon, target, cfg.ssim_window, target_stats)
    if cfg.alpha == 1.0:
        return s
    return (1.0 - cfg.alpha) * l1 + cfg.alpha * s


def depth_consistency_map(d_warped, d_t):
    return absolute(d_warped - d_t) / (d_warped + d_t)


def smoothness_loss(disp, image, normalize=True):
    """Edge-aware disparity smoothness (forward differences).

    The disparity is divided by its spatial mean first (unless disabled);
    each axis term is averaged over its own difference grid.
    """
    img = np.asarray(value(image), dtype=np.float64)
    if value(disp).shape != img.shape:
        raise ContractViolation("disparity/image shapes differ")
    d = disp / amean(disp) if normalize else disp
    wx = np.exp(-np.abs(img[:, 1:] - img[:, :-1]))
    wy = np.exp(-np.abs(img[1:, :] - img[:-1, :]))
    lx = amean(absolute(diff_h(d)) * wx)
    ly = amean(absolute(diff_v(d)) * wy)
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
    combined = errors[0] if len(errors) == 1 else minimum(errors[0], errors[1])
    return asum(combined * joint.astype(np.float64)) / float(n), n


def _photo_term(source_img, target_img, depth_target, K, R, t, grid, cfg, target_stats):
    recon, mask = warp_image(source_img, depth_target, K, R, t, grid)
    return appearance_map(recon, target_img, cfg, target_stats), mask


def _depth_term(source_depth, depth_target, K, R, t, grid, benchmark):
    warped, mask = warp_depth_parts(source_depth, depth_target, K, R, t, grid)
    if benchmark:
        # zero-fill like the unmasked baseline: hits the max error of 1
        filled = warped * mask.astype(np.float64)
    else:
        filled = where(mask, warped, depth_target)
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
            photo = amean(minimum(e1, e2))
            n_p = e1 if isinstance(e1, np.ndarray) else e1.value
            n_p = int(n_p.size)
            d1, _ = _depth_term(prev_depth, cur_depth, K, R1, t1, g1, benchmark=True)
            depth_l = amean(d1)
            n_d = n_p

    smooth = None if consts is None else consts.smoothness
    if smooth is None:
        smooth = smoothness_loss(1.0 / depths[1], frames[1])
    total = photo + cfg.lambda1 * depth_l + cfg.lambda2 * smooth

    diag.photometric = float(value(photo))
    diag.depth = float(value(depth_l))
    diag.smoothness = float(value(smooth))
    diag.total = float(value(total))
    diag.valid_photo = n_p
    diag.valid_depth = n_d
    return total, diag


def loss_and_grad(frames, depths, twists, K, cfg: LossConfig, depth_log=None, consts=None):
    """Total loss, its twist gradient, and optionally the gradient with
    respect to log target depth.

    twists: (6*n,) stacked twist vector. depth_log: (H,W) log of the
    target-frame depth; when given, it replaces the target entry of
    `depths` through exp(). consts: the pair's `pair_constants`, when the
    caller evaluates the pair repeatedly.
    """
    _check_consts(consts, depth_log)
    n = _n_twists(cfg)
    xiv = Var(np.asarray(twists, dtype=np.float64))
    poses_rt = [se3_exp_entries(xiv[6 * j:6 * j + 6]) for j in range(n)]

    depths = list(depths)
    dvar = None
    if depth_log is not None:
        dvar = Var(np.asarray(depth_log, dtype=np.float64))
        depths[-1 if cfg.scheme == SCHEME_2F else 1] = exp(dvar)

    loss, diag = total_loss_generic(frames, depths, poses_rt, K, cfg, consts)
    loss.backward()
    g_twist = xiv.grad.copy() if xiv.grad is not None else np.zeros(6 * n)
    g_depth = None
    if dvar is not None:
        g_depth = dvar.grad.copy() if dvar.grad is not None else np.zeros_like(dvar.value)
    return float(loss.value), g_twist, g_depth, diag


