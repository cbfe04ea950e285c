"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough tape machinery to differentiate the inverse-warping /
photometric loss stack with respect to a pose twist and per-pixel depth.
Every op also accepts plain ndarrays (or floats) and then stays in pure
numpy, so the same warping/loss code serves both the fast forward-only
path and the differentiated path.

Conventions:
  - float64 everywhere, standard numpy broadcasting (gradients are
    summed back over broadcast axes),
  - ties in minimum/maximum route the gradient to the first operand,
  - |x| has subgradient 0 at x == 0.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Var:
    """A node in the tape: a value plus a vector-Jacobian callback."""

    # keep numpy from consuming Vars in mixed expressions
    __array_ufunc__ = None
    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"

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

    # --- backward pass ---------------------------------------------------

    def backward(self, seed=None):
        """Accumulate gradients of this (scalar) node into the tape."""
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


def _topo_order(root):
    """Reverse topological order, iterative (loss graphs can be deep)."""
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    order.reverse()
    return order


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


# Coordinates within this distance of an integer snap to it so that
# identity warps reproduce the source image bit-exactly (fp mul/div
# round-trips otherwise leave +-1 ulp wobble on the sample grid).
COORD_SNAP = 1e-8


def _snap_coords(c):
    r = np.rint(c)
    return np.where(np.abs(c - r) <= COORD_SNAP, r, c)


class Stencil(NamedTuple):
    """Where continuous pixel coords fall on an h x w grid: the flat index
    y0 * w + x0 of each 2 x 2 cell's top-left corner, the fractions (fx, fy)
    within the cell, and whether the coordinate lies inside the grid."""

    idx: np.ndarray
    fx: np.ndarray
    fy: np.ndarray
    in_bounds: np.ndarray
    shape: tuple


def bilinear_stencil(x, y, shape):
    """The Stencil of coords (x, y) (arrays, not Vars) on a grid of `shape`.

    Coordinates within COORD_SNAP of an integer snap to it. A coordinate is
    in bounds when it lies inside [0, W-1] x [0, H-1]; out-of-bounds cells
    are clamped to the grid.
    """
    h, w = shape
    xv = _snap_coords(x)
    yv = _snap_coords(y)
    in_bounds = (xv >= 0.0) & (xv <= w - 1.0) & (yv >= 0.0) & (yv <= h - 1.0)
    x0 = np.floor(xv)
    np.clip(x0, 0, w - 2, out=x0)
    y0 = np.floor(yv)
    np.clip(y0, 0, h - 2, out=y0)
    fx = np.subtract(xv, x0, out=xv)
    np.clip(fx, 0.0, 1.0, out=fx)
    fy = np.subtract(yv, y0, out=yv)
    np.clip(fy, 0.0, 1.0, out=fy)
    y0 *= w
    y0 += x0
    return Stencil(y0.astype(np.intp), fx, fy, in_bounds, (h, w))


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
    elif stencil.shape != (h, w):
        raise ValueError("stencil was built for another grid shape")
    idx, fx, fy, in_bounds, _ = stencil

    flat = iv.ravel()
    i00 = flat.take(idx)
    i01 = flat.take(idx + 1)
    i10 = flat.take(idx + w)
    i11 = flat.take(idx + (w + 1))

    top = i00 + fx * (i01 - i00)
    bot = i10 + fx * (i11 - i10)
    out = top + fy * (bot - top)

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
