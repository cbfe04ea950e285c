"""Camera model, SE(3) kinematics, and differentiable inverse warping.

Conventions (fixed across the package):
  - camera frame: x right, y down, z forward; pixel centers at integer
    coordinates; pinhole, no distortion,
  - quaternions are Hamilton, (w, x, y, z), unit norm; quat_mul, quat_conj,
    quat_to_matrix and quat_to_rotvec take one (4,) or an (N, 4) stack,
  - an SE3Pose applied to a point computes R @ p + t,
  - twists are 6-vectors (translation[3], rotation[3]); se3_exp uses the
    standard closed form with the V matrix coupling the two blocks.

The warp takes a pose as an (R, t) pair, a (3, 3) and a (3,) array
(se3_exp_entries, pose_entries, invert_entries), as plain arrays. Each
step has a closed-form reverse (the *_vjp functions); a pose's WarpGrid
keeps what they need from the forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class ContractViolation(ValueError):
    """An argument breaks a documented precondition."""


# --------------------------------------------------------------------------
# camera intrinsics


@dataclass
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ContractViolation("focal lengths must be positive")
        if not (0 < self.cx < self.width) or not (0 < self.cy < self.height):
            raise ContractViolation("principal point must lie inside the image")

    def normalized_grid(self):
        """Per-pixel normalized ray coordinates ((u-cx)/fx, (v-cy)/fy), read-only.

        Computed once per set of intrinsics values and kept on the instance,
        since every warp needs it.
        """
        key = (self.fx, self.fy, self.cx, self.cy, self.width, self.height)
        cached = self.__dict__.get("_grid")
        if cached is None or cached[0] != key:
            u = np.arange(self.width, dtype=np.float64)
            v = np.arange(self.height, dtype=np.float64)
            uu, vv = np.meshgrid(u, v)
            xn, yn = (uu - self.cx) / self.fx, (vv - self.cy) / self.fy
            xn.flags.writeable = yn.flags.writeable = False
            cached = self._grid = (key, xn, yn)
        return cached[1], cached[2]


# --------------------------------------------------------------------------
# quaternions (w, x, y, z)


def _norm(v):
    """Euclidean norm of one vector: np.linalg.norm's sqrt(v . v), bitwise,
    without its per-call cost."""
    return math.sqrt(v.dot(v))


def _cross(a, b):
    """np.cross of two 3-vectors, written out with its products and
    differences in its order (so bitwise equal), without its per-call cost."""
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def quat_normalize(q):
    q = np.asarray(q, dtype=np.float64)
    return q / _norm(q)


def _wxyz(q):
    """Components of one quaternion, as floats (twice as fast as numpy
    scalars), or of an (N, 4) stack, as four (N,) arrays."""
    q = np.asarray(q)
    return q.tolist() if q.ndim == 1 else q.T


def quat_mul(a, b):
    """Hamilton product a * b of two quaternions or (N, 4) stacks."""
    aw, ax, ay, az = _wxyz(a)
    bw, bx, by, bz = _wxyz(b)
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ]).T


_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def quat_conj(q):
    return np.asarray(q) * _CONJ


def quat_to_matrix(q):
    """Rotation matrix (3, 3) of a quaternion, or (N, 3, 3) of an (N, 4) stack."""
    w, x, y, z = _wxyz(q)
    return np.array([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ]).T.reshape(np.shape(q)[:-1] + (3, 3))


def quat_to_rotvec(q):
    """Rotation vector (axis * angle, angle in [0, pi]) of a unit quaternion
    or an (N, 4) stack: the log map, angle = 2 atan2(|v|, |w|)."""
    q = np.asarray(q, dtype=np.float64)
    q = np.where(q[..., :1] < 0, -q, q)        # -q is the same rotation
    w, v = q[..., 0], q[..., 1:]
    vn = np.linalg.norm(v, axis=-1)
    small = vn < 1e-12
    scale = np.where(small, 2.0, 2.0 * np.arctan2(vn, w) / np.where(small, 1.0, vn))
    return v * scale[..., None]


def matrix_to_quat(R):
    R = np.asarray(R, dtype=np.float64)
    tr = np.trace(R)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(R[i, i] - R[j, j] - R[k, k] + 1.0, 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    if q[0] < 0:
        q = -q
    return quat_normalize(q)


def quat_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=np.float64)
    n = _norm(axis)
    if n == 0.0:
        return np.array([1.0, 0.0, 0.0, 0.0])
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * axis / n))


# Power-series coefficients of A, B, C in t2 = theta^2, highest power
# first: (-1)^k / (2k + n)! for n = 1, 2, 3; for t2 < 1 ten terms reach
# rounding level.
_SERIES = tuple(tuple((-1.0) ** k / math.factorial(2 * k + n) for n in (1, 2, 3))
                for k in reversed(range(10)))


def _exp_coeffs(t2):
    """Coefficients of the exponential at theta^2 = t2, and their t2-derivatives.

    Returns (A, B, C, dA, dB, dC) with A = sin(th)/th, B = (1 - cos th)/th^2
    and C = (1 - A)/th^2, so that exp(phi^) = I + A K + B K^2 and the SE(3)
    V matrix is I + B K + C K^2 (K = skew(phi)). The closed forms lose up
    to eps/th^4 to cancellation, so below th = 1 the power series replaces
    them.
    """
    if t2 < 1.0:
        # Horner's rule, carrying each polynomial's derivative along
        A = B = C = dA = dB = dC = 0.0
        for a, b, c in _SERIES:
            dA, dB, dC = dA * t2 + A, dB * t2 + B, dC * t2 + C
            A, B, C = A * t2 + a, B * t2 + b, C * t2 + c
        return A, B, C, dA, dB, dC
    th = np.sqrt(t2)
    c = np.cos(th)
    A = np.sin(th) / th
    B = (1.0 - c) / t2
    C = (1.0 - A) / t2
    h = 0.5 / t2
    return A, B, C, (c - A) * h, (A - 2.0 * B) * h, (B - 3.0 * C) * h


def rotvec_to_matrix(phi):
    """Rodrigues formula; exact for any angle, Taylor branch near zero."""
    phi = np.asarray(phi, dtype=np.float64)
    A, B = _exp_coeffs(float(phi @ phi))[:2]
    K = skew(phi)
    return np.eye(3) + A * K + B * (K @ K)


def skew(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


# --------------------------------------------------------------------------
# SE(3)


@dataclass
class SE3Pose:
    """Rigid transform: rotation (unit quaternion, w first) + translation."""

    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        self.t = np.asarray(self.t, dtype=np.float64)
        n = np.linalg.norm(self.q)
        if abs(n - 1.0) > 1e-6:
            raise ContractViolation(f"quaternion norm {n} too far from 1")
        if abs(n - 1.0) > 1e-12:
            self.q = self.q / n

    @classmethod
    def identity(cls) -> "SE3Pose":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @classmethod
    def from_matrix(cls, R, t) -> "SE3Pose":
        return cls(matrix_to_quat(R), np.asarray(t, dtype=np.float64))

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.q)

    def compose(self, other: "SE3Pose") -> "SE3Pose":
        """self applied after other: (self*other)(p) = self(other(p))."""
        R = self.rotation_matrix()
        return SE3Pose(quat_mul(self.q, other.q), R @ other.t + self.t)

    def inverse(self) -> "SE3Pose":
        R = self.rotation_matrix()
        return SE3Pose(quat_conj(self.q), -(R.T @ self.t))

    def apply(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        return pts @ self.rotation_matrix().T + self.t


def se3_exp(xi) -> SE3Pose:
    """Exponential map of a twist (rho[3], phi[3]) to an SE3Pose."""
    return SE3Pose.from_matrix(*se3_exp_entries(np.asarray(xi, dtype=np.float64)))


def se3_log(pose: SE3Pose) -> np.ndarray:
    """Inverse of se3_exp for rotations below pi."""
    phi = quat_to_rotvec(pose.q)
    _, B, _, _, dB, _ = _exp_coeffs(float(phi @ phi))
    D = -dB / B         # (1 - A / 2B) / th^2 without its cancellation
    K = skew(phi)
    Vinv = np.eye(3) - 0.5 * K + D * (K @ K)
    return np.concatenate([Vinv @ pose.t, phi])


def _exp_vjp(G, phi, t2, a, b, da, db):
    """Gradient in phi of <G, a K + b K^2>, where K = skew(phi) and a, b are
    functions of t2 = |phi|^2 with derivatives da, db.

    Uses <G, K> = phi . w(G) and <G, K^2> = phi^T G phi - t2 tr(G), since
    K^2 = phi phi^T - t2 I.
    """
    w = np.array([G[2, 1] - G[1, 2], G[0, 2] - G[2, 0], G[1, 0] - G[0, 1]])
    tr = np.trace(G)
    Gs_phi = (G + G.T) @ phi
    inner_k = phi @ w
    inner_k2 = 0.5 * (phi @ Gs_phi) - t2 * tr
    return (2.0 * (da * inner_k + db * inner_k2) * phi + a * w
            + b * (Gs_phi - 2.0 * tr * phi))


def se3_exp_entries(xi):
    """se3_exp as arrays: R (3, 3) and t (3,) of the twist xi (6,).

    se3_exp is this pair as an SE3Pose, and R is rotvec_to_matrix(xi[3:]).
    se3_exp_vjp is its reverse.
    """
    xi = np.asarray(xi, dtype=np.float64)
    rho, phi = xi[:3], xi[3:]
    A, B, C = _exp_coeffs(float(phi @ phi))[:3]
    K = skew(phi)
    KK = K @ K
    V = np.eye(3) + B * K + C * KK
    return np.eye(3) + A * K + B * KK, V @ rho


def se3_exp_vjp(xi, dR, dt):
    """Gradient in the twist xi of <dR, R> + <dt, t>, where (R, t) =
    se3_exp_entries(xi): the closed form of the exponential's derivative
    (Sola et al., "A micro Lie theory", 2018)."""
    rho, phi = xi[:3], xi[3:]
    t2 = float(phi @ phi)
    A, B, C, dA, dB, dC = _exp_coeffs(t2)
    K = skew(phi)
    V = np.eye(3) + B * K + C * (K @ K)
    return np.concatenate([V.T @ dt, _exp_vjp(dR, phi, t2, A, B, dA, dB)
                           + _exp_vjp(np.outer(dt, rho), phi, t2, B, C, dB, dC)])


def pose_entries(pose: SE3Pose):
    """(R, t) arrays of an SE3Pose for the generic warp path."""
    return pose.rotation_matrix(), pose.t


def invert_entries(R, t):
    """Exact inverse of (R, t): (R^T, -R^T t)."""
    return R.T, -(R.T @ t)


def invert_entries_vjp(R, t, dRi, dti):
    """(dR, dt) of invert_entries(R, t) for the gradients (dRi, dti) of its outputs."""
    return dRi.T - np.outer(t, dti), -(R @ dti)


# --------------------------------------------------------------------------
# bilinear sampling

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
    """The Stencil of coords (x, y) on a grid of `shape`.

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


class Sample(NamedTuple):
    """Bilinear samples of an image through a stencil, with what their
    coordinate gradient needs: the differences along x of the cell's top
    and bottom corners (i01 - i00, i11 - i10) and the slope along y
    (bottom minus top). The sample's reverse (sample_vjp) overwrites dbot
    and dy."""

    value: np.ndarray
    dtop: np.ndarray
    dbot: np.ndarray
    dy: np.ndarray


def sample(img, stencil: Stencil) -> Sample:
    """Bilinearly sample `img` through `stencil`: the four corners are read
    with `take` on the flat image. Out-of-bounds lookups are clamped (the
    caller masks them with stencil.in_bounds)."""
    if img.shape != stencil.shape:
        raise ValueError("stencil was built for another grid shape")
    idx, fx, fy = stencil.idx, stencil.fx, stencil.fy
    w = stencil.shape[1]
    flat = img.ravel()
    i00 = flat.take(idx)
    i10 = flat.take(idx + w)
    dtop = flat.take(idx + 1) - i00
    dbot = flat.take(idx + (w + 1)) - i10
    top = i00 + fx * dtop
    dy = i10 + fx * dbot - top
    return Sample(top + fy * dy, dtop, dbot, dy)


def sample_vjp(g, s: Sample, stencil: Stencil):
    """Coordinate gradients (dL/dx, dL/dy) of sample(img, stencil) for
    dL/dvalue = g, where g vanishes off the stencil's in-bounds mask.
    Computed in place of s.dbot and s.dy, so it runs once per sample."""
    gx = s.dbot
    gx -= s.dtop
    gx *= stencil.fy
    gx += s.dtop
    gx *= g
    gy = s.dy
    gy *= g
    return gx, gy


def sample_image_vjp(g, stencil: Stencil):
    """dL/dimg of sample(img, stencil) for dL/dvalue = g, counted only in
    bounds: one scatter of the four corners' weighted gradients, corner by
    corner as four np.add.at calls would add them."""
    h, w = stencil.shape
    idx, fx, fy = stencil.idx, stencil.fx, stencil.fy
    gm = g * stencil.in_bounds
    weights = np.concatenate([(gm * ((1.0 - fx) * (1.0 - fy))).ravel(),
                              (gm * (fx * (1.0 - fy))).ravel(),
                              (gm * ((1.0 - fx) * fy)).ravel(),
                              (gm * (fx * fy)).ravel()])
    corners = np.concatenate([idx.ravel(), (idx + 1).ravel(),
                              (idx + w).ravel(), (idx + (w + 1)).ravel()])
    return np.bincount(corners, weights, h * w).reshape(h, w)


# --------------------------------------------------------------------------
# projection and warping

Z_EPS = 1e-9


def project(p, depth, K: CameraIntrinsics, pose: SE3Pose):
    """Project one target pixel into the source view.

    Computes K (R K^-1 p depth + t), dehomogenized. Returns ((x, y), valid)
    where valid is False when the transformed point lands at or behind the
    camera plane (z <= 0); coordinates are not clamped.
    """
    u, v = float(p[0]), float(p[1])
    if depth <= 0:
        raise ContractViolation("depth must be positive")
    if not (0 <= u <= K.width - 1 and 0 <= v <= K.height - 1):
        raise ContractViolation("pixel outside image bounds")
    X = np.array([(u - K.cx) / K.fx * depth, (v - K.cy) / K.fy * depth, depth])
    Xc = pose.apply(X)
    if Xc[2] <= Z_EPS:
        return (np.nan, np.nan), False
    return (K.fx * Xc[0] / Xc[2] + K.cx, K.fy * Xc[1] / Xc[2] + K.cy), True


def rigid_transform(R, t, X, Y, Z):
    """Rows of R @ (X, Y, Z) + t for a (k, 3) R and a (k,) t: row i is
    R[i, 0] * X + R[i, 1] * Y + R[i, 2] * Z + t[i], evaluated in that order."""
    return tuple(R[i, 0] * X + R[i, 1] * Y + R[i, 2] * Z + t[i] for i in range(len(t)))


def project_grid(depth_t, K: CameraIntrinsics, R, t):
    """Warp coordinates for every target pixel.

    Returns (xs, ys, zs, front) where front marks z > 0, zs is the divisor
    of the dehomogenization (z where front, 1 elsewhere) and (xs, ys) are
    continuous source-pixel coords (safe values where front is False).
    """
    xn, yn = K.normalized_grid()
    Xc, Yc, Zc = rigid_transform(R, t, xn * depth_t, yn * depth_t, depth_t)
    front = Zc > Z_EPS
    zs = np.where(front, Zc, 1.0)
    xs = K.fx * (Xc / zs) + K.cx
    ys = K.fy * (Yc / zs) + K.cy
    return xs, ys, zs, front


def project_grid_vjp(gx, gy, grid, depth_t, K: CameraIntrinsics, R, with_depth=False):
    """Reverse of project_grid for dL/dxs = gx and dL/dys = gy, both zero
    off the front mask: the pinhole Jacobian, then the rigid transform.

    Returns (dR, dt, d depth_t), the last None unless with_depth. Works in
    place of gx, gy and the grid's xs, ys and zs, so it runs once per grid.
    """
    xn, yn = K.normalized_grid()
    # d/dz of fx X / z is -(fx X / z) / z, and fx X / z = xs - cx
    dZ = grid.xs
    dZ -= K.cx
    dZ *= gx
    tmp = grid.ys
    tmp -= K.cy
    tmp *= gy
    dZ += tmp
    dZ /= grid.zs
    np.negative(dZ, out=dZ)
    dX = gx
    dX *= K.fx
    dX /= grid.zs
    dY = gy
    dY *= K.fy
    dY /= grid.zs
    dR, dt = np.empty((3, 3)), np.empty(3)
    for i, d in enumerate((dX, dY, dZ)):
        dt[i] = d.sum()
        np.multiply(d, depth_t, out=tmp)
        dR[i] = tmp.ravel() @ xn.ravel(), tmp.ravel() @ yn.ravel(), tmp.sum()
    if not with_depth:
        return dR, dt, None
    E = (R.T @ np.stack([dX, dY, dZ]).reshape(3, -1)).reshape((3,) + depth_t.shape)
    return dR, dt, E[0] * xn + E[1] * yn + E[2]


class WarpGrid:
    """One pose's projection of the target grid (project_grid's xs, ys, zs
    and front mask), the bilinear stencil of (xs, ys) on the image grid, and
    the samples that warp_image and warp_depth_parts take through it, kept
    for the reverse (`image`, and `depth` = (sample, xn_s, yn_s))."""

    __slots__ = ("xs", "ys", "zs", "front", "stencil", "image", "depth")
    # (the reverse, project_grid_vjp and warp_depth_vjp, works in place of
    # these arrays, so it runs once per grid)

    def __init__(self, xs, ys, zs, front, stencil):
        self.xs, self.ys, self.zs, self.front, self.stencil = xs, ys, zs, front, stencil
        self.image = self.depth = None


def warp_grid(depth_t, K: CameraIntrinsics, R, t):
    """What a warp needs from one pose: project_grid's outputs plus the
    bilinear stencil of (xs, ys) on the image grid. Pass it as `grid` to
    warp_image and warp_depth_parts when both warp through the same pose,
    so the pose is projected once."""
    xs, ys, zs, front = project_grid(depth_t, K, R, t)
    return WarpGrid(xs, ys, zs, front, bilinear_stencil(xs, ys, (K.height, K.width)))


def warp_image(source, depth_t, K: CameraIntrinsics, R, t, grid=None):
    """Generic inverse warp; returns (recon, mask) with recon zeroed at
    invalid pixels. grid: warp_grid(depth_t, K, R, t), when the caller
    already has it; the sample is kept on it as grid.image."""
    grid = warp_grid(depth_t, K, R, t) if grid is None else grid
    grid.image = sample(source, grid.stencil)
    mask = grid.front & grid.stencil.in_bounds
    # masked in place: the kept sample's value is the reconstruction
    recon = grid.image.value
    recon *= mask
    return recon, mask


def inverse_warp(source, depth_t, pose: SE3Pose, K: CameraIntrinsics):
    """Reconstruct the target image by sampling `source` through the pose.

    `pose` maps target-frame coordinates into the source frame. The mask
    marks pixels whose warped lookup stays inside the source image and in
    front of the camera; masked pixels carry exactly 0 in the output.
    """
    source = np.asarray(source, dtype=np.float64)
    depth_t = np.asarray(depth_t, dtype=np.float64)
    if source.shape != (K.height, K.width) or depth_t.shape != source.shape:
        raise ContractViolation("image/depth shape does not match intrinsics")
    R, t = pose_entries(pose)
    return warp_image(source, depth_t, K, R, t)


def warp_depth_parts(source_depth, depth_t, K: CameraIntrinsics, R, t, grid=None):
    """Warp a source depth map onto the target grid, in target coordinates.

    Samples source_depth at the projected coordinates, lifts the sampled
    value back to a 3-D point in the source frame, and transforms it into
    the target frame; the reported depth is that point's target-frame z.
    Returns (warped, mask) where `warped` holds safe positive values at
    masked pixels (callers decide the fill policy). grid: as in warp_image;
    what the reverse needs is kept on it as grid.depth.
    """
    grid = warp_grid(depth_t, K, R, t) if grid is None else grid
    s = sample(source_depth, grid.stencil)
    ds = s.value
    xn_s = (grid.xs - K.cx) / K.fx
    yn_s = (grid.ys - K.cy) / K.fy
    Xs = xn_s * ds
    Ys = yn_s * ds
    Ri, ti = invert_entries(R, t)
    # target-frame z of the lifted source point: row 2 of R^T P - R^T t
    (warped,) = rigid_transform(Ri[2:], ti[2:], Xs, Ys, ds)
    mask = grid.front & grid.stencil.in_bounds & (warped > 0.0)
    grid.depth = (s, xn_s, yn_s)
    return warped, mask


def warp_depth_vjp(gw, grid, K: CameraIntrinsics, R, t):
    """Reverse of warp_depth_parts through `grid` for dL/dwarped = gw, zero
    off its mask.

    Returns (gx, gy, dR, dt, gd): the gradients in the warp coordinates, the
    pose gradient through the inverse's third row, and dL/d(sampled source
    depth), which sample_image_vjp scatters onto the source depth map. Works
    in place of gw and grid.depth, so it runs once per grid.
    """
    s, xn_s, yn_s = grid.depth
    r = R[:, 2]                     # the third row of R^T
    gwd = gw * s.value              # the gradient of Xs / xn_s, and of Ys / yn_s
    dRi = np.zeros((3, 3))
    dRi[2] = gwd.ravel() @ xn_s.ravel(), gwd.ravel() @ yn_s.ravel(), gw.ravel() @ s.value.ravel()
    dti = np.zeros(3)
    dti[2] = gw.sum()
    # warped = r . (xn_s ds, yn_s ds, ds) - r . t
    gd = xn_s
    gd *= r[0]
    yn_s *= r[1]
    gd += yn_s
    gd += r[2]
    gd *= gw
    gx, gy = sample_vjp(gd, s, grid.stencil)
    np.multiply(gwd, r[1] / K.fy, out=yn_s)
    gy += yn_s
    gwd *= r[0] / K.fx
    gx += gwd
    dR, dt = invert_entries_vjp(R, t, dRi, dti)
    return gx, gy, dR, dt, gd


def warp_depth(source_depth, depth_t, pose: SE3Pose, K: CameraIntrinsics):
    """Public depth reprojection: masked pixels carry exactly 0."""
    source_depth = np.asarray(source_depth, dtype=np.float64)
    depth_t = np.asarray(depth_t, dtype=np.float64)
    if source_depth.shape != (K.height, K.width) or depth_t.shape != source_depth.shape:
        raise ContractViolation("depth shape does not match intrinsics")
    R, t = pose_entries(pose)
    warped, mask = warp_depth_parts(source_depth, depth_t, K, R, t)
    return warped * mask.astype(np.float64), mask
