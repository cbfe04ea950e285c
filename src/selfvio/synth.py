"""Synthetic ground truth: ray-cast gate scenes and quadrotor sensor streams.

World frame: z up, gravity (0, 0, -9.81); the gate and background are
vertical planes normal to +x. Body frame: x forward, y left, z up; the
camera looks along body x (camera z forward = body x, camera x right =
body -y, camera y down = body -z).

The scene is a textured axis-aligned box enclosing the camera (so every
ray hits geometry from any pose) with a rectangular-annulus gate occluder
plane inside it. Rendering ray-casts with an exact z-buffer: per-pixel
depth is the analytic ray parameter, and per-pixel world hit points back
the disocclusion oracle.

Sensor simulation solves the reference attitude/thrust that makes a
twice-differentiable trajectory dynamically consistent with a
linear-rotor-drag model, then samples gyro as the exact per-interval
rotation rate and the accelerometer as the mid-interval specific force
(what real IMU delta outputs represent).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (ContractViolation, CameraIntrinsics, SE3Pose,
                       matrix_to_quat, quat_conj, quat_mul, quat_to_rotvec)

GRAVITY = 9.81                     # m/s^2, shared by the filters and the CLI
G_WORLD = np.array([0.0, 0.0, -GRAVITY])

# camera axes expressed in the body frame (camera z = body x, etc.)
R_CB = np.array([[0.0, 0.0, 1.0],
                 [-1.0, 0.0, 0.0],
                 [0.0, -1.0, 0.0]])


class SimulationInfeasible(ValueError):
    """The requested trajectory cannot be flown by the reference model."""


# --------------------------------------------------------------------------
# scene and textures


class _ValueNoise:
    """Smooth tiling value noise: bilinear interpolation of a seeded grid."""

    def __init__(self, seed, cell=0.55, n=64):
        rng = np.random.default_rng(seed)
        self.grid = rng.random((n, n))
        self.cell = cell
        self.n = n

    def __call__(self, u, v):
        gu = np.asarray(u) / self.cell
        gv = np.asarray(v) / self.cell
        iu = np.floor(gu).astype(np.int64)
        iv = np.floor(gv).astype(np.int64)
        fu = gu - iu
        fv = gv - iv
        iu %= self.n
        iv %= self.n
        ju = (iu + 1) % self.n
        jv = (iv + 1) % self.n
        g = self.grid
        top = g[iv, iu] * (1 - fu) + g[iv, ju] * fu
        bot = g[jv, iu] * (1 - fu) + g[jv, ju] * fu
        return top * (1 - fv) + bot * fv


class _SurfaceTexture:
    """Smooth value-noise + sinusoidal pseudo-checker, values in [0,1]."""

    def __init__(self, seed, checker_period=0.8, phase=0.0):
        self.noise = _ValueNoise(seed)
        self.period = checker_period
        self.phase = phase

    def __call__(self, u, v):
        w = 2.0 * np.pi / self.period
        checker = np.sin(w * u + self.phase) * np.sin(w * v + self.phase)
        return 0.5 + (0.22 * checker + 0.24 * (2.0 * self.noise(u, v) - 1.0))


@dataclass
class SceneSpec:
    """Textured box world with a rectangular gate occluder."""

    bg_depth: float = 8.0          # +x box face (the background plane)
    box_back: float = -6.0         # -x box face
    box_halfwidth: float = 5.0     # +-y faces
    box_floor: float = -3.0
    box_ceiling: float = 5.0
    gate_x: float = 4.0
    gate_center: tuple = (0.0, 1.2)            # (y, z)
    gate_inner: tuple = (0.5, 0.5)             # hole half-extents (y, z)
    gate_outer: tuple = (0.95, 0.95)           # frame half-extents (y, z)
    texture_seed: int = 0

    def __post_init__(self):
        if self.texture_seed < 0:
            raise ContractViolation("texture_seed must be non-negative")
        if not (self.box_back < self.gate_x < self.bg_depth):
            raise ContractViolation("gate must lie strictly in front of background")
        if not (self.gate_inner[0] < self.gate_outer[0]
                and self.gate_inner[1] < self.gate_outer[1]):
            raise ContractViolation("gate inner extents must be inside outer extents")
        self._textures = [
            _SurfaceTexture(self.texture_seed + i, checker_period=0.7 + 0.13 * i,
                            phase=0.37 * i)
            for i in range(7)
        ]

    # surface ids: 0..5 = box faces (+x,-x,+y,-y,+z,-z), 6 = gate
    def contains(self, p, margin=1e-6):
        return (self.box_back + margin < p[0] < self.bg_depth - margin
                and -self.box_halfwidth + margin < p[1] < self.box_halfwidth - margin
                and self.box_floor + margin < p[2] < self.box_ceiling - margin)

    def in_gate_annulus(self, y, z):
        cy, cz = self.gate_center
        dy = np.abs(np.asarray(y) - cy)
        dz = np.abs(np.asarray(z) - cz)
        outer = (dy <= self.gate_outer[0]) & (dz <= self.gate_outer[1])
        inner = (dy < self.gate_inner[0]) & (dz < self.gate_inner[1])
        return outer & ~inner

    def texture(self, surface, u, v):
        return np.clip(self._textures[surface](u, v), 0.0, 1.0)


@dataclass
class SimulatedFrame:
    image: np.ndarray
    depth: np.ndarray
    pose: SE3Pose          # world <- camera
    timestamp: float


def camera_pose(position, yaw=0.0, pitch=0.0, roll=0.0) -> SE3Pose:
    """World<-camera pose for a body at `position` with ZYX euler attitude."""
    cz, sz = np.cos(yaw), np.sin(yaw)
    cy, sy = np.cos(pitch), np.sin(pitch)
    cx, sx = np.cos(roll), np.sin(roll)
    Rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    Ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    Rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    R_wb = Rz @ Ry @ Rx
    return SE3Pose.from_matrix(R_wb @ R_CB, np.asarray(position, dtype=np.float64))


_RAY_EPS = 1e-12


def _ray_depths(scene: SceneSpec, origin, dirs):
    """Per-ray depth (camera-z parameter) and surface id; dirs has unit
    camera-z so the plane parameter equals the pinhole depth."""
    ox, oy, oz = origin
    dx, dy, dz = dirs[..., 0], dirs[..., 1], dirs[..., 2]

    best = np.full(dx.shape, np.inf)
    surf = np.full(dx.shape, -1, dtype=np.int8)

    planes = [
        (0, 0, scene.bg_depth), (1, 0, scene.box_back),
        (2, 1, scene.box_halfwidth), (3, 1, -scene.box_halfwidth),
        (4, 2, scene.box_ceiling), (5, 2, scene.box_floor),
    ]
    o = np.array([ox, oy, oz])
    d_axis = [dx, dy, dz]
    for sid, axis, coord in planes:
        da = d_axis[axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (coord - o[axis]) / da
        s = np.where(np.abs(da) > _RAY_EPS, s, np.inf)
        s = np.where(s > _RAY_EPS, s, np.inf)
        closer = s < best
        best = np.where(closer, s, best)
        surf = np.where(closer, np.int8(sid), surf)

    with np.errstate(divide="ignore", invalid="ignore"):
        sg = (scene.gate_x - ox) / dx
    sg = np.where((np.abs(dx) > _RAY_EPS) & (sg > _RAY_EPS), sg, np.inf)
    hy = oy + sg * dy
    hz = oz + sg * dz
    gate_hit = np.isfinite(sg) & scene.in_gate_annulus(hy, hz)
    closer = gate_hit & (sg < best)
    best = np.where(closer, sg, best)
    surf = np.where(closer, np.int8(6), surf)
    return best, surf


def _surface_uv(scene, surf, pts):
    u = np.zeros(surf.shape)
    v = np.zeros(surf.shape)
    for sid in range(7):
        sel = surf == sid
        if not sel.any():
            continue
        if sid in (0, 1, 6):      # x-normal planes
            u[sel], v[sel] = pts[..., 1][sel], pts[..., 2][sel]
        elif sid in (2, 3):       # y-normal
            u[sel], v[sel] = pts[..., 0][sel], pts[..., 2][sel]
        else:                     # z-normal
            u[sel], v[sel] = pts[..., 0][sel], pts[..., 1][sel]
    return u, v


def render(scene: SceneSpec, pose: SE3Pose, K: CameraIntrinsics,
           timestamp=0.0) -> SimulatedFrame:
    """Exact ray-cast render of the scene from a world<-camera pose."""
    origin = pose.t
    if not scene.contains(origin):
        raise ContractViolation("camera must be strictly inside the scene box")
    if abs(origin[0] - scene.gate_x) < 1e-6:
        raise ContractViolation("camera lies on the gate plane")

    xn, yn = K.normalized_grid()
    d_cam = np.stack([xn, yn, np.ones_like(xn)], axis=-1)
    d_world = d_cam @ pose.rotation_matrix().T

    depth, surf = _ray_depths(scene, origin, d_world)
    if not np.all(np.isfinite(depth)):
        raise ContractViolation("a ray escaped the scene box")
    pts = origin + depth[..., None] * d_world
    u, v = _surface_uv(scene, surf, pts)
    image = np.empty(depth.shape)
    for sid in range(7):
        sel = surf == sid
        if sel.any():
            image[sel] = scene.texture(sid, u[sel], v[sel])
    return SimulatedFrame(image=image, depth=depth, pose=pose, timestamp=float(timestamp))


def world_points(frame: SimulatedFrame, K: CameraIntrinsics):
    """Per-pixel world hit points of a rendered frame."""
    xn, yn = K.normalized_grid()
    d_cam = np.stack([xn, yn, np.ones_like(xn)], axis=-1)
    d_world = d_cam @ frame.pose.rotation_matrix().T
    return frame.pose.t + frame.depth[..., None] * d_world


def gate_occludes(scene: SceneSpec, pts, cam_center):
    """True where the gate blocks the segment from cam_center to pts."""
    pts = np.asarray(pts, dtype=np.float64)
    o = np.asarray(cam_center, dtype=np.float64)
    dx = pts[..., 0] - o[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = (scene.gate_x - o[0]) / dx
    crossing = (np.abs(dx) > _RAY_EPS) & (tau > 1e-9) & (tau < 1.0 - 1e-9)
    hy = o[1] + tau * (pts[..., 1] - o[1])
    hz = o[2] + tau * (pts[..., 2] - o[2])
    return crossing & scene.in_gate_annulus(hy, hz)


def in_view(pts, pose: SE3Pose, K: CameraIntrinsics):
    """True where world points project inside the image, in front of the camera."""
    pc = (np.asarray(pts) - pose.t) @ pose.rotation_matrix()
    z = pc[..., 2]
    safe = np.where(z > 1e-9, z, 1.0)
    x = K.fx * pc[..., 0] / safe + K.cx
    y = K.fy * pc[..., 1] / safe + K.cy
    return (z > 1e-9) & (x >= 0) & (x <= K.width - 1) & (y >= 0) & (y <= K.height - 1)


def _dilate1(mask):
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def disocclusion_oracle(scene: SceneSpec, target: SimulatedFrame,
                        source_pose: SE3Pose, K: CameraIntrinsics,
                        footprint=0):
    """Which target pixels cannot be reconstructed from the source view.

    Returns dict with boolean maps: 'occluded' (gate blocks the source
    ray), 'out_of_view' (projects outside the source image or behind its
    camera) and 'flagged' (their union). `footprint` dilates the flagged
    set by that many pixels: a bilinear reconstructor mixes the 4 nearest
    source samples, so pixels one step from an unreconstructable region
    are themselves corrupted.
    """
    pts = world_points(target, K)
    occluded = gate_occludes(scene, pts, source_pose.t)
    oov = ~in_view(pts, source_pose, K)
    flagged = occluded | oov
    for _ in range(footprint):
        flagged = _dilate1(flagged)
    return {"occluded": occluded, "out_of_view": oov, "flagged": flagged}


# --------------------------------------------------------------------------
# trajectories


TRAJECTORY_KINDS = ("ellipse", "lemniscate", "racing3d", "straight")


@dataclass
class TrajectorySpec:
    kind: str = "ellipse"
    period: float = 12.0           # seconds per lap after the ramp
    peak_speed: float = 4.0        # m/s
    duration: float = 20.0
    cam_hz: float = 120.0
    imu_hz: float = 500.0
    start_hover: float = 1.0       # hover before the ramp (s)
    ramp: float = 1.5              # C2 speed-up duration (s)
    center: tuple = (0.0, 0.0, 1.2)
    z_amplitude: float = 1.0       # racing3d vertical oscillation (m)
    climb: float = 0.0             # optional takeoff climb during the ramp (m)
    yaw_mode: str = "fixed"        # 'fixed' or 'follow'
    yaw0: float = 0.0

    def __post_init__(self):
        if self.kind not in TRAJECTORY_KINDS:
            raise ContractViolation(f"unknown trajectory kind {self.kind!r}")
        if self.peak_speed <= 0 or self.period <= 0 or self.cam_hz <= 0 or self.ramp <= 0:
            raise ContractViolation("peak speed, period, camera rate and ramp must be positive")
        if self.duration <= 0 or round(self.duration * self.imu_hz) < 1:
            raise ContractViolation("duration must be positive and span an IMU period")
        if self.imu_hz < self.cam_hz:
            raise ContractViolation("IMU rate must be at least the camera rate")
        if self.yaw_mode not in ("fixed", "follow"):
            raise ContractViolation("yaw_mode must be 'fixed' or 'follow'")


def _phase(spec: TrajectorySpec, t):
    """C2 time warp: hover, quintic-smoothstep ramp, then unit rate.
    Returns (phi, dphi, ddphi)."""
    t = np.asarray(t, dtype=np.float64)
    t0, tr = spec.start_hover, spec.ramp
    u = np.clip((t - t0) / tr, 0.0, 1.0)
    r = 6 * u**5 - 15 * u**4 + 10 * u**3
    rint = u**6 - 3 * u**5 + 2.5 * u**4          # integral of r; rint(1) = 0.5
    dr = (30 * u**4 - 60 * u**3 + 30 * u**2) / tr
    after = 0.5 * tr + (t - t0 - tr)
    phi = np.where(t <= t0, 0.0, np.where(t < t0 + tr, tr * rint, after))
    dphi = np.where(t <= t0, 0.0, np.where(t < t0 + tr, r, 1.0))
    ddphi = np.where((t > t0) & (t < t0 + tr), dr, 0.0)
    return phi, dphi, ddphi


def _curve(spec: TrajectorySpec, phi):
    """Analytic curve position/velocity/acceleration in curve parameter."""
    phi = np.asarray(phi, dtype=np.float64)
    c = np.asarray(spec.center, dtype=np.float64)
    w = 2.0 * np.pi / spec.period
    th = w * phi
    if spec.kind == "straight":
        v = spec.peak_speed
        p = c + np.stack([v * phi, np.zeros_like(phi), np.zeros_like(phi)], axis=-1)
        dp = np.stack([np.full_like(phi, v), np.zeros_like(phi), np.zeros_like(phi)], axis=-1)
        ddp = np.zeros_like(dp)
        return p, dp, ddp
    if spec.kind == "ellipse":
        A = spec.peak_speed / w
        B = 0.6 * A
        p = c + np.stack([A * np.cos(th), B * np.sin(th), np.zeros_like(th)], axis=-1)
        dp = np.stack([-A * w * np.sin(th), B * w * np.cos(th), np.zeros_like(th)], axis=-1)
        ddp = np.stack([-A * w * w * np.cos(th), -B * w * w * np.sin(th), np.zeros_like(th)], axis=-1)
        return p, dp, ddp
    if spec.kind == "lemniscate":
        A = spec.peak_speed / w
        B = 0.7 * A
        p = c + np.stack([A * np.sin(th), B * np.sin(th) * np.cos(th), np.zeros_like(th)], axis=-1)
        dp = np.stack([A * w * np.cos(th), B * w * np.cos(2 * th), np.zeros_like(th)], axis=-1)
        ddp = np.stack([-A * w * w * np.sin(th), -2 * B * w * w * np.sin(2 * th), np.zeros_like(th)], axis=-1)
        return p, dp, ddp
    # racing3d: ellipse plus a double-frequency vertical oscillation
    A = spec.peak_speed / w
    B = 0.6 * A
    C = spec.z_amplitude
    p = c + np.stack([A * np.cos(th), B * np.sin(th), C * np.sin(2 * th)], axis=-1)
    dp = np.stack([-A * w * np.sin(th), B * w * np.cos(th), 2 * C * w * np.cos(2 * th)], axis=-1)
    ddp = np.stack([-A * w * w * np.cos(th), -B * w * w * np.sin(th), -4 * C * w * w * np.sin(2 * th)], axis=-1)
    return p, dp, ddp


def _climb_profile(spec: TrajectorySpec, t):
    """C2 vertical takeoff bump over the ramp window: (z, dz, ddz)."""
    t = np.asarray(t, dtype=np.float64)
    t0, tr, h = spec.start_hover, spec.ramp, spec.climb
    u = np.clip((t - t0) / tr, 0.0, 1.0)
    z = h * (6 * u**5 - 15 * u**4 + 10 * u**3)
    dz = h * (30 * u**4 - 60 * u**3 + 30 * u**2) / tr
    ddz = h * (120 * u**3 - 180 * u**2 + 60 * u) / tr**2
    inside = (t > t0) & (t < t0 + tr)
    return z, np.where(inside, dz, 0.0), np.where(inside, ddz, 0.0)


def trajectory_state(spec: TrajectorySpec, t):
    """Position, velocity, acceleration and yaw at times t (vectorized)."""
    phi, dphi, ddphi = _phase(spec, t)
    p, dp, ddp = _curve(spec, phi)
    v = dp * dphi[..., None]
    a = ddp * (dphi ** 2)[..., None] + dp * ddphi[..., None]
    if spec.climb != 0.0:
        z, dz, ddz = _climb_profile(spec, t)
        p = p.copy()
        p[..., 2] += z
        v[..., 2] += dz
        a[..., 2] += ddz
    if spec.yaw_mode == "fixed":
        yaw = np.full(np.shape(t), spec.yaw0, dtype=np.float64)
    else:
        yaw = np.arctan2(dp[..., 1], dp[..., 0])
    return p, v, a, yaw


# --------------------------------------------------------------------------
# reference dynamics


MASS = 0.8                         # kg
KT = 2.0e-8                        # N per rpm^2, per rotor


@dataclass
class RefDynamicsParams:
    kx: float = 0.5                # 1/s
    ky: float = 0.8                # 1/s
    accel_z_bias: float = 0.0      # planted accelerometer-z residual (m/s^2)

    def __post_init__(self):
        if min(self.kx, self.ky) <= 0:
            raise ContractViolation("dynamics parameters must be positive")


def solve_reference_attitude(v_w, a_w, yaw, dyn: RefDynamicsParams,
                             max_iter=60, tol=1e-13):
    """Attitude/thrust making the trajectory dynamically consistent.

    Fixed-point on R: thrust vector = (a - g) - R drag_b(R^T v), z_b along
    it, heading from yaw. Returns (R_wb (N,3,3), specific_thrust (N,),
    v_b (N,3)). Raises SimulationInfeasible when the required thrust
    points through the rotor plane or vanishes.
    """
    v_w = np.atleast_2d(v_w)
    a_w = np.atleast_2d(a_w)
    yaw = np.atleast_1d(yaw)
    n = v_w.shape[0]
    F = a_w - G_WORLD                      # required specific force
    Kd = np.array([dyn.kx, dyn.ky, 0.0])

    R = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
    xc = np.stack([np.cos(yaw), np.sin(yaw), np.zeros(n)], axis=-1)
    for _ in range(max_iter):
        v_b = np.einsum("nij,nj->ni", R.transpose(0, 2, 1), v_w)
        drag_b = -Kd * v_b
        Ft = F - np.einsum("nij,nj->ni", R, drag_b)
        norm = np.linalg.norm(Ft, axis=-1)
        if np.any(norm < 1e-3):
            raise SimulationInfeasible("required thrust vanishes (free fall)")
        if np.any(Ft[:, 2] <= 1e-9):
            raise SimulationInfeasible(
                "required thrust points through the rotor plane")
        zb = Ft / norm[:, None]
        yb = np.cross(zb, xc)
        yn = np.linalg.norm(yb, axis=-1)
        if np.any(yn < 1e-6):
            raise SimulationInfeasible("thrust direction parallel to heading")
        yb = yb / yn[:, None]
        xb = np.cross(yb, zb)
        R_new = np.stack([xb, yb, zb], axis=-1)
        delta = np.max(np.abs(R_new - R))
        R = R_new
        if delta < tol:
            break
    v_b = np.einsum("nij,nj->ni", R.transpose(0, 2, 1), v_w)
    f_spec = np.linalg.norm(F - np.einsum("nij,nj->ni", R, -Kd * v_b), axis=-1)
    return R, f_spec, v_b


@dataclass
class ImuStream:
    t: np.ndarray
    gyro: np.ndarray       # (N,3) rad/s
    accel: np.ndarray      # (N,3) m/s^2 specific force

    def validate(self):
        if np.any(np.diff(self.t) <= 0):
            raise ContractViolation("IMU timestamps must be strictly increasing")
        if not (np.all(np.isfinite(self.gyro)) and np.all(np.isfinite(self.accel))):
            raise ContractViolation("IMU samples must be finite")
        return self


@dataclass
class MotorStream:
    t: np.ndarray
    rpm: np.ndarray        # (N,4)

    def validate(self):
        if np.any(np.diff(self.t) <= 0):
            raise ContractViolation("motor timestamps must be strictly increasing")
        if np.any(~np.isfinite(self.rpm)) or np.any(self.rpm < 0):
            raise ContractViolation("rpm must be finite and nonnegative")
        return self


@dataclass
class NoiseSpec:
    seed: int = 0
    gyro_std: float = 0.0
    accel_std: float = 0.0
    gyro_bias: tuple = (0.0, 0.0, 0.0)
    accel_bias: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.seed < 0 or self.gyro_std < 0 or self.accel_std < 0:
            raise ContractViolation("noise seed and standard deviations must be non-negative")


@dataclass
class SimulationResult:
    imu: ImuStream
    motors: MotorStream
    t_gt: np.ndarray
    pos_w: np.ndarray
    vel_w: np.ndarray
    vel_b: np.ndarray
    quat_wb: np.ndarray     # (N,4) body->world
    R_wb: np.ndarray        # (N,3,3)
    cam_t: np.ndarray
    cam_poses: list         # SE3Pose world<-camera per camera sample


def _quats_from_R(R):
    return np.stack([matrix_to_quat(Ri) for Ri in R])


def simulate_imu_motors(traj: TrajectorySpec, dyn: RefDynamicsParams,
                        noise: NoiseSpec | None = None) -> SimulationResult:
    """Generate consistent IMU, motor-RPM, and ground-truth streams.

    Gyro sample i is the exact average body rate over [t_i, t_{i+1}]
    (log of the relative rotation / dt); the accelerometer sample is the
    specific force at the interval midpoint. The last sample repeats its
    predecessor's interval values.
    """
    noise = noise or NoiseSpec()
    dt = 1.0 / traj.imu_hz
    n = int(round(traj.duration * traj.imu_hz)) + 1
    t = np.arange(n) * dt

    p, v, a, yaw = trajectory_state(traj, t)
    R, _, v_b = solve_reference_attitude(v, a, yaw, dyn)
    q = _quats_from_R(R)

    # gyro: average rate over each interval
    gyro = np.zeros((n, 3))
    gyro[:-1] = quat_to_rotvec(quat_mul(quat_conj(q[:-1]), q[1:])) / dt
    gyro[-1] = gyro[-2]

    # accel: specific force at interval midpoints
    tm = t[:-1] + 0.5 * dt
    pm, vm, am, yawm = trajectory_state(traj, tm)
    Rm, f_spec_m, v_bm = solve_reference_attitude(vm, am, yawm, dyn)
    Fm = am - G_WORLD
    accel = np.zeros((n, 3))
    accel[:-1] = np.einsum("nij,nj->ni", Rm.transpose(0, 2, 1), Fm)
    accel[-1] = accel[-2]
    accel[:, 2] += dyn.accel_z_bias

    # motors: equal split of the required thrust at midpoints
    thrust = MASS * f_spec_m
    rpm1 = np.sqrt(thrust / (4.0 * KT))
    rpm = np.zeros((n, 4))
    rpm[:-1] = rpm1[:, None]
    rpm[-1] = rpm[-2]

    if noise.gyro_std > 0 or noise.accel_std > 0 or any(noise.gyro_bias) or any(noise.accel_bias):
        rng = np.random.default_rng(noise.seed)
        gyro = gyro + np.asarray(noise.gyro_bias) + noise.gyro_std * rng.standard_normal((n, 3))
        accel = accel + np.asarray(noise.accel_bias) + noise.accel_std * rng.standard_normal((n, 3))

    cam_n = int(round(traj.duration * traj.cam_hz)) + 1
    cam_t = np.arange(cam_n) / traj.cam_hz
    pc, vc, ac, yawc = trajectory_state(traj, cam_t)
    Rc, _, _ = solve_reference_attitude(vc, ac, yawc, dyn)
    cam_poses = [SE3Pose.from_matrix(Rc[i] @ R_CB, pc[i]) for i in range(cam_n)]

    return SimulationResult(
        imu=ImuStream(t=t, gyro=gyro, accel=accel).validate(),
        motors=MotorStream(t=t, rpm=rpm).validate(),
        t_gt=t, pos_w=p, vel_w=v, vel_b=v_b, quat_wb=q, R_wb=R,
        cam_t=cam_t, cam_poses=cam_poses,
    )
