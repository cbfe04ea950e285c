"""Inertial-visual odometry filter with blended model/IMU acceleration.

A conventional error-state Kalman filter over [position, velocity] with
attitude supplied externally (attitude filter or ground truth). The
propagation acceleration is an affine blend, w * model + (1 - w) * accel,
of the IMU specific force and the specific force of the drone model's
velocity recurrence (`dronemodel._specific_force`), evaluated at the
filter's current velocity estimate, so the drag terms act as velocity
feedback. Visual body-velocity updates arrive at a configurable
processing rate; dropout windows emulate challenging visual conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dronemodel import DroneModelParams, _specific_force
from .geometry import ContractViolation
from .synth import G_WORLD


INIT_POS_STD = 0.01                # m, initial position uncertainty
INIT_VEL_STD = 0.01                # m/s, initial velocity uncertainty


class FilterDivergence(RuntimeError):
    def __init__(self, timestamp, message):
        super().__init__(f"t={timestamp:.3f}s: {message}")
        self.timestamp = timestamp


@dataclass
class FusionConfig:
    model_weight: float = 0.3          # w: 0 = IMU only, 1 = model only
    update_rate: float = 120.0         # visual update rate (Hz)
    vis_noise_std: float = 0.1         # m/s
    accel_noise_std: float = 0.05      # m/s^2

    def __post_init__(self):
        if not (0.0 <= self.model_weight <= 1.0):
            raise ContractViolation("model weight must be in [0,1]")
        if self.update_rate <= 0:
            raise ContractViolation("update rate must be positive")


def fused_accel(imu_accel, model_sf, w):
    """Affine blend of measured and model-predicted specific force."""
    if not (0.0 <= w <= 1.0):
        raise ContractViolation("w must be in [0,1]")
    imu_accel = np.asarray(imu_accel, dtype=np.float64)
    model_sf = np.asarray(model_sf, dtype=np.float64)
    return w * model_sf + (1.0 - w) * imu_accel


def model_specific_force(params: DroneModelParams, vb, accel, gyro, rpm):
    """Specific force predicted by the drone model (the rollout bracket)."""
    f, _ = _specific_force(params, np.asarray(vb)[None], np.asarray(accel)[2:3],
                           np.asarray(gyro)[None], np.asarray(rpm)[None])
    return f[0]


@dataclass
class FilterResult:
    t: np.ndarray
    pos: np.ndarray        # (N,3) odometry frame
    vel_body: np.ndarray   # (N,3)
    vel_world: np.ndarray  # (N,3)
    n_updates: int = 0


def select_update_times(cam_t, update_rate):
    """Subsample camera timestamps down to the processing rate."""
    cam_t = np.asarray(cam_t, dtype=np.float64)
    cam_rate = 1.0 / float(np.median(np.diff(cam_t)))
    stride = max(1, int(round(cam_rate / update_rate)))
    return cam_t[::stride]


def make_visual_measurements(cam_t, vel_body_gt, cfg: FusionConfig, seed=0,
                             dropout_windows=()):
    """Noisy body-velocity measurements with dropout windows removed."""
    rng = np.random.default_rng(seed)
    t = select_update_times(cam_t, cfg.update_rate)
    idx = np.searchsorted(cam_t, t)
    v = np.asarray(vel_body_gt)[idx] + cfg.vis_noise_std * rng.standard_normal((len(t), 3))
    keep = np.ones(len(t), dtype=bool)
    for (t0, t1) in dropout_windows:
        keep &= ~((t >= t0) & (t <= t1))
    return t[keep], v[keep]


def run_filter(imu_t, accel, gyro, rpm, R_wb, vis_t, vis_v,
               model: DroneModelParams | None, cfg: FusionConfig,
               p0=None, v0=None) -> FilterResult:
    """Propagate at IMU rate, update with body-velocity measurements.

    R_wb: (N,3,3) attitude stream (body->world). model may be None when
    cfg.model_weight == 0.
    """
    n = len(imu_t)
    if cfg.model_weight > 0 and model is None:
        raise ContractViolation("model required when model_weight > 0")
    p = np.zeros(3) if p0 is None else np.asarray(p0, dtype=np.float64).copy()
    v = np.zeros(3) if v0 is None else np.asarray(v0, dtype=np.float64).copy()
    P = np.diag([INIT_POS_STD ** 2] * 3 + [INIT_VEL_STD ** 2] * 3)
    R_meas = (cfg.vis_noise_std ** 2) * np.eye(3)

    pos = np.empty((n, 3))
    vel_w = np.empty((n, 3))
    vel_b = np.empty((n, 3))
    pos[0], vel_w[0] = p, v
    vel_b[0] = R_wb[0].T @ v

    vis_i = int(np.searchsorted(vis_t, imu_t[0], side="left"))
    n_updates = 0
    I6 = np.eye(6)
    # F = [[I, dt I], [0, I]], Q = diag(q_p I, q_v I): only dt, q_p, q_v change
    F = I6.copy()
    F_dt = F.reshape(-1)[3:18:7]
    Q = np.zeros((6, 6))
    Q_diag = Q.reshape(-1)[::7]

    for i in range(n - 1):
        dt = imu_t[i + 1] - imu_t[i]
        Rb = R_wb[i]
        vb = Rb.T @ v
        if cfg.model_weight > 0:
            sf_model = model_specific_force(model, vb, accel[i], gyro[i], rpm[i])
            f = fused_accel(accel[i], sf_model, cfg.model_weight)
        else:
            f = accel[i]
        a_w = Rb @ f + G_WORLD
        p = p + v * dt + 0.5 * a_w * dt * dt
        v = v + a_w * dt

        F_dt[:] = dt
        Q_diag[:3] = (0.5 * cfg.accel_noise_std * dt * dt) ** 2
        Q_diag[3:] = (cfg.accel_noise_std * dt) ** 2
        P = F @ P @ F.T + Q

        t_next = imu_t[i + 1]
        while vis_i < len(vis_t) and vis_t[vis_i] <= t_next:
            Rn = R_wb[i + 1]
            H = np.zeros((3, 6))
            H[:, 3:] = Rn.T
            S = H @ P @ H.T + R_meas
            K = P @ H.T @ np.linalg.inv(S)
            innov = vis_v[vis_i] - Rn.T @ v
            delta = K @ innov
            p = p + delta[:3]
            v = v + delta[3:]
            P = (I6 - K @ H) @ P
            P = 0.5 * (P + P.T)
            vis_i += 1
            n_updates += 1

        if not (np.isfinite(p).all() and np.isfinite(v).all()):
            raise FilterDivergence(imu_t[i + 1], "non-finite state")
        if P.trace() > 1e6:
            raise FilterDivergence(imu_t[i + 1], "covariance blow-up")
        pos[i + 1], vel_w[i + 1] = p, v
        vel_b[i + 1] = R_wb[i + 1].T @ v

    return FilterResult(t=np.asarray(imu_t, dtype=np.float64).copy(), pos=pos,
                        vel_body=vel_b, vel_world=vel_w, n_updates=n_updates)


def sweep_csv_rows(entries):
    """entries: iterable of (rate_hz, w, seed, rmse)."""
    rows = ["rate_hz,model_weight,seed,rmse_m"]
    rows += [f"{r!r},{w!r},{s},{e!r}" for r, w, s, e in entries]
    return "\n".join(rows) + "\n"
