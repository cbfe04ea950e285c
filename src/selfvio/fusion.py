"""Inertial-visual odometry filter with blended model/IMU acceleration.

A conventional error-state Kalman filter over [position, velocity] with
attitude supplied externally (attitude filter or ground truth). The
propagation acceleration is an affine blend, w * model + (1 - w) * accel,
of the IMU specific force and the specific force of the drone model's
velocity recurrence (`dronemodel._specific_force`), evaluated at the
filter's current velocity estimate, so the drag terms act as velocity
feedback. The model's folded weights and its first-layer pre-activations
less the velocity's share are built for the whole IMU stream before the
loop, so a step runs only the velocity's share and the layers above it
(`dronemodel._fold`, `_pre_activations`). Visual body-velocity
updates arrive at a configurable processing rate; dropout windows emulate
challenging visual conditions.

One filter pass runs a batch of runs that share the IMU stream and the
attitude and differ in model weight, measurement draw and update
schedule, as `fuse` sweeps them. The rows come in G update groups, one
per schedule (one per rate in `fuse`), and that is the only call form: a
single run is one group of one row. P and K depend on neither the state,
the weight nor the draw, only on the schedule, so each group propagates
one P and updates its rows with one K per update. Every IMU step
propagates every row at once, each per-row product its own matrix-vector
product, so each row is bitwise the run it would be alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dronemodel import DroneModelParams, _fold, _pre_activations, _specific_force
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
    model_weight: float = 0.3          # w: 0 = IMU only, 1 = model only; or (B,), one per row
    vis_noise_std: float = 0.1         # m/s
    accel_noise_std: float = 0.05      # m/s^2

    def __post_init__(self):
        w = np.asarray(self.model_weight)
        if not np.all((w >= 0.0) & (w <= 1.0)):
            raise ContractViolation("model weight must be in [0,1]")
        if min(self.vis_noise_std, self.accel_noise_std) < 0:
            raise ContractViolation("noise standard deviations must be nonnegative")


def _blend(imu_accel, model_sf, w):
    return w * model_sf + (1.0 - w) * imu_accel


def model_specific_force(params: DroneModelParams, vb, accel, gyro, rpm, pre=None, *,
                         fold=None):
    """Specific force predicted by the drone model (the rollout bracket) at
    each row of vb (B, 3) under one IMU and motor sample; each row is
    bitwise its one-row call. pre: the sample's first-layer pre-activation
    less vb's share (`dronemodel._pre_activations`), and fold: the model's
    folded weights (`dronemodel._fold`), when the caller has them for the
    whole stream."""
    return _specific_force(params, vb, accel[2], gyro, rpm, pre, fold)


def _matvec(M, X):
    """M @ x for each row x of X (B, k), one matrix-vector product per row,
    so that each row is bitwise M @ x of that row alone."""
    if len(X) == 1:
        return (M @ X[0])[None]
    return np.matmul(M, X[:, :, None])[:, :, 0]


@dataclass
class FilterResult:
    t: np.ndarray
    pos: np.ndarray        # (B,N,3) odometry frame, one run per row
    vel_body: np.ndarray   # (B,N,3)
    n_updates: int = 0


def select_update_times(cam_t, update_rate):
    """Subsample camera timestamps down to the processing rate."""
    if update_rate <= 0:
        raise ContractViolation("update rate must be positive")
    cam_t = np.asarray(cam_t, dtype=np.float64)
    cam_rate = 1.0 / float(np.median(np.diff(cam_t)))
    stride = max(1, int(round(cam_rate / update_rate)))
    return cam_t[::stride]


def make_visual_measurements(cam_t, vel_body, update_rate, vis_noise_std, seeds,
                             dropout_windows=()):
    """One update group: noisy body-velocity measurements at the processing
    rate with dropout windows removed, as update times (M,) and a (B, M, 3)
    stack of draws, one per seed, that share the times and the dropout mask.
    """
    t = select_update_times(cam_t, update_rate)
    idx = np.searchsorted(cam_t, t)
    keep = np.ones(len(t), dtype=bool)
    for (t0, t1) in dropout_windows:
        keep &= ~((t >= t0) & (t <= t1))
    v_true = np.asarray(vel_body)[idx]
    draws = [v_true + vis_noise_std * np.random.default_rng(s).standard_normal((len(t), 3))
             for s in seeds]
    return t[keep], np.stack(draws)[:, keep]


def run_filter(imu_t, accel, gyro, rpm, R_wb, groups,
               model: DroneModelParams | None, cfg: FusionConfig,
               p0=None, v0=None) -> FilterResult:
    """Propagate at IMU rate, update with body-velocity measurements.

    R_wb: (N,3,3) attitude stream (body->world). groups: G pairs of update
    times (M_g,) and (B_g,M_g,3) measurements, as `make_visual_measurements`
    returns them; the rows are the groups' rows in order, each group with
    its own P and K. cfg.model_weight is a float or one weight per row, and
    model may be None when every weight is 0. n_updates sums the groups'
    updates; a divergence in any row raises at its step.
    """
    n = len(imu_t)
    # per group: its rows of the batch, its measurements (M_g, B_g, 3), an
    # update's rows together, its update times and its next update
    rows, zs, vis_lists, vis_is = [], [], [], []
    for t_g, v_g in groups:
        zs.append(np.ascontiguousarray(np.asarray(v_g, dtype=np.float64).swapaxes(0, 1)))
        start = rows[-1].stop if rows else 0
        rows.append(slice(start, start + zs[-1].shape[1]))
        vis_lists.append(np.asarray(t_g, dtype=np.float64).tolist())
        vis_is.append(int(np.searchsorted(vis_lists[-1], imu_t[0], side="left")))
    B = rows[-1].stop
    w = np.broadcast_to(np.asarray(cfg.model_weight, dtype=np.float64), (B,))[:, None]
    # the model runs only on the rows with w > 0; the others propagate with
    # their IMU sample
    on = w[:, 0] > 0.0
    w_on = w[on]
    if len(w_on) and model is None:
        raise ContractViolation("model required when model_weight > 0")
    # the model's state-free terms: its folded weights, and the state-free
    # share of its first layer, every step's at once
    fold, pre = ((_fold(model), _pre_activations(model, accel[:-1, 2], gyro[:-1], rpm[:-1]))
                 if len(w_on) else (None, None))
    x = np.empty((B, 6))                # rows [p, v]; p and v are views
    x[:, :3] = 0.0 if p0 is None else p0
    x[:, 3:] = 0.0 if v0 is None else v0
    p, v = x[:, :3], x[:, 3:]
    Ps = [np.diag([INIT_POS_STD ** 2] * 3 + [INIT_VEL_STD ** 2] * 3)] * len(zs)
    R_meas = (cfg.vis_noise_std ** 2) * np.eye(3)

    a_b = np.empty((B, 3))              # each row's body-frame specific force
    states = np.empty((n, B, 6))
    states[0] = x
    t = np.asarray(imu_t, dtype=np.float64)
    t_list = t.tolist()
    n_updates = 0
    I6 = np.eye(6)
    # F = [[I, dt I], [0, I]], Q = diag(q_p I, q_v I): only dt, q_p, q_v change
    F = I6.copy()
    F_dt = F.reshape(-1)[3:18:7]
    Q = np.zeros((6, 6))
    Q_diag = Q.reshape(-1)[::7]
    dt_set = None

    for i in range(n - 1):
        t_next = t_list[i + 1]
        dt = t_next - t_list[i]
        Rb = R_wb[i]
        a_b[:] = accel[i]
        if len(w_on):
            sf_model = model_specific_force(model, _matvec(Rb.T, v[on]),
                                            accel[i], gyro[i], rpm[i], pre[i], fold=fold)
            a_b[on] = _blend(accel[i], sf_model, w_on)    # FusionConfig checked w
        a_w = _matvec(Rb, a_b) + G_WORLD
        p += v * dt                     # p + v dt + a dt^2 / 2, in that order
        p += 0.5 * a_w * dt * dt
        v += a_w * dt

        if dt != dt_set:
            F_dt[:] = dt
            Q_diag[:3] = (0.5 * cfg.accel_noise_std * dt * dt) ** 2
            Q_diag[3:] = (cfg.accel_noise_std * dt) ** 2
            dt_set = dt
        for g, (sl, z, vis_list) in enumerate(zip(rows, zs, vis_lists)):
            P = F @ Ps[g] @ F.T + Q
            vis_i = vis_is[g]
            while vis_i < len(vis_list) and vis_list[vis_i] <= t_next:
                Rn = R_wb[i + 1]
                H = np.zeros((3, 6))
                H[:, 3:] = Rn.T
                S = H @ P @ H.T + R_meas
                K = P @ H.T @ np.linalg.inv(S)
                x[sl] += _matvec(K, z[vis_i] - _matvec(Rn.T, v[sl]))
                P = (I6 - K @ H) @ P
                P = 0.5 * (P + P.T)
                vis_i += 1
                n_updates += 1
            Ps[g], vis_is[g] = P, vis_i

        if not np.isfinite(x).all():
            raise FilterDivergence(t_next, "non-finite state")
        if any(P.trace() > 1e6 for P in Ps):
            raise FilterDivergence(t_next, "covariance blow-up")
        states[i + 1] = x

    vel_b = np.matmul(np.swapaxes(R_wb, 1, 2)[:, None], states[..., 3:, None])[..., 0]
    pos, vel_b = (np.ascontiguousarray(np.swapaxes(a, 0, 1))     # (B, N, 3)
                  for a in (states[..., :3], vel_b))
    return FilterResult(t=t.copy(), pos=pos, vel_body=vel_b, n_updates=n_updates)
