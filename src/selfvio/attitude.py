"""Flight-controller style attitude filter.

Gyro propagation with a gated complementary accelerometer correction:
an accel sample is accepted only when its norm is inside the closed
interval [0.95, 1.05] g, and the accepted correction tilts the estimated
gravity direction toward the measurement by a fixed small gain. The
correction axis is orthogonal to the estimated up direction by
construction, so yaw never changes on an accel update.

State quaternion is body<-world: gravity_body = R_bw @ (0, 0, -g).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (ContractViolation, _cross, _norm, quat_from_axis_angle,
                       quat_mul, quat_normalize, quat_to_matrix)
from .synth import G_WORLD, GRAVITY

GAIN = 0.02                 # accepted correction per sample (rad per unit tilt)
GATE = (0.95, 1.05)         # accepted |accel| / g, closed interval
INIT_WINDOW = 0.5           # seconds of accel averaged for the initial tilt
_UP = np.array([0.0, 0.0, 1.0])


@dataclass
class AttitudeState:
    q_bw: np.ndarray       # body<-world unit quaternion (w, x, y, z)
    t: float = 0.0

    def __post_init__(self):
        self.q_bw = quat_normalize(np.asarray(self.q_bw, dtype=np.float64))

    def rotation_bw(self) -> np.ndarray:
        return quat_to_matrix(self.q_bw)


class AttitudeFilter:
    def propagate(self, state: AttitudeState, gyro, dt: float) -> AttitudeState:
        """First-order quaternion exponential update from body rates."""
        if dt <= 0:
            raise ContractViolation("dt must be positive")
        gyro = np.asarray(gyro, dtype=np.float64)
        # body rotates by exp(w dt): q_bw' = exp(-w dt / 2) * q_bw
        dq = quat_from_axis_angle(gyro, -_norm(gyro) * dt)
        return AttitudeState(quat_mul(dq, state.q_bw), state.t + dt)

    def correction_vector(self, state: AttitudeState, accel) -> np.ndarray:
        """Body-frame correction rotation for one accel sample.

        Zero when the gate rejects the sample or the measurement already
        aligns with the estimated gravity. Always orthogonal to the
        estimated up direction, which is what keeps yaw untouched.
        """
        accel = np.asarray(accel, dtype=np.float64)
        norm = _norm(accel)
        if not (GATE[0] <= norm / GRAVITY <= GATE[1]):
            return np.zeros(3)
        return _correction(state.q_bw, accel / norm)

    def accel_update(self, state: AttitudeState, accel) -> AttitudeState:
        """Gated complementary correction toward the measured gravity."""
        corr = self.correction_vector(state, accel)
        ang = _norm(corr)
        if ang == 0.0:
            return state
        return AttitudeState(quat_mul(quat_from_axis_angle(corr, ang), state.q_bw), state.t)

    def gravity_body(self, state: AttitudeState) -> np.ndarray:
        """World gravity rotated into the body frame (hover: a_z + g_z = 0)."""
        return state.rotation_bw() @ G_WORLD

    def init_from_accel(self, accel_mean, t=0.0) -> AttitudeState:
        """Roll/pitch from a (near-)static accel average; yaw set to zero."""
        a = np.asarray(accel_mean, dtype=np.float64)
        n = _norm(a)
        if n == 0:
            raise ContractViolation("zero accelerometer average")
        up_meas = a / n
        axis = _cross(np.array([0.0, 0.0, 1.0]), up_meas)
        s = _norm(axis)
        ang = np.arctan2(s, up_meas[2])
        if s < 1e-12:               # measured up is +-z: any horizontal axis
            axis = np.array([1.0, 0.0, 0.0])
        return AttitudeState(quat_from_axis_angle(axis, ang), t)

    def run(self, t, gyro, accel):
        """Filter a whole IMU stream: bitwise `propagate` then `accel_update`
        at each sample.

        Initializes from the first INIT_WINDOW seconds of accel averages.
        The gyro increments, the accel gate and the unit accel samples
        depend on no state, so they are array ops before the loop, which
        keeps only the quaternion products, the normalizations and the
        gated correction. Returns (quaternions (N,4) body<-world,
        gravity_body (N,3)).
        """
        t = np.asarray(t, dtype=np.float64)
        gyro = np.asarray(gyro, dtype=np.float64)
        accel = np.asarray(accel, dtype=np.float64)
        n = len(t)
        dt = np.diff(t)
        if np.any(dt <= 0):
            raise ContractViolation("dt must be positive")
        k = max(1, int(np.searchsorted(t, t[0] + INIT_WINDOW)))
        q = self.init_from_accel(accel[:k].mean(axis=0), t[0]).q_bw
        # quat_from_axis_angle(w, -|w| dt) of every gyro sample
        w = gyro[:-1]
        w_norm = _row_norms(w)
        half = 0.5 * (-w_norm * dt)
        dq = np.empty((n - 1, 4))
        dq[:, 0] = np.cos(half)
        with np.errstate(invalid="ignore", divide="ignore"):
            dq[:, 1:] = np.sin(half)[:, None] * w / w_norm[:, None]
            a_norm = _row_norms(accel)
            unit = accel / a_norm[:, None]
        dq[w_norm == 0.0] = (1.0, 0.0, 0.0, 0.0)
        ratio = a_norm / GRAVITY
        gate = ((GATE[0] <= ratio) & (ratio <= GATE[1])).tolist()
        quats = np.empty((n, 4))
        quats[0] = q
        for i in range(1, n):
            q = quat_mul(dq[i - 1], q)
            q = q / _norm(q)
            if gate[i]:
                corr = _correction(q, unit[i])
                ang = _norm(corr)
                if ang != 0.0:
                    q = quat_mul(quat_from_axis_angle(corr, ang), q)
                    q = q / _norm(q)
            quats[i] = q
        return quats, quat_to_matrix(quats) @ G_WORLD


def _row_norms(v):
    """`_norm` of each row of v (n, 3), bitwise: sqrt of a stacked
    (1,3) @ (3,1) product."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def _correction(q_bw, unit_accel):
    """GAIN * (estimated up x measured up): the correction rotation for an
    accepted sample."""
    return GAIN * _cross(quat_to_matrix(q_bw) @ _UP, unit_accel)
