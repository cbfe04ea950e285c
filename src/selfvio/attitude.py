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
        up_est = state.rotation_bw() @ np.array([0.0, 0.0, 1.0])
        return GAIN * _cross(up_est, accel / norm)

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
        """Filter a whole IMU stream.

        Initializes from the first INIT_WINDOW seconds of accel averages.
        Returns (quaternions (N,4) body<-world, gravity_body (N,3)).
        """
        t = np.asarray(t, dtype=np.float64)
        gyro = np.asarray(gyro, dtype=np.float64)
        accel = np.asarray(accel, dtype=np.float64)
        n = len(t)
        k = max(1, int(np.searchsorted(t, t[0] + INIT_WINDOW)))
        state = self.init_from_accel(accel[:k].mean(axis=0), t[0])
        quats = np.empty((n, 4))
        g_body = np.empty((n, 3))
        quats[0] = state.q_bw
        g_body[0] = self.gravity_body(state)
        for i in range(1, n):
            state = self.propagate(state, gyro[i - 1], t[i] - t[i - 1])
            state = self.accel_update(state, accel[i])
            quats[i] = state.q_bw
            g_body[i] = self.gravity_body(state)
        return quats, g_body
