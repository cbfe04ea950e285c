"""Attitude filter: propagation, gated corrections, gravity output."""

import numpy as np
import pytest

from selfvio.attitude import AttitudeFilter, AttitudeState
from selfvio.geometry import ContractViolation, quat_from_axis_angle

G = 9.81


def level_state():
    return AttitudeState(np.array([1.0, 0.0, 0.0, 0.0]))


def tilted_state(axis, angle):
    # q_bw for a body rotated by `angle` about `axis`
    q_wb = quat_from_axis_angle(axis, angle)
    return AttitudeState(np.array([q_wb[0], -q_wb[1], -q_wb[2], -q_wb[3]]))


def roll_pitch_error_deg(state):
    up_body = state.rotation_bw() @ np.array([0.0, 0.0, 1.0])
    return np.degrees(np.arccos(np.clip(up_body[2], -1, 1)))


def test_propagate_zero_gyro_unchanged():
    f = AttitudeFilter()
    s = tilted_state([1, 0, 0], 0.3)
    s2 = f.propagate(s, np.zeros(3), 0.002)
    assert np.array_equal(s2.q_bw, s.q_bw)


def test_propagate_constant_yaw_rate():
    f = AttitudeFilter()
    s = level_state()
    rate = np.pi / 2
    n = 2000
    for _ in range(n):
        s = f.propagate(s, [0.0, 0.0, rate], 1.0 / n)
    # body x should now point along world y (90 deg yaw)
    x_world = s.rotation_bw().T @ np.array([1.0, 0.0, 0.0])
    yaw = np.degrees(np.arctan2(x_world[1], x_world[0]))
    assert abs(yaw - 90.0) < 0.1
    assert roll_pitch_error_deg(s) < 1e-6   # roll/pitch untouched by pure yaw


def test_accel_gate_boundaries_closed_interval():
    f = AttitudeFilter()
    s = tilted_state([0, 1, 0], 0.2)
    up = np.array([0.0, 0.0, 1.0])
    inside_low = 0.95 * G * up
    inside_high = 1.05 * G * up
    outside_low = 0.9499 * G * up
    outside_high = 1.0501 * G * up
    for a in (inside_low, inside_high):
        assert np.linalg.norm(f.correction_vector(s, a)) > 0
    for a in (outside_low, outside_high):
        s2 = f.accel_update(s, a)
        assert s2 is s                     # bit-identical skip
        assert np.array_equal(s2.q_bw, s.q_bw)
    s3 = f.accel_update(s, 1.20 * G * up)
    assert s3 is s


def test_pure_gyro_when_gate_never_opens(rng):
    f = AttitudeFilter()
    a = f.init_from_accel([0, 0, G])
    b = f.init_from_accel([0, 0, G])
    gyro = rng.normal(scale=0.3, size=(500, 3))
    accel = 1.2 * G * rng.normal(size=(500, 3))
    accel /= np.linalg.norm(accel, axis=1, keepdims=True) / (1.2 * G)
    for i in range(500):
        a = f.propagate(a, gyro[i], 0.002)
        a = f.accel_update(a, accel[i])
        b = f.propagate(b, gyro[i], 0.002)
    assert np.array_equal(a.q_bw, b.q_bw)


def test_static_convergence_half_degree_in_5s():
    f = AttitudeFilter()
    s = tilted_state([1, 0, 0], np.radians(20.0))
    errs = [roll_pitch_error_deg(s)]
    accel = np.array([0.0, 0.0, G])
    for _ in range(2500):                  # 5 s at 500 Hz
        s = f.propagate(s, np.zeros(3), 0.002)
        s = f.accel_update(s, accel)
        errs.append(roll_pitch_error_deg(s))
    errs = np.array(errs)
    assert errs[-1] < 0.5
    assert np.all(np.diff(errs) <= 1e-12)  # monotone decay


def test_aligned_accel_zero_correction():
    f = AttitudeFilter()
    s = tilted_state([0, 1, 0], 0.4)
    up_est = s.rotation_bw() @ np.array([0, 0, 1.0])
    corr = f.correction_vector(s, G * up_est)
    assert np.linalg.norm(corr) == 0.0
    assert f.accel_update(s, G * up_est) is s


def test_yaw_component_of_correction_is_zero(rng):
    """Correction is exactly orthogonal to the estimated up direction."""
    f = AttitudeFilter()
    for _ in range(50):
        axis = rng.normal(size=3)
        s = tilted_state(axis, rng.uniform(0, 0.5))
        a = rng.normal(size=3)
        a = a / np.linalg.norm(a) * rng.uniform(0.95 * G, 1.05 * G)
        c = f.correction_vector(s, a)
        up_est = s.rotation_bw() @ np.array([0, 0, 1.0])
        assert abs(c @ up_est) < 1e-15


def test_gravity_body_conventions():
    f = AttitudeFilter()
    assert np.allclose(f.gravity_body(level_state()), [0, 0, -G], atol=1e-12)
    # hover: measured a_z (+g) cancels g_z
    assert abs(G + f.gravity_body(level_state())[2]) < 1e-12
    s90 = tilted_state([1, 0, 0], np.pi / 2)   # 90 deg roll
    g_b = f.gravity_body(s90)
    assert abs(abs(g_b[1]) - G) < 1e-9 and abs(g_b[0]) < 1e-9 and abs(g_b[2]) < 1e-9
    s30 = tilted_state([0, 1, 0], np.pi / 6)   # 30 deg pitch
    g_b = f.gravity_body(s30)
    assert abs(abs(g_b[0]) - G * np.sin(np.pi / 6)) < 1e-9
    assert abs(abs(g_b[0]) - 4.905) < 1e-9


def test_quaternion_norm_stable_over_1e6_updates(rng):
    f = AttitudeFilter()
    s = level_state()
    gyro = rng.normal(scale=0.5, size=(1000, 3))
    accel = np.array([0.05, 0.0, 9.81])
    for i in range(1_000_000):
        s = f.propagate(s, gyro[i % 1000], 0.002)
        if i % 10 == 0:
            s = f.accel_update(s, accel)
    assert abs(np.linalg.norm(s.q_bw) - 1.0) < 1e-9


def test_run_is_bitwise_the_numpy_reference():
    """`run` over a flown stream equals, bit for bit, the same filter
    written with np.cross and np.linalg.norm."""
    from selfvio.attitude import GAIN, GATE, INIT_WINDOW
    from selfvio.geometry import quat_mul, quat_to_matrix
    from selfvio.synth import (G_WORLD, GRAVITY, NoiseSpec, RefDynamicsParams,
                               TrajectorySpec, simulate_imu_motors)

    def axis_angle(axis, angle):
        n = np.linalg.norm(axis)
        if n == 0.0:
            return np.array([1.0, 0.0, 0.0, 0.0])
        return np.concatenate(([np.cos(0.5 * angle)], np.sin(0.5 * angle) * axis / n))

    def normalized(q):
        return q / np.linalg.norm(q)

    traj = TrajectorySpec(kind="ellipse", peak_speed=5.0, duration=6.0, period=7.0,
                          ramp=0.3, start_hover=0.5)
    sim = simulate_imu_motors(traj, RefDynamicsParams(),
                              NoiseSpec(seed=2, gyro_std=0.001, accel_std=0.01))
    t, gyro, accel = sim.imu.t, sim.imu.gyro, sim.imu.accel
    k = max(1, int(np.searchsorted(t, t[0] + INIT_WINDOW)))
    up = accel[:k].mean(axis=0) / np.linalg.norm(accel[:k].mean(axis=0))
    axis = np.cross([0.0, 0.0, 1.0], up)
    q = normalized(axis_angle(axis, np.arctan2(np.linalg.norm(axis), up[2])))
    quats, g_body = [q], [quat_to_matrix(q) @ G_WORLD]
    accepted = 0
    for i in range(1, len(t)):
        w = gyro[i - 1]
        q = normalized(quat_mul(axis_angle(w, -np.linalg.norm(w) * (t[i] - t[i - 1])), q))
        a = accel[i]
        norm = np.linalg.norm(a)
        if GATE[0] <= norm / GRAVITY <= GATE[1]:
            corr = GAIN * np.cross(quat_to_matrix(q) @ np.array([0.0, 0.0, 1.0]), a / norm)
            ang = np.linalg.norm(corr)
            if ang != 0.0:
                q = normalized(quat_mul(axis_angle(corr, ang), q))
                accepted += 1
        quats.append(q)
        g_body.append(quat_to_matrix(q) @ G_WORLD)
    assert 0 < accepted < len(t) - 1          # the gate opens and closes
    q_run, g_run = AttitudeFilter().run(t, gyro, accel)
    assert np.array_equal(q_run, np.array(quats))
    assert np.array_equal(g_run, np.array(g_body))


def test_run_rejects_a_repeated_timestamp():
    f = AttitudeFilter()
    t = np.arange(20) * 0.002
    t[7] = t[6]
    gyro = np.zeros((20, 3))
    accel = np.tile([0.0, 0.0, G], (20, 1))
    with pytest.raises(ContractViolation):
        f.run(t, gyro, accel)
    with pytest.raises(ContractViolation):
        f.propagate(level_state(), gyro[6], t[7] - t[6])
