"""Shared builders: cameras, gate fly-through instances, reference models,
loss sweeps."""

import numpy as np
import pytest

from selfvio.attitude import AttitudeFilter
from selfvio.dronemodel import TrainSequence, init_params
from selfvio.geometry import CameraIntrinsics, se3_log
from selfvio.losses import DegenerateBatchError, LossConfig, pair_constants
from selfvio.poseopt import _loss_only
from selfvio.synth import (R_CB, NoiseSpec, RefDynamicsParams, SceneSpec,
                           TrajectorySpec, camera_pose, render,
                           simulate_imu_motors)


def small_intrinsics(width=64, height=48, f=60.0):
    return CameraIntrinsics(fx=f, fy=f, cx=(width - 1) / 2.0,
                            cy=(height - 1) / 2.0, width=width, height=height)


def smooth_image(rng, h, w):
    """Low-frequency smooth field in [0.05, 0.95]."""
    g = rng.random((3, 3))
    yy, xx = np.mgrid[0:h, 0:w]
    out = np.zeros((h, w))
    for i in range(3):
        for j in range(3):
            out += g[i, j] * np.sin(0.3 * (i + 1) * yy / h * 6 + i) \
                * np.cos(0.35 * (j + 1) * xx / w * 6 + j)
    out = (out - out.min()) / (out.max() - out.min())
    return 0.05 + 0.9 * out


def forward_gate_instance(seed, K):
    """Forward-dominant gate approach triplet (mild yaw): the regime where
    the unmasked benchmark's depth junk biases the sweep argmin low."""
    rng = np.random.default_rng(seed)
    scene = SceneSpec(texture_seed=seed)
    x0 = rng.uniform(1.6, 2.2)
    y0 = scene.gate_center[0] + rng.uniform(-0.2, 0.2)
    z0 = scene.gate_center[1] + rng.uniform(-0.15, 0.15)
    step_f = rng.uniform(0.45, 0.62)
    step_y = rng.uniform(-0.1, 0.1)
    step_z = rng.uniform(-0.05, 0.05)
    dyaw = rng.uniform(-0.05, 0.05)
    poses = [camera_pose([x0 + i * step_f, y0 + i * step_y, z0 + i * step_z],
                         yaw=i * dyaw) for i in range(3)]
    frames = [render(scene, p, K) for p in poses]
    xi1 = se3_log(poses[0].inverse().compose(poses[1]))
    xi2 = se3_log(poses[2].inverse().compose(poses[1]))
    return scene, poses, frames, xi1, xi2


def close_gate_pair(seed, K):
    """Close, yawing gate passage: heavy disocclusion + out-of-view bands."""
    rng = np.random.default_rng(seed)
    scene = SceneSpec(texture_seed=seed)
    x0 = rng.uniform(2.3, 2.9)
    y0 = scene.gate_center[0] + rng.uniform(-0.2, 0.2)
    z0 = scene.gate_center[1] + rng.uniform(-0.15, 0.15)
    step_f = rng.uniform(0.65, 0.9)
    step_y = rng.uniform(-0.15, 0.15)
    dyaw = rng.choice([-1, 1]) * rng.uniform(0.12, 0.2)
    p0 = camera_pose([x0, y0, z0], yaw=0.0)
    p1 = camera_pose([x0 + step_f, y0 + step_y, z0], yaw=dyaw)
    return scene, p0, p1, render(scene, p0, K), render(scene, p1, K)


def constant_output_model(dx=0.5, dy=0.8, eps=0.0, scales=None):
    """Drone model hand-set to constant outputs via the output bias."""
    def logit(p):
        return float(np.log(p / (1.0 - p)))
    params = init_params(np.random.default_rng(0))
    for w in params.weights:
        w[:] = 0.0
    for b in params.biases:
        b[:] = 0.0
    params.biases[-1][:] = [logit(dx / 2.0), logit(dy / 2.0), logit((eps + 5.0) / 10.0)]
    params.scales = dict(scales or {})
    return params


def recovery_sequence(sid, seed, peak, period, duration=16.0, scale_plant=0.37,
                      noise_std=0.0, yaw0=0.0, kx=0.5, ky=0.8, accel_z_bias=0.3):
    """Planted-dynamics training sequence: fast-ramp ellipse whose cruise
    acceleration keeps the accel norm outside the attitude gate."""
    traj = TrajectorySpec(kind="ellipse", peak_speed=peak, duration=duration,
                          period=period, yaw_mode="fixed", yaw0=yaw0,
                          ramp=0.2, start_hover=1.0, climb=0.0)
    dyn = RefDynamicsParams(kx=kx, ky=ky, accel_z_bias=accel_z_bias)
    sim = simulate_imu_motors(traj, dyn)
    att = AttitudeFilter()
    _, g_b = att.run(sim.imu.t, sim.imu.gyro, sim.imu.accel)
    idx = np.clip(np.searchsorted(sim.imu.t, sim.cam_t), 0, len(sim.imu.t) - 1)
    rng = np.random.default_rng(seed)
    v_meas = sim.vel_b[idx] + noise_std * rng.standard_normal((len(idx), 3))
    v_cam = (v_meas @ R_CB) * scale_plant
    seq = TrainSequence(seq_id=sid, t=sim.imu.t, gyro=sim.imu.gyro,
                        accel=sim.imu.accel, rpm=sim.motors.rpm, g_body=g_b,
                        cam_t=sim.cam_t, v_cam=v_cam, R_cb=R_CB)
    return seq, sim


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def sweep_losses(frames, depths, base_twists, gammas, K, cfg: LossConfig):
    """Total loss along the 1-D family pose(gamma) = exp(gamma * twist).

    base_twists: the true twist(s), stacked (6*n,). Used to probe where
    each scheme's objective puts its minimum along the true motion
    direction.
    """
    base = np.asarray(base_twists, dtype=np.float64)
    consts = pair_constants(frames, cfg, depths)
    out = np.empty(len(gammas))
    for i, g in enumerate(gammas):
        try:
            out[i] = _loss_only(frames, depths, g * base, K, cfg, consts=consts)
        except DegenerateBatchError:
            out[i] = np.inf      # candidate leaves no jointly-valid pixels
    return out
