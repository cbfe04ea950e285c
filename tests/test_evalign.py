"""Umeyama alignment and trajectory metrics."""

import numpy as np
import pytest

from selfvio.evalign import (Sim3Transform, TrajectoryEstimate, associate,
                             position_rmse, relative_velocity_error,
                             umeyama_align)
from selfvio.geometry import ContractViolation, quat_to_matrix, rotvec_to_matrix


def random_rotation(rng):
    return rotvec_to_matrix(rng.normal(scale=1.0, size=3))


def test_umeyama_identity():
    pts = np.random.default_rng(0).normal(size=(20, 3))
    T = umeyama_align(pts, pts)
    assert abs(T.s - 1.0) < 1e-12
    assert np.linalg.norm(T.t) < 1e-12
    assert abs(abs(T.q[0]) - 1.0) < 1e-12


def test_umeyama_planted_sim3(rng):
    for _ in range(20):
        est = rng.normal(size=(30, 3))
        R = random_rotation(rng)
        t = rng.normal(size=3)
        gt = 2.5 * est @ R.T + t
        T = umeyama_align(est, gt, with_scale=True)
        assert abs(T.s - 2.5) < 1e-9
        assert np.max(np.abs(T.rotation_matrix() - R)) < 1e-9
        assert np.max(np.abs(T.t - t)) < 1e-9
        assert np.max(np.abs(T.apply(est) - gt)) < 1e-8


def test_umeyama_reflection_requires_proper_rotation(rng):
    est = rng.normal(size=(40, 3))
    gt = est.copy()
    gt[:, 2] *= -1.0          # mirror image: only improper map fits exactly
    T = umeyama_align(est, gt, with_scale=True)
    assert np.linalg.det(T.rotation_matrix()) > 0.999
    resid = np.linalg.norm(T.apply(est) - gt, axis=1)
    assert resid.max() > 1e-3   # strictly positive residual


def test_umeyama_degenerate_inputs(rng):
    line = np.outer(np.linspace(0, 1, 10), [1.0, 2.0, 3.0])
    with pytest.raises(ContractViolation):
        umeyama_align(line, line + 1.0)
    same = np.tile([1.0, 2.0, 3.0], (5, 1))
    with pytest.raises(ContractViolation):
        umeyama_align(same, same)
    with pytest.raises(ContractViolation):
        umeyama_align(np.zeros((2, 3)), np.zeros((2, 3)))


def test_umeyama_optimality_against_perturbations(rng):
    """Returned transform's residual beats 1000 random perturbed ones."""
    for _ in range(50):
        est = rng.normal(size=(25, 3))
        R = random_rotation(rng)
        gt = 1.7 * est @ R.T + rng.normal(size=3) + 0.05 * rng.normal(size=(25, 3))
        T = umeyama_align(est, gt, with_scale=True)
        best = np.sum((T.apply(est) - gt) ** 2)
        for _ in range(20):
            s2 = T.s * (1 + 0.02 * rng.normal())
            R2 = rotvec_to_matrix(0.02 * rng.normal(size=3)) @ T.rotation_matrix()
            t2 = T.t + 0.02 * rng.normal(size=3)
            resid = np.sum((s2 * est @ R2.T + t2 - gt) ** 2)
            assert resid >= best - 1e-9


def _traj(t, pos):
    return TrajectoryEstimate(t=np.asarray(t, dtype=float), pos=np.asarray(pos, dtype=float))


def test_rmse_identity_zero(rng):
    t = np.arange(20) * 0.1
    pos = rng.normal(size=(20, 3))
    assert position_rmse(_traj(t, pos), _traj(t, pos), mode="none") == 0.0


def test_rmse_se3_absorbs_offset(rng):
    t = np.arange(30) * 0.1
    pos = rng.normal(size=(30, 3))
    shifted = pos + np.array([1.0, 0.0, 0.0])
    assert position_rmse(_traj(t, pos), _traj(t, shifted), mode="se3") < 1e-9


def test_rmse_gaussian_noise_chi(rng):
    n = 10_000
    t = np.arange(n) * 0.01
    pos = rng.normal(size=(n, 3))
    noisy = pos + 0.1 * rng.standard_normal((n, 3))
    r = position_rmse(_traj(t, noisy), _traj(t, pos), mode="none")
    assert abs(r - 0.1 * np.sqrt(3)) / (0.1 * np.sqrt(3)) < 0.05


def test_rmse_invariant_under_common_rigid_transform(rng):
    t = np.arange(40) * 0.1
    est = rng.normal(size=(40, 3))
    gt = est + 0.1 * rng.normal(size=(40, 3))
    base = position_rmse(_traj(t, est), _traj(t, gt), mode="sim3")
    R = random_rotation(rng)
    shift = rng.normal(size=3)
    moved = position_rmse(_traj(t, est @ R.T + shift), _traj(t, gt @ R.T + shift),
                          mode="sim3")
    assert abs(base - moved) < 1e-9


def test_rmse_sim3_scale_invariance(rng):
    t = np.arange(40) * 0.1
    est = rng.normal(size=(40, 3))
    gt = est + 0.05 * rng.normal(size=(40, 3))
    r1 = position_rmse(_traj(t, est), _traj(t, gt), mode="sim3")
    r2 = position_rmse(_traj(t, 7.3 * est), _traj(t, gt), mode="sim3")
    assert abs(r1 - r2) < 1e-9


def test_rmse_association_and_empty(rng):
    est = _traj([0.0, 1.0], [[0, 0, 0], [1, 1, 1]])
    gt = _traj([10.0, 11.0], [[0, 0, 0], [1, 1, 1]])
    with pytest.raises(ContractViolation):
        position_rmse(est, gt, mode="none", max_gap=0.1)
    ie, ig, dropped = associate([0.0, 0.5, 1.0], [0.02, 0.51], max_gap=0.05)
    assert list(ie) == [0, 1] and list(ig) == [0, 1] and dropped == 1


def test_relative_velocity_error_trivials(rng):
    v = rng.normal(size=(500, 3)) * 3.0
    bins = relative_velocity_error(v, v)
    assert all(b["mean"] == 0.0 for b in bins)
    bins = relative_velocity_error(1.1 * v, v)
    for b in bins:
        assert abs(b["mean"] - 0.1) < 1e-12
        assert b["std"] < 1e-12


def test_relative_velocity_error_hyperbolic(rng):
    e = np.array([0.3, 0.0, 0.0])
    speeds = np.arange(1, 11, dtype=float)
    v_gt = np.stack([speeds, np.zeros(10), np.zeros(10)], axis=1)
    bins = relative_velocity_error(v_gt + e, v_gt, bin_width=1.0)
    means = [b["mean"] for b in bins]
    assert all(m1 > m2 for m1, m2 in zip(means, means[1:]))
    for b in bins:
        mid_speed = v_gt[int(b["bin_low"]) - 1, 0]
        assert abs(b["mean"] - np.linalg.norm(e) / mid_speed) < 1e-12


def test_relative_velocity_speed_floor():
    v_gt = np.array([[0.1, 0, 0], [3.0, 0, 0]])
    v_est = v_gt + 1.0
    bins = relative_velocity_error(v_est, v_gt, speed_floor=0.5)
    assert len(bins) == 1 and bins[0]["count"] == 1
