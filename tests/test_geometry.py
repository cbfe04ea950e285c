"""Camera model, SE(3), and warping contracts."""

import math

import numpy as np
import pytest

from conftest import small_intrinsics, smooth_image

import tape_oracle as ad
from selfvio.geometry import (CameraIntrinsics, ContractViolation, SE3Pose,
                              _exp_coeffs, inverse_warp, pose_entries, project,
                              quat_conj, quat_from_axis_angle, quat_mul,
                              quat_to_matrix, quat_to_rotvec, rotvec_to_matrix,
                              se3_exp, se3_log, warp_depth)
# the Var forms, on the tape oracle
from tape_oracle import invert_entries, project_grid, se3_exp_entries


def brute_force_mask(depth_t, K, pose):
    """Per-pixel projection with bounds/behind-camera test (python loop)."""
    R = pose.rotation_matrix()
    t = pose.t
    mask = np.zeros(depth_t.shape, dtype=bool)
    for v in range(K.height):
        for u in range(K.width):
            z = depth_t[v, u]
            X = np.array([(u - K.cx) / K.fx * z, (v - K.cy) / K.fy * z, z])
            Xc = R @ X + t
            if Xc[2] <= 1e-9:
                continue
            x = K.fx * Xc[0] / Xc[2] + K.cx
            y = K.fy * Xc[1] / Xc[2] + K.cy
            # mirror the sampler's integer snap
            xr, yr = np.rint(x), np.rint(y)
            if abs(x - xr) <= 1e-8:
                x = xr
            if abs(y - yr) <= 1e-8:
                y = yr
            mask[v, u] = (0.0 <= x <= K.width - 1) and (0.0 <= y <= K.height - 1)
    return mask


def test_intrinsics_invariants():
    with pytest.raises(ContractViolation):
        CameraIntrinsics(fx=-1, fy=1, cx=1, cy=1, width=4, height=4)
    with pytest.raises(ContractViolation):
        CameraIntrinsics(fx=10, fy=10, cx=5, cy=1, width=4, height=4)


# --- project ---------------------------------------------------------------


def test_normalized_grid_follows_the_intrinsics():
    K = small_intrinsics(8, 6, f=7.0)
    xn, yn = K.normalized_grid()
    assert K.normalized_grid()[0] is xn and not xn.flags.writeable
    assert np.array_equal(yn[:, 0], (np.arange(6.0) - K.cy) / K.fy)
    K.fx = 9.0
    xn2, _ = K.normalized_grid()
    assert np.array_equal(xn2[2], (np.arange(8.0) - K.cx) / 9.0)


def test_project_identity_returns_input():
    K = small_intrinsics(32, 24, f=50.0)
    for p in [(3.0, 4.0), (10.0, 20.0), (31.0, 23.0)]:
        (x, y), ok = project(p, 2.5, K, SE3Pose.identity())
        assert ok
        assert abs(x - p[0]) < 1e-12 and abs(y - p[1]) < 1e-12


def test_project_pure_translation_hand_computed():
    # K (R K^-1 p depth + t): fx=100, depth=2, t=(-0.02,0,0)
    # shifts x by fx * tx / depth = -1.0 exactly
    K = CameraIntrinsics(fx=100.0, fy=100.0, cx=16.0, cy=12.0, width=32, height=24)
    pose = SE3Pose.identity()
    pose.t = np.array([-0.02, 0.0, 0.0])
    (x, y), ok = project((10.0, 7.0), 2.0, K, pose)
    assert ok
    assert abs((x - 10.0) - (-1.0)) < 1e-12
    assert abs(y - 7.0) < 1e-12


def test_project_behind_camera_flagged_not_raised():
    K = small_intrinsics(32, 24)
    depth = 2.0
    pose = SE3Pose.identity()
    pose.t = np.array([0.0, 0.0, -2.0 * depth])
    (_, _), ok = project((15.0, 11.0), depth, K, pose)
    assert not ok


def test_project_preconditions():
    K = small_intrinsics(32, 24)
    with pytest.raises(ContractViolation):
        project((3.0, 3.0), -1.0, K, SE3Pose.identity())
    with pytest.raises(ContractViolation):
        project((90.0, 3.0), 1.0, K, SE3Pose.identity())


# --- se3 ------------------------------------------------------------------


def test_se3_exp_zero_is_identity():
    p = se3_exp(np.zeros(6))
    assert np.allclose(p.q, [1, 0, 0, 0]) and np.allclose(p.t, 0)


def test_se3_log_exp_roundtrip(rng):
    for _ in range(100):
        xi = rng.normal(scale=0.5, size=6)
        assert np.linalg.norm(se3_log(se3_exp(xi)) - xi) < 1e-9


def test_se3_exp_quarter_turn_rotates_x_to_y():
    p = se3_exp(np.array([0, 0, 0, 0, 0, np.pi / 2]))
    assert np.allclose(p.apply(np.array([1.0, 0, 0])), [0, 1, 0], atol=1e-12)


@pytest.mark.parametrize("angle", [0.0, 1e-4, 1.0])
def test_se3_exp_entries_vjp_matches_fd(rng, angle):
    """Closed-form VJPs of both outputs, and of their inverse, against
    central differences, on the Taylor branch (xi = 0), near it and at a
    large rotation."""
    phi = rng.normal(size=3)
    xi = np.concatenate([rng.normal(scale=0.5, size=3) if angle else np.zeros(3),
                         angle * phi / np.linalg.norm(phi)])
    G, h = rng.normal(size=(3, 3)), rng.normal(size=3)
    eps = 1e-6

    def outputs(x):
        R, t = se3_exp_entries(x)
        return (R, t) + invert_entries(R, t)

    for k, W in enumerate((G, h, G, h)):
        v = ad.Var(xi)
        ad.asum(outputs(v)[k] * W).backward()
        fd = np.empty(6)
        for i in range(6):
            e = np.zeros(6); e[i] = eps
            fd[i] = (np.sum(outputs(xi + e)[k] * W)
                     - np.sum(outputs(xi - e)[k] * W)) / (2 * eps)
        assert np.allclose(v.grad, fd, rtol=1e-6, atol=1e-9), (k, v.grad, fd)


def test_se3_exp_entries_one_node_per_output(rng):
    v = ad.Var(rng.normal(scale=0.3, size=6))
    R, t = se3_exp_entries(v)
    assert R.shape == (3, 3) and t.shape == (3,)
    assert R._parents == (v,) and t._parents == (v,)
    Ri, ti = invert_entries(R, t)
    assert np.allclose(Ri.value @ R.value, np.eye(3), atol=1e-14)
    assert np.allclose(Ri.value @ t.value + ti.value, 0.0, atol=1e-14)


def test_se3_exp_entries_rotation_is_rotvec_to_matrix(rng):
    for scale in (0.0, 1e-9, 1e-4, 0.1, 1.0, 3.0):
        for _ in range(50):
            xi = rng.normal(scale=scale, size=6)
            assert np.array_equal(se3_exp_entries(xi)[0], rotvec_to_matrix(xi[3:]))
            assert np.array_equal(se3_exp_entries(ad.Var(xi))[0].value,
                                  rotvec_to_matrix(xi[3:]))


THETAS = [0.0, 1e-9, 1.05e-8, 1e-7, 1e-5, 1e-3, 0.1, 1.0, 3.0]


def _coeffs_reference(th):
    """A, B, C, dA, dB, dC and D = (1 - A/2B)/th^2 at th: summed power
    series up to th = 0.5, the closed forms above."""
    t2 = th * th
    if th <= 0.5:
        def f(n):       # sum_k (-t2)^k / (2k + n)!
            return math.fsum((-t2) ** k / math.factorial(2 * k + n) for k in range(30))

        def df(n):
            return math.fsum(-k * (-t2) ** (k - 1) / math.factorial(2 * k + n)
                             for k in range(1, 30))
        A, B = f(1), f(2)
        # 2B - A = sum_k (-t2)^k (2 - (2k + 2)) / (2k + 2)!, whose k = 0 term is 0
        D = math.fsum(2 * k * (-t2) ** (k - 1) / math.factorial(2 * k + 2)
                      for k in range(1, 30)) / (2 * B)
        return A, B, f(3), df(1), df(2), df(3), D
    c, A = math.cos(th), math.sin(th) / th
    B, C = (1 - c) / t2, (1 - A) / t2
    h = 0.5 / t2
    return A, B, C, (c - A) * h, (A - 2 * B) * h, (B - 3 * C) * h, (1 - A / (2 * B)) / t2


@pytest.mark.parametrize("th", THETAS)
def test_exp_coeffs_match_reference(th):
    """No cancellation at any angle; D is the -dB/B that se3_log uses."""
    A, B, C, dA, dB, dC = _exp_coeffs(th * th)
    got = np.array([A, B, C, dA, dB, dC, -dB / B])
    ref = np.array(_coeffs_reference(th))
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref)), (got - ref) / ref


@pytest.mark.parametrize("scale", THETAS[1:])
def test_se3_log_roundtrip_relative_error(rng, scale):
    for _ in range(100):
        u = rng.normal(size=6)
        xi = scale * u / np.linalg.norm(u)
        err = np.linalg.norm(se3_log(se3_exp(xi)) - xi) / scale
        assert err <= 1e-12, err


def test_quat_kernels_batched_equal_per_row(rng):
    a = rng.normal(size=(500, 4))
    b = rng.normal(size=(500, 4))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    assert np.array_equal(quat_mul(a, b), np.stack([quat_mul(x, y) for x, y in zip(a, b)]))
    assert np.array_equal(quat_conj(a), np.stack([quat_conj(x) for x in a]))
    assert np.array_equal(quat_to_matrix(a), np.stack([quat_to_matrix(x) for x in a]))
    assert np.array_equal(quat_to_rotvec(a), np.stack([quat_to_rotvec(x) for x in a]))
    assert quat_mul(a[0], b).shape == (500, 4)      # one quaternion against a stack


def test_quat_to_rotvec_inverts_axis_angle(rng):
    for th in [0.0, 1e-13, 1e-9, 1e-4, 0.3, 1.0, 2.0, 3.0, np.pi - 1e-9]:
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        q = quat_from_axis_angle(axis, th)
        for qq in (q, -q):          # w < 0: the same rotation
            assert np.allclose(quat_to_rotvec(qq), th * axis, rtol=0, atol=1e-15 + 1e-15 * th)


def test_compose_inverse_is_identity(rng):
    for _ in range(20):
        p = se3_exp(rng.normal(scale=0.7, size=6))
        q = p.compose(p.inverse())
        assert np.linalg.norm(q.t) < 1e-9
        assert abs(abs(q.q[0]) - 1.0) < 1e-9


# --- warping ----------------------------------------------------------------


def test_inverse_warp_identity_bit_exact(rng):
    K = small_intrinsics(33, 25, f=71.3)
    img = rng.random((25, 33))
    depth = 1.0 + rng.random((25, 33))
    recon, mask = inverse_warp(img, depth, SE3Pose.identity(), K)
    assert mask.all()
    assert np.array_equal(recon, img)


def test_inverse_warp_compose_identity_bit_identical(rng):
    K = small_intrinsics(32, 24)
    img = rng.random((24, 32))
    depth = 2.0 + rng.random((24, 32))
    P = se3_exp(rng.normal(scale=0.05, size=6))
    r1, m1 = inverse_warp(img, depth, P, K)
    r2, m2 = inverse_warp(img, depth, P.compose(SE3Pose.identity()), K)
    assert np.array_equal(r1, r2) and np.array_equal(m1, m2)


def test_inverse_warp_shape_mismatch():
    K = small_intrinsics(32, 24)
    with pytest.raises(ContractViolation):
        inverse_warp(np.zeros((10, 10)), np.ones((24, 32)), SE3Pose.identity(), K)


def test_lateral_translation_mask_matches_brute_force(rng):
    K = small_intrinsics(32, 24, f=40.0)
    img = smooth_image(rng, 24, 32)
    depth = np.full((24, 32), 3.0)
    pose = SE3Pose.identity()
    pose.t = np.array([0.3, 0.0, 0.0])
    recon, mask = inverse_warp(img, depth, pose, K)
    oracle = brute_force_mask(depth, K, pose)
    assert np.array_equal(mask, oracle)
    # boundary columns invalidated on exactly one side
    assert (~mask).sum() > 0
    assert np.array_equal(recon[~mask], np.zeros((~mask).sum()))


def test_mask_matches_brute_force_oracle_random(rng):
    K = small_intrinsics(20, 14, f=25.0)
    for _ in range(10):
        depth = 1.5 + 2.0 * rng.random((14, 20))
        pose = se3_exp(rng.normal(scale=0.15, size=6))
        img = rng.random((14, 20))
        _, mask = inverse_warp(img, depth, pose, K)
        assert np.array_equal(mask, brute_force_mask(depth, K, pose))


def test_bilinear_exact_for_affine_field(rng):
    K = small_intrinsics(40, 30, f=50.0)
    yy, xx = np.mgrid[0:30, 0:40]
    ramp = (0.3 + 0.01 * xx + 0.007 * yy) / 2.0
    depth = np.full((30, 40), 4.0)
    pose = se3_exp(np.array([0.07, -0.05, 0.0, 0.0, 0.0, 0.0]))
    recon, mask = inverse_warp(ramp, depth, pose, K)
    # warped coords for a fronto-parallel plane under lateral motion:
    # uniform shift dx = fx*tx/Z, dy = fy*ty/Z
    dx = K.fx * 0.07 / 4.0
    dy = K.fy * (-0.05) / 4.0
    want = (0.3 + 0.01 * (xx + dx) + 0.007 * (yy + dy)) / 2.0
    assert np.max(np.abs(recon[mask] - want[mask])) < 1e-6


def test_warp_depth_identity_exact(rng):
    K = small_intrinsics(32, 24)
    depth = 1.0 + rng.random((24, 32))
    out, mask = warp_depth(depth, depth, SE3Pose.identity(), K)
    assert mask.all()
    assert np.array_equal(out, depth)


def test_warp_depth_plane_under_z_translation():
    K = small_intrinsics(32, 24, f=45.0)
    Z, dz = 5.0, 0.8
    depth_src = np.full((24, 32), Z)
    depth_tgt = np.full((24, 32), Z - dz)
    pose = SE3Pose.identity()
    pose.t = np.array([0.0, 0.0, dz])   # target coords -> source coords
    out, mask = warp_depth(depth_src, depth_tgt, pose, K)
    assert mask.all()
    assert np.max(np.abs(out - (Z - dz))) < 1e-9


def test_project_grid_differentiable_vs_fd(rng):
    K = small_intrinsics(10, 8, f=12.0)
    depth = 2.0 + rng.random((8, 10))
    pose = se3_exp(rng.normal(scale=0.1, size=6))
    R, t = pose_entries(pose)
    dv = ad.Var(depth)
    xs, ys, zc, front = project_grid(dv, K, R, t)
    assert front.all()
    ad.asum(xs * xs + ys).backward()
    eps = 1e-6

    def f(d):
        xs2, ys2, _, _ = project_grid(d, K, R, t)
        return float(np.sum(xs2 * xs2 + ys2))

    for (r, c) in [(0, 0), (3, 4), (7, 9)]:
        dp = depth.copy(); dp[r, c] += eps
        dm = depth.copy(); dm[r, c] -= eps
        fd = (f(dp) - f(dm)) / (2 * eps)
        assert abs(dv.grad[r, c] - fd) / max(abs(fd), 1e-9) < 1e-5
