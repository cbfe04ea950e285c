"""Loss formula fidelity against independent scalar re-implementations,
hand-enumerated aggregation cases, and scheme-level contracts."""

import numpy as np
import pytest

from conftest import small_intrinsics, smooth_image

from selfvio.geometry import ContractViolation, SE3Pose, pose_entries, se3_exp
from selfvio.losses import (SCHEME_2F, SCHEME_3F, SCHEME_BENCHMARK, SCHEME_FRAMES, SCHEMES,
                            DegenerateBatchError, LossConfig, appearance_loss,
                            depth_consistency_error, masked_min_depth,
                            masked_min_photometric, pair_constants, smoothness_loss,
                            ssim_loss, total_loss, total_loss_generic)

# --- scalar SSIM oracle -----------------------------------------------------

C1, C2 = 0.01 ** 2, 0.03 ** 2


def scalar_ssim_loss(a, b, window=3):
    """Independent per-pixel SSIM loss: explicit loops, replicate padding."""
    h, w = a.shape
    r = window // 2
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            va, vb = [], []
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    yy = min(max(y + dy, 0), h - 1)
                    xx = min(max(x + dx, 0), w - 1)
                    va.append(a[yy, xx])
                    vb.append(b[yy, xx])
            va, vb = np.array(va), np.array(vb)
            mu_a, mu_b = va.mean(), vb.mean()
            var_a = (va * va).mean() - mu_a ** 2
            var_b = (vb * vb).mean() - mu_b ** 2
            cov = (va * vb).mean() - mu_a * mu_b
            s = ((2 * mu_a * mu_b + C1) * (2 * cov + C2)) \
                / ((mu_a ** 2 + mu_b ** 2 + C1) * (var_a + var_b + C2))
            out[y, x] = min(max((1 - s) / 2, 0.0), 1.0)
    return out


def test_ssim_identical_is_zero(rng):
    img = rng.random((8, 8))
    assert np.array_equal(ssim_loss(img, img), np.zeros((8, 8)))


def test_ssim_checkerboard_inversion_near_one():
    yy, xx = np.mgrid[0:10, 0:10]
    cb = ((yy + xx) % 2).astype(np.float64)
    loss = ssim_loss(cb, 1.0 - cb)
    assert loss[2:-2, 2:-2].min() > 0.9


def test_ssim_constant_images_match_scalar_oracle():
    a = np.full((8, 8), 0.3)
    b = np.full((8, 8), 0.7)
    assert np.max(np.abs(ssim_loss(a, b) - scalar_ssim_loss(a, b))) < 1e-9


def test_ssim_matches_scalar_oracle_random(rng):
    a = rng.random((8, 8))
    b = rng.random((8, 8))
    assert np.max(np.abs(ssim_loss(a, b) - scalar_ssim_loss(a, b))) < 1e-9


# --- appearance --------------------------------------------------------------


def test_appearance_zero_on_equal(rng):
    img = rng.random((8, 8))
    assert np.array_equal(appearance_loss(img, img, LossConfig()), np.zeros((8, 8)))


def test_appearance_alpha_degeneracies(rng):
    a, b = rng.random((6, 6)), rng.random((6, 6))
    l1 = appearance_loss(a, b, LossConfig(alpha=0.0))
    assert np.allclose(l1, np.abs(a - b), atol=1e-15)
    b2 = a.copy()
    b2[3, 3] = a[3, 3] + 0.25
    assert abs(appearance_loss(a, b2, LossConfig(alpha=0.0))[3, 3] - 0.25) < 1e-12
    s = appearance_loss(a, b, LossConfig(alpha=1.0))
    assert np.array_equal(s, ssim_loss(a, b))


# --- depth consistency --------------------------------------------------------


def test_depth_consistency_values():
    d = np.full((4, 4), 2.0)
    assert np.array_equal(depth_consistency_error(d, d), np.zeros((4, 4)))
    dw = np.full((4, 4), 3.0)
    dt = np.full((4, 4), 1.0)
    assert np.allclose(depth_consistency_error(dw, dt), 0.5, atol=1e-15)


def test_depth_consistency_bounded(rng):
    for _ in range(50):
        dw = rng.random((5, 5)) * 10 + 1e-3
        dt = rng.random((5, 5)) * 10 + 1e-3
        assert depth_consistency_error(dw, dt).max() < 1.0


def test_depth_consistency_rejects_nonpositive():
    with pytest.raises(Exception):
        depth_consistency_error(np.ones((3, 3)), np.zeros((3, 3)))


# --- smoothness ----------------------------------------------------------------


def test_smoothness_constant_disparity_zero(rng):
    img = rng.random((6, 8))
    assert smoothness_loss(np.full((6, 8), 0.4), img) == 0.0


def test_smoothness_linear_ramp_closed_form():
    h, w, m = 6, 8, 0.01
    xx = np.tile(np.arange(w, dtype=np.float64), (h, 1))
    d = 1.0 + m * xx
    img = np.full((h, w), 0.5)
    # mean-normalized: dn = d / mean(d); x-gradient = m / mean(d); y term 0
    want = m / d.mean()
    assert abs(smoothness_loss(d, img, normalize=True) - want) < 1e-12
    assert abs(smoothness_loss(d, img, normalize=False) - m) < 1e-12


def test_smoothness_edge_aware_ordering():
    h, w = 6, 8
    d = np.ones((h, w)); d[:, 4:] = 2.0
    flat = np.full((h, w), 0.5)
    edged = np.full((h, w), 0.2); edged[:, 4:] = 0.9
    assert smoothness_loss(d, edged) < smoothness_loss(d, flat)


# --- masked minimum -------------------------------------------------------------


def test_masked_min_identical_maps_all_valid(rng):
    e = rng.random((3, 3))
    ones = np.ones((3, 3), dtype=bool)
    assert abs(masked_min_photometric([e, e.copy()], [ones, ones]) - e.mean()) < 1e-15


def test_masked_min_dominance():
    a = np.full((3, 3), 0.2)
    b = np.full((3, 3), 0.8)
    ones = np.ones((3, 3), dtype=bool)
    assert abs(masked_min_photometric([a, b], [ones, ones]) - 0.2) < 1e-15


def test_masked_min_hand_enumerated_3x3():
    e1 = np.array([[0.1, 0.2, 0.3],
                   [0.4, 0.5, 0.6],
                   [0.7, 0.8, 0.9]])
    e2 = np.array([[0.2, 0.1, 0.3],
                   [0.9, 0.5, 0.1],
                   [0.1, 0.1, 0.1]])
    m1 = np.array([[1, 1, 0],
                   [1, 1, 1],
                   [0, 1, 1]], dtype=bool)
    m2 = np.array([[1, 0, 1],
                   [1, 1, 1],
                   [0, 1, 1]], dtype=bool)
    # joint mask: (0,0),(1,0),(1,1),(1,2),(2,1),(2,2) -> N = 6
    # mins:        0.1,  0.4,  0.5(tie), 0.1, 0.1, 0.1  -> sum 1.3
    want = 1.3 / 6
    assert abs(masked_min_photometric([e1, e2], [m1, m2]) - want) < 1e-12
    assert abs(masked_min_depth([e1, e2], [m1, m2]) - want) < 1e-12


def test_masked_min_single_map_is_masked_mean():
    e = np.array([[0.2, 0.4], [0.6, 0.8]])
    m = np.array([[1, 0], [1, 1]], dtype=bool)
    want = (0.2 + 0.6 + 0.8) / 3
    assert abs(masked_min_photometric([e], [m]) - want) < 1e-15


def test_masked_min_all_invalid_raises():
    e = np.ones((3, 3))
    z = np.zeros((3, 3), dtype=bool)
    with pytest.raises(DegenerateBatchError):
        masked_min_photometric([e, e], [z, np.ones((3, 3), dtype=bool)])


def test_masking_monotonicity(rng):
    """Masked-minimum mean <= unmasked minimum mean over the same N
    when invalid pixels carry nonnegative (here strictly positive) error."""
    for _ in range(20):
        e1 = rng.random((5, 5)) + 0.01
        e2 = rng.random((5, 5)) + 0.01
        m1 = rng.random((5, 5)) > 0.3
        m2 = rng.random((5, 5)) > 0.3
        joint = m1 & m2
        if joint.sum() == 0:
            continue
        masked = masked_min_photometric([e1, e2], [m1, m2])
        unmasked_over_joint_n = np.minimum(e1, e2).sum() / joint.sum()
        assert masked <= unmasked_over_joint_n + 1e-12


# --- total loss -------------------------------------------------------------------


def _static_inputs(rng, scheme):
    K = small_intrinsics(16, 12, f=15.0)
    img = smooth_image(rng, 12, 16)
    depth = 2.0 + rng.random((12, 16))
    n = 2 if scheme == SCHEME_2F else 3
    frames = [img.copy() for _ in range(n)]
    depths = [depth.copy() for _ in range(n)]
    poses = SE3Pose.identity() if scheme == SCHEME_2F else \
        [SE3Pose.identity(), SE3Pose.identity()]
    return K, frames, depths, poses, depth, img


@pytest.mark.parametrize("scheme", [SCHEME_2F, SCHEME_3F, SCHEME_BENCHMARK])
def test_total_loss_static_is_smoothness_only(rng, scheme):
    K, frames, depths, poses, depth, img = _static_inputs(rng, scheme)
    cfg = LossConfig(scheme=scheme)
    total, diag = total_loss(frames, depths, poses, K, cfg)
    want = cfg.lambda2 * smoothness_loss(1.0 / depth, img)
    assert abs(total - want) < 1e-12
    assert diag.photometric == 0.0 and diag.depth == 0.0


def test_total_loss_zero_weights_equals_masked_min(rng):
    K = small_intrinsics(16, 12, f=15.0)
    imgs = [smooth_image(rng, 12, 16) for _ in range(2)]
    depths = [2.0 + rng.random((12, 16)) for _ in range(2)]
    pose = se3_exp(rng.normal(scale=0.02, size=6))
    cfg = LossConfig(scheme=SCHEME_2F, lambda1=0.0, lambda2=0.0)
    total, diag = total_loss(imgs, depths, pose, K, cfg)
    assert abs(total - diag.photometric) < 1e-15


def test_total_loss_perfect_reconstruction_zero(rng):
    K, frames, depths, poses, _, _ = _static_inputs(rng, SCHEME_2F)
    cfg = LossConfig(scheme=SCHEME_2F, lambda1=0.0, lambda2=0.0)
    total, _ = total_loss(frames, depths, poses, K, cfg)
    assert total == 0.0


def test_total_loss_components_nonnegative(rng):
    K = small_intrinsics(16, 12, f=15.0)
    imgs = [smooth_image(rng, 12, 16) for _ in range(3)]
    depths = [2.0 + rng.random((12, 16)) for _ in range(3)]
    poses = [se3_exp(rng.normal(scale=0.03, size=6)) for _ in range(2)]
    for scheme in (SCHEME_3F, SCHEME_BENCHMARK):
        total, diag = total_loss(imgs, depths, poses, K, LossConfig(scheme=scheme))
        assert diag.photometric >= 0 and diag.depth >= 0 and diag.smoothness >= 0
        assert total >= 0


def test_total_loss_arity_validation(rng):
    K = small_intrinsics(8, 8, f=8.0)
    img = rng.random((8, 8))
    with pytest.raises(Exception):
        total_loss([img], [img + 1], SE3Pose.identity(), K, LossConfig(scheme=SCHEME_2F))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_wrong_frame_depth_or_pose_count_is_contract_violation(rng, scheme):
    """Each scheme takes SCHEME_FRAMES frames and depths and one transform
    fewer; one more or one less of any of them is refused."""
    K = small_intrinsics(16, 12, f=15.0)
    n = SCHEME_FRAMES[scheme]
    frames = [smooth_image(rng, 12, 16) for _ in range(n + 1)]
    depths = [2.0 + rng.random((12, 16)) for _ in range(n + 1)]
    poses = [pose_entries(SE3Pose.identity())] * n
    cfg = LossConfig(scheme=scheme)
    total_loss_generic(frames[:n], depths[:n], poses[:n - 1], K, cfg)
    for f, d, p in ((n - 1, n, n - 1), (n + 1, n, n - 1), (n, n - 1, n - 1),
                    (n, n + 1, n - 1), (n, n, n - 2), (n, n, n)):
        with pytest.raises(ContractViolation):
            total_loss_generic(frames[:f], depths[:d], poses[:p], K, cfg)
        if p == n - 1:
            with pytest.raises(ContractViolation):
                pair_constants(frames[:f], cfg, depths[:d])


def test_two_frame_inverse_consistency(rng):
    """The two reprojections use T and its exact inverse."""
    P = se3_exp(rng.normal(scale=0.4, size=6))
    Q = P.compose(P.inverse())
    assert np.linalg.norm(Q.t) < 1e-9
    assert abs(abs(Q.q[0]) - 1.0) < 1e-9
