"""Finite-difference checks for every op of the tests' tape oracle."""

import numpy as np
import pytest

import tape_oracle as ad


def fd_scalar(f, x, eps=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp = x.copy(); xp[i] += eps
        xm = x.copy(); xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


def check(fn, x, tol=1e-6):
    v = ad.Var(x)
    out = fn(v)
    out.backward()
    fd = fd_scalar(lambda xx: float(ad.value(fn(ad.Var(xx)))), x)
    assert np.allclose(v.grad, fd, rtol=tol, atol=1e-8), (v.grad, fd)


def test_elementwise_ops(rng):
    x = rng.random((4, 5)) + 0.5
    check(lambda v: ad.asum(v * v + 2.0 * v - 1.0 / v), x)
    check(lambda v: ad.asum(ad.exp(v)), x)
    check(lambda v: ad.asum(ad.absolute(v - 1.0)), x)
    check(lambda v: ad.asum(v ** 3), x)


def test_broadcast_scalar_with_array(rng):
    x = rng.random(()) + 0.5
    arr = rng.random((3, 4))
    check(lambda v: ad.asum(v * arr + v), np.asarray(x))


def test_minimum_tie_goes_first(rng):
    a = ad.Var(np.array([1.0, 2.0, 3.0]))
    b = ad.Var(np.array([1.0, 5.0, 2.0]))
    out = ad.asum(ad.minimum(a, b))
    out.backward()
    assert np.array_equal(a.grad, [1.0, 1.0, 0.0])   # tie at index 0 -> a
    assert np.array_equal(b.grad, [0.0, 0.0, 1.0])


def test_where_and_maximum(rng):
    x = rng.random((4, 4)) - 0.5
    cond = x > 0
    check(lambda v: ad.asum(ad.where(cond, v * 2.0, v * 3.0)), x)
    check(lambda v: ad.asum(ad.maximum(v, 0.1)), x + 0.5)


def test_diff_ops(rng):
    x = rng.random((5, 6))
    check(lambda v: ad.asum(ad.absolute(ad.diff_h(v))), x)
    check(lambda v: ad.asum(ad.absolute(ad.diff_v(v))), x)


def test_pad_and_box(rng):
    x = rng.random((6, 7))
    check(lambda v: ad.asum(ad.pad_edge(v, 2) ** 2), x)
    check(lambda v: ad.asum(ad.box_sum(v, 3) ** 2), x)
    check(lambda v: ad.asum(ad.box_mean_same(v, 3) ** 2), x)
    # box mean of a constant is that constant, anywhere
    c = ad.box_mean_same(np.full((5, 5), 0.7), 3)
    assert np.allclose(c, 0.7, atol=1e-15)


def test_getitem(rng):
    x = rng.random(6)
    v = ad.Var(x)
    out = v[2] * 3.0 + v[4]
    out.backward()
    want = np.zeros(6); want[2] = 3.0; want[4] = 1.0
    assert np.array_equal(v.grad, want)


def test_rigid_transform(rng):
    R = rng.normal(size=(3, 3))
    t = rng.normal(size=3)
    P = [rng.random((4, 5)) + 0.5 for _ in range(3)]
    W = [rng.normal(size=(4, 5)) for _ in range(3)]

    def loss(R, t, X, Y, Z):
        rows = ad.rigid_transform(R, t, X, Y, Z)
        return ad.asum(rows[0] * W[0] + rows[1] * W[1] + rows[2] * W[2])

    check(lambda v: loss(v, t, *P), R)
    check(lambda v: loss(R, v, *P), t)
    check(lambda v: loss(R, t, v, P[1], P[2]), P[0])
    check(lambda v: loss(R, t, P[0], P[1], v), P[2])
    # a (1, 3) R gives the one row, and the forward is the plain one
    (row,) = ad.rigid_transform(ad.Var(R[2:]), ad.Var(t[2:]), *P)
    assert np.array_equal(row.value, ad.rigid_transform(R, t, *P)[2])
    check(lambda v: ad.asum(ad.rigid_transform(v, t[2:], *P)[0] * W[0]), R[2:])


def test_bilinear_sample_grads(rng):
    img = rng.random((8, 9))
    xs = rng.uniform(0.6, 7.3, size=(5, 5))
    ys = rng.uniform(0.6, 6.3, size=(5, 5))

    vi, vx, vy = ad.Var(img), ad.Var(xs), ad.Var(ys)
    out, mask = ad.bilinear_sample(vi, vx, vy)
    assert mask.all()
    ad.asum(out * out).backward()

    def f_img(im):
        o, _ = ad.bilinear_sample(im, xs, ys)
        return float(np.sum(o * o))

    def f_x(x):
        o, _ = ad.bilinear_sample(img, x, ys)
        return float(np.sum(o * o))

    assert np.allclose(vi.grad, fd_scalar(f_img, img), rtol=1e-6, atol=1e-9)
    assert np.allclose(vx.grad, fd_scalar(f_x, xs), rtol=1e-6, atol=1e-9)


def test_bilinear_out_of_bounds_masked(rng):
    img = rng.random((4, 4))
    xs = np.array([[-0.5, 1.0], [3.0, 3.5]])
    ys = np.array([[1.0, 1.0], [3.0, 1.0]])
    out, mask = ad.bilinear_sample(img, xs, ys)
    assert mask.tolist() == [[False, True], [True, False]]


def test_bilinear_exact_at_integers(rng):
    img = rng.random((5, 6))
    xs, ys = np.meshgrid(np.arange(6.0), np.arange(5.0))
    out, mask = ad.bilinear_sample(img, xs, ys)
    assert mask.all()
    assert np.array_equal(out, img)


def _sample_2d_reference(img, x, y):
    """The sampler as 2-D fancy indexing: samples, in-bounds mask, and the
    image gradient of sum(g * samples) as four np.add.at scatters."""
    h, w = img.shape
    xv, yv = ad._snap_coords(x), ad._snap_coords(y)
    in_bounds = (xv >= 0.0) & (xv <= w - 1.0) & (yv >= 0.0) & (yv <= h - 1.0)
    x0 = np.clip(np.floor(xv), 0, w - 2).astype(np.intp)
    y0 = np.clip(np.floor(yv), 0, h - 2).astype(np.intp)
    fx = np.clip(xv - x0, 0.0, 1.0)
    fy = np.clip(yv - y0, 0.0, 1.0)
    i00, i01 = img[y0, x0], img[y0, x0 + 1]
    i10, i11 = img[y0 + 1, x0], img[y0 + 1, x0 + 1]
    top = i00 + fx * (i01 - i00)
    bot = i10 + fx * (i11 - i10)

    def img_grad(g):
        gi = np.zeros((h, w))
        gm = g * in_bounds
        np.add.at(gi, (y0, x0), gm * ((1.0 - fx) * (1.0 - fy)))
        np.add.at(gi, (y0, x0 + 1), gm * (fx * (1.0 - fy)))
        np.add.at(gi, (y0 + 1, x0), gm * ((1.0 - fx) * fy))
        np.add.at(gi, (y0 + 1, x0 + 1), gm * (fx * fy))
        return gi

    return top + fy * (bot - top), in_bounds, img_grad


def test_flat_stencil_sampler_is_the_2d_index_sampler(rng):
    img = rng.random((9, 11))
    xs = rng.uniform(-2.0, 12.0, size=(20, 30))
    ys = rng.uniform(-2.0, 10.0, size=(20, 30))
    # coordinates that snap to integers, edges and corners included
    xs[::3] = np.round(xs[::3]) + rng.uniform(-5e-9, 5e-9, size=xs[::3].shape)
    ys[::4] = np.round(ys[::4])
    xs[0, :4], ys[0, :4] = [0.0, 10.0, 0.0, 10.0], [0.0, 0.0, 8.0, 8.0]
    want, want_mask, img_grad = _sample_2d_reference(img, xs, ys)
    assert want_mask.any() and not want_mask.all()

    out, mask = ad.bilinear_sample(img, xs, ys)
    assert np.array_equal(out, want) and np.array_equal(mask, want_mask)
    # a second image sampled through the same stencil
    st = ad.bilinear_stencil(xs, ys, img.shape)
    img2 = rng.random(img.shape)
    assert np.array_equal(ad.bilinear_sample(img2, xs, ys, st)[0],
                          _sample_2d_reference(img2, xs, ys)[0])
    with pytest.raises(ValueError):
        ad.bilinear_sample(rng.random((9, 12)), xs, ys, st)

    vi = ad.Var(img)
    g = rng.normal(size=xs.shape)
    o, _ = ad.bilinear_sample(vi, xs, ys)
    ad.asum(o * g).backward()
    assert np.array_equal(vi.grad, img_grad(g))


@pytest.mark.parametrize("shape,p", [((12, 16), 1), ((5, 7), 2), ((1, 4), 2), ((3, 1), 1)])
def test_pad_edge_is_the_index_gather_and_scatter(rng, shape, p):
    x = rng.random(shape)
    iy = np.clip(np.arange(-p, shape[0] + p), 0, shape[0] - 1)
    ix = np.clip(np.arange(-p, shape[1] + p), 0, shape[1] - 1)
    g = rng.normal(size=(len(iy), len(ix)))
    v = ad.Var(x)
    out = ad.pad_edge(v, p)
    assert np.array_equal(out.value, x[np.ix_(iy, ix)])
    ad.asum(out * g).backward()
    want = np.zeros(shape)
    np.add.at(want, (iy[:, None], ix[None, :]), g)
    assert np.array_equal(v.grad, want)     # the scatter's order of sums, bitwise
