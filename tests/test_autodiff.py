"""Finite-difference checks for every autodiff primitive."""

import numpy as np

from selfvio import autodiff as ad


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
