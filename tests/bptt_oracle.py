"""The drone model's velocity recurrence as a per-step chain: the tests'
oracle for the window loop of `selfvio.dronemodel`.

Each IMU step is one call of `velocity_step`, which builds its samples'
first-layer pre-activations and runs the folded layer stack and Euler
step, and keeps its own cache; `velocity_step_vjp` reverses one step from
that cache. BPTT rolls the steps into a list of caches and reverses them
one by one, adding the weight grads once per block of about `_GRAD_ROWS`
rows. The ops and their order are the production ones, so the window loop
must agree with this chain bit for bit.

The `textbook_*` chain is the recurrence as the model states it, unfolded:
each step z-scores all eleven inputs, runs the layers on them and takes the
bracket and Euler step as written. The window loop agrees with it to
rounding.
"""

import numpy as np

from selfvio.dronemodel import (_GRAD_ROWS, _OUT_GAIN, _OUT_MID, DivergenceError,
                                VelocityRollout, _features, _zero_grads)

STEP_INPUTS = ("az", "gyro", "rpm", "g_b", "dt", "R_step")   # `velocity_step` order
XY = np.array([1.0, 1.0, 0.0])


# --- the folded chain ---------------------------------------------------------


def step_factors(dt):
    """u = vb + (f + g_b) dt = vb (th P + Q) + th T + C: P, Q, T (B, 3)."""
    dts = dt[:, None]
    return ((-_OUT_GAIN * XY) * dts, 1.0 + (-_OUT_MID * XY) * dts,
            (-_OUT_GAIN * (1.0 - XY)) * dts)


def mlp_forward(params, vb, az, gyro, rpm):
    """The folded layer stack at the rows vb (B, 3): the first layer's
    state-free share, one row product per row, plus vb's share, and the
    output layer with its 0.5 in the weights. Returns th = tanh(z/2) and the
    layer inputs: the z-scored inputs and the hidden layers."""
    W, b, div = params.weights, params.biases, params._norm_div
    free = (_features(np.zeros_like(vb), az, gyro, rpm) - params.norm_mean) / div
    pre = np.matmul(free[:, None, :], W[0].T)[:, 0] + b[0]
    h = np.tanh(np.dot(vb, (W[0][:, :3] / div[:3]).T) + pre)
    acts = [(_features(vb, az, gyro, rpm) - params.norm_mean) / div, h]
    for w, c in zip(W[1:-1], b[1:-1]):
        h = np.tanh(np.dot(h, w.T) + c)
        acts.append(h)
    return np.tanh(np.dot(h, (0.5 * W[-1]).T) + 0.5 * b[-1]), acts


def velocity_step(params, vb, az, gyro, rpm, g_b, dt, R_step):
    """One IMU step for B states: vb' = R_step^T (vb (th P + Q) + th T + C),
    the bracket f and the step's cache."""
    th, acts = mlp_forward(params, vb, az, gyro, rpm)
    P, Q, T = step_factors(dt)
    C = (g_b + (1.0 - XY) * (az[:, None] - _OUT_MID)) * dt[:, None]
    u = (th * P + Q) * vb + th * T + C
    out = th * _OUT_GAIN + _OUT_MID
    f = -out * vb
    f[:, 2] = az - out[:, 2]
    return np.einsum("bji,bj->bi", R_step, u), f, (vb, out, (acts, th))


def velocity_step_vjp(params, cache, R_step, dt, lam):
    """Reverse of `velocity_step`: lam = dL/dvb' (B,3) -> dL/dvb, plus the
    step's MLP dzs (of the stored weights)."""
    vb, _, (acts, th) = cache
    W = params.weights
    P, Q, T = step_factors(dt)
    du = np.einsum("bij,bj->bi", R_step, lam)
    dz = du * ((vb * P + T) * (1.0 - th * th) * 0.5)
    dzs = [None] * len(W)
    for li in range(len(W) - 1, 0, -1):
        dzs[li] = dz
        dz = np.dot(dz, W[li]) * (1.0 - acts[li] ** 2)
    dzs[0] = dz
    return du * (th * P + Q) + np.dot(dz, W[0][:, :3] / params._norm_div[:3]), dzs


# --- the textbook chain -------------------------------------------------------


def textbook_mlp_forward(params, x_raw):
    """x_raw (B, 11) -> outputs (B, 3) = (d_x, d_y, eps) plus the cache."""
    xn = (x_raw - params.norm_mean) / params._norm_div
    h = xn
    acts = [xn]
    for W, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.tanh(np.dot(h, W.T) + b)
        acts.append(h)
    th = np.tanh(0.5 * (np.dot(h, params.weights[-1].T) + params.biases[-1]))
    return th * _OUT_GAIN + _OUT_MID, (acts, th)


def textbook_mlp_backward(params, cache, d_out):
    """Reverse of `textbook_mlp_forward`: the grad w.r.t. x_raw, and
    dzs[li], the grad at layer li's pre-activation."""
    acts, th = cache
    dz = d_out * (0.5 * _OUT_GAIN) * (1.0 - th * th)
    dzs = [None] * len(params.weights)
    for li in range(len(params.weights) - 1, -1, -1):
        dzs[li] = dz
        dh = np.dot(dz, params.weights[li])
        if li == 0:
            return dh / params._norm_div, dzs
        dz = dh * (1.0 - acts[li] ** 2)


def textbook_velocity_step(params, vb, az, gyro, rpm, g_b, dt, R_step):
    """One IMU step for B states: vb' = R_step^T (vb + (f + g_b) dt), the
    bracket f and the step's cache."""
    out, mlp_cache = textbook_mlp_forward(params, _features(vb, az, gyro, rpm))
    f = -out * vb
    f[:, 2] = az - out[:, 2]
    u = vb + (f + g_b) * dt[:, None]
    return np.einsum("bji,bj->bi", R_step, u), f, (vb, out, mlp_cache)


def textbook_velocity_step_vjp(params, cache, R_step, dt, lam):
    """Reverse of `textbook_velocity_step`: lam = dL/dvb' (B,3) -> dL/dvb,
    plus the step's MLP dzs."""
    vb, out, mlp_cache = cache
    du = np.einsum("bij,bj->bi", R_step, lam)
    df = du * dt[:, None]
    d_out = -df
    d_out[:, :2] *= vb[:, :2]
    dx_raw, dzs = textbook_mlp_backward(params, mlp_cache, d_out)
    du[:, :2] -= out[:, :2] * df[:, :2]
    return du + dx_raw[:, :3], dzs


FOLDED = (velocity_step, velocity_step_vjp)
TEXTBOOK = (textbook_velocity_step, textbook_velocity_step_vjp)


# --- a chain's window, batch and rollout --------------------------------------


def add_mlp_grads(grads, calls):
    """Add the weight and bias grads of a run of MLP calls into `grads`, one
    matrix product per layer; calls[k] = (the call's layer inputs, dzs)."""
    for li in range(len(grads["weights"])):
        dz = np.concatenate([dzs[li] for _, dzs in calls])
        act = np.concatenate([acts[li] for acts, _ in calls])
        grads["weights"][li] += dz.T @ act
        grads["biases"][li] += dz.sum(axis=0)


def run_window(params, vb, az, gyro, rpm, g_b, dt, R_step, step=velocity_step):
    """Roll `step` over L time-major steps: the states (L+1, B, 3) and the
    per-step caches."""
    vel = np.empty((len(dt) + 1,) + vb.shape)
    vel[0] = vb
    caches = []
    for j in range(len(dt)):
        vb, _, cache = step(params, vb, az[j], gyro[j], rpm[j], g_b[j], dt[j], R_step[j])
        caches.append(cache)
        vel[j + 1] = vb
    return vel, caches


def window_vjp(params, caches, dt, R_step, dvel, grads, step_vjp=velocity_step_vjp):
    """Reverse of `run_window`, steps descending, with the weight grads added
    once per block of max(1, _GRAD_ROWS // B) steps."""
    lam = dvel[-1]
    per = max(1, _GRAD_ROWS // lam.shape[0])
    block = []
    for j in range(len(caches) - 1, -1, -1):
        cache = caches.pop()
        dvb, dzs = step_vjp(params, cache, R_step[j], dt[j], lam)
        lam = dvb + dvel[j]
        block.append((cache[2][0], dzs))
        if len(block) == per or j == 0:
            add_mlp_grads(grads, block)
            block = []
    return lam


def batched_windows_loss_and_grads(params, preps, k0s, n_steps, grads, chain=FOLDED):
    """The mean window loss of a batch, with its gradients added into
    `grads` (loss only when grads is None)."""
    B, L = len(preps), n_steps
    i0s = [int(p.sample_step[k0]) for p, k0 in zip(preps, k0s)]
    inputs = [np.stack([getattr(p, name)[i0:i0 + L] for p, i0 in zip(preps, i0s)], axis=1)
              for name in STEP_INPUTS]
    scales = np.array([params.scales[p.seq_id] for p in preps])
    base0 = np.stack([p.base_vel[k0] for p, k0 in zip(preps, k0s)])
    vel, caches = run_window(params, scales[:, None] * base0, *inputs, step=chain[0])
    loss = 0.0
    ds = np.zeros(B)
    dvel = np.zeros_like(vel)
    for b, (p, i0) in enumerate(zip(preps, i0s)):
        ks = np.nonzero((p.sample_step > i0) & (p.sample_step <= i0 + L))[0]
        m, local, base = len(ks), p.sample_step[ks] - i0, p.base_vel[ks]
        resid = vel[local, b] - scales[b] * base
        loss += float(np.sum(resid ** 2) / (3 * m))
        np.add.at(dvel[:, b], local, 2.0 * resid / (3 * m * B))
        ds[b] = float(np.sum(-2.0 * resid / (3 * m * B) * base))
    loss /= B
    if grads is None:
        return loss
    lam = window_vjp(params, caches, *inputs[-2:], dvel, grads, step_vjp=chain[1])
    ds += np.einsum("bi,bi->b", lam, base0)
    for b, p in enumerate(preps):
        grads["scales"][p.seq_id] += ds[b]
    return loss


def loss_and_grads(params, preps, k0s, n_steps, chain=FOLDED):
    grads = _zero_grads(params)
    return batched_windows_loss_and_grads(params, preps, k0s, n_steps, grads, chain), grads


def textbook_loss_and_grads(params, preps, k0s, n_steps):
    return loss_and_grads(params, preps, k0s, n_steps, TEXTBOOK)


def rollout(params, prep, vb0, start=0, horizon=None, step=velocity_step):
    """Open-loop integration, one `step` at B=1 per IMU step."""
    if horizon is None:
        horizon = len(prep.dt) - start
    vel = np.empty((horizon + 1, 3))
    sf = np.empty((horizon, 3))
    vel[0] = vb0
    vb = vel[:1].copy()
    for j in range(horizon):
        i = slice(start + j, start + j + 1)
        vb, f, _ = step(params, vb, prep.az[i], prep.gyro[i], prep.rpm[i],
                        prep.g_b[i], prep.dt[i], prep.R_step[i])
        if not np.all(np.isfinite(vb)):
            raise DivergenceError(f"rollout diverged at step {start + j}")
        vel[j + 1] = vb[0]
        sf[j] = f[0]
    return VelocityRollout(t=prep.t[start:start + horizon + 1], vel=vel, specific_force=sf)


def textbook_rollout(params, prep, vb0, start=0, horizon=None):
    return rollout(params, prep, vb0, start, horizon, step=textbook_velocity_step)
