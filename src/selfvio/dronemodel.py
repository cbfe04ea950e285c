"""Learned quadrotor dynamics: an 11-input MLP predicting two drag terms
and an accelerometer-z residual, trained by backprop-through-time on
open-loop velocity rollouts against scale-ambiguous visual velocities.

Inputs per step: body velocity (3), accelerometer z (1), gyro (3), motor
RPM (4); all z-scored with training-set statistics stored in the params.
Hidden layers [45, 45, 45] with tanh; sigmoid outputs rescaled so that
d_x, d_y are structurally confined to [0, 2] and eps to [-5, 5].

Velocity recurrence (one IMU step):

    vb' = R_step^T (vb + [-d_x vb_x + g_x, -d_y vb_y + g_y,
                          a_z - eps + g_z] * dt)

where R_step is the exact axis-angle exponential of gyro * dt and g is
the gravity vector from the attitude filter. The code runs it folded. With
th = tanh(z/2) of the output layer's pre-activation z, the outputs are
(d_x, d_y, eps) = (1 + th_x, 1 + th_y, 5 th_z), and a step is

    vb' = R_step^T (vb * (th * P + Q) + th * T + C),
    P = (-dt, -dt, 0), Q = (1 - dt, 1 - dt, 1), T = (0, 0, -5 dt),
    C = (g_x dt, g_y dt, (a_z + g_z) dt).

Every factor that the state does not enter is built once per window:
P, Q, T and C from dt, g and a_z; the first layer's pre-activation less
vb's share, i.e. its eight state-free inputs (a_z, gyro, rpm), z-scored,
times their columns of W0, plus b0 - W0[:, :3] @ (mean/div) of vb's three;
and the folded weights, vb's share W0[:, :3] / div and the output layer
with the 0.5 of tanh(z/2) taken into W3 and b3. A step adds vb's share to
its row of pre-activations and runs the layers and the step above. The
fusion filter builds the pre-activations and the folded weights once per
IMU stream. model.json stores the unfolded
weights, and the gradients are theirs. Training jointly optimizes
the MLP weights and one scale parameter per sequence; the window's
initial velocity is taken from the (scaled) teacher, so the scale
gradient flows both through the targets and through the initial state.

All gradients are hand-derived reverse-mode (the finite-difference checks
in the test suite are the independent oracle).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import ContractViolation, rotvec_to_matrices

LAYER_SIZES = (11, 45, 45, 45, 3)
MODEL_FORMAT = "selfvio-drone-model"
MODEL_VERSION = 1

_STD_FLOOR = 1e-3
# (d_x, d_y, eps) = (2, 2, 10) sigmoid(z) - (0, 0, 5) = _OUT_GAIN tanh(z/2) + _OUT_MID
_OUT_GAIN = np.array([1.0, 1.0, 5.0])
_OUT_MID = np.array([1.0, 1.0, 0.0])


class DivergenceError(RuntimeError):
    """Training or rollout produced runaway values."""


class ShortSequence(ContractViolation):
    """A sequence has too few samples or seconds to filter or train on.
    A property of the data, not of the call."""


# --------------------------------------------------------------------------
# parameters


@dataclass
class DroneModelParams:
    weights: list          # [(45,11), (45,45), (45,45), (3,45)]
    biases: list           # [(45,), (45,), (45,), (3,)]
    norm_mean: np.ndarray  # (11,)
    norm_std: np.ndarray   # (11,)
    scales: dict           # sequence id -> s
    version: int = MODEL_VERSION

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if name == "norm_std":
            # the z-scoring divisor, once per assignment rather than per MLP
            # call; norm_std itself stays as stored (model.json)
            super().__setattr__("_norm_div", np.maximum(value, _STD_FLOOR))

    def copy(self) -> "DroneModelParams":
        return DroneModelParams(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            norm_mean=self.norm_mean.copy(),
            norm_std=self.norm_std.copy(),
            scales=dict(self.scales),
            version=self.version,
        )


def init_params(rng, norm_mean=None, norm_std=None, scales=None) -> DroneModelParams:
    weights, biases = [], []
    for nin, nout in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]):
        weights.append(rng.standard_normal((nout, nin)) / np.sqrt(nin))
        biases.append(np.zeros(nout))
    return DroneModelParams(
        weights=weights, biases=biases,
        norm_mean=np.zeros(11) if norm_mean is None else np.asarray(norm_mean, dtype=np.float64),
        norm_std=np.ones(11) if norm_std is None else np.asarray(norm_std, dtype=np.float64),
        scales=dict(scales or {}),
    )


def save_params(path, params: DroneModelParams):
    doc = {
        "format": MODEL_FORMAT,
        "version": params.version,
        "layer_sizes": list(LAYER_SIZES),
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "norm_mean": params.norm_mean.tolist(),
        "norm_std": params.norm_std.tolist(),
        "scales": {k: params.scales[k] for k in sorted(params.scales)},
    }
    with open(path, "w", encoding="ascii", newline="\n") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def load_params(path) -> DroneModelParams:
    with open(path, "r", encoding="ascii") as f:
        doc = json.load(f)
    if doc.get("format") != MODEL_FORMAT:
        raise ContractViolation(f"not a drone-model file: {path}")
    if doc.get("version") != MODEL_VERSION:
        raise ContractViolation(
            f"model version {doc.get('version')} unsupported (want {MODEL_VERSION})")
    if tuple(doc["layer_sizes"]) != LAYER_SIZES:
        raise ContractViolation("unexpected layer sizes in model file")
    params = DroneModelParams(
        weights=[np.asarray(w, dtype=np.float64) for w in doc["weights"]],
        biases=[np.asarray(b, dtype=np.float64) for b in doc["biases"]],
        norm_mean=np.asarray(doc["norm_mean"], dtype=np.float64),
        norm_std=np.asarray(doc["norm_std"], dtype=np.float64),
        scales={k: float(v) for k, v in doc["scales"].items()},
        version=doc["version"],
    )
    sizes = list(zip(LAYER_SIZES[1:], LAYER_SIZES[:-1]))
    if ([w.shape for w in params.weights] != sizes
            or [b.shape for b in params.biases] != [(n,) for n, _ in sizes]
            or {params.norm_mean.shape, params.norm_std.shape} != {(LAYER_SIZES[0],)}):
        raise ValueError(f"{path}: array shapes do not match the layer sizes")
    return params


# --------------------------------------------------------------------------
# MLP forward


def _rowwise_dot(h, Wt, out=None):
    """np.dot(h, Wt, out=out) as one matrix-vector product per row of h
    (..., k), so that each row is bitwise what np.dot gives it alone; a
    (B, k) matrix product sums in an order that depends on B."""
    return np.matmul(h[..., None, :], Wt,
                     out=None if out is None else out[..., None, :])[..., 0, :]


def _features(vb, az, gyro, rpm):
    """The MLP input rows (B, 11) from vb (B,3), az (B,), gyro (B,3) and
    rpm (B,4): the one place that knows the feature order. az, gyro and
    rpm may also be one sample, shared by every row."""
    x = np.empty((len(vb), 11))
    x[:, :3] = vb
    x[:, 3] = az
    x[:, 4:7] = gyro
    x[:, 7:] = rpm
    return x


def _inputs(params: DroneModelParams, az, gyro, rpm, vb=None):
    """The z-scored MLP inputs (..., 11) of a stream of samples az (...),
    gyro (..., 3) and rpm (..., 4) at the states vb (..., 3), or at vb = 0,
    whose columns then hold -mean/div."""
    az = np.asarray(az, dtype=np.float64)
    rows = _features(np.zeros((az.size, 3)) if vb is None else np.reshape(vb, (-1, 3)),
                     az.ravel(), np.reshape(gyro, (-1, 3)), np.reshape(rpm, (-1, 4)))
    rows -= params.norm_mean
    rows /= params._norm_div
    return rows.reshape(az.shape + (11,))


def _pre_activations(params: DroneModelParams, az, gyro, rpm):
    """The first layer's pre-activation (..., 45) of a stream of samples
    less vb's share: the eight state-free columns' share plus
    b0 - W0[:, :3] @ (mean/div), one row product per sample, so that each
    row is bitwise its sample alone."""
    pre = _rowwise_dot(_inputs(params, az, gyro, rpm), params.weights[0].T)
    pre += params.biases[0]
    return pre


def _fold(params: DroneModelParams):
    """The folded layer stack's weights, from the stored ones: vb's share of
    the first layer (W0[:, :3] / div).T, the hidden layers (W.T, b), and
    the output layer with tanh(z/2)'s 0.5 taken in, (0.5 W3).T and 0.5 b3."""
    W, b = params.weights, params.biases
    return ((W[0][:, :3] / params._norm_div[:3]).T,
            [(w.T, c) for w, c in zip(W[1:-1], b[1:-1])],
            (0.5 * W[-1]).T, 0.5 * b[-1])


def _mlp_layers(fold, vb, pre, hidden=(None,) * (len(LAYER_SIZES) - 2), dot=np.dot, th=None):
    """The MLP at the states vb (..., 3) from their samples' `_pre_activations`
    pre: the first hidden layer is pre + vb's share, and each hidden layer
    is written into its buffer in `hidden` (which may alias pre). Returns
    the output layer's tanh (into `th` when given), th = tanh(z/2), whose
    outputs are (d_x, d_y, eps) = th * _OUT_GAIN + _OUT_MID."""
    vb_share, layers, W_out, b_out = fold
    h = np.add(dot(vb, vb_share), pre, out=hidden[0])
    np.tanh(h, out=h)
    for (Wt, b), out in zip(layers, hidden[1:]):
        h = dot(h, Wt, out=out)
        h += b
        np.tanh(h, out=h)
    z = dot(h, W_out, out=th)
    z += b_out
    return np.tanh(z, out=z)


def _mlp_forward(params: DroneModelParams, x_raw):
    """x_raw: (B, 11) -> outputs (B, 3) = (d_x, d_y, eps)."""
    pre = _pre_activations(params, x_raw[:, 3], x_raw[:, 4:7], x_raw[:, 7:])
    return _mlp_layers(_fold(params), x_raw[:, :3], pre) * _OUT_GAIN + _OUT_MID


def model_forward(params: DroneModelParams, vb, accel_z, gyro, rpm):
    """Single-sample drag/residual prediction: (d_x, d_y, eps_az)."""
    vb, gyro, rpm = (np.asarray(a, dtype=np.float64).ravel() for a in (vb, gyro, rpm))
    x = (_features(vb[None], float(accel_z), gyro, rpm)
         if (vb.size, gyro.size, rpm.size) == (3, 3, 4) else None)
    if x is None or not np.all(np.isfinite(x)):
        raise ContractViolation("model_forward expects 11 finite inputs")
    out = _mlp_forward(params, x)
    return float(out[0, 0]), float(out[0, 1]), float(out[0, 2])


# --------------------------------------------------------------------------
# velocity recurrence


def _bracket(out, vb, az):
    """The recurrence's specific force (-d_x vb_x, -d_y vb_y, a_z - eps)
    from the MLP outputs (..., 3)."""
    f = -out * vb
    f[..., 2] = az - out[..., 2]
    return f


# The Euler step u = vb + (f + g_b) dt, f = `_bracket`, is folded as
# u = vb (th P + Q) + th T + C. Per unit dt, P is -gain and Q - 1 is -mid on
# the drag rows x and y, and T is -gain on the eps row z
_XY = np.array([1.0, 1.0, 0.0])
_P_DT, _Q_DT, _T_DT = -_OUT_GAIN * _XY, -_OUT_MID * _XY, -_OUT_GAIN * (1.0 - _XY)


def _step_factors(dt):
    """The folded Euler step's state-free factors P, Q, T (..., 3) of the
    step lengths dt (...)."""
    dts = dt[..., None]
    return _P_DT * dts, 1.0 + _Q_DT * dts, _T_DT * dts


def _specific_force(params: DroneModelParams, vb, az, gyro, rpm, pre=None, fold=None):
    """The model's specific force at each row of vb (B, 3) under one IMU and
    motor sample: the bracket of the recurrence, shape (B, 3). Each row is
    bitwise its single call (`_rowwise_dot`). pre and fold: that sample's
    `_pre_activations` (45,) and the model's `_fold`, computed here when
    not given."""
    if pre is None:
        pre = _pre_activations(params, az, gyro, rpm)
    if fold is None:
        fold = _fold(params)
    th = _mlp_layers(fold, vb, pre, dot=_rowwise_dot if len(vb) > 1 else np.dot)
    return _bracket(th * _OUT_GAIN + _OUT_MID, vb, az)


# --------------------------------------------------------------------------
# sequences


@dataclass
class TrainSequence:
    """Synchronized streams for one recording.

    IMU-rate arrays: t (n,), gyro (n,3), accel (n,3), rpm (n,4),
    g_body (n,3) precomputed by the attitude filter. Camera-rate teacher:
    cam_t (m,), v_cam (m,3) scale-ambiguous camera-frame velocities.
    """
    seq_id: str
    t: np.ndarray
    gyro: np.ndarray
    accel: np.ndarray
    rpm: np.ndarray
    g_body: np.ndarray
    cam_t: np.ndarray
    v_cam: np.ndarray
    R_cb: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0) or np.any(np.diff(self.cam_t) <= 0):
            raise ContractViolation("timestamps must be strictly increasing")
        if not np.all(np.isfinite(self.v_cam)):
            raise ContractViolation("teacher velocities must be finite")


_PADLEN = 12   # filtfilt's odd extension: 3 * (number of coefficients)


def _butter3(wn):
    """Third-order digital Butterworth low-pass (b, a) at normalized cutoff
    wn in (0, 1), built as scipy's butter(3, wn): analog prototype poles,
    prewarped cutoff, bilinear transform at fs = 2, three zeros at -1."""
    warped = 4 * np.tan(np.pi * wn / 2)
    p = warped * -np.exp(1j * np.pi * np.array([-2.0, 0.0, 2.0]) / 6)
    k = warped ** 3 * np.real(1.0 / np.prod(4.0 - p))
    return k * np.poly(-np.ones(3)), np.poly((4.0 + p) / (4.0 - p))


def _lfilter(b, a, x, z):
    """Direct form II transposed over the rows of x (n, d) from the state
    z (3, d), in scipy's lfilter order of operations. Each column runs over
    Python floats, which round as float64 does, so it is bitwise the same
    arithmetic at a fraction of numpy's per-sample call cost."""
    b0, b1, b2, b3 = b.tolist()
    _, a1, a2, a3 = a.tolist()
    y = np.empty_like(x)
    for c, (col, (z0, z1, z2)) in enumerate(zip(x.T.tolist(), z.T.tolist())):
        out = []
        for xi in col:
            yi = z0 + b0 * xi
            z0 = z1 + xi * b1 - yi * a1
            z1 = z2 + xi * b2 - yi * a2
            z2 = xi * b3 - yi * a3
            out.append(yi)
        y[:, c] = out
    return y


def smooth_teacher(cam_t, v_body, cutoff_hz=5.0):
    """Zero-phase third-order Butterworth low-pass, per axis: scipy's
    filtfilt(*butter(3, wn), v_body, axis=0), bit for bit."""
    x = np.asarray(v_body, dtype=np.float64)
    if len(x) <= _PADLEN:
        raise ShortSequence(f"teacher has {len(x)} samples; the filter "
                            f"needs more than {_PADLEN}")
    rate = 1.0 / float(np.median(np.diff(cam_t)))
    wn = min(cutoff_hz / (0.5 * rate), 0.99)
    if not 0.0 < wn < 1.0:
        raise ContractViolation(f"cutoff_hz must be positive, got {cutoff_hz}")
    b, a = _butter3(wn)
    # steady-state initial state, solved as scipy's lfilter_zi does
    companion = np.eye(3, k=-1)
    companion[0] = -a[1:]
    zi = np.linalg.solve(np.eye(3) - companion.T, b[1:] - a[1:] * b[0])[:, None]
    ext = np.concatenate((2 * x[:1] - x[_PADLEN:0:-1], x,
                          2 * x[-1:] - x[-2:-_PADLEN - 2:-1]))
    y = _lfilter(b, a, ext, zi * ext[0])
    y = _lfilter(b, a, y[::-1], zi * y[-1])
    return y[::-1][_PADLEN:-_PADLEN]


def teacher_velocity(seq: TrainSequence, s: float, cutoff_hz=5.0):
    """Scaled body-frame teacher: s * R_cb @ v_cam, Butterworth-smoothed."""
    if s <= 0:
        raise ContractViolation("scale must be positive")
    v_body = seq.v_cam @ seq.R_cb.T
    return seq.cam_t, s * smooth_teacher(seq.cam_t, v_body, cutoff_hz)


@dataclass
class PreparedSequence:
    seq_id: str
    dt: np.ndarray         # (n-1,)
    az: np.ndarray         # (n-1,)
    gyro: np.ndarray       # (n-1,3)
    rpm: np.ndarray        # (n-1,4)
    g_b: np.ndarray        # (n-1,3)
    R_step: np.ndarray     # (n-1,3,3)
    base_vel: np.ndarray   # (m,3) unit-scale smoothed teacher
    sample_step: np.ndarray  # (m,) IMU step index of each teacher sample
    t: np.ndarray


def prepare_sequence(seq: TrainSequence, cutoff_hz=5.0) -> PreparedSequence:
    n = len(seq.t)
    dt = np.diff(seq.t)
    R_step = rotvec_to_matrices(seq.gyro[:-1] * dt[:, None])
    _, base = teacher_velocity(seq, 1.0, cutoff_hz)
    sample_step = np.searchsorted(seq.t, seq.cam_t)
    sample_step = np.clip(sample_step, 0, n - 1)
    # averaging consecutive gravity samples keeps the Euler step second
    # order in the (undamped) z row
    g_step = 0.5 * (seq.g_body[:-1] + seq.g_body[1:])
    return PreparedSequence(
        seq_id=seq.seq_id, dt=dt, az=seq.accel[:-1, 2], gyro=seq.gyro[:-1],
        rpm=seq.rpm[:-1], g_b=g_step, R_step=R_step,
        base_vel=base, sample_step=sample_step, t=seq.t,
    )


# --------------------------------------------------------------------------
# rollout


@dataclass
class VelocityRollout:
    t: np.ndarray
    vel: np.ndarray             # (H+1, 3) body velocities
    specific_force: np.ndarray  # (H, 3) per-step bracket terms (without g)


def rollout(params: DroneModelParams, prep: PreparedSequence, vb0,
            start=0, horizon=None) -> VelocityRollout:
    """Open-loop velocity integration over `horizon` IMU steps: the window
    loop at B=1. Raises DivergenceError naming the first step whose state
    is not finite."""
    n = len(prep.dt)
    if horizon is None:
        horizon = n - start
    if start < 0 or start + horizon > n:
        raise ContractViolation("rollout horizon exceeds the sequence")
    w = slice(start, start + horizon)
    with np.errstate(over="ignore", invalid="ignore"):
        vel, th, _ = _run_window(params, np.reshape(vb0, (1, 3)).astype(np.float64),
                                 *(getattr(prep, name)[w, None] for name in _STEP_INPUTS))
    vel = vel[:, 0]
    bad = ~np.isfinite(vel[1:]).all(axis=1)
    if bad.any():
        raise DivergenceError(f"rollout diverged at step {start + int(np.argmax(bad))}")
    sf = _bracket(th[:, 0] * _OUT_GAIN + _OUT_MID, vel[:-1], prep.az[w])
    return VelocityRollout(t=prep.t[start:start + horizon + 1], vel=vel, specific_force=sf)


# --------------------------------------------------------------------------
# BPTT training


def _zero_grads(params):
    return {
        "weights": [np.zeros_like(w) for w in params.weights],
        "biases": [np.zeros_like(b) for b in params.biases],
        "scales": {k: 0.0 for k in params.scales},
    }


_STEP_INPUTS = ("az", "gyro", "rpm", "g_b", "dt", "R_step")   # `_run_window` order
# rows per weight-grad product in `_window_vjp`: enough to spare the recurrence
# its per-step cost, few enough that BLAS keeps a 45 x 96 x 45 product on one thread
_GRAD_ROWS = 96


def _run_window(params: DroneModelParams, vb, az, gyro, rpm, g_b, dt, R_step,
                keep=False):
    """Roll the velocity recurrence over a window of L IMU steps:

        vb' = R_step^T (vb (th P + Q) + th T + C),  th = the MLP's tanh(z/2),

    the Euler step vb + (f + g_b) dt with f = `_bracket` of the MLP outputs,
    folded (`_step_factors`; C = (g_b + (0, 0, a_z - mid_z)) dt). The step
    inputs are time-major, (L, B, ...); vb is (B, 3), or (S, B, 3) for S
    stacks of states that share the inputs (the scale grid). Every factor
    that the state does not enter is built for the whole window before the
    loop: the first layer's `_pre_activations`, written into the first
    hidden layer's buffer, the folded weights and P, Q, T, C. Returns the
    states (L+1, ..., 3), vb first, the output layer's tanh th (L, ..., 3)
    and the layer inputs [x, 3 x (n, ..., 45)]. With keep, for
    `_window_vjp`, x is the z-scored inputs (L, B, 11), built after the
    loop, and the hidden layers are every step's (n = L). Without, x is
    None and they are the last step's (n = 1), except that a (B, 3) vb's
    first layer is its (L, B, 45) pre-activations, each row overwritten by
    its step's layer.
    """
    L, lead = len(dt), vb.shape[:-1]
    stacked = vb.ndim == 3
    # np.matmul over an (S, B, k) stack runs np.dot's product on each (B, k) matrix
    dot, rotate = (np.matmul, "bji,sbj->sbi") if stacked else (np.dot, "bji,bj->bi")
    pre = _pre_activations(params, az, gyro, rpm)
    fold = _fold(params)
    P, Q, T = _step_factors(dt)
    C = (g_b + (1.0 - _XY) * (az[..., None] - _OUT_MID)) * dt[..., None]
    hidden = [np.empty(((L if keep else 1),) + lead + (n,)) if li or stacked else pre
              for li, n in enumerate(LAYER_SIZES[1:-1])]
    th = np.empty((L,) + lead + (3,))
    vel = np.empty((L + 1,) + vb.shape)
    vel[0] = vb
    for j in range(L):
        vb, t = vel[j], th[j]
        k = j if keep else 0
        _mlp_layers(fold, vb, pre[j], (hidden[0][k if stacked else j], hidden[1][k],
                                       hidden[2][k]), dot, t)
        u = t * P[j]
        u += Q[j]
        u *= vb
        u += t * T[j]
        u += C[j]
        np.einsum(rotate, R_step[j], u, out=vel[j + 1])
    return vel, th, [_inputs(params, az, gyro, rpm, vel[:-1]) if keep else None] + hidden


def _window_vjp(params: DroneModelParams, vel, th, acts, dt, R_step, dvel, grads):
    """Reverse of `_run_window` with keep: dvel (L+1, B, 3) = dL/d(states)
    -> dL/dvb. The gradients are those of the stored weights.

    The steps run descending in blocks of max(1, _GRAD_ROWS // B). A block
    first takes, as array ops, every factor that the reverse state lam does
    not enter: 1 - a^2 of each hidden layer, the Euler step's
    du/dvb = th P + Q and dz/du = (vb P + T)(1 - th^2)/2 of the output
    layer's pre-activation z. A step then makes the reverse's
    state-dependent calls only; it writes its layer grads dz into
    block-sized buffers, and the block then adds its MLP weight and bias
    grads into `grads`, one matrix product per layer, rows in step order
    descending.
    """
    L, B = th.shape[:2]
    per = max(1, _GRAD_ROWS // B)
    W = params.weights
    vb_share = _fold(params)[0].T      # (45, 3): d(first layer)/d(vb)
    dzs = [np.empty((per, B, n)) for n in LAYER_SIZES[1:]]
    lam = dvel[-1]
    for hi in range(L, 0, -per):
        blk = slice(max(hi - per, 0), hi)
        P, Q, T = _step_factors(dt[blk])
        t = th[blk]
        d_vb = t * P + Q
        d_out = (vel[blk] * P + T) * (1.0 - t * t) * 0.5
        d_act = [1.0 - a[blk] ** 2 for a in acts[1:]]
        for k, j in enumerate(range(hi - 1, blk.start - 1, -1)):
            r = j - blk.start
            du = np.einsum("bij,bj->bi", R_step[j], lam)
            dz = np.multiply(du, d_out[r], out=dzs[-1][k])
            for li in range(len(W) - 1, 0, -1):
                dz = np.multiply(np.dot(dz, W[li]), d_act[li - 1][r], out=dzs[li - 1][k])
            lam = du * d_vb[r]
            lam += np.dot(dz, vb_share)
            lam += dvel[j]
        n = (hi - blk.start) * B
        for li, dz in enumerate(dzs):
            dz = dz[:hi - blk.start].reshape(n, -1)
            grads["weights"][li] += dz.T @ acts[li][blk][::-1].reshape(n, -1)
            grads["biases"][li] += dz.sum(axis=0)
    return lam


def window_loss_and_grads(params: DroneModelParams, prep: PreparedSequence,
                          k0: int, n_steps: int, grads=None):
    """Loss and gradients of one teacher-anchored window: the batched loss
    at B=1, so the finite-difference checks hold the path that training
    runs. Gradients accumulate into `grads` (new when None), which is
    returned with the loss."""
    if grads is None:
        grads = _zero_grads(params)
    return _batched_windows_loss_and_grads(params, [prep], [k0], n_steps, grads), grads


def _batched_windows_loss_and_grads(params: DroneModelParams, preps,
                                    k0s, n_steps, grads, scales=None):
    """Vectorized BPTT over a batch of equal-length windows.

    Window b starts at teacher sample k0s[b] of preps[b] (which may repeat;
    vb0 = s * base[k0]) and rolls n_steps IMU steps; its loss is the
    per-component MSE against every teacher sample inside it. Returns the
    mean window loss; gradients (divided by the batch size) of the MLP and
    of each sequence's scale accumulate into `grads`. With grads=None only
    the loss is computed. With `scales` (S,), the batch runs at each scale
    s in place of the stored ones, all S in one broadcast forward, and the
    mean window loss of each, (S,), is returned; grads must then be None.
    """
    B, L = len(preps), n_steps
    i0s = [int(p.sample_step[k0]) for p, k0 in zip(preps, k0s)]
    inputs = [np.stack([getattr(p, name)[i0:i0 + L] for p, i0 in zip(preps, i0s)], axis=1)
              for name in _STEP_INPUTS]
    if scales is None:
        sc = np.array([params.scales[p.seq_id] for p in preps])
    else:
        sc = np.repeat(np.asarray(scales, dtype=np.float64)[:, None], B, axis=1)
    base0 = np.stack([p.base_vel[k0] for p, k0 in zip(preps, k0s)])
    vel, th, acts = _run_window(params, sc[..., None] * base0, *inputs,
                                keep=grads is not None)

    # gradients below are of the MEAN window loss (the 1/B rides on dvel)
    runs, run_sc = vel.reshape(L + 1, -1, B, 3), sc.reshape(-1, B)
    loss = np.zeros(len(run_sc))
    ds = np.zeros(B)
    dvel = None if grads is None else np.zeros_like(vel)
    for b, (p, i0) in enumerate(zip(preps, i0s)):
        ks = np.nonzero((p.sample_step > i0) & (p.sample_step <= i0 + L))[0]
        if len(ks) == 0:
            raise ContractViolation("window contains no teacher samples")
        m, local, base = len(ks), p.sample_step[ks] - i0, p.base_vel[ks]
        for r, s in enumerate(run_sc[:, b]):
            resid = runs[local, r, b] - s * base
            loss[r] += float(np.sum(resid ** 2) / (3 * m))
        if grads is not None:
            np.add.at(dvel[:, b], local, 2.0 * resid / (3 * m * B))
            ds[b] = float(np.sum(-2.0 * resid / (3 * m * B) * base))
    loss /= B
    if grads is None:
        return loss if scales is not None else float(loss[0])

    lam = _window_vjp(params, vel, th, acts, *inputs[-2:], dvel, grads)   # dt, R_step
    ds += np.einsum("bi,bi->b", lam, base0)
    for b, p in enumerate(preps):
        grads["scales"][p.seq_id] += ds[b]
    return float(loss[0])


# train() gives up once the batch loss has stayed above DIVERGENCE_FACTOR
# times the first step's loss for DIVERGENCE_PATIENCE consecutive steps
DIVERGENCE_FACTOR = 10.0
DIVERGENCE_PATIENCE = 100


@dataclass
class TrainConfig:
    steps: int = 1500
    batch: int = 6
    lr: float = 5e-3
    lr_final: float | None = None      # exponential decay target (None: constant)
    window_min: float = 0.25
    window_max: float = 5.0
    cutoff_hz: float = 5.0
    seed: int = 0
    init_scale: float = 1.0

    def __post_init__(self):
        if (self.lr <= 0 or self.steps < 0 or self.batch < 1 or self.seed < 0
                or self.init_scale <= 0
                or (self.lr_final is not None and self.lr_final <= 0)):
            raise ContractViolation("bad training hyperparameters")
        if not (0 < self.window_min <= self.window_max):
            raise ContractViolation("bad window length range")


def _flatten(params, grads=None):
    src = params if grads is None else grads
    ws = src["weights"] if isinstance(src, dict) else src.weights
    bs = src["biases"] if isinstance(src, dict) else src.biases
    sc = src["scales"] if isinstance(src, dict) else src.scales
    keys = sorted(sc)
    parts = [w.ravel() for w in ws] + [b.ravel() for b in bs]
    parts.append(np.array([sc[k] for k in keys]))
    return np.concatenate(parts), keys


def _unflatten_into(params: DroneModelParams, theta, keys):
    off = 0
    for li, w in enumerate(params.weights):
        params.weights[li] = theta[off:off + w.size].reshape(w.shape)
        off += w.size
    for li, b in enumerate(params.biases):
        params.biases[li] = theta[off:off + b.size].reshape(b.shape)
        off += b.size
    for k in keys:
        params.scales[k] = float(theta[off])
        off += 1


def compute_norm_stats(prepared, init_scale=1.0):
    """Per-channel z-score statistics over the training set."""
    rows = []
    for p in prepared:
        vb = init_scale * p.base_vel
        idx = np.clip(p.sample_step, 0, len(p.az) - 1)
        rows.append(_features(vb, p.az[idx], p.gyro[idx], p.rpm[idx]))
    X = np.concatenate(rows, axis=0)
    return X.mean(axis=0), np.maximum(X.std(axis=0), _STD_FLOOR)


def _grid_init_scales(params, prepared, rng):
    """Coarse per-sequence scale init: probe window losses over a grid
    with the freshly initialized MLP and keep each sequence's argmin. The
    13 scales run as one broadcast forward per sequence."""
    grid = np.geomspace(0.25, 4.0, 13)
    for p in prepared:
        rate = 1.0 / float(np.median(p.dt))
        n_steps = min(int(round(1.5 * rate)), len(p.dt) - 1)
        kmax = max(1, int(np.searchsorted(p.sample_step, len(p.dt) - n_steps)) - 1)
        anchors = [int(rng.integers(0, kmax)) for _ in range(4)]
        losses = _batched_windows_loss_and_grads(params, [p] * len(anchors), anchors,
                                                 n_steps, None, grid)
        best = (np.inf, params.scales[p.seq_id])
        for s, loss in zip(grid, losses):
            if loss < best[0]:
                best = (loss, float(s))
        params.scales[p.seq_id] = best[1]


def train(sequences, cfg: TrainConfig, params=None):
    """Joint Adam optimization of MLP weights and per-sequence scales."""
    if not sequences:
        raise ContractViolation("need at least one training sequence")
    prepared = [prepare_sequence(s, cfg.cutoff_hz) for s in sequences]
    for p in prepared:
        if p.t[-1] - p.t[0] < 5.0:
            raise ShortSequence(f"sequence {p.seq_id} shorter than 5 s")

    rng = np.random.default_rng(cfg.seed)
    if params is None:
        mean, std = compute_norm_stats(prepared, cfg.init_scale)
        params = init_params(rng, mean, std,
                             {p.seq_id: cfg.init_scale for p in prepared})
        if cfg.steps > 0:
            _grid_init_scales(params, prepared, rng)
    else:
        params = params.copy()
        for p in prepared:
            params.scales.setdefault(p.seq_id, cfg.init_scale)

    theta, keys = _flatten(params)
    m_adam = np.zeros_like(theta)
    v_adam = np.zeros_like(theta)
    beta1, beta2, eps_adam = 0.9, 0.999, 1e-8

    rates = [1.0 / float(np.median(p.dt)) for p in prepared]
    history = []
    initial_loss = None
    over = 0
    for step in range(cfg.steps):
        grads = _zero_grads(params)
        T = rng.uniform(cfg.window_min, cfg.window_max)
        preps, k0s = [], []
        n_steps = len(prepared[0].dt) - 1
        for _ in range(cfg.batch):
            si = int(rng.integers(len(prepared)))
            p = prepared[si]
            L = max(2, min(int(round(T * rates[si])), len(p.dt) - 1))
            n_steps = min(n_steps, L)
            kmax = int(np.searchsorted(p.sample_step, len(p.dt) - L)) - 1
            k0s.append(int(rng.integers(0, max(1, kmax))))
            preps.append(p)
        batch_loss = _batched_windows_loss_and_grads(params, preps, k0s,
                                                     n_steps, grads)

        if cfg.lr_final is None or cfg.steps <= 1:
            lr = cfg.lr
        else:
            lr = cfg.lr * (cfg.lr_final / cfg.lr) ** (step / (cfg.steps - 1))
        g, _ = _flatten(params, grads)
        m_adam = beta1 * m_adam + (1 - beta1) * g
        v_adam = beta2 * v_adam + (1 - beta2) * g * g
        mh = m_adam / (1 - beta1 ** (step + 1))
        vh = v_adam / (1 - beta2 ** (step + 1))
        theta = theta - lr * mh / (np.sqrt(vh) + eps_adam)
        _unflatten_into(params, theta, keys)

        history.append(batch_loss)
        if initial_loss is None:
            initial_loss = batch_loss
        if batch_loss > DIVERGENCE_FACTOR * max(initial_loss, 1e-12):
            over += 1
            if over >= DIVERGENCE_PATIENCE:
                raise DivergenceError(
                    f"loss above {DIVERGENCE_FACTOR}x initial for "
                    f"{DIVERGENCE_PATIENCE} consecutive steps")
        else:
            over = 0
    return params, history


def effective_drag(params: DroneModelParams, prep: PreparedSequence, s=None,
                   speed_floor=1.0):
    """Mean predicted (d_x, d_y) at cruise teacher velocities.

    Hover samples are excluded (drag is unobservable at zero velocity, so
    the network output there is unconstrained).
    """
    s = params.scales[prep.seq_id] if s is None else s
    idx = np.clip(prep.sample_step, 0, len(prep.az) - 1)
    vb = s * prep.base_vel
    keep = np.linalg.norm(vb, axis=1) >= speed_floor
    if not keep.any():
        raise ContractViolation("no cruise samples above the speed floor")
    X = _features(vb, prep.az[idx], prep.gyro[idx], prep.rpm[idx])
    out = _mlp_forward(params, X[keep])
    return float(out[:, 0].mean()), float(out[:, 1].mean())
