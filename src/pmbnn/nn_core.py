"""Fully connected 1-64-64-1 Tanh network with hand-rolled reverse mode.

The network maps vo2 (L/min) to heart rate (bpm) with a linear output
layer. Alongside the weights it carries six unconstrained ``theta``
values that a logistic bound map turns into the physiological parameters
l1..l6, so gradient updates can never leave the parameter boxes.

The training loss is L_tot = L_data + w * L_DE: L_data is the mean
squared HR error (bpm^2) and L_DE the mean squared collocation residual
of :func:`physio_model.collocation_residuals` ((bpm/min)^2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import physio_model as pm
from .errors import (INTEGER, NUMBER, STRING, IoFailure, LengthMismatch, ListOf,
                     NonFiniteLoss, OutOfBounds, check_json)
from .physio_model import DEFAULT_INITIAL, LambdaBounds, LambdaParams

HIDDEN = 64
ARRAY_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3", "theta")
# offsets of the layers and theta in a parameter tree's flat vector
_L2 = 2 * HIDDEN
_L3 = _L2 + HIDDEN * (HIDDEN + 1)
_THETA = _L3 + HIDDEN + 1
_SIZE = _THETA + 6
#: the arrays of the ``LambdaBounds()`` box, which training maps theta into
BOX = LambdaBounds().lo_hi_arrays()


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function of an array."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def box_map(theta: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The logistic map lambda = lo + (hi - lo) sigmoid(theta) and its slope in theta."""
    s = sigmoid(theta)
    return lo + (hi - lo) * s, (hi - lo) * s * (1.0 - s)


def lambda_from_theta(theta: np.ndarray, bounds: LambdaBounds) -> LambdaParams:
    return LambdaParams.from_array(box_map(theta, *bounds.lo_hi_arrays())[0])


def theta_from_lambda(lam: LambdaParams, bounds: LambdaBounds) -> np.ndarray:
    """The theta that :func:`lambda_from_theta` maps to ``lam``, the logit of each
    lambda's box coordinate; a lambda not strictly inside its box is OutOfBounds."""
    if not bounds.contains(lam):
        raise OutOfBounds(f"{lam} not strictly inside {bounds}")
    lo, hi = bounds.lo_hi_arrays()
    p = (lam.as_array() - lo) / (hi - lo)
    return np.log(p) - np.log1p(-p)


class _Tree:
    """The seven parameter-shaped arrays: weights, biases and theta.

    One layout serves the network parameters, their gradients and the
    RMSprop squared-gradient accumulators. The arrays are views of one
    vector ``flat``: ``layer1`` = [w1 | b1] (64, 2), ``layer2`` = [w2 | b2]
    (64, 65), ``layer3`` = [w3 | b3] (65,), theta (6,). So each layer is one
    gemm operand and an optimizer step is a few passes over ``flat``.
    Assigning an array copies it into its view.
    """

    def __init__(self, w1, b1, w2, b2, w3, b3, theta):
        self._bind(np.empty(_SIZE))
        for name, value in zip(ARRAY_FIELDS, (w1, b1, w2, b2, w3, b3, theta)):
            setattr(self, name, value)

    @classmethod
    def _of(cls, flat: np.ndarray) -> "_Tree":
        tree = cls.__new__(cls)
        tree._bind(flat)
        return tree

    def _bind(self, flat: np.ndarray) -> None:
        layer1 = flat[:_L2].reshape(HIDDEN, 2)
        layer2 = flat[_L2:_L3].reshape(HIDDEN, HIDDEN + 1)
        layer3 = flat[_L3:_THETA]
        self.__dict__.update(
            flat=flat, layer1=layer1, layer2=layer2, layer3=layer3,
            w1=layer1[:, :1], b1=layer1[:, 1], w2=layer2[:, :HIDDEN],
            b2=layer2[:, HIDDEN], w3=layer3[None, :HIDDEN], b3=layer3[HIDDEN:],
            theta=flat[_THETA:])

    def __setattr__(self, name: str, value) -> None:
        view = getattr(self, name)
        if np.shape(value) != view.shape:
            raise ValueError(f"{name} must have shape {view.shape}, got {np.shape(value)}")
        view[...] = value


#: network weights/biases plus the six unconstrained lambda pre-images
MlpParams = _Tree


def xavier_init(seed: int, bounds: LambdaBounds = LambdaBounds(),
                init_lambda: LambdaParams = DEFAULT_INITIAL) -> MlpParams:
    """Xavier-uniform weights, zero biases, theta from the initial lambdas."""
    rng = np.random.default_rng(seed)

    def layer(n_out, n_in):
        limit = np.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-limit, limit, size=(n_out, n_in))

    return MlpParams(layer(HIDDEN, 1), np.zeros(HIDDEN), layer(HIDDEN, HIDDEN),
                     np.zeros(HIDDEN), layer(1, HIDDEN), np.zeros(1),
                     theta_from_lambda(init_lambda, bounds))


def _layer_inputs(vo2: np.ndarray, dtype=np.float64):
    """The network's input rows [vo2; 1] and two (HIDDEN + 1, n) activation
    buffers whose last row holds ones, so that every bias rides in a gemm;
    all three in ``dtype``."""
    ones = np.ones((2, HIDDEN + 1, len(vo2)), dtype)
    return np.vstack([vo2, ones[0, 0]]).astype(dtype, copy=False), ones[0], ones[1]


def _forward_full(p: MlpParams, x1: np.ndarray, a1: np.ndarray, a2: np.ndarray):
    """Fresh float64 output y for input rows ``x1``; writes the hidden
    activations feature-major, (HIDDEN, n), into the top rows of ``a1`` and
    ``a2``. The layers run in the buffers' dtype, the weights cast to it."""
    l1, l2, l3 = (w.astype(a1.dtype, copy=False) for w in (p.layer1, p.layer2, p.layer3))
    h1, h2 = a1[:HIDDEN], a2[:HIDDEN]
    np.matmul(l1, x1, out=h1)
    np.tanh(h1, out=h1)
    np.matmul(l2, a1, out=h2)
    np.tanh(h2, out=h2)
    return (l3 @ a2).astype(np.float64, copy=False)


def mlp_forward(p: MlpParams, vo2: np.ndarray) -> np.ndarray:
    """Network output for a 1-D vo2 array."""
    return _forward_full(p, *_layer_inputs(vo2))


@dataclass(frozen=True)
class TrainBatch:
    """Everything a loss evaluation needs besides the parameters.

    Validates vo2 positivity once and caches what every loss evaluation
    reuses: lv = log(vo2) and its powers (1, lv, lv^2), the input rows
    [vo2; 1], the spacing in minutes and the kernel's scratch buffers.
    Every :func:`loss_only` and :func:`loss_and_gradients` call overwrites
    those buffers, so one batch must not be evaluated by two calls at the
    same time. :func:`gradient_check`'s analytic pass is such a call; only
    its finite differences run on a float64 copy of the batch, in the
    copy's buffers.

    ``dtype`` is the working precision of the input rows and the activation
    buffers, so of the network's gemms, tanh passes and backward elementwise
    passes. Training uses float32, which halves the epoch; the network
    output, the losses, the collocation residual and its adjoint, and the
    gradients written into the parameter tree stay float64. The gradient
    check keeps the float64 default: its 1e-4 gate on the relative error
    needs the analytic gradient far more exact than float32 rounding.
    """

    vo2: np.ndarray
    hr: np.ndarray
    segment_bounds: tuple[tuple[int, int], ...]
    dt_seconds: float
    de_weight: float
    dtype: type = np.float64

    def __post_init__(self):
        if len(self.vo2) != len(self.hr):
            raise LengthMismatch("vo2 and hr must be aligned")
        rows = pm.log_vo2_rows(self.vo2)
        x1, a1, a2 = _layer_inputs(self.vo2, self.dtype)
        self.__dict__.update(  # the dataclass is frozen; caches bypass that
            _log_vo2=rows[1], _lv_powers=rows, _x1=x1,
            _dt_min=self.dt_seconds / pm.SECONDS_PER_MINUTE,
            _work=(a1, a2, np.empty((HIDDEN, len(rows[1])), self.dtype)))


def _forward_loss(p: MlpParams, batch: TrainBatch):
    """Forward pass into the batch's buffers: y, y - hr, the lambdas and their
    slope in theta, the residual per segment, its length m, L_data and L_DE."""
    y = _forward_full(p, batch._x1, *batch._work[:2])
    resid = y - batch.hr
    l_data = float(resid @ resid) / len(y)
    lam, slope = box_map(p.theta, *BOX)
    res = pm.collocation_residuals(
        y, batch._log_vo2, batch.segment_bounds, batch._dt_min, lam
    )
    m = sum(len(f) for f in res)
    l_de = sum(float(f @ f) for f in res) / m
    return y, resid, lam, slope, res, m, l_data, l_de


def loss_and_gradients(p: MlpParams, batch: TrainBatch):
    """Evaluate L_data, L_DE, L_tot and exact reverse-mode gradients.

    L_data is in bpm^2 and L_DE, the mean squared collocation residual,
    in (bpm/min)^2. The residual is F = D(y (1 - l5 g)) - l6 with D the
    per-segment central difference and g = SV * TPR quadratic in lv, so
    summing by parts, sum F D(v) = sum v q with q = D^T F, gives
    dL_DE/dy = 2 (1 - l5 g) q / m and each lambda partial from sum F and
    the moments sum y q lv^k, k = 0, 1, 2; theta's follow through the
    logistic map. With ``de_weight == 0`` the theta gradient is 0. The
    backward pass runs in the batch's buffers and returns a fresh float64
    tree. The network passes, forward and backward, run in the batch's
    ``dtype``: dy is cast to it after the float64 loss adjoint, and each
    gemm writes its weight gradient straight into the float64 tree. With
    float64 buffers every cast is a no-op.
    """
    y, resid, lam, slope, res, m, l_data, l_de = _forward_loss(p, batch)
    w = batch.de_weight
    l_tot = l_data + w * l_de
    if not np.isfinite(l_tot):
        raise NonFiniteLoss(f"L_tot = {l_tot}")

    grads = _Tree._of(np.zeros(_SIZE))
    dy = (2.0 / len(y)) * resid  # d L_tot / d prediction
    if w:
        q = np.zeros(len(y))
        for (a, b), f in zip(batch.segment_bounds, res):
            q[a + 2:b] += f
            q[a:b - 2] -= f
        q /= 2.0 * batch._dt_min
        l5, coef = lam[4], pm.coupling_coefficients(lam)
        dy += (2.0 * w / m) * (1.0 - l5 * (coef[4] @ batch._lv_powers)) * q
        sums = np.append(coef @ (batch._lv_powers @ (y * q)), sum(f.sum() for f in res))
        dlam = np.array([l5, l5, l5, l5, 1.0, 1.0]) * sums
        grads.theta[:] = w * (-2.0 / m) * dlam * slope

    # backprop through the MLP, feature-major. a2's hidden rows become
    # G = (1 - a2^2) dy, so dz2 = w3 G is never formed: dW2 is G [a1; 1]^T
    # scaled by w3 per row and dz1 = (w3 w2)^T G (1 - a1^2)
    a1, a2, dz1 = batch._work
    h1, h2 = a1[:HIDDEN], a2[:HIDDEN]
    dy = dy.astype(a2.dtype, copy=False)
    np.matmul(a2, dy, out=grads.layer3)
    np.multiply(h2, h2, out=h2)
    np.subtract(1.0, h2, out=h2)
    h2 *= dy
    w3 = p.layer3[:HIDDEN, None]
    np.matmul(h2, a1.T, out=grads.layer2)
    grads.layer2 *= w3
    np.matmul((w3 * p.w2).T.astype(dz1.dtype, copy=False), h2, out=dz1)
    np.multiply(h1, h1, out=h1)
    np.subtract(1.0, h1, out=h1)
    dz1 *= h1
    np.matmul(dz1, batch._x1.T, out=grads.layer1)
    return l_data, l_de, l_tot, grads


def loss_only(p: MlpParams, batch: TrainBatch) -> float:
    """L_tot without gradients: the plain forward loss, one probe at a time."""
    *_, l_data, l_de = _forward_loss(p, batch)
    return l_data + batch.de_weight * l_de


#: RMSprop's squared-gradient decay and denominator guard
RMSPROP_RHO = 0.99
RMSPROP_EPS = 1e-8


def rmsprop_step(p: MlpParams, g: MlpParams, v: np.ndarray, lr: float) -> MlpParams:
    """v <- rho*v + (1-rho)*g^2; p <- p - lr * g / (sqrt(v) + eps).

    Passes over the flat vectors: ``v``, the squared-gradient accumulators
    laid out like ``p.flat``, is updated in place; the parameters come back
    fresh and ``p`` is left as it was.
    """
    if not np.isfinite(g.flat).all():
        raise NonFiniteLoss("gradient contains NaN or inf")
    gf = g.flat
    v *= RMSPROP_RHO
    t = (1.0 - RMSPROP_RHO) * gf
    t *= gf
    v += t
    np.multiply(lr, gf, out=t)
    t /= np.sqrt(v) + RMSPROP_EPS
    return _Tree._of(p.flat - t)


#: the central-difference step of :func:`gradient_check`
_FD_STEP = 1e-5


def gradient_check(p: MlpParams, batch: TrainBatch) -> float:
    """Max relative disagreement between reverse mode and central FD.

    Central differences (L(p + h e_k) - L(p - h e_k)) / 2h, h = 1e-5, serve
    as a forward-only oracle that shares no code with the backward pass
    (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 1).
    Each weight or bias probe changes one hidden unit, whose tanh change
    comes from its Taylor series at the unit's activation, so the probes'
    prediction changes take a few gemms (:func:`_loss_differences`). At
    fixed lambdas L_data is quadratic in y and the collocation residual
    affine, F(y + delta) = F(y) + A delta, so each numerator is taken
    exactly as d . (b + K s), d = d+ - d-, s = d+ + d-, b from the data
    residuals r and F and the n x n matrix K from A, instead of by
    subtracting two nearly equal losses. A theta probe moves one lambda and
    leaves y, and the residual is affine in each lambda, so its numerator
    takes a product form over F with the exact logistic difference of lambda.
    A network with max |w2| max(vo2, 1) above 100, past the series' range,
    is OutOfBounds.

    Relative error per parameter: |g_ad - g_fd| / max(1e-12, |g_ad| + |g_fd|).
    """
    analytic = loss_and_gradients(p, batch)[3].flat
    fd = _loss_differences(p, batch).flat / (2.0 * _FD_STEP)
    denom = np.maximum(1e-12, np.abs(analytic) + np.abs(fd))
    return float(np.max(np.abs(analytic - fd) / denom))


#: terms of the Taylor form tanh(z + q) - tanh(z) = sum_m c_m q^m that a
#: [w1 | b1] probe's layer-2 changes q take, and the largest |q| it serves.
#: Cauchy's estimate on the unit circle around z bounds |c_m| by
#: max |tanh| there, tan 1 < 1.6, so the dropped tail is below
#: 1.6 |q|^6 <= 1.6e-18: round-off next to the c_1 q term
_TAYLOR_ORDER = 5
_TAYLOR_MAX_STEP = 1e-3


def _tanh_series(order: int) -> list:
    """R_1..R_order as np.polyval coefficients, highest power first, with
    c_m = (1 - t^2) R_m(t) the Taylor coefficients of tanh at z, t = tanh z.
    The derivatives P_m = (1 - t^2) Q_m of tanh in z follow
    P_m+1 = P_m'(t) (1 - t^2), so Q_1 = 1, Q_m+1 = ((1 - t^2) Q_m)' and
    R_m = Q_m / m!. Plain lists: NumPy's polynomial helpers cost the
    importing process about 0.3 MB of resident memory."""
    series = [[1.0]]
    for m in range(1, order):
        r = series[-1]
        q = [a - b for a, b in zip([0.0, 0.0] + r, r + [0.0, 0.0])]   # (1 - t^2) R_m
        series.append([c * (len(q) - 1 - k) / (m + 1) for k, c in enumerate(q[:-1])])
    return series


_TANH_SERIES = _tanh_series(_TAYLOR_ORDER)


def _sech2(z: np.ndarray) -> np.ndarray:
    """1 - tanh(z)^2 from exp(-2|z|): exact to a few ulp where 1 - t^2
    would cancel, as t = tanh z rounds near +-1."""
    e = np.exp(-2.0 * np.abs(z))
    return 4.0 * e / (1.0 + e) ** 2


def _loss_differences(p: MlpParams, batch: TrainBatch) -> _Tree:
    """L_tot(p + h e_k) - L_tot(p - h e_k) for every parameter k, h = _FD_STEP.

    At fixed lambdas L_data is quadratic in the prediction y and the
    residual affine, so prediction changes d+, d- score exactly as
    d . (b + K s), d = d+ - d-, s = d+ + d-, with b = 2 r / n + (w / m) A^T 2F
    and K = I / n + (w / m) A^T A; A^T, n x m for m residuals, is the
    residual of the identity's rows, and K is n x n (the check's n is 32).

    No hidden-layer probe takes a tanh pass. A probe moves a layer-2
    pre-activation z by q, and tanh(z + q) - tanh(z) = sum_m c_m q^m with
    c_m from t = tanh z = a2 (:data:`_TANH_SERIES`), so the differences
    that cancel in float64 are never formed:

    - [w1 | b1] (j, c): a1_j moves by delta = tanh(+-h x_c) (1 - a1_j^2) /
      (1 + a1_j tanh(+-h x_c)), exactly, and z by w2_ij delta, so
      d+- = sum_m delta^m M_m[j] with M_m = (w2^m)^T (w3 c_m), powers
      elementwise: _TAYLOR_ORDER gemms, then one against K for all probes.
    - [w2 | b2] (i, j): z_i moves by +-h A_j, A = [a1; 1], so d and s are
      the odd and even terms of the series. Up to O(h^4) relative,
      d . b = 2 w3_i [h (c1 b) A^T + h^3 (c3 b) (A^3)^T]_ij and
      d . K s = 4 w3_i^2 h^3 sum_st c1_is A_js K_st c2_it A^2_jt. The
      residual at sample r touches only samples r - 1 and r + 1 of its
      segment, so K is nonzero only on its diagonals t - s = 0, +-2, and
      the latter sum is one gemm per diagonal.

    The forward pass is :func:`_forward_loss` on a float64 copy of
    ``batch``, in its buffers.
    """
    h = _FD_STEP
    if h * np.abs(p.w2).max() * max(1.0, batch.vo2.max()) > _TAYLOR_MAX_STEP:
        raise OutOfBounds(f"gradient check: |w2| max(vo2, 1) exceeds "
                          f"{_TAYLOR_MAX_STEP / h:g}, the range of its tanh series")
    batch = replace(batch, dtype=np.float64)
    y, resid, lam, _, res, m, _, _ = _forward_loss(p, batch)
    x1, (a1e, a2e, _) = batch._x1, batch._work
    a1, a2 = a1e[:HIDDEN], a2e[:HIDDEN]
    w3, n = p.w3[0], len(y)
    two_f = [2.0 * f for f in res]
    lam_a = np.append(lam[:5], 0.0)  # l6 = 0 leaves the linear part A
    a_t = np.concatenate(pm.collocation_residuals(
        np.eye(n), batch._log_vo2, batch.segment_bounds, batch._dt_min, lam_a), axis=-1)
    k = np.eye(n) / n + (batch.de_weight / m) * (a_t @ a_t.T)
    b = 2.0 * resid / n + (batch.de_weight / m) * (a_t @ np.concatenate(two_f))

    out = _Tree._of(np.empty(_SIZE))
    sech2 = _sech2(p.layer2 @ a1e)
    c = [sech2 * np.polyval(r, a2) for r in _TANH_SERIES]
    # [w1 | b1] row j: (2 signs, HIDDEN, 2 probes, n); the series in delta
    # by Horner's rule, from the top term's M_m down
    tau = np.tanh(np.stack([h * x1, -h * x1]))[:, None]
    delta = tau * _sech2(p.layer1 @ x1)[:, None] / (1.0 + a1[:, None] * tau)
    dy1 = np.zeros_like(delta)
    for order in range(_TAYLOR_ORDER, 0, -1):
        dy1 += ((p.w2 ** order).T @ (w3[:, None] * c[order - 1]))[:, None]
        dy1 *= delta
    # d . (b + K s) in dy1's buffer: s is one 2-D stack of rows, one gemm
    plus, minus = dy1.reshape(2, -1, n)
    s = plus + minus
    np.subtract(plus, minus, out=minus)
    np.matmul(s, k, out=plus)
    plus += b
    plus *= minus
    out.layer1[:] = np.sum(plus, axis=-1).reshape(HIDDEN, 2)
    # fewer live arrays below keep the heap's high-water mark low
    del tau, delta, dy1, plus, minus, s
    # [w2 | b2] row i: d . b in two gemms, d . K s one diagonal of K at a
    # time, (c1_is K_st c2_it) (A_js A^2_jt)^T over the s with t = s + off
    a_sq = a1e * a1e
    out.layer2[:] = h * ((c[0] * b) @ a1e.T) + h ** 3 * ((c[2] * b) @ (a_sq * a1e).T)
    ks = np.zeros((HIDDEN, HIDDEN + 1))
    for off in (-2, 0, 2):
        s, t = slice(max(0, -off), n - max(0, off)), slice(max(0, off), n - max(0, -off))
        ks += (c[0][:, s] * np.diagonal(k, off) * c[1][:, t]) @ (a1e[:, s] * a_sq[:, t]).T
    out.layer2 += (2.0 * h ** 3) * w3[:, None] * ks
    out.layer2 *= 2.0 * w3[:, None]
    # [w3 | b3]: the output moves by +-h times the unit's activation a2: s = 0, d = 2 h a2
    out.layer3[:] = np.sum(b * (2.0 * (h * a2e)), axis=-1)
    # theta[k] moves lambda k alone and leaves y, so only L_DE changes. F
    # is affine in each lambda, F(l) = F + (l - lam_k) c_k with c_k the
    # change of F from lambda k at 0 to lambda k at 1, so F+^2 - F-^2 is
    # (l+ - l-) c (2F + (l+ + l- - 2 lam_k) c). The lambda steps up = l+ - lam
    # and down = lam - l- come from s(a) - s(b) = -s(a) s(-b) expm1(b - a).
    width = BOX[1] - BOX[0]
    up = -width * sigmoid(p.theta + h) * sigmoid(-p.theta) * np.expm1(-h)
    down = -width * sigmoid(p.theta) * sigmoid(h - p.theta) * np.expm1(-h)
    own = np.eye(6, dtype=bool)
    rows = np.vstack([np.where(own, 1.0, lam), np.where(own, 0.0, lam)])
    ones_zeros = pm.collocation_residuals(
        y, batch._log_vo2, batch.segment_bounds, batch._dt_min, rows.T[..., None])
    de = np.zeros(6)
    for f, tf in zip(ones_zeros, two_f):
        c = f[:6] - f[6:]
        de += np.sum(c * (tf + (up - down)[:, None] * c), axis=-1)
    out.theta[:] = batch.de_weight * (up + down) * de / m
    return out


def make_gradcheck_case(seed: int) -> tuple[MlpParams, TrainBatch]:
    """Deterministic, well-conditioned instance for FD verification.

    An exact reverse mode is point-agnostic, so the check point is chosen
    to keep the comparison numerically meaningful at h=1e-5: weights are
    positive (scaled to avoid Tanh saturation) and targets sit uniformly
    below the predictions, which keeps every weight/bias gradient a sum of
    same-sign terms, bounded away from the FD round-off floor.
    """
    rng = np.random.default_rng(seed)
    p = xavier_init(seed)
    for arr in (p.w1, p.w2, p.w3):
        arr[...] = 0.3 * np.abs(arr) + 0.02
    half = 16
    vo2 = np.concatenate([
        np.linspace(0.4, 1.8, half) + rng.uniform(-0.005, 0.005, half),
        np.linspace(2.0, 3.2, half) + rng.uniform(-0.005, 0.005, half),
    ])
    bounds_idx = ((0, half), (half, 2 * half))
    pred = mlp_forward(p, vo2)
    hr = pred - (12.0 + 4.0 * rng.uniform(size=2 * half))
    batch = TrainBatch(
        vo2=vo2, hr=hr, segment_bounds=bounds_idx, dt_seconds=1.0,
        de_weight=70.0 / 3600.0,  # 70 per (bpm/s)^2; L_DE is in (bpm/min)^2
    )
    return p, batch


#: each array's shape in the network
_SHAPES = {f: list(getattr(_Tree._of(np.empty(_SIZE)), f).shape) for f in ARRAY_FIELDS}
#: a checkpoint's fields, as :func:`checkpoint_bytes` writes them (errors.check_json)
CHECKPOINT_FIELDS = {"schema_version": INTEGER, "seed": INTEGER, "config_hash": STRING,
                     "layer_shapes": {f: ListOf(INTEGER) for f in ARRAY_FIELDS},
                     "arrays": {f: ListOf(NUMBER, int(np.prod(s))) for f, s in _SHAPES.items()},
                     "bounds": {k: ListOf(NUMBER, 2) for k, _ in LambdaBounds().items()}}


def checkpoint_bytes(p: MlpParams, bounds: LambdaBounds, seed: int, config_hash: str) -> bytes:
    """The model as JSON: shapes, row-major arrays, theta, bounds."""
    payload = {
        "schema_version": 1,
        "layer_shapes": _SHAPES,
        "arrays": {f: getattr(p, f).ravel().tolist() for f in ARRAY_FIELDS},
        "bounds": {k: list(v) for k, v in bounds.items()},
        "seed": seed,
        "config_hash": config_hash,
    }
    return json.dumps(payload, sort_keys=True).encode() + b"\n"


def save_checkpoint(path, p: MlpParams, bounds: LambdaBounds, seed: int,
                    config_hash: str) -> None:
    """Write :func:`checkpoint_bytes` to ``path``; kept for the benchmark's checks."""
    try:
        with open(path, "wb") as fh:
            fh.write(checkpoint_bytes(p, bounds, seed, config_hash))
    except OSError as exc:
        raise IoFailure(f"cannot write checkpoint {path}: {exc}") from exc


def load_checkpoint(payload, path) -> tuple[MlpParams, int, str]:
    """The model, seed and config hash of a parsed checkpoint from the file
    ``path``. Fields CHECKPOINT_FIELDS does not allow, a ``schema_version``
    other than 1, a negative ``seed``, ``layer_shapes`` other than the
    network's or ``bounds`` other than the ``LambdaBounds()`` box, which is
    the one box theta maps through, are IoFailure naming the first
    differing key."""
    ckpt = check_json(payload, CHECKPOINT_FIELDS, path)
    got = {**ckpt, **{f"bounds.{k}": v for k, v in ckpt["bounds"].items()}}
    for key, ok, rule in (("schema_version", ckpt["schema_version"] == 1, "1"),
                          ("seed", ckpt["seed"] >= 0, ">= 0"),
                          ("layer_shapes", ckpt["layer_shapes"] == _SHAPES, str(_SHAPES)),
                          *((f"bounds.{k}", got[f"bounds.{k}"] == list(v), str(list(v)))
                            for k, v in LambdaBounds().items())):
        if not ok:
            raise IoFailure(f"{path}: {key} must be {rule}, got {got[key]!r}")
    params = MlpParams(**{f: np.reshape(ckpt["arrays"][f], s) for f, s in _SHAPES.items()})
    return params, ckpt["seed"], ckpt["config_hash"]
