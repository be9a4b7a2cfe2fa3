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
from .errors import (
    BadBounds,
    InvalidStep,
    IoFailure,
    LengthMismatch,
    NonFiniteGradient,
    NonFiniteLoss,
    OutOfBounds,
    malformed_fields,
)
from .physio_model import DEFAULT_INITIAL, LambdaBounds, LambdaParams

HIDDEN = 64
ARRAY_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3", "theta")


def sigmoid(x):
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def bounded_inverse(lam, lo: float, hi: float):
    """Logit of the box coordinate: the theta that the logistic map sends to lam."""
    if not lo < hi:
        raise BadBounds(f"need lo < hi, got ({lo}, {hi})")
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= lo) or np.any(lam >= hi):
        raise OutOfBounds(f"{lam} not strictly inside ({lo}, {hi})")
    p = (lam - lo) / (hi - lo)
    out = np.log(p) - np.log1p(-p)
    return out if out.ndim else float(out)


def lambda_from_theta(theta: np.ndarray, bounds: LambdaBounds) -> LambdaParams:
    lo, hi = bounds.lo_hi_arrays()
    return LambdaParams.from_array(lo + (hi - lo) * sigmoid(theta))


def theta_from_lambda(lam: LambdaParams, bounds: LambdaBounds) -> np.ndarray:
    lo, hi = bounds.lo_hi_arrays()
    return np.array([bounded_inverse(v, l, h)
                     for v, l, h in zip(lam.as_array(), lo, hi)])


def theta_jacobian(theta: np.ndarray, bounds: LambdaBounds) -> np.ndarray:
    """d lambda / d theta for each of the six parameters."""
    lo, hi = bounds.lo_hi_arrays()
    s = sigmoid(theta)
    return (hi - lo) * s * (1.0 - s)


@dataclass
class _Tree:
    """The seven parameter-shaped arrays: weights, biases and theta.

    One layout serves the network parameters, their gradients and the
    RMSprop squared-gradient accumulators.
    """

    w1: np.ndarray   # (64, 1)
    b1: np.ndarray   # (64,)
    w2: np.ndarray   # (64, 64)
    b2: np.ndarray   # (64,)
    w3: np.ndarray   # (1, 64)
    b3: np.ndarray   # (1,)
    theta: np.ndarray  # (6,) unconstrained pre-images of l1..l6

    def arrays(self):
        return [getattr(self, f) for f in ARRAY_FIELDS]

    def to_vector(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays()])

    def copy(self):
        return _Tree(*(a.copy() for a in self.arrays()))

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for a in self.arrays())


#: network weights/biases plus the six unconstrained lambda pre-images
MlpParams = _Tree


def xavier_init(
    seed: int,
    bounds: LambdaBounds = LambdaBounds(),
    init_lambda: LambdaParams = DEFAULT_INITIAL,
) -> MlpParams:
    """Xavier-uniform weights, zero biases, theta from the initial lambdas."""
    rng = np.random.default_rng(seed)

    def layer(n_out, n_in):
        limit = np.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-limit, limit, size=(n_out, n_in))

    return MlpParams(
        w1=layer(HIDDEN, 1),
        b1=np.zeros(HIDDEN),
        w2=layer(HIDDEN, HIDDEN),
        b2=np.zeros(HIDDEN),
        w3=layer(1, HIDDEN),
        b3=np.zeros(1),
        theta=theta_from_lambda(init_lambda, bounds),
    )


def _forward_full(p: MlpParams, x: np.ndarray, a1: np.ndarray, a2: np.ndarray):
    """Hidden activations and output for 1-D input ``x``.

    Writes the two (len(x), HIDDEN) hidden activations into ``a1`` and
    ``a2`` in place and returns them with ``X = x[:, None]`` and the
    freshly allocated output ``y``.
    """
    X = x[:, None]
    np.multiply(X, p.w1[:, 0], out=a1)
    a1 += p.b1
    np.tanh(a1, out=a1)
    np.matmul(a1, p.w2.T, out=a2)
    a2 += p.b2
    np.tanh(a2, out=a2)
    y = (a2 @ p.w3.T)[:, 0] + p.b3[0]
    return X, a1, a2, y


def mlp_forward(p: MlpParams, vo2):
    """Network output for scalar or 1-D vo2 input."""
    arr = np.atleast_1d(np.asarray(vo2, dtype=float))
    y = _forward_full(p, arr, np.empty((len(arr), HIDDEN)),
                      np.empty((len(arr), HIDDEN)))[3]
    return y if np.ndim(vo2) else float(y[0])


@dataclass(frozen=True)
class TrainBatch:
    """Everything a loss evaluation needs besides the parameters.

    Validates vo2 positivity once and caches log(vo2), the sample spacing
    in minutes and the bound arrays so repeated loss evaluations stay cheap.
    The batch also owns the loss kernel's three (n, HIDDEN) scratch
    buffers, which every :func:`loss_only` and :func:`loss_and_gradients`
    call overwrites: one batch must not be evaluated by two calls at the
    same time. :func:`gradient_check`'s grouped probes read the batch but
    run their forward pass in buffers of their own.
    """

    vo2: np.ndarray
    hr: np.ndarray
    segment_bounds: tuple[tuple[int, int], ...]
    dt_seconds: float
    bounds: LambdaBounds
    de_weight: float

    def __post_init__(self):
        if len(self.vo2) != len(self.hr):
            raise LengthMismatch("vo2 and hr must be aligned")
        pm._check_positive_vo2(self.vo2)
        lo, hi = self.bounds.lo_hi_arrays()
        object.__setattr__(self, "_log_vo2", np.log(self.vo2))
        object.__setattr__(self, "_dt_min", self.dt_seconds / pm.SECONDS_PER_MINUTE)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)
        object.__setattr__(self, "_work", tuple(
            np.empty((len(self.vo2), HIDDEN)) for _ in range(3)))


def _forward_loss(p: MlpParams, batch: TrainBatch):
    """Forward pass, L_data and L_DE, plus what the backward pass reuses.

    The hidden activations live in the batch's first two scratch buffers.
    """
    X, a1, a2, y = _forward_full(p, batch.vo2, *batch._work[:2])
    resid = y - batch.hr
    l_data = float(resid @ resid) / len(y)
    lam = batch._lo + (batch._hi - batch._lo) * sigmoid(p.theta)
    res = pm.collocation_residuals(
        y, batch._log_vo2, batch.segment_bounds, batch._dt_min, lam
    )
    m = sum(len(f) for f in res)
    l_de = sum(float(f @ f) for f in res) / m
    return (X, a1, a2, y), resid, lam, res, m, l_data, l_de


def loss_and_gradients(p: MlpParams, batch: TrainBatch):
    """Evaluate L_data, L_DE, L_tot and exact reverse-mode gradients.

    L_data is in bpm^2 and L_DE, the mean squared collocation residual,
    in (bpm/min)^2. Lambda gradients flow through the logistic bound map;
    prediction-series time derivatives inside L_DE are handled as a linear
    (segment-aware) operator on the batch outputs. The backward pass runs
    in the batch's scratch buffers; every returned array is fresh.
    """
    (X, a1, a2, y), resid, lam, res, m, l_data, l_de = _forward_loss(p, batch)
    w = batch.de_weight
    l_tot = l_data + w * l_de
    if not np.isfinite(l_tot):
        raise NonFiniteLoss(f"L_tot = {l_tot}")

    # d L_tot / d prediction
    dy = (2.0 / len(y)) * resid
    dt = batch._dt_min
    l1, l2, l3, l4, l5, _ = lam
    dlam = np.zeros(6)
    for (a, b), f in zip(batch.segment_bounds, res):
        lv = batch._log_vo2[a:b]
        h = y[a:b]
        sv = l1 * lv + l2
        tpr = l3 * lv + l4
        g = sv * tpr
        fp = np.zeros(b - a)
        fp[1:-1] = f
        # adjoint of the central-difference stencil, edges contribute zero
        shift_back = np.concatenate(([0.0], fp[:-1]))
        shift_fwd = np.concatenate((fp[1:], [0.0]))
        dy[a:b] += w * (1.0 - l5 * g) * (shift_back - shift_fwd) / (m * dt)

        pdot = (h[2:] * g[2:] - h[:-2] * g[:-2]) / (2 * dt)
        dlam[5] += -2.0 / m * float(np.sum(f))
        dlam[4] += -2.0 / m * float(f @ pdot)
        for k, gpart in enumerate((lv * tpr, tpr, sv * lv, sv)):
            c = h * gpart
            cdot = (c[2:] - c[:-2]) / (2 * dt)
            dlam[k] += -l5 * 2.0 / m * float(f @ cdot)

    # backprop through the MLP; a1 and a2 become 1 - a^2 once their
    # weight gradients are taken, and a2's buffer then holds dz1
    dyc = dy[:, None]
    dw3 = dyc.T @ a2
    db3 = np.array([dy.sum()])
    dz2 = np.multiply(dyc, p.w3[0], out=batch._work[2])
    np.multiply(a2, a2, out=a2)
    np.subtract(1.0, a2, out=a2)
    dz2 *= a2
    dw2 = dz2.T @ a1
    db2 = dz2.sum(axis=0)
    dz1 = np.matmul(dz2, p.w2, out=a2)
    np.multiply(a1, a1, out=a1)
    np.subtract(1.0, a1, out=a1)
    dz1 *= a1
    dw1 = dz1.T @ X
    db1 = dz1.sum(axis=0)

    dtheta = w * dlam * theta_jacobian(p.theta, batch.bounds)
    grads = _Tree(dw1, db1, dw2, db2, dw3, db3, dtheta)
    return l_data, l_de, l_tot, grads


def loss_only(p: MlpParams, batch: TrainBatch) -> float:
    """L_tot without gradients: the plain forward loss, one probe at a time."""
    *_, l_data, l_de = _forward_loss(p, batch)
    return l_data + batch.de_weight * l_de


@dataclass
class RmspropState:
    """Squared-gradient accumulators plus the optimizer hyperparameters."""

    v: _Tree
    rho: float = 0.99
    eps: float = 1e-8
    lr: float = 0.01

    @classmethod
    def init(cls, p: MlpParams, rho: float = 0.99, eps: float = 1e-8,
             lr: float = 0.01) -> "RmspropState":
        return cls(_Tree(*(np.zeros_like(a) for a in p.arrays())), rho, eps, lr)


def rmsprop_step(
    p: MlpParams, g: MlpParams, st: RmspropState
) -> tuple[MlpParams, RmspropState]:
    """v <- rho*v + (1-rho)*g^2; p <- p - lr * g / (sqrt(v) + eps)."""
    if not g.is_finite():
        raise NonFiniteGradient("gradient contains NaN or inf")
    new_p, new_v = [], []
    for pv, gv, v in zip(p.arrays(), g.arrays(), st.v.arrays()):
        v = st.rho * v + (1.0 - st.rho) * gv * gv
        new_v.append(v)
        new_p.append(pv - st.lr * gv / (np.sqrt(v) + st.eps))
    return _Tree(*new_p), replace(st, v=_Tree(*new_v))


def gradient_check(p: MlpParams, batch: TrainBatch, h: float = 1e-5) -> float:
    """Max relative disagreement between reverse mode and central FD.

    Central differences (L(p + h e_k) - L(p - h e_k)) / 2h serve as a
    forward-only oracle that shares no code with the backward pass
    (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 1).
    Each weight or bias probe changes one hidden unit, so the probes are
    grouped by unit and a group's perturbed predictions y + delta come
    from one small stacked forward pass (:func:`_loss_differences`). At
    fixed lambdas L_data is quadratic in y and the collocation residual
    affine, F(y + delta) = F(y) + A delta, so each numerator is taken
    exactly as sum (d+ - d-) (2 r + d+ + d-) over the data residuals r
    and the same form over F and A delta, instead of by subtracting two
    nearly equal losses. A theta probe moves one lambda and leaves y, and
    the residual is affine in each lambda, so its numerator takes the same
    product form over F with the exact logistic difference of lambda.

    Relative error per parameter: |g_ad - g_fd| / max(1e-12, |g_ad| + |g_fd|).
    """
    if h <= 0:
        raise InvalidStep(f"step must be positive, got {h}")
    analytic = loss_and_gradients(p, batch)[3].to_vector()
    fd = _loss_differences(p, batch, h).to_vector() / (2.0 * h)
    denom = np.maximum(1e-12, np.abs(analytic) + np.abs(fd))
    return float(np.max(np.abs(analytic - fd) / denom))


def _loss_differences(p: MlpParams, batch: TrainBatch, h: float) -> _Tree:
    """L_tot(p + h e_k) - L_tot(p - h e_k) for every parameter k."""
    x, n = batch.vo2, len(batch.vo2)
    _, a1, a2, y = _forward_full(p, x, np.empty((n, HIDDEN)), np.empty((n, HIDDEN)))
    z1 = x[:, None] * p.w1[:, 0] + p.b1
    z2 = a1 @ p.w2.T + p.b2
    w3 = p.w3[0]
    lam = batch._lo + (batch._hi - batch._lo) * sigmoid(p.theta)
    two_r = 2.0 * (y - batch.hr)
    two_f = [2.0 * f for f in pm.collocation_residuals(
        y, batch._log_vo2, batch.segment_bounds, batch._dt_min, lam)]
    m = sum(len(f) for f in two_f)
    lam_a = np.append(lam[:5], 0.0)  # l6 = 0 leaves the linear part A

    def apply_a(v):
        return pm.collocation_residuals(
            v, batch._log_vo2, batch.segment_bounds, batch._dt_min, lam_a)

    def diff(plus, minus):
        # L(y + plus) - L(y + minus) for stacked prediction changes (..., n)
        d, s = plus - minus, plus + minus
        de = sum(np.sum(u * (f + v), axis=-1)
                 for u, v, f in zip(apply_a(d), apply_a(s), two_f))
        return np.sum(d * (two_r + s), axis=-1) / n + batch.de_weight * de / m

    out = _Tree(*(np.empty_like(a) for a in p.arrays()))
    # w1[j], b1[j]: unit j of layer 1 moves and layer 2 is recomputed,
    # (2 signs, 2 probes, n, HIDDEN)
    step = h * np.stack([x, np.ones(n)])
    step = np.stack([step, -step])
    for j in range(HIDDEN):
        da1 = np.tanh(z1[:, j] + step) - a1[:, j]
        delta = (np.tanh(z2 + da1[..., None] * p.w2[:, j]) - a2) @ w3
        out.w1[j, 0], out.b1[j] = diff(*delta)
    # w2[i, :], b2[i]: unit i of layer 2 moves, (2 signs, HIDDEN + 1, n)
    step = h * np.vstack([a1.T, np.ones(n)])
    step = np.stack([step, -step])
    for i in range(HIDDEN):
        num = diff(*(w3[i] * (np.tanh(z2[:, i] + step) - a2[:, i])))
        out.w2[i], out.b2[i] = num[:-1], num[-1]
    # w3, b3: the output moves by the probe times the unit's activation
    step = h * np.vstack([a2.T, np.ones(n)])
    num = diff(step, -step)
    out.w3[0], out.b3[0] = num[:-1], num[-1]
    # theta[k] moves lambda k alone and leaves y, so only L_DE changes. F
    # is affine in each lambda, F(l) = F + (l - lam_k) c_k with c_k the
    # change of F from lambda k at 0 to lambda k at 1, so F+^2 - F-^2 is
    # (l+ - l-) c (2F + (l+ + l- - 2 lam_k) c). The lambda steps up = l+ - lam
    # and down = lam - l- come from s(a) - s(b) = -s(a) s(-b) expm1(b - a).
    width = batch._hi - batch._lo
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
    for name in ("w1", "w2", "w3"):
        arr = getattr(p, name)
        setattr(p, name, 0.3 * np.abs(arr) + 0.02)
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
        bounds=LambdaBounds(),
        de_weight=70.0 / 3600.0,  # 70 per (bpm/s)^2; L_DE is in (bpm/min)^2
    )
    return p, batch


def run_gradcheck(seed: int, h: float = 1e-5) -> float:
    """Gradient check on the conditioned per-seed instance."""
    p, batch = make_gradcheck_case(seed)
    return gradient_check(p, batch, h)


def save_checkpoint(path, p: MlpParams, bounds: LambdaBounds, seed: int,
                    config_hash: str) -> None:
    """Write the model to JSON: shapes, row-major arrays, theta, bounds."""
    payload = {
        "schema_version": 1,
        "layer_shapes": {f: list(getattr(p, f).shape) for f in ARRAY_FIELDS},
        "arrays": {f: getattr(p, f).ravel().tolist() for f in ARRAY_FIELDS},
        "bounds": {k: list(v) for k, v in bounds.items()},
        "seed": seed,
        "config_hash": config_hash,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> tuple[MlpParams, LambdaBounds, int, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise IoFailure(f"cannot read checkpoint {path}: {exc}") from exc
    with malformed_fields(path):
        arrays = {name: np.array(payload["arrays"][name], dtype=float)
                  .reshape(payload["layer_shapes"][name]) for name in ARRAY_FIELDS}
        bounds = LambdaBounds(**{k: tuple(v) for k, v in payload["bounds"].items()})
        return MlpParams(**arrays), bounds, payload["seed"], payload["config_hash"]
