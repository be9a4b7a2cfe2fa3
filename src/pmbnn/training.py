"""Loss definitions, network training loops and the standalone PM fitter.

The hybrid model minimizes L_tot = L_data + w * L_DE with RMSprop; the
baseline uses the identical loop with w = 0. The standalone physiological
model is fitted by L-BFGS on the six bounded parameters, minimizing the
mean squared error of the forward-simulated heart-rate trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn_core, physio_model
from .errors import (
    EmptySeries,
    LengthMismatch,
    NonFiniteGradient,
    NonFiniteLoss,
)
from .nn_core import MlpParams, RmspropState, TrainBatch
from .physio_model import DEFAULT_INITIAL, LambdaBounds, LambdaParams
from .signal_pipeline import SubjectRecord, UniformSeries


@dataclass(frozen=True)
class LossBreakdown:
    """One epoch's loss components: l_tot = l_data + w * l_de.

    l_data is in bpm^2; l_de is the mean squared collocation residual in
    (bpm/min)^2, the unit of :func:`loss_de` and of the PM fit.
    """

    l_data: float
    l_de: float
    l_tot: float
    epoch: int


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the network training loop."""

    max_epochs: int = 5000
    stop_threshold: float = 10.0
    # 1e5 per (bpm/s)^2 of residual, the weight that keeps the DE term
    # commensurate with the data term; L_DE is in (bpm/min)^2
    de_weight: float = 1e5 / 3600
    learning_rate: float = 0.01
    seed: int = 0
    rmsprop_rho: float = 0.99
    rmsprop_eps: float = 1e-8
    bounds: LambdaBounds = field(default_factory=LambdaBounds)
    init_lambda: LambdaParams = DEFAULT_INITIAL

    def __post_init__(self):
        if self.max_epochs < 1:
            raise LengthMismatch("max_epochs must be >= 1")
        if self.de_weight < 0 or self.stop_threshold <= 0:
            raise LengthMismatch("need de_weight >= 0 and stop_threshold > 0")


@dataclass
class TrainedModel:
    """Result of one training run."""

    mlp: MlpParams
    lam: LambdaParams
    loss_history: list[LossBreakdown]
    stopped_reason: str   # "threshold" | "epoch-cap" | "divergence"


def loss_data(hr_pred, hr_data) -> float:
    """Mean squared error between predicted and measured HR (bpm^2)."""
    pred = np.asarray(hr_pred, dtype=float)
    data = np.asarray(hr_data, dtype=float)
    if len(pred) != len(data):
        raise LengthMismatch(f"{len(pred)} predictions vs {len(data)} samples")
    if len(pred) == 0:
        raise EmptySeries("loss_data needs at least one sample")
    d = pred - data
    return float(d @ d) / len(d)


def loss_de(hr_pred: UniformSeries, vo2: UniformSeries, lam: LambdaParams) -> float:
    """Mean squared collocation residual over interior samples ((bpm/min)^2)."""
    res = physio_model.de_residual_series(hr_pred, vo2, lam)
    return float(res @ res) / len(res)


def _batch_from_record(rec: SubjectRecord, cfg: TrainConfig, w: float) -> TrainBatch:
    return TrainBatch(
        vo2=rec.vo2.values,
        hr=rec.hr.values,
        segment_bounds=rec.vo2.segment_bounds,
        dt_seconds=rec.vo2.dt,
        bounds=cfg.bounds,
        de_weight=w,
    )


def train_pmbnn(train: SubjectRecord, cfg: TrainConfig = TrainConfig()) -> TrainedModel:
    """Full-batch RMSprop training of the physiologically constrained net.

    Per epoch: forward pass, L_tot, backprop, parameter update. Stops when
    L_tot < cfg.stop_threshold, at the epoch cap, or on divergence (the
    last finite parameters are then returned).
    """
    batch = _batch_from_record(train, cfg, cfg.de_weight)
    params = nn_core.xavier_init(cfg.seed, cfg.bounds, cfg.init_lambda)
    state = RmspropState.init(
        params, rho=cfg.rmsprop_rho, eps=cfg.rmsprop_eps, lr=cfg.learning_rate
    )
    history: list[LossBreakdown] = []
    reason = "epoch-cap"
    for epoch in range(1, cfg.max_epochs + 1):
        try:
            l_data, l_de, l_tot, grads = nn_core.loss_and_gradients(params, batch)
        except (NonFiniteLoss, NonFiniteGradient):
            reason = "divergence"
            break
        history.append(LossBreakdown(l_data, l_de, l_tot, epoch))
        if l_tot < cfg.stop_threshold:
            reason = "threshold"
            break
        try:
            params, state = nn_core.rmsprop_step(params, grads, state)
        except NonFiniteGradient:
            reason = "divergence"
            break
        # sigmoid gradients vanish past ~30, so cap theta to keep the
        # bounded lambdas strictly inside their boxes in float64
        np.clip(params.theta, -30.0, 30.0, out=params.theta)
    return TrainedModel(
        mlp=params,
        lam=nn_core.lambda_from_theta(params.theta, cfg.bounds),
        loss_history=history,
        stopped_reason=reason,
    )


def train_fcnn(train: SubjectRecord, cfg: TrainConfig = TrainConfig()) -> TrainedModel:
    """Baseline: the identical loop with the physiological term disabled."""
    return train_pmbnn(train, replace(cfg, de_weight=0.0))


# --- L-BFGS ---------------------------------------------------------------

@dataclass
class LbfgsResult:
    x: np.ndarray
    f: float
    iterations: int
    converged: bool
    line_search_failed: bool


def lbfgs_minimize(
    objective,
    x0: np.ndarray,
    iters: int = 200,
    m: int = 10,
    gtol: float = 1e-10,
    c1: float = 1e-4,
    value_only=None,
) -> LbfgsResult:
    """Two-loop-recursion L-BFGS with Armijo backtracking (halving).

    ``objective(x)`` returns ``(f, grad)``. Keeps the best iterate seen;
    a failed line search returns it with ``line_search_failed`` set.
    When gradients are expensive (finite differences), pass ``value_only``
    so line-search probes skip the gradient.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = objective(x)
    if not np.isfinite(f):
        raise NonFiniteLoss(f"objective not finite at x0: {f}")
    best_x, best_f = x.copy(), f
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []

    for it in range(1, iters + 1):
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= gtol:
            return LbfgsResult(best_x, best_f, it - 1, True, False)

        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if s_hist:
            gamma = (s_hist[-1] @ y_hist[-1]) / (y_hist[-1] @ y_hist[-1])
            q *= gamma
        else:
            q /= max(1.0, gnorm)
        for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = rho * (y @ q)
            q += (a - b) * s
        d = -q
        slope = float(g @ d)
        if slope >= 0:
            d = -g
            slope = float(g @ d)

        # Armijo backtracking with halving
        alpha = 1.0
        accepted = False
        for _ in range(60):
            x_new = x + alpha * d
            if value_only is not None:
                f_new = value_only(x_new)
            else:
                f_new, g_new = objective(x_new)
            if np.isfinite(f_new) and f_new <= f + c1 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            return LbfgsResult(best_x, best_f, it, False, True)
        if value_only is not None:
            f_new, g_new = objective(x_new)

        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            s_hist.append(s)
            y_hist.append(yv)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > m:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        x, f, g = x_new, f_new, g_new
        if f < best_f:
            best_x, best_f = x.copy(), f
    return LbfgsResult(best_x, best_f, iters, False, False)


# --- standalone PM fitting -------------------------------------------------

#: PM fit objectives: MSE of the simulated trajectory, or of the
#: collocation residual along the measured HR
PM_OBJECTIVES = ("trajectory", "collocation")


@dataclass(frozen=True)
class PmFitConfig:
    """Settings for the standalone physiological-model fit."""

    iters: int = 150
    memory: int = 10
    fd_step: float = 1e-6
    objective: str = "trajectory"   # one of PM_OBJECTIVES
    # The trajectory map has three exact flat directions no data can
    # resolve: (i) l5 only ever multiplies g(vo2), so (l5, g) -> (l5/k,
    # k*g) changes nothing; (ii) scaling (l1, l2) by k and (l3, l4) by
    # 1/k leaves g itself unchanged; (iii) scaling 1 - l5*g by a constant
    # while scaling l6 with it reproduces every trajectory. Pinning the
    # theta coordinates of l2, l4 and l5 at the initial (prior) values
    # removes all three, which makes the fit deterministic and keeps the
    # remaining parameters (l1, l3, l6 and the coupling products)
    # identifiable. A tiny proximal term regularizes the rest.
    gauge_pin: float = 1.0
    proximal: float = 1e-3


#: theta coordinates pinned by the gauge penalty (l2, l4, l5)
GAUGE_PIN_COORDS = (1, 3, 4)


def first_hr_per_segment(rec: SubjectRecord) -> list[float]:
    return [float(rec.hr.values[a]) for a, _ in rec.hr.segment_bounds]


def simulate_record_hr(rec: SubjectRecord, lam: LambdaParams) -> UniformSeries:
    """Simulate HR over a record's vo2, seeded by measured segment starts."""
    return physio_model.simulate_hr(rec.vo2, lam, first_hr_per_segment(rec))


def _pm_objective(rec: SubjectRecord, bounds: LambdaBounds, cfg: PmFitConfig,
                  theta0: np.ndarray):
    hr_meas = rec.hr.values

    def value(theta: np.ndarray) -> float:
        lam = nn_core.lambda_from_theta(theta, bounds)
        try:
            if cfg.objective == "trajectory":
                pred = simulate_record_hr(rec, lam).values
                err = pred - hr_meas
                data_term = float(err @ err) / len(err)
            else:
                res = physio_model.de_residual_series(rec.hr, rec.vo2, lam)
                data_term = float(res @ res) / len(res)
        except physio_model.Singularity:
            return math.inf
        drift = theta - theta0
        pins = sum(drift[i] * drift[i] for i in GAUGE_PIN_COORDS)
        return data_term + cfg.gauge_pin * pins + cfg.proximal * float(drift @ drift)

    def value_and_grad(theta: np.ndarray):
        f0 = value(theta)
        grad = np.zeros_like(theta)
        for i in range(len(theta)):
            step = np.zeros_like(theta)
            step[i] = cfg.fd_step
            fp = value(theta + step)
            fm = value(theta - step)
            if math.isinf(fp) and math.isinf(fm):
                grad[i] = 0.0
            elif math.isinf(fp):
                grad[i] = (f0 - fm) / cfg.fd_step
            elif math.isinf(fm):
                grad[i] = (fp - f0) / cfg.fd_step
            else:
                grad[i] = (fp - fm) / (2.0 * cfg.fd_step)
        return f0, grad

    return value_and_grad, value


def fit_pm(
    train: SubjectRecord,
    bounds: LambdaBounds = LambdaBounds(),
    init: LambdaParams = DEFAULT_INITIAL,
    cfg: PmFitConfig = PmFitConfig(),
) -> LambdaParams:
    """Fit l1..l6 by L-BFGS over the sigmoid-reparameterized box.

    The objective is the trajectory MSE of the forward simulation seeded
    with the first measured HR of each segment; gradients come from
    central finite differences on the six theta coordinates. Singular
    candidates score +inf and are rejected by the line search.
    """
    theta0 = nn_core.theta_from_lambda(init, bounds)
    objective, value_only = _pm_objective(train, bounds, cfg, theta0)
    result = lbfgs_minimize(
        objective, theta0, iters=cfg.iters, m=cfg.memory, value_only=value_only
    )
    return nn_core.lambda_from_theta(result.x, bounds)
