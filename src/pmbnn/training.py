"""Network training loops, their loss records and the standalone PM fitter.

The hybrid model minimizes L_tot = L_data + w * L_DE with RMSprop; the
baseline uses the identical loop with w = 0. The standalone physiological
model is fitted by L-BFGS on the six bounded parameters, minimizing the
mean squared error of the forward-simulated heart-rate trajectory.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import nn_core, physio_model
from .errors import NonFiniteLoss, _require
from .nn_core import MlpParams, TrainBatch
from .physio_model import DEFAULT_INITIAL, LambdaParams
from .signal_pipeline import SubjectRecord


@dataclass(frozen=True)
class LossBreakdown:
    """One epoch's loss components: l_tot = l_data + w * l_de.

    l_data is in bpm^2; l_de is the mean squared collocation residual in
    (bpm/min)^2, the unit of :func:`physio_model.collocation_residuals`. (The
    PM fit minimizes a simulated trajectory's MSE, in bpm^2.)
    """

    l_data: float
    l_de: float
    l_tot: float


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the network training loop: the ``train.*`` config keys."""

    max_epochs: int = 5000
    stop_threshold: float = 10.0
    # 1e5 per (bpm/s)^2 of residual, the weight that keeps the DE term
    # commensurate with the data term; L_DE is in (bpm/min)^2
    de_weight: float = 1e5 / 3600
    lr: float = 0.01
    seed: int = 0

    def __post_init__(self):
        _require(self.max_epochs >= 1, "train.max_epochs", self.max_epochs, ">= 1")
        _require(math.isfinite(self.stop_threshold) and self.stop_threshold > 0,
                 "train.stop_threshold", self.stop_threshold, "finite and > 0")
        _require(math.isfinite(self.de_weight) and self.de_weight >= 0,
                 "train.de_weight", self.de_weight, "finite and >= 0")
        _require(math.isfinite(self.lr) and self.lr > 0, "train.lr", self.lr,
                 "finite and > 0")
        _require(self.seed >= 0, "train.seed", self.seed, ">= 0")


@dataclass
class TrainedModel:
    """Result of one training run."""

    mlp: MlpParams
    lam: LambdaParams
    loss_history: list[LossBreakdown]
    stopped_reason: str   # "threshold" | "epoch-cap" | "divergence"


def train_pmbnn(train: SubjectRecord, cfg: TrainConfig = TrainConfig()) -> TrainedModel:
    """Full-batch RMSprop training of the physiologically constrained net.

    Per epoch: forward pass, L_tot, backprop, parameter update. Stops when
    L_tot < cfg.stop_threshold, at the epoch cap, or on divergence, and
    returns the parameters whose losses the history's last entry records
    (the initial ones if a diverged run left it empty). A non-finite loss,
    or a non-finite gradient caught by RMSprop's check, ends the fit as
    divergence; both are handled in one place. The lambdas start at
    ``DEFAULT_INITIAL`` inside the box ``nn_core.BOX``. The network
    passes run in float32 (:class:`TrainBatch`); the weights, theta, the
    RMSprop accumulators ``v`` and the losses stay float64.
    """
    params = nn_core.xavier_init(cfg.seed)
    v = np.zeros_like(params.flat)
    history: list[LossBreakdown] = []
    reason = "epoch-cap"
    scored = params   # the parameters whose losses history[-1] records
    # NonFiniteLoss reports divergence, a vo2 past float32 too; NumPy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        batch = TrainBatch(vo2=train.vo2.values, hr=train.hr.values,
                           segment_bounds=train.vo2.segment_bounds, dt_seconds=train.vo2.dt,
                           de_weight=cfg.de_weight, dtype=np.float32)
        try:
            for epoch in range(1, cfg.max_epochs + 1):
                l_data, l_de, l_tot, grads = nn_core.loss_and_gradients(params, batch)
                scored = params
                history.append(LossBreakdown(l_data, l_de, l_tot))
                if l_tot < cfg.stop_threshold:
                    reason = "threshold"
                    break
                if epoch < cfg.max_epochs:   # the cap keeps the parameters just scored
                    params = nn_core.rmsprop_step(params, grads, v, cfg.lr)
                    # sigmoid gradients vanish past ~30, so cap theta to keep the
                    # bounded lambdas strictly inside their boxes in float64
                    np.clip(params.theta, -30.0, 30.0, out=params.theta)
        except NonFiniteLoss:   # from the loss or from rmsprop_step's gradient check
            reason = "divergence"
    return TrainedModel(
        mlp=scored,
        lam=nn_core.lambda_from_theta(scored.theta),
        loss_history=history,
        stopped_reason=reason,
    )


def train_fcnn(train: SubjectRecord, cfg: TrainConfig = TrainConfig()) -> TrainedModel:
    """Baseline: the identical loop with the physiological term disabled."""
    return train_pmbnn(train, replace(cfg, de_weight=0.0))


# --- L-BFGS ---------------------------------------------------------------

#: an accepted step that lowers f by at most this fraction of |f| ends the
#: run as converged (the ``factr`` test of L-BFGS-B): later steps only
#: trade round-off
REL_DECREASE_TOL = 1e-12
#: history length, gradient tolerance and Armijo constant of every L-BFGS run
LBFGS_MEMORY = 10
LBFGS_GTOL = 1e-10
ARMIJO_C1 = 1e-4


@dataclass
class LbfgsResult:
    x: np.ndarray
    f: float
    iterations: int
    converged: bool
    line_search_failed: bool


def lbfgs_minimize(objective, x0: np.ndarray, iters: int) -> LbfgsResult:
    """Two-loop-recursion L-BFGS with Armijo backtracking (halving).

    ``objective(x)`` returns ``(f, grad)``; every line-search probe calls
    it. Converges when the largest gradient entry is at most ``LBFGS_GTOL`` or
    an accepted step lowers f by at most ``REL_DECREASE_TOL * |f|``.
    Accepted values never increase, so the last iterate is the best; a
    failed line search returns it with ``line_search_failed`` set.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = objective(x)
    if not np.isfinite(f):
        raise NonFiniteLoss(f"objective not finite at x0: {f}")
    history: deque = deque(maxlen=LBFGS_MEMORY)   # (s, y, 1 / s.y) of recent steps

    for it in range(1, iters + 1):
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= LBFGS_GTOL:
            return LbfgsResult(x, f, it - 1, True, False)

        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(history):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if history:
            s, y, _ = history[-1]
            q *= (s @ y) / (y @ y)
        else:
            q /= max(1.0, gnorm)
        for (s, y, rho), a in zip(history, reversed(alphas)):
            q += (a - rho * (y @ q)) * s
        d = -q
        slope = float(g @ d)
        if slope >= 0:
            d = -g
            slope = float(g @ d)

        # Armijo backtracking with halving
        alpha = 1.0
        for _ in range(60):
            x_new = x + alpha * d
            f_new, g_new = objective(x_new)
            if np.isfinite(f_new) and f_new <= f + ARMIJO_C1 * alpha * slope:
                break
            alpha *= 0.5
        else:
            return LbfgsResult(x, f, it, False, True)

        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            history.append((s, y, 1.0 / sy))
        stalled = f - f_new <= REL_DECREASE_TOL * abs(f)
        x, f, g = x_new, f_new, g_new
        if stalled:
            return LbfgsResult(x, f, it, True, False)
    return LbfgsResult(x, f, iters, False, False)


# --- standalone PM fitting -------------------------------------------------

# The trajectory map has three exact flat directions no data can resolve:
# (i) (l5, g) -> (l5/k, k*g); (ii) (l1, l2) -> k*(l1, l2) with (l3, l4) ->
# (l3, l4)/k, which leaves g unchanged; (iii) scaling 1 - l5*g and l6 by
# one constant. Pinning the theta coordinates of l2, l4 and l5 at the
# initial (prior) values removes all three, which makes the fit
# deterministic and keeps l1, l3, l6 and the coupling products
# identifiable; a tiny proximal term (``PmFitConfig.proximal``)
# regularizes the rest.

#: weight of the gauge penalty on the theta coordinates of l2, l4 and l5
GAUGE_PIN = 1.0
GAUGE_PIN_COORDS = (1, 3, 4)


@dataclass(frozen=True)
class PmFitConfig:
    """Settings for the standalone physiological-model fit: the ``pm.*`` config keys."""

    iters: int = 150
    proximal: float = 1e-3

    def __post_init__(self):
        _require(self.iters >= 1, "pm.iters", self.iters, ">= 1")
        _require(math.isfinite(self.proximal) and self.proximal >= 0,
                 "pm.proximal", self.proximal, "finite and >= 0")


def _pm_objective(rec: SubjectRecord, cfg: PmFitConfig, theta0: np.ndarray):
    """Penalized trajectory MSE over theta and its exact gradient.

    Per segment the simulator steps HR_i * den_i = h0 * den_a + l6 * t_i
    (:func:`physio_model.trajectory`) with den = 1 - l5 * g(vo2), a the
    segment's first sample and t_i in minutes since it, so dHR_i/dl =
    (h0 * dden_a/dl - HR_i * dden_i/dl + t_i * [l = l6]) / den_i. With
    u = err / den the data term's gradient is then sum_i r_i dden_i/dl,
    :func:`physio_model.den_partials` of r (plus sum u t for l6), r = -u HR
    with h0 times the segment's sum of u added at each a. What does not
    depend on theta is computed once per fit. A singular candidate scores +inf.
    """
    hr_meas = rec.hr.values
    n = len(hr_meas)
    rows = physio_model.log_vo2_rows(rec.vo2.values)
    firsts = [a for a, _ in rec.vo2.segment_bounds]
    start, steps = physio_model.segment_offsets(rec.vo2.segment_bounds)
    h0 = hr_meas[start]
    dt_min = rec.vo2.dt / physio_model.SECONDS_PER_MINUTE
    t_min = steps * dt_min
    weight = np.full(6, cfg.proximal)
    weight[list(GAUGE_PIN_COORDS)] += GAUGE_PIN

    def objective(theta: np.ndarray):
        lam, slope = nn_core.box_map(theta, *nn_core.BOX)
        try:
            hr, den = physio_model.trajectory(rows[1], start, steps, h0, dt_min, lam)
        except physio_model.Singularity:
            return math.inf, np.zeros_like(theta)
        err = hr - hr_meas
        u = err / den
        r = -u * hr
        r[firsts] += hr_meas[firsts] * np.add.reduceat(u, firsts)
        dlam = np.append(physio_model.den_partials(lam, rows, r), u @ t_min)
        drift = theta - theta0
        f = float(err @ err) / n + float(weight @ (drift * drift))
        grad = (2.0 / n) * dlam * slope + 2.0 * weight * drift
        return f, grad

    return objective


def fit_pm(train: SubjectRecord, init: LambdaParams = DEFAULT_INITIAL,
           cfg: PmFitConfig = PmFitConfig()) -> tuple[LambdaParams, LbfgsResult]:
    """Fit l1..l6 by L-BFGS over the sigmoid-reparameterized box ``nn_core.BOX``.

    The objective is the trajectory MSE of the forward simulation seeded
    with the first measured HR of each segment, plus the gauge pins and
    the proximal term; its gradient is exact. Singular candidates score
    +inf and are rejected by the line search. Returns the fitted lambdas
    and the optimizer result, whose iterations and convergence flags are
    the fit's diagnostics.
    """
    theta0 = nn_core.theta_from_lambda(init)
    # NonFiniteLoss at x0 and the line search's rejection of a non-finite f
    # report an overflowing objective; NumPy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        result = lbfgs_minimize(_pm_objective(train, cfg, theta0), theta0, cfg.iters)
    return nn_core.lambda_from_theta(result.x), result
