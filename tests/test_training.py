import math

import numpy as np
import pytest

from oracle_utils import ORACLE_INIT, coupling_products, oracle_subject

from pmbnn import nn_core, physio_model
from pmbnn.errors import EmptySeries, LengthMismatch, NonFiniteLoss, OutOfBounds, Singularity
from pmbnn.experiment import reconstruct_pmbnn_r, split_by_activity
from pmbnn.nn_core import (
    MlpParams,
    TrainBatch,
    lambda_from_theta,
    loss_and_gradients,
    loss_only,
    mlp_forward,
    theta_from_lambda,
    xavier_init,
)
from pmbnn.physio_model import (
    DEFAULT_INITIAL,
    EPS_DEN,
    LambdaBounds,
    LambdaParams,
    collocation_residuals,
    simulate_hr,
)
from pmbnn.signal_pipeline import SubjectRecord, UniformSeries, preprocess_subject
from pmbnn.stats_eval import r_squared, rmse
from pmbnn.training import (
    GAUGE_PIN,
    GAUGE_PIN_COORDS,
    LbfgsResult,
    PmFitConfig,
    TrainConfig,
    _pm_objective,
    fit_pm,
    lbfgs_minimize,
    loss_data,
    train_fcnn,
    train_pmbnn,
)


def series(values, bounds=None, unit=""):
    values = np.asarray(values, dtype=float)
    if bounds is None:
        bounds = ((0, len(values)),)
    return UniformSeries(0.0, 1.0, values, bounds, unit)


class TestLossData:
    def test_zero_when_equal(self):
        assert loss_data([70.0, 80.0], [70.0, 80.0]) == 0.0

    def test_constant_offset(self):
        x = np.linspace(60, 90, 11)
        assert loss_data(x + 2.5, x) == pytest.approx(6.25, rel=1e-14)

    def test_hand_arithmetic(self):
        assert loss_data([61.0, 68.0], [60.0, 70.0]) == pytest.approx(2.5, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            loss_data([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(EmptySeries):
            loss_data([], [])


def flat_net_batch(hr_target, l6, w):
    """A net that outputs 70 bpm everywhere, on constant vo2 = 1 L/min.

    The prediction is flat, so the collocation residual is -l6 at every
    interior sample and L_DE = l6^2 exactly.
    """
    lam = LambdaParams(*DEFAULT_INITIAL.as_array()[:5], l6)
    p = MlpParams(
        w1=np.zeros((64, 1)), b1=np.zeros(64), w2=np.zeros((64, 64)),
        b2=np.zeros(64), w3=np.zeros((1, 64)), b3=np.array([70.0]),
        theta=theta_from_lambda(lam, LambdaBounds()),
    )
    batch = TrainBatch(vo2=np.ones(20), hr=np.full(20, hr_target),
                       segment_bounds=((0, 20),), dt_seconds=1.0, de_weight=w)
    return p, batch


class TestLossTotal:
    """L_tot = L_data + w * L_DE as the training loss computes it."""

    def test_weighted_sum(self):
        p, batch = flat_net_batch(72.0, 0.3, 3.0 / 0.09)
        l_data, l_de, l_tot, _ = loss_and_gradients(p, batch)
        assert l_data == 4.0
        assert l_de == pytest.approx(0.09, rel=1e-12)
        assert l_tot == pytest.approx(7.0, rel=1e-12)
        assert loss_only(p, batch) == l_tot

    def test_zero_weight(self):
        p, batch = flat_net_batch(72.0, 0.3, 0.0)
        assert loss_and_gradients(p, batch)[2] == loss_only(p, batch) == 4.0

    def test_zero_losses(self):
        p, batch = flat_net_batch(70.0, 0.0, 1e5 / 3600)
        assert loss_and_gradients(p, batch)[2] == loss_only(p, batch) == 0.0


@pytest.fixture(scope="module")
def noiseless_split():
    _, _, rec = oracle_subject(0)
    return split_by_activity(rec)


@pytest.fixture(scope="module")
def noisy_split():
    _, _, rec = oracle_subject(0, noise_sigma_hr=3.0)
    from pmbnn.signal_pipeline import preprocess_subject

    return split_by_activity(preprocess_subject(rec))


class TestTrainPmbnn:
    def test_noiseless_subject_converges(self, noiseless_split):
        model = train_pmbnn(noiseless_split.train, TrainConfig(seed=1))
        assert model.loss_history[-1].l_data <= 25.0

    def test_single_epoch_run(self, noiseless_split):
        model = train_pmbnn(noiseless_split.train, TrainConfig(max_epochs=1, seed=1))
        assert len(model.loss_history) == 1
        assert model.stopped_reason == "epoch-cap"

    def test_lambda_strictly_inside_box(self, noisy_split):
        model = train_pmbnn(noisy_split.train, TrainConfig(seed=2, max_epochs=400))
        lo, hi = LambdaBounds().lo_hi_arrays()
        arr = model.lam.as_array()
        assert np.all(arr > lo) and np.all(arr < hi)

    def test_threshold_stop_reason_consistent(self, noisy_split):
        model = train_pmbnn(noisy_split.train, TrainConfig(seed=3))
        if model.stopped_reason == "threshold":
            assert model.loss_history[-1].l_tot < 10.0
        assert len(model.loss_history) <= 5000

    def test_divergence_guard(self, noisy_split):
        cfg = TrainConfig(seed=4, lr=1e160, max_epochs=50)
        model = train_pmbnn(noisy_split.train, cfg)
        assert model.stopped_reason == "divergence"
        assert np.all(np.isfinite(model.mlp.flat))

    def test_deterministic(self, noisy_split):
        cfg = TrainConfig(seed=7, max_epochs=40)
        a = train_pmbnn(noisy_split.train, cfg)
        b = train_pmbnn(noisy_split.train, cfg)
        np.testing.assert_array_equal(a.mlp.flat, b.mlp.flat)
        assert [l.l_tot for l in a.loss_history] == [l.l_tot for l in b.loss_history]


class TestTrainFcnn:
    def test_loss_decreasing_on_representable_data(self):
        # targets generated by another net of the same architecture
        teacher = xavier_init(100)
        teacher.b3 = np.array([2.0])
        vo2 = np.linspace(0.4, 3.0, 200)
        hr = mlp_forward(teacher, vo2)
        rec = SubjectRecord(
            "cap", series(vo2, unit="L/min"), series(hr, unit="bpm"),
            ("x",) * 200,
        )
        cfg = TrainConfig(seed=5, max_epochs=300, stop_threshold=1e-12)
        model = train_fcnn(rec, cfg)
        hist = [l.l_data for l in model.loss_history]
        assert hist[-1] < 0.05 * hist[0]

    def test_de_weight_forced_zero(self, noisy_split):
        cfg = TrainConfig(seed=6, max_epochs=5, de_weight=1e5)
        model = train_fcnn(noisy_split.train, cfg)
        for entry in model.loss_history:
            assert entry.l_tot == entry.l_data

    def test_same_seed_same_initial_forward(self, noisy_split):
        cfg = TrainConfig(seed=8, max_epochs=1)
        a = train_pmbnn(noisy_split.train, cfg)
        b = train_fcnn(noisy_split.train, cfg)
        assert a.loss_history[0].l_data == b.loss_history[0].l_data

    def test_zero_weight_pmbnn_identical_to_fcnn(self, noisy_split):
        cfg = TrainConfig(seed=9, max_epochs=100, de_weight=0.0)
        a = train_pmbnn(noisy_split.train, cfg)
        b = train_fcnn(noisy_split.train, cfg)
        assert np.max(np.abs(a.mlp.flat - b.mlp.flat)) <= 1e-12


class TestLbfgs:
    def test_convex_quadratic(self):
        D = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        a = np.array([0.3, -1.2, 2.0, 0.7, -0.5, 1.1])

        def quad(x):
            d = x - a
            return float(d @ D @ d), 2.0 * D @ d

        res = lbfgs_minimize(quad, np.zeros(6), iters=50)
        assert np.linalg.norm(res.x - a) <= 1e-8

    def test_rosenbrock_embedded(self):
        def rosen(x):
            f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2 + float(
                np.sum(x[2:] ** 2)
            )
            g = np.zeros(6)
            g[0] = -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1 - x[0])
            g[1] = 200.0 * (x[1] - x[0] ** 2)
            g[2:] = 2.0 * x[2:]
            return f, g

        x0 = np.array([-1.2, 1.0, 0.5, -0.5, 0.3, 0.8])
        res = lbfgs_minimize(rosen, x0, iters=500)
        assert res.f <= 1e-10
        np.testing.assert_allclose(res.x[:2], [1.0, 1.0], atol=1e-5)

    def test_zero_gradient_returns_x0(self):
        def flat(x):
            return 1.0, np.zeros_like(x)

        x0 = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        res = lbfgs_minimize(flat, x0)
        np.testing.assert_array_equal(res.x, x0)
        assert res.converged

    def test_accepted_objective_values_non_increasing(self):
        def quad(x):
            return float(x @ x), 2.0 * x

        log = []

        def wrapped(x):
            f, g = quad(x)
            log.append(f)
            return f, g

        res = lbfgs_minimize(wrapped, np.full(6, 3.0), iters=40)
        assert isinstance(res, LbfgsResult)
        # Armijo guarantees sufficient decrease at every accepted iterate,
        # and the best value seen is what comes back
        assert res.f == min(log)

    def test_relative_decrease_stop_on_positive_minimum(self):
        # least squares whose residual keeps a 1e6 offset no column can
        # fit: round-off holds the gradient far above gtol at the minimum,
        # so only the relative-decrease rule can end the run
        rng = np.random.default_rng(0)
        A = 100.0 * rng.normal(size=(500, 3))
        y = 1e6 + A @ np.array([1.0, 2.0, 3.0]) + 5.0 * rng.normal(size=500)

        def lsq(x):
            e = A @ x - y
            return float(e @ e) / len(e), (2.0 / len(e)) * (A.T @ e)

        res = lbfgs_minimize(lsq, np.zeros(3), iters=100)
        assert res.converged and res.iterations < 100
        assert np.max(np.abs(lsq(res.x)[1])) > 1e-10
        f_star = lsq(np.linalg.lstsq(A, y, rcond=None)[0])[0]
        assert res.f <= f_star * (1.0 + 1e-12)


class TestFitPm:
    def test_noiseless_trajectory_recovery(self):
        lam_true, _, rec = oracle_subject(1)
        split = split_by_activity(rec)
        lam_fit, _ = fit_pm(split.train, init=ORACLE_INIT)
        pred = reconstruct_pmbnn_r(split.test, lam_fit).values
        assert r_squared(split.test.hr.values, pred) >= 0.999
        assert rmse(split.test.hr.values, pred) <= 0.5

    def test_products_recovered_under_gauge_pins(self):
        lam_true, _, rec = oracle_subject(2)
        split = split_by_activity(rec)
        lam_fit, _ = fit_pm(split.train, init=ORACLE_INIT)
        ratio = coupling_products(lam_fit) / coupling_products(lam_true)
        assert np.max(np.abs(ratio - 1.0)) <= 0.05

    def test_init_kept_when_already_minimizing(self):
        # data generated by the init lambdas exactly
        lam = ORACLE_INIT
        v = series(2.0 + np.linspace(0, 1, 400), unit="L/min")
        hr = simulate_hr(v, lam, [75.0])
        rec = SubjectRecord("fix", v, hr, ("x",) * 400)
        lam_fit, _ = fit_pm(rec, init=lam)
        np.testing.assert_allclose(lam_fit.as_array(), lam.as_array(), atol=1e-5)

    def test_result_within_bounds(self):
        _, _, rec = oracle_subject(3, noise_sigma_hr=3.0)
        split = split_by_activity(rec)
        lam_fit, _ = fit_pm(split.train, init=ORACLE_INIT)
        assert LambdaBounds().contains(lam_fit, strict=False)

    @pytest.mark.parametrize("noise", [0.0, 3.0])
    def test_exact_gradient_matches_central_differences(self, noise):
        rng = np.random.default_rng(11)
        theta0 = theta_from_lambda(ORACLE_INIT, LambdaBounds())
        for i in range(3):
            _, _, rec = oracle_subject(i, noise_sigma_hr=noise)
            train = split_by_activity(preprocess_subject(rec) if noise else rec).train
            assert len(train.vo2.segment_bounds) == 3
            objective = _pm_objective(train, PmFitConfig(), theta0)
            for scale in (0.1, 0.3, 0.6):
                theta = theta0 + rng.normal(scale=scale, size=6)
                _, grad = objective(theta)
                h = 1e-6
                fd = np.array([
                    (objective(theta + h * e)[0] - objective(theta - h * e)[0]) / (2 * h)
                    for e in np.eye(6)
                ])
                assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


class TestPmObjective:
    """The PM fit's objective: per-fit constants, one pass per call."""

    @staticmethod
    def objective_at_oracle_init(rec):
        theta0 = theta_from_lambda(ORACLE_INIT, LambdaBounds())
        return _pm_objective(rec, PmFitConfig(), theta0), theta0

    @staticmethod
    def three_segments(*parts):
        """A record of constant or ramped vo2 parts, 20 samples each, HR 90."""
        vo2 = np.concatenate([np.linspace(a, b, 20) for a, b in parts])
        bounds = tuple((20 * k, 20 * k + 20) for k in range(len(parts)))
        return SubjectRecord("poles", series(vo2, bounds, "L/min"),
                             series(np.full(len(vo2), 90.0), bounds, "bpm"),
                             ("x",) * len(vo2))

    @staticmethod
    def theta_of(l5):
        # g(1) = l2 * l4 = 2.9651 exactly at vo2 = 1, and 1 - l5 g falls
        # through 0 between vo2 1.5 and 2.0 at l5 = 0.4
        return theta_from_lambda(LambdaParams(0.011, 0.149, -5.9, 19.9, l5, 0.1),
                                 LambdaBounds())

    def test_sign_change_inside_a_segment_scores_inf(self):
        # the pole lies between two samples of the middle segment
        rec = self.three_segments((0.5, 0.5), (1.0, 3.0), (3.0, 3.0))
        objective, _ = self.objective_at_oracle_init(rec)
        f, grad = objective(self.theta_of(0.4))
        assert f == math.inf and np.all(grad == 0.0)
        with pytest.raises(Singularity, match="changes sign"):
            reconstruct_pmbnn_r(rec, lambda_from_theta(self.theta_of(0.4), LambdaBounds()))
        # den < 0 in the first segment and > 0 in the last is no pole
        rec = self.three_segments((0.5, 0.5), (2.0, 3.0), (3.0, 3.0))
        objective, _ = self.objective_at_oracle_init(rec)
        assert math.isfinite(objective(self.theta_of(0.4))[0])

    @pytest.mark.parametrize("den, singular", [(0.5 * EPS_DEN, True), (5 * EPS_DEN, False)])
    def test_den_within_eps_scores_inf(self, den, singular):
        # 1 - l5 g is ``den`` on every sample of the vo2 = 1 segment
        rec = self.three_segments((0.5, 0.5), (1.0, 1.0), (3.0, 3.0))
        objective, _ = self.objective_at_oracle_init(rec)
        theta = self.theta_of((1.0 - den) / (0.149 * 19.9))
        f, grad = objective(theta)
        assert (f == math.inf and np.all(grad == 0.0)) if singular else math.isfinite(f)
        if singular:
            with pytest.raises(Singularity, match="within"):
                reconstruct_pmbnn_r(rec, lambda_from_theta(theta, LambdaBounds()))

    def test_hr_is_the_simulators_bit_for_bit(self, noisy_split, monkeypatch):
        train = noisy_split.train
        objective, theta0 = self.objective_at_oracle_init(train)
        seen = []
        inner = physio_model.trajectory

        def recording(*args):
            out = inner(*args)
            seen.append(out[0])
            return out

        monkeypatch.setattr(physio_model, "trajectory", recording)
        weight = np.full(6, PmFitConfig().proximal)
        weight[list(GAUGE_PIN_COORDS)] += GAUGE_PIN
        rng = np.random.default_rng(6)
        for theta in (theta0, theta0 + rng.normal(scale=0.3, size=6)):
            seen.clear()
            f, _ = objective(theta)
            want = reconstruct_pmbnn_r(train, lambda_from_theta(theta, LambdaBounds())).values
            assert np.array_equal(seen[0], want)
            drift = theta - theta0
            assert f == loss_data(want, train.hr.values) + float(weight @ (drift * drift))


# --- the training epoch's arithmetic, copied here so that a rewrite of the
# epoch (residual, loss, gradients, RMSprop step) is pinned bit for bit ----

def reference_collocation_residuals(hr, log_vo2, segment_bounds, dt_min, lam):
    """The residual computed one segment at a time."""
    l1, l2, l3, l4, l5, l6 = lam
    residuals = []
    for a, b in segment_bounds:
        lv = log_vo2[a:b]
        h = hr[..., a:b]
        p = h * ((l1 * lv + l2) * (l3 * lv + l4))
        residuals.append(
            ((h[..., 2:] - h[..., :-2]) - l5 * (p[..., 2:] - p[..., :-2]))
            / (2.0 * dt_min) - l6
        )
    return residuals


def reference_loss_and_gradients(p, batch):
    y = nn_core._forward_full(p, batch._x1, *batch._work[:2])
    resid = y - batch.hr
    l_data = float(resid @ resid) / len(y)
    lam = batch._lo + (batch._hi - batch._lo) * nn_core.sigmoid(p.theta)
    res = reference_collocation_residuals(
        y, batch._log_vo2, batch.segment_bounds, batch._dt_min, lam)
    m = sum(len(f) for f in res)
    l_de = sum(float(f @ f) for f in res) / m
    w = batch.de_weight
    l_tot = l_data + w * l_de
    if not np.isfinite(l_tot):
        raise NonFiniteLoss(f"L_tot = {l_tot}")
    grads = nn_core._Tree._of(np.zeros(nn_core._SIZE))
    dy = (2.0 / len(y)) * resid
    if w:
        q = np.zeros(len(y))
        for (a, b), f in zip(batch.segment_bounds, res):
            q[a + 2:b] += f
            q[a:b - 2] -= f
        q /= 2.0 * batch._dt_min
        l1, l2, l3, l4, l5, _ = lam
        coef = np.array([[0.0, l4, l3], [l4, l3, 0.0], [0.0, l2, l1],
                         [l2, l1, 0.0], [l2 * l4, l1 * l4 + l2 * l3, l1 * l3]])
        dy += (2.0 * w / m) * (1.0 - l5 * (coef[4] @ batch._lv_powers)) * q
        sums = np.append(coef @ (batch._lv_powers @ (y * q)), sum(f.sum() for f in res))
        dlam = np.array([l5, l5, l5, l5, 1.0, 1.0]) * sums
        lo, hi = LambdaBounds().lo_hi_arrays()
        s = nn_core.sigmoid(p.theta)
        grads.theta[:] = w * (-2.0 / m) * dlam * ((hi - lo) * s * (1.0 - s))
    a1, a2, dz1 = batch._work
    h1, h2 = a1[:nn_core.HIDDEN], a2[:nn_core.HIDDEN]
    dy = dy.astype(a2.dtype, copy=False)
    np.matmul(a2, dy, out=grads.layer3)
    np.multiply(h2, h2, out=h2)
    np.subtract(1.0, h2, out=h2)
    h2 *= dy
    w3 = p.layer3[:nn_core.HIDDEN, None]
    np.matmul(h2, a1.T, out=grads.layer2)
    grads.layer2 *= w3
    np.matmul((w3 * p.w2).T.astype(dz1.dtype, copy=False), h2, out=dz1)
    np.multiply(h1, h1, out=h1)
    np.subtract(1.0, h1, out=h1)
    dz1 *= h1
    np.matmul(dz1, batch._x1.T, out=grads.layer1)
    return l_data, l_de, l_tot, grads


def reference_rmsprop_step(p, g, v, lr):
    v *= nn_core.RMSPROP_RHO
    t = (1.0 - nn_core.RMSPROP_RHO) * g.flat
    t *= g.flat
    v += t
    np.multiply(lr, g.flat, out=t)
    t /= np.sqrt(v) + nn_core.RMSPROP_EPS
    return nn_core._Tree._of(p.flat - t)


def reference_train(train, cfg):
    """train_pmbnn's loop on the reference epoch: final flat and L_tot history."""
    batch = TrainBatch(vo2=train.vo2.values, hr=train.hr.values,
                       segment_bounds=train.vo2.segment_bounds, dt_seconds=train.vo2.dt,
                       de_weight=cfg.de_weight, dtype=np.float32)
    params = xavier_init(cfg.seed, LambdaBounds(), DEFAULT_INITIAL)
    v = np.zeros(nn_core._SIZE)
    history = []
    for _ in range(cfg.max_epochs):
        *_, l_tot, grads = reference_loss_and_gradients(params, batch)
        history.append(l_tot)
        if l_tot < cfg.stop_threshold or len(history) == cfg.max_epochs:
            break
        params = reference_rmsprop_step(params, grads, v, cfg.lr)
        np.clip(params.theta, -30.0, 30.0, out=params.theta)
    return params.flat, history


class TestEpochBitForBit:
    @pytest.mark.parametrize("de_weight", [TrainConfig().de_weight, 0.0],
                             ids=["pmbnn", "fcnn"])
    def test_training_matches_the_reference_epoch(self, noisy_split, de_weight):
        train = noisy_split.train   # 1,440 samples in 3 segments
        assert len(train) == 1440 and len(train.vo2.segment_bounds) == 3
        cfg = TrainConfig(seed=0, max_epochs=400, de_weight=de_weight)
        model = train_pmbnn(train, cfg)
        flat, history = reference_train(train, cfg)
        assert model.stopped_reason == "threshold" and len(history) >= 200
        assert len(model.loss_history) == len(history)
        assert [l.l_tot for l in model.loss_history] == history
        assert np.array_equal(model.mlp.flat, flat)

    def test_residuals_match_per_segment_passes(self):
        # the gradient check scores stacked (..., n) inputs, training 1-D ones
        rng = np.random.default_rng(8)
        segs, n, k = ((0, 3), (3, 17), (17, 40)), 40, 5
        log_vo2 = np.log(rng.uniform(0.4, 3.0, n))
        lo, hi = LambdaBounds().lo_hi_arrays()
        lam = rng.uniform(lo, hi, size=(k, 6))
        cases = [(70.0 + 30.0 * rng.uniform(size=n), lam[0]),
                 (70.0 + 30.0 * rng.uniform(size=(k, n)), lam.T[:, :, None]),
                 (70.0 + 30.0 * rng.uniform(size=(2, k, n)), lam[1])]
        for hr, lam_case in cases:
            got = collocation_residuals(hr, log_vo2, segs, 1 / 60, lam_case)
            want = reference_collocation_residuals(hr, log_vo2, segs, 1 / 60, lam_case)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.shape == w.shape and np.array_equal(g, w)


@pytest.mark.parametrize("make, key", [
    (lambda: TrainConfig(lr=-0.01), "train.lr"),        # trains uphill
    (lambda: TrainConfig(de_weight=float("nan")), "train.de_weight"),
    (lambda: TrainConfig(stop_threshold=float("inf")), "train.stop_threshold"),
    (lambda: TrainConfig(max_epochs=0), "train.max_epochs"),
    (lambda: TrainConfig(seed=-1), "train.seed"),    # numpy rejected it mid-run
    (lambda: PmFitConfig(iters=-1), "pm.iters"),   # returned the initial lambdas
    (lambda: PmFitConfig(iters=0), "pm.iters"),
    (lambda: PmFitConfig(proximal=-1.0), "pm.proximal"),
])
def test_out_of_range_config_rejected(make, key):
    with pytest.raises(OutOfBounds, match=key):
        make()
