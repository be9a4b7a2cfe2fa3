import numpy as np
import pytest

from oracle_utils import ORACLE_INIT, coupling_products, oracle_subject

from pmbnn.errors import EmptySeries, LengthMismatch, OutOfBounds
from pmbnn.experiment import split_by_activity
from pmbnn.nn_core import (
    MlpParams,
    TrainBatch,
    loss_and_gradients,
    loss_only,
    mlp_forward,
    theta_from_lambda,
    xavier_init,
)
from pmbnn.physio_model import (
    DEFAULT_INITIAL,
    LambdaBounds,
    LambdaParams,
    simulate_hr,
)
from pmbnn.signal_pipeline import SubjectRecord, UniformSeries, preprocess_subject
from pmbnn.stats_eval import r_squared, rmse
from pmbnn.training import (
    LbfgsResult,
    PmFitConfig,
    TrainConfig,
    _pm_objective,
    fit_pm,
    lbfgs_minimize,
    loss_data,
    simulate_record_hr,
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
                       segment_bounds=((0, 20),), dt_seconds=1.0,
                       bounds=LambdaBounds(), de_weight=w)
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_guard(self, noisy_split):
        cfg = TrainConfig(seed=4, lr=1e160, max_epochs=50)
        model = train_pmbnn(noisy_split.train, cfg)
        assert model.stopped_reason == "divergence"
        for arr in model.mlp.arrays():
            assert np.all(np.isfinite(arr))

    def test_deterministic(self, noisy_split):
        cfg = TrainConfig(seed=7, max_epochs=40)
        a = train_pmbnn(noisy_split.train, cfg)
        b = train_pmbnn(noisy_split.train, cfg)
        for x, y in zip(a.mlp.arrays(), b.mlp.arrays()):
            np.testing.assert_array_equal(x, y)
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
        diff = max(
            np.max(np.abs(x - y)) for x, y in zip(a.mlp.arrays(), b.mlp.arrays())
        )
        assert diff <= 1e-12


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
        pred = simulate_record_hr(split.test, lam_fit).values
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
        bounds = LambdaBounds()
        theta0 = theta_from_lambda(ORACLE_INIT, bounds)
        for i in range(3):
            _, _, rec = oracle_subject(i, noise_sigma_hr=noise)
            train = split_by_activity(preprocess_subject(rec) if noise else rec).train
            objective = _pm_objective(train, bounds, PmFitConfig(), theta0)
            theta = theta0 + rng.normal(scale=0.3, size=6)
            _, grad = objective(theta)
            h = 1e-6
            fd = np.array([
                (objective(theta + h * e)[0] - objective(theta - h * e)[0]) / (2 * h)
                for e in np.eye(6)
            ])
            assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


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
