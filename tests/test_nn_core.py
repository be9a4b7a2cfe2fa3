import decimal
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_utils import oracle_subject, residual_series

from pmbnn import nn_core
from pmbnn import physio_model as pm
from pmbnn.errors import (
    IoFailure,
    NonFiniteLoss,
    OutOfBounds,
    SegmentTooShort,
)
from pmbnn.experiment import split_by_activity
from pmbnn.nn_core import (
    ARRAY_FIELDS,
    MlpParams,
    TrainBatch,
    checkpoint_bytes,
    gradient_check,
    lambda_from_theta,
    load_checkpoint,
    loss_and_gradients,
    loss_only,
    make_gradcheck_case,
    mlp_forward,
    rmsprop_step,
    save_checkpoint,
    theta_from_lambda,
    xavier_init,
)
from pmbnn.physio_model import DEFAULT_INITIAL, LambdaBounds, LambdaParams
from pmbnn.signal_pipeline import preprocess_subject
from pmbnn.training import TrainConfig, train_pmbnn


def box(lo, hi):
    """The same (lo, hi) box for all six lambdas."""
    return LambdaBounds(**{f"l{k}": (lo, hi) for k in range(1, 7)})


def lam_of(theta, bounds):
    """Bounded lambdas for one theta value broadcast to all six."""
    return lambda_from_theta(np.full(6, theta), bounds).as_array()


class TestBoundedTransform:
    """The logistic map from theta into the lambda boxes."""

    def test_midpoint(self):
        np.testing.assert_allclose(lam_of(0.0, box(2.0, 6.0)), 4.0, atol=1e-15)

    def test_saturation(self):
        np.testing.assert_allclose(lam_of(50.0, box(2.0, 6.0)), 6.0, atol=1e-12)

    def test_lambda5_target(self):
        # direct logit arithmetic: theta for 0.44 in (0.1, 0.6)
        theta6 = theta_from_lambda(DEFAULT_INITIAL, LambdaBounds())
        assert theta6[4] == pytest.approx(math.log(0.68 / 0.32), rel=1e-12)
        assert lambda_from_theta(theta6, LambdaBounds()).l5 == pytest.approx(0.44, rel=1e-12)

    def test_bad_bounds(self):
        # an empty box is refused before any logit is taken
        with pytest.raises(OutOfBounds):
            theta_from_lambda(DEFAULT_INITIAL, box(1.0, 1.0))

    @given(st.floats(-30, 30), st.floats(-5, 5), st.floats(0.1, 10))
    @settings(max_examples=200, deadline=None)
    def test_image_strictly_inside(self, theta, lo, width):
        hi = lo + width
        out = lam_of(theta, box(lo, hi))
        assert np.all(lo < out) and np.all(out < hi)

    @given(st.floats(-25, 25))
    @settings(max_examples=100, deadline=None)
    def test_strictly_monotone(self, theta):
        bounds = box(0.0, 1.0)
        assert np.all(lam_of(theta + 1e-3, bounds) > lam_of(theta, bounds))


class TestBoundedInverse:
    """theta_from_lambda, the logit that inverts the logistic map."""

    def test_midpoint_is_zero(self):
        theta = theta_from_lambda(LambdaParams(*[4.0] * 6), box(2.0, 6.0))
        np.testing.assert_allclose(theta, 0.0, atol=1e-15)

    def test_equals_the_logit_of_each_lambda_alone(self):
        # the initial theta of every network comes from this map, so the
        # array logit must give each lambda's 0-d logit bit for bit
        def reference(lam, bounds):
            lo, hi = bounds.lo_hi_arrays()
            out = []
            for v, a, b in zip(lam.as_array(), lo, hi):
                p = np.asarray((v - a) / (b - a))
                out.append(np.log(p) - np.log1p(-p))
            return np.array(out)

        rng = np.random.default_rng(23)
        lo, hi = LambdaBounds().lo_hi_arrays()
        lams = [DEFAULT_INITIAL] + [LambdaParams.from_array(rng.uniform(lo, hi))
                                    for _ in range(2000)]
        for lam in lams:
            np.testing.assert_array_equal(theta_from_lambda(lam, LambdaBounds()),
                                          reference(lam, LambdaBounds()))

    def test_round_trip(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            lo = rng.uniform(-3, 3, 6)
            hi = lo + rng.uniform(0.1, 5, 6)
            bounds = LambdaBounds(**{f"l{k + 1}": (lo[k], hi[k]) for k in range(6)})
            lam = LambdaParams.from_array(rng.uniform(lo + 1e-6, hi - 1e-6))
            back = lambda_from_theta(theta_from_lambda(lam, bounds), bounds)
            np.testing.assert_allclose(back.as_array(), lam.as_array(), rtol=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(OutOfBounds):
            theta_from_lambda(LambdaParams(2.0, 4.0, 4.0, 4.0, 4.0, 4.0), box(2.0, 6.0))


class TestXavierInit:
    def test_deterministic(self):
        np.testing.assert_array_equal(xavier_init(9).flat, xavier_init(9).flat)

    def test_theta_maps_to_default_initials(self):
        p = xavier_init(0)
        lam = lambda_from_theta(p.theta, LambdaBounds())
        np.testing.assert_allclose(
            lam.as_array(), DEFAULT_INITIAL.as_array(), rtol=1e-9
        )

    def test_w1_within_xavier_bound(self):
        p = xavier_init(3)
        limit = math.sqrt(6.0 / 65.0)
        assert np.all(np.abs(p.w1) <= limit)
        assert np.all(p.b1 == 0) and np.all(p.b2 == 0) and np.all(p.b3 == 0)


class TestMlpForward:
    def zero_params(self):
        return MlpParams(
            w1=np.zeros((64, 1)), b1=np.zeros(64),
            w2=np.zeros((64, 64)), b2=np.zeros(64),
            w3=np.zeros((1, 64)), b3=np.zeros(1),
            theta=np.zeros(6),
        )

    def test_all_zero_params(self):
        p = self.zero_params()
        np.testing.assert_array_equal(mlp_forward(p, np.array([1.7])), [0.0])

    def test_output_bias_passthrough(self):
        p = self.zero_params()
        p.b3 = np.array([42.5])
        np.testing.assert_array_equal(mlp_forward(p, np.array([0.0, 1.3, -2.0])), 42.5)

    def test_matches_straight_line_oracle(self):
        p = xavier_init(17)
        x = 1.3
        # independent re-evaluation with plain matrix arithmetic
        a1 = np.tanh(p.w1 @ np.array([[x]]) + p.b1[:, None])
        a2 = np.tanh(p.w2 @ a1 + p.b2[:, None])
        y = (p.w3 @ a2 + p.b3[:, None]).item()
        assert mlp_forward(p, np.array([x]))[0] == pytest.approx(y, rel=1e-12)

    def test_vector_input(self):
        p = xavier_init(18)
        xs = np.array([0.5, 1.0, 2.5])
        np.testing.assert_allclose(
            mlp_forward(p, xs), [mlp_forward(p, xs[i:i + 1])[0] for i in range(3)], rtol=1e-12
        )


def random_case(segment_bounds):
    """Plain random 30-sample instance with the full composite loss, pinned seed."""
    rng = np.random.default_rng(0)
    vo2 = np.concatenate([np.linspace(0.4, 1.6, 15), np.linspace(1.8, 3.0, 15)])
    hr = 70 + 30 * rng.uniform(size=30)
    return xavier_init(0), TrainBatch(vo2=vo2, hr=hr, segment_bounds=segment_bounds,
                                      dt_seconds=1.0, de_weight=1e5 / 3600)


def batch_for(p, vo2, hr, w=1e5 / 3600):
    n = len(vo2)
    return TrainBatch(
        vo2=np.asarray(vo2, dtype=float),
        hr=np.asarray(hr, dtype=float),
        segment_bounds=((0, n),),
        dt_seconds=1.0,
        de_weight=w,
    )


class TestBackward:
    def test_zero_residual_batch_gives_zero_gradients(self):
        # constant vo2, targets equal to predictions, l6 == 0: both loss
        # terms sit at the bottom of their quadratics
        p = xavier_init(5)
        p.theta[5] = 0.0  # l6 box is symmetric, so theta 0 -> l6 = 0
        vo2 = np.full(30, 1.2)
        hr = mlp_forward(p, vo2)
        grads = loss_and_gradients(p, batch_for(p, vo2, hr))[3]
        np.testing.assert_allclose(grads.flat, 0.0, atol=1e-12)

    def test_full_network_fd_agreement(self):
        p, batch = make_gradcheck_case(123)
        assert gradient_check(p, batch) <= 1e-4

    def test_random_instance_fd_agreement(self):
        assert gradient_check(*random_case(((0, 15), (15, 30)))) <= 1e-4

    def test_theta_gradient_chain_rule_at_midpoint(self):
        # dL/dtheta = dL/dlambda * (hi-lo)/4 when theta sits at 0
        p, batch = make_gradcheck_case(7)
        k = 5  # l6: box (-0.5, 0.5)
        p.theta[k] = 0.0
        lo, hi = LambdaBounds().lo_hi_arrays()
        analytic = loss_and_gradients(p, batch)[3].theta[k]

        h_lam = 1e-7
        mid = 0.5 * (lo[k] + hi[k])
        q = nn_core._Tree._of(p.flat.copy())
        lam = lambda_from_theta(p.theta, LambdaBounds()).as_array()
        lam[k] = mid + h_lam
        q.theta[k] = theta_from_lambda(LambdaParams.from_array(lam), LambdaBounds())[k]
        f_plus = loss_only(q, batch)
        lam[k] = mid - h_lam
        q.theta[k] = theta_from_lambda(LambdaParams.from_array(lam), LambdaBounds())[k]
        f_minus = loss_only(q, batch)
        lambda_grad = (f_plus - f_minus) / (2 * h_lam)
        assert analytic == pytest.approx(lambda_grad * (hi[k] - lo[k]) / 4.0, rel=1e-5)


def zeros_like(p):
    """A parameter tree of zeros, laid out like ``p``."""
    return MlpParams(*[np.zeros_like(getattr(p, f)) for f in ARRAY_FIELDS])


class TestRmsprop:
    def test_zero_gradient_is_fixed_point(self):
        p = xavier_init(2)
        v = np.full_like(p.flat, 0.5)  # non-trivial accumulators
        p2 = rmsprop_step(p, zeros_like(p), v, 0.01)
        np.testing.assert_array_equal(p.flat, p2.flat)
        np.testing.assert_allclose(v, 0.5 * 0.99, rtol=1e-15)

    def test_first_step_magnitude(self):
        p = xavier_init(2)
        g = zeros_like(p)
        g.b3 = np.array([0.37])
        p2 = rmsprop_step(p, g, np.zeros_like(p.flat), 0.01)
        expected = -0.01 * 0.37 / (math.sqrt(0.01 * 0.37 ** 2) + 1e-8)
        assert (p2.b3[0] - p.b3[0]) == pytest.approx(expected, rel=1e-6)
        assert expected == pytest.approx(-0.01 / math.sqrt(1 - 0.99), rel=1e-4)

    def test_accumulator_after_two_constant_steps(self):
        p = xavier_init(2)
        g = zeros_like(p)
        g.b3 = np.array([1.3])
        v = np.zeros_like(p.flat)
        rmsprop_step(rmsprop_step(p, g, v, 0.01), g, v, 0.01)
        rho = 0.99
        assert MlpParams._of(v).b3[0] == pytest.approx((1 - rho) * (rho + 1) * 1.3 ** 2, rel=1e-12)

    def test_non_finite_gradient_rejected(self):
        p = xavier_init(2)
        g = zeros_like(p)
        g.w2[0, 0] = np.nan
        with pytest.raises(NonFiniteLoss):
            rmsprop_step(p, g, np.zeros_like(p.flat), 0.01)


def loss_quadratic(p, batch, y, dtype=np.float64):
    """lambda, 2F per segment, the residual count m, and K and b with
    L(y + plus) - L(y + minus) = d . (b + K s) at fixed lambdas."""
    n = len(y)
    lo, hi = LambdaBounds().lo_hi_arrays()
    lam = lo + (hi - lo) * nn_core.sigmoid(p.theta)
    two_f = [2.0 * f for f in pm.collocation_residuals(
        y, batch._log_vo2, batch.segment_bounds, batch._dt_min, lam)]
    m = sum(len(f) for f in two_f)
    lam_a = np.append(lam[:5], 0.0)  # l6 = 0 leaves the linear part A
    a_t = np.concatenate(pm.collocation_residuals(
        np.eye(n, dtype=dtype), batch._log_vo2, batch.segment_bounds, batch._dt_min, lam_a),
        axis=-1)
    k = np.eye(n, dtype=dtype) / n + (batch.de_weight / m) * (a_t @ a_t.T)
    b = 2.0 * (y - batch.hr) / n + (batch.de_weight / m) * (a_t @ np.concatenate(two_f))
    return lam, two_f, m, k, b


def blocked_layer2_differences(p, batch, block):
    """The [w2 | b2] differences in the kernel's Taylor form, with the K
    term sum_st c1_is A_js K_st c2_it A^2_jt contracted over all of K, in
    blocks of ``block`` units; the kernel sums K's diagonals 0 and +-2."""
    h = nn_core._FD_STEP
    x1, a1e, a2e = nn_core._layer_inputs(batch.vo2)
    y = nn_core._forward_full(p, x1, a1e, a2e)
    w3, n = p.w3[0], len(y)
    _, _, _, k, b = loss_quadratic(p, batch, y)
    sech2 = nn_core._sech2(p.layer2 @ a1e)
    c = [sech2 * np.polyval(r, a2e[:nn_core.HIDDEN]) for r in nn_core._TANH_SERIES]
    a_sq = a1e * a1e
    out = h * ((c[0] * b) @ a1e.T) + h ** 3 * ((c[2] * b) @ (a_sq * a1e).T)
    for u in (slice(i, i + block) for i in range(0, nn_core.HIDDEN, block)):
        rows = len(w3[u])
        # c1_is K_st c2_it as (s, i, t), then A (c1 K c2) A^2, (HIDDEN + 1, rows)
        kc = c[0][u].T[:, :, None] * k[:, None, :] * c[1][u]
        ks = (a1e @ kc.reshape(n, rows * n)).reshape(nn_core.HIDDEN + 1, rows, n)
        out[u] += (2.0 * h ** 3) * w3[u, None] * np.einsum("jit,jt->ij", ks, a_sq)
    return out * (2.0 * w3[:, None])


def per_unit_loss_differences(p, batch, dtype=np.float64):
    """The FD tree with one tanh pass per hidden unit and probe sign, in
    ``dtype`` from the parameters on: the float64 kernel's cross-check, and
    in 80-bit extended precision an independent reference for its errors."""
    p = nn_core._Tree._of(p.flat.astype(dtype))
    h = dtype(nn_core._FD_STEP)
    x1, a1e, a2e = nn_core._layer_inputs(batch.vo2, dtype)
    y = nn_core._forward_full(p, x1, a1e, a2e)
    a1, a2 = a1e[:nn_core.HIDDEN], a2e[:nn_core.HIDDEN]
    z1, z2, w3, n = p.layer1 @ x1, p.layer2 @ a1e, p.w3[0], len(y)
    lo, hi = LambdaBounds().lo_hi_arrays()
    lam, two_f, m, k, b = loss_quadratic(p, batch, y, dtype)

    def diff(plus, minus):
        # L(y + plus) - L(y + minus) = d . (b + K s) for 2-D row stacks
        # (rows, n); a 1-D row @ K would take gemv, not the gemm rows
        assert plus.ndim == 2
        return np.sum((plus - minus) * ((plus + minus) @ k + b), axis=-1)

    out = nn_core._Tree._of(np.empty(nn_core._SIZE, dtype))
    # [w1 | b1] row j: unit j of layer 1 moves and layer 2 is recomputed,
    # (2 signs, 2 probes, HIDDEN, n)
    step = np.stack([h * x1, -h * x1])
    for j in range(nn_core.HIDDEN):
        da1 = np.tanh(z1[j] + step) - a1[j]
        out.layer1[j] = diff(*(w3 @ (np.tanh(z2 + da1[..., None, :] * p.w2[:, j, None]) - a2)))
    # [w2 | b2] row i: unit i of layer 2 moves, (2 signs, HIDDEN + 1, n)
    step = np.stack([h * a1e, -h * a1e])
    for i in range(nn_core.HIDDEN):
        out.layer2[i] = diff(*(w3[i] * (np.tanh(z2[i] + step) - a2[i])))
    # [w3 | b3]: the output moves by the probe times the unit's activation
    out.layer3[:] = diff(h * a2e, -h * a2e)
    # theta[k] moves lambda k alone and leaves y, so only L_DE changes
    width = hi - lo
    up = -width * nn_core.sigmoid(p.theta + h) * nn_core.sigmoid(-p.theta) * np.expm1(-h)
    down = -width * nn_core.sigmoid(p.theta) * nn_core.sigmoid(h - p.theta) * np.expm1(-h)
    own = np.eye(6, dtype=bool)
    rows = np.vstack([np.where(own, 1.0, lam), np.where(own, 0.0, lam)])
    ones_zeros = pm.collocation_residuals(
        y, batch._log_vo2, batch.segment_bounds, batch._dt_min, rows.T[..., None])
    de = np.zeros(6, dtype)
    for f, tf in zip(ones_zeros, two_f):
        c = f[:6] - f[6:]
        de += np.sum(c * (tf + (up - down)[:, None] * c), axis=-1)
    out.theta[:] = batch.de_weight * (up + down) * de / m
    return out


def decimal_hidden_differences(p, batch, w1_probes, w2_probes):
    """L(p + h e_k) - L(p - h e_k) for the [w1 | b1] probes (j, c) and the
    [w2 | b2] probes (i, j), the network and the loss written out again in
    40-digit decimal arithmetic from the float64 parameters."""
    hidden, n = nn_core.HIDDEN, len(batch.vo2)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        dec = decimal.Decimal
        h = dec(nn_core._FD_STEP)

        def tanh(v):
            e = (2 * v).exp()
            return (e - 1) / (e + 1)

        vo2, hr, lv = ([dec(v) for v in a] for a in (batch.vo2, batch.hr, batch._log_vo2))
        x = [vo2, [dec(1)] * n]
        (w1, b1), layer2 = ([[dec(v) for v in row] for row in a] for a in (p.layer1.T, p.layer2))
        w3, b3 = [dec(v) for v in p.w3[0]], dec(p.b3[0])
        z1 = [[w * v + b for v in vo2] for w, b in zip(w1, b1)]
        a1 = [[tanh(v) for v in row] for row in z1] + [[dec(1)] * n]
        z2 = [[sum(w * a[s] for w, a in zip(row, a1)) for s in range(n)] for row in layer2]
        a2 = [[tanh(v) for v in row] for row in z2]
        l1, l2, l3, l4, l5, l6 = (dec(lo) + (dec(hi) - dec(lo)) / (1 + (-dec(t)).exp())
                                  for t, lo, hi in zip(p.theta, *LambdaBounds().lo_hi_arrays()))

        def loss(z2_rows):
            # L_tot of the layer-2 pre-activations in z2_rows, z2 elsewhere
            y = [b3 + sum(w * tanh(z2_rows[i][s]) if i in z2_rows else w * a2[i][s]
                          for i, w in enumerate(w3)) for s in range(n)]
            pv = [v * (l1 * u + l2) * (l3 * u + l4) for v, u in zip(y, lv)]
            f = [((y[i + 1] - y[i - 1]) - l5 * (pv[i + 1] - pv[i - 1]))
                 / (2 * dec(batch._dt_min)) - l6
                 for a, b in batch.segment_bounds for i in range(a + 1, b - 1)]
            l_data = sum((v - t) ** 2 for v, t in zip(y, hr)) / n
            return l_data + dec(batch.de_weight) * sum(v * v for v in f) / len(f)

        def w1_rows(j, c, sign):
            # unit j of layer 1 moves, and with it every row of z2
            da = [tanh(z + sign * h * v) - a for z, v, a in zip(z1[j], x[c], a1[j])]
            return {i: [z + layer2[i][j] * d for z, d in zip(z2[i], da)] for i in range(hidden)}

        def w2_rows(i, j, sign):
            return {i: [z + sign * h * a for z, a in zip(z2[i], a1[j])]}

        return (np.array([float(loss(w1_rows(*k, 1)) - loss(w1_rows(*k, -1))) for k in w1_probes]),
                np.array([float(loss(w2_rows(*k, 1)) - loss(w2_rows(*k, -1))) for k in w2_probes]))


def without_de(p, batch):
    return p, replace(batch, de_weight=0.0)


def scaled_w2_case():
    """A random two-segment instance whose w2 is scaled to
    max |w2| max(vo2, 1) = 99, just inside the gradient check's tanh series
    range: a [w1 | b1] probe moves a layer-2 pre-activation by up to ~1e-3.
    w1 is scaled down so that layer 2 stays off saturation."""
    p, batch = random_case(((0, 15), (15, 30)))
    p.w1 *= 1e-2
    p.w2 *= 99.0 / (np.abs(p.w2).max() * max(1.0, batch.vo2.max()))
    return p, batch


#: the gradient check's cases: its own, two random layouts (one uneven,
#: with a minimal three-sample segment) and one without the L_DE term
FOUR_CASES = [
    lambda: make_gradcheck_case(0),
    lambda: random_case(((0, 15), (15, 30))),
    lambda: random_case(((0, 3), (3, 10), (10, 30))),
    lambda: without_de(*make_gradcheck_case(0)),
]
FOUR_CASE_IDS = ["gradcheck_case_0", "two_segments", "uneven_segments", "de_weight_0"]


class TestGradientCheck:
    def test_effectively_linear_network_is_exact(self):
        # zero weights leave only the constant output path: the loss is an
        # exact quadratic in b3 and FD is accurate to round-off
        p = MlpParams(
            w1=np.zeros((64, 1)), b1=np.zeros(64),
            w2=np.zeros((64, 64)), b2=np.zeros(64),
            w3=np.zeros((1, 64)), b3=np.array([5.0]),
            theta=theta_from_lambda(DEFAULT_INITIAL, LambdaBounds()),
        )
        p.theta[5] = 0.0
        vo2 = np.full(20, 1.1)
        hr = np.full(20, 9.0)
        assert gradient_check(p, batch_for(p, vo2, hr, w=1.0)) <= 1e-10

    def test_twenty_seeds_below_tolerance(self):
        worst = max(gradient_check(*make_gradcheck_case(seed)) for seed in range(20))
        assert worst <= 1e-4
        # every difference is taken without cancellation, so what is left is
        # the O(h^2) truncation of the central formula, about 8.6e-11
        assert worst <= 1e-9

    @pytest.mark.parametrize("case", [
        lambda: make_gradcheck_case(0),
        lambda: random_case(((0, 15), (15, 30))),
        lambda: random_case(((0, 3), (3, 10), (10, 30))),  # uneven, one minimal
    ], ids=["gradcheck_case_0", "two_segments", "uneven_segments"])
    def test_grouped_probes_match_per_parameter_loop(self, case):
        # the reference is the plain loop: two loss_only calls per parameter
        p, batch = case()
        h = nn_core._FD_STEP
        work = nn_core._Tree._of(p.flat.copy())
        loop = []
        flat = work.flat  # every parameter array is a view of this vector
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            f_plus = loss_only(work, batch)
            flat[k] = orig - h
            loop.append((f_plus - loss_only(work, batch)) / (2.0 * h))
            flat[k] = orig
        loop = np.array(loop)
        grouped = nn_core._loss_differences(p, batch).flat / (2.0 * h)
        rel = np.abs(grouped - loop) / np.maximum(1e-12, np.abs(grouped) + np.abs(loop))
        assert rel.max() <= 1e-5
        # the theta entries differ from the loop's by no more than the loop's
        # round-off in L (measured <= 0.5 eps L)
        l_tot = loss_only(p, batch)
        assert np.all(np.abs(grouped[-6:] - loop[-6:]) * 2.0 * h
                      <= 4.0 * np.finfo(float).eps * l_tot)

    @pytest.mark.parametrize("case", [
        lambda: make_gradcheck_case(0),
        lambda: random_case(((0, 3), (3, 10), (10, 30))),
    ], ids=["gradcheck_case_0", "uneven_segments"])
    def test_theta_differences_match_40_digit_reference(self, case):
        # L(theta + h e_k) - L(theta - h e_k) written out again in 40-digit
        # decimal arithmetic; y does not move, so L_data cancels
        p, batch = case()
        h = nn_core._FD_STEP
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            dec = decimal.Decimal
            y = [dec(v) for v in mlp_forward(p, batch.vo2)]
            lv = [dec(v) for v in batch._log_vo2]

            def l_de(theta):
                l1, l2, l3, l4, l5, l6 = (dec(lo) + (dec(hi) - dec(lo)) / (1 + (-t).exp())
                                          for t, lo, hi in zip(theta, *LambdaBounds().lo_hi_arrays()))
                pv = [v * (l1 * u + l2) * (l3 * u + l4) for v, u in zip(y, lv)]
                f = [((y[i + 1] - y[i - 1]) - l5 * (pv[i + 1] - pv[i - 1]))
                     / (2 * dec(batch._dt_min)) - l6
                     for a, b in batch.segment_bounds for i in range(a + 1, b - 1)]
                return sum(v * v for v in f) / len(f)

            theta = [dec(t) for t in p.theta]
            want = []
            for k in range(6):
                plus, minus = list(theta), list(theta)
                plus[k] += dec(h)
                minus[k] -= dec(h)
                want.append(float(dec(batch.de_weight) * (l_de(plus) - l_de(minus))))
        got = nn_core._loss_differences(p, batch).theta
        # measured <= 6e-16; subtracting two float64 losses is off by ~1e-7
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("case", [
        lambda: make_gradcheck_case(0),
        lambda: random_case(((0, 3), (3, 10), (10, 30))),
    ], ids=["gradcheck_case_0", "uneven_segments"])
    def test_output_layer_differences_match_40_digit_reference(self, case):
        # L(y + d+) - L(y + d-) for the [w3 | b3] probes d+- = +-h [a2; 1],
        # taken as float64, written out again in 40-digit decimal arithmetic
        p, batch = case()
        h = nn_core._FD_STEP
        x1, a1e, a2e = nn_core._layer_inputs(batch.vo2)
        y = nn_core._forward_full(p, x1, a1e, a2e)
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            dec = decimal.Decimal
            lv = [dec(v) for v in batch._log_vo2]
            hr = [dec(v) for v in batch.hr]
            l1, l2, l3, l4, l5, l6 = (dec(lo) + (dec(hi) - dec(lo)) / (1 + (-dec(t)).exp())
                                      for t, lo, hi in zip(p.theta, *LambdaBounds().lo_hi_arrays()))

            def loss(yv):
                pv = [v * (l1 * u + l2) * (l3 * u + l4) for v, u in zip(yv, lv)]
                f = [((yv[i + 1] - yv[i - 1]) - l5 * (pv[i + 1] - pv[i - 1]))
                     / (2 * dec(batch._dt_min)) - l6
                     for a, b in batch.segment_bounds for i in range(a + 1, b - 1)]
                l_data = sum((v - t) ** 2 for v, t in zip(yv, hr)) / len(yv)
                return l_data + dec(batch.de_weight) * sum(v * v for v in f) / len(f)

            want = [float(loss([dec(v) + dec(d) for v, d in zip(y, plus)])
                          - loss([dec(v) + dec(d) for v, d in zip(y, minus)]))
                    for plus, minus in zip(h * a2e, -h * a2e)]
        got = nn_core._loss_differences(p, batch).layer3
        # measured <= 4e-16, both as d . (b + K s) and as a residual pass per call
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("field", ARRAY_FIELDS)
    def test_corrupted_gradient_entry_is_caught(self, monkeypatch, field):
        # a 1% error on one reverse-mode entry of any block fails the check
        exact = nn_core.loss_and_gradients

        def corrupted(p, batch):
            *losses, grads = exact(p, batch)
            arr = getattr(grads, field)
            arr.flat[2 * arr.size // 3] *= 1.01
            return (*losses, grads)

        monkeypatch.setattr(nn_core, "loss_and_gradients", corrupted)
        assert gradient_check(*make_gradcheck_case(0)) > 1e-4

    @pytest.mark.parametrize("block", [1, 5, 8, 64])
    @pytest.mark.parametrize("case", FOUR_CASES, ids=FOUR_CASE_IDS)
    def test_blocked_probes_match_per_unit_passes(self, case, block):
        # the per-unit tanh passes cross-check the hidden layers within their
        # own round-off: tanh(z + q) - tanh(z) cancels, measured <= 3.5e-12
        # of each layer's largest entry on these cases. The output layer and
        # theta take the same arithmetic in both, bit for bit. The kernel's
        # [w2 | b2] K term, one diagonal of K at a time, matches the
        # contraction over all of K in blocks of units (block 5 leaves a
        # ragged last one, 64 is one piece) bit for bit: it enters layer 2
        # h^2 below d . b, so the two summation orders' round-off never
        # reaches the float64 differences
        p, batch = case()
        got, ref = nn_core._loss_differences(p, batch), per_unit_loss_differences(p, batch)
        np.testing.assert_array_equal(got.layer2, blocked_layer2_differences(p, batch, block))
        for layer in ("layer1", "layer2"):
            err = np.abs(getattr(got, layer) - getattr(ref, layer)).max()
            assert err <= 1e-11 * np.abs(getattr(ref, layer)).max()
        np.testing.assert_array_equal(got.layer3, ref.layer3)
        np.testing.assert_array_equal(got.theta, ref.theta)

    @pytest.mark.parametrize("case", FOUR_CASES, ids=FOUR_CASE_IDS)
    def test_k_is_banded(self, case):
        # the [w2 | b2] K term sums over K's diagonals 0 and +-2 only: each
        # collocation row of A touches samples r - 1 and r + 1 of one
        # segment, so every entry of A^T A off those offsets is exactly 0
        p, batch = case()
        n = len(batch.vo2)
        lam_a = np.append(nn_core.box_map(p.theta, *nn_core.BOX)[0][:5], 0.0)
        a_t = np.concatenate(pm.collocation_residuals(
            np.eye(n), batch._log_vo2, batch.segment_bounds, batch._dt_min, lam_a), axis=-1)
        ata = a_t @ a_t.T
        offset = np.subtract.outer(np.arange(n), np.arange(n))
        assert np.all(ata[~np.isin(offset, (-2, 0, 2))] == 0.0)
        assert np.count_nonzero(np.diagonal(ata, 2)) > 0

    @pytest.mark.parametrize("case", [*FOUR_CASES, scaled_w2_case],
                             ids=[*FOUR_CASE_IDS, "w2_scaled"])
    def test_hidden_layer_differences_match_40_digit_reference(self, case):
        # the Taylor form of tanh(z + q) - tanh(z) forms no cancelling
        # difference: measured <= 1.3e-15, where the per-unit tanh passes
        # are off by up to 4.3e-11. On w2_scaled a [w1 | b1] probe moves z
        # by up to 1e-3, and a series one term shorter is off by 1.1e-12
        p, batch = case()
        big = int(np.argmax(np.abs(p.w2).max(axis=0)))  # the column of the largest |w2|
        w1_probes = [(0, 0), (31, 1), (63, 0), (big, 0), (big, 1)]
        w2_probes = [(0, 0), (9, nn_core.HIDDEN), (33, 17), (63, big)]
        want = decimal_hidden_differences(p, batch, w1_probes, w2_probes)
        got = nn_core._loss_differences(p, batch)
        np.testing.assert_allclose([got.layer1[j, c] for j, c in w1_probes], want[0],
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose([got.layer2[i, j] for i, j in w2_probes], want[1],
                                   rtol=1e-13, atol=0)

    def test_w2_past_the_tanh_series_range_is_out_of_bounds(self):
        # max |w2| max(vo2, 1) = 101: a probe's step could pass 1e-3, where
        # the series' dropped terms would no longer be round-off
        p, batch = scaled_w2_case()
        p.w2 *= 101.0 / 99.0
        with pytest.raises(OutOfBounds, match="tanh series"):
            gradient_check(p, batch)

    def test_differences_stay_float64_for_a_float32_batch(self):
        # the oracle reruns the forward pass on a float64 copy of the batch,
        # so it never scores in a training batch's float32 buffers
        p, batch = make_gradcheck_case(0)
        np.testing.assert_array_equal(
            nn_core._loss_differences(p, replace(batch, dtype=np.float32)).flat,
            nn_core._loss_differences(p, batch).flat)

    def test_golden_seeds_agree_with_extended_precision_per_unit_passes(self):
        # tests/golden/gradcheck_seeds.txt prints `pmbnn gradcheck`'s errors.
        # Each is within 1e-5 relative of the error that the per-unit tanh
        # passes give in extended precision: measured <= 8.6e-6 over seeds
        # 0-49, the float64 numerators' ~1e-15 round-off on errors of
        # ~8.5e-11. Seeds 26 and 32 sit on a rounding boundary of the
        # printed fourth digit; 11 is the farthest apart
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("long double is float64 on this platform")
        for seed in (0, 11, 26, 32):
            p, batch = make_gradcheck_case(seed)
            analytic = loss_and_gradients(p, batch)[3].flat
            fd = (per_unit_loss_differences(p, batch, np.longdouble).flat
                  / (2 * np.longdouble(nn_core._FD_STEP)))
            want = np.max(np.abs(analytic - fd) / np.maximum(1e-12, np.abs(analytic) + np.abs(fd)))
            assert abs(gradient_check(*make_gradcheck_case(seed)) - want) <= 1e-5 * want

    def test_probe_scoring_allocates_no_block_sized_temporaries(self):
        import tracemalloc

        p, batch = make_gradcheck_case(0)
        nn_core._loss_differences(p, batch)  # warm-up
        tracemalloc.start()
        try:
            nn_core._loss_differences(p, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # at the check's n = 32 the kernel measured 472 kB, summing the
        # [w2 | b2] K term one diagonal at a time; a dense contraction's
        # (HIDDEN + 1, HIDDEN, n) operand alone, 1.06 MB, exceeds this
        assert len(batch.vo2) == 32
        assert peak < 923_648

    def test_probe_scoring_writes_into_no_input(self):
        p, batch = make_gradcheck_case(0)
        inputs = (p.flat, batch.vo2, batch.hr, batch._log_vo2)
        before = [a.copy() for a in inputs]
        first = nn_core._loss_differences(p, batch).flat
        second = nn_core._loss_differences(p, batch).flat
        np.testing.assert_array_equal(first.view(np.int64), second.view(np.int64))
        for a, b in zip(inputs, before):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def test_checkpoint_round_trip(tmp_path):
    p = xavier_init(31)
    data = checkpoint_bytes(p, LambdaBounds(), 31, "abc123")
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, p, LambdaBounds(), 31, "abc123")
    assert path.read_bytes() == data
    q, seed, chash = load_checkpoint(json.loads(data), path)
    np.testing.assert_array_equal(p.flat, q.flat)
    assert seed == 31 and chash == "abc123"


def test_loss_and_gradients_breakdown_consistency():
    p, batch = make_gradcheck_case(3)
    l_data, l_de, l_tot, _ = loss_and_gradients(p, batch)
    assert l_tot == pytest.approx(l_data + batch.de_weight * l_de, rel=1e-15)
    assert l_data >= 0 and l_de >= 0


def test_segments_under_three_samples_raise():
    # every segment too short for a central difference: no residual at all
    p = xavier_init(4)
    vo2 = np.array([0.5, 0.6, 1.0, 1.1])
    batch = TrainBatch(vo2=vo2, hr=np.full(4, 80.0), segment_bounds=((0, 2), (2, 4)),
                       dt_seconds=1.0, de_weight=1.0)
    with pytest.raises(SegmentTooShort):
        loss_and_gradients(p, batch)
    with pytest.raises(SegmentTooShort):
        loss_only(p, batch)


def test_loss_de_in_bpm_per_minute_squared():
    # the training L_DE equals the mean squared residual of the PM's
    # collocation residual series, in (bpm/min)^2, at the network's lambdas
    from pmbnn.signal_pipeline import UniformSeries

    p, batch = make_gradcheck_case(5)
    pred = UniformSeries(0.0, 1.0, mlp_forward(p, batch.vo2), batch.segment_bounds, "bpm")
    vo2 = UniformSeries(0.0, 1.0, batch.vo2, batch.segment_bounds, "L/min")
    res = residual_series(pred, vo2, lambda_from_theta(p.theta, LambdaBounds()))
    _, l_de, _, _ = loss_and_gradients(p, batch)
    assert l_de == pytest.approx(float(res @ res) / len(res), rel=1e-12)


@pytest.mark.parametrize("edit, key", [
    (lambda c: c.update(extra=1), "extra"),
    (lambda c: c["arrays"].update(w4=[1.0]), "arrays.w4"),
    (lambda c: c["layer_shapes"].update(w4=[1]), "layer_shapes.w4"),
], ids=["top-level", "arrays", "layer_shapes"])
def test_checkpoint_unknown_key_is_io_failure(edit, key):
    # each was ignored and the checkpoint loaded
    ckpt = json.loads(checkpoint_bytes(xavier_init(0), LambdaBounds(), 0, "h"))
    edit(ckpt)
    with pytest.raises(IoFailure, match=f"^ckpt.json: unknown key\\(s\\) {key}$"):
        load_checkpoint(ckpt, "ckpt.json")


@pytest.mark.parametrize("literal, shown", [
    ("1" + "0" * 400, "100000000000000000...0000000000000000000"),   # an OverflowError traceback
    ("1e400", "inf"),   # loaded as inf; reconstruct exited 0
    ("NaN", "nan"),
], ids=["int-10**400", "float-1e400", "nan"])
def test_checkpoint_number_not_a_finite_float_is_io_failure(literal, shown):
    ckpt = json.loads(checkpoint_bytes(xavier_init(0), LambdaBounds(), 0, "h"))
    ckpt["arrays"]["w1"][0] = "@"
    message = f"ckpt.json: arrays.w1[0] must be a finite number, got {shown}"
    with pytest.raises(IoFailure, match=f"^{re.escape(message)}$"):
        load_checkpoint(json.loads(json.dumps(ckpt).replace('"@"', literal)), "ckpt.json")


@pytest.mark.parametrize("edit, message", [
    (lambda c: c["arrays"]["w2"].pop(),
     "arrays.w2 must be a list of 4096, got [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, ...]"),
    (lambda c: c["layer_shapes"].update(w2=[4096]),
     "layer_shapes must be {'w1': [64, 1], 'b1': [64], 'w2': [64, 64], 'b2': [64], "
     "'w3': [1, 64], 'b3': [1], 'theta': [6]}, got {'b1': [64], 'b2': [64], 'b3': [1], "
     "'theta': [6], 'w1': [64, 1], 'w2': [4096], 'w3': [1, 64]}"),
], ids=["array-length", "layer-shape"])
def test_checkpoint_of_another_network_is_io_failure(edit, message):
    # a shorter w2 or a reshaped layer ended in a numpy ValueError
    zeros = xavier_init(0)
    zeros.flat[:] = 0.0
    ckpt = json.loads(checkpoint_bytes(zeros, LambdaBounds(), 0, "h"))
    edit(ckpt)
    with pytest.raises(IoFailure, match=f"^{re.escape('ckpt.json: ' + message)}$"):
        load_checkpoint(ckpt, "ckpt.json")


def test_unwritable_checkpoint_is_io_failure(tmp_path):
    # the directory is absent: open raised FileNotFoundError
    with pytest.raises(IoFailure):
        save_checkpoint(tmp_path / "absent" / "c.json", xavier_init(0), LambdaBounds(), 0, "h")


class TestWorkspace:
    """The loss kernel reuses the batch's scratch buffers between calls."""

    @pytest.fixture
    def case(self):
        # 1,440 samples in six segments, the size of a paper training split
        rng = np.random.default_rng(11)
        n, segs = 1440, 6
        vo2 = 0.4 + 2.6 * rng.uniform(size=n)
        hr = 60.0 + 40.0 * rng.uniform(size=n)
        bounds = tuple((k * n // segs, (k + 1) * n // segs) for k in range(segs))
        batch = TrainBatch(vo2=vo2, hr=hr, segment_bounds=bounds, dt_seconds=1.0,
                           de_weight=1e5 / 3600)
        return xavier_init(2), batch

    def test_no_hidden_sized_allocation(self, case):
        import tracemalloc

        p, batch = case
        loss_and_gradients(p, batch)  # warm-up
        tracemalloc.start()
        try:
            loss_and_gradients(p, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(batch.vo2) * 64 * 8  # one (N, 64) float64 array

    def test_repeat_calls_identical(self, case):
        p, batch = case
        first = loss_and_gradients(p, batch)
        loss_only(p, batch)
        second = loss_and_gradients(p, batch)
        assert first[:3] == second[:3]
        np.testing.assert_array_equal(first[3].flat, second[3].flat)

    def test_gradients_do_not_alias_buffers(self, case):
        p, batch = case
        grads = loss_and_gradients(p, batch)[3]
        for buf in (*batch._work, batch._x1, batch._lv_powers):
            assert not np.shares_memory(grads.flat, buf)

    def test_loss_only_and_forward_agree_bitwise(self, case):
        p, batch = case
        l_data, _, l_tot, _ = loss_and_gradients(p, batch)
        assert loss_only(p, batch) == l_tot
        resid = mlp_forward(p, batch.vo2) - batch.hr
        assert float(resid @ resid) / len(resid) == l_data

    def test_matches_allocating_reference(self, case):
        # the kernel folds the biases into its gemms and scales by w3 after
        # the layer-2 gemm instead of before, so its sums run in another
        # order than the reference's: measured <= 3.1e-15 relative
        from dataclasses import replace

        p, batch = case
        batch = replace(batch, de_weight=0.0)
        X = batch.vo2[:, None]
        a1 = np.tanh(X @ p.w1.T + p.b1)
        a2 = np.tanh(a1 @ p.w2.T + p.b2)
        y = (a2 @ p.w3.T)[:, 0] + p.b3[0]
        dy = (2.0 / len(y)) * (y - batch.hr)
        dz2 = (dy[:, None] @ p.w3) * (1.0 - a2 * a2)
        dz1 = (dz2 @ p.w2) * (1.0 - a1 * a1)
        ref = [dz1.T @ X, dz1.sum(axis=0), dz2.T @ a1, dz2.sum(axis=0),
               dy[:, None].T @ a2, np.array([dy.sum()])]
        grads = loss_and_gradients(p, batch)[3]
        for got, want in zip((getattr(grads, f) for f in ARRAY_FIELDS), ref):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("which", ["six_segments", "uneven_segments"])
    def test_lambda_gradient_matches_per_segment_loop(self, case, which):
        # the moment form against the stencil adjoint written out per segment
        p, batch = case if which == "six_segments" else random_case(
            ((0, 3), (3, 10), (10, 30)))
        y = mlp_forward(p, batch.vo2)
        lam = lambda_from_theta(p.theta, LambdaBounds()).as_array()
        l1, l2, l3, l4, l5, _ = lam
        res = pm.collocation_residuals(y, batch._log_vo2, batch.segment_bounds,
                                       batch._dt_min, lam)
        m = sum(len(f) for f in res)
        dt = batch._dt_min
        dlam = np.zeros(6)
        for (a, b), f in zip(batch.segment_bounds, res):
            lv, h = batch._log_vo2[a:b], y[a:b]
            sv, tpr = l1 * lv + l2, l3 * lv + l4
            pdot = (h[2:] * sv[2:] * tpr[2:] - h[:-2] * sv[:-2] * tpr[:-2]) / (2 * dt)
            dlam[5] -= 2.0 / m * f.sum()
            dlam[4] -= 2.0 / m * (f @ pdot)
            for k, gpart in enumerate((lv * tpr, tpr, sv * lv, sv)):
                c = h * gpart
                dlam[k] -= l5 * 2.0 / m * (f @ ((c[2:] - c[:-2]) / (2 * dt)))
        lo, hi = LambdaBounds().lo_hi_arrays()
        s = nn_core.sigmoid(p.theta)
        want = batch.de_weight * dlam * ((hi - lo) * s * (1.0 - s))  # d lambda / d theta
        got = loss_and_gradients(p, batch)[3].theta
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)  # measured <= 1e-15

    def test_zero_de_weight_gives_exactly_zero_theta_gradient(self, case):
        from dataclasses import replace

        p, batch = case
        l_data, l_de, l_tot, grads = loss_and_gradients(p, replace(batch, de_weight=0.0))
        assert np.all(grads.theta == 0.0)
        assert l_de > 0 and l_tot == l_data  # the residual is still reported


class TestWorkingPrecision:
    """A float32 batch runs the network passes in float32; training uses one."""

    @pytest.fixture(scope="class")
    def train_split(self):
        # criterion 4's first participant: noisy oracle subject 0, filtered, split
        _, _, noisy = oracle_subject(0, noise_sigma_hr=3.0)
        return split_by_activity(preprocess_subject(noisy)).train

    @pytest.mark.parametrize("epochs", [0, 150], ids=["initial", "partly-trained"])
    @pytest.mark.parametrize("de_weight", [1e5 / 3600, 0.0], ids=["pmbnn", "fcnn"])
    def test_float32_batch_matches_float64(self, train_split, de_weight, epochs):
        # measured worst over 36 such points: 2.3e-6 relative in L_tot and
        # 5.3e-6 of the largest gradient entry
        cfg = TrainConfig(seed=100, de_weight=de_weight)
        p = (xavier_init(cfg.seed) if epochs == 0
             else train_pmbnn(train_split, replace(cfg, max_epochs=epochs)).mlp)
        b64 = TrainBatch(vo2=train_split.vo2.values, hr=train_split.hr.values,
                         segment_bounds=train_split.vo2.segment_bounds,
                         dt_seconds=train_split.vo2.dt, de_weight=de_weight)
        _, _, l64, g64 = loss_and_gradients(p, b64)
        _, _, l32, g32 = loss_and_gradients(p, replace(b64, dtype=np.float32))
        assert g32.flat.dtype == np.float64
        assert not np.array_equal(g32.flat, g64.flat)   # the passes did run in float32
        assert l32 == pytest.approx(l64, rel=1e-4)
        assert np.max(np.abs(g32.flat - g64.flat)) <= 1e-4 * np.max(np.abs(g64.flat))

    def test_training_keeps_float64_master_weights(self, train_split):
        model = train_pmbnn(train_split, TrainConfig(max_epochs=5))
        assert model.mlp.flat.dtype == np.float64   # the seven arrays are its views
        assert all(isinstance(l.l_tot, float) for l in model.loss_history)
