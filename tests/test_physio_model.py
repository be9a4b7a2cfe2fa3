import math
from dataclasses import replace

import numpy as np
import pytest
from oracle_utils import coupling_products, residual_series

from pmbnn.errors import (
    LengthMismatch,
    NonPositiveSignal,
    SegmentTooShort,
    Singularity,
)
from pmbnn.nn_core import TrainBatch
from pmbnn.physio_model import (
    DEFAULT_INITIAL,
    LambdaBounds,
    LambdaParams,
    collocation_adjoint,
    collocation_residuals,
    coupling_coefficients,
    den_partials,
    log_vo2_rows,
    simulate_hr,
    trajectory,
)
from pmbnn.signal_pipeline import UniformSeries

INIT = DEFAULT_INITIAL


def vo2_series(values, bounds=None):
    values = np.asarray(values, dtype=float)
    if bounds is None:
        bounds = ((0, len(values)),)
    return UniformSeries(0.0, 1.0, values, bounds, "L/min")


def coupling_g(lam, vo2):
    """g = SV * TPR at each vo2, read off the den = 1 - l5 * g that the
    simulator's trajectory returns."""
    log_vo2 = np.log(np.atleast_1d(np.asarray(vo2, dtype=float)))
    n = len(log_vo2)
    _, den = trajectory(log_vo2, np.arange(n), np.zeros(n), np.full(n, 70.0), 1 / 60,
                        lam.as_array())
    g = (1.0 - den) / lam.l5
    return g if np.ndim(vo2) else float(g[0])


def stroke_volume(lam, vo2):
    """SV = l1 * ln(vo2) + l2: g with TPR = 1 (l3 = 0, l4 = 1), at l5 = 1."""
    return coupling_g(replace(lam, l3=0.0, l4=1.0, l5=1.0), vo2)


def peripheral_resistance(lam, vo2):
    """TPR = l3 * ln(vo2) + l4: g with SV = 1 (l1 = 0, l2 = 1), at l5 = 1/64,
    a power of two, so den stays away from 0 and scaling by l5 is exact."""
    return coupling_g(replace(lam, l1=0.0, l2=1.0, l5=1 / 64), vo2)


def exp_approach(n, start, target, tau=30.0):
    t = np.arange(n, dtype=float)
    return target + (start - target) * np.exp(-t / tau)


class TestHemodynamicAlgebra:
    def test_stroke_volume_at_unit_vo2(self):
        assert stroke_volume(INIT, 1.0) == pytest.approx(0.1, abs=1e-15)

    def test_stroke_volume_at_e(self):
        assert stroke_volume(INIT, math.e) == pytest.approx(0.12, rel=1e-12)

    def test_stroke_volume_rejects_zero_vo2(self):
        # ln(vo2) in the SV and TPR laws needs vo2 > 0
        with pytest.raises(NonPositiveSignal):
            simulate_hr(vo2_series([1.0, 0.0, 1.0]), INIT, [70.0])

    def test_tpr_at_unit_vo2(self):
        assert peripheral_resistance(INIT, 1.0) == pytest.approx(10.5, abs=1e-15)

    def test_tpr_at_e(self):
        assert peripheral_resistance(INIT, math.e) == pytest.approx(5.2, rel=1e-12)

    def test_tpr_log_slope(self):
        lam = LambdaParams(0.02, 0.1, -2.0, 20.0, 0.44, 0.3)
        assert peripheral_resistance(lam, math.e ** 2) == pytest.approx(16.0, rel=1e-12)

    def test_coupling_at_unit_vo2(self):
        assert coupling_g(INIT, 1.0) == pytest.approx(1.05, rel=1e-12)

    def test_coupling_at_e(self):
        assert coupling_g(INIT, math.e) == pytest.approx(0.624, rel=1e-12)

    def test_coupling_equals_expanded_quadratic(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            lam = LambdaParams(*rng.uniform(0.01, 1.0, 2), *rng.uniform(-6, -2, 1),
                               *rng.uniform(7, 20, 1), 0.44, 0.3)
            v = rng.uniform(0.2, 4.0)
            lv = math.log(v)
            expanded = (lam.l1 * lam.l3 * lv ** 2
                        + (lam.l1 * lam.l4 + lam.l2 * lam.l3) * lv
                        + lam.l2 * lam.l4)
            assert coupling_g(lam, v) == pytest.approx(expanded, rel=1e-12)

    def test_map_equals_hr_times_coupling(self):
        # the residual is the dynamics dHR/dt = l5 * dMAP/dt + l6 with
        # MAP = CO * TPR and CO = HR * SV, differenced by hand here
        rng = np.random.default_rng(12)
        n = 30
        hr = rng.uniform(40, 200, n)
        v = rng.uniform(0.2, 4.0, n)
        mean_ap = hr * (INIT.l1 * np.log(v) + INIT.l2) * (INIT.l3 * np.log(v) + INIT.l4)
        dt_min = 1.0 / 60.0
        expected = ((hr[2:] - hr[:-2]) / (2 * dt_min) - INIT.l6
                    - INIT.l5 * (mean_ap[2:] - mean_ap[:-2]) / (2 * dt_min))
        res = residual_series(vo2_series(hr), vo2_series(v), INIT)
        np.testing.assert_allclose(res, expected, rtol=1e-9, atol=1e-9)


class TestOdeRhs:
    def test_table1_value_and_implicit_form(self):
        # at constant vo2 = 1 the dynamics give dHR/dt = l6 / (1 - l5 * g),
        # 0.3 / 0.538 bpm/min for the tabulated initials
        hr = simulate_hr(vo2_series(np.full(3, 1.0)), INIT, [70.0]).values
        rhs = (hr[1] - hr[0]) * 60.0
        assert rhs == pytest.approx(0.3 / 0.538, rel=1e-9)
        # substitute back into the implicit dynamics: rhs = l5*rhs*g + l6
        residual = rhs - INIT.l5 * rhs * coupling_g(INIT, 1.0) - INIT.l6
        assert abs(residual) <= 1e-9

    def test_singularity_raised(self):
        # 1 - l5 * g(1.0) is zero up to round-off: the pole sits on every sample
        lam = LambdaParams(0.02, 0.1, -5.3, 10.5, 1.0 / 1.05, 0.3)
        with pytest.raises(Singularity):
            simulate_hr(vo2_series(np.full(10, 1.0)), lam, [70.0])


class TestSimulateHr:
    def test_constant_vo2_zero_bias_is_constant(self):
        lam = LambdaParams(0.02, 0.1, -5.3, 10.5, 0.44, 0.0)
        hr = simulate_hr(vo2_series(np.full(120, 1.2)), lam, [70.0])
        np.testing.assert_allclose(hr.values, 70.0, atol=1e-12)

    def test_constant_vo2_linear_ramp(self):
        # constant-coefficient dynamics solve in closed form: a linear ramp
        # with slope l6 / (1 - l5*g) per minute
        n = 300
        hr = simulate_hr(vo2_series(np.full(n, 1.0)), INIT, [70.0])
        slope = INIT.l6 / (1.0 - INIT.l5 * coupling_g(INIT, 1.0))
        expected = 70.0 + slope * np.arange(n) / 60.0
        np.testing.assert_allclose(hr.values, expected, atol=1e-9)

    def test_simulated_output_satisfies_residual(self):
        v = vo2_series(exp_approach(400, 0.35, 2.5))
        hr = simulate_hr(v, INIT, [70.0])
        res = residual_series(hr, v, INIT)
        assert np.max(np.abs(res)) <= 1e-8

    def test_initial_count_mismatch(self):
        with pytest.raises(LengthMismatch):
            simulate_hr(vo2_series(np.ones(10)), INIT, [70.0, 80.0])

    def test_singular_configuration(self):
        lam = LambdaParams(0.011, 0.149, -5.9, 12.5, 0.59, 0.0)
        v = vo2_series(exp_approach(200, 0.4, 3.0))
        with pytest.raises(Singularity):
            simulate_hr(v, lam, [70.0])


class TestDeResidualSeries:
    """The collocation residuals of a series, concatenated over its segments."""

    def test_constant_everything_zero_bias(self):
        lam = LambdaParams(0.02, 0.1, -5.3, 10.5, 0.44, 0.0)
        hr = vo2_series(np.full(50, 70.0))
        v = vo2_series(np.full(50, 1.0))
        np.testing.assert_allclose(residual_series(hr, v, lam), 0.0, atol=1e-15)

    def test_bias_only_survives(self):
        hr = vo2_series(np.full(50, 70.0))
        v = vo2_series(np.full(50, 1.0))
        res = residual_series(hr, v, INIT)
        np.testing.assert_allclose(res, -0.3, atol=1e-15)

    def test_length_shorter_by_two_per_segment(self):
        bounds = ((0, 20), (20, 50))
        hr = vo2_series(np.linspace(70, 90, 50), bounds)
        v = vo2_series(np.linspace(0.4, 2.0, 50), bounds)
        assert len(residual_series(hr, v, INIT)) == 50 - 2 * 2

    def test_segment_too_short(self):
        bounds = ((0, 2),)
        hr = vo2_series([70.0, 71.0], bounds)
        v = vo2_series([1.0, 1.0], bounds)
        with pytest.raises(SegmentTooShort):
            residual_series(hr, v, INIT)

    def test_misaligned_series(self):
        # the training batch, whose L_DE is this series' mean square, takes
        # hr and vo2 of one length only
        with pytest.raises(LengthMismatch):
            TrainBatch(vo2=np.full(40, 1.0), hr=np.full(50, 70.0), segment_bounds=((0, 40),),
                       dt_seconds=1.0, de_weight=1.0)


def test_collocation_residuals_batch_axis_matches_rows():
    # a (K, n) stack with (K, 1) lambda columns is K 1-D calls, bit for bit
    rng = np.random.default_rng(3)
    k, segs = 5, ((0, 3), (3, 17), (17, 40))
    hr = 70.0 + 30.0 * rng.uniform(size=(k, 40))
    log_vo2 = np.log(rng.uniform(0.4, 3.0, 40))
    lo, hi = LambdaBounds().lo_hi_arrays()
    lam = rng.uniform(lo, hi, size=(k, 6))
    stacked = collocation_residuals(hr, log_vo2, segs, 1 / 60, lam.T[:, :, None])
    for row in range(k):
        flat = collocation_residuals(hr[row], log_vo2, segs, 1 / 60, lam[row])
        for got, want in zip(stacked, flat):
            assert np.array_equal(got[row], want)
    # a (2, K, n) stack with scalar lambdas, the gradient check's call shape
    pairs = 70.0 + 30.0 * rng.uniform(size=(2, k, 40))
    stacked = collocation_residuals(pairs, log_vo2, segs, 1 / 60, lam[0])
    for j in range(2):
        for row in range(k):
            flat = collocation_residuals(pairs[j, row], log_vo2, segs, 1 / 60, lam[0])
            for got, want in zip(stacked, flat):
                assert got.shape == (2, k, len(want))
                assert np.array_equal(got[j, row], want)


def test_coupling_coefficients_match_the_oracles():
    # the table's g row is the oracle's products, lowest power first, and each
    # partial row applied to [1, lv, lv^2] is a central difference of g, which
    # is linear in each lambda, so the difference is exact up to round-off
    rng = np.random.default_rng(14)
    lo, hi = LambdaBounds().lo_hi_arrays()
    v = rng.uniform(0.25, 3.5, 30)
    rows = log_vo2_rows(v)
    assert np.array_equal(rows, [np.ones(30), np.log(v), np.log(v) ** 2])
    for _ in range(20):
        lam = rng.uniform(lo, hi)
        coef = coupling_coefficients(lam)
        assert np.array_equal(coef[4], coupling_products(LambdaParams.from_array(lam))[::-1])
        for k in range(4):
            step = np.where(np.arange(6) == k, 1e-3 * (hi[k] - lo[k]), 0.0)
            fd = (coupling_g(LambdaParams.from_array(lam + step), v)
                  - coupling_g(LambdaParams.from_array(lam - step), v)) / (2.0 * step[k])
            np.testing.assert_allclose(coef[k] @ rows, fd, rtol=1e-7, atol=1e-8)
    for bad in (0.0, -1.0):
        with pytest.raises(NonPositiveSignal):
            log_vo2_rows([1.0, bad, 2.0])


@pytest.mark.parametrize("segs", [((0, 30),), ((0, 3), (3, 10), (10, 30)),
                                  ((0, 3), (3, 6), (6, 9))])
def test_collocation_adjoint_is_the_transposed_stencil(segs):
    # A^T, the residual's linear part in hr, one row per unit series: with
    # l5 = l6 = 0 the residuals of the identity are the stencil's columns
    rng = np.random.default_rng(len(segs))
    n, dt_min = segs[-1][1], 1 / 60
    lv = np.log(rng.uniform(0.4, 3.0, n))
    lam = [*rng.uniform(*LambdaBounds().lo_hi_arrays())[:4], 0.0, 0.0]
    a_t = np.concatenate(collocation_residuals(np.eye(n), lv, segs, dt_min, lam), axis=-1)
    res = [rng.normal(size=b - a - 2) for a, b in segs]
    q = collocation_adjoint(res, segs, n, dt_min)
    np.testing.assert_allclose(q, a_t @ np.concatenate(res), rtol=0,
                               atol=1e-13 * np.abs(q).max())


def test_den_partials_match_central_differences():
    # sum v (1 - l5 g) is linear in each of l1..l5, so a central difference
    # of it is exact up to round-off
    rng = np.random.default_rng(15)
    lo, hi = LambdaBounds().lo_hi_arrays()
    vo2 = rng.uniform(0.25, 3.5, 30)
    v = rng.normal(size=30)
    rows = log_vo2_rows(vo2)

    def weighted_den(lam):
        return v @ (1.0 - lam[4] * coupling_g(LambdaParams.from_array(lam), vo2))

    for _ in range(20):
        lam = rng.uniform(lo, hi)
        fd = []
        for k in range(5):
            step = np.where(np.arange(6) == k, 1e-3 * (hi[k] - lo[k]), 0.0)
            fd.append((weighted_den(lam + step) - weighted_den(lam - step)) / (2.0 * step[k]))
        np.testing.assert_allclose(den_partials(lam, rows, v), fd, rtol=1e-7, atol=1e-8)


class TestModelInvariants:
    def test_sv_monotone_increasing_tpr_decreasing(self):
        lo, hi = LambdaBounds().lo_hi_arrays()
        grid = np.linspace(0.25, 3.5, 200)
        rng = np.random.default_rng(13)
        for _ in range(20):
            q = rng.uniform(0.05, 0.95, 6)
            lam = LambdaParams.from_array(lo + q * (hi - lo))
            sv = stroke_volume(lam, grid)
            tpr = peripheral_resistance(lam, grid)
            assert np.all(np.diff(sv) > 0)
            assert np.all(np.diff(tpr) < 0)

    def test_simulation_segment_local(self):
        v1 = exp_approach(80, 0.4, 1.2)
        v2 = exp_approach(90, 1.2, 2.8)
        fwd = simulate_hr(
            vo2_series(np.concatenate([v1, v2]), ((0, 80), (80, 170))),
            INIT, [70.0, 95.0],
        )
        rev = simulate_hr(
            vo2_series(np.concatenate([v2, v1]), ((0, 90), (90, 170))),
            INIT, [95.0, 70.0],
        )
        np.testing.assert_array_equal(fwd.values[:80], rev.values[90:])
        np.testing.assert_array_equal(fwd.values[80:], rev.values[:90])

    def test_identifiability_equal_products_equal_output(self):
        v = vo2_series(exp_approach(240, 0.35, 2.5))
        lam = LambdaParams(0.02, 0.1, -5.3, 10.5, 0.44, 0.3)
        c = 1.25
        scaled = LambdaParams(0.02 * c, 0.1 * c, -5.3 / c, 10.5 / c, 0.44, 0.3)
        a = simulate_hr(v, lam, [70.0]).values
        b = simulate_hr(v, scaled, [70.0]).values
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_sv_band_diagnostic_reported(self):
        # physiological plausibility band, reported rather than asserted
        grid = np.linspace(0.25, 3.5, 100)
        sv = stroke_volume(INIT, grid)
        in_band = np.mean((sv >= 0.057) & (sv <= 0.144))
        print(f"sv band coverage for tabulated initials: {in_band:.1%}")
        assert 0.0 <= in_band <= 1.0


class TestLambdaBounds:
    def test_defaults_contain_initials_strictly(self):
        assert LambdaBounds().contains(DEFAULT_INITIAL, strict=True)

    def test_inverted_bounds_rejected(self):
        # LambdaBounds() is the one box: no field can be set, so no pair can
        # be inverted, and each default (lo, hi) pair is ordered
        with pytest.raises(TypeError):
            LambdaBounds(l1=(0.03, 0.01))
        assert all(lo < hi for _, (lo, hi) in LambdaBounds().items())

    def test_from_array_wrong_length(self):
        with pytest.raises(LengthMismatch):
            LambdaParams.from_array([1.0, 2.0])
