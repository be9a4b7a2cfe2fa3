import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import ORACLE_INIT, oracle_subject

from pmbnn.errors import OutOfBounds, PmbnnError, SegmentTooShort, Singularity
from pmbnn.experiment import (
    ActivityPhase,
    SyntheticSpec,
    fit_model,
    generate_synthetic_subject,
    reconstruct_pmbnn_r,
    split_by_activity,
)
from pmbnn.physio_model import LambdaBounds, LambdaParams, de_residual_series
from pmbnn.signal_pipeline import (
    SubjectRecord,
    UniformSeries,
    parse_recording_csv,
    preprocess_subject,
    resample_linear_1hz,
)
from pmbnn.stats_eval import MetricPair, rmse, score_predictions
from pmbnn.training import PmFitConfig, TrainConfig, fit_pm


def make_record(n_per_segment, labels=None):
    chunks = []
    bounds = []
    pos = 0
    for n in n_per_segment:
        chunks.append(np.linspace(0.5, 2.5, n))
        bounds.append((pos, pos + n))
        pos += n
    labels = labels or [f"act{i}" for i in range(len(n_per_segment))]
    all_labels = []
    for (a, b), lab in zip(bounds, labels):
        all_labels.extend([lab] * (b - a))
    vo2 = UniformSeries(0.0, 1.0, np.concatenate(chunks), tuple(bounds), "L/min")
    hr = UniformSeries(0.0, 1.0, 60.0 + np.arange(pos, dtype=float), tuple(bounds), "bpm")
    return SubjectRecord("t", vo2, hr, tuple(all_labels))


def segment_labels(rec):
    return tuple(rec.activity_labels[a] for a, _ in rec.vo2.segment_bounds)


class TestSplitByActivity:
    def test_eighty_twenty_on_300(self):
        split = split_by_activity(make_record([300]))
        assert len(split.train) == 240 and len(split.test) == 60

    def test_floor_rule_on_5(self):
        split = split_by_activity(make_record([5]))
        assert len(split.train) == 4 and len(split.test) == 1

    def test_three_segments_order_preserved(self):
        rec = make_record([100, 100, 100], ["rest", "cycle", "run"])
        split = split_by_activity(rec)
        assert split.train.vo2.segment_bounds == ((0, 80), (80, 160), (160, 240))
        assert segment_labels(split.train) == ("rest", "cycle", "run")
        assert segment_labels(split.test) == ("rest", "cycle", "run")

    def test_coverage_and_disjointness(self):
        rec = make_record([17, 41, 99])
        split = split_by_activity(rec)
        merged = np.sort(np.concatenate([split.train_indices, split.test_indices]))
        np.testing.assert_array_equal(merged, np.arange(len(rec)))

    def test_values_follow_provenance(self):
        rec = make_record([30, 50])
        split = split_by_activity(rec)
        np.testing.assert_array_equal(
            split.train.hr.values, rec.hr.values[split.train_indices]
        )
        np.testing.assert_array_equal(
            split.test.vo2.values, rec.vo2.values[split.test_indices]
        )

    def test_deterministic(self):
        rec = make_record([64, 101])
        a, b = split_by_activity(rec), split_by_activity(rec)
        assert a.provenance_hash() == b.provenance_hash()

    def test_short_segment_rejected(self):
        with pytest.raises(SegmentTooShort):
            split_by_activity(make_record([4]))

    @pytest.mark.parametrize("ratio", [2.0, math.nan, 1.0, 0.0, -0.5, math.inf])
    def test_ratio_outside_unit_interval_rejected(self, ratio):
        with pytest.raises(OutOfBounds, match="split.ratio"):
            split_by_activity(make_record([300]), ratio)

    @pytest.mark.parametrize("ratio, lengths", [(0.1, [300, 5]), (1e-300, [300])])
    def test_ratio_leaving_an_empty_train_chunk_rejected(self, ratio, lengths):
        # floor(ratio * n) is 0 for the last segment
        with pytest.raises(SegmentTooShort, match="split.ratio"):
            split_by_activity(make_record(lengths), ratio)


_RATIOS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 1.0),
    # nextafter(1, 0): the largest ratio below 1 must still leave a test sample
    st.sampled_from([math.nan, 0.0, 1.0, 1.5, -0.5, 0.8, math.nextafter(1.0, 0.0)]),
)


@given(st.lists(st.integers(1, 40), min_size=1, max_size=5), _RATIOS)
@settings(max_examples=300, deadline=None)
def test_split_property_partition_or_typed_error(lengths, ratio):
    rec = make_record(lengths)
    try:
        split = split_by_activity(rec, ratio)
    except PmbnnError:
        return
    merged = np.sort(np.concatenate([split.train_indices, split.test_indices]))
    np.testing.assert_array_equal(merged, np.arange(len(rec)))
    n_seg = len(rec.vo2.segment_bounds)
    seg_ids = np.repeat(np.arange(n_seg), [b - a for a, b in rec.vo2.segment_bounds])
    assert np.all(np.bincount(seg_ids[split.train_indices], minlength=n_seg) >= 1)
    assert np.all(np.bincount(seg_ids[split.test_indices], minlength=n_seg) >= 1)


@st.composite
def _recording_csv(draw):
    """CSV bytes: label blocks of rows, clean or with empty, non-finite or
    junk cells, in time order or with two rows swapped."""
    cell = st.floats(0.05, 250.0).map(repr)
    if draw(st.booleans()):
        cell = st.one_of(cell, st.sampled_from(["", "nan", "inf", "-inf", "1e999", "abc",
                                                "0", "-3", " 72 "]))
    rows, t = [], draw(st.floats(-5.0, 5.0))
    for label in draw(st.lists(st.sampled_from(["rest", "cycle", "run", ""]),
                               min_size=1, max_size=4)):
        for _ in range(draw(st.integers(1, 40))):
            t += draw(st.floats(0.2, 4.0))
            rows.append([repr(t), draw(cell), draw(cell), label])
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows[i], rows[j] = rows[j], rows[i]
    text = "time_s,vo2_lpm,hr_bpm,activity\n" + "".join(",".join(r) + "\n" for r in rows)
    return text.encode()


@given(_recording_csv())
@settings(max_examples=80, deadline=None)
def test_csv_chain_property_valid_output_or_typed_error(data):
    # parse -> resample -> preprocess -> split -> score never ends in an
    # untyped exception or a non-finite score
    try:
        rec = preprocess_subject(resample_linear_1hz(parse_recording_csv(data, "p")))
        split = split_by_activity(rec)
        test = split.test
        scores = score_predictions(test.hr.values, 60.0 + 20.0 * test.vo2.values,
                                   test.activity_labels)
    except PmbnnError:
        return
    assert np.all(np.isfinite(rec.hr.values)) and np.all(rec.vo2.values > 0)
    for pair in (scores["overall"], *scores["per_activity"].values()):
        MetricPair(**pair)   # finite rmse >= 0, r2 null or finite and <= 1


class TestGenerateSyntheticSubject:
    def test_rest_plateau_constant_hr(self):
        lam = LambdaParams(0.02, 0.1, -5.3, 10.5, 0.44, 0.0)
        spec = SyntheticSpec(
            "flat", (ActivityPhase("rest", 120, 0.4),), lam, hr0=68.0, seed=1
        )
        rec = generate_synthetic_subject(spec)
        np.testing.assert_allclose(rec.hr.values, 68.0, atol=1e-12)
        np.testing.assert_allclose(rec.vo2.values, 0.4, atol=1e-12)

    def test_zero_noise_satisfies_dynamics(self):
        lam_true, _, rec = oracle_subject(5)
        res = de_residual_series(rec.hr, rec.vo2, lam_true)
        assert np.max(np.abs(res)) <= 1e-8

    def test_same_seed_bitwise_identical(self):
        _, _, a = oracle_subject(6, noise_sigma_hr=3.0)
        _, _, b = oracle_subject(6, noise_sigma_hr=3.0)
        np.testing.assert_array_equal(a.hr.values, b.hr.values)
        np.testing.assert_array_equal(a.vo2.values, b.vo2.values)

    def test_labels_merge_adjacent_phases(self):
        _, _, rec = oracle_subject(0)
        assert segment_labels(rec) == ("rest", "cycle", "run")
        assert len(rec.vo2.segment_bounds) == 3

    def test_vo2_continuous_across_phases(self):
        _, _, rec = oracle_subject(0)
        steps = np.abs(np.diff(rec.vo2.values))
        assert steps.max() < 0.1

    def test_singular_spec_rejected_with_diagnostic(self):
        lam = LambdaParams(0.011, 0.149, -5.9, 12.5, 0.59, 0.0)
        spec = SyntheticSpec(
            "bad",
            (ActivityPhase("rest", 120, 0.4), ActivityPhase("run", 120, 3.0)),
            lam, hr0=70.0, seed=1,
        )
        with pytest.raises(Singularity):
            generate_synthetic_subject(spec)


class TestReconstruct:
    def test_true_lambda_reproduces_measured(self):
        lam_true, _, rec = oracle_subject(7)
        split = split_by_activity(rec)
        recon = reconstruct_pmbnn_r(split.test, lam_true)
        assert rmse(split.test.hr.values, recon.values) <= 1e-6

    def test_out_of_bounds_lambda_rejected(self):
        _, _, rec = oracle_subject(7)
        split = split_by_activity(rec)
        bad = LambdaParams(0.5, 0.1, -5.3, 10.5, 0.44, 0.0)
        message = f"{bad} outside bounds {LambdaBounds()}"
        with pytest.raises(OutOfBounds, match=f"^{re.escape(message)}$"):
            reconstruct_pmbnn_r(split.test, bad)

    def test_singular_lambda_surfaces_no_partial_series(self):
        lam = LambdaParams(0.011, 0.149, -5.9, 12.5, 0.59, 0.0)
        n = 200
        v = UniformSeries(0.0, 1.0, np.linspace(0.4, 3.0, n), ((0, n),), "L/min")
        hr = UniformSeries(0.0, 1.0, np.full(n, 80.0), ((0, n),), "bpm")
        rec = SubjectRecord("s", v, hr, ("run",) * n)
        with pytest.raises(Singularity):
            reconstruct_pmbnn_r(rec, lam)


def fit_and_score(rec, train, pm):
    """One subject's experiment: split once, fit PMB-NN, FCNN and the PM on
    the train part with fit_model, reconstruct PMB-NN-R from PMB-NN's
    lambdas, and score each model's test predictions."""
    split = split_by_activity(rec)
    fits = {m: fit_model(m, split, train, pm) for m in ("pmbnn", "fcnn", "pm")}
    preds = {m: fit.predictions for m, fit in fits.items()}
    preds["pmbnn_r"] = reconstruct_pmbnn_r(split.test, fits["pmbnn"].lam).values
    test = split.test
    scores = {m: score_predictions(test.hr.values, p, test.activity_labels)
              for m, p in preds.items()}
    return split, fits, preds, scores


@pytest.fixture(scope="module")
def experiment_result():
    _, _, rec = oracle_subject(0, noise_sigma_hr=3.0)
    return fit_and_score(preprocess_subject(rec), TrainConfig(seed=11), PmFitConfig())


class TestRunSubjectExperiment:
    def test_easy_subject_pmbnn_r2(self, experiment_result):
        *_, scores = experiment_result
        assert scores["pmbnn"]["overall"]["r2"] >= 0.9

    def test_all_models_present_with_shared_split(self, experiment_result):
        split, _, preds, _ = experiment_result
        assert set(preds) == {"pmbnn", "fcnn", "pm", "pmbnn_r"}
        for pred in preds.values():
            assert pred.shape == split.test.hr.values.shape

    def test_per_activity_metrics_for_each_label(self, experiment_result):
        *_, scores = experiment_result
        for score in scores.values():
            assert set(score["per_activity"]) == {"rest", "cycle", "run"}
            for metrics in score["per_activity"].values():
                assert metrics["rmse"] >= 0

    def test_pm_prediction_is_reconstruction_code_path(self, experiment_result):
        split, fits, _, _ = experiment_result
        again = reconstruct_pmbnn_r(split.test, fits["pm"].lam).values
        np.testing.assert_array_equal(fits["pm"].predictions, again)


def test_five_sample_segment_scores_without_r2():
    # a 5-sample activity leaves 1 test sample: R^2 is undefined there
    rec = make_record([5, 60], ["sprint", "rest"])
    *_, scores = fit_and_score(rec, TrainConfig(seed=1, max_epochs=3), PmFitConfig(iters=3))
    for score in scores.values():
        assert score["per_activity"]["sprint"]["r2"] is None
        assert score["per_activity"]["sprint"]["rmse"] >= 0
        assert score["per_activity"]["rest"]["r2"] is not None


def test_oracle_soundness_zero_noise_fit():
    _, _, rec = oracle_subject(8)
    split = split_by_activity(rec)
    lam_fit, _ = fit_pm(split.train, init=ORACLE_INIT)
    pred = reconstruct_pmbnn_r(split.test, lam_fit).values
    assert rmse(split.test.hr.values, pred) <= 0.5
