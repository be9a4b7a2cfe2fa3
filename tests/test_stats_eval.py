import itertools
import json
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from pmbnn.errors import EmptySeries, LengthMismatch, OutOfBounds
from pmbnn.stats_eval import (
    MetricPair,
    SubjectMetrics,
    build_eval_report,
    cohens_d_paired,
    emit_report,
    r_squared,
    rmse,
    score_predictions,
    signed_rank_distribution,
    summary_stats,
    wilcoxon_signed_rank,
)


class TestRSquared:
    def test_perfect_prediction(self):
        x = np.array([1.0, 2.0, 5.0])
        assert r_squared(x, x) == 1.0

    def test_mean_prediction_scores_zero(self):
        ref = np.array([3.0, 7.0, 11.0, 19.0])
        pred = np.full(4, ref.mean())
        assert r_squared(ref, pred) == 0.0

    def test_hand_arithmetic(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(0.5, abs=1e-15)

    def test_can_be_negative(self):
        assert r_squared([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) < 0

    def test_constant_reference(self):
        assert r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) is None

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            r_squared([1.0, 2.0], [1.0])


class TestScorePredictions:
    def test_overall_and_per_activity(self):
        ref = np.array([60.0, 62.0, 65.0, 90.0, 95.0, 97.0])
        pred = ref + np.array([1.0, -1.0, 0.5, 2.0, 0.0, -2.0])
        labels = ["rest"] * 3 + ["run"] * 3
        scores = score_predictions(ref, pred, labels)
        assert scores["overall"] == {"r2": r_squared(ref, pred), "rmse": rmse(ref, pred)}
        assert list(scores["per_activity"]) == ["rest", "run"]
        assert scores["per_activity"]["run"] == {
            "r2": r_squared(ref[3:], pred[3:]), "rmse": rmse(ref[3:], pred[3:])}

    def test_r2_none_where_undefined(self):
        # one sample, or a constant reference: R^2 is None, RMSE still defined
        ref = np.array([60.0, 70.0, 80.0, 75.0, 75.0])
        pred = np.array([61.0, 69.0, 81.0, 74.0, 77.0])
        scores = score_predictions(ref, pred, ["a", "a", "a", "b", "b"])
        assert scores["per_activity"]["b"] == {"r2": None, "rmse": math.sqrt(2.5)}
        one = score_predictions(ref[:1], pred[:1], ["a"])
        assert one["overall"] == {"r2": None, "rmse": 1.0}

    def test_empty_rejected(self):
        with pytest.raises(EmptySeries):
            score_predictions([], [], [])

    def test_label_count_mismatch(self):
        with pytest.raises(LengthMismatch):
            score_predictions([1.0, 2.0], [1.0, 2.0], ["a"])


class TestRmse:
    def test_identical(self):
        assert rmse([70.0, 80.0], [70.0, 80.0]) == 0.0

    def test_constant_offset(self):
        x = np.linspace(0, 10, 7)
        assert rmse(x, x + 3.5) == pytest.approx(3.5, rel=1e-14)

    def test_hand_arithmetic(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), rel=1e-15)

    def test_empty(self):
        with pytest.raises(EmptySeries):
            rmse([], [])

    @given(st.floats(-1e3, 1e3).filter(lambda a: abs(a) > 1e-6))
    @settings(max_examples=60, deadline=None)
    def test_scale_equivariance(self, alpha):
        ref = np.array([1.0, 4.0, 9.0, 16.0])
        pred = np.array([2.0, 3.0, 10.0, 15.0])
        assert rmse(alpha * ref, alpha * pred) == pytest.approx(
            abs(alpha) * rmse(ref, pred), rel=1e-12
        )

    def test_r2_invariant_under_common_affine_map(self):
        rng = np.random.default_rng(31)
        ref = rng.normal(size=50)
        pred = ref + rng.normal(scale=0.3, size=50)
        base = r_squared(ref, pred)
        assert r_squared(5.0 * ref - 2.0, 5.0 * pred - 2.0) == pytest.approx(base, rel=1e-12)

    def test_r2_rmse_algebraic_identity(self):
        rng = np.random.default_rng(32)
        ref = rng.normal(size=40)
        pred = ref + rng.normal(scale=0.5, size=40)
        ss_tot = float(np.sum((ref - ref.mean()) ** 2))
        identity = 1.0 - (rmse(ref, pred) ** 2 * len(ref)) / ss_tot
        assert r_squared(ref, pred) == pytest.approx(identity, rel=1e-12)


def brute_force_one_tailed_p(diffs, alternative):
    """Oracle: enumerate every sign assignment of the |d| ranks."""
    ranks = scipy.stats.rankdata(np.abs(diffs))
    w_obs = ranks[np.asarray(diffs) > 0].sum()
    n = len(diffs)
    count = 0
    for signs in itertools.product((1, -1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s > 0)
        if alternative == "greater" and w >= w_obs - 1e-9:
            count += 1
        if alternative == "less" and w <= w_obs + 1e-9:
            count += 1
    return count / 2 ** n


class TestWilcoxon:
    def test_five_positive_distinct(self):
        x = np.array([5.0, 6.0, 7.0, 8.0, 9.0])
        y = np.array([4.0, 4.5, 5.0, 5.5, 6.0])
        res = wilcoxon_signed_rank(x, y, "greater")
        assert res.p_one_tailed == 1.0 / 32.0
        assert res.exact and res.n_pairs == 5

    def test_twelve_positive_distinct(self):
        x = np.arange(1.0, 13.0)
        y = x - np.linspace(0.5, 1.5, 12)
        res = wilcoxon_signed_rank(x, y, "greater")
        assert res.p_one_tailed == 1.0 / 4096.0

    def test_all_zero_differences(self):
        x = np.array([1.0, 2.0, 3.0])
        assert wilcoxon_signed_rank(x, x) is None

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(33)
        for n in (4, 6, 8):
            for alternative in ("greater", "less"):
                d = rng.normal(size=n)
                while len(np.unique(np.abs(d))) != n or np.any(d == 0):
                    d = rng.normal(size=n)
                res = wilcoxon_signed_rank(d, np.zeros(n), alternative)
                oracle = brute_force_one_tailed_p(d, alternative)
                assert res.p_one_tailed == pytest.approx(oracle, abs=1e-12)

    def test_distribution_sums_to_one(self):
        for n in (5, 9, 14):
            counts = signed_rank_distribution(n)
            assert counts.sum() == 2 ** n
            assert (counts / 2.0 ** n).sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_differences_dropped_and_counted(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        y = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 5.0])
        res = wilcoxon_signed_rank(x, y, "greater")
        assert res.n_zero_dropped == 2
        assert res.n_pairs == 4

    def test_ties_use_normal_approximation(self):
        x = np.array([3.0, 3.0, 5.0, 5.0, 8.0, 1.0, 9.0, 2.0])
        y = np.zeros(8)
        res = wilcoxon_signed_rank(x, y, "greater")
        assert not res.exact
        ref = scipy.stats.wilcoxon(
            x, alternative="greater", correction=True, method="approx"
        )
        assert res.p_one_tailed == pytest.approx(ref.pvalue, rel=1e-9)

    @pytest.mark.parametrize("d", [
        [2.0, -2.0, 2.0, 0.0, 4.0, -1.0, 6.0, 6.0, -6.0, 0.0],
        [1.5, -0.5, 1.0, 0.5] * 6 + [-1.5, 2.0],
    ], ids=["runs-of-three-and-zeros", "runs-of-six-n26"])
    def test_tie_runs_match_scipy_approx(self, d):
        # average ranks and tie correction for longer runs of equal |d|
        for alternative in ("greater", "less"):
            res = wilcoxon_signed_rank(d, np.zeros(len(d)), alternative)
            ref = scipy.stats.wilcoxon(d, alternative=alternative, correction=True,
                                       method="approx")
            assert res.p_one_tailed == pytest.approx(ref.pvalue, rel=1e-9)

    def test_large_sample_matches_scipy_approx(self):
        rng = np.random.default_rng(34)
        d = rng.normal(0.4, 1.0, size=30)
        res = wilcoxon_signed_rank(d, np.zeros(30), "greater")
        assert not res.exact
        ref = scipy.stats.wilcoxon(
            d, alternative="greater", correction=True, method="approx"
        )
        assert res.p_one_tailed == pytest.approx(ref.pvalue, rel=1e-9)

    def test_bad_alternative_is_out_of_bounds(self):
        # was LengthMismatch
        with pytest.raises(OutOfBounds, match="alternative"):
            wilcoxon_signed_rank([1.0, 2.0], [0.0, 0.0], "two-sided")


class TestMetricPair:
    def test_accepts_scores(self):
        assert MetricPair(r2=None, rmse=0.0).rmse == 0.0
        assert MetricPair(r2=-3.5, rmse=2.0).r2 == -3.5
        assert MetricPair(r2=1.0, rmse=0.0).r2 == 1.0

    @pytest.mark.parametrize("r2, rmse_value", [
        (0.5, -1.0),              # was LengthMismatch
        (0.5, math.nan),          # was accepted
        (0.5, math.inf),
        (math.nan, 1.0),
        (-math.inf, 1.0),
        (1.5, 1.0),               # was LengthMismatch
    ])
    def test_out_of_range_is_out_of_bounds(self, r2, rmse_value):
        with pytest.raises(OutOfBounds):
            MetricPair(r2=r2, rmse=rmse_value)


class TestCohensD:
    def test_symmetric_differences_score_zero(self):
        assert cohens_d_paired([0.0, 0.0], [1.0, -1.0]) == 0.0

    def test_hand_arithmetic(self):
        assert cohens_d_paired([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]) == 2.0

    def test_zero_variance(self):
        assert cohens_d_paired([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]) is None

    def test_antisymmetry(self):
        rng = np.random.default_rng(35)
        x, y = rng.normal(size=10), rng.normal(size=10)
        assert cohens_d_paired(x, y) == pytest.approx(-cohens_d_paired(y, x), rel=1e-12)


class TestSummaryStats:
    def test_odd_length(self):
        assert summary_stats([3.0, 1.0, 2.0]) == (2.0, 3.0, 1.0)

    def test_even_length_median(self):
        assert summary_stats([1.0, 2.0, 3.0, 4.0])[0] == 2.5

    def test_singleton(self):
        assert summary_stats([7.0]) == (7.0, 7.0, 7.0)

    def test_empty(self):
        with pytest.raises(EmptySeries):
            summary_stats([])


def mock_subjects(n=12, with_pmbnn_r=False):
    rng = np.random.default_rng(40)
    subjects = []
    models = ["pmbnn", "fcnn", "pm"] + (["pmbnn_r"] if with_pmbnn_r else [])
    for i in range(n):
        overall, per_activity = {}, {}
        for m in models:
            base = {"pmbnn": 0.85, "fcnn": 0.84, "pm": 0.6, "pmbnn_r": 0.62}[m]
            overall[m] = MetricPair(
                r2=base + 0.1 * rng.uniform(-1, 1),
                rmse=8.0 + (4.0 if m in ("pm", "pmbnn_r") else 0.0) + rng.uniform(0, 3),
            )
        for act in ("rest", "cycle", "run"):
            per_activity[act] = {
                m: MetricPair(r2=rng.uniform(-2, 0.9), rmse=rng.uniform(2, 30))
                for m in models
            }
        subjects.append(SubjectMetrics(f"{i + 1:02d}", overall, per_activity))
    return subjects


class TestReport:
    def test_twelve_subjects_csv_shape(self):
        files = emit_report(build_eval_report(mock_subjects()))
        assert sorted(files) == ["boxplot_long.csv", "report.csv", "report.json",
                                 "report_by_activity.csv"]
        lines = files["report.csv"].decode().strip().split("\n")
        assert lines[0] == "participant,model,r2,rmse"
        data_rows = [l for l in lines[1:] if not l.startswith(("p_value", "d_value"))]
        footer_rows = [l for l in lines[1:] if l.startswith(("p_value", "d_value"))]
        assert len(data_rows) == 12 * 3
        # p and d rows for pmbnn-vs-fcnn and pmbnn-vs-pm
        assert len(footer_rows) == 4

    def test_per_activity_csv_has_activity_column(self):
        files = emit_report(build_eval_report(mock_subjects()))
        lines = files["report_by_activity.csv"].decode().strip().split("\n")
        assert lines[0] == "participant,model,r2,rmse,activity"
        assert len([l for l in lines if l.endswith(",rest")]) == 12 * 3 + 4

    def test_single_subject_marks_insufficient_pairs(self):
        report = build_eval_report(mock_subjects(1))
        assert all(v == "insufficient pairs" for v in report.comparisons.values())
        text = emit_report(report)["report.csv"].decode()
        assert "insufficient pairs" in text

    def test_json_round_trip(self):
        # every metric and test statistic reads back from report.json exactly
        report = build_eval_report(mock_subjects())
        payload = json.loads(emit_report(report)["report.json"])
        assert payload["models"] == list(report.models)
        for s, entry in zip(report.subjects, payload["subjects"]):
            assert entry["participant"] == s.participant
            for m, mp in s.overall.items():
                assert entry["overall"][m] == {"r2": mp.r2, "rmse": mp.rmse}
            for act, by_model in s.per_activity.items():
                for m, mp in by_model.items():
                    assert entry["per_activity"][act][m] == {"r2": mp.r2, "rmse": mp.rmse}
        assert payload["summary"] == report.summary
        for key, res in report.comparisons.items():
            got = payload["comparisons"][key]
            assert got["p_one_tailed"] == res.p_one_tailed
            assert got["cohens_d"] == res.cohens_d
            assert (got["n_pairs"], got["direction"], got["exact"]) == (
                res.n_pairs, res.direction, res.exact)
        assert set(payload["per_activity_comparisons"]) == set(
            report.per_activity_comparisons)

    def test_summary_medians_are_sample_medians(self):
        subjects = mock_subjects()
        report = build_eval_report(subjects)
        vals = sorted(s.overall["pmbnn"].r2 for s in subjects)
        expected = 0.5 * (vals[5] + vals[6])
        assert report.summary["pmbnn"]["r2"]["median"] == pytest.approx(expected, rel=1e-12)

    def test_comparison_signs_follow_convention(self):
        # pm clearly worse: r2 lower -> negative d; rmse higher -> positive d
        report = build_eval_report(mock_subjects())
        r2_cmp = report.comparisons["pmbnn_vs_pm_r2"]
        rmse_cmp = report.comparisons["pmbnn_vs_pm_rmse"]
        assert r2_cmp.cohens_d < 0
        assert rmse_cmp.cohens_d > 0
        assert r2_cmp.p_one_tailed <= 0.05

    def test_long_format_boxplot_rows(self):
        files = emit_report(build_eval_report(mock_subjects()))
        lines = files["boxplot_long.csv"].decode().strip().split("\n")
        assert lines[0] == "model,metric,value"
        assert len(lines) - 1 == 12 * 3 * 2

    def test_boxplot_long_includes_pmbnn_r_when_present(self):
        files = emit_report(build_eval_report(mock_subjects(with_pmbnn_r=True)))
        lines = files["report.csv"].decode().strip().split("\n")
        data_rows = [l for l in lines[1:] if not l.startswith(("p_value", "d_value"))]
        assert len(data_rows) == 12 * 4


def ragged_subject(values, activities=("rest", "run")):
    """One subject named "subject" (the ``evaluate --subject`` default) with
    ``{model: (r2, rmse)}`` overall and each activity's values shifted."""
    overall = {m: MetricPair(*v) for m, v in values.items()}
    per_activity = {
        act: {m: MetricPair(r2 - 0.1 * k, rmse + k) for m, (r2, rmse) in values.items()}
        for k, act in enumerate(activities, start=1)
    }
    return SubjectMetrics("subject", overall, per_activity)


def assert_paired_by_subject(subjects):
    # every comparison is the test on the subjects that have both models,
    # or "insufficient pairs" when fewer than two do
    report = build_eval_report(subjects)
    scopes = [([s.overall for s in subjects], report.comparisons)]
    scopes += [([s.per_activity.get(act) for s in subjects], comps)
               for act, comps in report.per_activity_comparisons.items()]
    computed = 0
    for cells, comparisons in scopes:
        for model in ("fcnn", "pm"):
            shared = [c for c in cells if c and "pmbnn" in c and model in c]
            for metric, direction in (("r2", "greater"), ("rmse", "less")):
                got = comparisons[f"pmbnn_vs_{model}_{metric}"]
                if len(shared) < 2:
                    assert got == "insufficient pairs"
                    continue
                expected = wilcoxon_signed_rank([getattr(c["pmbnn"], metric) for c in shared],
                                                [getattr(c[model], metric) for c in shared],
                                                direction)
                assert got == expected
                computed += 1
    return report, computed


class TestRaggedSubjects:
    def test_models_missing_from_different_subjects_are_not_paired(self):
        # s1 lacks fcnn, s2 lacks pmbnn: only s3 has both, so nothing is
        # tested (the pairs used to shift: s1's pmbnn against s2's fcnn)
        subjects = [
            ragged_subject({"pmbnn": (0.8, 8.0)}),
            ragged_subject({"fcnn": (0.7, 9.0)}),
            ragged_subject({"pmbnn": (0.9, 7.0), "fcnn": (0.85, 7.5)}),
        ]
        report, computed = assert_paired_by_subject(subjects)
        assert computed == 0
        assert report.summary["fcnn"]["rmse"]["median"] == pytest.approx(8.25)

    def test_unequal_model_counts_pair_the_shared_subjects(self):
        # 4 pmbnn and 5 fcnn cells used to end in LengthMismatch
        subjects = [
            ragged_subject({"pmbnn": (0.80, 8.0), "fcnn": (0.78, 8.4), "pm": (0.5, 12.0)}),
            ragged_subject({"pmbnn": (0.86, 7.1), "fcnn": (0.80, 7.9)}, ("rest",)),
            ragged_subject({"fcnn": (0.70, 9.0), "pm": (0.4, 13.0)}),
            ragged_subject({"pmbnn": (0.83, 7.6), "fcnn": (0.84, 7.7), "pm": (0.6, 11.2)}),
            ragged_subject({"pmbnn": (0.91, 6.9), "fcnn": (0.88, 7.3), "pm": (0.55, 12.5)},
                           ("run",)),
        ]
        report, computed = assert_paired_by_subject(subjects)
        assert computed == 12   # 3 scopes x 2 models x 2 metrics, each with >= 2 pairs
        assert report.comparisons["pmbnn_vs_fcnn_rmse"].n_pairs == 4
        assert report.comparisons["pmbnn_vs_pm_r2"].n_pairs == 3
        assert report.per_activity_comparisons["run"]["pmbnn_vs_pm_rmse"].n_pairs == 3


class TestPairedTestProperties:
    def test_p_always_in_unit_interval(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(2, 35))
            x = rng.normal(size=n)
            y = x - rng.normal(0.2, 1.0, size=n)
            for alt in ("greater", "less"):
                res = wilcoxon_signed_rank(x, y, alt)
                assert 0.0 <= res.p_one_tailed <= 1.0
                assert res.n_pairs >= 1

    def test_greater_and_less_overlap_on_exact_path(self):
        # one-sided exact p-values overlap by exactly P(W = w_obs)
        rng = np.random.default_rng(42)
        d = rng.normal(size=9)
        g = wilcoxon_signed_rank(d, np.zeros(9), "greater")
        l = wilcoxon_signed_rank(d, np.zeros(9), "less")
        ranks = scipy.stats.rankdata(np.abs(d))
        w = int(round(ranks[d > 0].sum()))
        counts = signed_rank_distribution(9)
        mass_at_w = counts[w] / 2.0 ** 9
        assert g.p_one_tailed + l.p_one_tailed == pytest.approx(1.0 + mass_at_w, abs=1e-12)
