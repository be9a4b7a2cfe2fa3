"""Each correctness check of the benchmark fails on a deliberately wrong output.

    python3 -m pytest bench/test_checks.py -q

The repository's own suite does not collect this file.
"""

from __future__ import annotations

import io
import json
import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import checks  # noqa: E402
import inputs  # noqa: E402
from checks import CheckFailed  # noqa: E402


def joined_csv(t, ref, columns: dict, labels) -> bytes:
    buf = io.StringIO()
    buf.write(",".join(["t_s", "hr_true", *columns, "activity"]) + "\n")
    for i in range(len(t)):
        cells = [f"{t[i]:.10g}", f"{ref[i]:.10g}"]
        cells += [f"{col[i]:.10g}" for col in columns.values()]
        buf.write(",".join(cells + [labels[i]]) + "\n")
    return buf.getvalue().encode()


def plain_metrics(ref, pred):
    d = ref - pred
    dev = ref - ref.mean()
    return {"r2": 1.0 - float(d @ d) / float(dev @ dev), "rmse": float(np.sqrt(d @ d / len(d)))}


@pytest.fixture
def evaluated():
    rng = np.random.default_rng(3)
    n = 120
    t = np.arange(n, dtype=float)
    # rounded as the program writes them, so metrics.json matches the CSV
    printed = np.vectorize(lambda v: float(f"{v:.10g}"))
    ref = printed(100 + 20 * np.sin(t / 15) + rng.normal(0, 1, n))
    pred = printed(ref + rng.normal(0, 2, n))
    labels = ["rest"] * 60 + ["run"] * 60
    half = slice(0, 60), slice(60, n)
    metrics = {"n_samples": n, "models": {"pmbnn": {
        "overall": plain_metrics(ref, pred),
        "per_activity": {"rest": plain_metrics(ref[half[0]], pred[half[0]]),
                         "run": plain_metrics(ref[half[1]], pred[half[1]])}}}}
    return t, ref, pred, labels, metrics


def test_metrics_pass_on_matching_output(evaluated):
    t, ref, pred, labels, metrics = evaluated
    got = checks.check_metrics(joined_csv(t, ref, {"hr_pmbnn": pred}, labels), metrics)
    assert got["pmbnn"][1] == pytest.approx(metrics["models"]["pmbnn"]["overall"]["rmse"])


def test_metrics_fail_on_prediction_shifted_by_one_bpm(evaluated):
    t, ref, pred, labels, metrics = evaluated
    with pytest.raises(CheckFailed, match="pmbnn"):
        checks.check_metrics(joined_csv(t, ref, {"hr_pmbnn": pred + 1.0}, labels), metrics)


def test_metrics_fail_on_one_activity_off(evaluated):
    t, ref, pred, labels, metrics = evaluated
    metrics["models"]["pmbnn"]["per_activity"]["run"]["rmse"] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="pmbnn/run"):
        checks.check_metrics(joined_csv(t, ref, {"hr_pmbnn": pred}, labels), metrics)


def test_metrics_fail_on_missing_row(evaluated):
    t, ref, pred, labels, metrics = evaluated
    with pytest.raises(CheckFailed, match="n_samples"):
        checks.check_metrics(joined_csv(t[1:], ref[1:], {"hr_pmbnn": pred[1:]}, labels[1:]),
                             metrics)


def test_exact_wilcoxon_matches_known_tails():
    assert checks.exact_wilcoxon_p(np.arange(1.0, 13.0), np.zeros(12), "greater") == 1 / 4096
    assert checks.exact_wilcoxon_p([2.0, 3, 4, 5, 6], np.zeros(5), "greater") == 1 / 32
    assert checks.exact_wilcoxon_p(np.zeros(12), np.arange(1.0, 13.0), "greater") == 1.0
    assert checks.exact_wilcoxon_p([1.0, 1.0], [0.0, 0.0], "greater") is None   # tied |d|


def test_exact_wilcoxon_agrees_with_the_program():
    from pmbnn.stats_eval import wilcoxon_signed_rank

    rng = np.random.default_rng(11)
    for n in (3, 7, 12, 16):
        for alternative in ("greater", "less"):
            x, y = rng.normal(size=n), rng.normal(size=n)
            want = wilcoxon_signed_rank(x, y, alternative).p_one_tailed
            assert checks.exact_wilcoxon_p(x, y, alternative) == want


def cohort_report(n=12):
    """Metrics files where PMB-NN beats FCNN on every subject, and the report."""
    metrics = []
    for i in range(n):
        cells = {"pmbnn": {"r2": 0.95 - 0.001 * i, "rmse": 3.0 + 0.01 * i},
                 "fcnn": {"r2": 0.90 - 0.002 * i, "rmse": 4.0 + 0.02 * i}}
        metrics.append({"models": {m: {"overall": c, "per_activity": {}}
                                   for m, c in cells.items()}})
    test = {"p_one_tailed": 1 / 2 ** n, "cohens_d": 1.0, "n_pairs": n,
            "direction": "greater", "n_zero_dropped": 0, "exact": True}
    report = {"comparisons": {"pmbnn_vs_fcnn_r2": dict(test),
                              "pmbnn_vs_fcnn_rmse": dict(test, direction="less"),
                              "pmbnn_vs_pm_r2": "insufficient pairs",
                              "pmbnn_vs_pm_rmse": "insufficient pairs"},
              "per_activity_comparisons": {}}
    return report, metrics


def test_wilcoxon_passes_on_exact_report():
    report, metrics = cohort_report()
    assert checks.check_wilcoxon(report, metrics) == 2


def test_wilcoxon_fails_on_p_off_by_one_pattern_in_4096():
    report, metrics = cohort_report()
    report["comparisons"]["pmbnn_vs_fcnn_rmse"]["p_one_tailed"] = 2 / 4096
    with pytest.raises(CheckFailed, match="pmbnn_vs_fcnn_rmse"):
        checks.check_wilcoxon(report, metrics)


def test_wilcoxon_fails_on_missing_comparison():
    report, metrics = cohort_report()
    del report["comparisons"]["pmbnn_vs_fcnn_r2"]
    with pytest.raises(CheckFailed, match="lacks pmbnn_vs_fcnn_r2"):
        checks.check_wilcoxon(report, metrics)


def test_wilcoxon_fails_on_insufficient_pairs_where_pairs_exist():
    report, metrics = cohort_report()
    report["comparisons"]["pmbnn_vs_fcnn_rmse"] = "insufficient pairs"
    with pytest.raises(CheckFailed, match="expected a test on 12 pairs"):
        checks.check_wilcoxon(report, metrics)


def test_wilcoxon_fails_on_missing_activity():
    report, metrics = cohort_report()
    for m in metrics:
        for entry in m["models"].values():
            entry["per_activity"]["rest"] = entry["overall"]
    with pytest.raises(CheckFailed, match="no comparisons for rest"):
        checks.check_wilcoxon(report, metrics)


def test_boxes_fail_on_lambda_outside_or_on_the_face():
    checks.check_inside_boxes(inputs.ORACLE_INIT)
    for k, value in ((0, 0.031), (4, 0.1), (5, -0.6)):
        lam = inputs.ORACLE_INIT.copy()
        lam[k] = value
        with pytest.raises(CheckFailed, match=f"l{k + 1}"):
            checks.check_inside_boxes(lam)


def reconstruction_csvs(shift=0.0, bump_at=None):
    """A PMB-NN-R prediction over two test chunks, written as the CLI does."""
    lam, _ = inputs.participant_truth(0)
    vo2, labels = inputs.plan_vo2(inputs.SUBJECT_PLAN)
    t = np.arange(len(vo2), dtype=float)
    keep = np.r_[240:300, 1560:1800]
    chunks = [np.arange(240, 300), np.arange(1560, 1800)]
    pred = np.concatenate([inputs.closed_form_hr(lam, vo2[c], t[c], 80.0) for c in chunks])
    pred = pred + shift
    if bump_at is not None:
        pred[bump_at] += 1e-3
    joined = joined_csv(t[keep], pred, {"hr_pmbnn_r": pred}, [labels[i] for i in keep])
    prep = io.StringIO()
    prep.write("time_s,vo2_lpm,hr_bpm,activity\n")
    for i in range(len(t)):
        prep.write(f"{t[i]:.10g},{vo2[i]:.10g},70,{labels[i]}\n")
    return joined, prep.getvalue().encode(), lam


def test_dynamics_pass_on_simulated_chunks():
    joined, prep, lam = reconstruction_csvs()
    assert checks.check_dynamics(joined, prep, lam) <= 1.0


@pytest.mark.parametrize("kwargs", [{"shift": 1.0}, {"bump_at": 100}])
def test_dynamics_fail_off_the_model(kwargs):
    joined, prep, lam = reconstruction_csvs(**kwargs)
    with pytest.raises(CheckFailed, match="residual"):
        checks.check_dynamics(joined, prep, lam)


def test_dynamics_fail_with_wrong_lambda():
    joined, prep, lam = reconstruction_csvs()
    lam = lam.copy()
    lam[5] += 1e-4
    with pytest.raises(CheckFailed):
        checks.check_dynamics(joined, prep, lam)


def test_pmbnn_bar_allows_two_misses_in_ten():
    good, bad = (0.95, 3.0), (0.80, 3.0)
    checks.check_pmbnn_bar([good] * 8 + [bad] * 2)
    with pytest.raises(CheckFailed, match="7 of 10"):
        checks.check_pmbnn_bar([good] * 7 + [bad, (0.95, 6.1), (None, 1.0)])


def test_pm_rmse_bound():
    checks.check_pm_rmse(4.5)
    with pytest.raises(CheckFailed, match="4.51"):
        checks.check_pm_rmse(4.51)


def test_gradcheck_line():
    line = "max relative gradient error (seed 7): 9.230e-08\n"
    assert checks.check_gradcheck(7, 0, line) == pytest.approx(9.23e-8)
    for code, out in ((0, line.replace("9.230e-08", "1.001e-04")),
                      (0, line.replace("seed 7", "seed 8")),
                      (1, line), (0, "nan\n"),
                      (0, line.replace("9.230e-08", "nan"))):
        with pytest.raises(CheckFailed):
            checks.check_gradcheck(7, code, out)


def test_checkpoint_theta_maps_like_the_program(tmp_path):
    from pmbnn import nn_core
    from pmbnn.physio_model import LambdaBounds, LambdaParams

    lam = LambdaParams.from_array(inputs.participant_truth(2)[0])
    params = nn_core.xavier_init(0, LambdaBounds(), lam)
    path = tmp_path / "ckpt.json"
    nn_core.save_checkpoint(path, params, LambdaBounds(), 0, "x")
    got = checks.lambda_from_checkpoint(json.loads(path.read_text()))
    np.testing.assert_allclose(got, lam.as_array(), rtol=1e-12)
