"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from oracle_utils import BOUNDS, ORACLE_INIT, coupling_products, oracle_subject, residual_series

from pmbnn.cli import main as cli_main
from pmbnn.experiment import reconstruct_pmbnn_r, split_by_activity
from pmbnn.nn_core import gradient_check, make_gradcheck_case, mlp_forward
from pmbnn.physio_model import LambdaParams, Singularity, simulate_hr
from pmbnn.signal_pipeline import UniformSeries, fir_lowpass, preprocess_subject, savitzky_golay_smooth
from pmbnn.stats_eval import (
    MetricPair,
    SubjectMetrics,
    build_eval_report,
    cohens_d_paired,
    emit_report,
    r_squared,
    rmse,
    signed_rank_distribution,
    wilcoxon_signed_rank,
)
from pmbnn.training import TrainConfig, fit_pm, train_fcnn, train_pmbnn

N_SUBJECTS = 10


def report_line(num, name, detail=""):
    print(f"ACCEPTANCE {num:>2} {name}: PASS {detail}".rstrip())


@pytest.fixture(scope="module")
def subjects():
    """The ten oracle subjects: ground truth plus clean and noisy records."""
    out = []
    for i in range(N_SUBJECTS):
        lam_true, hr0, clean = oracle_subject(i)
        _, _, noisy = oracle_subject(i, noise_sigma_hr=3.0)
        out.append({
            "lam": lam_true,
            "hr0": hr0,
            "clean_split": split_by_activity(clean),
            "clean": clean,
            "noisy_split": split_by_activity(preprocess_subject(noisy)),
        })
    return out


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    worst = max(gradient_check(*make_gradcheck_case(seed)) for seed in range(20))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4
    assert elapsed <= 30.0
    report_line(1, "gradient correctness",
                f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_ode_loss_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    lo, hi = BOUNDS.lo_hi_arrays()
    n = 600
    t = np.arange(n)
    profile = 0.35 + 1.4 * (1 - np.exp(-t / 90.0)) + 0.8 * np.sin(t / 120.0) ** 2
    vo2 = UniformSeries(0.0, 1.0, profile, ((0, n),), "L/min")
    checked = 0
    worst_lde, worst_f = 0.0, 0.0
    while checked < 50:
        lam = LambdaParams.from_array(lo + rng.uniform(size=6) * (hi - lo))
        try:
            hr = simulate_hr(vo2, lam, [70.0])
        except Singularity:
            continue  # singular draw: the check conditions on singularity-free
        res = residual_series(hr, vo2, lam)
        l_de = float(res @ res) / len(res)
        max_f = float(np.max(np.abs(res)))
        worst_lde = max(worst_lde, l_de)
        worst_f = max(worst_f, max_f)
        checked += 1
    elapsed = time.perf_counter() - start
    assert worst_lde <= 1e-12
    assert worst_f <= 1e-8
    assert elapsed <= 10.0
    report_line(2, "ODE/loss consistency",
                f"(50 lambdas, max L_DE {worst_lde:.1e}, max |F| {worst_f:.1e}, {elapsed:.1f}s)")


def test_criterion_03_pm_trajectory_recovery(subjects):
    start = time.perf_counter()
    worst = {"rmse": 0.0, "r2": 1.0, "prod": 0.0, "noisy": 0.0}
    fits = []
    for sub in subjects:
        split = sub["clean_split"]
        lam_fit, fit = fit_pm(split.train, init=ORACLE_INIT)
        fits.append(fit)
        pred = reconstruct_pmbnn_r(split.test, lam_fit).values
        ref = split.test.hr.values
        worst["rmse"] = max(worst["rmse"], rmse(ref, pred))
        worst["r2"] = min(worst["r2"], r_squared(ref, pred))
        ratio = coupling_products(lam_fit) / coupling_products(sub["lam"])
        worst["prod"] = max(worst["prod"], float(np.max(np.abs(ratio - 1.0))))

        nsplit = sub["noisy_split"]
        lam_noisy, fit = fit_pm(nsplit.train, init=ORACLE_INIT)
        fits.append(fit)
        npred = reconstruct_pmbnn_r(nsplit.test, lam_noisy).values
        worst["noisy"] = max(worst["noisy"], rmse(nsplit.test.hr.values, npred))
    elapsed = time.perf_counter() - start
    assert worst["rmse"] <= 0.5
    assert worst["r2"] >= 0.999
    assert worst["prod"] <= 0.05
    assert worst["noisy"] <= 4.5
    # every fit stops on its own rule, none at the iteration cap
    assert all(f.converged and f.iterations < 150 for f in fits)
    assert elapsed <= 120.0
    report_line(3, "PM trajectory recovery",
                f"(worst clean rmse {worst['rmse']:.3f}, worst r2 {worst['r2']:.5f}, "
                f"worst product err {worst['prod']:.1%}, worst noisy rmse "
                f"{worst['noisy']:.2f}, {len(fits)} fits converged, {elapsed:.0f}s)")


def test_criterion_04_pmbnn_end_to_end(subjects):
    start = time.perf_counter()
    lo, hi = BOUNDS.lo_hi_arrays()
    hits = 0
    results = []
    for i, sub in enumerate(subjects):
        split = sub["noisy_split"]
        model = train_pmbnn(split.train, TrainConfig(seed=100 + i))
        arr = model.lam.as_array()
        assert np.all(arr > lo) and np.all(arr < hi), "lambda left the box"
        pred = mlp_forward(model.mlp, split.test.vo2.values)
        ref = split.test.hr.values
        r2, err = r_squared(ref, pred), rmse(ref, pred)
        results.append((r2, err))
        hits += r2 >= 0.85 and err <= 6.0
    elapsed = time.perf_counter() - start
    assert hits >= 8
    assert elapsed <= 600.0
    report_line(4, "PMB-NN end-to-end",
                f"({hits}/10 subjects pass, min r2 {min(r for r, _ in results):.3f}, "
                f"max rmse {max(e for _, e in results):.2f}, {elapsed:.0f}s)")


def test_criterion_05_pmbnn_generalizes_fcnn(subjects):
    split = subjects[0]["noisy_split"]
    cfg = TrainConfig(seed=42, max_epochs=100, de_weight=0.0, stop_threshold=1e-12)
    a = train_pmbnn(split.train, cfg)
    b = train_fcnn(split.train, cfg)
    assert len(a.loss_history) == len(b.loss_history) == 100
    diff = float(np.max(np.abs(a.mlp.flat - b.mlp.flat)))
    assert diff <= 1e-12
    assert [l.l_tot for l in a.loss_history] == [l.l_tot for l in b.loss_history]
    report_line(5, "PMB-NN generalizes FCNN", f"(max param diff {diff:.1e})")


def test_criterion_06_reconstruction_consistency(subjects):
    worst = 0.0
    for sub in subjects[:3]:
        split = sub["clean_split"]
        recon = reconstruct_pmbnn_r(split.test, sub["lam"]).values
        worst = max(worst, rmse(split.test.hr.values, recon))
    assert worst <= 1e-6
    report_line(6, "reconstruction consistency", f"(worst rmse {worst:.1e} bpm)")


def test_criterion_07_statistics_exactness():
    x5 = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
    res5 = wilcoxon_signed_rank(x5, np.zeros(5), "greater")
    assert res5.p_one_tailed == 1.0 / 32.0

    x12 = np.arange(1.0, 13.0)
    res12 = wilcoxon_signed_rank(x12, np.zeros(12), "greater")
    assert res12.p_one_tailed == 1.0 / 4096.0

    for n in (5, 12, 20):
        counts = signed_rank_distribution(n)
        assert abs(float(counts.sum()) / 2.0 ** n - 1.0) <= 1e-12

    assert cohens_d_paired([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]) == 2.0
    report_line(7, "statistics exactness",
                "(p5=1/32, p12=1/4096, masses sum to 1, d=2.0)")


def test_criterion_08_metric_identities():
    rng = np.random.default_rng(88)
    ref = rng.normal(100, 20, size=240)
    assert r_squared(ref, ref) == 1.0
    assert r_squared(ref, np.full_like(ref, ref.mean())) == 0.0
    for c in rng.uniform(-50, 50, size=100):
        assert rmse(ref, ref + c) == pytest.approx(abs(c), rel=1e-12)
    pred = ref + rng.normal(0, 5, size=240)
    ss_tot = float(np.sum((ref - ref.mean()) ** 2))
    identity = 1.0 - rmse(ref, pred) ** 2 * len(ref) / ss_tot
    assert r_squared(ref, pred) == pytest.approx(identity, rel=1e-12)
    report_line(8, "metric identities")


def test_criterion_09_filter_laws():
    n = 200
    affine = UniformSeries(0.0, 1.0, 0.37 * np.arange(n) - 4.0, ((0, n),), "")
    out = savitzky_golay_smooth(affine, 15, 1)
    sg_err = float(np.max(np.abs(out.values - affine.values)))
    assert sg_err <= 1e-12

    const = UniformSeries(0.0, 1.0, np.full(n, 3.125), ((0, n),), "")
    dc_err = float(np.max(np.abs(fir_lowpass(const, 10).values - 3.125)))
    assert dc_err <= 1e-12

    rng = np.random.default_rng(9)
    bounds = ((0, 100), (100, 200))
    x = UniformSeries(0.0, 1.0, rng.normal(size=n), bounds, "")
    y = UniformSeries(0.0, 1.0, rng.normal(size=n), bounds, "")
    a, b = 2.2, -0.7
    lin_err = 0.0
    for filt in (lambda s: savitzky_golay_smooth(s, 15, 1),
                 lambda s: fir_lowpass(s, 10)):
        combo = filt(replace(x, values=a * x.values + b * y.values)).values
        parts = a * filt(x).values + b * filt(y).values
        lin_err = max(lin_err, float(np.max(np.abs(combo - parts))))
    assert lin_err <= 1e-10
    report_line(9, "filter laws",
                f"(affine {sg_err:.1e}, dc {dc_err:.1e}, superposition {lin_err:.1e})")


def test_criterion_10_split_exactness():
    from test_experiment import make_record

    for n, expected_train in ((5, 4), (100, 80), (300, 240), (301, 240)):
        split = split_by_activity(make_record([n]))
        assert len(split.train) == expected_train
        assert len(split.test) == n - expected_train
        merged = np.sort(np.concatenate([split.train_indices, split.test_indices]))
        np.testing.assert_array_equal(merged, np.arange(n))
    report_line(10, "split exactness", "(train sizes 4/80/240/240)")


def test_criterion_11_pipeline_determinism(tmp_path):
    def run_pipeline(root):
        synth = root / "synth"
        assert cli_main(["synth", "--out", str(synth), "--seed", "3",
                         "--noise-hr", "3.0"]) == 0
        prep = root / "prep"
        assert cli_main(["preprocess", "--input", str(synth / "synthetic.csv"),
                         "--out", str(prep)]) == 0
        train = root / "train"
        src = str(prep / "preprocessed.csv")
        for model, extra in (("pmbnn", ["--train.max_epochs", "40"]),
                             ("fcnn", ["--train.max_epochs", "40"]),
                             ("pm", ["--pm.iters", "30"])):
            assert cli_main(["train", "--model", model, "--input", src,
                             "--out", str(train)] + extra) == 0
        recon = root / "recon"
        assert cli_main(["reconstruct", "--checkpoint",
                         str(train / "pmbnn_checkpoint.json"),
                         "--input", src, "--out", str(recon)]) == 0
        ev = root / "eval"
        assert cli_main(["evaluate", "--pred",
                         str(train / "predictions_pmbnn.csv"),
                         str(train / "predictions_fcnn.csv"),
                         str(train / "predictions_pm.csv"),
                         str(recon / "predictions_pmbnn_r.csv"),
                         "--subject", "s1", "--out", str(ev)]) == 0
        rep = root / "report"
        assert cli_main(["report", "--metrics", str(ev / "metrics.json"),
                         "--out", str(rep)]) == 0
        return root

    a = run_pipeline(tmp_path / "a")
    b = run_pipeline(tmp_path / "b")
    compared = [
        "train/predictions_pmbnn.csv",
        "train/predictions_fcnn.csv",
        "train/predictions_pm.csv",
        "recon/predictions_pmbnn_r.csv",
        "eval/predictions.csv",
        "report/report.csv",
        "report/report_by_activity.csv",
        "report/boxplot_long.csv",
        "report/report.json",
    ]
    for rel in compared:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    report_line(11, "pipeline determinism",
                f"({len(compared)} artifacts byte-identical)")


def golden_mock_subjects():
    rng = np.random.default_rng(1234)
    subjects = []
    for i in range(12):
        overall, per_activity = {}, {}
        for m in ("pmbnn", "fcnn", "pm"):
            base = {"pmbnn": 0.85, "fcnn": 0.84, "pm": 0.55}[m]
            overall[m] = MetricPair(
                r2=round(base + 0.1 * rng.uniform(-1, 1), 4),
                rmse=round(8.0 + (6.0 if m == "pm" else 0.0) + rng.uniform(0, 3), 4),
            )
        for act in ("rest", "cycle", "run"):
            per_activity[act] = {
                m: MetricPair(r2=round(rng.uniform(-2, 0.9), 4),
                              rmse=round(rng.uniform(2, 30), 4))
                for m in ("pmbnn", "fcnn", "pm")
            }
        subjects.append(SubjectMetrics(f"{i + 1:02d}", overall, per_activity))
    return subjects


def test_criterion_12_report_shape():
    files = emit_report(build_eval_report(golden_mock_subjects()))
    import pathlib

    golden_dir = pathlib.Path(__file__).parent / "golden"
    for name in ("report.csv", "report_by_activity.csv"):
        golden = (golden_dir / name).read_bytes()
        assert files[name] == golden, f"{name} deviates from golden file"
    payload = json.loads(files["report.json"])
    assert payload["schema_version"] == 1
    report_line(12, "report shape", "(golden files match)")


def test_report_json_and_boxplot_match_golden():
    files = emit_report(build_eval_report(golden_mock_subjects()))
    import pathlib

    golden_dir = pathlib.Path(__file__).parent / "golden"
    for name in ("report.json", "boxplot_long.csv"):
        assert files[name] == (golden_dir / name).read_bytes(), name
