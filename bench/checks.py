"""Correctness checks on the program's outputs, computed apart from it.

Each check raises :class:`CheckFailed` with a message naming what is wrong.
None of them compares against a stored copy of earlier output: they
recompute a quantity from the artifacts (RMSE, R^2, exact Wilcoxon tails,
the collocation residual) or hold it to a property the method must have
(lambdas inside their boxes, accuracy bars against a known truth).
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

from inputs import BOXES

#: criterion 4: a subject passes with R^2 >= 0.85 and RMSE <= 6 bpm, and at
#: least 8 of every 10 subjects pass
PMBNN_R2_MIN, PMBNN_RMSE_MAX, PMBNN_PASS_SHARE = 0.85, 6.0, 0.8
#: criterion 3 on a PM fitted to a noisy oracle subject
PM_NOISY_RMSE_MAX = 4.5
#: criterion 1
GRAD_REL_ERR_MAX = 1e-4
#: relative agreement of a recomputed RMSE or R^2 with metrics.json; the
#: two differ only in summation order
METRIC_RTOL = 1e-9
#: the program writes predictions and preprocessed signals with 10
#: significant digits, so each value carries a relative rounding of at
#: most 5e-10
PRINT_REL = 5e-10


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_predictions(data: bytes):
    """Columns of a predictions CSV: times, reference, model columns, labels."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    header, body = rows[0], [r for r in rows[1:] if r]
    cols = {name: [r[i] for r in body] for i, name in enumerate(header)}
    return header, cols


def rmse(ref: np.ndarray, pred: np.ndarray) -> float:
    return math.sqrt(math.fsum((ref - pred) ** 2) / len(ref))


def r2(ref: np.ndarray, pred: np.ndarray) -> float | None:
    if len(ref) < 2 or float(np.max(ref) - np.min(ref)) == 0.0:
        return None
    mean = math.fsum(ref) / len(ref)
    return 1.0 - math.fsum((ref - pred) ** 2) / math.fsum((ref - mean) ** 2)


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= METRIC_RTOL * max(1.0, abs(a), abs(b))


def check_metrics(pred_csv: bytes, metrics: dict) -> dict[str, tuple[float | None, float]]:
    """RMSE and R^2 recomputed from the joined predictions match metrics.json.

    Checks the overall figures and each activity's, for every model
    column the CSV carries. Returns the recomputed overall (r2, rmse)
    per model.
    """
    header, cols = read_predictions(pred_csv)
    _require(header[:2] == ["t_s", "hr_true"] and header[-1] == "activity",
             f"unexpected joined header {header}")
    ref_all = np.array([float(v) for v in cols["hr_true"]])
    labels = np.array(cols["activity"])
    models = metrics["models"]
    _require(metrics["n_samples"] == len(ref_all),
             f"metrics.json n_samples {metrics['n_samples']} != {len(ref_all)} rows")
    overall = {}
    for column in header[2:-1]:
        have = np.array([v != "" for v in cols[column]])
        if not have.any():
            continue
        model = column[len("hr_"):]
        _require(model in models, f"{model} predicted but missing from metrics.json")
        pred = np.array([float(v) for v in np.array(cols[column])[have]])
        ref, labs = ref_all[have], labels[have]
        got = (r2(ref, pred), rmse(ref, pred))
        want = models[model]["overall"]
        _require(_close(got[0], want["r2"]) and _close(got[1], want["rmse"]),
                 f"{model} overall r2/rmse {want['r2']}/{want['rmse']}, "
                 f"recomputed {got[0]}/{got[1]}")
        for act in dict.fromkeys(labs.tolist()):
            mask = labs == act
            want = models[model]["per_activity"][act]
            got_act = (r2(ref[mask], pred[mask]), rmse(ref[mask], pred[mask]))
            _require(_close(got_act[0], want["r2"]) and _close(got_act[1], want["rmse"]),
                     f"{model}/{act} r2/rmse {want['r2']}/{want['rmse']}, "
                     f"recomputed {got_act[0]}/{got_act[1]}")
        overall[model] = got
    return overall


def exact_wilcoxon_p(x, y, alternative: str) -> float | None:
    """One-tailed signed-rank p by enumerating all 2^n sign patterns.

    Zero differences are dropped. Returns None when |d| has ties or n > 20,
    where the program uses its normal approximation instead.
    """
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    d = d[d != 0]
    n = len(d)
    if n == 0 or n > 20 or len(np.unique(np.abs(d))) != n:
        return None
    ranks = np.empty(n)
    ranks[np.argsort(np.abs(d))] = np.arange(1, n + 1)
    observed = int(ranks[d > 0].sum())
    patterns = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    w_plus = patterns @ ranks.astype(np.int64)
    hits = np.count_nonzero(w_plus >= observed if alternative == "greater"
                            else w_plus <= observed)
    return hits / 2 ** n


#: the report's paired tests: PMB-NN against each baseline, per metric,
#: with the direction that favours PMB-NN
WILCOXON_KEYS = {f"pmbnn_vs_{other}_{metric}": (other, metric, direction)
                 for other in ("fcnn", "pm")
                 for metric, direction in (("r2", "greater"), ("rmse", "less"))}


def check_wilcoxon(report: dict, metrics_files: list[dict]) -> int:
    """Every paired test of the report agrees with the benchmark's own.

    Rebuilds the paired columns (PMB-NN against FCNN and against PM, per
    metric, overall and for each activity the metrics files hold) and
    requires each comparison in the report. Where every subject has both
    values, there are at least two subjects and some difference is not
    zero, the report must carry a test on the non-zero pairs, and an exact
    one must equal the enumeration of all 2^n sign patterns; otherwise it
    must say "insufficient pairs". Returns the number of p-values compared.
    """
    def value(m, model, activity, metric):
        entry = m["models"].get(model)
        cell = None if entry is None else (
            entry["overall"] if activity is None else entry["per_activity"].get(activity))
        return None if cell is None else cell[metric]

    activities = dict.fromkeys(act for m in metrics_files for entry in m["models"].values()
                               for act in entry["per_activity"])
    compared = 0
    for activity in [None, *activities]:
        where = activity or "overall"
        comps = (report["comparisons"] if activity is None
                 else report["per_activity_comparisons"].get(activity))
        _require(comps is not None, f"report has no comparisons for {where}")
        for key, (other, metric, direction) in WILCOXON_KEYS.items():
            _require(key in comps, f"{where}: report lacks {key}")
            res = comps[key]
            pairs = [(value(m, "pmbnn", activity, metric), value(m, other, activity, metric))
                     for m in metrics_files]
            if any(x is None or y is None for x, y in pairs):
                continue    # the program drops such a column; not judged here
            nonzero = sum(x != y for x, y in pairs)
            if len(pairs) < 2 or nonzero == 0:
                _require(res == "insufficient pairs",
                         f"{where} {key}: a test where no pairs can be compared")
                continue
            _require(isinstance(res, dict) and res["n_pairs"] == nonzero,
                     f"{where} {key}: expected a test on {nonzero} pairs, got {res!r}")
            x, y = zip(*pairs)
            want = exact_wilcoxon_p(x, y, direction)
            if want is None:
                _require(not res["exact"], f"{where} {key}: exact test on tied or many pairs")
                continue
            _require(res["exact"], f"{where} {key}: expected an exact test")
            _require(abs(res["p_one_tailed"] - want) <= 1e-12,
                     f"{where} {key}: p {res['p_one_tailed']!r}, enumeration gives {want!r}")
            compared += 1
    return compared


def check_inside_boxes(lam) -> None:
    """Identified lambdas lie strictly inside the paper's boxes."""
    lam = np.asarray(lam, dtype=float)
    inside = (lam > BOXES[:, 0]) & (lam < BOXES[:, 1])
    _require(bool(inside.all()),
             f"lambda {lam.tolist()} outside its box at l{int(np.argmin(inside)) + 1}")


def check_dynamics(pred_csv: bytes, prep_csv: bytes, lam) -> float:
    """PMB-NN-R follows the model's central-difference dynamics to round-off.

    Over each contiguous test chunk, F_i = dQ_i/dt - l6 with
    Q = HR * (1 - l5 g(vo2)) and d/dt the central difference in minutes
    must vanish. The tolerance carries the 10-digit rounding of HR and vo2
    through that difference. Returns the largest |F| / tolerance.
    """
    lam = np.asarray(lam, dtype=float)
    _, pcols = read_predictions(pred_csv)
    t = np.array([float(v) for v in pcols["t_s"]])
    hr = np.array([float(v) for v in pcols["hr_pmbnn_r"]])
    labels = pcols["activity"]
    _, prep = read_predictions(prep_csv)
    vo2_at = dict(zip((float(v) for v in prep["time_s"]), (float(v) for v in prep["vo2_lpm"])))
    v = np.array([vo2_at[ti] for ti in t])
    lv = np.log(v)
    sv, tpr = lam[0] * lv + lam[1], lam[2] * lv + lam[3]
    den = 1.0 - lam[4] * sv * tpr
    q = hr * den
    # |dQ/dHR| * |HR| + |dQ/dv| * |v|, each times the relative rounding
    dq_dv = -lam[4] * hr * (lam[0] * tpr + lam[2] * sv)
    q_err = PRINT_REL * (np.abs(den * hr) + np.abs(dq_dv)) + 1e-15 * np.abs(q)
    breaks = np.flatnonzero((np.diff(t) != 1.0)
                            | (np.array(labels[1:]) != np.array(labels[:-1]))) + 1
    worst = 0.0
    for a, b in zip(np.r_[0, breaks], np.r_[breaks, len(t)]):
        if b - a < 3:
            continue
        dt_min = (t[a + 2:b] - t[a:b - 2]) / 60.0
        f = (q[a + 2:b] - q[a:b - 2]) / dt_min - lam[5]
        tol = 4.0 * (q_err[a + 2:b] + q_err[a:b - 2]) / dt_min
        worst = max(worst, float(np.max(np.abs(f) / tol)))
    _require(worst <= 1.0, f"PMB-NN-R residual {worst:.3g} times its round-off tolerance")
    return worst


def check_pmbnn_bar(fits: list[tuple[float | None, float]]) -> None:
    """Criterion 4's oracle bar over a cohort's PMB-NN (r2, rmse) pairs."""
    hits = sum(r is not None and r >= PMBNN_R2_MIN and e <= PMBNN_RMSE_MAX for r, e in fits)
    _require(hits >= math.ceil(PMBNN_PASS_SHARE * len(fits)),
             f"PMB-NN meets r2 >= {PMBNN_R2_MIN} and rmse <= {PMBNN_RMSE_MAX} on "
             f"{hits} of {len(fits)} subjects")


def check_pm_rmse(rmse_bpm: float) -> None:
    """Criterion 3's bound for a PM fitted to a noisy subject."""
    _require(rmse_bpm <= PM_NOISY_RMSE_MAX,
             f"PM fit to noisy data: test rmse {rmse_bpm:.4g} bpm > {PM_NOISY_RMSE_MAX}")


GRADCHECK_LINE = re.compile(r"max relative gradient error \(seed (-?\d+)\): (\S+)")


def check_gradcheck(seed: int, exit_code: int, stdout: str) -> float:
    """``pmbnn gradcheck`` reported this seed with an error <= 1e-4."""
    found = GRADCHECK_LINE.search(stdout)
    _require(found is not None, f"gradcheck printed no error line: {stdout!r}")
    err = float(found.group(2))
    _require(int(found.group(1)) == seed, f"gradcheck ran seed {found.group(1)}, asked {seed}")
    _require(math.isfinite(err) and err <= GRAD_REL_ERR_MAX and exit_code == 0,
             f"seed {seed}: max relative gradient error {err:.3e}, exit code {exit_code}")
    return err


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def lambda_from_checkpoint(ckpt: dict) -> np.ndarray:
    """The checkpoint's theta through the benchmark's own logistic box map."""
    theta = np.array(ckpt["arrays"]["theta"], dtype=float)
    lo = np.array([ckpt["bounds"][f"l{i}"][0] for i in range(1, 7)])
    hi = np.array([ckpt["bounds"][f"l{i}"][1] for i in range(1, 7)])
    return lo + (hi - lo) / (1.0 + np.exp(-theta))

