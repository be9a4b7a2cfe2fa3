"""Evaluation metrics, paired nonparametric tests and report serialization.

R^2 / RMSE per subject and model, one-tailed Wilcoxon signed-rank tests
(exact enumeration for small tie-free samples, normal approximation with
tie and continuity corrections otherwise), paired Cohen's d, and the
report's CSV/JSON bytes. This module touches no file: the caller writes
what :func:`emit_report` returns.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import EmptySeries, LengthMismatch, OutOfBounds
from .signal_pipeline import csv_bytes

REPORT_SCHEMA_VERSION = 1

#: exact Wilcoxon enumeration limit: 2^20 sign patterns is still sub-second
EXACT_WILCOXON_MAX_N = 20


def _paired(ref, pred) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(ref, dtype=float)
    b = np.asarray(pred, dtype=float)
    if a.shape != b.shape:
        raise LengthMismatch(f"paired series shapes differ: {a.shape} vs {b.shape}")
    return a, b


def r_squared(ref, pred) -> float | None:
    """Coefficient of determination 1 - SS_res / SS_tot (may be negative).

    None where it is undefined: fewer than 2 samples or a constant reference.
    """
    a, b = _paired(ref, pred)
    if len(a) < 2 or np.ptp(a) == 0:
        return None
    res = a - b
    dev = a - a.mean()
    return 1.0 - float(res @ res) / float(dev @ dev)


def mse(ref, pred) -> float:
    """Mean squared error."""
    a, b = _paired(ref, pred)
    if len(a) == 0:
        raise EmptySeries("MSE or RMSE of no sample")
    d = a - b
    return float(d @ d) / len(d)


def rmse(ref, pred) -> float:
    """Root mean squared error."""
    return math.sqrt(mse(ref, pred))


@dataclass(frozen=True)
class MetricPair:
    """R^2 and RMSE for one (subject, model) cell."""

    r2: float | None
    rmse: float

    def __post_init__(self):
        # comparing with the largest float also rejects inf, NaN and an int too large for one
        if not 0 <= self.rmse <= sys.float_info.max:
            raise OutOfBounds(f"rmse must be finite and >= 0, got {self.rmse}")
        if self.r2 is not None and not -sys.float_info.max <= self.r2 <= 1.0 + 1e-12:
            raise OutOfBounds(f"r2 must be null or finite and <= 1, got {self.r2}")


def _r2_rmse(ref: np.ndarray, pred: np.ndarray) -> dict:
    return asdict(MetricPair(r_squared(ref, pred), rmse(ref, pred)))


def score_predictions(ref, pred, labels) -> dict:
    """R^2 and RMSE overall and per activity label, labels in first-seen order.

    Returns ``{"overall": {"r2", "rmse"}, "per_activity": {label: {...}}}``.
    R^2 is None where it is undefined (a constant reference or fewer than 2
    samples); RMSE needs at least 1 sample. A score outside MetricPair's
    range (an overflowed squared error) raises OutOfBounds.
    """
    a, b = _paired(ref, pred)
    labels = np.asarray(labels)
    if labels.shape != a.shape:
        raise LengthMismatch(f"{labels.shape} labels for {a.shape} samples")
    per_activity = {}
    for label in dict.fromkeys(labels.tolist()):
        mask = labels == label
        per_activity[label] = _r2_rmse(a[mask], b[mask])
    return {"overall": _r2_rmse(a, b), "per_activity": per_activity}


@dataclass(frozen=True)
class PairedTestResult:
    """One-tailed Wilcoxon p plus the matching paired effect size."""

    p_one_tailed: float
    cohens_d: float | None
    n_pairs: int
    direction: str
    n_zero_dropped: int = 0
    exact: bool = True


def signed_rank_distribution(n: int) -> np.ndarray:
    """Exact null counts of W+ over all 2^n sign patterns (ranks 1..n).

    Entry k is the number of sign patterns with positive-rank sum k.
    """
    total = n * (n + 1) // 2
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in range(1, n + 1):
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:-r]
        counts = counts + shifted
    return counts


def wilcoxon_signed_rank(x, y, alternative: str = "greater") -> PairedTestResult | None:
    """One-tailed Wilcoxon signed-rank test on paired samples.

    Differences d = x - y; ``alternative`` states the suspected location
    of d ("greater" or "less" than zero). Zero differences are dropped
    (classical treatment) and counted; None if every difference is zero.
    Exact enumeration is used for n <= 20 with tie-free |d|, otherwise the
    normal approximation with tie and continuity corrections.
    """
    a, b = _paired(x, y)
    if alternative not in ("greater", "less"):
        raise OutOfBounds(f"alternative must be greater|less, got {alternative}")
    d = a - b
    nonzero = d != 0
    n_zero = int(len(d) - nonzero.sum())
    d = d[nonzero]
    n = len(d)
    if n == 0:
        return None

    # average ranks of |d|: a run of k tied values ending at rank c gets c - (k-1)/2
    _, run, tie_sizes = np.unique(np.abs(d), return_inverse=True, return_counts=True)
    ranks = (np.cumsum(tie_sizes) - 0.5 * (tie_sizes - 1))[run]
    w_plus = float(ranks[d > 0].sum())
    has_ties = len(tie_sizes) != n

    if n <= EXACT_WILCOXON_MAX_N and not has_ties:
        counts = signed_rank_distribution(n)
        total = float(2 ** n)
        w = int(round(w_plus))
        if alternative == "greater":
            p = float(counts[w:].sum()) / total
        else:
            p = float(counts[: w + 1].sum()) / total
        exact = True
    else:
        mean = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0 - float(
            np.sum(tie_sizes ** 3 - tie_sizes)
        ) / 48.0
        sd = math.sqrt(var)
        if alternative == "greater":
            z = (w_plus - mean - 0.5) / sd
            p = 0.5 * math.erfc(z / math.sqrt(2.0))
        else:
            z = (w_plus - mean + 0.5) / sd
            p = 0.5 * math.erfc(-z / math.sqrt(2.0))
        p = min(max(p, 0.0), 1.0)
        exact = False

    return PairedTestResult(
        p_one_tailed=p,
        cohens_d=cohens_d_paired(a, b),
        n_pairs=n,
        direction=alternative,
        n_zero_dropped=n_zero,
        exact=exact,
    )


def cohens_d_paired(x, y) -> float | None:
    """Paired effect size mean(y - x) / sd(y - x), sample sd (n-1).

    None where it is undefined: fewer than 2 pairs or differences of zero
    variance.
    """
    a, b = _paired(x, y)
    if len(a) < 2:
        return None
    diffs = b - a
    sd = float(np.std(diffs, ddof=1))
    return float(np.mean(diffs)) / sd if sd else None


def summary_stats(values) -> tuple[float, float, float]:
    """(median, max, min) of a sample; median averages the middle two."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise EmptySeries("summary_stats needs at least one value")
    return float(np.median(arr)), float(arr.max()), float(arr.min())


# --- report assembly -------------------------------------------------------

#: comparisons run against the hybrid model, with the one-tailed direction
#: encoding "hybrid model better" for each metric
COMPARED_MODELS = ("fcnn", "pm")
METRIC_DIRECTIONS = {"r2": "greater", "rmse": "less"}
INSUFFICIENT = "insufficient pairs"


@dataclass(frozen=True)
class SubjectMetrics:
    """Per-subject metrics: overall per model, optional per-activity split."""

    participant: str
    overall: dict[str, MetricPair]
    per_activity: dict[str, dict[str, MetricPair]] = field(default_factory=dict)


@dataclass(frozen=True)
class EvalReport:
    """Aggregated evaluation: metrics table, summaries and paired tests."""

    subjects: tuple[SubjectMetrics, ...]
    models: tuple[str, ...]
    summary: dict
    comparisons: dict
    per_activity_summary: dict
    per_activity_comparisons: dict
    schema_version: int = REPORT_SCHEMA_VERSION


def _scope(cells: list[dict | None], models: tuple[str, ...]) -> tuple[dict, dict]:
    """Summaries and paired tests of one scope (overall or one activity).

    ``cells[i]`` is subject i's ``{model: MetricPair}`` in this scope, or
    None if subject i lacks it. A model with an undefined value of a metric
    stays out of that metric's summary and tests. A comparison pairs the
    subject indices that have both models, by index: names may repeat.
    """
    summary, comparisons = {}, {}
    for metric, direction in METRIC_DIRECTIONS.items():
        columns = {}
        for model in models:
            col = {i: getattr(c[model], metric) for i, c in enumerate(cells)
                   if c and model in c}
            if col and None not in col.values():
                columns[model] = col
                med, mx, mn = summary_stats(list(col.values()))
                summary.setdefault(model, {})[metric] = {"median": med, "max": mx, "min": mn}
        base = columns.get("pmbnn", {})
        for model in COMPARED_MODELS:
            other = columns.get(model, {})
            shared = [i for i in base if i in other]
            result = len(shared) >= 2 and wilcoxon_signed_rank(
                [base[i] for i in shared], [other[i] for i in shared], direction)
            comparisons[f"pmbnn_vs_{model}_{metric}"] = result or INSUFFICIENT
    return summary, comparisons


def build_eval_report(subjects: list[SubjectMetrics]) -> EvalReport:
    """Summaries plus paired tests (hybrid vs baseline and vs PM), overall
    and per activity, each paired by subject (see _scope)."""
    if not subjects:
        raise EmptySeries("need at least one subject result")
    models = tuple(dict.fromkeys(m for s in subjects for m in s.overall))
    activities = dict.fromkeys(act for s in subjects for act in s.per_activity)
    summary, comparisons = _scope([s.overall for s in subjects], models)
    act_summary, act_comparisons = {}, {}
    for act in activities:
        act_summary[act], act_comparisons[act] = _scope(
            [s.per_activity.get(act) for s in subjects], models)
    return EvalReport(
        subjects=tuple(subjects),
        models=models,
        summary=summary,
        comparisons=comparisons,
        per_activity_summary=act_summary,
        per_activity_comparisons=act_comparisons,
    )


def _fmt(v) -> str:
    if v is None:
        return ""
    return f"{v:.6g}"


def _participant_rows(participant: str, cells: dict, models, tail=()) -> list:
    return [[participant, m, _fmt(cells[m].r2), _fmt(cells[m].rmse), *tail]
            for m in models if m in cells]


def _footer_rows(comparisons: dict, models, tail=()) -> list:
    rows = []
    for kind, attr in (("p_value", "p_one_tailed"), ("d_value", "cohens_d")):
        for model in COMPARED_MODELS:
            if model not in models:
                continue
            tests = [comparisons[f"pmbnn_vs_{model}_{m}"] for m in ("r2", "rmse")]
            cells = [t if t == INSUFFICIENT else _fmt(getattr(t, attr)) for t in tests]
            rows.append([kind, model, *cells, *tail])
    return rows


def emit_report(report: EvalReport) -> dict[str, bytes]:
    """The report's files, ``{file name: bytes}``.

    ``report.csv``: participant,model,r2,rmse rows plus p/d footer rows.
    ``report_by_activity.csv``: the same layout with an activity column.
    ``boxplot_long.csv``: long-format (model, metric, value) rows.
    ``report.json``: machine-readable aggregate, the EvalReport's fields.
    """
    header = ["participant", "model", "r2", "rmse"]
    models = report.models

    rows = [r for s in report.subjects for r in _participant_rows(s.participant, s.overall, models)]
    act_rows = [r for s in report.subjects for act, cells in s.per_activity.items()
                for r in _participant_rows(s.participant, cells, models, [act])]
    for act, comps in report.per_activity_comparisons.items():
        act_rows += _footer_rows(comps, models, [act])

    # an undefined R^2 is an empty cell and gets no box-plot row
    long_rows = [[m, metric, v] for _, m, *values in rows
                 for metric, v in zip(("r2", "rmse"), values) if v]
    return {
        "report.csv": csv_bytes(header, rows + _footer_rows(report.comparisons, models)),
        "report_by_activity.csv": csv_bytes(header + ["activity"], act_rows),
        "boxplot_long.csv": csv_bytes(["model", "metric", "value"], long_rows),
        "report.json": json.dumps(asdict(report), sort_keys=True, indent=1).encode() + b"\n",
    }
