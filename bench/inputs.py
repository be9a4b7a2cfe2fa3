"""Seeded inputs for the benchmark, built without the program under test.

Heart rate is generated from the model's closed form. The dynamics
dHR/dt = l5 * dMAP/dt + l6 with MAP = HR * g(vo2) keep
Q = HR * (1 - l5 * g(vo2)) growing linearly at l6 per minute, so
HR(t) = (Q(0) + l6 * t / 60) / (1 - l5 * g(vo2(t))) on any time grid. This
file is the benchmark's own copy of that formula; it serves both as the
generator and as the reference the checks compare against.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

#: the paper's parameter boxes for l1..l6, (lo, hi)
BOXES = np.array([
    (0.01, 0.03), (0.06, 0.15), (-6.0, -2.0), (7.0, 20.0), (0.1, 0.6), (-0.5, 0.5),
])

#: prior of the oracle fits (l1..l6); l2, l4 and l5 are the fitter's gauge pins
ORACLE_INIT = np.array([0.02, 0.08, -5.3, 17.0, 0.44, 0.0])

#: activity plan of one cohort subject: (label, seconds, target vo2 L/min).
#: Rest, cycling and running at two intensities each, 30 s approach time.
SUBJECT_PLAN = (
    ("rest", 300, 0.32), ("rest", 300, 0.42),
    ("cycle", 300, 1.25), ("cycle", 300, 1.85),
    ("run", 300, 2.45), ("run", 300, 3.05),
)
TAU_S = 30.0

def coupling_g(lam: np.ndarray, vo2: np.ndarray) -> np.ndarray:
    """g = SV * TPR = (l1 ln v + l2)(l3 ln v + l4)."""
    lv = np.log(vo2)
    return (lam[0] * lv + lam[1]) * (lam[2] * lv + lam[3])


def closed_form_hr(lam: np.ndarray, vo2: np.ndarray, t_s: np.ndarray,
                   hr0: float) -> np.ndarray:
    """HR on times ``t_s`` (seconds from the first) from the conserved Q."""
    den = 1.0 - lam[4] * coupling_g(lam, vo2)
    return (hr0 * den[0] + lam[5] * (t_s - t_s[0]) / 60.0) / den


def coupling_products(lam: np.ndarray) -> np.ndarray:
    """The three identifiable coefficients of g in ln v."""
    return np.array([lam[0] * lam[2], lam[0] * lam[3] + lam[1] * lam[2],
                     lam[1] * lam[3]])


def plan_vo2(plan) -> tuple[np.ndarray, list[str]]:
    """1 Hz vo2 as exponential approaches to each phase target, plus labels."""
    parts, labels = [], []
    prev = plan[0][2]
    for label, seconds, target in plan:
        t = np.arange(seconds, dtype=float)
        parts.append(target + (prev - target) * np.exp(-t / TAU_S))
        labels.extend([label] * seconds)
        prev = float(parts[-1][-1])
    return np.concatenate(parts), labels


def sample_oracle_lambda(rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample a ground truth the way the acceptance suite does.

    The gauge coordinates follow the prior (l5 fixed, l2 * l4 fixed), so the
    fitter's pins cannot bias the identifiable part; l1, l3, l6 and the
    coupling products vary. The truth keeps |1 - l5 g| >= 0.12 over vo2 in
    [0.25, 3.4], a pinned representative strictly inside the boxes, and an
    HR span of at least 28 bpm within [45, 190] on the subject plan.
    """
    lo, hi = BOXES[:, 0], BOXES[:, 1]
    v_grid = np.linspace(0.25, 3.4, 150)
    probe_vo2, _ = plan_vo2(SUBJECT_PLAN)
    probe_t = np.arange(len(probe_vo2), dtype=float)
    c_star = ORACLE_INIT[1] * ORACLE_INIT[3]
    for _ in range(1000):
        l1 = rng.uniform(lo[0] + 0.3 * (hi[0] - lo[0]), lo[0] + 0.9 * (hi[0] - lo[0]))
        l2 = rng.uniform(0.07, 0.12)
        l3 = rng.uniform(lo[2] + 0.5 * (hi[2] - lo[2]), lo[2] + 0.95 * (hi[2] - lo[2]))
        l6 = rng.uniform(-0.05, 0.05)
        lam = np.array([l1, l2, l3, c_star / l2, ORACLE_INIT[4], l6])
        if not np.all((lam > lo) & (lam < hi)):
            continue
        a, b, _ = coupling_products(lam)
        disc = b * b - 4.0 * ORACLE_INIT[3] * ORACLE_INIT[1] * a
        if disc <= 0:
            continue
        r1 = (b + np.sqrt(disc)) / (2.0 * ORACLE_INIT[3])
        r3 = a / r1
        if not (lo[0] + 0.001 < r1 < hi[0] - 0.001 and lo[2] + 0.05 < r3 < hi[2] - 0.05):
            continue
        den = 1.0 - lam[4] * coupling_g(lam, v_grid)
        if np.min(np.abs(den)) < 0.12 or np.any(den <= 0):
            continue
        hr = closed_form_hr(lam, probe_vo2, probe_t, 70.0)
        if hr.min() < 45 or hr.max() > 190 or hr.max() - hr.min() < 28:
            continue
        return lam
    raise RuntimeError("rejection sampling found no valid ground truth")


def participant_truth(index: int) -> tuple[np.ndarray, np.ndarray]:
    """Ground truth and the generator for participant ``index``.

    Participant j is the acceptance suite's oracle subject j: its truth is
    drawn from ``default_rng(1000 + j)``. The returned generator continues
    that stream for the participant's own fixed traits.
    """
    rng = np.random.default_rng(1000 + index)
    return sample_oracle_lambda(rng), rng


@dataclass(frozen=True)
class OracleSubject:
    """A participant's noisy session on the 1 Hz plan grid."""

    name: str
    vo2: np.ndarray
    hr: np.ndarray
    labels: tuple[str, ...]


def oracle_subject(index: int, noise_rng: np.random.Generator,
                   noise_sigma_hr: float) -> OracleSubject:
    """Participant ``index`` measured once, with noise from ``noise_rng``."""
    lam, rng = participant_truth(index)
    hr0 = float(rng.uniform(64, 76))
    vo2, labels = plan_vo2(SUBJECT_PLAN)
    hr = closed_form_hr(lam, vo2, np.arange(len(vo2), dtype=float), hr0)
    hr = hr + noise_rng.normal(0.0, noise_sigma_hr, len(vo2))
    return OracleSubject(f"p{index:02d}", vo2, hr, tuple(labels))


def subject_csv(sub: OracleSubject) -> bytes:
    """The session in the program's input schema."""
    buf = io.StringIO()
    buf.write("time_s,vo2_lpm,hr_bpm,activity\n")
    for ti, vi, hi, ai in zip(range(len(sub.vo2)), sub.vo2.tolist(), sub.hr.tolist(),
                              sub.labels):
        buf.write(f"{ti:.3f},{vi:.6f},{hi:.4f},{ai}\n")
    return buf.getvalue().encode("utf-8")
