"""Simplified cardiovascular model linking oxygen uptake to heart rate.

Hemodynamic algebra: cardiac output CO = HR * SV and mean arterial pressure
MAP = CO * TPR, with stroke volume and peripheral resistance logarithmic in
vo2 (slopes/intercepts l1..l4). Heart-rate dynamics: dHR/dt = l5 * dMAP/dt
+ l6. Substituting MAP = HR * g(vo2), where g = SV * TPR, and integrating
shows that the quantity HR * (1 - l5 * g(vo2)) grows linearly in time at
rate l6, which is what the simulator steps exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadBounds,
    LengthMismatch,
    NonPositiveVo2,
    SegmentTooShort,
    Singularity,
)
from .signal_pipeline import UniformSeries

#: denominator guard: |1 - l5*g| below this counts as singular
EPS_DEN = 1e-6

SECONDS_PER_MINUTE = 60.0


@dataclass(frozen=True)
class LambdaParams:
    """The six physiological parameters.

    l1, l2: stroke-volume log-law slope/intercept (L/min as tabulated);
    l3, l4: peripheral-resistance log-law slope/intercept (mmHg/L/min);
    l5: HR-vs-MAP slope (bpm/mmHg); l6: HR drift (bpm/min).
    """

    l1: float
    l2: float
    l3: float
    l4: float
    l5: float
    l6: float

    def as_array(self) -> np.ndarray:
        return np.array([self.l1, self.l2, self.l3, self.l4, self.l5, self.l6])

    @classmethod
    def from_array(cls, arr) -> "LambdaParams":
        if len(arr) != 6:
            raise LengthMismatch("lambda vector must have 6 entries")
        return cls(*(float(x) for x in arr))


#: default initial values for l1..l6 (healthy-adult reference fit)
DEFAULT_INITIAL = LambdaParams(0.02, 0.1, -5.3, 10.5, 0.44, 0.3)


@dataclass(frozen=True)
class LambdaBounds:
    """Per-parameter (lo, hi) boxes for l1..l6."""

    l1: tuple[float, float] = (0.01, 0.03)
    l2: tuple[float, float] = (0.06, 0.15)
    l3: tuple[float, float] = (-6.0, -2.0)
    l4: tuple[float, float] = (7.0, 20.0)
    l5: tuple[float, float] = (0.1, 0.6)
    l6: tuple[float, float] = (-0.5, 0.5)

    def __post_init__(self):
        for name, (lo, hi) in self.items():
            if not lo < hi:
                raise BadBounds(f"{name}: lo {lo} must be < hi {hi}")

    def items(self):
        return [(k, getattr(self, k)) for k in ("l1", "l2", "l3", "l4", "l5", "l6")]

    def lo_hi_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        pairs = [v for _, v in self.items()]
        return (np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))

    def contains(self, lam: LambdaParams, strict: bool = True) -> bool:
        lo, hi = self.lo_hi_arrays()
        arr = lam.as_array()
        if strict:
            return bool(np.all(arr > lo) and np.all(arr < hi))
        return bool(np.all(arr >= lo) and np.all(arr <= hi))


def _check_positive_vo2(vo2) -> np.ndarray:
    v = np.asarray(vo2, dtype=float)
    if np.any(v <= 0):
        raise NonPositiveVo2("vo2 must be strictly positive (L/min)")
    return v


def segment_offsets(segment_bounds) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's segment start index, and its samples since that start."""
    lengths = [b - a for a, b in segment_bounds]
    start = np.repeat(np.array([a for a, _ in segment_bounds], dtype=int), lengths)
    return start, np.arange(len(start)) - start


def trajectory(log_vo2, start, steps, h0, dt_min: float, lam):
    """HR and den = 1 - l5 * g(vo2) over a series, one pass for all segments.

    ``log_vo2`` is ln(vo2) of the series, ``start`` and ``steps`` come from
    :func:`segment_offsets`, ``h0`` is each sample's segment initial HR,
    ``dt_min`` the sample spacing in minutes and ``lam`` the six lambdas as
    a plain sequence. Each segment steps Q_i = Q_0 + l6 * i * dt exactly,
    HR_i = Q_i / den_i. A den within EPS_DEN of zero, or one that changes
    sign inside a segment, is a Singularity.
    """
    l1, l2, l3, l4, l5, l6 = lam
    den = 1.0 - l5 * ((l1 * log_vo2 + l2) * (l3 * log_vo2 + l4))
    if np.any(np.abs(den) <= EPS_DEN):
        bad = float(np.exp(log_vo2[np.argmin(np.abs(den))]))
        raise Singularity(f"1 - l5*g within {EPS_DEN} of zero at vo2={bad:.6g}")
    # a sign change inside one segment means the continuous trajectory
    # passes through the pole even if no sample lands on it
    neg = den < 0
    if np.any(neg != neg[start]):
        raise Singularity("1 - l5*g changes sign within a segment")
    return (h0 * den[start] + l6 * dt_min * steps) / den, den


def simulate_hr(
    vo2: UniformSeries, lam: LambdaParams, hr0_per_segment
) -> UniformSeries:
    """Forward-simulate heart rate over a vo2 series, per segment.

    The dynamics conserve Q = HR * (1 - l5 * g(vo2)) up to the linear
    drift l6 * t, so each segment is integrated exactly on the sample
    grid (:func:`trajectory`). This discretization satisfies the
    central-difference collocation residual to round-off by construction.
    """
    hr0 = list(hr0_per_segment)
    if len(hr0) != len(vo2.segment_bounds):
        raise LengthMismatch(
            f"{len(hr0)} initial HR values for {len(vo2.segment_bounds)} segments"
        )
    start, steps = segment_offsets(vo2.segment_bounds)
    h0 = np.repeat(np.asarray(hr0, dtype=float), [b - a for a, b in vo2.segment_bounds])
    hr, _ = trajectory(np.log(_check_positive_vo2(vo2.values)), start, steps, h0,
                       vo2.dt / SECONDS_PER_MINUTE, lam.as_array())
    return UniformSeries(
        t0=vo2.t0, dt=vo2.dt, values=hr,
        segment_bounds=vo2.segment_bounds, unit="bpm",
    )


def collocation_residuals(hr, log_vo2, segment_bounds, dt_min: float, lam) -> list:
    """Central-difference collocation residuals per segment (bpm/min).

    F_i = (HR_{i+1} - HR_{i-1} - l5 * (P_{i+1} - P_{i-1})) / (2 dt) - l6
    with P = HR * g(vo2), at the interior samples of each segment, so a
    segment contributes len-2 values. ``log_vo2`` is ln(vo2) of the whole
    series, ``dt_min`` the sample spacing in minutes and ``lam`` the six
    lambdas as a plain sequence. This is the one discretization of the
    dynamics: the training loss's L_DE and the gradient check score it.
    The PM fit does not; it minimizes the simulated trajectory's MSE in
    bpm^2 (:func:`training.fit_pm`).

    ``hr`` may carry leading batch axes, (..., n) for series on one vo2
    grid; each lambda is then a scalar or, for (K, n), a (K, 1) column,
    and every residual is (..., len-2), each row bit for bit the 1-D call
    on that row of ``hr`` with its lambdas.
    """
    l1, l2, l3, l4, l5, l6 = lam
    residuals = []
    for a, b in segment_bounds:
        if b - a < 3:
            raise SegmentTooShort(f"segment [{a},{b}) needs >= 3 samples")
        lv = log_vo2[a:b]
        h = hr[..., a:b]
        p = h * ((l1 * lv + l2) * (l3 * lv + l4))
        residuals.append(
            ((h[..., 2:] - h[..., :-2]) - l5 * (p[..., 2:] - p[..., :-2]))
            / (2.0 * dt_min) - l6
        )
    return residuals

