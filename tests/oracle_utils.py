"""Shared ground-truth helpers for tests: oracle subjects with known lambdas.

The fitter pins the model's flat directions (the l5-vs-coupling scale and
the l2*l4-vs-l6 affine freedom) at its init, so ground-truth lambdas are
sampled with those gauge coordinates at a fixed, pre-registered prior; the
identifiable content (l1, l3, l6 and the coupling products) varies freely.
"""

import numpy as np

from pmbnn.experiment import (
    DEFAULT_PLAN,
    SyntheticSpec,
    generate_synthetic_subject,
)
from pmbnn.physio_model import (
    SECONDS_PER_MINUTE,
    LambdaBounds,
    LambdaParams,
    collocation_residuals,
)

BOUNDS = LambdaBounds()

#: prior used by oracle fits: wide-span-friendly gauge representative
ORACLE_INIT = LambdaParams(0.02, 0.08, -5.3, 17.0, 0.44, 0.0)


def residual_series(hr, vo2, lam: LambdaParams) -> np.ndarray:
    """The collocation residuals (bpm/min) of the HR series ``hr`` over the vo2
    series ``vo2``, concatenated: 2 samples per segment shorter than the series."""
    return np.concatenate(collocation_residuals(
        hr.values, np.log(vo2.values), vo2.segment_bounds, vo2.dt / SECONDS_PER_MINUTE,
        lam.as_array()))


def coupling_products(lam: LambdaParams) -> np.ndarray:
    """The three identifiable coefficients of g(v) in ln v."""
    return np.array([
        lam.l1 * lam.l3,
        lam.l1 * lam.l4 + lam.l2 * lam.l3,
        lam.l2 * lam.l4,
    ])


def _pinned_representative(a: float, b: float, l2: float, l4: float):
    """(l1, l3) reproducing products (a, b) at the pinned (l2, l4)."""
    disc = b * b - 4.0 * l4 * l2 * a
    if disc <= 0:
        return None
    l1 = (b + np.sqrt(disc)) / (2.0 * l4)
    if l1 == 0:
        return None
    return l1, a / l1


def sample_lambda_interior(rng: np.random.Generator) -> LambdaParams:
    """Rejection-sample an interior ground truth with usable dynamics.

    Keeps |1 - l5*g| >= 0.12 over the plan's vo2 range, HR within
    [45, 190] bpm with span >= 28 bpm, and requires the gauge-pinned
    representative of the products to sit strictly inside the box.
    """
    lo, hi = BOUNDS.lo_hi_arrays()
    log_v = np.log(np.linspace(0.25, 3.4, 150))   # g = SV * TPR on this vo2 grid
    c_star = ORACLE_INIT.l2 * ORACLE_INIT.l4
    for _ in range(1000):
        l1 = rng.uniform(lo[0] + 0.3 * (hi[0] - lo[0]),
                         lo[0] + 0.9 * (hi[0] - lo[0]))
        l2 = rng.uniform(0.07, 0.12)
        l4 = c_star / l2
        l3 = rng.uniform(lo[2] + 0.5 * (hi[2] - lo[2]),
                         lo[2] + 0.95 * (hi[2] - lo[2]))
        l6 = rng.uniform(-0.05, 0.05)
        lam = LambdaParams(l1, l2, l3, l4, ORACLE_INIT.l5, l6)
        if not BOUNDS.contains(lam):
            continue
        rep = _pinned_representative(
            l1 * l3, l1 * l4 + l2 * l3, ORACLE_INIT.l2, ORACLE_INIT.l4
        )
        if rep is None:
            continue
        r1, r3 = rep
        if not (lo[0] + 0.001 < r1 < hi[0] - 0.001
                and lo[2] + 0.05 < r3 < hi[2] - 0.05):
            continue
        den = 1.0 - lam.l5 * ((lam.l1 * log_v + lam.l2) * (lam.l3 * log_v + lam.l4))
        if np.min(np.abs(den)) < 0.12 or np.any(den <= 0):
            continue
        probe = generate_synthetic_subject(
            SyntheticSpec("probe", DEFAULT_PLAN, lam, hr0=70.0, seed=0)
        )
        hrv = probe.hr.values
        if hrv.min() < 45 or hrv.max() > 190 or hrv.max() - hrv.min() < 28:
            continue
        return lam
    raise RuntimeError("rejection sampling failed to find a valid lambda")


def oracle_subject(index: int, noise_sigma_hr: float = 0.0):
    """Deterministic oracle subject #index: (lambda_true, hr0, record)."""
    rng = np.random.default_rng(1000 + index)
    lam_true = sample_lambda_interior(rng)
    hr0 = float(rng.uniform(64, 76))
    spec = SyntheticSpec(
        subject_id=f"oracle{index}" + ("n" if noise_sigma_hr else ""),
        plan=DEFAULT_PLAN,
        lambda_true=lam_true,
        hr0=hr0,
        noise_sigma_hr=noise_sigma_hr,
        seed=100 + index,
    )
    return lam_true, hr0, generate_synthetic_subject(spec)
