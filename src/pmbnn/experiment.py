"""Dataset splitting, synthetic-subject generation and model fitting.

Each activity segment contributes its temporal prefix (80% by default) to
the training set and the remainder to the test set; the pieces are spliced
back in activity order with fresh segment bounds so that time differencing
never crosses a splice point. Synthetic subjects drive the model through a
configurable activity plan and serve as the ground-truth oracle for tests.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import nn_core, physio_model, stats_eval, training
from .errors import OutOfBounds, SegmentTooShort, _require
from .physio_model import LambdaBounds, LambdaParams
from .signal_pipeline import MAX_RECORD_SAMPLES, SubjectRecord, UniformSeries
from .training import PmFitConfig, TrainConfig


@dataclass(frozen=True)
class SplitRecord:
    """Train/test halves plus per-sample provenance into the original record."""

    train: SubjectRecord
    test: SubjectRecord
    train_indices: np.ndarray   # original sample index per train sample
    test_indices: np.ndarray

    def provenance_hash(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.train.subject_id.encode())
        digest.update(np.ascontiguousarray(self.train_indices, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(self.test_indices, dtype=np.int64).tobytes())
        return digest.hexdigest()


def _subrecord(rec: SubjectRecord, chunks: list[np.ndarray]) -> SubjectRecord:
    idx = np.concatenate(chunks)
    ends = list(itertools.accumulate(map(len, chunks)))
    bounds = tuple(zip([0, *ends], ends))
    mk = lambda src: replace(src, values=src.values[idx], segment_bounds=bounds)
    return replace(rec, vo2=mk(rec.vo2), hr=mk(rec.hr),
                   activity_labels=tuple(rec.activity_labels[i] for i in idx))


#: the ``split.ratio`` default: each segment's share of train samples
SPLIT_RATIO = 0.8


def split_by_activity(rec: SubjectRecord, ratio: float = SPLIT_RATIO) -> SplitRecord:
    """Per segment: first floor(ratio*n) samples to train, rest to test.

    The ratio must lie strictly inside (0, 1) and give every segment at
    least one train sample; every segment then keeps a test sample too.
    """
    if not 0.0 < ratio < 1.0:
        raise OutOfBounds(f"split.ratio must be inside (0, 1), got {ratio}")
    train_chunks, test_chunks = [], []
    for a, b in rec.vo2.segment_bounds:
        n = b - a
        if n < 5:
            raise SegmentTooShort(f"segment [{a},{b}) has {n} < 5 samples")
        k = int(math.floor(ratio * n))
        # a ratio below 1 rounds ratio * n below n, so only train can be empty
        if k == 0:
            raise SegmentTooShort(
                f"split.ratio {ratio} leaves segment [{a},{b}) of {n} samples "
                "without a train sample")
        train_chunks.append(np.arange(a, a + k))
        test_chunks.append(np.arange(a + k, b))
    return SplitRecord(
        train=_subrecord(rec, train_chunks),
        test=_subrecord(rec, test_chunks),
        train_indices=np.concatenate(train_chunks),
        test_indices=np.concatenate(test_chunks),
    )


@dataclass(frozen=True)
class ActivityPhase:
    """One entry of a synthetic activity plan."""

    label: str
    duration_s: int
    target_vo2: float      # L/min
    tau_s: float = 30.0    # exponential approach time constant


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a ground-truth synthetic subject. ``subject_id`` names
    its CSV, so it is a plain file name: no path separator, not ``.`` or
    ``..``."""

    subject_id: str
    plan: tuple[ActivityPhase, ...]
    lambda_true: LambdaParams
    hr0: float = 70.0
    noise_sigma_hr: float = 0.0
    noise_sigma_vo2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        sid = self.subject_id
        _require(isinstance(sid, str) and sid not in ("", ".", "..")
                 and os.path.basename(sid) == sid, "subject_id", sid, "a plain file name")
        _require(len(self.plan) > 0, "plan", self.plan, "at least one phase")
        positive = {"hr0": self.hr0}
        for i, phase in enumerate(self.plan):
            _require(isinstance(phase.label, str) and phase.label != "", f"plan[{i}].label",
                     phase.label, "a non-empty string")
            positive |= {f"plan[{i}].target_vo2": phase.target_vo2, f"plan[{i}].tau_s": phase.tau_s}
            if phase.duration_s < 60:
                raise SegmentTooShort(f"phase shorter than 60 s: {phase}")
        total = sum(phase.duration_s for phase in self.plan)
        _require(total <= MAX_RECORD_SAMPLES, "the plan's total duration_s", total,
                 f"<= {MAX_RECORD_SAMPLES} s, the longest record")
        for name, value in positive.items():
            _require(math.isfinite(value) and value > 0, name, value, "finite and > 0")
        for name in ("noise_sigma_hr", "noise_sigma_vo2"):
            value = getattr(self, name)
            _require(math.isfinite(value) and value >= 0, name, value, "finite and >= 0")
        _require(LambdaBounds().contains(self.lambda_true), "lambda_true", self.lambda_true,
                 f"strictly inside {LambdaBounds()}")
        _require(type(self.seed) is int and self.seed >= 0, "seed", self.seed, "an integer >= 0")


#: default plan: resting, then cycling and running at two intensities each
DEFAULT_PLAN = (
    ActivityPhase("rest", 300, 0.32),
    ActivityPhase("rest", 300, 0.42),
    ActivityPhase("cycle", 300, 1.25),
    ActivityPhase("cycle", 300, 1.85),
    ActivityPhase("run", 300, 2.45),
    ActivityPhase("run", 300, 3.05),
)


def generate_synthetic_subject(spec: SyntheticSpec) -> SubjectRecord:
    """Build vo2 as piecewise exponential approaches and HR from the model.

    HR is simulated continuously across phase boundaries (one trajectory,
    activity labels only partition it); Gaussian noise is then added per
    the spec. Deterministic under the seed.
    """
    vo2_parts, labels = [], []
    prev = spec.plan[0].target_vo2
    for phase in spec.plan:
        t = np.arange(phase.duration_s, dtype=float)
        vo2_parts.append(phase.target_vo2 + (prev - phase.target_vo2)
                         * np.exp(-t / phase.tau_s))
        labels.extend([phase.label] * phase.duration_s)
        prev = float(vo2_parts[-1][-1])
    vo2 = np.concatenate(vo2_parts)
    n = len(vo2)

    # one continuous trajectory, then re-segment by activity label
    flat = UniformSeries(t0=0.0, dt=1.0, values=vo2,
                         segment_bounds=((0, n),), unit="L/min")
    hr = physio_model.simulate_hr(flat, spec.lambda_true, [spec.hr0]).values

    rng = np.random.default_rng(spec.seed)
    if spec.noise_sigma_vo2 > 0:
        vo2 = np.maximum(vo2 + rng.normal(0.0, spec.noise_sigma_vo2, n), 0.05)
    if spec.noise_sigma_hr > 0:
        hr = hr + rng.normal(0.0, spec.noise_sigma_hr, n)

    return SubjectRecord.from_labels(spec.subject_id, vo2, hr, labels)


def reconstruct_pmbnn_r(rec: SubjectRecord, lam: LambdaParams) -> UniformSeries:
    """Simulate the PM over a record's vo2 with identified lambdas.

    Each segment is seeded with its first measured HR sample. Lambdas
    outside the ``LambdaBounds()`` box are OutOfBounds; fitted ones may sit
    numerically on a box face (sigmoid saturation), so the faces count as
    inside.
    """
    box = LambdaBounds()
    if not box.contains(lam, strict=False):
        raise OutOfBounds(f"{lam} outside bounds {box}")
    hr0 = [float(rec.hr.values[a]) for a, _ in rec.hr.segment_bounds]
    return physio_model.simulate_hr(rec.vo2, lam, hr0)


@dataclass(frozen=True)
class Fitted:
    """One model fitted on a split's train part and run on its test part."""

    predictions: np.ndarray
    lam: LambdaParams
    mlp: nn_core.MlpParams | None   # the network, for its checkpoint; None for the PM
    diagnostics: dict               # the run manifest's fit block


def fit_model(model: str, split: SplitRecord, train: TrainConfig = TrainConfig(),
              pm: PmFitConfig = PmFitConfig()) -> Fitted:
    """Fit ``pmbnn``, ``fcnn`` or ``pm`` on ``split.train``, predict ``split.test``.

    ``train`` configures both networks, ``pm`` the PM fit, and the
    ``LambdaBounds()`` box holds every model's lambdas. A network's
    diagnostics are its stop rule, epoch count and final loss parts; the
    PM's are its training MSE and the L-BFGS outcome. Both add ``wall_time_s``, the
    seconds from the fit's start to its predictions.
    """
    if model not in ("pmbnn", "fcnn", "pm"):
        raise OutOfBounds(f"model must be pmbnn, fcnn or pm, got {model!r}")
    started = time.perf_counter()
    if model == "pm":
        lam, fit = training.fit_pm(split.train, cfg=pm)
        mlp = None
        pred = reconstruct_pmbnn_r(split.test, lam).values
        train_pred = reconstruct_pmbnn_r(split.train, lam).values
        diagnostics = {
            "train_mse": stats_eval.mse(split.train.hr.values, train_pred),
            "lbfgs": {k: getattr(fit, k)
                      for k in ("iterations", "converged", "line_search_failed")},
        }
    else:
        trainer = training.train_pmbnn if model == "pmbnn" else training.train_fcnn
        net = trainer(split.train, train)
        lam, mlp = net.lam, net.mlp
        pred = nn_core.mlp_forward(mlp, split.test.vo2.values)
        final = net.loss_history[-1] if net.loss_history else None
        diagnostics = {
            "stopped_reason": net.stopped_reason,
            "epochs_run": len(net.loss_history),
            "final_losses": None if final is None else {
                "l_data": final.l_data, "l_de": final.l_de, "l_tot": final.l_tot,
            },
        }
    diagnostics["wall_time_s"] = time.perf_counter() - started
    return Fitted(pred, lam, mlp, diagnostics)
