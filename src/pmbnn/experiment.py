"""Dataset splitting, synthetic-subject generation and experiment runs.

Each activity segment contributes its temporal prefix (80% by default) to
the training set and the remainder to the test set; the pieces are spliced
back in activity order with fresh segment bounds so that time differencing
never crosses a splice point. Synthetic subjects drive the model through a
configurable activity plan and serve as the ground-truth oracle for tests.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import nn_core, physio_model, stats_eval, training
from .errors import NonPositiveVo2, OutOfBounds, SegmentTooShort
from .physio_model import LambdaBounds, LambdaParams
from .signal_pipeline import SubjectRecord, UniformSeries, segments_from_labels
from .training import PmFitConfig, TrainConfig


@dataclass(frozen=True)
class SplitRecord:
    """Train/test halves plus per-sample provenance into the original record."""

    train: SubjectRecord
    test: SubjectRecord
    train_indices: np.ndarray   # original sample index per train sample
    test_indices: np.ndarray
    segment_ids: np.ndarray     # original segment id per original sample

    def provenance_hash(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.train.subject_id.encode())
        digest.update(np.ascontiguousarray(self.train_indices, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(self.test_indices, dtype=np.int64).tobytes())
        return digest.hexdigest()


def _subrecord(rec: SubjectRecord, chunks: list[np.ndarray]) -> SubjectRecord:
    idx = np.concatenate(chunks)
    bounds = []
    pos = 0
    for c in chunks:
        bounds.append((pos, pos + len(c)))
        pos += len(c)
    bounds = tuple(bounds)
    mk = lambda src: UniformSeries(
        t0=src.t0, dt=src.dt, values=src.values[idx],
        segment_bounds=bounds, unit=src.unit,
    )
    return SubjectRecord(
        subject_id=rec.subject_id,
        vo2=mk(rec.vo2),
        hr=mk(rec.hr),
        activity_labels=tuple(rec.activity_labels[i] for i in idx),
    )


def split_by_activity(rec: SubjectRecord, ratio: float = 0.8) -> SplitRecord:
    """Per segment: first floor(ratio*n) samples to train, rest to test.

    The ratio must lie strictly inside (0, 1) and give every segment at
    least one train sample; every segment then keeps a test sample too.
    """
    if not 0.0 < ratio < 1.0:
        raise OutOfBounds(f"split.ratio must be inside (0, 1), got {ratio}")
    train_chunks, test_chunks = [], []
    seg_ids = np.empty(len(rec), dtype=np.int64)
    for sid, (a, b) in enumerate(rec.vo2.segment_bounds):
        n = b - a
        if n < 5:
            raise SegmentTooShort(f"segment [{a},{b}) has {n} < 5 samples")
        k = int(math.floor(ratio * n))
        # a ratio below 1 rounds ratio * n below n, so only train can be empty
        if k == 0:
            raise SegmentTooShort(
                f"split.ratio {ratio} leaves segment [{a},{b}) of {n} samples "
                "without a train sample")
        seg_ids[a:b] = sid
        train_chunks.append(np.arange(a, a + k))
        test_chunks.append(np.arange(a + k, b))
    return SplitRecord(
        train=_subrecord(rec, train_chunks),
        test=_subrecord(rec, test_chunks),
        train_indices=np.concatenate(train_chunks),
        test_indices=np.concatenate(test_chunks),
        segment_ids=seg_ids,
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
    """Recipe for a ground-truth synthetic subject."""

    subject_id: str
    plan: tuple[ActivityPhase, ...]
    lambda_true: LambdaParams
    hr0: float = 70.0
    noise_sigma_hr: float = 0.0
    noise_sigma_vo2: float = 0.0
    seed: int = 0
    bounds: LambdaBounds = field(default_factory=LambdaBounds)

    def __post_init__(self):
        for phase in self.plan:
            if phase.target_vo2 <= 0:
                raise NonPositiveVo2(f"target vo2 must be > 0: {phase}")
            if phase.duration_s < 60:
                raise SegmentTooShort(f"phase shorter than 60 s: {phase}")
        self.bounds.require_inside(self.lambda_true)
        if self.seed < 0:
            raise OutOfBounds(f"seed must be >= 0, got {self.seed!r}")


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

    bounds = segments_from_labels(labels)
    mk = lambda vals, unit: UniformSeries(
        t0=0.0, dt=1.0, values=vals, segment_bounds=bounds, unit=unit
    )
    return SubjectRecord(
        subject_id=spec.subject_id,
        vo2=mk(vo2, "L/min"),
        hr=mk(hr, "bpm"),
        activity_labels=tuple(labels),
    )


def reconstruct_pmbnn_r(
    test: SubjectRecord,
    lam: LambdaParams,
    bounds: LambdaBounds = LambdaBounds(),
) -> UniformSeries:
    """Simulate the PM on the test vo2 with identified lambdas.

    Each test segment is seeded with its first measured HR sample.
    Fitted lambdas may sit numerically on a box face (sigmoid saturation),
    so containment is checked inclusively.
    """
    if not bounds.contains(lam, strict=False):
        bounds.require_inside(lam)
    return training.simulate_record_hr(test, lam)


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for a full per-subject comparison run."""

    split_ratio: float = 0.8
    pmbnn: TrainConfig = field(default_factory=TrainConfig)
    fcnn: TrainConfig = field(default_factory=TrainConfig)
    pm_fit: PmFitConfig = field(default_factory=PmFitConfig)
    bounds: LambdaBounds = field(default_factory=LambdaBounds)


@dataclass
class ModelResult:
    """Test-set predictions and metrics for one model on one subject."""

    model: str
    predictions: np.ndarray
    r2: float | None
    rmse: float
    per_activity: dict[str, dict[str, float | None]]
    lam: LambdaParams | None
    stopped_reason: str | None
    final_loss: object = None   # LossBreakdown for the nets
    wall_time_s: float = 0.0


def run_subject_experiment(rec: SubjectRecord, cfg: ExperimentConfig = ExperimentConfig()):
    """Split once, train PMB-NN / FCNN / PM on the same training part,
    evaluate everything (plus the PMB-NN-R reconstruction) on the same
    test part, and return per-model results with a manifest."""
    split = split_by_activity(rec, cfg.split_ratio)
    test = split.test
    ref = test.hr.values
    results: dict[str, ModelResult] = {}

    def add(name, pred, lam=None, stopped=None, final_loss=None, wall=0.0):
        scores = stats_eval.score_predictions(ref, pred, test.activity_labels)
        results[name] = ModelResult(
            model=name, predictions=pred, r2=scores["overall"]["r2"],
            rmse=scores["overall"]["rmse"], per_activity=scores["per_activity"],
            lam=lam, stopped_reason=stopped, final_loss=final_loss,
            wall_time_s=wall,
        )

    t0 = time.perf_counter()
    pmbnn = training.train_pmbnn(split.train, cfg.pmbnn)
    t_pmbnn = time.perf_counter() - t0
    add("pmbnn", nn_core.mlp_forward(pmbnn.mlp, test.vo2.values), lam=pmbnn.lam,
        stopped=pmbnn.stopped_reason,
        final_loss=pmbnn.loss_history[-1] if pmbnn.loss_history else None,
        wall=t_pmbnn)

    t0 = time.perf_counter()
    fcnn = training.train_fcnn(split.train, cfg.fcnn)
    t_fcnn = time.perf_counter() - t0
    add("fcnn", nn_core.mlp_forward(fcnn.mlp, test.vo2.values),
        stopped=fcnn.stopped_reason,
        final_loss=fcnn.loss_history[-1] if fcnn.loss_history else None,
        wall=t_fcnn)

    t0 = time.perf_counter()
    lam_pm, _ = training.fit_pm(split.train, cfg.bounds, cfg=cfg.pm_fit)
    t_pm = time.perf_counter() - t0
    add("pm", reconstruct_pmbnn_r(test, lam_pm, cfg.bounds).values,
        lam=lam_pm, wall=t_pm)

    add("pmbnn_r", reconstruct_pmbnn_r(test, pmbnn.lam, cfg.bounds).values,
        lam=pmbnn.lam)

    manifest = {
        "subject_id": rec.subject_id,
        "split_ratio": cfg.split_ratio,
        "split_hash": split.provenance_hash(),
        "models": {
            name: {
                "r2": res.r2,
                "rmse": res.rmse,
                "lambda": list(res.lam.as_array()) if res.lam else None,
                "stopped_reason": res.stopped_reason,
                "wall_time_s": res.wall_time_s,
            }
            for name, res in results.items()
        },
    }
    return split, results, manifest
