"""Signal ingestion, 1 Hz resampling and smoothing for vo2/HR recordings.

A recording is parsed from CSV, linearly resampled onto the integer-second
grid, segmented by activity label, and smoothed per segment (Savitzky-Golay
on vo2, uniform FIR on both signals). All filters operate strictly within a
segment: no output sample depends on values from another activity segment.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BadWindow,
    InsufficientSamples,
    LengthMismatch,
    MalformedHeader,
    MalformedRow,
    NonMonotonicTime,
    NonPositiveSignal,
    WindowTooLarge,
    _require,
)

CSV_HEADER = ("time_s", "vo2_lpm", "hr_bpm", "activity")


@dataclass(frozen=True)
class RawRecording:
    """Irregularly sampled recording as read from disk.

    ``vo2`` and ``hr`` use NaN for missing values; every row carries at
    least one of the two.
    """

    subject_id: str
    time: np.ndarray       # seconds, strictly increasing
    vo2: np.ndarray        # L/min, NaN where absent
    hr: np.ndarray         # bpm, NaN where absent
    activity: tuple[str, ...]

    def __post_init__(self):
        time = np.asarray(self.time, dtype=float)
        vo2 = np.asarray(self.vo2, dtype=float)
        hr = np.asarray(self.hr, dtype=float)
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "vo2", vo2)
        object.__setattr__(self, "hr", hr)
        n = len(time)
        if not (len(vo2) == len(hr) == len(self.activity) == n):
            raise LengthMismatch("recording columns have unequal lengths")
        if n >= 2 and not np.all(np.diff(time) > 0):
            raise NonMonotonicTime("sample times must be strictly increasing")
        both_missing = np.isnan(vo2) & np.isnan(hr)
        if np.any(both_missing):
            idx = int(np.flatnonzero(both_missing)[0])
            raise MalformedRow(f"row {idx}: neither vo2 nor hr present")
        if np.any(vo2[~np.isnan(vo2)] <= 0):
            raise NonPositiveSignal("vo2 must be positive where present")
        if np.any(hr[~np.isnan(hr)] <= 0):
            raise NonPositiveSignal("hr must be positive where present")

    def __len__(self) -> int:
        return len(self.time)


@dataclass(frozen=True)
class UniformSeries:
    """Uniformly sampled signal with contiguous activity segments.

    ``segment_bounds`` is an ordered tuple of half-open index ranges
    partitioning ``[0, len(values))``.
    """

    t0: float
    dt: float
    values: np.ndarray
    segment_bounds: tuple[tuple[int, int], ...]
    unit: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        bounds = tuple((int(a), int(b)) for a, b in self.segment_bounds)
        object.__setattr__(self, "segment_bounds", bounds)
        if not np.all(np.isfinite(values)):
            raise NonPositiveSignal("series values must be finite")
        if self.dt <= 0:
            raise LengthMismatch("dt must be positive")
        cursor = 0
        for a, b in bounds:
            if a != cursor or b <= a:
                raise LengthMismatch(
                    f"segment bounds {bounds} do not partition [0, {len(values)})"
                )
            cursor = b
        if cursor != len(values):
            raise LengthMismatch(
                f"segment bounds {bounds} do not cover [0, {len(values)})"
            )

    def __len__(self) -> int:
        return len(self.values)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.values))

    def segment_slices(self) -> list[slice]:
        return [slice(a, b) for a, b in self.segment_bounds]

    def with_values(self, values: np.ndarray) -> "UniformSeries":
        if len(values) != len(self.values):
            raise LengthMismatch("replacement values must keep the length")
        return replace(self, values=np.asarray(values, dtype=float))


@dataclass(frozen=True)
class SubjectRecord:
    """Aligned vo2 and HR series for one subject plus per-sample labels."""

    subject_id: str
    vo2: UniformSeries
    hr: UniformSeries
    activity_labels: tuple[str, ...]

    def __post_init__(self):
        v, h = self.vo2, self.hr
        if (v.t0, v.dt, len(v), v.segment_bounds) != (h.t0, h.dt, len(h), h.segment_bounds):
            raise LengthMismatch("vo2 and hr series must share grid and segments")
        if len(self.activity_labels) != len(v):
            raise LengthMismatch("one activity label per sample required")
        for a, b in v.segment_bounds:
            seg = set(self.activity_labels[a:b])
            if len(seg) != 1:
                raise LengthMismatch(f"segment [{a},{b}) mixes labels {seg}")

    def __len__(self) -> int:
        return len(self.vo2)


@dataclass(frozen=True)
class FilterConfig:
    """Settings for the preprocessing pipeline: the ``filter.*`` config keys."""

    sg_window: int = 15
    sg_polyorder: int = 1
    fir_taps: int = 10
    vo2_floor: float = 0.05     # L/min, keeps downstream logarithms defined

    def __post_init__(self):
        _require(math.isfinite(self.vo2_floor) and self.vo2_floor > 0, "filter.vo2_floor",
                 self.vo2_floor, "finite and > 0")


def _cell(text: str, missing_ok: bool) -> float:
    """A CSV number cell: empty (missing, NaN) where allowed, else a finite number."""
    if missing_ok and not text.strip():
        return math.nan
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def csv_table(data: bytes):
    """The header of a UTF-8 CSV and a lazy iterator of its ``(line, row)``
    pairs, so that a caller checks the header first. Blank lines are
    skipped, also before the header.

    An empty file is MalformedHeader. A byte that is not UTF-8, a row
    whose width differs from the header's, or text the csv module cannot
    split is MalformedRow naming its line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start] + b"_").splitlines())   # \r, \n and \r\n end lines
        raise MalformedRow(f"line {line}: byte {data[exc.start]:#04x} is not UTF-8") from None
    reader = csv.reader(io.StringIO(text, newline=""))

    def records():
        width = None   # the header's, once it is read
        try:
            for row in reader:
                if not row:
                    continue
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise MalformedRow(f"line {reader.line_num}: expected {width} fields, "
                                       f"got {len(row)}")
                yield reader.line_num, row
        except csv.Error as exc:   # a cell longer than csv.field_size_limit()
            raise MalformedRow(f"line {reader.line_num}: {exc}") from None

    rows = records()
    _, header = next(rows, (None, None))
    if header is None:
        raise MalformedHeader("empty file")
    return header, rows


def csv_bytes(header, rows) -> bytes:
    """A header and rows of cells as UTF-8 CSV with ``\\n`` line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def parse_recording_csv(data: bytes, subject_id: str = "") -> RawRecording:
    """Parse a ``time_s,vo2_lpm,hr_bpm,activity`` UTF-8 CSV into a RawRecording.

    A vo2/hr cell is empty (missing) or a finite number, a time cell a
    finite number. Raises MalformedRow naming the line for any other cell
    or a row :func:`csv_table` rejects, and MalformedHeader,
    NonMonotonicTime or NonPositiveSignal on invalid content."""
    header, rows = csv_table(data)
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise MalformedHeader(
            f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}"
        )
    times, vo2s, hrs, acts = [], [], [], []
    for line, row in rows:
        try:
            times.append(_cell(row[0], missing_ok=False))
            vo2s.append(_cell(row[1], missing_ok=True))
            hrs.append(_cell(row[2], missing_ok=True))
        except ValueError as exc:
            raise MalformedRow(f"line {line}: {exc}") from None
        acts.append(row[3].strip())
    return RawRecording(subject_id, np.array(times), np.array(vo2s), np.array(hrs), tuple(acts))


def _interp_column(grid: np.ndarray, time: np.ndarray, col: np.ndarray) -> np.ndarray:
    present = ~np.isnan(col)
    if present.sum() < 2:
        raise InsufficientSamples("need at least 2 samples per signal")
    t, v = time[present], col[present]
    if t[0] > grid[0] or t[-1] < grid[-1]:
        raise InsufficientSamples(
            f"signal support [{t[0]}, {t[-1]}] does not cover grid "
            f"[{grid[0]}, {grid[-1]}]"
        )
    return np.interp(grid, t, v)


def segments_from_labels(labels) -> tuple[tuple[int, int], ...]:
    """Half-open index ranges of maximal runs of one label."""
    bounds = []
    start = 0
    for i in range(1, len(labels)):
        if labels[i] != labels[i - 1]:
            bounds.append((start, i))
            start = i
    bounds.append((start, len(labels)))
    return tuple(bounds)


def resample_linear_1hz(rec: RawRecording) -> SubjectRecord:
    """Linearly interpolate both signals onto the integer-second grid.

    Grid points take the activity label of the nearest preceding raw
    sample; segment bounds are set wherever the label changes.
    """
    if len(rec) < 2:
        raise InsufficientSamples("recording must contain at least 2 samples")
    t_start = math.ceil(rec.time[0])
    t_end = math.floor(rec.time[-1])
    if t_end - t_start < 1:
        raise InsufficientSamples("recording spans fewer than 2 grid seconds")
    grid = np.arange(t_start, t_end + 1, dtype=float)
    vo2 = _interp_column(grid, rec.time, rec.vo2)
    hr = _interp_column(grid, rec.time, rec.hr)
    prev_idx = np.searchsorted(rec.time, grid, side="right") - 1
    labels = tuple(rec.activity[int(i)] for i in prev_idx)
    bounds = segments_from_labels(labels)
    for a, b in bounds:
        if b - a < 2:
            raise InsufficientSamples(
                f"activity segment [{a},{b}) has fewer than 2 grid samples"
            )
    mk = lambda vals, unit: UniformSeries(
        t0=float(t_start), dt=1.0, values=vals, segment_bounds=bounds, unit=unit
    )
    return SubjectRecord(
        subject_id=rec.subject_id,
        vo2=mk(vo2, "L/min"),
        hr=mk(hr, "bpm"),
        activity_labels=labels,
    )


def _odd_reflect_pad(x: np.ndarray, left: int, right: int) -> np.ndarray:
    """Pad by point reflection through the end samples.

    The anti-symmetric extension 2*x[edge] - x[mirror] continues straight
    lines exactly, so order-1 smoothing stays exact on affine segments.
    """
    n = len(x)
    if left >= n or right >= n:
        raise WindowTooLarge(f"padding ({left},{right}) too wide for segment of {n}")
    head = 2.0 * x[0] - x[1:left + 1][::-1] if left else np.empty(0)
    tail = 2.0 * x[-1] - x[-right - 1:-1][::-1] if right else np.empty(0)
    return np.concatenate([head, x, tail])


def savgol_coefficients(window: int, polyorder: int) -> np.ndarray:
    """Least-squares smoothing weights evaluated at the window center."""
    if polyorder < 0 or window % 2 == 0 or window < polyorder + 2:
        raise BadWindow(f"window {window} invalid for polyorder {polyorder}")
    half = window // 2
    pos = np.arange(-half, half + 1, dtype=float)
    vander = pos[:, None] ** np.arange(polyorder + 1)[None, :]
    # row 0 of the pseudoinverse = weights producing the fitted value at 0
    return np.linalg.pinv(vander)[0]


def _convolve_segments(s: UniformSeries, kernel: np.ndarray, left: int, right: int,
                       too_long: str) -> np.ndarray:
    """Each segment of ``s``, odd-reflection padded by ``left`` and ``right``
    samples, convolved with ``kernel``. A segment shorter than the kernel is
    WindowTooLarge: ``too_long`` followed by the segment length."""
    out = np.empty_like(s.values)
    for sl in s.segment_slices():
        seg = s.values[sl]
        if len(kernel) > len(seg):
            raise WindowTooLarge(f"{too_long} segment length {len(seg)}")
        out[sl] = np.convolve(_odd_reflect_pad(seg, left, right), kernel, "valid")
    return out


def savitzky_golay_smooth(s: UniformSeries, window: int, polyorder: int) -> UniformSeries:
    """Per-segment Savitzky-Golay smoothing with odd-reflection edges."""
    weights = savgol_coefficients(window, polyorder)
    half = window // 2
    return s.with_values(_convolve_segments(s, weights[::-1], half, half,
                                            f"window {window} exceeds"))


def fir_lowpass(s: UniformSeries, taps: int) -> UniformSeries:
    """Per-segment moving-average FIR (uniform taps, DC gain exactly 1)."""
    if taps < 1:
        raise BadWindow(f"taps must be >= 1, got {taps}")
    # summing ones then dividing keeps constants exact
    return s.with_values(_convolve_segments(s, np.ones(taps), (taps - 1) // 2, taps // 2,
                                            f"taps {taps} exceed") / taps)


def preprocess_subject(rec: SubjectRecord, cfg: FilterConfig = FilterConfig()) -> SubjectRecord:
    """Smooth a subject record: SG then FIR on vo2, FIR on HR, then floor vo2."""
    vo2 = savitzky_golay_smooth(rec.vo2, cfg.sg_window, cfg.sg_polyorder)
    vo2 = fir_lowpass(vo2, cfg.fir_taps)
    hr = fir_lowpass(rec.hr, cfg.fir_taps)
    # clamp last so the logarithmic hemodynamics stay defined
    vo2 = vo2.with_values(np.maximum(vo2.values, cfg.vo2_floor))
    return SubjectRecord(
        subject_id=rec.subject_id,
        vo2=vo2,
        hr=hr,
        activity_labels=rec.activity_labels,
    )


def record_to_csv_bytes(rec: SubjectRecord) -> bytes:
    """Serialize a SubjectRecord back to the input CSV schema."""
    return csv_bytes(CSV_HEADER, ([f"{t:.10g}", f"{v:.10g}", f"{h:.10g}", a] for t, v, h, a in
                                  zip(rec.vo2.times, rec.vo2.values, rec.hr.values,
                                      rec.activity_labels)))
