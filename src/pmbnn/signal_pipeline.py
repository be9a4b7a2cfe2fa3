"""Signal ingestion, 1 Hz resampling and smoothing for vo2/HR recordings.

A recording is parsed from CSV, linearly resampled onto the integer-second
grid, segmented by activity label, and smoothed per segment (Savitzky-Golay
on vo2, uniform FIR on both signals). All filters operate strictly within a
segment: no output sample depends on values from another activity segment.
"""

from __future__ import annotations

import codecs
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
    OutOfBounds,
    _require,
)

CSV_HEADER = ("time_s", "vo2_lpm", "hr_bpm", "activity")

#: the longest 1 Hz record, in samples, that resampling or a synthetic plan
#: builds: about 11.6 days. Training a network on it keeps three (65, n)
#: float32 activation buffers, about 0.8 GB; a longer span fails up front
#: as OutOfBounds, not in an allocation
MAX_RECORD_SAMPLES = 10**6


@dataclass(frozen=True)
class RawRecording:
    """Irregularly sampled recording as read from disk.

    Columns as :func:`parse_recording_csv` checks them: ``vo2`` and ``hr``
    use NaN for missing values, every row carries at least one of the two,
    and each value present is > 0.
    """

    subject_id: str
    time: np.ndarray       # seconds, strictly increasing
    vo2: np.ndarray        # L/min, NaN where absent
    hr: np.ndarray         # bpm, NaN where absent
    activity: tuple[str, ...]

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

    def times(self, index=None) -> np.ndarray:
        """t0 + dt * index, the times of the recording's samples at
        ``index``; by default those of this series' own positions."""
        return self.t0 + self.dt * (np.arange(len(self.values)) if index is None else index)


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

    @classmethod
    def from_labels(cls, subject_id: str, vo2, hr, labels, t0: float = 0.0) -> "SubjectRecord":
        """A 1 Hz record from t0 whose segments are the runs of one label in
        ``labels``: vo2 in L/min, hr in bpm, one label per sample."""
        bounds = segments_from_labels(labels)
        mk = lambda values, unit: UniformSeries(t0=t0, dt=1.0, values=values,
                                                segment_bounds=bounds, unit=unit)
        return cls(subject_id, mk(vo2, "L/min"), mk(hr, "bpm"), tuple(labels))


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
    pairs, so that a caller checks the header first. A leading byte-order
    mark, as spreadsheet programs write one, is dropped; blank lines are
    skipped, also before the header.

    An empty file is MalformedHeader. A byte that is not UTF-8, a row
    whose width differs from the header's, or text the csv module cannot
    split is MalformedRow naming its line."""
    data = data.removeprefix(codecs.BOM_UTF8)
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


def time_cell(t: float) -> str:
    """A time as a CSV cell: ten significant digits where those read back as
    ``t``, else the shortest text that does (a time stamped in Unix
    milliseconds needs 13 digits)."""
    text = f"{t:.10g}"
    return text if float(text) == t else repr(float(t))


def parse_recording_csv(data: bytes, subject_id: str = "") -> RawRecording:
    """Parse a ``time_s,vo2_lpm,hr_bpm,activity`` UTF-8 CSV into a RawRecording.

    A vo2/hr cell is empty (missing) or a finite number, a time cell a
    finite number. The first bad row names its line: MalformedRow for any
    other cell, a row with neither vo2 nor hr or one :func:`csv_table`
    rejects, NonMonotonicTime for a time not above the previous one and
    NonPositiveSignal for a vo2 or hr <= 0. A bad header is MalformedHeader."""
    header, rows = csv_table(data)
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise MalformedHeader(
            f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}"
        )
    times, vo2s, hrs, acts = [], [], [], []
    for line, row in rows:
        try:
            t = _cell(row[0], missing_ok=False)
            vo2, hr = _cell(row[1], missing_ok=True), _cell(row[2], missing_ok=True)
        except ValueError as exc:
            raise MalformedRow(f"line {line}: {exc}") from None
        if times and not t > times[-1]:
            raise NonMonotonicTime(f"line {line}: time {t!r} s is not after {times[-1]!r} s")
        if math.isnan(vo2) and math.isnan(hr):
            raise MalformedRow(f"line {line}: neither vo2 nor hr present")
        if vo2 <= 0 or hr <= 0:   # False for a missing value, NaN
            name, value = ("vo2", vo2) if vo2 <= 0 else ("hr", hr)
            raise NonPositiveSignal(f"line {line}: {name} must be > 0, got {value!r}")
        times.append(t)
        vo2s.append(vo2)
        hrs.append(hr)
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
    sample; segment bounds are set wherever the label changes. A grid of
    more than MAX_RECORD_SAMPLES seconds is OutOfBounds.
    """
    if len(rec) < 2:
        raise InsufficientSamples("recording must contain at least 2 samples")
    t_start = math.ceil(rec.time[0])
    t_end = math.floor(rec.time[-1])
    if t_end - t_start < 1:
        raise InsufficientSamples("recording spans fewer than 2 grid seconds")
    if t_end - t_start + 1 > MAX_RECORD_SAMPLES:
        span = float(t_end) - float(t_start) + 1.0   # 7 digits at most; inf past 1.8e308
        raise OutOfBounds(f"recording spans {span:.7g} grid seconds, more than "
                          f"the {MAX_RECORD_SAMPLES} of the longest record")
    grid = np.arange(t_start, t_end + 1, dtype=float)
    vo2 = _interp_column(grid, rec.time, rec.vo2)
    hr = _interp_column(grid, rec.time, rec.hr)
    prev_idx = np.searchsorted(rec.time, grid, side="right") - 1
    labels = [rec.activity[int(i)] for i in prev_idx]
    out = SubjectRecord.from_labels(rec.subject_id, vo2, hr, labels, t0=float(t_start))
    for a, b in out.vo2.segment_bounds:
        if b - a < 2:
            raise InsufficientSamples(
                f"activity segment [{a},{b}) has fewer than 2 grid samples"
            )
    return out


def savgol_coefficients(window: int, polyorder: int) -> np.ndarray:
    """Least-squares smoothing weights evaluated at the window center."""
    if polyorder < 0 or window % 2 == 0 or window < polyorder + 2:
        raise BadWindow(f"window {window} invalid for polyorder {polyorder}")
    half = window // 2
    pos = np.arange(-half, half + 1, dtype=float)
    vander = pos[:, None] ** np.arange(polyorder + 1)[None, :]
    # row 0 of the pseudoinverse = weights producing the fitted value at 0
    return np.linalg.pinv(vander)[0]


def _check_width(s: UniformSeries, width: int, too_long: str) -> None:
    """BadWindow, ``too_long`` and the length of the first segment of ``s``
    shorter than ``width``: checked before a kernel that wide is built."""
    for a, b in s.segment_bounds:
        if width > b - a:
            raise BadWindow(f"{too_long} segment length {b - a}")


def _convolve_segments(s: UniformSeries, kernel: np.ndarray, left: int, right: int) -> np.ndarray:
    """Each segment of ``s``, padded by ``left`` and ``right`` samples of
    2*x[edge] - x[mirror], which continues straight lines exactly, convolved
    with ``kernel``, which :func:`_check_width` passed."""
    out = np.empty_like(s.values)
    for a, b in s.segment_bounds:
        padded = np.pad(s.values[a:b], (left, right), mode="reflect", reflect_type="odd")
        out[a:b] = np.convolve(padded, kernel, "valid")
    return out


def savitzky_golay_smooth(s: UniformSeries, window: int, polyorder: int) -> UniformSeries:
    """Per-segment Savitzky-Golay smoothing with odd-reflection edges."""
    _check_width(s, window, f"window {window} exceeds")
    weights = savgol_coefficients(window, polyorder)
    half = window // 2
    return replace(s, values=_convolve_segments(s, weights[::-1], half, half))


def fir_lowpass(s: UniformSeries, taps: int) -> UniformSeries:
    """Per-segment moving-average FIR (uniform taps, DC gain exactly 1)."""
    if taps < 1:
        raise BadWindow(f"taps must be >= 1, got {taps}")
    _check_width(s, taps, f"taps {taps} exceed")
    # summing ones then dividing keeps constants exact
    summed = _convolve_segments(s, np.ones(taps), (taps - 1) // 2, taps // 2)
    return replace(s, values=summed / taps)


def preprocess_subject(rec: SubjectRecord, cfg: FilterConfig = FilterConfig()) -> SubjectRecord:
    """Smooth a subject record: SG then FIR on vo2, FIR on HR, then floor vo2."""
    vo2 = savitzky_golay_smooth(rec.vo2, cfg.sg_window, cfg.sg_polyorder)
    vo2 = fir_lowpass(vo2, cfg.fir_taps)
    hr = fir_lowpass(rec.hr, cfg.fir_taps)
    # clamp last so the logarithmic hemodynamics stay defined
    return replace(rec, vo2=replace(vo2, values=np.maximum(vo2.values, cfg.vo2_floor)), hr=hr)


def record_to_csv_bytes(rec: SubjectRecord, index=None) -> bytes:
    """Serialize a SubjectRecord back to the input CSV schema, each row at
    its time :meth:`UniformSeries.times` of ``index``."""
    return csv_bytes(CSV_HEADER, ([time_cell(t), f"{v:.10g}", f"{h:.10g}", a] for t, v, h, a in
                                  zip(rec.vo2.times(index), rec.vo2.values, rec.hr.values,
                                      rec.activity_labels)))
