import csv

import numpy as np
import pytest
import scipy.signal

from pmbnn import signal_pipeline
from pmbnn.errors import (
    BadWindow,
    InsufficientSamples,
    MalformedHeader,
    MalformedRow,
    NonMonotonicTime,
    NonPositiveSignal,
)
from pmbnn.signal_pipeline import (
    CSV_HEADER,
    FilterConfig,
    SubjectRecord,
    UniformSeries,
    csv_table,
    fir_lowpass,
    parse_recording_csv,
    preprocess_subject,
    record_to_csv_bytes,
    resample_linear_1hz,
    savitzky_golay_smooth,
)


def csv_bytes(rows, header=",".join(CSV_HEADER)):
    return (header + "\n" + "\n".join(rows) + "\n").encode()


def series(values, bounds=None, unit=""):
    values = np.asarray(values, dtype=float)
    if bounds is None:
        bounds = ((0, len(values)),)
    return UniformSeries(t0=0.0, dt=1.0, values=values,
                        segment_bounds=bounds, unit=unit)


class TestParseRecordingCsv:
    def test_two_valid_rows(self):
        rec = parse_recording_csv(csv_bytes(["0.0,1.0,70,rest", "1.0,1.1,71,rest"]))
        assert len(rec) == 2
        assert rec.activity == ("rest", "rest")
        np.testing.assert_allclose(rec.vo2, [1.0, 1.1])

    def test_missing_values_allowed(self):
        rec = parse_recording_csv(csv_bytes(["0.0,1.0,,rest", "1.0,,71,rest"]))
        assert np.isnan(rec.hr[0]) and np.isnan(rec.vo2[1])

    def test_non_monotonic_time(self):
        with pytest.raises(NonMonotonicTime):
            parse_recording_csv(csv_bytes(["5.0,1.0,70,rest", "4.0,1.1,71,rest"]))

    def test_non_positive_vo2(self):
        with pytest.raises(NonPositiveSignal):
            parse_recording_csv(csv_bytes(["0.0,-0.1,70,rest", "1.0,1.0,71,rest"]))

    def test_bad_header(self):
        with pytest.raises(MalformedHeader):
            parse_recording_csv(csv_bytes(["0.0,1.0,70,rest"], header="t,v,h,a"))

    def test_row_with_neither_signal(self):
        # the first bad row decides: the later time was NonMonotonicTime
        with pytest.raises(MalformedRow, match="line 2: neither vo2 nor hr present"):
            parse_recording_csv(csv_bytes(["0.0,,,rest", "-1.0,1.0,71,rest"]))

    # a cell is empty or a finite number; each case below once ended in a
    # traceback, a silent gap or a misnamed error
    @pytest.mark.parametrize("row", [
        "1.0,nan,71,rest",     # was read as a missing vo2 value
        "1.0,1.0,NaN,rest",
        "1.0,1.0,inf,rest",    # was NonPositiveSignal: values must be finite
        "1.0,-Infinity,71,rest",
        "1.0,1.0,1e999,rest",  # overflows to inf
        "nan,1.0,71,rest",
    ])
    def test_non_finite_cell_names_its_line(self, row):
        with pytest.raises(MalformedRow, match="line 3: .* is not a finite number"):
            parse_recording_csv(csv_bytes(["0.0,1.0,70,rest", row, "2.0,1.0,72,rest"]))

    def test_undecodable_byte_names_its_line(self):
        # a Latin-1 label: was a UnicodeDecodeError traceback
        data = csv_bytes(["0.0,1.0,70,rest", "1.0,1.1,71,rest"]).replace(b"rest\n1", b"r\xe9st\n1")
        with pytest.raises(MalformedRow, match="line 2: byte 0xe9 is not UTF-8"):
            parse_recording_csv(data)


class TestCsvTable:
    def test_rows_with_their_lines_blank_lines_skipped(self):
        # \r alone ends a line too: it was a csv.Error traceback
        header, rows = csv_table(b"\na,b\n\n1,2\r\n3,4\r5,6\n")
        assert header == ["a", "b"]
        assert list(rows) == [(4, ["1", "2"]), (5, ["3", "4"]), (6, ["5", "6"])]

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_undecodable_byte_names_its_line(self, end):
        # with \r alone the byte was placed on line 1
        with pytest.raises(MalformedRow, match="line 3: byte 0xe9 is not UTF-8"):
            csv_table(end.join([b"a,b", b"1,2", b"3,r\xe9st", b""]))

    @pytest.mark.parametrize("data", [b"", b"\n\n"])
    def test_empty_file_is_malformed_header(self, data):
        with pytest.raises(MalformedHeader, match="empty file"):
            csv_table(data)

    def test_header_comes_before_any_row_check(self):
        header, rows = csv_table(b"a,b\n1\n")
        assert header == ["a", "b"]
        with pytest.raises(MalformedRow, match="line 2: expected 2 fields, got 1"):
            next(rows)

    def test_cell_over_the_field_limit_names_its_line(self):
        # was a csv.Error traceback
        data = b"a,b\n1,2\n3," + b"9" * (csv.field_size_limit() + 1) + b"\n"
        _, rows = csv_table(data)
        with pytest.raises(MalformedRow, match="line 3: field larger than field limit"):
            list(rows)

    def test_parses_what_csv_bytes_writes(self):
        rows = [["1", "a,b"], ["2", 'say "hi"'], ["3", "two\nlines"], ["4", "caf\u00e9"]]
        header, back = csv_table(signal_pipeline.csv_bytes(["n", "text"], rows))
        assert header == ["n", "text"]
        assert [row for _, row in back] == rows


class TestResample:
    def test_linear_midpoint(self):
        rec = parse_recording_csv(csv_bytes(["0.0,1.0,60,rest", "2.0,2.0,62,rest"]))
        out = resample_linear_1hz(rec)
        np.testing.assert_allclose(out.vo2.times, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(out.vo2.values, [1.0, 1.5, 2.0])
        np.testing.assert_allclose(out.hr.values, [60.0, 61.0, 62.0])

    def test_identity_on_1hz_input(self):
        rows = [f"{t},{1.0 + 0.1*t},{60+t},rest" for t in range(6)]
        out = resample_linear_1hz(parse_recording_csv(csv_bytes(rows)))
        np.testing.assert_array_equal(out.vo2.values, 1.0 + 0.1*np.arange(6))
        np.testing.assert_array_equal(out.hr.values, 60.0 + np.arange(6))

    def test_three_activities_three_segments(self):
        rows = (
            [f"{t},0.3,60,rest" for t in range(4)]
            + [f"{t},1.5,100,cycle" for t in range(4, 8)]
            + [f"{t},2.5,140,run" for t in range(8, 12)]
        )
        out = resample_linear_1hz(parse_recording_csv(csv_bytes(rows)))
        assert len(out.vo2.segment_bounds) == 3
        assert tuple(out.activity_labels[a] for a, _ in out.vo2.segment_bounds) == (
            "rest", "cycle", "run")

    def test_label_from_nearest_preceding_sample(self):
        rows = ["0.0,1.0,60,rest", "2.5,1.0,60,run", "4.0,1.0,60,run"]
        out = resample_linear_1hz(parse_recording_csv(csv_bytes(rows)))
        # grid 0..4; labels switch once the run sample at t=2.5 precedes
        assert out.activity_labels == ("rest", "rest", "rest", "run", "run")

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            resample_linear_1hz(parse_recording_csv(csv_bytes(["0.0,1.0,60,rest"])))

    def test_span_of_the_longest_record(self):
        # the cap itself is accepted; the CLI tests reject one sample more
        last = signal_pipeline.MAX_RECORD_SAMPLES - 1
        out = resample_linear_1hz(parse_recording_csv(csv_bytes(["0,1.0,60,rest",
                                                                 f"{last},2.0,90,rest"])))
        assert len(out) == signal_pipeline.MAX_RECORD_SAMPLES


class TestSavitzkyGolay:
    def test_affine_preserved(self):
        x = 0.7 * np.arange(40.0) + 3.0
        out = savitzky_golay_smooth(series(x), window=15, polyorder=1)
        np.testing.assert_allclose(out.values, x, atol=1e-12)

    def test_constant_preserved(self):
        out = savitzky_golay_smooth(series(np.full(30, 4.2)), 15, 1)
        np.testing.assert_allclose(out.values, 4.2, atol=1e-12)

    def test_order1_window5_is_moving_average(self):
        # order-1 center weights from the 2x2 normal equations are uniform:
        # sum(t) = 0 over symmetric window, so the fitted value at 0 is the mean
        rng = np.random.default_rng(3)
        x = rng.normal(size=25)
        out = savitzky_golay_smooth(series(x), window=5, polyorder=1)
        for i in range(5, 20):
            assert out.values[i] == pytest.approx(np.mean(x[i-2:i+3]), rel=1e-12)

    def test_interior_matches_scipy(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=60)
        ours = savitzky_golay_smooth(series(x), window=11, polyorder=3).values
        ref = scipy.signal.savgol_filter(x, 11, 3)
        np.testing.assert_allclose(ours[5:-5], ref[5:-5], atol=1e-10)

    def test_even_window_rejected(self):
        with pytest.raises(BadWindow):
            savitzky_golay_smooth(series(np.ones(30)), window=10, polyorder=1)

    def test_window_smaller_than_order_rejected(self):
        with pytest.raises(BadWindow):
            savitzky_golay_smooth(series(np.ones(30)), window=3, polyorder=2)

    def test_window_exceeding_segment_rejected(self):
        # 10**15 + 1 built its kernel first: a numpy _ArrayMemoryError
        for window in (11, 10**15 + 1):
            with pytest.raises(BadWindow, match=f"window {window} exceeds segment length 9"):
                savitzky_golay_smooth(series(np.ones(9)), window=window, polyorder=1)

    def test_negative_order_rejected(self):
        # an empty Vandermonde matrix raised IndexError
        with pytest.raises(BadWindow):
            savitzky_golay_smooth(series(np.ones(30)), window=5, polyorder=-1)


class TestFirLowpass:
    def test_dc_gain_exactly_one(self):
        out = fir_lowpass(series(np.full(40, 7.25)), taps=10)
        np.testing.assert_allclose(out.values, 7.25, atol=1e-12)

    def test_impulse_response(self):
        x = np.zeros(50)
        x[25] = 1.0
        out = fir_lowpass(series(x), taps=10).values
        assert np.count_nonzero(out) == 10
        np.testing.assert_allclose(out[out != 0], 0.1, atol=1e-15)

    def test_white_noise_variance_reduced(self):
        # Monte-Carlo oracle: 1e4 iid samples, fixed seed
        rng = np.random.default_rng(42)
        x = rng.normal(size=10_000)
        out = fir_lowpass(series(x), taps=10).values
        assert np.var(out) < np.var(x)

    def test_window_too_large(self):
        # 10**15 taps built the kernel first: a numpy _ArrayMemoryError
        for taps in (10, 10**15):
            with pytest.raises(BadWindow, match=f"taps {taps} exceed segment length 5"):
                fir_lowpass(series(np.ones(5)), taps=taps)


def make_record(vo2, hr, bounds, labels):
    return SubjectRecord(
        subject_id="t",
        vo2=series(vo2, bounds, "L/min"),
        hr=series(hr, bounds, "bpm"),
        activity_labels=tuple(labels),
    )


class TestPreprocess:
    def test_affine_vo2_nearly_unchanged(self):
        n = 120
        vo2 = 1.0 + 0.002 * np.arange(n)
        hr = np.full(n, 80.0)
        rec = make_record(vo2, hr, ((0, n),), ["rest"] * n)
        out = preprocess_subject(rec)
        # SG is exact on lines; the even-tap FIR shifts by half a sample
        np.testing.assert_allclose(out.vo2.values, vo2 + 0.001, atol=1e-9)

    def test_vo2_floor_clamp(self):
        n = 60
        rec = make_record(np.full(n, 0.01), np.full(n, 70.0), ((0, n),), ["rest"] * n)
        out = preprocess_subject(rec)
        assert np.all(out.vo2.values == 0.05)

    def test_sg_runs_before_fir(self):
        rng = np.random.default_rng(5)
        n = 80
        vo2 = 1.0 + 0.3 * rng.random(n)
        hr = 80 + 5 * rng.random(n)
        rec = make_record(vo2, hr, ((0, n),), ["rest"] * n)
        cfg = FilterConfig()
        out = preprocess_subject(rec, cfg)
        manual = fir_lowpass(
            savitzky_golay_smooth(rec.vo2, cfg.sg_window, cfg.sg_polyorder),
            cfg.fir_taps,
        )
        np.testing.assert_array_equal(out.vo2.values,
                                      np.maximum(manual.values, cfg.vo2_floor))

    def test_hr_gets_fir_only_by_default(self):
        rng = np.random.default_rng(6)
        n = 80
        rec = make_record(np.ones(n), 80 + rng.random(n), ((0, n),), ["rest"] * n)
        out = preprocess_subject(rec)
        np.testing.assert_array_equal(out.hr.values,
                                      fir_lowpass(rec.hr, 10).values)


class TestFilterInvariants:
    def two_segment_series(self, rng, n=60):
        return series(rng.normal(size=2 * n), ((0, n), (n, 2 * n)))

    @pytest.mark.parametrize("filt", [
        lambda s: savitzky_golay_smooth(s, 15, 1),
        lambda s: fir_lowpass(s, 10),
    ])
    def test_segment_locality(self, filt):
        rng = np.random.default_rng(7)
        s = self.two_segment_series(rng)
        base = filt(s).values
        changed = s.values.copy()
        changed[60:] += rng.normal(size=60)
        out = filt(s.with_values(changed)).values
        np.testing.assert_array_equal(out[:60], base[:60])
        assert np.any(out[60:] != base[60:])

    @pytest.mark.parametrize("filt", [
        lambda s: savitzky_golay_smooth(s, 15, 1),
        lambda s: fir_lowpass(s, 10),
    ])
    def test_linearity(self, filt):
        rng = np.random.default_rng(8)
        x = self.two_segment_series(rng)
        y = self.two_segment_series(rng)
        a, b = 1.7, -2.3
        combo = filt(x.with_values(a * x.values + b * y.values)).values
        parts = a * filt(x).values + b * filt(y).values
        np.testing.assert_allclose(combo, parts, atol=1e-10)

    @pytest.mark.parametrize("filt", [
        lambda s: savitzky_golay_smooth(s, 9, 2),
        lambda s: fir_lowpass(s, 7),
    ])
    def test_length_preserved(self, filt):
        rng = np.random.default_rng(9)
        s = self.two_segment_series(rng, 31)
        assert len(filt(s)) == len(s)


def test_record_csv_roundtrip():
    rows = (
        [f"{t},{0.3 + 0.01*t},{60+t},rest" for t in range(10)]
        + [f"{t},{1.5},{100+t},cycle" for t in range(10, 20)]
    )
    rec = resample_linear_1hz(parse_recording_csv(csv_bytes(rows)))
    back = resample_linear_1hz(parse_recording_csv(record_to_csv_bytes(rec)))
    np.testing.assert_allclose(back.vo2.values, rec.vo2.values, rtol=1e-9)
    np.testing.assert_allclose(back.hr.values, rec.hr.values, rtol=1e-9)
    assert back.activity_labels == rec.activity_labels


class TestUniformSeriesValidation:
    def test_bounds_must_partition(self):
        from pmbnn.errors import LengthMismatch

        with pytest.raises(LengthMismatch):
            UniformSeries(0.0, 1.0, np.ones(10), ((0, 4), (5, 10)), "")

    def test_bounds_must_cover(self):
        from pmbnn.errors import LengthMismatch

        with pytest.raises(LengthMismatch):
            UniformSeries(0.0, 1.0, np.ones(10), ((0, 8),), "")

    def test_non_finite_rejected(self):
        with pytest.raises(NonPositiveSignal):
            UniformSeries(0.0, 1.0, np.array([1.0, np.nan]), ((0, 2),), "")

    def test_one_sample_segment_allowed(self):
        s = UniformSeries(0.0, 1.0, np.array([1.0, 2.0]), ((0, 1), (1, 2)), "")
        assert len(s.segment_bounds) == 2
