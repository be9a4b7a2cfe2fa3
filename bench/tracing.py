"""In-memory spans around the program's public functions.

The benchmark always records its own spans (rounds, items and CLI
stages). With tracing on, :meth:`Tracer.wrap_program` also replaces the
program's public functions with recording wrappers, patched where their
callers look them up: ``training`` calls ``nn_core.loss_and_gradients``,
``physio_model.simulate_hr`` and its own ``lbfgs_minimize`` through module
attributes, and ``cli`` holds its own names for the signal-pipeline and
experiment functions it imported. Nothing inside the program is edited.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

#: span fields, in the order :attr:`Tracer.spans` lists them
FIELDS = ("id", "name", "start", "end", "parent", "unit", "attrs")


class Tracer:
    """Spans kept in memory, one column per field.

    Columns of floats and ints keep the cyclic garbage collector from
    walking a growing heap of span objects, which would slow the very
    calls being timed. ``unit`` is the index of the round or item a span
    ran in, so per-item sums need no tree walk; ``parent`` is the
    enclosing span.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.span_units: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.units: list[tuple[str, int, int]] = []   # (kind, round, item) per unit
        self._stack: list[int] = []
        self._unit = -1
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.span_units.append(self._unit)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def duration(self, sid: int) -> float:
        return self.ends[sid] - self.starts[sid]

    @contextmanager
    def span(self, name: str, unit: str | None = None, round_index: int = 0,
             item_index: int = 0):
        """A benchmark span; ``unit`` ("round" or "item") starts a new unit.

        Yields the span's id.
        """
        outer = self._unit
        if unit is not None:
            self._unit = len(self.units)
            self.units.append((unit, round_index, item_index))
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)
            self._unit = outer

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Record a span for each call of ``owner.attr`` until :meth:`restore`.

        ``describe(args, kwargs, result)`` may return attributes to keep.
        """
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if describe is not None:
                tracer.attrs[sid] = describe(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def wrap_program(self) -> None:
        """Wrap each module's public functions where the pipeline calls them."""
        from pmbnn import cli, nn_core, physio_model, stats_eval, training

        def batch_shape(args, kwargs, out):
            params, batch = args[0], args[1]
            return {"n": len(batch.vo2), "hidden": params.w2.shape}

        def trained(args, kwargs, out):
            return {"epochs": len(out.loss_history), "stopped": out.stopped_reason}

        def lbfgs(args, kwargs, out):
            return {"iterations": out.iterations, "converged": out.converged,
                    "line_search_failed": out.line_search_failed}

        def parsed(args, kwargs, out):
            return {"rows": len(out)}

        self.wrap(nn_core, "loss_and_gradients", "nn_core.loss_and_gradients", batch_shape)
        self.wrap(nn_core, "loss_only", "nn_core.loss_only")
        self.wrap(nn_core, "rmsprop_step", "nn_core.rmsprop_step")
        self.wrap(nn_core, "mlp_forward", "nn_core.mlp_forward")
        self.wrap(training, "train_pmbnn", "training.train_pmbnn", trained)
        self.wrap(training, "train_fcnn", "training.train_fcnn", trained)
        self.wrap(training, "fit_pm", "training.fit_pm")
        self.wrap(training, "lbfgs_minimize", "training.lbfgs_minimize", lbfgs)
        self.wrap(physio_model, "simulate_hr", "physio_model.simulate_hr")
        self.wrap(stats_eval, "r_squared", "stats_eval.r_squared")
        self.wrap(stats_eval, "rmse", "stats_eval.rmse")
        self.wrap(stats_eval, "build_eval_report", "stats_eval.build_eval_report")
        self.wrap(stats_eval, "emit_report", "stats_eval.emit_report")
        self.wrap(stats_eval, "wilcoxon_signed_rank", "stats_eval.wilcoxon_signed_rank")
        self.wrap(cli, "parse_recording_csv", "signal_pipeline.parse_recording_csv", parsed)
        self.wrap(cli, "resample_linear_1hz", "signal_pipeline.resample_linear_1hz")
        self.wrap(cli, "preprocess_subject", "signal_pipeline.preprocess_subject")
        self.wrap(cli, "record_to_csv_bytes", "signal_pipeline.record_to_csv_bytes")
        self.wrap(cli, "split_by_activity", "experiment.split_by_activity")
        self.wrap(cli, "reconstruct_pmbnn_r", "experiment.reconstruct_pmbnn_r")

    @property
    def spans(self) -> list[list]:
        """Every span as [id, name, start, end, parent, unit, attrs]."""
        return [[i, n, s, e, p, u, self.attrs.get(i)] for i, (n, s, e, p, u) in enumerate(
            zip(self.names, self.starts, self.ends, self.parents, self.span_units))]

    def durations(self, name: str) -> list[float]:
        return [self.duration(i) for i, n in enumerate(self.names) if n == name]

    def write(self, path: str, summary: dict) -> None:
        """Spans in columns plus the per-name inclusive and self time."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        child_time = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child_time[p] += self.duration(i)
        per_name = {n: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0} for n in names}
        for i, n in enumerate(self.names):
            entry = per_name[n]
            entry["calls"] += 1
            entry["inclusive_s"] += self.duration(i)
            entry["self_s"] += self.duration(i) - child_time[i]
        t0 = self.starts[0] if self.starts else 0.0
        payload = {
            "summary": summary,
            "per_name": per_name,
            "units": [list(u) for u in self.units],
            "names": names,
            "fields": list(FIELDS),
            "spans": {
                "name": [index[n] for n in self.names],
                "start_us": [round((t - t0) * 1e6, 1) for t in self.starts],
                "end_us": [round((t - t0) * 1e6, 1) for t in self.ends],
                "parent": self.parents,
                "unit": self.span_units,
                "attrs": {str(i): a for i, a in self.attrs.items()},
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced run, as name -> (value, unit).

    Durations ending in ``_s`` are inclusive times summed per unit (an
    item, or a round for the cohort report), then the median over the
    units that ran the layer. ``_ms_p50``/``_us_p50`` are medians over
    calls. Counts are summed per unit, median over units. A layer the
    workload never reaches reads 0.
    """
    spans = tracer.spans
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)

    def per_unit(*names, value=lambda s: s[3] - s[2], keep=lambda s: True):
        sums: dict[int, float] = {}
        for name in names:
            for s in by_name.get(name, []):
                if keep(s):
                    sums[s[5]] = sums.get(s[5], 0.0) + value(s)
        return _median(list(sums.values()))

    def per_call(name, scale):
        return _median([(s[3] - s[2]) * scale for s in by_name.get(name, [])])

    def count(name, keep=lambda s: True):
        return per_unit(name, value=lambda s: 1, keep=keep)

    def attr_sum(name, key, keep=lambda s: True):
        return per_unit(name, value=lambda s: (s[6] or {}).get(key, 0), keep=keep)

    fcnn_ids = {s[0] for s in by_name.get("training.train_fcnn", [])}
    direct = lambda s: s[4] not in fcnn_ids   # train_fcnn delegates to train_pmbnn
    fits = by_name.get("training.lbfgs_minimize", [])
    iterations = sum(s[6]["iterations"] for s in fits)
    fit_ids = {s[0] for s in by_name.get("training.fit_pm", [])}
    # simulator calls whose enclosing fit_pm is an ancestor
    parent_of = {s[0]: s[4] for s in spans}

    def in_fit(s):
        p = s[4]
        while p >= 0:
            if p in fit_ids:
                return True
            p = parent_of[p]
        return False

    sim_in_fits = sum(1 for s in by_name.get("physio_model.simulate_hr", []) if in_fit(s))
    flops = []
    for s in by_name.get("nn_core.loss_and_gradients", []):
        n, (h2, h1) = s[6]["n"], s[6]["hidden"]
        # forward: n x 1 -> h1 -> h2 -> 1; backward: weight and input grads
        forward = 2 * n * (h1 + h1 * h2 + h2)
        backward = 2 * n * (h2 + h2 + h1 * h2 + h1 * h2 + h1)
        flops.append((forward + backward) / 1e6)

    s_ = "s"
    out = {
        "signal_pipeline.parse_s": (per_unit("signal_pipeline.parse_recording_csv"), s_),
        "signal_pipeline.resample_s": (per_unit("signal_pipeline.resample_linear_1hz"), s_),
        "signal_pipeline.preprocess_s": (per_unit("signal_pipeline.preprocess_subject"), s_),
        "signal_pipeline.to_csv_s": (per_unit("signal_pipeline.record_to_csv_bytes"), s_),
        "signal_pipeline.rows": (attr_sum("signal_pipeline.parse_recording_csv", "rows"), "count"),
        "experiment.split_s": (per_unit("experiment.split_by_activity"), s_),
        "experiment.reconstruct_s": (per_unit("experiment.reconstruct_pmbnn_r"), s_),
        "nn_core.loss_grad_calls": (count("nn_core.loss_and_gradients"), "count"),
        "nn_core.loss_grad_ms_p50": (per_call("nn_core.loss_and_gradients", 1e3), "ms"),
        "nn_core.rmsprop_ms_p50": (per_call("nn_core.rmsprop_step", 1e3), "ms"),
        "nn_core.forward_ms_p50": (per_call("nn_core.mlp_forward", 1e3), "ms"),
        "nn_core.loss_only_calls": (count("nn_core.loss_only"), "count"),
        "nn_core.loss_only_us_p50": (per_call("nn_core.loss_only", 1e6), "us"),
        "nn_core.epoch_mflop": (_median(flops), "MFLOP"),
        "training.pmbnn_epochs": (attr_sum("training.train_pmbnn", "epochs", direct), "count"),
        "training.fcnn_epochs": (attr_sum("training.train_fcnn", "epochs"), "count"),
        "training.train_pmbnn_s": (per_unit("training.train_pmbnn", keep=direct), s_),
        "training.train_fcnn_s": (per_unit("training.train_fcnn"), s_),
        "training.fit_pm_s": (per_unit("training.fit_pm"), s_),
        "training.lbfgs_iterations": (attr_sum("training.lbfgs_minimize", "iterations"), "count"),
        "training.lbfgs_converged": (
            sum(s[6]["converged"] for s in fits) / len(fits) if fits else 0.0, "ratio"),
        "training.lbfgs_line_search_failed": (
            attr_sum("training.lbfgs_minimize", "line_search_failed"), "count"),
        "physio_model.simulate_calls": (count("physio_model.simulate_hr"), "count"),
        "physio_model.simulate_us_p50": (per_call("physio_model.simulate_hr", 1e6), "us"),
        "physio_model.simulate_calls_per_iteration": (
            sim_in_fits / iterations if iterations else 0.0, "calls/iter"),
        "stats_eval.metrics_s": (per_unit("stats_eval.r_squared", "stats_eval.rmse"), s_),
        "stats_eval.report_s": (
            per_unit("stats_eval.build_eval_report", "stats_eval.emit_report"), s_),
        "stats_eval.wilcoxon_calls": (count("stats_eval.wilcoxon_signed_rank"), "count"),
    }
    for stage in ("preprocess", "train_pmbnn", "train_fcnn", "train_pm",
                  "reconstruct", "evaluate", "report", "gradcheck"):
        out[f"cli.{stage}_s"] = (per_unit(f"cli.{stage}"), s_)
    return out

