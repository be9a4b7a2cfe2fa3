"""The workloads: what each runs, how it is timed, what it checks.

A workload builds a fixed list of items from its seed, sized from the run
length by a nominal cost per item, so the same seed and run length always
give the same inputs. A round runs every item once; rounds repeat on the
same inputs while the next one is expected to end within the run length.
The benchmark's spans time each round, item and CLI stage; checks run
after each round, outside the timed spans. Before and after each item,
untimed, a fixed reference workload samples how fast the host runs at
that moment.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import statistics
import time

import numpy as np

import checks
import inputs
from pmbnn import cli, nn_core, training
from pmbnn.signal_pipeline import SubjectRecord, UniformSeries, segments_from_labels


def _items(seconds: int, round_share: float, item_s: float, least: int) -> int:
    """Items in one round, so that it takes ``round_share`` of the run at a
    nominal ``item_s`` seconds per item. Set from the run length only, never
    from a timing, so that a seed always gives the same inputs."""
    return max(least, int(round_share * seconds / item_s))


#: the reference workload: a pure-Python loop, then small-array NumPy steps
#: on fixed data; REFERENCE_S, the reference speed, is about its typical
#: time on the machine of the README
REFERENCE_LOOPS = 200_000
REFERENCE_STEPS = 100
REFERENCE_S = 0.040
_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.standard_normal((1440, 16))
_REF_W = 0.1 * _REF_RNG.standard_normal((16, 16))
_REF_X = _REF_RNG.standard_normal(1440)


def reference_s() -> float:
    """Seconds for a fixed piece of work that does not touch the program.

    The program spends its time in the interpreter and in NumPy calls on
    arrays of a few thousand values. On a shared host its speed rises and
    falls with this mix of the two (README, "Run-to-run spread").
    """
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    w = _REF_W.copy()
    for _ in range(REFERENCE_STEPS):
        h = np.tanh(_REF_A @ w)
        w -= 1e-4 * (_REF_A.T @ (h * (1.0 - h * h)))
        float((_REF_X * 1.0001 + np.exp(-_REF_X)).sum())
    return time.perf_counter() - start


def _write(path: str, data: bytes) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _digest(paths) -> bytes:
    h = hashlib.sha256()
    for path in paths:
        h.update(_read(path))
    return h.digest()


class Workload:
    """Shared bookkeeping: operations attempted and failed, item results."""

    name = ""
    #: a round takes about this share of the run, so that each item runs
    #: in several rounds spread over the run and its median run escapes
    #: the short slow spells of a shared machine
    round_share = 0.15
    item_s = 1.0
    least_items = 1
    #: reference samples before and after each item
    reference_samples = 1

    def __init__(self, seed: int, seconds: int, workdir: str):
        self.workdir = workdir
        self.n_items = _items(seconds, self.round_share, self.item_s, self.least_items)
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.shares: dict[int, float] = {}      # error share per item
        self.details: dict[str, object] = {}
        self.reference_s: list[float] = []
        #: (item, seconds at the reference speed) for each run of an item
        self.scaled_items: list[tuple[int, float]] = []
        self._first_outputs: bytes | None = None

    @contextlib.contextmanager
    def item(self, tracer, r: int, i: int):
        """Time item ``i`` of round ``r`` between untimed reference samples.

        The item's time is scaled by how fast the reference ran just
        before and just after it, against its time at the reference speed.
        """
        near = [reference_s() for _ in range(self.reference_samples)]
        with tracer.span("item", unit="item", round_index=r, item_index=i) as sid:
            yield
        near += [reference_s() for _ in range(self.reference_samples)]
        self.reference_s.extend(near)
        self.scaled_items.append((i, tracer.duration(sid) * REFERENCE_S / statistics.fmean(near)))

    def op(self, tracer, stage: str, fn, *args, exit_code_fails: bool = True) -> object:
        """One program operation; an exception or a non-zero exit is a failure.

        With ``exit_code_fails`` off, the exit code is returned for a check
        to judge instead.
        """
        self.attempted += 1
        with tracer.span(stage):
            try:
                out = fn(*args)
            except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted, reported
                self.failed += 1
                self.failures.append(f"{stage}: {type(exc).__name__}: {exc}")
                return None
        if exit_code_fails and isinstance(out, int) and out != 0:
            self.failed += 1
            self.failures.append(f"{stage}: exit code {out}")
            return None
        return out

    def cli_op(self, tracer, stage: str, argv: list[str]) -> object:
        return self.op(tracer, f"cli.{stage}", cli.main, argv)

    def round_dir(self, r: int) -> str:
        return os.path.join(self.workdir, f"round{r}")

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run a little of the program untimed, so lazy set-up is done."""

    def run_round(self, tracer, r: int) -> None:
        raise NotImplementedError

    def check_round(self, r: int) -> None:
        """Check the first round in full; later rounds must repeat it exactly.

        The program promises byte-identical outputs for the same inputs and
        configuration, and repeating the full checks would cost run time.
        """
        if r == 0:
            self.check_outputs(0)
            self._first_outputs = self.outputs_digest(0)
        elif self.outputs_digest(r) != self._first_outputs:
            raise checks.CheckFailed(f"round {r} outputs differ from round 0 on the same inputs")

    def check_outputs(self, r: int) -> None:
        raise NotImplementedError

    def outputs_digest(self, r: int) -> bytes:
        raise NotImplementedError

    def finish_round(self, r: int) -> None:
        shutil.rmtree(self.round_dir(r), ignore_errors=True)


def _subject_record(name, vo2, hr, labels) -> SubjectRecord:
    bounds = segments_from_labels(labels)
    mk = lambda values, unit: UniformSeries(0.0, 1.0, values, bounds, unit)
    return SubjectRecord(name, mk(vo2, "L/min"), mk(hr, "bpm"), tuple(labels))


class Cohort(Workload):
    """The paper's pipeline through ``cli.main`` for a cohort of noisy subjects."""

    name = "cohort"
    # three participants a round, so that each runs three or four times in
    # a run and its median round escapes a short slow spell of the host
    round_share = 0.2
    item_s = 3.2
    least_items = 2
    reference_samples = 2
    noise_sigma_hr = 3.0

    def setup(self) -> None:
        self.subjects = [inputs.oracle_subject(j, self.rng, self.noise_sigma_hr)
                         for j in range(self.n_items)]
        self.train_seeds = [int(s) for s in self.rng.integers(0, 10_000, self.n_items)]
        for sub in self.subjects:
            _write(os.path.join(self.workdir, "in", f"{sub.name}.csv"), inputs.subject_csv(sub))

    def warm_up(self) -> None:
        sub = self.subjects[0]
        rec = _subject_record(sub.name, sub.vo2, sub.hr, sub.labels)
        training.train_pmbnn(rec, training.TrainConfig(max_epochs=30))

    def _paths(self, r: int, sub) -> dict[str, str]:
        d = os.path.join(self.round_dir(r), sub.name)
        return {"prep": os.path.join(d, "prep", "preprocessed.csv"),
                "models": os.path.join(d, "models"), "recon": os.path.join(d, "recon"),
                "eval": os.path.join(d, "eval")}

    def run_round(self, tracer, r: int) -> None:
        for i, (sub, train_seed) in enumerate(zip(self.subjects, self.train_seeds)):
            p = self._paths(r, sub)
            models = p["models"]
            with self.item(tracer, r, i):
                self.cli_op(tracer, "preprocess", [
                    "preprocess", "--input", os.path.join(self.workdir, "in", f"{sub.name}.csv"),
                    "--out", os.path.dirname(p["prep"])])
                for model in ("pmbnn", "fcnn", "pm"):
                    self.cli_op(tracer, f"train_{model}", [
                        "train", "--model", model, "--input", p["prep"], "--out", models,
                        "--seed", str(train_seed)])
                self.cli_op(tracer, "reconstruct", [
                    "reconstruct", "--checkpoint", os.path.join(models, "pmbnn_checkpoint.json"),
                    "--input", p["prep"], "--out", p["recon"]])
                self.cli_op(tracer, "evaluate", [
                    "evaluate", "--pred",
                    *(os.path.join(models, f"predictions_{m}.csv") for m in ("pmbnn", "fcnn", "pm")),
                    os.path.join(p["recon"], "predictions_pmbnn_r.csv"),
                    "--subject", sub.name, "--out", p["eval"]])
        self.cli_op(tracer, "report", [
            "report", "--metrics",
            *(os.path.join(self._paths(r, s)["eval"], "metrics.json") for s in self.subjects),
            "--out", os.path.join(self.round_dir(r), "report")])

    def outputs_digest(self, r: int) -> bytes:
        """Each participant's joined predictions and metrics, then the report."""
        evals = [self._paths(r, sub)["eval"] for sub in self.subjects]
        return _digest([os.path.join(e, n) for e in evals
                        for n in ("predictions.csv", "metrics.json")]
                       + [os.path.join(self.round_dir(r), "report", "report.json")])

    def check_outputs(self, r: int) -> None:
        metrics_files, pmbnn_fits, rmses = [], [], {"pmbnn": [], "pm": []}
        for j, sub in enumerate(self.subjects):
            p = self._paths(r, sub)
            metrics = checks.load_json(os.path.join(p["eval"], "metrics.json"))
            overall = checks.check_metrics(_read(os.path.join(p["eval"], "predictions.csv")),
                                           metrics)
            metrics_files.append(metrics)
            pmbnn_fits.append(overall["pmbnn"])
            rmses["pmbnn"].append(overall["pmbnn"][1])
            rmses["pm"].append(overall["pm"][1])
            manifest = checks.load_json(os.path.join(p["recon"], "pmbnn_r_run_manifest.json"))
            lam = np.array(manifest["lambda"])
            ckpt = checks.load_json(os.path.join(p["models"], "pmbnn_checkpoint.json"))
            if not np.allclose(checks.lambda_from_checkpoint(ckpt), lam, rtol=1e-12, atol=0):
                raise checks.CheckFailed(f"{sub.name}: reconstruct used lambdas {lam.tolist()} "
                                         "that the checkpoint's theta does not map to")
            checks.check_inside_boxes(lam)
            pm_lam = checks.load_json(os.path.join(p["models"], "pm_lambda.json"))["lambda"]
            checks.check_inside_boxes(pm_lam)
            checks.check_pm_rmse(overall["pm"][1])
            checks.check_dynamics(_read(os.path.join(p["recon"], "predictions_pmbnn_r.csv")),
                                  _read(p["prep"]), lam)
            r2_value, rmse_value = overall["pmbnn"]
            self.shares[j] = max(rmse_value / checks.PMBNN_RMSE_MAX,
                                 (1.0 - r2_value) / (1.0 - checks.PMBNN_R2_MIN),
                                 overall["pm"][1] / checks.PM_NOISY_RMSE_MAX)
        report = checks.load_json(os.path.join(self.round_dir(r), "report", "report.json"))
        compared = checks.check_wilcoxon(report, metrics_files)
        scopes = 1 + len({label for label, _, _ in inputs.SUBJECT_PLAN})
        if compared != len(checks.WILCOXON_KEYS) * scopes:
            raise checks.CheckFailed(f"only {compared} of the report's p-values "
                                     "could be checked by enumeration")
        self.details["wilcoxon_p_checked"] = compared
        checks.check_pmbnn_bar(pmbnn_fits)
        self.details["pmbnn_rmse_bpm"] = rmses["pmbnn"]
        self.details["pm_rmse_bpm"] = rmses["pm"]


class Gradcheck(Workload):
    """``pmbnn gradcheck`` over a range of seeds."""

    name = "gradcheck"
    item_s = 0.8

    def setup(self) -> None:
        first = int(self.rng.integers(0, 1_000_000))
        self.seeds = list(range(first, first + self.n_items))
        self.outputs: list[tuple[int | None, str]] = [(None, "")] * self.n_items

    def warm_up(self) -> None:
        params, batch = nn_core.make_gradcheck_case(self.seeds[0])
        for _ in range(300):
            nn_core.loss_only(params, batch)

    def run_round(self, tracer, r: int) -> None:
        for i, seed in enumerate(self.seeds):
            buf = io.StringIO()
            with self.item(tracer, r, i), contextlib.redirect_stdout(buf):
                code = self.op(tracer, "cli.gradcheck", cli.main,
                               ["gradcheck", "--seed", str(seed)], exit_code_fails=False)
            self.outputs[i] = (code, buf.getvalue())

    def outputs_digest(self, r: int) -> bytes:
        return repr(self.outputs).encode()

    def check_outputs(self, r: int) -> None:
        errors = []
        for i, (seed, (code, out)) in enumerate(zip(self.seeds, self.outputs)):
            if code is None:
                continue
            err = checks.check_gradcheck(seed, code, out)
            self.shares[i] = err / checks.GRAD_REL_ERR_MAX
            errors.append(err)
        self.details["max_rel_grad_err"] = max(errors) if errors else None


WORKLOADS = {w.name: w for w in (Cohort, Gradcheck)}
