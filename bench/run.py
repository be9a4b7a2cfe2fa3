"""Benchmark of the pmbnn pipeline, one workload per invocation.

    python3 bench/run.py --workload cohort --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A result file with the environment it ran in, and with
``--trace 1`` the spans, go to ``bench/out``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("cohort", "gradcheck")
#: one BLAS thread on every run, so two result files compare like for like
#: and the process never runs more threads than the two cores it has
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: fresh interpreters timed from start to ready; setup_s is their median
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
#: a fresh interpreter doing fixed work that does not touch the program:
#: standard-library imports, then new memory and a list. It runs before
#: each set-up probe; SETUP_REFERENCE_S, the reference speed, is about
#: its typical time on the machine of the README.
SETUP_REFERENCE = ("import argparse, asyncio, csv, decimal, email.parser, http.client, json, "
                   "logging, unittest, xml.dom.minidom; "
                   "x = bytearray(100_000_000); y = [i * 2 for i in range(1_500_000)]")
SETUP_REFERENCE_S = 0.3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workload(args, workdir: str):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed, args.seconds, workdir)


def probe_main(args) -> int:
    """Set up as a run does, say ready, then clean up and exit."""
    workdir = os.path.join(OUT, f"probe-{os.getpid()}")
    try:
        make_workload(args, workdir).setup()
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _time_child(cmd: list[str]) -> float:
    """Seconds from starting ``cmd`` until it prints its first line."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} failed (exit {proc.returncode})")
    return elapsed


def time_setup(args) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to the workload being ready,
    and the seconds of the set-up reference run before each."""
    probe = [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)]
    reference = [sys.executable, "-c", SETUP_REFERENCE + "; print('ready')"]
    samples, reference_s = [], []
    for _ in range(SETUP_PROBES):
        reference_s.append(_time_child(reference))
        samples.append(_time_child(probe))
    return samples, reference_s


def openblas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS library will use, asked from the library."""
    import ctypes

    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def environment() -> dict:
    """What a result depends on besides the code: compare only equal ones."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads": openblas_threads(),
    }


def run_rounds(workload, tracer, seconds: int) -> tuple[list[float], list[str]]:
    """Whole rounds while the next is expected to end within ``seconds``."""
    from checks import CheckFailed

    round_s, problems = [], []
    start = time.perf_counter()
    r = 0
    while True:
        failed_before = workload.failed
        with tracer.span("round", unit="round", round_index=r) as sid:
            workload.run_round(tracer, r)
        round_s.append(tracer.duration(sid))
        try:
            workload.check_round(r)
        except CheckFailed as exc:
            problems.append(f"round {r}: {exc}")
        except (OSError, KeyError, ValueError, IndexError) as exc:
            # an output a failed operation never wrote is that operation's
            # failure, already counted; otherwise the output is malformed
            if workload.failed == failed_before:
                problems.append(f"round {r}: unreadable output: {type(exc).__name__}: {exc}")
        workload.finish_round(r)
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / r > seconds:
            return round_s, problems


def host_scale(workload) -> float:
    """Factor that takes this run's times to the reference speed of the host.

    The reference workload's time at the reference speed over its mean
    time in this run: below 1 in a run the host was slow. Items are scaled
    by the reference samples next to them instead (Workload.item).
    """
    from workloads import REFERENCE_S

    return REFERENCE_S / statistics.fmean(workload.reference_s)


def end_to_end(workload, tracer, setup_s, setup_reference_s) -> dict[str, tuple[float, str]]:
    """The user-facing figures, in seconds at the host's reference speed.

    ``wall_s`` takes each item, and the cohort's report, at its median over
    the rounds; ``item_s_p50`` is the median over every run of every item.
    A set-up probe is taken relative to the set-up reference run just
    before it.
    """
    shares = list(workload.shares.values())
    report_s = tracer.durations("cli.report")
    per_item: dict[int, list[float]] = {}
    for i, t in workload.scaled_items:
        per_item.setdefault(i, []).append(t)
    report = statistics.median(report_s) * host_scale(workload) if report_s else 0.0
    return {
        "setup_s": (SETUP_REFERENCE_S * statistics.median(
            p / r for p, r in zip(setup_s, setup_reference_s)), "s"),
        "wall_s": (sum(statistics.median(t) for t in per_item.values()) + report, "s"),
        "item_s_p50": (statistics.median(t for _, t in workload.scaled_items), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "error_share": (statistics.fmean(shares) if shares else 0.0, "ratio"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pmbnn", "__init__.py")):
        print(f"error: no program source at {SRC}/pmbnn; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [SRC, BENCH_DIR]
    if args.setup_probe:
        return probe_main(args)

    os.makedirs(OUT, exist_ok=True)
    setup_s, setup_reference_s = time_setup(args)
    import pmbnn

    if not os.path.abspath(pmbnn.__file__).startswith(SRC + os.sep):
        print(f"error: imported pmbnn from {pmbnn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer, layer_metrics

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    tracer = Tracer()
    try:
        workload = make_workload(args, workdir)
        workload.setup()
        workload.warm_up()
        if args.trace:
            tracer.wrap_program()
        try:
            round_s, problems = run_rounds(workload, tracer, args.seconds)
        finally:
            tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(workload, tracer, setup_s, setup_reference_s)
    metrics = layer_metrics(tracer) if args.trace else e2e
    correct = not problems and bool(workload.shares)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "correct": correct, "attempted": workload.attempted, "failed": workload.failed,
        "failures": workload.failures, "check_failures": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        # a traced run keeps its end-to-end figures too: the tracing overhead
        # is its wall_s minus an untraced run's
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "items": workload.n_items, "rounds": len(round_s), "round_s": round_s,
        "item_s": tracer.durations("item"), "item_scaled_s": workload.scaled_items,
        "setup_s": setup_s, "setup_reference_s": setup_reference_s,
        "reference_s": workload.reference_s,
        "host_scale": host_scale(workload),
        "error_share_per_item": [workload.shares[k] for k in sorted(workload.shares)],
        "details": workload.details,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        tracer.write(os.path.join(OUT, f"trace-{tag}.json"),
                     {"wall_s": e2e["wall_s"][0], "rounds": len(round_s)})
    for line in problems + workload.failures:
        print(line, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - any crash exits non-zero without a result line
        traceback.print_exc()
        sys.exit(1)
