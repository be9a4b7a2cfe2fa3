"""Command-line entry point.

Subcommands wire the pipeline end to end: ``preprocess`` -> ``split`` ->
``train`` (one model per invocation) -> ``reconstruct`` -> ``evaluate``
-> ``report``, plus ``synth`` for generating oracle subjects and
``gradcheck`` for verifying the reverse-mode gradients. Configuration is
a JSON file with flat dotted keys; a ``--section.key value`` flag for a
section the subcommand reads overrides the file, and ``pmbnn <subcommand>
--help`` lists each such flag with its default. Exit codes: 0 success,
1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import nn_core, stats_eval
from .errors import (INTEGER, NUMBER, NUMBER_OR_NULL, STRING, IoFailure, ListOf,
                     MalformedHeader, MalformedRow, OutOfBounds, PmbnnError, check_json)
from .experiment import (
    ActivityPhase,
    DEFAULT_PLAN,
    SPLIT_RATIO,
    SyntheticSpec,
    fit_model,
    generate_synthetic_subject,
    reconstruct_pmbnn_r,
    split_by_activity,
)
from .physio_model import LambdaBounds, LambdaParams
from .signal_pipeline import (
    FilterConfig,
    SubjectRecord,
    _cell,
    csv_bytes,
    csv_table,
    parse_recording_csv,
    preprocess_subject,
    record_to_csv_bytes,
    resample_linear_1hz,
)
from .training import PmFitConfig, TrainConfig

log = logging.getLogger("pmbnn")

#: each config section and the dataclass whose fields are its keys
SECTIONS = {"filter": FilterConfig, "train": TrainConfig, "pm": PmFitConfig}
#: every config key and its default: ``<section>.<field>``, and ``split.ratio``
DEFAULTS = {**{f"{section}.{f.name}": f.default
               for section, cls in SECTIONS.items() for f in fields(cls)},
            "split.ratio": SPLIT_RATIO}

#: the config sections that each model's fit reads
MODEL_SECTIONS = {"pmbnn": ("split", "train"), "fcnn": ("split", "train"), "pm": ("split", "pm")}

MODEL_COLUMNS = {m: f"hr_{m}" for m in ("pmbnn", "fcnn", "pm", "pmbnn_r")}
JOINED_HEADER = ["t_s", "hr_true", *MODEL_COLUMNS.values(), "activity"]

#: a ``synth --spec`` file: SyntheticSpec's fields but its box (errors.check_json)
SPEC_FIELDS = {"subject_id?": STRING, "lambda_true": ListOf(NUMBER, 6), "hr0?": NUMBER,
               "noise_sigma_hr?": NUMBER, "noise_sigma_vo2?": NUMBER, "seed?": INTEGER,
               "plan": ListOf({"label": STRING, "duration_s": INTEGER, "target_vo2": NUMBER,
                               "tau_s?": NUMBER})}

#: a ``metrics.json`` as ``evaluate`` writes it: R^2 and RMSE per model and scope
METRIC_FIELDS = {"r2": NUMBER_OR_NULL, "rmse": NUMBER}
METRICS_FIELDS = {"command": STRING, "participant": STRING, "n_samples": INTEGER, "models": {
    f"{m}?": {"overall": METRIC_FIELDS, "per_activity": {"*": METRIC_FIELDS}}
    for m in MODEL_COLUMNS}}

#: default ground truth for ``synth``: rising-HR configuration inside the box
SYNTH_DEFAULT_LAMBDA = LambdaParams(0.025, 0.08, -2.8, 19.0, 0.44, 0.1)


def _resolve_config(path: str | None, flags: dict, sections: tuple[str, ...],
                    reader: str) -> dict:
    """DEFAULTS, then the ``--config`` file, then the ``--section.key`` flags.

    Raises ValueError for a usage error: an unreadable or malformed config
    file, a file key outside DEFAULTS, a value whose type does not fit its
    default, or a flag outside ``sections``, the sections that ``reader``
    reads (the file may hold any key, so one file serves the whole
    pipeline).
    """
    cfg = dict(DEFAULTS)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config {path} must be a JSON object")
        cfg.update(file_cfg)
    cfg.update(flags)
    unknown = sorted(set(cfg) - set(DEFAULTS))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    for key, value in cfg.items():
        if not _fits_default_type(value, DEFAULTS[key]):
            raise ValueError(f"{key} must be {type(DEFAULTS[key]).__name__}, "
                             f"got {value!r}")
    unread = [k for k in flags if k.split(".")[0] not in sections]
    if unread:
        raise ValueError(f"{' '.join('--' + k for k in unread)}: {reader} reads "
                         f"only {', '.join(s + '.*' for s in sections)} settings")
    return cfg


def _json_value(text: str):
    """A ``--section.key`` value: JSON, else the raw string, which the
    type check then rejects."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _fits_default_type(value, default) -> bool:
    """An integral number for int keys, any number for float keys; never a bool."""
    if type(default) is int:
        return type(value) is int or type(value) is float and value.is_integer()
    return type(value) in (int, float)


def _seed(text: str) -> int:
    """``--seed``: an integer >= 0, as numpy's generators require."""
    value = int(text)  # argparse turns a ValueError into a usage error
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


def _section(section: str, cfg: dict):
    """The section's config dataclass from its keys, each value cast to its
    default's type."""
    cls = SECTIONS[section]
    return cls(**{f.name: type(f.default)(cfg[f"{section}.{f.name}"]) for f in fields(cls)})


def _config(args, cfg: dict) -> dict:
    """``config``, the keys of the sections the subcommand reads
    (``args.sections``), and that dict's ``config_hash``; empty for a
    subcommand that reads no settings."""
    config = {k: v for k, v in cfg.items() if k.split(".")[0] in args.sections}
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()
    return {"config": config, "config_hash": digest} if args.sections else {}


def _manifest(args, cfg: dict, payload: dict) -> bytes:
    """``payload`` stamped with the subcommand and its :func:`_config`."""
    payload = {"command": args.command, **payload, **_config(args, cfg)}
    return json.dumps(payload, sort_keys=True, indent=1).encode() + b"\n"


def _make_dir(path: str) -> None:
    """Create the directory ``path``; one that cannot be made is IoFailure."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _write_run(out: str, files: dict[str, bytes]) -> None:
    """Write a run's artifacts into ``out``, all or none.

    Each goes to ``.<name>.tmp`` first and is moved into place with
    ``os.replace`` only once every one is written. A path that cannot be
    written (``out`` names a file, a destination is a directory, no
    permission, ...) is IoFailure, and the temporary files are removed.
    """
    paths = {os.path.join(out, name): os.path.join(out, f".{name}.tmp") for name in files}
    for path in paths:   # os.replace onto a directory fails after earlier moves
        if os.path.isdir(path):
            raise IoFailure(f"cannot write {path}: it is a directory")
    _make_dir(out)
    written = []
    try:
        for (path, tmp), data in zip(paths.items(), files.values()):
            with open(tmp, "wb") as fh:
                written.append(tmp)
                fh.write(data)
        for path, tmp in paths.items():
            os.replace(tmp, path)
    except OSError as exc:
        for tmp in written:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _read_json(path: str):
    try:
        return json.loads(_read_bytes(path))
    except ValueError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _read_record(path: str) -> SubjectRecord:
    subject_id = os.path.splitext(os.path.basename(path))[0]
    return resample_linear_1hz(parse_recording_csv(_read_bytes(path), subject_id=subject_id))


def _read_split(args, cfg: dict):
    """The ``--input`` record and its per-activity split at ``split.ratio``."""
    rec = _read_record(args.input)
    return rec, split_by_activity(rec, float(cfg["split.ratio"]))


def _predictions(model: str, rec: SubjectRecord, split, pred) -> bytes:
    """predictions_<model>.csv: each test sample's time, measured HR, the
    model's HR and activity label."""
    times = rec.vo2.t0 + rec.vo2.dt * split.test_indices
    return csv_bytes(["t_s", "hr_true", MODEL_COLUMNS[model], "activity"],
                     ([f"{t:.10g}", f"{h:.10g}", f"{p:.10g}", a] for t, h, p, a in
                      zip(times, split.test.hr.values, pred, split.test.activity_labels)))


# --- subcommands ------------------------------------------------------------

def cmd_preprocess(args, cfg: dict) -> dict[str, bytes]:
    rec = _read_record(args.input)
    out = preprocess_subject(rec, _section("filter", cfg))
    log.info("preprocessed %s", args.input)
    return {"preprocessed.csv": record_to_csv_bytes(out),
            "preprocess_manifest.json": _manifest(args, cfg, {
                "input": os.path.basename(args.input), "subject_id": rec.subject_id,
                "n_samples": len(out)})}


def _from_json(make, fields: dict, path: str, key: str = ""):
    """``make(**fields)`` for the object at ``key`` (a key path ending in a dot)
    of the JSON file ``path``; its range errors name the file and key path."""
    try:
        return make(**fields)
    except OutOfBounds as exc:
        raise OutOfBounds(f"{path}: {key}{exc}") from None


def _spec_from_file(path: str, seed: int | None) -> SyntheticSpec:
    spec = {"subject_id": "synthetic", **check_json(_read_json(path), SPEC_FIELDS, path),
            **({} if seed is None else {"seed": seed})}
    return _from_json(SyntheticSpec, {
        **spec, "plan": tuple(ActivityPhase(**p) for p in spec["plan"]),
        "lambda_true": LambdaParams(*spec["lambda_true"])}, path)


def cmd_synth(args, cfg: dict) -> dict[str, bytes]:
    if args.spec:
        spec = _spec_from_file(args.spec, args.seed)
    else:
        spec = SyntheticSpec(
            subject_id="synthetic",
            plan=DEFAULT_PLAN,
            lambda_true=SYNTH_DEFAULT_LAMBDA,
            hr0=70.0,
            noise_sigma_hr=args.noise_hr,
            seed=args.seed if args.seed is not None else 0,
        )
    rec = generate_synthetic_subject(spec)
    log.info("synthesized %s (%d samples)", spec.subject_id, len(rec))
    return {f"{spec.subject_id}.csv": record_to_csv_bytes(rec),
            "synth_manifest.json": _manifest(args, cfg, {
                "subject_id": spec.subject_id, "lambda_true": list(spec.lambda_true.as_array()),
                "hr0": spec.hr0, "noise_sigma_hr": spec.noise_sigma_hr,
                "noise_sigma_vo2": spec.noise_sigma_vo2, "seed": spec.seed,
                "plan": [asdict(p) for p in spec.plan]})}


def cmd_split(args, cfg: dict) -> dict[str, bytes]:
    rec, split = _read_split(args, cfg)
    return {"train.csv": record_to_csv_bytes(split.train),
            "test.csv": record_to_csv_bytes(split.test),
            "split_manifest.json": _manifest(args, cfg, {
                "subject_id": rec.subject_id, "ratio": cfg["split.ratio"],
                "split_hash": split.provenance_hash(),
                "train_indices": split.train_indices.tolist(),
                "test_indices": split.test_indices.tolist()})}


def cmd_train(args, cfg: dict) -> dict[str, bytes]:
    rec, split = _read_split(args, cfg)
    # both fit sections are range-checked, though the model's fit reads one
    train, pm = _section("train", cfg), _section("pm", cfg)
    _make_dir(args.out)  # an unusable --out fails before the fit, not after it
    fitted = fit_model(args.model, split, train, pm)
    config_hash = _config(args, cfg)["config_hash"]
    lam = list(fitted.lam.as_array())
    files = {f"{args.model}_run_manifest.json": _manifest(args, cfg, {
                 "model": args.model, "subject_id": rec.subject_id,
                 "split_hash": split.provenance_hash(), "lambda": lam, **fitted.diagnostics}),
             f"predictions_{args.model}.csv": _predictions(args.model, rec, split,
                                                           fitted.predictions)}
    if fitted.mlp is None:
        files["pm_lambda.json"] = json.dumps({"lambda": lam, "config_hash": config_hash},
                                             sort_keys=True).encode() + b"\n"
    else:
        files[f"{args.model}_checkpoint.json"] = nn_core.checkpoint_bytes(
            fitted.mlp, LambdaBounds(), train.seed, config_hash)
    return files


def cmd_reconstruct(args, cfg: dict) -> dict[str, bytes]:
    params, seed, config_hash = nn_core.load_checkpoint(_read_json(args.checkpoint),
                                                        args.checkpoint)
    lam = nn_core.lambda_from_theta(params.theta, LambdaBounds())
    rec, split = _read_split(args, cfg)
    return {"predictions_pmbnn_r.csv": _predictions(
                "pmbnn_r", rec, split, reconstruct_pmbnn_r(split.test, lam).values),
            "pmbnn_r_run_manifest.json": _manifest(args, cfg, {
                "subject_id": rec.subject_id, "checkpoint": os.path.basename(args.checkpoint),
                "checkpoint_seed": seed, "checkpoint_config_hash": config_hash,
                "lambda": list(lam.as_array()), "split_hash": split.provenance_hash()})}


def _read_predictions(path: str):
    """A predictions CSV's header and its ``(line, t_s, hr_true, row)``
    entries, read with :func:`csv_table`.

    The header is ``t_s,hr_true``, one or more distinct MODEL_COLUMNS,
    ``activity``, else MalformedHeader; each row's cells but the last are
    finite numbers, else MalformedRow names the line. Both name the path.
    """
    try:
        header, rows = csv_table(_read_bytes(path))
        model_cols = header[2:-1]
        if (header[:2] != ["t_s", "hr_true"] or header[-1:] != ["activity"] or not model_cols
                or not set(model_cols) <= set(MODEL_COLUMNS.values())
                or len(set(model_cols)) < len(model_cols)):
            raise MalformedHeader(f"line 1: expected t_s,hr_true, model columns and activity, "
                                  f"got {','.join(header)!r}")
        checked = []
        for line, row in rows:
            try:
                cells = [_cell(cell, missing_ok=False) for cell in row[:-1]]
            except ValueError as exc:
                raise MalformedRow(f"line {line}: {exc}") from None
            checked.append((line, cells[0], cells[1], row))
    except (MalformedHeader, MalformedRow) as exc:
        raise type(exc)(f"{path} {exc}") from None
    return header, checked


def cmd_evaluate(args, cfg: dict) -> dict[str, bytes]:
    joined: dict[float, dict] = {}
    source: dict[str, str] = {}   # each model column and the --pred file that holds it
    for path in args.pred:
        header, rows = _read_predictions(path)
        for col in header[2:-1]:
            if col in source:
                raise MalformedHeader(f"{path} line 1: column {col} is also in {source[col]}")
            source[col] = path
        for lineno, t, hr, row in rows:
            entry = joined.setdefault(t, {"hr": hr, "hr_true": row[1], "activity": row[-1]})
            if (entry["hr"], entry["activity"]) != (hr, row[-1]):
                raise MalformedRow(
                    f"{path} line {lineno}: hr_true {row[1]!r} and activity {row[-1]!r} "
                    f"at t_s {row[0]!r} disagree with an earlier row "
                    f"({entry['hr_true']!r}, {entry['activity']!r})")
            entry.update(zip(header[2:-1], row[2:-1]))
    times = sorted(joined)

    metrics: dict[str, dict] = {}
    for model, col in MODEL_COLUMNS.items():
        have = [t for t in times if col in joined[t]]
        if not have:
            continue
        pred = np.array([float(joined[t][col]) for t in have])
        ref = np.array([joined[t]["hr"] for t in have])
        labs = [joined[t]["activity"] for t in have]
        # squared errors of finite cells can overflow; MetricPair rejects the result
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                metrics[model] = stats_eval.score_predictions(ref, pred, labs)
            except OutOfBounds as exc:
                raise OutOfBounds(f"{model}: {exc}") from None

    log.info("evaluated %d models on %d joined samples", len(metrics), len(times))
    return {"predictions.csv": csv_bytes(JOINED_HEADER, (
                [f"{t:.10g}", e["hr_true"], *(e.get(c, "") for c in JOINED_HEADER[2:-1]),
                 e["activity"]] for t, e in sorted(joined.items()))),
            "metrics.json": _manifest(args, cfg, {
                "participant": args.subject, "n_samples": len(times), "models": metrics})}


def cmd_report(args, cfg: dict) -> dict[str, bytes]:
    subjects = []
    for path in args.metrics:
        payload = check_json(_read_json(path), METRICS_FIELDS, path)
        overall, per_activity = {}, {}
        for model, entry in payload["models"].items():
            pair = lambda m, scope: _from_json(stats_eval.MetricPair, m, path,
                                               f"models.{model}.{scope}.")
            overall[model] = pair(entry["overall"], "overall")
            for act, m in entry["per_activity"].items():
                per_activity.setdefault(act, {})[model] = pair(m, f"per_activity.{act}")
        subjects.append(stats_eval.SubjectMetrics(payload["participant"], overall, per_activity))
    report = stats_eval.build_eval_report(subjects)
    return {**stats_eval.emit_report(report),
            "report_manifest.json": _manifest(args, cfg, {
                "inputs": [os.path.basename(p) for p in args.metrics],
                "participants": [s.participant for s in subjects]})}


def cmd_gradcheck(args, cfg: dict) -> int:
    err = nn_core.run_gradcheck(args.seed)
    print(f"max relative gradient error (seed {args.seed}): {err:.3e}")
    return 0 if err <= 1e-4 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``pmbnn`` parser, built on first use and shared by every later
    :func:`main` call in the process; parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="pmbnn",
        description="Physiological-model-based neural network pipeline",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, sections=(), seed=False, out=True):
        """Subcommand ``name``; with ``sections``, the settings it reads, it takes
        ``--config`` and one ``--section.key`` option per key of them."""
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(func=func, sections=sections)
        if sections:
            p.add_argument("--config", help="JSON config file with flat dotted keys")
        for key, default in DEFAULTS.items():
            if key.split(".")[0] in sections:
                p.add_argument(f"--{key}", type=_json_value, default=argparse.SUPPRESS,
                               metavar=type(default).__name__.upper(),
                               help=f"default: {json.dumps(default)}")
        if seed:
            p.add_argument("--seed", type=_seed, default=None)
        if out:
            p.add_argument("--out", required=True, help="output directory")
        return p

    p = add("preprocess", cmd_preprocess, "resample + filter a recording", ("filter",))
    p.add_argument("--input", required=True)

    p = add("synth", cmd_synth, "generate a synthetic oracle subject", seed=True)
    recipe = p.add_mutually_exclusive_group()   # a spec sets its own noise
    recipe.add_argument("--spec", help="synthetic spec JSON")
    recipe.add_argument("--noise-hr", type=float, default=0.0)

    p = add("split", cmd_split, "per-activity 80/20 split", ("split",))
    p.add_argument("--input", required=True)

    # every section a model reads; main narrows args.sections to the model's
    p = add("train", cmd_train, "train one model on one subject", ("split", "train", "pm"),
            seed=True)
    p.add_argument("--model", required=True, choices=("pmbnn", "fcnn", "pm"))
    p.add_argument("--input", required=True, help="preprocessed subject CSV")

    p = add("reconstruct", cmd_reconstruct, "PM with lambdas from a checkpoint", ("split",))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)

    p = add("evaluate", cmd_evaluate, "join prediction CSVs and score them")
    p.add_argument("--pred", nargs="+", required=True)
    p.add_argument("--subject", default="subject")

    p = add("report", cmd_report, "aggregate per-subject metrics files")
    p.add_argument("--metrics", nargs="+", required=True)

    p = add("gradcheck", cmd_gradcheck, "verify reverse-mode gradients", out=False)
    p.add_argument("--seed", type=_seed, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    level = os.environ.get("PMBNN_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        parser.error(f"PMBNN_LOG: unknown log level {level!r}; "
                     "use DEBUG, INFO, WARNING, ERROR or CRITICAL")
    logging.basicConfig()   # a stderr handler, unless one is installed already
    log.setLevel(level.upper())
    args = parser.parse_args(argv)
    reader = args.command
    if args.command == "train":
        args.sections = MODEL_SECTIONS[args.model]
        reader += f" --model {args.model}"
    flags = {k: v for k, v in vars(args).items() if k in DEFAULTS}
    try:
        cfg = _resolve_config(getattr(args, "config", None), flags, args.sections, reader)
    except ValueError as exc:
        parser.error(str(exc))
    if args.command == "train" and args.seed is not None:
        cfg["train.seed"] = args.seed   # --seed is short for --train.seed
    try:
        files = args.func(args, cfg)
        if isinstance(files, int):   # gradcheck prints its result and writes nothing
            return files
        _write_run(args.out, files)
    except PmbnnError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    log.info("%s wrote %s to %s", args.command, ", ".join(files), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
