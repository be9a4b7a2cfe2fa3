import contextlib
import functools
import hashlib
import io
import json
import math
import os
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pmbnn import errors
from pmbnn.cli import DEFAULTS, MODEL_COLUMNS, MODEL_SECTIONS, main
from pmbnn.signal_pipeline import MAX_RECORD_SAMPLES, parse_recording_csv, resample_linear_1hz


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """One full CLI pass: synth -> preprocess -> train x3 -> reconstruct
    -> evaluate -> report, with a small epoch budget."""
    root = tmp_path_factory.mktemp("cli")
    synth = root / "synth"
    assert run(["synth", "--out", str(synth), "--seed", "5",
                "--noise-hr", "2.0"]) == 0
    subject_csv = synth / "synthetic.csv"

    prep = root / "prep"
    assert run(["preprocess", "--input", str(subject_csv), "--out", str(prep)]) == 0

    train_dir = root / "train"
    common = ["--input", str(prep / "preprocessed.csv"), "--out", str(train_dir),
              "--train.max_epochs", "60"]
    for model in ("pmbnn", "fcnn"):
        assert run(["train", "--model", model] + common) == 0
    assert run(["train", "--model", "pm", "--input", str(prep / "preprocessed.csv"),
                "--out", str(train_dir), "--pm.iters", "40"]) == 0

    recon = root / "recon"
    assert run(["reconstruct", "--checkpoint",
                str(train_dir / "pmbnn_checkpoint.json"),
                "--input", str(prep / "preprocessed.csv"),
                "--out", str(recon)]) == 0

    ev = root / "eval"
    assert run(["evaluate",
                "--pred",
                str(train_dir / "predictions_pmbnn.csv"),
                str(train_dir / "predictions_fcnn.csv"),
                str(train_dir / "predictions_pm.csv"),
                str(recon / "predictions_pmbnn_r.csv"),
                "--subject", "s01",
                "--out", str(ev)]) == 0

    rep = root / "report"
    assert run(["report", "--metrics", str(ev / "metrics.json"),
                "--out", str(rep)]) == 0
    return {"root": root, "synth": synth, "prep": prep, "train": train_dir,
            "recon": recon, "eval": ev, "report": rep}


class TestPipeline:
    def test_synth_writes_truth_manifest(self, pipeline_dirs):
        manifest = json.loads(
            (pipeline_dirs["synth"] / "synth_manifest.json").read_text()
        )
        assert len(manifest["lambda_true"]) == 6
        assert manifest["seed"] == 5

    def test_preprocess_keeps_schema(self, pipeline_dirs):
        head = (pipeline_dirs["prep"] / "preprocessed.csv").read_text().split("\n")[0]
        assert head == "time_s,vo2_lpm,hr_bpm,activity"

    def test_train_outputs(self, pipeline_dirs):
        d = pipeline_dirs["train"]
        for name in ("pmbnn_checkpoint.json", "fcnn_checkpoint.json",
                     "pm_lambda.json", "predictions_pmbnn.csv",
                     "pmbnn_run_manifest.json"):
            assert (d / name).exists()
        manifest = json.loads((d / "pmbnn_run_manifest.json").read_text())
        assert manifest["model"] == "pmbnn"
        assert len(manifest["lambda"]) == 6
        assert manifest["wall_time_s"] > 0
        assert manifest["stopped_reason"] in ("threshold", "epoch-cap")
        fit = json.loads((d / "pm_run_manifest.json").read_text())["lbfgs"]
        assert set(fit) == {"iterations", "converged", "line_search_failed"}
        assert 0 < fit["iterations"] <= 40

    def test_all_manifests_share_split_hash(self, pipeline_dirs):
        d = pipeline_dirs["train"]
        hashes = {
            json.loads((d / f"{m}_run_manifest.json").read_text())["split_hash"]
            for m in ("pmbnn", "fcnn", "pm")
        }
        recon = json.loads(
            (pipeline_dirs["recon"] / "pmbnn_r_run_manifest.json").read_text()
        )
        hashes.add(recon["split_hash"])
        assert len(hashes) == 1

    def test_preprocess_reads_a_csv_with_a_byte_order_mark(self, pipeline_dirs, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with the UTF-8 byte-order
        # mark; the header read as '\ufefftime_s,...', a MalformedHeader
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + (pipeline_dirs["synth"] / "synthetic.csv").read_bytes())
        assert run(["preprocess", "--input", str(bom), "--out", str(tmp_path / "prep")]) == 0
        assert ((tmp_path / "prep" / "preprocessed.csv").read_bytes()
                == (pipeline_dirs["prep"] / "preprocessed.csv").read_bytes())

    def test_joined_predictions_schema(self, pipeline_dirs):
        lines = (pipeline_dirs["eval"] / "predictions.csv").read_text().split("\n")
        assert lines[0] == "t_s,hr_true,hr_pmbnn,hr_fcnn,hr_pm,hr_pmbnn_r,activity"
        assert len([l for l in lines[1:] if l]) > 0
        # every joined row carries all four model columns
        some = lines[1].split(",")
        assert all(cell != "" for cell in some)

    def test_metrics_json_structure(self, pipeline_dirs):
        payload = json.loads((pipeline_dirs["eval"] / "metrics.json").read_text())
        assert payload["participant"] == "s01"
        assert set(payload["models"]) == {"pmbnn", "fcnn", "pm", "pmbnn_r"}
        for entry in payload["models"].values():
            assert set(entry["per_activity"]) == {"rest", "cycle", "run"}

    def test_report_files_emitted(self, pipeline_dirs):
        d = pipeline_dirs["report"]
        for name in ("report.csv", "report_by_activity.csv",
                     "boxplot_long.csv", "report.json"):
            assert (d / name).exists()
        text = (d / "report.csv").read_text()
        assert "insufficient pairs" in text  # single subject: no paired tests


class TestGradcheckCommand:
    def test_exit_zero_and_prints_error(self, capsys):
        assert run(["gradcheck", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "max relative gradient error" in out
        assert float(out.strip().split()[-1]) <= 1e-4

    def test_fifty_seeds_print_the_golden_lines(self, capsys):
        # tests/golden/gradcheck_seeds.txt pins the printed line of seeds 0..49
        golden = pathlib.Path(__file__).parent / "golden" / "gradcheck_seeds.txt"
        for seed in range(50):
            assert run(["gradcheck", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == golden.read_text()


class TestErrorPaths:
    def test_domain_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        # positive raw values that the filters drive negative: a floor below
        # zero let them through, and train ended in NonPositiveVo2
        vo2 = ["0.02"] * 40
        vo2[20] = "2.5"
        rows = [f"{t},{v},70,rest" for t, v in enumerate(vo2)]
        bad.write_bytes(("time_s,vo2_lpm,hr_bpm,activity\n"
                         + "\n".join(rows) + "\n").encode())
        prep = tmp_path / "prep"
        assert run(["preprocess", "--input", str(bad), "--out", str(prep),
                    "--filter.vo2_floor", "-100",
                    "--filter.sg_polyorder", "3"]) == 1
        assert "OutOfBounds: filter.vo2_floor" in capsys.readouterr().err
        assert not prep.exists()

    def test_overflowing_pm_fit_exits_one_without_warnings(self, tmp_path, capsys):
        # heart rates near 1e200 overflow the PM objective at x0; NumPy's
        # RuntimeWarnings came first, raised as errors under filterwarnings
        path = tmp_path / "huge.csv"
        rows = [f"{t},1.0,{1e200 * (1 + 0.01 * (t % 5))!r},rest" for t in range(300)]
        path.write_text("time_s,vo2_lpm,hr_bpm,activity\n" + "\n".join(rows) + "\n")
        out = tmp_path / "o"
        assert run(["train", "--model", "pm", "--input", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: NonFiniteLoss:")
        assert not any(out.iterdir())  # train makes --out before the fit

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--model", "nonsense", "--input", "x", "--out", "y"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--train.epochs", "3"],            # key outside DEFAULTS
        ["--foo", "1"],                     # not a --section.key flag
        ["--train.max_epochs"],             # flag without a value
        ["--pm.objective", "bogus"],        # key removed from DEFAULTS
        ["--split.rati", "0.5"],            # an abbreviated key
        ["--inp", "x.csv"],                 # was taken as --input
    ])
    def test_bad_config_flag_exits_two(self, argv, capsys):
        # the config is resolved before the subcommand reads its input
        with pytest.raises(SystemExit) as exc:
            run(["split", "--input", "absent.csv", "--out", "absent"] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and argv[0] in err

    @pytest.mark.parametrize("argv", [
        ["gradcheck"],
        ["synth", "--out", "{out}"],
        ["train", "--model", "pmbnn", "--input", "{out}", "--out", "{out}"],
    ])
    def test_negative_seed_exits_two(self, tmp_path, capsys, argv):
        # numpy's default_rng raised a ValueError traceback
        with pytest.raises(SystemExit) as exc:
            run([a.format(out=tmp_path / "o") for a in argv] + ["--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("train.max_epochs", "abc"),   # not a number for an int key
        ("pm.iters", "1.5"),           # non-integral float for an int key
        ("filter.vo2_floor", "true"),  # a bool for a float key
    ])
    def test_wrong_type_config_value_exits_two(self, tmp_path, capsys, key, value):
        model = "pm" if key.startswith("pm.") else "pmbnn"
        with pytest.raises(SystemExit) as exc:
            run(["train", "--model", model, "--input", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "t"), f"--{key}", value])
        assert exc.value.code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        '{"train.epochs": 3}',   # key outside DEFAULTS
        '{"train.max_epochs": ',  # not JSON
        '[1, 2]',                 # not a JSON object
        None,                     # missing file
    ])
    def test_bad_config_file_exits_two(self, tmp_path, content):
        path = tmp_path / "run.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            run(["split", "--input", "absent.csv", "--out", "absent", "--config", str(path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("extra", [
        ["--train.de_weight", "0", "--pm.iters", "5"],  # exited 0, ignoring both
        ["--config", "run.json"],
    ])
    def test_gradcheck_rejects_configuration(self, capsys, extra):
        # none of these reads a config section: the check runs on its own
        # fixed instance; synth, evaluate and report parsed --config and
        # echoed it into their manifests unread. None declares these flags.
        for argv in (["gradcheck", "--seed", "3"], ["synth", "--out", "o"],
                     ["evaluate", "--pred", "p.csv", "--out", "o"],
                     ["report", "--metrics", "m.json", "--out", "o"]):
            with pytest.raises(SystemExit) as exc:
                run(argv + extra)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["preprocess", "--input", "x.csv"],
        ["split", "--input", "x.csv"],
        ["reconstruct", "--checkpoint", "c.json", "--input", "x.csv"],
        ["evaluate", "--pred", "p.csv"],
        ["report", "--metrics", "m.json"],
    ])
    def test_seed_on_subcommand_without_randomness_exits_two(self, capsys, argv):
        # --seed was listed on these subcommands and silently ignored
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", "o", "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("row, shown", [
        (b"1,nan,71,rest", "MalformedRow: line 3: 'nan' is not a finite number"),
        (b"1,1.0,inf,rest", "MalformedRow: line 3: 'inf' is not a finite number"),
        (b"1,1.0,71,r\xe9st", "MalformedRow: line 3: byte 0xe9 is not UTF-8"),
        (b"1,1.0,71," + b"r" * 200_000,  # a traceback
         "MalformedRow: line 3: field larger than field limit"),
        # these named a row index from 0 or no line at all
        (b"1,,,rest", "MalformedRow: line 3: neither vo2 nor hr present"),
        (b"0,1.0,71,rest", "NonMonotonicTime: line 3: time 0.0 s is not after 0.0 s"),
        (b"1,1.0,-5,rest", "NonPositiveSignal: line 3: hr must be > 0, got -5.0"),
        # a span past the longest record: 1e16 s asked numpy for 71.1 PiB
        (b"1e16,1.0,71,rest", "OutOfBounds: recording spans 1e+16 grid seconds"),
        (b"%d,1.0,71,rest" % MAX_RECORD_SAMPLES,
         f"OutOfBounds: recording spans {MAX_RECORD_SAMPLES + 1} grid seconds, more than "
         f"the {MAX_RECORD_SAMPLES} of the longest record"),
        # printed the span as a 301-digit integer
        (b"1e300,1.0,71,rest", "OutOfBounds: recording spans 1e+300 grid seconds, more than "
         f"the {MAX_RECORD_SAMPLES} of the longest record"),
        (b"1,1.0,,rest", "InsufficientSamples: need at least 2 samples per signal"),
        (b"1,1.0,71,run", "InsufficientSamples: activity segment [0,1) has fewer than 2 grid "
         "samples"),
    ], ids=["nan", "inf", "latin1", "long-cell", "no-signal", "repeated-time", "negative-hr",
            "span-1e16-s", "span-past-the-cap", "span-1e300-s", "hr-in-one-row",
            "one-second-activity"])
    def test_bad_csv_cell_exits_one(self, tmp_path, capsys, row, shown):
        path = tmp_path / "in.csv"
        path.write_bytes(b"time_s,vo2_lpm,hr_bpm,activity\n0,1.0,70,rest\n" + row + b"\n")
        assert run(["preprocess", "--input", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert shown in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, shown", [
        # the odd-reflection pad took the spike's last sample to -34: preprocess
        # wrote it with exit 0, and train and split then rejected the CSV
        (["preprocess", "--input", "{spike}"], "hr must be > 0, got -34.0 at t = 59 s\n"),
        # Gaussian noise took hr to -190.6 at t = 3 s, which preprocess rejected
        (["synth", "--seed", "1", "--noise-hr", "200"], "hr must be > 0, got -190.62"),
    ], ids=["preprocessed-spike", "synth-noise"])
    def test_record_left_non_positive_by_filters_or_noise_exits_one(self, tmp_path, capsys,
                                                                     argv, shown):
        spike = tmp_path / "spike.csv"
        rows = [f"{t},1.0,{1000 if t == 54 else 60},rest" for t in range(60)]
        spike.write_text("time_s,vo2_lpm,hr_bpm,activity\n" + "\n".join(rows) + "\n")
        out = tmp_path / "o"
        assert run([a.format(spike=spike) for a in argv] + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: NonPositiveSignal: ") and err.count("\n") == 1
        assert shown in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["preprocess", "--input", "{missing}", "--out", "{out}"],
        ["reconstruct", "--checkpoint", "{missing}", "--input", "{missing}",
         "--out", "{out}"],
        ["evaluate", "--pred", "{missing}", "--out", "{out}"],
        ["report", "--metrics", "{missing}", "--out", "{out}"],
    ])
    def test_unreadable_input_is_io_failure(self, tmp_path, capsys, argv):
        names = {"missing": str(tmp_path / "absent.csv"), "out": str(tmp_path / "o")}
        assert run([a.format(**names) for a in argv]) == 1
        assert "IoFailure" in capsys.readouterr().err


@pytest.mark.parametrize("model, key, value", [
    ("pm", "split.ratio", "2"),        # was an IndexError traceback
    ("pm", "split.ratio", "NaN"),      # was a ValueError traceback
    ("pm", "split.ratio", "1.0"),      # was a misleading LengthMismatch
    ("pm", "split.ratio", "0"),
    ("pm", "split.ratio", "-0.5"),
    ("pm", "pm.iters", "-1"),          # exited 0 with the initial lambdas
    ("pm", "pm.iters", "0"),
    ("pm", "pm.proximal", "-1"),       # exited 0 after 150 iterations
    ("pmbnn", "train.lr", "-0.01"),    # trained uphill to the epoch cap
    ("pmbnn", "train.de_weight", "NaN"),
    ("pmbnn", "train.stop_threshold", "Infinity"),
    ("pmbnn", "train.seed", "-1"),     # was a ValueError traceback
    ("pm", "train.lr", "-0.01"),       # each model's run ignored the other's keys
    ("pmbnn", "pm.iters", "0"),
])
def test_out_of_range_config_value_exits_one(pipeline_dirs, tmp_path, capsys,
                                             model, key, value):
    # a key of a section the model does not read comes from a config file,
    # as a flag for it is a usage error
    setting = [f"--{key}", value]
    if key.split(".")[0] not in MODEL_SECTIONS[model]:
        (tmp_path / "run.json").write_text(f'{{"{key}": {value}}}')
        setting = ["--config", str(tmp_path / "run.json")]
    argv = ["train", "--model", model,
            "--input", str(pipeline_dirs["prep"] / "preprocessed.csv"),
            "--out", str(tmp_path / "t"), *setting]
    assert run(argv) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("value, shown", [
    ("NaN", "nan"),        # ended in NonPositiveSignal, naming no key
    ("Infinity", "inf"),
    ("0", "0.0"),          # exited 0, so ln(vo2) could meet vo2 = 0
    ("-1", "-1.0"),
])
def test_out_of_range_vo2_floor_exits_one(pipeline_dirs, tmp_path, capsys, value, shown):
    out = tmp_path / "p"
    assert run(["preprocess", "--input", str(pipeline_dirs["prep"] / "preprocessed.csv"),
                "--out", str(out), "--filter.vo2_floor", value]) == 1
    assert capsys.readouterr().err == (
        f"error: OutOfBounds: filter.vo2_floor must be finite and > 0, got {shown}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, payload", [
    (["report", "--metrics", "{json}", "--out", "{out}"], {}),
    (["reconstruct", "--checkpoint", "{json}", "--input", "{json}", "--out", "{out}"],
     {"arrays": {}}),
    (["synth", "--spec", "{json}", "--out", "{out}"],
     {"plan": [{"label": "rest", "target_vo2": 0.4}],
      "lambda_true": [0.02, 0.1, -5.3, 10.5, 0.44, 0.0]}),
])
def test_json_input_missing_field_is_io_failure(tmp_path, capsys, argv, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    names = {"json": str(path), "out": str(tmp_path / "o")}
    assert run([a.format(**names) for a in argv]) == 1
    assert "IoFailure" in capsys.readouterr().err


#: a spec that sets every key, so that each may be mutated
_FULL_SPEC = {"subject_id": "full", "lambda_true": [0.02, 0.1, -5.3, 10.5, 0.44, 0.1],
              "hr0": 72.0, "noise_sigma_hr": 1.0, "noise_sigma_vo2": 0.01, "seed": 4,
              "plan": [{"label": "rest", "duration_s": 60, "target_vo2": 0.4},
                       {"label": "run", "duration_s": 60, "target_vo2": 2.0, "tau_s": 20}]}

#: the keys a JSON input may lack: a spec key with a default, an entry of
#: metrics.json's models or of a model's per_activity
_MAY_LACK = {"spec": lambda path: path[-1] in ("subject_id", "hr0", "noise_sigma_hr",
                                               "noise_sigma_vo2", "seed", "tau_s"),
             "ckpt": lambda path: False,
             "metrics": lambda path: path[-2:-1] in (("models",), ("per_activity",))}

#: a value of each JSON kind that no field accepts as it stands (a list for a
#: scalar, for an object or for a list of another length or kind)
_BAD_VALUES = [True, math.nan, math.inf, 10**400, "x", [0.5], None]


@pytest.fixture(scope="module")
def json_inputs(pipeline_dirs, tmp_path_factory):
    """The three JSON inputs of real CLI runs, each with the argv of the
    subcommand that reads it, where ``{path}`` stands for the input."""
    spec = tmp_path_factory.mktemp("spec") / "spec.json"
    spec.write_text(json.dumps(_FULL_SPEC))
    assert run(["synth", "--spec", str(spec), "--out", str(spec.parent / "o")]) == 0
    names = _artifacts(pipeline_dirs)
    return {"spec": (str(spec), ["synth", "--spec", "{path}"]),
            "ckpt": (names["ckpt"],
                     ["reconstruct", "--checkpoint", "{path}", "--input", names["csv"]]),
            "metrics": (names["metrics"], ["report", "--metrics", "{path}"])}


def _key_paths(value, path=()):
    """The key path of every value inside a parsed JSON value."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield path + (key,)
        yield from _key_paths(inner, path + (key,))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_json_input_is_a_typed_error(json_inputs, data):
    # one mutation of a real run's spec, checkpoint or metrics.json: a key
    # deleted or added, or a value of another kind, ends in exit 1 with a
    # typed error and no file, never in a traceback or a run
    name = data.draw(st.sampled_from(sorted(json_inputs)))
    source, argv = json_inputs[name]
    payload = json.loads(pathlib.Path(source).read_text())
    path = data.draw(st.sampled_from(list(_key_paths(payload))))
    *head, last = path
    parent = functools.reduce(lambda node, key: node[key], head, payload)
    mutation = data.draw(st.sampled_from(["delete", "add", "set"]))
    if mutation == "delete" and isinstance(parent, dict) and not _MAY_LACK[name](path):
        del parent[last]
    elif mutation == "add" and isinstance(parent[last], dict):
        parent[last]["zzz"] = 1
    else:
        old, new = parent[last], data.draw(st.sampled_from(_BAD_VALUES))
        assume(not (type(old) is type(new) is str or new is None and last == "r2"))
        parent[last], mutation = new, f"set to {new!r}"
    with tempfile.TemporaryDirectory() as tmp:
        target, out = pathlib.Path(tmp) / "input.json", pathlib.Path(tmp) / "out"
        target.write_text(json.dumps(payload))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run([a.format(path=target) for a in argv] + ["--out", str(out)])
        assert code == 1, (name, path, mutation)
        kind = err.getvalue().removeprefix("error: ").split(":")[0]
        assert issubclass(getattr(errors, kind), errors.PmbnnError), err.getvalue()
        assert not out.exists()


def test_evaluate_one_sample_activity(tmp_path):
    # a 5-sample activity segment leaves one test sample after the split
    pred = tmp_path / "predictions_pmbnn.csv"
    pred.write_text("t_s,hr_true,hr_pmbnn,activity\n"
                    "4,70,71,sprint\n50,80,79,rest\n51,82,83,rest\n52,85,85,rest\n")
    assert run(["evaluate", "--pred", str(pred), "--out", str(tmp_path / "e")]) == 0
    payload = json.loads((tmp_path / "e" / "metrics.json").read_text())
    per_activity = payload["models"]["pmbnn"]["per_activity"]
    assert per_activity["sprint"] == {"r2": None, "rmse": 1.0}
    assert per_activity["rest"]["r2"] is not None


_PREDICTIONS = b"t_s,hr_true,hr_pmbnn,activity\n0,70,71,rest\n"


@pytest.mark.parametrize("data, shown", [
    # was a traceback
    (b"1,abc,71,rest", "MalformedRow: {bad} line 3: could not convert string to float: 'abc'"),
    # wrote 70 as the activity label
    (b"1,70", "MalformedRow: {bad} line 3: expected 4 fields, got 2"),
    # wrote NaN into metrics.json
    (b"1,nan,71,rest", "MalformedRow: {bad} line 3: 'nan' is not a finite number"),
    (b"1,70,inf,rest", "MalformedRow: {bad} line 3: 'inf' is not a finite number"),
    # an IoFailure carrying the codec's message
    (b"1,70,71,r\xe9st", "MalformedRow: {bad} line 3: byte 0xe9 is not UTF-8"),
    # a bare PmbnnError
    (b"t_s,hr_true,hr_lstm,activity\n0,70,71,rest",
     "MalformedHeader: {bad} line 1: expected t_s,hr_true, model columns and activity, "
     "got 't_s,hr_true,hr_lstm,activity'"),
    # the unknown column was dropped and the file scored, exit 0
    (b"t_s,hr_true,hr_pmbnn,hr_typo,activity\n0,70,71,72,rest",
     "MalformedHeader: {bad} line 1: expected t_s,hr_true, model columns and activity, "
     "got 't_s,hr_true,hr_pmbnn,hr_typo,activity'"),
    # the later hr_pmbnn cell silently won
    (b"t_s,hr_true,hr_pmbnn,hr_pmbnn,activity\n0,70,71,950,rest",
     "MalformedHeader: {bad} line 1: expected t_s,hr_true, model columns and activity, "
     "got 't_s,hr_true,hr_pmbnn,hr_pmbnn,activity'"),
    # the later file's hr_pm cells overwrote the earlier file's
    (b"t_s,hr_true,hr_pm,activity\n0,70,999,rest",
     "MalformedHeader: {bad} line 1: column hr_pm is also in {good}"),
    # the later prediction at t_s 0 silently replaced the earlier one, exit 0
    (b"0,70,950,rest", "MalformedRow: {bad} line 3: t_s '0' repeats an earlier row"),
    # only a model cell may be empty
    (b"1,,71,rest", "MalformedRow: {bad} line 3: could not convert string to float: ''"),
    (b",70,71,rest", "MalformedRow: {bad} line 3: could not convert string to float: ''"),
    # a repeat with no prediction in it: the first model column was the test
    (b"0,70,,rest", "MalformedRow: {bad} line 3: t_s '0' repeats an earlier row"),
], ids=["junk", "short", "nan", "inf", "latin1", "header", "unknown-column",
        "repeated-column", "column-in-two-files", "repeated-t_s", "empty-hr_true",
        "empty-t_s", "repeated-t_s-without-prediction"])
def test_evaluate_bad_prediction_row_exits_one(tmp_path, capsys, data, shown):
    good = tmp_path / "predictions_pm.csv"
    good.write_text("t_s,hr_true,hr_pm,activity\n0,70,71,rest\n1,72,71,rest\n")
    bad = tmp_path / "predictions_pmbnn.csv"
    bad.write_bytes((data if data.startswith(b"t_s") else _PREDICTIONS + data) + b"\n")
    out = tmp_path / "e"
    assert run(["evaluate", "--pred", str(good), str(bad), "--out", str(out)]) == 1
    assert shown.format(bad=bad, good=good) in capsys.readouterr().err
    assert not out.exists()   # every file is checked before anything is written


@pytest.mark.parametrize("row, shown", [
    ("0,90,71,rest", "line 2: hr_true '90' and activity 'rest'"),
    ("0,70,71,run", "line 2: hr_true '70' and activity 'run'"),
], ids=["hr_true", "activity"])
def test_evaluate_disagreeing_join_exits_one(tmp_path, capsys, row, shown):
    # the first file's hr_true and activity used to be kept silently
    fcnn = tmp_path / "predictions_fcnn.csv"
    fcnn.write_text("t_s,hr_true,hr_fcnn,activity\n0,70,71,rest\n1,72,73,rest\n")
    pm = tmp_path / "predictions_pm.csv"
    pm.write_text(f"t_s,hr_true,hr_pm,activity\n{row}\n1,72,73,rest\n")
    out = tmp_path / "e"
    assert run(["evaluate", "--pred", str(fcnn), str(pm), "--out", str(out)]) == 1
    assert f"MalformedRow: {pm} {shown}" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_joins_equal_numbers_written_differently(tmp_path):
    fcnn = tmp_path / "predictions_fcnn.csv"
    fcnn.write_text("t_s,hr_true,hr_fcnn,activity\n0,70,71,rest\n1,72,73,rest\n")
    pm = tmp_path / "predictions_pm.csv"
    pm.write_text("t_s,hr_true,hr_pm,activity\n0.0,70.0,71,rest\n1,7.2e1,73,rest\n")
    assert run(["evaluate", "--pred", str(fcnn), str(pm), "--out", str(tmp_path / "e")]) == 0
    models = json.loads((tmp_path / "e" / "metrics.json").read_text())["models"]
    assert models["pm"]["overall"] == models["fcnn"]["overall"]


def test_evaluate_reads_the_predictions_it_joins(tmp_path):
    # the joined file leaves a model's cell empty at a t_s it has no
    # prediction for, and evaluate rejected it: "could not convert string
    # to float: ''"
    fcnn = tmp_path / "predictions_fcnn.csv"
    fcnn.write_text("t_s,hr_true,hr_fcnn,activity\n0,70,71,rest\n1,72,73,rest\n2,75,74,run\n")
    pm = tmp_path / "predictions_pm.csv"
    pm.write_text("t_s,hr_true,hr_pm,activity\n1,72,70,rest\n2,75,77,run\n3,80,79,run\n")
    first, second = tmp_path / "e1", tmp_path / "e2"
    assert run(["evaluate", "--pred", str(fcnn), str(pm), "--out", str(first)]) == 0
    assert run(["evaluate", "--pred", str(first / "predictions.csv"), "--out", str(second)]) == 0
    one, two = (json.loads((d / "metrics.json").read_text()) for d in (first, second))
    assert two["models"] == one["models"] and set(one["models"]) == {"fcnn", "pm"}
    assert two["n_samples"] == one["n_samples"] == 4
    assert (second / "predictions.csv").read_bytes() == (first / "predictions.csv").read_bytes()


def test_unix_ms_stamped_recording_preprocesses_and_splits(tmp_path):
    # ten significant digits would write every time here as 1.7e+12, and
    # split would exit 1 with NonMonotonicTime
    t = 1.7e12 + np.arange(120)
    src = tmp_path / "unix_ms.csv"
    src.write_text("time_s,vo2_lpm,hr_bpm,activity\n" + "".join(
        f"{v:.1f},{1.0 + (i >= 60)},{70 + 20 * (i >= 60)},{('rest', 'run')[i >= 60]}\n"
        for i, v in enumerate(t)))
    prep = tmp_path / "prep"
    assert run(["preprocess", "--input", str(src), "--out", str(prep)]) == 0
    written = parse_recording_csv((prep / "preprocessed.csv").read_bytes()).time
    assert np.all(np.diff(written) > 0)
    np.testing.assert_array_equal(
        written, resample_linear_1hz(parse_recording_csv(src.read_bytes())).vo2.times())
    assert run(["split", "--input", str(prep / "preprocessed.csv"),
                "--out", str(tmp_path / "split")]) == 0


def test_evaluate_keeps_unix_ms_times_apart(tmp_path):
    # ten significant digits would write all three t_s as 1.7e+12, one
    # joined row three times over
    pred = tmp_path / "predictions_pm.csv"
    pred.write_text("t_s,hr_true,hr_pm,activity\n1700000000001,70,71,rest\n"
                    "1700000000002,72,75,rest\n1700000000003,80,79,rest\n")
    first, second = tmp_path / "e1", tmp_path / "e2"
    assert run(["evaluate", "--pred", str(pred), "--out", str(first)]) == 0
    lines = (first / "predictions.csv").read_text().splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == [
        "1700000000001.0", "1700000000002.0", "1700000000003.0"]
    assert run(["evaluate", "--pred", str(first / "predictions.csv"), "--out", str(second)]) == 0
    assert json.loads((second / "metrics.json").read_text())["n_samples"] == 3


def test_evaluate_reads_a_prediction_csv_with_a_byte_order_mark(tmp_path):
    text = b"t_s,hr_true,hr_pm,activity\n0,70,71,rest\n1,72,75,rest\n2,80,79,run\n"
    plain, bom = tmp_path / "predictions_pm.csv", tmp_path / "bom" / "predictions_pm.csv"
    bom.parent.mkdir()
    plain.write_bytes(text)
    bom.write_bytes(b"\xef\xbb\xbf" + text)
    for path, out in ((plain, "e1"), (bom, "e2")):
        assert run(["evaluate", "--pred", str(path), "--out", str(tmp_path / out)]) == 0
    one, two = (json.loads((tmp_path / d / "metrics.json").read_text()) for d in ("e1", "e2"))
    assert two["models"] == one["models"]


def test_evaluate_overflowing_score_exits_one(tmp_path, capsys):
    # wrote "rmse": Infinity into metrics.json and exited 0
    pred = tmp_path / "predictions_pmbnn.csv"
    pred.write_text("t_s,hr_true,hr_pmbnn,activity\n0,70,1e200,rest\n1,72,73,rest\n")
    out = tmp_path / "e"
    assert run(["evaluate", "--pred", str(pred), "--out", str(out)]) == 1
    assert "OutOfBounds: pmbnn: rmse must be finite" in capsys.readouterr().err
    assert not out.exists()


_HUGE = "100000000000000000...0000000000000000000"   # how a message shows 10**400


@pytest.mark.parametrize("overall, shown", [
    ('{"r2": 0.9, "rmse": -1}',          # was LengthMismatch
     "OutOfBounds: {path}: models.pmbnn.overall.rmse must be finite and >= 0, got -1"),
    ('{"r2": NaN, "rmse": NaN}',         # exited 0 and wrote nan rows
     "IoFailure: {path}: models.pmbnn.overall.r2 must be a finite number or null, got nan"),
    ('{"r2": 1.5, "rmse": 2.0}',
     "OutOfBounds: {path}: models.pmbnn.overall.r2 must be null or finite and <= 1, got 1.5"),
    ('{"r2": true, "rmse": true}',       # read as 1 and reported, exit 0
     "IoFailure: {path}: models.pmbnn.overall.r2 must be a finite number or null, got True"),
    ('{"r2": 0.9, "rmse": 1%s}' % ("0" * 400),    # an OverflowError traceback
     "IoFailure: {path}: models.pmbnn.overall.rmse must be a finite number, got " + _HUGE),
    ('{"r2": -1%s, "rmse": 2.0}' % ("0" * 400),
     "IoFailure: {path}: models.pmbnn.overall.r2 must be a finite number or null, "
     "got -10000000000000000...0000000000000000000"),
], ids=["negative-rmse", "nan", "r2-above-one", "bool", "huge-rmse", "huge-r2"])
def test_report_bad_metric_exits_one(tmp_path, capsys, overall, shown):
    path = tmp_path / "metrics.json"
    path.write_text('{"command": "evaluate", "participant": "s", "n_samples": 2, "models": '
                    '{"pmbnn": {"overall": %s, "per_activity": {}}}}' % overall)
    out = tmp_path / "r"
    assert run(["report", "--metrics", str(path), "--out", str(out)]) == 1
    assert shown.format(path=path) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit, shown", [
    (lambda m: m.update(participant=[1, 2]),   # reported as participant "[1, 2]"
     "participant must be a string, got [1, 2]"),
    (lambda m: m.update(participant=None),     # reported with an empty participant cell
     "participant must be a string, got None"),
    (lambda m: m.update(extra=1), "unknown key(s) extra"),
    (lambda m: m["models"].update(zzz=m["models"]["pm"]),   # reported as a model zzz
     "unknown key(s) models.zzz"),
    (lambda m: m["models"]["pm"]["per_activity"].update(sprint=[1.0, 2.0]),
     "models.pm.per_activity.sprint must be an object, got [1.0, 2.0]"),
    (lambda m: m["models"]["fcnn"]["overall"].pop("r2"),
     "missing key(s) models.fcnn.overall.r2"),
], ids=["participant-list", "participant-null", "unknown-key", "unknown-model",
        "activity-not-an-object", "missing-r2"])
def test_report_metrics_field_of_wrong_kind_is_io_failure(pipeline_dirs, tmp_path, capsys,
                                                          edit, shown):
    # the first four exited 0 and wrote a report
    metrics = json.loads(pathlib.Path(_artifacts(pipeline_dirs)["metrics"]).read_text())
    edit(metrics)
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(metrics))
    out = tmp_path / "r"
    assert run(["report", "--metrics", str(path), "--out", str(out)]) == 1
    assert f"error: IoFailure: {path}: {shown}\n" == capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model, scope, field, value, rule", [
    ("pm", "overall", "rmse", -1, "finite and >= 0"),
    ("fcnn", "overall", "r2", 1.5, "null or finite and <= 1"),
    ("pmbnn", "per_activity.rest", "rmse", -0.5, "finite and >= 0"),
    ("pmbnn_r", "per_activity.run", "r2", 2.0, "null or finite and <= 1"),
], ids=["pm-rmse", "fcnn-r2", "activity-rmse", "activity-r2"])
def test_report_range_error_names_file_and_key_path(pipeline_dirs, tmp_path, capsys,
                                                    model, scope, field, value, rule):
    # printed only "rmse must be finite and >= 0, got -1.0": with several
    # --metrics files nothing said which file, model or activity held it
    metrics = json.loads(pathlib.Path(_artifacts(pipeline_dirs)["metrics"]).read_text())
    good, bad = tmp_path / "a.json", tmp_path / "b.json"
    good.write_text(json.dumps(metrics))
    entry = metrics["models"][model]
    for part in scope.split("."):
        entry = entry[part]
    entry[field] = value
    bad.write_text(json.dumps(metrics))
    out = tmp_path / "r"
    assert run(["report", "--metrics", str(good), str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: OutOfBounds: {bad}: models.{model}.{scope}."
                                       f"{field} must be {rule}, got {float(value)}\n")
    assert not out.exists()


#: one cell a prediction file may change: hr_true or activity (a disagreement
#: when another file has the row), or a number whose squared error overflows
_EDITS = st.sampled_from([(1, "71"), (3, "cycle"), (1, "1e200"), (2, "1e200"),
                          (2, "-1e300"), (1, "1e-320")])


@st.composite
def _prediction_files(draw):
    """Per-model prediction CSVs over shared times, each file changing
    one cell by an _EDITS entry one time in four."""
    n = draw(st.integers(1, 6))
    hr = [draw(st.sampled_from(["70", "70.0", "72", "85.5", "101"])) for _ in range(n)]
    acts = [draw(st.sampled_from(["rest", "run"])) for _ in range(n)]
    models = draw(st.lists(st.sampled_from(list(MODEL_COLUMNS)), min_size=1,
                           max_size=4, unique=True))
    files = {}
    for model in models:
        rows = [[str(t), hr[t], repr(draw(st.floats(40, 200))), acts[t]] for t in range(n)]
        if draw(st.integers(0, 3)) == 0:
            col, value = draw(_EDITS)
            rows[draw(st.integers(0, n - 1))][col] = value
        header = ["t_s", "hr_true", MODEL_COLUMNS[model], "activity"]
        files[model] = "\n".join(",".join(r) for r in [header] + rows) + "\n"
    return files


def _exit_code(argv):
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


def _strict_json(path):
    def reject(name):
        raise AssertionError(f"{path} holds {name}")
    return json.loads(path.read_text(), parse_constant=reject)


@given(_prediction_files(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_evaluate_report_property_exit_code_and_strict_json(files, n_subjects):
    # evaluate -> report ends in exit 0, 1 or 2, never in another
    # exception, and on 0 writes JSON without Infinity or NaN
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        preds = []
        for model, text in files.items():
            preds.append(root / f"predictions_{model}.csv")
            preds[-1].write_text(text)
        code = _exit_code(["evaluate", "--pred", *map(str, preds), "--out", str(root / "e")])
        assert code in (0, 1, 2)
        if code != 0:
            return
        metrics = root / "e" / "metrics.json"
        _strict_json(metrics)
        code = _exit_code(["report", "--metrics", *[str(metrics)] * n_subjects,
                           "--out", str(root / "r")])
        assert code in (0, 1, 2)
        if code == 0:
            _strict_json(root / "r" / "report.json")


class TestConfigPlumbing:
    def test_file_config_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"split.ratio": 0.7, "train.max_epochs": 3}))
        synth = tmp_path / "s"
        assert run(["synth", "--out", str(synth), "--seed", "1"]) == 0
        out = tmp_path / "o"
        assert run(["split", "--input", str(synth / "synthetic.csv"),
                    "--out", str(out), "--config", str(cfg),
                    "--split.ratio", "0.8"]) == 0
        manifest = json.loads((out / "split_manifest.json").read_text())
        assert manifest["ratio"] == 0.8  # flag beats file

    def test_split_files_roundtrip(self, tmp_path):
        synth = tmp_path / "s"
        assert run(["synth", "--out", str(synth), "--seed", "2"]) == 0
        prep = tmp_path / "p"
        assert run(["preprocess", "--input", str(synth / "synthetic.csv"),
                    "--out", str(prep)]) == 0
        out = tmp_path / "o"
        assert run(["split", "--input", str(prep / "preprocessed.csv"),
                    "--out", str(out)]) == 0
        train_lines = (out / "train.csv").read_text().strip().split("\n")
        test_lines = (out / "test.csv").read_text().strip().split("\n")
        assert len(train_lines) - 1 == 1440
        assert len(test_lines) - 1 == 360
        # each row keeps the time it was recorded at: the halves were written
        # at positions 0..n-1, so test.csv began at t_s 0, not 480
        rows = (prep / "preprocessed.csv").read_text().strip().split("\n")
        manifest = json.loads((out / "split_manifest.json").read_text())
        for lines, key in ((train_lines, "train_indices"), (test_lines, "test_indices")):
            assert lines[0] == rows[0]
            assert lines[1:] == [rows[1 + i] for i in manifest[key]]
        assert test_lines[1].startswith("480,")


class TestIdempotence:
    def test_repeat_runs_byte_identical(self, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            root = tmp_path / tag
            synth = root / "synth"
            run(["synth", "--out", str(synth), "--seed", "9",
                 "--noise-hr", "2.0"])
            prep = root / "prep"
            run(["preprocess", "--input", str(synth / "synthetic.csv"),
                 "--out", str(prep)])
            train = root / "train"
            run(["train", "--model", "pmbnn", "--input",
                 str(prep / "preprocessed.csv"), "--out", str(train),
                 "--train.max_epochs", "25"])
            ev = root / "eval"
            run(["evaluate", "--pred", str(train / "predictions_pmbnn.csv"),
                 "--out", str(ev)])
            outputs.append(root)
        a, b = outputs
        for rel in ("synth/synthetic.csv", "prep/preprocessed.csv",
                    "train/predictions_pmbnn.csv", "train/pmbnn_checkpoint.json",
                    "eval/predictions.csv"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
        # manifests identical modulo wall time
        ma = json.loads((a / "train/pmbnn_run_manifest.json").read_text())
        mb = json.loads((b / "train/pmbnn_run_manifest.json").read_text())
        ma.pop("wall_time_s"), mb.pop("wall_time_s")
        assert ma == mb


class TestSynthSpecFile:
    def test_spec_json_controls_generation(self, tmp_path):
        spec = {
            "subject_id": "custom",
            "plan": [
                {"label": "rest", "duration_s": 120, "target_vo2": 0.4},
                {"label": "cycle", "duration_s": 180, "target_vo2": 1.5, "tau_s": 45},
            ],
            "lambda_true": [0.02, 0.1, -5.3, 10.5, 0.44, 0.0],
            "hr0": 66.0,
            "noise_sigma_hr": 0.0,
            "seed": 3,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert run(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        lines = (out / "custom.csv").read_text().strip().split("\n")
        assert len(lines) - 1 == 300
        manifest = json.loads((out / "synth_manifest.json").read_text())
        assert manifest["plan"][1]["tau_s"] == 45
        assert manifest["hr0"] == 66.0

    def test_seed_flag_overrides_spec_seed(self, tmp_path):
        spec = {
            "plan": [{"label": "rest", "duration_s": 120, "target_vo2": 0.4}],
            "lambda_true": [0.02, 0.1, -5.3, 10.5, 0.44, 0.1],
            "noise_sigma_hr": 2.0,
            "seed": 3,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["synth", "--spec", str(spec_path), "--out", str(a)]) == 0
        assert run(["synth", "--spec", str(spec_path), "--out", str(b),
                    "--seed", "77"]) == 0
        csv_a = (a / "synthetic.csv").read_bytes()
        csv_b = (b / "synthetic.csv").read_bytes()
        assert csv_a != csv_b

    def test_negative_spec_seed_exits_one(self, tmp_path, capsys):
        spec = {
            "plan": [{"label": "rest", "duration_s": 120, "target_vo2": 0.4}],
            "lambda_true": [0.02, 0.1, -5.3, 10.5, 0.44, 0.1],
            "seed": -1,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert run(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 1
        assert f"OutOfBounds: {spec_path}: seed" in capsys.readouterr().err


SPEC = {"plan": [{"label": "rest", "duration_s": 120, "target_vo2": 0.4}],
        "lambda_true": [0.02, 0.1, -5.3, 10.5, 0.44, 0.1]}


@pytest.mark.parametrize("flags, spec, shown", [
    (["--noise-hr", "-2"], None, "OutOfBounds: noise_sigma_hr"),
    (["--noise-hr", "nan"], None, "OutOfBounds: noise_sigma_hr"),
    ([], {"noise_sigma_vo2": -1}, "OutOfBounds: {spec}: noise_sigma_vo2"),
    ([], {"hr0": -70}, "OutOfBounds: {spec}: hr0 must be finite and > 0, got -70.0"),
    ([], {"plan": [{"label": "rest", "duration_s": 120, "target_vo2": 0.4, "tau_s": 0}]},
     "OutOfBounds: {spec}: plan[0].tau_s must be finite and > 0, got 0.0"),
    ([], {"plan": [{"label": "rest", "duration_s": 120, "target_vo2": math.nan}]},
     "IoFailure: {spec}: plan[0].target_vo2 must be a finite number, got nan"),
    ([], {"plan": [{"label": "rest", "duration_s": 90.7, "target_vo2": 0.4}]},
     "IoFailure: {spec}: plan[0].duration_s must be a finite integer, got 90.7"),
    ([], {"seed": 2.7}, "IoFailure: {spec}: seed must be a finite integer, got 2.7"),  # seed 2
    ([], {"seed": True}, "IoFailure: {spec}: seed must be a finite integer, got True"),  # 1
    ([], {"hr0": True}, "IoFailure: {spec}: hr0 must be a finite number, got True"),  # 1 bpm
    ([], {"lambda_true": [0.02, 0.1, -5.3, 10.5, 0.44, False]},     # ran as 0.0
     "IoFailure: {spec}: lambda_true[5] must be a finite number, got False"),
    ([], {"subject_id": 7}, "IoFailure: {spec}: subject_id must be a string, got 7"),
    ([], {"plan": [{"label": 7, "duration_s": 120, "target_vo2": 0.4}]},
     "IoFailure: {spec}: plan[0].label must be a string, got 7"),
    ([], {"subject_id": "../escaped"},   # wrote escaped.csv beside --out
     "OutOfBounds: {spec}: subject_id"),
    ([], {"subject_id": ".."}, "OutOfBounds: {spec}: subject_id"),
    ([], {"subject_id": ""}, "OutOfBounds: {spec}: subject_id"),
    ([], {"plan": []},                  # an IndexError traceback
     "OutOfBounds: {spec}: plan must be at least one phase, got ()"),
    ([], {"lambda_true": [0.5, 0.1, -5.3, 10.5, 0.44, 0.1]},   # named neither key nor file
     "OutOfBounds: {spec}: lambda_true must be strictly inside LambdaBounds("),
    ([], {"plan": [{"label": "rest", "duration_s": 10**16, "target_vo2": 0.4}]},  # 71.1 PiB
     f"OutOfBounds: {{spec}}: the plan's total duration_s must be <= {MAX_RECORD_SAMPLES} s, "
     f"the longest record, got {10**16}\n"),
    ([], {"plan": [{"label": "rest", "duration_s": MAX_RECORD_SAMPLES - 60, "target_vo2": 0.4},
                   {"label": "run", "duration_s": 61, "target_vo2": 2.0}]},
     f"OutOfBounds: {{spec}}: the plan's total duration_s must be <= {MAX_RECORD_SAMPLES} s, "
     f"the longest record, got {MAX_RECORD_SAMPLES + 1}\n"),
    ([], {"plan": [{"label": "rest", "duration_s": 30, "target_vo2": 0.4}]},
     "error: SegmentTooShort: phase shorter than 60 s: ActivityPhase(label='rest', "
     "duration_s=30, target_vo2=0.4, tau_s=30.0)\n"),
], ids=["noise-hr-negative", "noise-hr-nan", "noise-vo2-negative", "hr0-negative",
        "tau-zero", "target-vo2-nan", "duration-fractional", "seed-fractional",
        "seed-bool", "hr0-bool", "lambda-bool", "subject-id-number", "label-number", "subject-id-path",
        "subject-id-dotdot", "subject-id-empty", "plan-empty", "lambda-outside-box",
        "plan-1e16-s", "plan-past-the-cap", "phase-30-s"])
def test_synth_rejects_unusable_spec_values(tmp_path, capsys, flags, spec, shown):
    # each of these was ignored, truncated or written into the CSV with exit 0,
    # or ended in an error that named no setting
    path = tmp_path / "spec.json"
    if spec is not None:
        path.write_text(json.dumps({**SPEC, **spec}))
        flags = ["--spec", str(path)]
    assert run(["synth", "--out", str(tmp_path / "o"), *flags]) == 1
    assert shown.format(spec=path) in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] in ([], ["spec.json"])   # nothing written


def test_synth_spec_with_noise_hr_is_usage_error(tmp_path, capsys):
    # exited 0 and wrote noise_sigma_hr 0.0: the spec's noise won silently
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    assert _exit_code(["synth", "--spec", str(path), "--noise-hr", "5",
                       "--out", str(tmp_path / "o")]) == 2
    assert "argument --noise-hr: not allowed with argument --spec" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


@pytest.mark.parametrize("spec, key", [
    ({"noise_sgima_hr": 5}, "noise_sgima_hr"),   # ran with noise 0
    ({"bounds": {}}, "bounds"),
    ({"plan": [{"label": "rest", "duration_s": 120, "target_vo2": 0.4, "tau": 5}]},
     "plan[0].tau"),                             # ran with tau_s 30
])
def test_synth_spec_unknown_key_is_io_failure(tmp_path, capsys, spec, key):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**SPEC, **spec}))
    assert run(["synth", "--spec", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"IoFailure: {path}: unknown key(s) {key}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


def test_synth_spec_number_too_large_for_a_float_is_io_failure(tmp_path, capsys):
    # JSON integers are unbounded: hr0 = 10**400 raised OverflowError
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**SPEC, "hr0": 10**400}))
    assert run(["synth", "--spec", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"IoFailure: {path}: hr0 must be a finite number, got {_HUGE}\n" in (
        capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


def test_log_level_follows_env_on_every_call(tmp_path, monkeypatch, caplog):
    # no caplog.at_level: main alone must set the pmbnn logger's level
    synthesized = []
    for value in (None, "INFO", None):
        if value is None:
            monkeypatch.delenv("PMBNN_LOG", raising=False)
        else:
            monkeypatch.setenv("PMBNN_LOG", value)
        caplog.clear()
        assert run(["synth", "--out", str(tmp_path / "s"), "--seed", "1"]) == 0
        synthesized.append(any("synthesized" in r.message for r in caplog.records))
    assert synthesized == [False, True, False]


def test_log_env_variable(tmp_path, monkeypatch, caplog):
    import logging

    monkeypatch.setenv("PMBNN_LOG", "INFO")
    with caplog.at_level(logging.INFO, logger="pmbnn"):
        assert run(["synth", "--out", str(tmp_path / "s"), "--seed", "1"]) == 0
    assert any("synthesized" in r.message for r in caplog.records)


@pytest.mark.parametrize("value, code", [
    ("info", 0), ("Debug", 0), ("warning", 0),
    ("LOUD", 2), ("", 2), ("10", 2),
])
def test_log_env_variable_any_case_or_usage_error(monkeypatch, capsys, value, code):
    # a lowercase or unknown level ended in a ValueError traceback from
    # logging.basicConfig
    monkeypatch.setenv("PMBNN_LOG", value)
    assert _exit_code(["gradcheck", "--seed", "2"]) == code
    if code:
        assert f"PMBNN_LOG: unknown log level {value!r}" in capsys.readouterr().err


#: the 12 config keys, their defaults and their types, as one literal in
#: the CLI declared them before the config dataclasses did
REFERENCE_DEFAULTS = {
    "filter.sg_window": 15,
    "filter.sg_polyorder": 1,
    "filter.fir_taps": 10,
    "filter.vo2_floor": 0.05,
    "split.ratio": 0.8,
    "train.max_epochs": 5000,
    "train.stop_threshold": 10.0,
    "train.de_weight": 1e5 / 3600,
    "train.lr": 0.01,
    "train.seed": 0,
    "pm.iters": 150,
    "pm.proximal": 1e-3,
}


def test_config_keys_come_from_the_config_dataclasses():
    assert DEFAULTS == REFERENCE_DEFAULTS
    assert {k: type(v) for k, v in DEFAULTS.items()} == \
        {k: type(v) for k, v in REFERENCE_DEFAULTS.items()}


def _artifacts(pipeline_dirs) -> dict[str, str]:
    return {"csv": str(pipeline_dirs["prep"] / "preprocessed.csv"),
            "ckpt": str(pipeline_dirs["train"] / "pmbnn_checkpoint.json"),
            "pred": str(pipeline_dirs["train"] / "predictions_pm.csv"),
            "metrics": str(pipeline_dirs["eval"] / "metrics.json")}


@pytest.mark.parametrize("argv, key", [
    (["evaluate", "--pred", "{pred}"], "train.lr"),   # echoed into metrics.json
    (["synth"], "train.max_epochs"),
    (["preprocess", "--input", "{csv}"], "pm.iters"),
    (["reconstruct", "--checkpoint", "{ckpt}", "--input", "{csv}"], "train.lr"),
    # train took the split, train and pm sections for every model
    (["train", "--model", "pm", "--input", "{csv}"], "train.max_epochs"),
    (["train", "--model", "pm", "--input", "{csv}"], "train.seed"),
    (["train", "--model", "pmbnn", "--input", "{csv}"], "pm.iters"),
    (["train", "--model", "fcnn", "--input", "{csv}"], "pm.proximal"),
])
def test_flag_for_a_section_the_subcommand_does_not_read_exits_two(
        pipeline_dirs, tmp_path, capsys, argv, key):
    # each exited 0 and ignored the flag
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run([a.format(**_artifacts(pipeline_dirs)) for a in argv]
            + ["--out", str(out), f"--{key}", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert key in err
    if argv[0] == "train":
        assert f"train --model {argv[2]} reads only" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["preprocess", "--input", "{csv}"],
    ["synth"],
    ["split", "--input", "{csv}"],
    ["train", "--model", "pm", "--input", "{csv}", "--pm.iters", "3"],
    ["reconstruct", "--checkpoint", "{ckpt}", "--input", "{csv}"],
    ["evaluate", "--pred", "{pred}"],
    ["report", "--metrics", "{metrics}"],
], ids=lambda argv: argv[0])
def test_out_naming_a_file_is_io_failure(pipeline_dirs, tmp_path, capsys, monkeypatch, argv):
    # os.makedirs raised FileExistsError, a traceback; train found out only
    # after the whole fit
    from pmbnn import cli

    def no_fit(*args):
        raise AssertionError("fit before --out was checked")

    monkeypatch.setattr(cli, "fit_model", no_fit)
    out = tmp_path / "taken"
    out.write_text("a regular file\n")
    assert run([a.format(**_artifacts(pipeline_dirs)) for a in argv]
               + ["--out", str(out)]) == 1
    assert "IoFailure: cannot write" in capsys.readouterr().err
    assert out.read_text() == "a regular file\n"


def _train_manifests(pipeline_dirs, tmp_path, model, *flag_sets):
    """The run manifest of one ``train`` run per set of flags; each checks
    that the model's other artifact carries the manifest's config hash."""
    manifests = []
    for k, flags in enumerate(flag_sets):
        out = tmp_path / f"{model}{k}"
        assert run(["train", "--model", model, "--input", _artifacts(pipeline_dirs)["csv"],
                    "--out", str(out), *flags]) == 0
        manifests.append(json.loads((out / f"{model}_run_manifest.json").read_text()))
        other = "pm_lambda.json" if model == "pm" else f"{model}_checkpoint.json"
        assert json.loads((out / other).read_text())["config_hash"] == \
            manifests[-1]["config_hash"]
    return manifests


def test_train_manifest_records_the_seed_flag(pipeline_dirs, tmp_path):
    # --seed trained with its seed but the manifest recorded train.seed 0
    # and the config hash of a run without it
    manifests = _train_manifests(pipeline_dirs, tmp_path, "pmbnn",
                                 *(["--train.max_epochs", "2", "--seed", s] for s in "12"))
    assert [m["config"]["train.seed"] for m in manifests] == [1, 2]
    assert manifests[0]["config_hash"] != manifests[1]["config_hash"]


def test_train_hashes_only_the_sections_its_model_reads(pipeline_dirs, tmp_path):
    # every model echoed and hashed every split, train and pm key, so a
    # setting that its fit never reads moved its config hash; a config
    # file may hold such a key, a flag may not
    pm_runs = _train_manifests(pipeline_dirs, tmp_path, "pm",
                               *(["--pm.iters", "3", "--seed", s] for s in "12"))
    configs = []
    for iters in (3, 5):
        configs.append(tmp_path / f"pm_iters_{iters}.json")
        configs[-1].write_text(json.dumps({"pm.iters": iters}))
    net_runs = _train_manifests(pipeline_dirs, tmp_path, "pmbnn",
                                *(["--train.max_epochs", "2", "--config", str(c)]
                                  for c in configs))
    for runs, sections in ((pm_runs, {"split", "pm"}), (net_runs, {"split", "train"})):
        assert runs[0]["config_hash"] == runs[1]["config_hash"]
        assert {k.split(".")[0] for k in runs[0]["config"]} == sections
    assert pm_runs[0]["lambda"] == pm_runs[1]["lambda"]


def _written_model_losses(csv: str, out, model: str) -> dict:
    """The final_losses that ``model``'s checkpoint in ``out`` scores on
    ``csv``'s training split, as train_pmbnn computes them; checks that
    the written predictions are that network's."""
    from pmbnn import cli, nn_core
    from pmbnn.experiment import split_by_activity
    from pmbnn.training import TrainConfig

    ckpt = out / f"{model}_checkpoint.json"
    params, _, _ = nn_core.load_checkpoint(json.loads(ckpt.read_text()), ckpt)
    rec = cli._read_record(csv)
    split = split_by_activity(rec)
    train = split.train
    batch = nn_core.TrainBatch(vo2=train.vo2.values, hr=train.hr.values,
                               segment_bounds=train.vo2.segment_bounds,
                               dt_seconds=train.vo2.dt,
                               de_weight=TrainConfig().de_weight if model == "pmbnn" else 0.0,
                               dtype=np.float32)
    l_data, l_de, l_tot, _ = nn_core.loss_and_gradients(params, batch)
    assert (out / f"predictions_{model}.csv").read_bytes() == cli._predictions(
        model, split, nn_core.mlp_forward(params, split.test.vo2.values))
    return {"l_data": l_data, "l_de": l_de, "l_tot": l_tot}


def test_diverged_train_writes_the_model_its_losses_score(pipeline_dirs, tmp_path):
    # a diverged fit wrote the diverged weights (predictions near 1e301 bpm)
    # beside the finite final_losses of the epoch before
    from pmbnn import nn_core

    csv, out = _artifacts(pipeline_dirs)["csv"], tmp_path / "diverged"
    assert run(["train", "--model", "pmbnn", "--input", csv, "--out", str(out),
                "--train.lr", "1e300", "--train.max_epochs", "3"]) == 0
    manifest = json.loads((out / "pmbnn_run_manifest.json").read_text())
    assert manifest["stopped_reason"] == "divergence" and manifest["epochs_run"] == 1
    assert manifest["final_losses"] == _written_model_losses(csv, out, "pmbnn")
    # one epoch ran, so the written model is the initial one
    ckpt = json.loads((out / "pmbnn_checkpoint.json").read_text())
    params, _, _ = nn_core.load_checkpoint(ckpt, "pmbnn_checkpoint.json")
    np.testing.assert_array_equal(params.flat, nn_core.xavier_init(0).flat)


@pytest.mark.parametrize("model", ["pmbnn", "fcnn"])
def test_capped_train_writes_the_model_its_losses_score(pipeline_dirs, tmp_path, model):
    # at the epoch cap the checkpoint held the network one RMSprop step past
    # the one whose losses final_losses recorded
    csv, out = _artifacts(pipeline_dirs)["csv"], tmp_path / model
    assert run(["train", "--model", model, "--input", csv, "--out", str(out),
                "--train.max_epochs", "40"]) == 0
    manifest = json.loads((out / f"{model}_run_manifest.json").read_text())
    assert manifest["stopped_reason"] == "epoch-cap" and manifest["epochs_run"] == 40
    assert manifest["final_losses"] == _written_model_losses(csv, out, model)


def _synth_with_cell(tmp_path, row: int, column: int, text: str) -> str:
    """The path of ``synth --seed 3``'s CSV with data row ``row``'s
    ``column`` (1 vo2, 2 hr) set to ``text``; the row is on file line row + 1."""
    assert run(["synth", "--out", str(tmp_path / "synth"), "--seed", "3"]) == 0
    lines = (tmp_path / "synth" / "synthetic.csv").read_text().splitlines(keepends=True)
    cells = lines[row].split(",")
    cells[column] = text
    lines[row] = ",".join(cells)
    path = tmp_path / "edited.csv"
    path.write_text("".join(lines))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["preprocess"], ["split"], ["train", "--model", "pm"],
    ["reconstruct", "--checkpoint", "{ckpt}"],
], ids=lambda argv: argv[0])
def test_a_vo2_past_float32_exits_one_naming_its_line(pipeline_dirs, tmp_path, capsys, argv):
    # a vo2 of 1e308 passed every read: both networks ended as a divergence
    # and the PM fit exited 0 with l1 and l3 near their upper bounds
    csv = _synth_with_cell(tmp_path, 100, 1, "1e308")
    capsys.readouterr()
    out = tmp_path / "o"
    assert run([a.format(**_artifacts(pipeline_dirs)) for a in argv]
               + ["--input", csv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: OutOfBounds: line 101: vo2 must be at most "
                                       "3.4028234663852886e+38 L/min, got 1e+308\n")
    assert not out.exists()


@pytest.mark.parametrize("column, shown", [
    (1, "OutOfBounds: line 2: vo2 must be at most 3.4028234663852886e+38 L/min, got 1e+308"),
    (2, "NonPositiveSignal: series values must be finite"),
], ids=["vo2", "hr"])
def test_preprocess_of_a_huge_first_cell_exits_one_without_warnings(tmp_path, capsys, column,
                                                                   shown):
    # the filters pad a segment with 2*x[edge] - x[mirror], which overflows
    # for a first cell of 1e308; NumPy warned "overflow encountered in
    # multiply" from np.pad before UniformSeries rejected the sum. A vo2
    # that large is now refused where it is read
    csv = _synth_with_cell(tmp_path, 1, column, "1e308")
    capsys.readouterr()
    assert run(["preprocess", "--input", csv, "--out", str(tmp_path / "prep")]) == 1
    assert capsys.readouterr().err == f"error: {shown}\n"
    assert not (tmp_path / "prep").exists()


def test_reconstruct_manifest_names_its_train_run(pipeline_dirs, tmp_path):
    # the reconstruction manifest named the checkpoint file only, so two
    # train runs whose settings differ but whose weights agree (both stop
    # at the epoch cap, far above either threshold) gave equal manifests
    csv = _artifacts(pipeline_dirs)["csv"]
    recon = []
    for k, threshold in enumerate(("10", "20")):
        train, out = tmp_path / f"train{k}", tmp_path / f"recon{k}"
        assert run(["train", "--model", "pmbnn", "--input", csv, "--out", str(train),
                    "--seed", "7", "--train.max_epochs", "2",
                    "--train.stop_threshold", threshold]) == 0
        assert run(["reconstruct", "--checkpoint", str(train / "pmbnn_checkpoint.json"),
                    "--input", csv, "--out", str(out)]) == 0
        run_manifest = json.loads((train / "pmbnn_run_manifest.json").read_text())
        recon.append(json.loads((out / "pmbnn_r_run_manifest.json").read_text()))
        assert recon[-1]["checkpoint_seed"] == 7
        assert recon[-1]["checkpoint_config_hash"] == run_manifest["config_hash"]
    assert (tmp_path / "train0" / "predictions_pmbnn.csv").read_bytes() == \
        (tmp_path / "train1" / "predictions_pmbnn.csv").read_bytes()
    assert recon[0]["lambda"] == recon[1]["lambda"]
    assert recon[0]["checkpoint_config_hash"] != recon[1]["checkpoint_config_hash"]


@pytest.mark.parametrize("argv, manifest, sections, unread", [
    (["preprocess", "--input", "{csv}"], "preprocess_manifest.json", ("filter",), "train.lr"),
    (["split", "--input", "{csv}"], "split_manifest.json", ("split",), "filter.fir_taps"),
    (["train", "--model", "pmbnn", "--input", "{csv}", "--train.max_epochs", "2"],
     "pmbnn_run_manifest.json", MODEL_SECTIONS["pmbnn"], "pm.iters"),
    (["train", "--model", "fcnn", "--input", "{csv}", "--train.max_epochs", "2"],
     "fcnn_run_manifest.json", MODEL_SECTIONS["fcnn"], "filter.sg_window"),
    (["train", "--model", "pm", "--input", "{csv}", "--pm.iters", "3"],
     "pm_run_manifest.json", MODEL_SECTIONS["pm"], "train.max_epochs"),
    (["reconstruct", "--checkpoint", "{ckpt}", "--input", "{csv}"],
     "pmbnn_r_run_manifest.json", ("split",), "train.lr"),
], ids=["preprocess", "split", "train-pmbnn", "train-fcnn", "train-pm", "reconstruct"])
def test_manifest_echoes_and_hashes_only_the_settings_read(
        pipeline_dirs, tmp_path, argv, manifest, sections, unread):
    # preprocess, split and reconstruct echoed all 13 keys, and split and
    # reconstruct wrote no hash, so a key they never read changed a manifest
    runs = []
    for k, value in enumerate((3, 5)):
        config = tmp_path / f"run{k}.json"
        config.write_text(json.dumps({unread: value}))
        out = tmp_path / f"o{k}"
        assert run([a.format(**_artifacts(pipeline_dirs)) for a in argv]
                   + ["--config", str(config), "--out", str(out)]) == 0
        runs.append(json.loads((out / manifest).read_text()))
    read = {k: v for k, v in DEFAULTS.items() if k.split(".")[0] in sections}
    for m in runs:
        assert m["command"] == argv[0]
        assert set(m["config"]) == set(read)
        assert m["config_hash"] == hashlib.sha256(
            json.dumps(m["config"], sort_keys=True).encode()).hexdigest()
    assert runs[0]["config_hash"] == runs[1]["config_hash"]


def test_parser_is_built_once_and_keeps_no_state_between_calls(
        pipeline_dirs, tmp_path, capsys):
    from pmbnn import cli

    assert cli.build_parser() is cli.build_parser()
    assert run(["gradcheck", "--seed", "3"]) == 0
    assert run(["gradcheck"]) == 0
    seeds = [line.split("(seed ")[1].split(")")[0]
             for line in capsys.readouterr().out.splitlines()]
    assert seeds == ["3", "0"]
    # a call that exits 2 after --seed parsed leaves the next call as it was
    with pytest.raises(SystemExit) as exc:
        run(["gradcheck", "--seed", "5", "--train.lr", "1"])
    assert exc.value.code == 2
    assert run(["gradcheck"]) == 0
    assert "(seed 0)" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        run(["train", "--model", "pmbnn", "--input", _artifacts(pipeline_dirs)["csv"],
             "--out", str(tmp_path / "x"), "--seed", "7", "--pm.iters", "3"])
    assert exc.value.code == 2
    manifests = _train_manifests(pipeline_dirs, tmp_path, "pmbnn",
                                 ["--train.max_epochs", "2", "--seed", "5"],
                                 ["--train.max_epochs", "2"])
    assert [m["config"]["train.seed"] for m in manifests] == [5, DEFAULTS["train.seed"]]


@pytest.mark.parametrize("edit, shown", [
    (lambda box: box.update(l1=["a", "b"]),   # a numpy traceback
     "bounds.l1[0] must be a finite number, got 'a'"),
    (lambda box: box.update(l1=[True, 2.0]),  # read as the box (1, 2)
     "bounds.l1[0] must be a finite number, got True"),
    (lambda box: box.pop("l1"), "missing key(s) bounds.l1"),   # took the default box
    (lambda box: box.update(l7=[0.0, 1.0]), "unknown key(s) bounds.l7"),
], ids=["strings", "bool", "missing", "unknown"])
def test_checkpoint_bounds_not_two_finite_numbers_is_io_failure(
        pipeline_dirs, tmp_path, capsys, edit, shown):
    # bounds must hold exactly l1..l6, each two finite numbers
    _reconstruct_edited_checkpoint(pipeline_dirs, tmp_path, capsys,
                                   lambda ckpt: edit(ckpt["bounds"]), shown)


@pytest.mark.parametrize("l1", [
    [0.03, 0.01],   # error: BadBounds: l1: lo 0.03 must be < hi 0.01, naming no file
    [0.0, 0.5],     # exit 0, theta mapped through this box to an l1 outside the default
], ids=["inverted", "valid-but-not-the-default"])
def test_checkpoint_box_other_than_the_default_is_io_failure(
        pipeline_dirs, tmp_path, capsys, l1):
    # theta maps through the one LambdaBounds() box, so bounds must be it
    _reconstruct_edited_checkpoint(pipeline_dirs, tmp_path, capsys,
                                   lambda ckpt: ckpt["bounds"].update(l1=l1),
                                   f"bounds.l1 must be [0.01, 0.03], got {l1}")


@pytest.mark.parametrize("key, value, shown", [
    ("schema_version", 99, "schema_version must be 1, got 99"),
    ("seed", "abc", "seed must be a finite integer, got 'abc'"),
    ("seed", True, "seed must be a finite integer, got True"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("config_hash", [1], "config_hash must be a string, got [1]"),
], ids=["schema_version", "seed-string", "seed-bool", "seed-negative", "config_hash"])
def test_checkpoint_header_field_of_wrong_value_is_io_failure(
        pipeline_dirs, tmp_path, capsys, key, value, shown):
    # each was taken as it stood, and reconstruct exited 0
    _reconstruct_edited_checkpoint(pipeline_dirs, tmp_path, capsys,
                                   lambda ckpt: ckpt.update({key: value}), shown)


def _reconstruct_edited_checkpoint(pipeline_dirs, tmp_path, capsys, edit, shown):
    """``reconstruct`` from the pipeline's checkpoint after ``edit`` fails
    with an IoFailure that names the file and shows ``shown``, and writes
    nothing."""
    ckpt = json.loads(pathlib.Path(_artifacts(pipeline_dirs)["ckpt"]).read_text())
    edit(ckpt)
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(ckpt))
    out = tmp_path / "r"
    assert run(["reconstruct", "--checkpoint", str(path), "--input",
                _artifacts(pipeline_dirs)["csv"], "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: IoFailure: {path}: {shown}\n"
    assert not out.exists()


#: the config sections each subcommand with settings reads (train: any model's)
_READS = {"preprocess": ("filter",), "split": ("split",),
          "train": ("split", "train", "pm"), "reconstruct": ("split",)}


@pytest.mark.parametrize("command", sorted(_READS))
def test_help_lists_every_setting_with_its_default(capsys, command):
    # --help listed no setting: the 13 keys were parsed by hand after argparse
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for key, default in REFERENCE_DEFAULTS.items():
        listed = f"--{key} {type(default).__name__.upper()} default: {json.dumps(default)}"
        assert (listed in text) == (key.split(".")[0] in _READS[command]), key


def test_negative_polyorder_exits_one(pipeline_dirs, tmp_path, capsys):
    # an IndexError traceback from the smoothing weights
    assert run(["preprocess", "--input", _artifacts(pipeline_dirs)["csv"],
                "--out", str(tmp_path / "o"), "--filter.sg_polyorder", "-1"]) == 1
    assert "BadWindow" in capsys.readouterr().err


@pytest.mark.parametrize("hr, flags, shown", [
    (lambda t: "70" if t >= 5 else "", [],
     "InsufficientSamples: signal support [5.0, 39.0] does not cover grid [0.0, 39.0]"),
    (lambda t: "70", ["--filter.fir_taps", "0"], "BadWindow: taps must be >= 1, got 0"),
], ids=["hr-starts-late", "fir-taps-zero"])
def test_preprocess_rejects_late_hr_and_zero_taps(tmp_path, capsys, hr, flags, shown):
    src, out = tmp_path / "rec.csv", tmp_path / "o"
    src.write_text("time_s,vo2_lpm,hr_bpm,activity\n"
                   + "".join(f"{t},1.0,{hr(t)},rest\n" for t in range(40)))
    assert run(["preprocess", "--input", str(src), "--out", str(out), *flags]) == 1
    assert capsys.readouterr().err == f"error: {shown}\n"
    assert not out.exists()


#: valid and invalid values of each config key, the valid ones first;
#: train.max_epochs and pm.iters stay <= 3 so that a run takes milliseconds
_VALUES = {int: ["1", "3", "7", "0", "-1", "1.5", "abc", "true"],
           float: ["0.5", "0.9", "2", "0", "-1", "NaN", "Infinity", '"x"', "false"]}
_SMALL = ["1", "3", "2.0", "0", "-1", "abc"]
#: each subcommand's inputs and the config sections it reads
_COMMANDS = {
    "preprocess": (["--input", "{path}"], ("filter",)),
    "synth": ([], ()),
    "split": (["--input", "{path}"], ("split",)),
    "train": (["--model", "{model}", "--input", "{path}"], None),  # MODEL_SECTIONS
    "reconstruct": (["--checkpoint", "{path}", "--input", "{path}"], ("split",)),
    "evaluate": (["--pred", "{path}"], ()),
    "report": (["--metrics", "{path}"], ()),
    "gradcheck": ([], ()),
}


@st.composite
def _argv(draw):
    """One subcommand with drawn inputs, ``--out`` for all but gradcheck,
    up to two config flags (mostly of sections it reads) and a seed, each
    valid or not."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    inputs, sections = _COMMANDS[command]
    drawn = {"{path}": st.sampled_from(["{csv}", "{csv}", "{absent}", "{taken}"]),
             "{model}": st.sampled_from(["pmbnn", "fcnn", "pm"]),
             "{small}": st.sampled_from(["1", "2", "3"])}
    argv = [command] + [draw(drawn[a]) if a in drawn else a for a in inputs]
    if command == "train":  # the model's own sections, with a small budget
        sections = MODEL_SECTIONS[argv[2]]
        argv += ["--train.max_epochs" if "train" in sections else "--pm.iters",
                 draw(drawn["{small}"])]
    if command != "gradcheck":
        argv += ["--out", draw(st.sampled_from(["{out}", "{out}", "{taken}"]))]
    read = [k for k in sorted(DEFAULTS) if k.split(".")[0] in sections]
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(read if read and draw(st.integers(0, 3)) else sorted(DEFAULTS)))
        small = key in ("train.max_epochs", "pm.iters")
        argv += [f"--{key}", draw(st.sampled_from(
            _SMALL if small else _VALUES[type(DEFAULTS[key])]))]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--seed", draw(st.sampled_from(["0", "7", "-1", "x"]))]
    return argv


@pytest.fixture(scope="module")
def argv_inputs(tmp_path_factory):
    """A small valid recording and a regular file that is no input."""
    root = tmp_path_factory.mktemp("argv")
    rows = [f"{t},{0.4 if t < 40 else 1.5},{70 + t % 7},{'rest' if t < 40 else 'run'}"
            for t in range(80)]
    (root / "rec.csv").write_text("time_s,vo2_lpm,hr_bpm,activity\n" + "\n".join(rows) + "\n")
    (root / "taken").write_text("a regular file\n")
    return {"csv": str(root / "rec.csv"), "taken": str(root / "taken"),
            "absent": str(root / "absent.csv")}


@given(argv=_argv())
@settings(max_examples=100, deadline=None)
def test_random_argv_exits_zero_one_or_two(argv_inputs, argv):
    # every subcommand with any known key ends in exit 0, 1 or 2, never in
    # another exception
    with tempfile.TemporaryDirectory() as tmp:
        names = {**argv_inputs, "out": os.path.join(tmp, "o")}
        assert _exit_code([a.format(**names) for a in argv]) in (0, 1, 2)


#: each subcommand run (train once per model) with its inputs, and every
#: artifact it writes to --out
_RUNS = {
    "preprocess": (["--input", "{csv}"], ["preprocessed.csv", "preprocess_manifest.json"]),
    "synth": ([], ["synthetic.csv", "synth_manifest.json"]),
    "split": (["--input", "{csv}"], ["train.csv", "test.csv", "split_manifest.json"]),
    **{f"train-{m}": (["--model", m, "--input", "{csv}", *budget],
                      [f"{m}_run_manifest.json", f"predictions_{m}.csv", last])
       for m, budget, last in (
           ("pmbnn", ["--train.max_epochs", "2"], "pmbnn_checkpoint.json"),
           ("fcnn", ["--train.max_epochs", "2"], "fcnn_checkpoint.json"),
           ("pm", ["--pm.iters", "3"], "pm_lambda.json"))},
    "reconstruct": (["--checkpoint", "{ckpt}", "--input", "{csv}"],
                    ["predictions_pmbnn_r.csv", "pmbnn_r_run_manifest.json"]),
    "evaluate": (["--pred", "{pred}"], ["predictions.csv", "metrics.json"]),
    "report": (["--metrics", "{metrics}"], ["report.csv", "report_by_activity.csv",
                                            "boxplot_long.csv", "report.json",
                                            "report_manifest.json"]),
}


@pytest.mark.parametrize("name, blocked", [(name, b) for name, (_, artifacts) in _RUNS.items()
                                           for b in artifacts],
                         ids=lambda v: v)
def test_a_blocked_artifact_writes_nothing(pipeline_dirs, tmp_path, capsys, name, blocked):
    # train wrote its run manifest and predictions before a blocked
    # checkpoint failed it, and evaluate its predictions.csv before a
    # blocked metrics.json
    inputs, artifacts = _RUNS[name]
    argv = [name.split("-")[0], *(a.format(**_artifacts(pipeline_dirs)) for a in inputs),
            "--out", str(tmp_path)]
    (tmp_path / "earlier.txt").write_bytes(b"from an earlier run\n")
    (tmp_path / blocked).mkdir()
    assert run(argv) == 1
    assert f"IoFailure: cannot write {tmp_path / blocked}: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["earlier.txt", blocked])
    assert (tmp_path / "earlier.txt").read_bytes() == b"from an earlier run\n"
    assert not any((tmp_path / blocked).iterdir())
    # unblocked, the same run writes exactly the artifacts listed
    (tmp_path / blocked).rmdir()
    assert run(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["earlier.txt", *artifacts])


def test_failed_train_rerun_keeps_the_earlier_run(pipeline_dirs, tmp_path, capsys):
    # the rerun replaced the run manifest before its blocked predictions
    # failed it, so the manifest and the checkpoint beside it named
    # different config hashes
    argv = ["train", "--model", "pmbnn", "--input", _artifacts(pipeline_dirs)["csv"],
            "--out", str(tmp_path), "--train.max_epochs", "2"]
    assert run(argv + ["--seed", "1"]) == 0
    (tmp_path / "predictions_pmbnn.csv").unlink()
    (tmp_path / "predictions_pmbnn.csv").mkdir()
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    assert run(argv + ["--seed", "2"]) == 1
    assert "IoFailure: cannot write" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
    manifest, ckpt = (json.loads(before[n]) for n in ("pmbnn_run_manifest.json",
                                                      "pmbnn_checkpoint.json"))
    assert manifest["config"]["train.seed"] == 1
    assert manifest["config_hash"] == ckpt["config_hash"]


def test_a_temporary_file_that_cannot_be_written_leaves_no_other(pipeline_dirs, tmp_path,
                                                                 capsys):
    # the temporary files of train.csv and test.csv are written before
    # that of split_manifest.json fails; both are removed again
    (tmp_path / ".split_manifest.json.tmp").mkdir()
    assert run(["split", "--input", _artifacts(pipeline_dirs)["csv"],
                "--out", str(tmp_path)]) == 1
    assert f"IoFailure: cannot write {tmp_path / 'split_manifest.json'}: " in (
        capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == [".split_manifest.json.tmp"]


#: a vo2 or hr cell of magnitude log-uniform over 1e-300..1e308
_EXTREME_CELL = st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e)


@st.composite
def _recording_csv(draw):
    """1-3 activity segments of 40-120 one-second rows; each segment's vo2
    and hr column is all ordinary or mixed with extreme magnitudes."""
    rows, t = ["time_s,vo2_lpm,hr_bpm,activity"], 0
    for k in range(draw(st.integers(1, 3))):
        n = draw(st.integers(40, 120))
        vo2, hr = (draw(st.lists(draw(st.sampled_from([ordinary, ordinary | _EXTREME_CELL])),
                                 min_size=n, max_size=n))
                   for ordinary in (st.floats(0.3, 4.0), st.floats(50.0, 190.0)))
        rows += [f"{t + i},{v!r},{h!r},a{k}" for i, (v, h) in enumerate(zip(vo2, hr))]
        t += n
    return "\n".join(rows) + "\n"


@given(csv=_recording_csv())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_any_positive_recording_runs_the_chain_or_exits_one_typed(csv):
    # preprocess -> train (each model) -> reconstruct -> evaluate: each
    # step exits 0 with nothing on stderr, or exits 1 with one typed
    # error line and no file; a failed step ends the chain
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "in.csv").write_text(csv)
        prep = str(root / "prep" / "preprocessed.csv")
        steps = [("prep", ["preprocess", "--input", str(root / "in.csv")])]
        steps += [(m, ["train", "--model", m, "--input", prep, *budget])
                  for m, budget in (("pmbnn", ["--train.max_epochs", "5"]),
                                    ("fcnn", ["--train.max_epochs", "5"]),
                                    ("pm", ["--pm.iters", "5"]))]
        steps += [("recon", ["reconstruct", "--input", prep, "--checkpoint",
                             str(root / "pmbnn" / "pmbnn_checkpoint.json")]),
                  ("eval", ["evaluate", "--pred",
                            *(str(root / m / f"predictions_{m}.csv")
                              for m in ("pmbnn", "fcnn", "pm")),
                            str(root / "recon" / "predictions_pmbnn_r.csv")])]
        for out, argv in steps:
            with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()) as err:
                warnings.simplefilter("error")
                code = run(argv + ["--out", str(root / out)])
            if code == 0:
                assert err.getvalue() == "", (out, err.getvalue())
                continue
            assert code == 1, (out, err.getvalue())
            line, = err.getvalue().splitlines()
            kind = line.removeprefix("error: ").split(":")[0]
            assert line.startswith("error: ") and issubclass(getattr(errors, kind),
                                                             errors.PmbnnError), line
            # train makes --out before its fit, so a failed fit may leave it empty
            assert not (root / out).exists() or not os.listdir(root / out), (out, line)
            return
