import argparse
import io
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lesionbench import cli, hashing
from lesionbench.cli import _apply_sizes, _read_sizes_csv, main
from lesionbench.datamodel import (
    parse_predictions_csv,
    write_metadata_csv,
    write_predictions_csv,
    PredictionSet,
)
from lesionbench.ensemble import rank_transform
from lesionbench.errors import CoverageError, UniquenessError
from lesionbench.features import FeatureTable, write_feature_csv
from lesionbench.targets import DiagnosisClass, TargetScheme, class_index
from util import make_dataset, make_record, reference_fnv1a64


def small_dataset(n_patients=12, images=2, with_sizes=True, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for p in range(n_patients):
        malignant = p % 3 == 0
        age = float(rng.integers(60, 90)) if malignant else float(rng.integers(20, 50))
        for i in range(images):
            records.append(
                make_record(
                    f"P{p}_I{i}",
                    patient_id=f"P{p}",
                    age=age,
                    site="torso" if p % 2 else "head/neck",
                    diagnosis="melanoma" if malignant else "nevus",
                    malignant=malignant,
                    year=2020 if rng.random() < 0.5 else 2019,
                    size=int(rng.integers(10**4, 10**6)) if with_sizes else None,
                )
            )
    return make_dataset(records)


# small_dataset()'s 2020 rows are 42% positive, against an expected 1.76%.
SMALL_COHORT_WARNING = (
    "warning: positive-rate-2020: 2020 positive ratio 0.4167 deviates from 0.0176 "
    "by more than a factor of 2\n"
)


@pytest.fixture
def meta_csv(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text(write_metadata_csv(small_dataset()), encoding="utf-8")
    return path


def _strip_timestamp(manifest_text):
    return [
        line for line in manifest_text.splitlines() if not line.startswith("timestamp=")
    ]


def test_split_writes_folds_and_manifest(tmp_path, meta_csv):
    out = tmp_path / "folds.csv"
    rc = main(["split", "--meta", str(meta_csv), "--folds", "3", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "image_name,fold"
    manifest = (tmp_path / "folds.csv.manifest.txt").read_text(encoding="utf-8")
    assert "command=split" in manifest
    assert "seed=7" in manifest
    assert any(line.startswith("input.meta=fnv1a:") for line in manifest.splitlines())

    out2 = tmp_path / "folds2.csv"
    rc = main(["split", "--meta", str(meta_csv), "--folds", "3", "--seed", "7",
               "--out", str(out2)])
    assert rc == 0
    assert out2.read_text(encoding="utf-8") == text
    manifest2 = (tmp_path / "folds2.csv.manifest.txt").read_text(encoding="utf-8")
    kept1 = [l for l in _strip_timestamp(manifest) if not l.startswith("arg.out=")]
    kept2 = [l for l in _strip_timestamp(manifest2) if not l.startswith("arg.out=")]
    assert kept1 == kept2


def test_train_writes_the_same_oof_whatever_blas_thread_count_is_asked(tmp_path, meta_csv):
    # hidden 512,128 makes a step matrix-bound, so the folds train on threads.
    folds = tmp_path / "folds.csv"
    assert main(["split", "--meta", str(meta_csv), "--folds", "2", "--out", str(folds)]) == 0
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    oofs = []
    for value in (None, "1", "2"):
        out_dir = tmp_path / f"run_{value}"
        subprocess.run(
            [sys.executable, "-m", "lesionbench.cli", "train", "--meta", str(meta_csv),
             "--folds-csv", str(folds), "--epochs", "2", "--hidden", "512,128",
             "--out-dir", str(out_dir)],
            env=env if value is None else {**env, "OPENBLAS_NUM_THREADS": value},
            check=True, capture_output=True, timeout=300)
        oofs.append((out_dir / "oof.csv").read_bytes())
    assert oofs[0] == oofs[1] == oofs[2]


def test_split_single_fold_exits_2(tmp_path, meta_csv, capsys):
    rc = main(["split", "--meta", str(meta_csv), "--folds", "1",
               "--out", str(tmp_path / "f.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_input_exits_1(tmp_path, capsys):
    rc = main(["split", "--meta", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "f.csv")])
    assert rc == 1
    assert "io error:" in capsys.readouterr().err


@pytest.mark.parametrize("out, problem", [
    ("missing/dir/folds.csv", "[Errno 2] No such file or directory"),
    ("d", "[Errno 21] Is a directory"),
])
def test_an_unwritable_output_is_named_by_the_path_given(tmp_path, meta_csv, capsys, out, problem):
    # The error names the --out path, not the temporary file written beside it, and the
    # temporary file is gone.
    (tmp_path / "d").mkdir()
    path = tmp_path / out
    assert main(["split", "--meta", str(meta_csv), "--out", str(path)]) == 1
    assert capsys.readouterr().err == f"io error: {problem}: {str(path)!r}\n"
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


def test_evaluate_names_a_non_numeric_prediction_cell(tmp_path, meta_csv, capsys):
    folds, preds = tmp_path / "folds.csv", tmp_path / "preds.csv"
    assert main(["split", "--meta", str(meta_csv), "--out", str(folds)]) == 0
    preds.write_text("image_name,target\nP0_I0,x\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["evaluate", "--meta", str(meta_csv), "--folds-csv", str(folds),
               "--preds", str(preds)])
    assert rc == 2
    assert capsys.readouterr().err == "error: row 1: non-numeric target 'x'\n"


def test_features_command_output_width(tmp_path, meta_csv):
    out = tmp_path / "features.csv"
    rc = main(["features", "--meta", str(meta_csv), "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "image_name," + ",".join(f"f{i}" for i in range(14))
    assert len(lines) == 1 + 24


def test_features_warns_without_sizes(tmp_path, capsys):
    path = tmp_path / "meta.csv"
    path.write_text(
        write_metadata_csv(small_dataset(with_sizes=False)), encoding="utf-8"
    )
    out = tmp_path / "features.csv"
    rc = main(["features", "--meta", str(path), "--out", str(out)])
    assert rc == 0
    assert "warning" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing-out-dir", "eleven-sites"])
def test_a_failing_features_prints_only_its_error_line(tmp_path, capsys, case):
    # Without image sizes a successful run warns; a failed one prints one line.
    d = small_dataset(with_sizes=False)
    if case == "eleven-sites":
        d = make_dataset([make_record(f"I{i}", patient_id=f"P{i}", site=f"s{i:02d}")
                          for i in range(11)])
    meta = tmp_path / "meta.csv"
    meta.write_text(write_metadata_csv(d), encoding="utf-8")
    out = tmp_path / ("missing" if case == "missing-out-dir" else "") / "features.csv"
    capsys.readouterr()
    rc = main(["features", "--meta", str(meta), "--out", str(out)])
    captured = capsys.readouterr()
    assert captured.out == ""
    if case == "missing-out-dir":
        assert rc == 1
        assert captured.err == f"io error: [Errno 2] No such file or directory: '{out}'\n"
    else:
        assert rc == 2
        assert captured.err == ("error: found 11 distinct sites, vocabulary holds 10; "
                                "extras: s10\n")
    assert not out.exists()


def test_features_sizes_file_merge(tmp_path, capsys):
    d = small_dataset(with_sizes=False)
    meta = tmp_path / "meta.csv"
    meta.write_text(write_metadata_csv(d), encoding="utf-8")
    sizes = tmp_path / "sizes.csv"
    sizes.write_text(
        "image_name,image_size_bytes\n"
        + "".join(f"{name},{1000 + i}\n" for i, name in enumerate(d.image_names)),
        encoding="utf-8",
    )
    out = tmp_path / "features.csv"
    rc = main(["features", "--meta", str(meta), "--sizes", str(sizes), "--out", str(out)])
    assert rc == 0
    assert "warning" not in capsys.readouterr().err
    # log-size column is no longer all zeros
    body = out.read_text(encoding="utf-8").splitlines()[1:]
    col = [float(line.split(",")[13]) for line in body]
    assert any(v != 0.0 for v in col)


def test_train_evaluate_ensemble_pipeline(tmp_path, meta_csv, capsys):
    folds = tmp_path / "folds.csv"
    assert main(["split", "--meta", str(meta_csv), "--folds", "2", "--seed", "0",
                 "--out", str(folds)]) == 0

    out_dir = tmp_path / "run0"
    rc = main(["train", "--meta", str(meta_csv), "--folds-csv", str(folds),
               "--epochs", "3", "--batch-size", "8", "--lr", "1e-3",
               "--hidden", "8,4", "--seed", "1", "--out-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "oof.csv").exists()
    assert (out_dir / "model_fold0.lsnb").exists()
    assert (out_dir / "model_fold1.lsnb").exists()
    assert (out_dir / "history.csv").read_text(encoding="utf-8").startswith(
        "fold,epoch,lr,train_loss,val_auc"
    )
    assert (out_dir / "train.manifest.txt").exists()
    capsys.readouterr()

    rc = main(["evaluate", "--meta", str(meta_csv), "--folds-csv", str(folds),
               "--preds", str(out_dir / "oof.csv")])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.startswith("cv_all=")
    assert "cv_2020=" in printed
    assert "fold_0=" in printed and "fold_1=" in printed

    # 4-class scheme also trains
    out_dir4 = tmp_path / "run4c"
    rc = main(["train", "--meta", str(meta_csv), "--folds-csv", str(folds),
               "--scheme", "4c", "--epochs", "2", "--batch-size", "8",
               "--hidden", "4,2", "--seed", "2", "--out-dir", str(out_dir4)])
    assert rc == 0

    ens = tmp_path / "ens.csv"
    rc = main(["ensemble", "--preds",
               f"{out_dir / 'oof.csv'},{out_dir4 / 'oof.csv'}", "--out", str(ens)])
    assert rc == 0
    combined = parse_predictions_csv(ens.read_text(encoding="utf-8"))
    assert len(combined) == 24


def test_train_with_cnn_csv(tmp_path, meta_csv):
    folds = tmp_path / "folds.csv"
    assert main(["split", "--meta", str(meta_csv), "--folds", "2", "--seed", "0",
                 "--out", str(folds)]) == 0
    d = small_dataset()
    rng = np.random.default_rng(5)
    cnn = tmp_path / "cnn.csv"
    cnn.write_text(
        write_feature_csv(FeatureTable(d.image_names, rng.normal(size=(24, 4))), prefix="c"),
        encoding="utf-8",
    )
    out_dir = tmp_path / "runc"
    rc = main(["train", "--meta", str(meta_csv), "--folds-csv", str(folds),
               "--cnn", str(cnn), "--epochs", "2", "--batch-size", "8",
               "--hidden", "4,2", "--seed", "3", "--out-dir", str(out_dir)])
    assert rc == 0


def test_ensemble_single_file_is_rank_transform(tmp_path):
    scores = [0.9, 0.1, 0.5, 0.5]
    preds = PredictionSet.from_scores(["A", "B", "C", "D"], scores)
    src = tmp_path / "one.csv"
    src.write_text(write_predictions_csv(preds), encoding="utf-8")
    out = tmp_path / "ens.csv"
    assert main(["ensemble", "--preds", str(src), "--out", str(out)]) == 0
    combined = parse_predictions_csv(out.read_text(encoding="utf-8"))
    assert np.array_equal(combined.scores, rank_transform(scores))


def test_evaluate_missing_prediction_exits_2(tmp_path, meta_csv, capsys):
    folds = tmp_path / "folds.csv"
    assert main(["split", "--meta", str(meta_csv), "--folds", "2", "--seed", "0",
                 "--out", str(folds)]) == 0
    preds = tmp_path / "preds.csv"
    preds.write_text("image_name,target\nP0_I0,0.5\n", encoding="utf-8")
    rc = main(["evaluate", "--meta", str(meta_csv), "--folds-csv", str(folds),
               "--preds", str(preds)])
    assert rc == 2
    assert "P" in capsys.readouterr().err


def test_evaluate_rejects_prediction_images_the_metadata_lacks(tmp_path, meta_csv, capsys):
    folds = tmp_path / "folds.csv"
    assert main(["split", "--meta", str(meta_csv), "--folds", "2", "--seed", "0",
                 "--out", str(folds)]) == 0
    capsys.readouterr()
    names = small_dataset().image_names
    preds = tmp_path / "preds.csv"
    preds.write_text(write_predictions_csv(PredictionSet.from_scores(
        names + ("zz",), [0.5] * (len(names) + 1))), encoding="utf-8")
    rc = main(["evaluate", "--meta", str(meta_csv), "--folds-csv", str(folds),
               "--preds", str(preds)])
    assert rc == 2
    assert capsys.readouterr() == ("", "error: metadata missing 1 image(s), first: 'zz'\n")


def test_train_rejects_cnn_images_the_metadata_lacks(tmp_path, meta_csv, capsys):
    folds = _split(tmp_path, meta_csv)
    names = small_dataset().image_names
    cnn = tmp_path / "cnn.csv"
    cnn.write_text(write_feature_csv(FeatureTable(names + ("zz",), np.ones((len(names) + 1, 2))),
                                     prefix="c"), encoding="utf-8")
    out_dir = tmp_path / "run"
    capsys.readouterr()
    assert main(_train_argv(meta_csv, folds, out_dir) + ["--cnn", str(cnn)]) == 2
    assert _one_error_line(capsys) == "error: metadata missing 1 image(s), first: 'zz'"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["evaluate", "ensemble", "ensemble-with-full"])
def test_header_only_prediction_file_exits_2(tmp_path, meta_csv, capsys, command):
    folds = tmp_path / "folds.csv"
    assert main(["split", "--meta", str(meta_csv), "--folds", "2", "--seed", "0",
                 "--out", str(folds)]) == 0
    capsys.readouterr()
    names = small_dataset().image_names
    full, empty = tmp_path / "full.csv", tmp_path / "empty.csv"
    full.write_text(write_predictions_csv(PredictionSet.from_scores(names, [0.5] * len(names))),
                    encoding="utf-8")
    empty.write_text("image_name,target\n", encoding="utf-8")
    args = {
        "evaluate": ["evaluate", "--meta", str(meta_csv), "--folds-csv", str(folds),
                     "--preds", str(empty)],
        "ensemble": ["ensemble", "--preds", str(empty), "--out", str(tmp_path / "o.csv")],
        "ensemble-with-full": ["ensemble", "--preds", f"{full},{empty}",
                               "--out", str(tmp_path / "o.csv")],
    }[command]
    assert main(args) == 2
    assert capsys.readouterr() == ("", "error: prediction CSV contains no data rows\n")


def test_stability_reference_output(capsys):
    rc = main(["stability"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 5
    assert out[0].startswith("cv_all std=0.0011")
    assert out[1].startswith("cv_2020 std=0.0043")
    assert out[2].startswith("private_lb std=0.0059")
    assert out[3].startswith("public_lb std=0.0093")
    assert out[4] == "ranking: cv_all > cv_2020 > private_lb > public_lb"


def test_bad_scheme_flag_exits_2(tmp_path, meta_csv, capsys):
    folds = tmp_path / "folds.csv"
    assert main(["split", "--meta", str(meta_csv), "--folds", "2", "--seed", "0",
                 "--out", str(folds)]) == 0
    rc = main(["train", "--meta", str(meta_csv), "--folds-csv", str(folds),
               "--scheme", "5c", "--out-dir", str(tmp_path / "x")])
    assert rc == 2


def _split(tmp_path, meta, folds=2):
    out = tmp_path / "folds.csv"
    assert main(["split", "--meta", str(meta), "--folds", str(folds), "--seed", "0",
                 "--out", str(out)]) == 0
    return out


def _one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


def _train_argv(meta, folds, out_dir):
    return ["train", "--meta", str(meta), "--folds-csv", str(folds), "--epochs", "2",
            "--batch-size", "8", "--hidden", "4,2", "--out-dir", str(out_dir)]


# 8 rows x 280,073 parameters pass the fold-thread gate (2**20); 4,2 does not.
GATED_HIDDEN = "1024,256"


def _with_hidden(argv, hidden):
    argv = list(argv)
    argv[argv.index("--hidden") + 1] = hidden
    return argv


@pytest.mark.parametrize("flag", ["--meta", "--folds-csv", "--preds", "--cnn", "--sizes",
                                  "--scores"])
def test_non_utf8_input_exits_2_with_one_error_line(tmp_path, meta_csv, capsys, flag):
    folds = _split(tmp_path, meta_csv)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"image_name,fold\nP0_I0,\xff\n")
    argv = {
        "--meta": ["split", "--meta", str(bad), "--out", str(tmp_path / "f.csv")],
        "--folds-csv": ["evaluate", "--meta", str(meta_csv), "--folds-csv", str(bad),
                        "--preds", str(folds)],
        "--preds": ["evaluate", "--meta", str(meta_csv), "--folds-csv", str(folds),
                    "--preds", str(bad)],
        "--cnn": _train_argv(meta_csv, folds, tmp_path / "run") + ["--cnn", str(bad)],
        "--sizes": ["features", "--meta", str(meta_csv), "--sizes", str(bad),
                    "--out", str(tmp_path / "feat.csv")],
        "--scores": ["stability", "--scores", str(bad)],
    }[flag]
    capsys.readouterr()
    assert main(argv) == 2
    assert "not UTF-8" in _one_error_line(capsys)


def test_empty_key_in_cnn_csv_exits_2(tmp_path, meta_csv, capsys):
    folds = _split(tmp_path, meta_csv)
    cnn = tmp_path / "cnn.csv"
    d = small_dataset()
    cnn.write_text(write_feature_csv(FeatureTable(d.image_names, np.ones((24, 1))), prefix="c")
                   + ",5.0\n", encoding="utf-8")
    out_dir = tmp_path / "run"
    capsys.readouterr()
    assert main(_train_argv(meta_csv, folds, out_dir) + ["--cnn", str(cnn)]) == 2
    assert _one_error_line(capsys) == "error: row 25: empty image_name"
    assert not out_dir.exists()


def test_cnn_csv_missing_an_image_exits_2(tmp_path, meta_csv, capsys):
    folds = _split(tmp_path, meta_csv)
    cnn = tmp_path / "cnn.csv"
    d = small_dataset()
    cnn.write_text(write_feature_csv(FeatureTable(d.image_names[1:], np.ones((23, 2))),
                                     prefix="c"), encoding="utf-8")
    out_dir = tmp_path / "run"
    capsys.readouterr()
    assert main(_train_argv(meta_csv, folds, out_dir) + ["--cnn", str(cnn)]) == 2
    assert _one_error_line(capsys) == (
        f"error: external feature table missing 1 image(s), first: {d.image_names[0]!r}")
    assert not out_dir.exists()


def test_oversized_csv_field_exits_2(tmp_path, capsys):
    meta = tmp_path / "meta.csv"
    meta.write_text(write_metadata_csv(small_dataset()) + "x" * 200_000 + "\n",
                    encoding="utf-8")
    assert main(["split", "--meta", str(meta), "--out", str(tmp_path / "f.csv")]) == 2
    assert "field larger than field limit" in _one_error_line(capsys)


def test_crlf_and_lone_cr_inputs_parse_as_lf(tmp_path, meta_csv):
    lf = _split(tmp_path, meta_csv).read_bytes()
    text = meta_csv.read_text(encoding="utf-8")
    for newline in ("\r\n", "\r"):
        meta = tmp_path / "meta_nl.csv"
        meta.write_bytes(text.replace("\n", newline).encode("utf-8"))
        assert _split(tmp_path, meta).read_bytes() == lf


def test_manifest_digests_the_bytes_that_were_parsed(tmp_path, meta_csv):
    folds = _split(tmp_path, meta_csv)
    manifest = (tmp_path / "folds.csv.manifest.txt").read_text(encoding="utf-8")
    digest = reference_fnv1a64(meta_csv.read_bytes())
    assert f"input.meta=fnv1a:{digest:016x}" in manifest.splitlines()
    # A feature file past the byte-loop cutoff takes the numpy kernel.
    cnn = tmp_path / "cnn.csv"
    values = np.random.default_rng(0).normal(size=(24, 16))
    table = FeatureTable(small_dataset().image_names, values)
    cnn.write_text(write_feature_csv(table, prefix="c"), encoding="utf-8")
    assert cnn.stat().st_size > hashing._LOOP_MAX
    assert main(_train_argv(meta_csv, folds, tmp_path / "run") + ["--cnn", str(cnn)]) == 0
    lines = (tmp_path / "run" / "train.manifest.txt").read_text(encoding="utf-8").splitlines()
    for key, path in (("meta", meta_csv), ("folds", folds), ("cnn", cnn)):
        assert f"input.{key}=fnv1a:{reference_fnv1a64(path.read_bytes()):016x}" in lines


def _flag_dests(command):
    """The dests of a subcommand's flags, read from the parser itself."""
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


def test_manifest_records_every_flag_of_its_command(tmp_path, meta_csv):
    folds = _split(tmp_path, meta_csv)
    assert main(["features", "--meta", str(meta_csv), "--out", str(tmp_path / "f.csv")]) == 0
    assert main(_train_argv(meta_csv, folds, tmp_path / "run")) == 0
    assert main(["ensemble", "--preds", str(tmp_path / "run" / "oof.csv"),
                 "--out", str(tmp_path / "ens.csv")]) == 0
    manifests = {
        "split": "folds.csv.manifest.txt",
        "features": "f.csv.manifest.txt",
        "train": "run/train.manifest.txt",
        "ensemble": "ens.csv.manifest.txt",
    }
    for command, name in manifests.items():
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        dests = _flag_dests(command)
        assert f"command={command}" in lines
        args = {l[4:].split("=", 1)[0] for l in lines if l.startswith("arg.")}
        assert args == dests - {"seed"}, command
        assert any(l.startswith("seed=") for l in lines) == ("seed" in dests), command
        if command in ("features", "train"):
            assert ("arg.sizes=" if command == "features" else "arg.cnn=") in lines


def test_every_input_is_read_once(tmp_path, meta_csv, monkeypatch):
    folds = _split(tmp_path, meta_csv)
    d = small_dataset()
    cnn = tmp_path / "cnn.csv"
    cnn.write_text(write_feature_csv(FeatureTable(d.image_names, np.ones((24, 2))), prefix="c"),
                   encoding="utf-8")
    reads = []
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda p: reads.append(p.name) or read_bytes(p))
    monkeypatch.setattr(Path, "read_text", lambda *a, **k: pytest.fail("read_text called"))
    assert main(_train_argv(meta_csv, folds, tmp_path / "run") + ["--cnn", str(cnn)]) == 0
    assert sorted(reads) == ["cnn.csv", "folds.csv", "meta.csv"]


def test_stray_folds_row_exits_2(tmp_path, meta_csv, capsys):
    folds = _split(tmp_path, meta_csv)
    capsys.readouterr()
    with folds.open("a", encoding="utf-8") as fh:
        fh.write("Z,7\n")
    out_dir = tmp_path / "run"
    assert main(_train_argv(meta_csv, folds, out_dir)) == 2
    assert "'Z'" in _one_error_line(capsys)
    assert not out_dir.exists()
    oof = tmp_path / "oof.csv"
    oof.write_text(write_predictions_csv(PredictionSet.from_scores(
        small_dataset().image_names, np.full(24, 0.5))), encoding="utf-8")
    assert main(["evaluate", "--meta", str(meta_csv), "--folds-csv", str(folds),
                 "--preds", str(oof)]) == 2
    assert "'Z'" in _one_error_line(capsys)


def test_split_patient_exits_2(tmp_path, meta_csv, capsys):
    folds = _split(tmp_path, meta_csv)
    lines = folds.read_text(encoding="utf-8").splitlines()
    name, fold = lines[1].split(",")
    assert name == "P0_I0"
    lines[1] = f"{name},{1 - int(fold)}"
    folds.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(_train_argv(meta_csv, folds, tmp_path / "run")) == 2
    assert "patient 'P0' is split across folds" in _one_error_line(capsys)
    assert main(["evaluate", "--meta", str(meta_csv), "--folds-csv", str(folds),
                 "--preds", str(tmp_path / "unused.csv")]) == 2
    assert "patient 'P0'" in _one_error_line(capsys)


def test_empty_surplus_folds_are_accepted(tmp_path, capsys):
    meta = tmp_path / "meta.csv"
    meta.write_text(write_metadata_csv(small_dataset(n_patients=3)), encoding="utf-8")
    folds = _split(tmp_path, meta, folds=5)
    used = {line.split(",")[1] for line in folds.read_text().splitlines()[1:]}
    assert len(used) == 3  # two of the five folds stay empty
    out_dir = tmp_path / "run"
    assert main(_train_argv(meta, folds, out_dir)) == 0
    assert main(["evaluate", "--meta", str(meta), "--folds-csv", str(folds),
                 "--preds", str(out_dir / "oof.csv")]) == 0


def _move_patient(folds, pid, fold):
    """Rewrite a folds CSV with every image of ``pid`` in ``fold``."""
    text = folds.read_text(encoding="utf-8")
    folds.write_text(re.sub(rf"^({pid}_I\d+),\d+$", rf"\g<1>,{fold}", text, flags=re.M),
                     encoding="utf-8")


@pytest.mark.parametrize("command", ["split", "train", "evaluate"])
def test_label_contradicting_its_diagnosis_exits_2(tmp_path, meta_csv, capsys, command):
    folds = _split(tmp_path, meta_csv)
    bad = tmp_path / "mislabeled.csv"
    bad.write_text(re.sub(r"^(P1_I0,(?:[^,]*,){4})nevus,", r"\g<1>melanoma,",
                          meta_csv.read_text(encoding="utf-8"), flags=re.M), encoding="utf-8")
    argv = {
        "split": ["split", "--meta", str(bad), "--out", str(tmp_path / "f.csv")],
        "train": _train_argv(bad, folds, tmp_path / "run"),
        "evaluate": ["evaluate", "--meta", str(bad), "--folds-csv", str(folds),
                     "--preds", str(tmp_path / "unused.csv")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert _one_error_line(capsys) == (
        "error: 1 label(s) contradict their diagnosis; first 'P1_I0': "
        "diagnosis 'melanoma' maps to MEL but target is benign")
    assert not (tmp_path / "f.csv").exists() and not (tmp_path / "run").exists()


def test_missing_diagnoses_give_one_warning_line_per_command(tmp_path, capsys):
    # 57 images from 2020 with one positive (1.75%): only the missing diagnoses warn.
    records = [
        make_record(f"P{p}_I0", patient_id=f"P{p}", malignant=p == 0,
                    diagnosis=None if p in (3, 5) else "melanoma" if p == 0 else "nevus")
        for p in range(57)
    ]
    meta = tmp_path / "meta.csv"
    meta.write_text(write_metadata_csv(make_dataset(records)), encoding="utf-8")
    expected = ("warning: diagnosis-missing: 2 image(s), first 'P3_I0': "
                "diagnosis missing; melanoma consistency not verifiable\n")
    folds = tmp_path / "folds.csv"
    out_dir = tmp_path / "run"
    for argv in (
        ["split", "--meta", str(meta), "--folds", "2", "--out", str(folds)],
        _train_argv(meta, folds, out_dir),
        ["evaluate", "--meta", str(meta), "--folds-csv", str(folds),
         "--preds", str(out_dir / "oof.csv")],
    ):
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().err == expected


def test_split_rejects_more_folds_than_images(tmp_path, meta_csv, capsys):
    out = tmp_path / "folds.csv"
    assert main(["split", "--meta", str(meta_csv), "--folds", "25", "--out", str(out)]) == 2
    assert _one_error_line(capsys) == "error: fold count 25 exceeds the image count 24"
    assert not out.exists()


def test_train_rejects_a_fold_id_past_the_image_count(tmp_path, meta_csv, capsys):
    folds = _split(tmp_path, meta_csv)
    _move_patient(folds, "P0", 24)
    out_dir = tmp_path / "run"
    capsys.readouterr()
    assert main(_train_argv(meta_csv, folds, out_dir)) == 2
    assert _one_error_line(capsys) == "error: fold count 25 exceeds the image count 24"
    assert not out_dir.exists()


def test_evaluate_rejects_a_fold_id_past_the_image_count(tmp_path, meta_csv, capsys):
    folds = _split(tmp_path, meta_csv)
    _move_patient(folds, "P0", 1000)
    preds = tmp_path / "preds.csv"
    preds.write_text(write_predictions_csv(PredictionSet.from_scores(
        small_dataset().image_names, np.linspace(0.0, 1.0, 24))), encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate", "--meta", str(meta_csv), "--folds-csv", str(folds),
                 "--preds", str(preds)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fold count 1001 exceeds the image count 24\n"


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_fold_ids_at_the_int64_limit_exit_2(tmp_path, meta_csv, capsys, command):
    folds = _split(tmp_path, meta_csv)
    preds = tmp_path / "preds.csv"
    preds.write_text(write_predictions_csv(PredictionSet.from_scores(
        small_dataset().image_names, np.linspace(0.0, 1.0, 24))), encoding="utf-8")
    argv = (_train_argv(meta_csv, folds, tmp_path / "run") if command == "train" else
            ["evaluate", "--meta", str(meta_csv), "--folds-csv", str(folds), "--preds", str(preds)])
    row = next(i for i, line in enumerate(folds.read_text(encoding="utf-8").splitlines())
               if line.startswith("P0_I0,"))
    for fold, error in ((2**63 - 1, f"fold count {2**63} exceeds the image count 24"),
                        (2**63, f"row {row}: fold {2**63} outside [0, {2**63 - 1}]")):
        _move_patient(folds, "P0", fold)
        capsys.readouterr()
        assert main(argv) == 2
        assert _one_error_line(capsys) == f"error: {error}"
    assert not (tmp_path / "run").exists()


def test_sizes_duplicate_and_foreign_names_rejected(tmp_path, capsys):
    meta = tmp_path / "meta.csv"
    d = small_dataset(with_sizes=False)
    meta.write_text(write_metadata_csv(d), encoding="utf-8")
    with pytest.raises(UniquenessError, match="P0_I0"):
        _read_sizes_csv("image_name,image_size_bytes\nP0_I0,10\nP0_I0,11\n")
    with pytest.raises(CoverageError, match="ghost"):
        _apply_sizes(d, ("P0_I0", "ghost"), np.array([10, 11]))
    sizes = tmp_path / "sizes.csv"
    for body, message in (("P0_I0,10\nP0_I0,11\n", "duplicate image_name 'P0_I0'"),
                          ("P0_I0,10\nghost,11\n", "'ghost'"),
                          ("P0_I0,0\n", "row 1: image_size_bytes 0 outside [1, 9223372036854775807]"),
                          ("P0_I0,10\nP0_I1,9999999999999999999999999\n",
                           "row 2: image_size_bytes 9999999999999999999999999 outside [1, ")):
        sizes.write_text("image_name,image_size_bytes\n" + body, encoding="utf-8")
        assert main(["features", "--meta", str(meta), "--sizes", str(sizes),
                     "--out", str(tmp_path / "feat.csv")]) == 2
        assert message in _one_error_line(capsys)


def test_failed_write_keeps_previous_artifact_and_leaves_no_temp_file(
        tmp_path, meta_csv, monkeypatch, capsys):
    folds = _split(tmp_path, meta_csv)
    before = folds.read_bytes()
    listing = sorted(p.name for p in tmp_path.iterdir())

    class HalfWriter(io.FileIO):
        def write(self, data):
            super().write(bytes(data)[: len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "open", lambda path, mode: HalfWriter(path, "w"), raising=False)
    assert main(["split", "--meta", str(meta_csv), "--folds", "3", "--seed", "9",
                 "--out", str(folds)]) == 1
    assert "No space left" in capsys.readouterr().err
    assert folds.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == listing


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=300),
       flag=st.sampled_from(["--meta", "--folds-csv", "--preds", "--cnn", "--sizes", "--scores"]))
def test_arbitrary_input_bytes_exit_cleanly(tmp_path, meta_csv, capsys, data, flag):
    folds = tmp_path / "folds.csv"
    if not folds.exists():
        _split(tmp_path, meta_csv)
    bad = tmp_path / "input.bin"
    bad.write_bytes(data)
    if flag == "--meta":
        argv = ["split", "--meta", str(bad), "--out", str(tmp_path / "out.csv")]
    elif flag == "--cnn":
        argv = _train_argv(meta_csv, folds, tmp_path / "run") + ["--cnn", str(bad)]
    elif flag == "--sizes":
        argv = ["features", "--meta", str(meta_csv), "--sizes", str(bad),
                "--out", str(tmp_path / "feat.csv")]
    elif flag == "--scores":
        argv = ["stability", "--scores", str(bad)]
    else:
        inputs = {"--meta": meta_csv, "--folds-csv": folds, "--preds": folds, flag: bad}
        argv = ["evaluate"] + [str(x) for kv in inputs.items() for x in kv]
    capsys.readouterr()
    rc = main(argv)  # any exception other than SystemExit fails the test
    assert rc in (0, 1, 2)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 if rc else len(err) <= 1


def test_diverging_training_exits_2_with_one_error_line(tmp_path, meta_csv, capsys):
    folds = _split(tmp_path, meta_csv)
    out_dir = tmp_path / "run"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the run
        rc = main(_train_argv(meta_csv, folds, out_dir) + ["--lr", "1e200"])
    assert rc == 2
    assert re.search(r"training diverged in fold \d+, epoch \d+, batch \d+",
                     _one_error_line(capsys))
    assert not out_dir.exists()


def test_hidden_widths_past_numpy_array_size_exit_2_before_training(tmp_path, meta_csv, capsys):
    folds = _split(tmp_path, meta_csv)
    out_dir = tmp_path / "run"
    argv = _train_argv(meta_csv, folds, out_dir)
    h = 10**10
    argv[argv.index("--hidden") + 1] = f"{h},{h}"
    capsys.readouterr()
    assert main(argv) == 2
    n_params = (h * 14 + h) + (h * h + h) + (9 * h + 9)  # w1,b1 + w2,b2 + w3,b3 at D=0
    line = _one_error_line(capsys)
    assert f"hidden {h},{h}" in line and f" {n_params} parameters" in line, line
    assert not out_dir.exists()


@pytest.mark.parametrize("message", ["", "Unable to allocate 8.00 EiB for an array"])
def test_out_of_memory_exits_1_with_one_error_line(monkeypatch, capsys, message):
    def exhausted(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "_cmd_stability", exhausted)
    assert main(["stability"]) == 1
    assert _one_error_line(capsys) == "error: out of memory in stability" + (
        f": {message}" if message else "")


def test_diverging_threaded_training_gives_the_serial_error_line(
    tmp_path, meta_csv, capsys, monkeypatch
):
    folds = _split(tmp_path, meta_csv)
    lines = {}
    for cpus in (1, 2):  # the gate passes; 1 CPU keeps the folds serial
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning in a worker would fail the run
            argv = _with_hidden(_train_argv(meta_csv, folds, tmp_path / "run"), GATED_HIDDEN)
            rc = main(argv + ["--lr", "1e200"])
        assert rc == 2
        lines[cpus] = _one_error_line(capsys)
    assert lines[2] == lines[1]
    assert re.search(r"training diverged in fold 0, epoch \d+, batch \d+", lines[1])
    assert not (tmp_path / "run").exists()


def test_batch_size_past_the_cohort_trains_as_one_full_batch(tmp_path, meta_csv, capsys):
    # Training buffers are sized by the rows a batch can hold, not by the flag.
    folds = _split(tmp_path, meta_csv)
    runs = {}
    for batch_size in ("24", "1000000000000"):
        out_dir = tmp_path / f"run_{batch_size}"
        argv = _train_argv(meta_csv, folds, out_dir)
        argv[argv.index("--batch-size") + 1] = batch_size
        assert main(argv) == 0
        runs[batch_size] = {
            name: (out_dir / name).read_bytes()
            for name in ("oof.csv", "model_fold0.lsnb", "model_fold1.lsnb", "history.csv")
        }
    assert runs["1000000000000"] == runs["24"]


def test_threads_env_var_is_not_read(tmp_path, meta_csv, capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    folds = _split(tmp_path, meta_csv)
    for hidden in ("4,2", GATED_HIDDEN):  # serial folds, then fold threads
        runs = {}
        for value in (None, "2", "x"):
            if value is None:
                monkeypatch.delenv("LESIONBENCH_THREADS", raising=False)
            else:
                monkeypatch.setenv("LESIONBENCH_THREADS", value)
            out_dir = tmp_path / f"run_{hidden}_{value}"
            capsys.readouterr()
            assert main(_with_hidden(_train_argv(meta_csv, folds, out_dir), hidden)) == 0
            assert capsys.readouterr().err == SMALL_COHORT_WARNING
            runs[value] = {
                p.name: (
                    [l for l in _strip_timestamp(p.read_text(encoding="utf-8"))
                     if not l.startswith("arg.out_dir=")]
                    if p.name.endswith(".manifest.txt") else p.read_bytes()
                )
                for p in sorted(out_dir.iterdir())
            }
        assert runs["2"] == runs[None] and runs["x"] == runs[None], hidden


def _prob_csv(names, probs, scheme):
    header = ["image_name"] + [f"prob_{c.name}" for c in scheme.classes]
    rows = [[name] + [repr(float(v)) for v in row] for name, row in zip(names, probs)]
    return "\n".join(",".join(r) for r in [header] + rows) + "\n"


@pytest.mark.parametrize("scheme", [TargetScheme.NINE_CLASS, TargetScheme.FOUR_CLASS])
def test_full_probability_inputs_score_as_their_mel_column(tmp_path, meta_csv, capsys, scheme):
    folds = _split(tmp_path, meta_csv)
    names = small_dataset().image_names
    rng = np.random.default_rng(scheme.class_count)
    raw = rng.random((len(names), scheme.class_count))
    probs = raw / raw.sum(axis=1, keepdims=True)
    mel = probs[:, class_index(DiagnosisClass.MEL, scheme)]
    full = tmp_path / "full.csv"
    full.write_text(_prob_csv(names, probs, scheme), encoding="utf-8")
    scalar = tmp_path / "scalar.csv"
    scalar.write_text("image_name,target\n" + "".join(
        f"{n},{v!r}\n" for n, v in zip(names, mel.tolist())), encoding="utf-8")

    def evaluate(preds):
        capsys.readouterr()
        assert main(["evaluate", "--meta", str(meta_csv), "--folds-csv", str(folds),
                     "--preds", str(preds)]) == 0
        return capsys.readouterr().out

    def ensemble(preds, out):
        assert main(["ensemble", "--preds", str(preds), "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out).read_bytes()

    assert evaluate(full) == evaluate(scalar)
    assert ensemble(full, "ens_full.csv") == ensemble(scalar, "ens_scalar.csv")

    bad_probs = probs.copy()
    bad_probs[3] = 1.1 / scheme.class_count  # this row sums to 1.1
    bad = tmp_path / "bad.csv"
    bad.write_text(_prob_csv(names, bad_probs, scheme), encoding="utf-8")
    for argv in (["evaluate", "--meta", str(meta_csv), "--folds-csv", str(folds),
                  "--preds", str(bad)],
                 ["ensemble", "--preds", str(bad), "--out", str(tmp_path / "ens_bad.csv")]):
        capsys.readouterr()
        assert main(argv) == 2
        _one_error_line(capsys)


def _rows_in_order(text, order):
    """``text``'s header, then its data rows in ``order``."""
    header, *rows = text.splitlines(keepends=True)
    return header + "".join(rows[i] for i in order)


def test_permuted_input_rows_give_the_bytes_of_ordered_ones(tmp_path, monkeypatch, capsys):
    # Keyed inputs are aligned by image name, never by row: reordering the rows of folds.csv,
    # --cnn, --preds, every ensemble member and --sizes changes no artifact and no output line.
    d = small_dataset()
    n = len(d)
    rng = np.random.default_rng(9)
    meta = write_metadata_csv(d)
    (tmp_path / "meta.csv").write_text(meta, encoding="utf-8")
    folds = _split(tmp_path, tmp_path / "meta.csv").read_text(encoding="utf-8")
    inputs = {
        "folds.csv": folds,
        "cnn.csv": write_feature_csv(FeatureTable(d.image_names, rng.normal(size=(n, 3))), "c"),
        "sizes.csv": "image_name,image_size_bytes\n" + "".join(
            f"{name},{5000 + 37 * i}\n" for i, name in enumerate(d.image_names)),
        "a.csv": write_predictions_csv(PredictionSet.from_scores(d.image_names, rng.random(n))),
        "b.csv": write_predictions_csv(PredictionSet.from_scores(d.image_names, rng.random(n))),
    }
    shuffled = rng.permutation(n)
    permutations = {"folds.csv": range(n - 1, -1, -1), "cnn.csv": shuffled,
                    "sizes.csv": range(n - 1, -1, -1), "a.csv": rng.permutation(n),
                    "b.csv": shuffled}
    commands = [
        ["features", "--meta", "meta.csv", "--sizes", "sizes.csv", "--out", "features.csv"],
        ["train", "--meta", "meta.csv", "--folds-csv", "folds.csv", "--cnn", "cnn.csv",
         "--epochs", "2", "--batch-size", "8", "--hidden", "4,2", "--out-dir", "run"],
        ["evaluate", "--meta", "meta.csv", "--folds-csv", "folds.csv", "--preds", "a.csv"],
        ["evaluate", "--meta", "meta.csv", "--folds-csv", "folds.csv", "--preds", "run/oof.csv"],
        ["ensemble", "--preds", "run/oof.csv,a.csv,b.csv", "--out", "ens.csv"],
        ["ensemble", "--preds", "b.csv,run/oof.csv,a.csv", "--out", "ens_b.csv"],
    ]
    artifacts = ["features.csv", "run/oof.csv", "run/history.csv", "run/model_fold0.lsnb",
                 "run/model_fold1.lsnb", "ens.csv"]
    manifests = ["features.csv.manifest.txt", "run/train.manifest.txt", "ens.csv.manifest.txt",
                 "ens_b.csv.manifest.txt"]

    def run(name, permuted):
        work = tmp_path / name
        work.mkdir()
        (work / "meta.csv").write_text(meta, encoding="utf-8")
        for file, text in inputs.items():
            order = permutations[file] if permuted else range(n)
            (work / file).write_text(_rows_in_order(text, order), encoding="utf-8")
        monkeypatch.chdir(work)
        capsys.readouterr()
        assert [main(argv) for argv in commands] == [0] * len(commands)
        printed = capsys.readouterr()
        kept = {m: [line for line in (work / m).read_text(encoding="utf-8").splitlines()
                    if not line.startswith(("input.", "timestamp="))] for m in manifests}
        ens_b = (work / "ens_b.csv").read_text(encoding="utf-8")
        return ({a: (work / a).read_bytes() for a in artifacts}, printed.out, printed.err,
                kept, ens_b)

    ordered = run("ordered", False)
    permuted = run("permuted", True)
    assert permuted[:4] == ordered[:4]
    # An ensemble follows its first member's image order, so permuting b.csv permutes it too.
    assert permuted[4] == _rows_in_order(ordered[4], shuffled)
    assert "fold_1=" in ordered[1]
