"""Command-line interface.

Every subcommand is a pure function of its input files and flags: reruns
produce byte-identical artifacts. ``split``, ``features`` and ``ensemble``
write ``<out>.manifest.txt`` beside their output and ``train`` writes
``train.manifest.txt`` in its output directory, recording the command, seed,
every parsed flag, input digests, and toolkit version (manifests differ
between reruns only in their timestamp line). Exit codes: 0 success, 1 I/O
or out-of-memory failure, 2 validation failure. Each command returns its
``Lines``: its stdout lines and its warning lines, which ``main`` prints only
once the command has succeeded, so a failed command prints one error line.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .datamodel import (
    SIZE_MAX,
    Dataset,
    csv_blocks,
    csv_keyed,
    csv_text,
    parse_metadata_csv,
    parse_predictions_csv,
    positions,
    validate_consistency,
    values_at,
    write_predictions_csv,
)
from .ensemble import rank_average
from .errors import DomainError, FormatError, LesionbenchError
from .features import (
    FeatureTable,
    build_site_vocab,
    compute_n_images,
    encode_dataset,
    fit_norm_stats,
    write_feature_csv,
)
from .folds import (
    DEFAULT_FOLDS,
    DEFAULT_SEED,
    FoldAssignment,
    assign_folds,
    check_folds,
    fold_ratio_report,
    read_folds_csv,
    write_folds_csv,
)
from .fusion import EpochStats, TrainConfig, read_cnn_csv, save_model, train
from .hashing import fnv1a64
from .metrics import (
    METRIC_NAMES,
    evaluate_cv,
    load_reference_scores,
    parse_score_table,
    stability,
)
from .targets import TargetScheme

Lines = tuple[list[str], list[str]]


def _read_input(path: str, digests: dict[str, str] | None = None, key: str = "") -> str:
    """Read one input file, once, as UTF-8 text with LF, CRLF and lone CR all
    made LF (as ``Path.read_text`` does); record its digest when asked."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    if digests is not None:
        digests[key] = f"fnv1a:{fnv1a64(data):016x}"
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _write_output(path: Path, data: str | bytes) -> None:
    """Write ``path`` atomically: a temporary file beside it, then a rename,
    so a failed write leaves any previous file at ``path`` intact."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # name the path given, not the temporary file
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def _write_manifest(out_path: Path, args: argparse.Namespace, digests: dict[str, str]) -> None:
    """Write ``<out_path>.manifest.txt``: the command, its seed when it has
    one, one ``arg.<dest>=`` line per other parsed flag (None as empty), and
    the input digests."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    lines = [
        f"command={args.command}",
        f"version={__version__}",
        f"timestamp={datetime.now(timezone.utc).isoformat()}",
    ]
    if "seed" in flags:
        lines.append(f"seed={flags.pop('seed')}")
    for key in sorted(flags):
        lines.append(f"arg.{key}={'' if flags[key] is None else flags[key]}")
    for key in sorted(digests):
        lines.append(f"input.{key}={digests[key]}")
    _write_output(out_path.with_name(out_path.name + ".manifest.txt"), "\n".join(lines) + "\n")


def _check_labels(dataset: Dataset) -> list[str]:
    """Raise on labels that contradict their diagnoses, naming the count and
    the first image; otherwise return one warning line per rule the metadata
    breaks, for the command to return with its own lines."""
    report = validate_consistency(dataset)
    if report.errors:
        first = report.errors[0]
        raise DomainError(
            f"{len(report.errors)} label(s) contradict their diagnosis; "
            f"first {first.image_name!r}: {first.message}"
        )
    lines = []
    for rule in dict.fromkeys(w.rule for w in report.warnings):
        hits = [w for w in report.warnings if w.rule == rule]
        where = "" if hits[0].image_name == "*" else (
            f"{len(hits)} image(s), first {hits[0].image_name!r}: ")
        lines.append(f"warning: {rule}: {where}{hits[0].message}")
    return lines


def _cmd_split(args: argparse.Namespace) -> Lines:
    digests: dict[str, str] = {}
    dataset = parse_metadata_csv(_read_input(args.meta, digests, "meta"))
    label_warnings = _check_labels(dataset)
    assignment = assign_folds(dataset, args.folds, args.seed)
    out_path = Path(args.out)
    _write_output(out_path, write_folds_csv(dataset, assignment))
    _write_manifest(out_path, args, digests)
    report = fold_ratio_report(dataset, assignment)
    lines = [f"fold {k}: size={stats.size} positives={stats.positives} "
             f"ratio={stats.positive_ratio:.6f}" for k, stats in enumerate(report.per_fold)]
    lines.append(f"total: size={report.total.size} positives={report.total.positives} "
                 f"ratio={report.total.positive_ratio:.6f}")
    return lines, label_warnings


def _read_sizes_csv(text: str) -> tuple[tuple[str, ...], np.ndarray]:
    header, blocks = csv_blocks(text, "sizes")
    if header != ["image_name", "image_size_bytes"]:
        raise FormatError("sizes CSV must have header image_name,image_size_bytes")
    names, sizes = csv_keyed(header, blocks, np.int64, (1, SIZE_MAX))
    return names, sizes[:, 0]


def _apply_sizes(dataset: Dataset, names: tuple[str, ...], sizes: np.ndarray) -> Dataset:
    column = dataset.size.copy()
    column[values_at(positions(dataset.image_names), names, np.intp, "metadata")] = sizes
    return dataclasses.replace(dataset, size=column)


def _metadata_features(dataset: Dataset) -> FeatureTable:
    """The 14-column metadata features, z-scored against every row."""
    n_images = compute_n_images(dataset)
    vocab = build_site_vocab(dataset)
    stats = fit_norm_stats(dataset, n_images)
    return FeatureTable(dataset.image_names, encode_dataset(dataset, vocab, stats, n_images))


def _cmd_features(args: argparse.Namespace) -> Lines:
    digests: dict[str, str] = {}
    dataset = parse_metadata_csv(_read_input(args.meta, digests, "meta"))
    if args.sizes:
        dataset = _apply_sizes(dataset, *_read_sizes_csv(_read_input(args.sizes, digests, "sizes")))
    out_path = Path(args.out)
    _write_output(out_path, write_feature_csv(_metadata_features(dataset)))
    _write_manifest(out_path, args, digests)
    if dataset.size.all():
        return [], []
    return [], ["warning: image sizes missing for some records; their log-size "
                "feature encodes as 0"]


def _parse_hidden(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise FormatError(f"--hidden expects H1,H2, got {text!r}")
    try:
        h1, h2 = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"--hidden expects integers, got {text!r}") from None
    return h1, h2


def _parse_scheme(text: str) -> TargetScheme:
    if text == "9c":
        return TargetScheme.NINE_CLASS
    if text == "4c":
        return TargetScheme.FOUR_CLASS
    raise FormatError(f"--scheme must be 9c or 4c, got {text!r}")


def _read_folded(args: argparse.Namespace,
                 digests: dict[str, str] | None) -> tuple[Dataset, FoldAssignment, list[str]]:
    """The metadata, its label warnings and the fold split checked against it."""
    dataset = parse_metadata_csv(_read_input(args.meta, digests, "meta"))
    label_warnings = _check_labels(dataset)
    assignment = read_folds_csv(_read_input(args.folds_csv, digests, "folds"))
    check_folds(dataset, assignment)
    return dataset, assignment, label_warnings


def _cmd_train(args: argparse.Namespace) -> Lines:
    digests: dict[str, str] = {}
    dataset, assignment, label_warnings = _read_folded(args, digests)
    feats = _metadata_features(dataset)
    cnn = read_cnn_csv(_read_input(args.cnn, digests, "cnn")) if args.cnn else None

    cfg = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr_peak=args.lr,
        seed=args.seed,
        hidden=_parse_hidden(args.hidden),
        scheme=_parse_scheme(args.scheme),
    )
    result = train(dataset, feats, cnn, assignment, cfg)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_output(out_dir / "oof.csv", write_predictions_csv(result.oof))
    for k, model in enumerate(result.models):
        _write_output(out_dir / f"model_fold{k}.lsnb", save_model(model))
    _write_output(out_dir / "history.csv", write_history_csv(result.history))
    _write_manifest(out_dir / "train", args, digests)
    return _format_cv(evaluate_cv(result.oof, dataset, assignment)), label_warnings


def write_history_csv(history: Sequence[EpochStats]) -> str:
    """Serialize training history, one row per fold and epoch (header
    ``fold,epoch,lr,train_loss,val_auc``; an undefined AUC is an empty cell)."""
    rows = [(str(row.fold), str(row.epoch), repr(row.lr), repr(row.train_loss),
             "" if row.val_auc is None else repr(row.val_auc)) for row in history]
    return csv_text(["fold", "epoch", "lr", "train_loss", "val_auc"], [list(zip(*rows))])


def _format_auc(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.6f}"


def _format_cv(report) -> list[str]:
    return [f"cv_all={_format_auc(report.cv_all)}", f"cv_2020={_format_auc(report.cv_2020)}",
            *(f"fold_{k}={_format_auc(value)}" for k, value in enumerate(report.per_fold))]


def _cmd_evaluate(args: argparse.Namespace) -> Lines:
    dataset, assignment, label_warnings = _read_folded(args, None)
    preds = parse_predictions_csv(_read_input(args.preds))
    return _format_cv(evaluate_cv(preds, dataset, assignment)), label_warnings


def _cmd_ensemble(args: argparse.Namespace) -> Lines:
    pred_paths = [p for p in args.preds.split(",") if p]
    if not pred_paths:
        raise FormatError("--preds expects a comma-separated list of CSV paths")
    digests: dict[str, str] = {}
    models = [
        parse_predictions_csv(_read_input(p, digests, f"preds{i}"))
        for i, p in enumerate(pred_paths)
    ]
    combined = rank_average(models)
    out_path = Path(args.out)
    _write_output(out_path, write_predictions_csv(combined))
    _write_manifest(out_path, args, digests)
    return [], []


def _cmd_stability(args: argparse.Namespace) -> Lines:
    if args.scores:
        table = parse_score_table(_read_input(args.scores))
    else:
        table = load_reference_scores()
    result = stability(table)
    return [*(f"{name} std={std:.6f}" for name, std in zip(METRIC_NAMES, result.stds)),
            "ranking: " + " > ".join(result.ranking)], []


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lesionbench",
        description="Tabular pipeline toolkit: folds, features, fusion-head "
        "training, AUC evaluation, rank ensembling, stability analysis.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="assign patient-grouped stratified folds")
    p.add_argument("--meta", required=True, help="metadata CSV path")
    p.add_argument("--folds", type=int, default=DEFAULT_FOLDS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True, help="output folds CSV path")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("features", help="export 14-column metadata features")
    p.add_argument("--meta", required=True)
    p.add_argument("--sizes", default=None, help="optional image_name,image_size_bytes CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("train", help="train fusion heads per fold, write OOF scores")
    p.add_argument("--meta", required=True)
    p.add_argument("--folds-csv", required=True)
    p.add_argument("--cnn", default=None, help="optional external feature CSV")
    p.add_argument("--scheme", default="9c", help="9c or 4c")
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=3e-4)
    p.add_argument("--hidden", default="512,128")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score OOF predictions against labels")
    p.add_argument("--meta", required=True)
    p.add_argument("--folds-csv", required=True)
    p.add_argument("--preds", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("ensemble", help="rank-average prediction files")
    p.add_argument("--preds", required=True, help="comma-separated prediction CSVs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("stability", help="per-metric standard deviations")
    p.add_argument("--scores", default=None, help="score CSV (default: shipped table)")
    p.set_defaults(func=_cmd_stability)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        stdout, warnings = args.func(args)
        for line in stdout:
            print(line)
        for line in warnings:
            print(line, file=sys.stderr)
        return 0
    except LesionbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory in {args.command}{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
