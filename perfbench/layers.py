"""Where the traced run puts its wrappers, and the per-layer metrics it
derives from the spans.

Layers are the library's modules. Spans wrap the names ``lesionbench.cli``
and ``lesionbench.fusion`` call, ``metrics.auc`` (reached from both through
``metrics`` globals), and each CLI command as a whole; ``map_diagnosis`` is
counted rather than timed because it runs once per record.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import LAYERS

MICRO_STEPS = 1000  # enough calls that p99 has ten samples beyond it
IMPORT_REPEATS = 3
FORWARD = "fusion._forward_cached"
BACKWARD = "fusion._backward"

# Spans whose size is the number of input bytes handed to a parser or digest.
READ_SPANS = (
    "datamodel.parse_metadata_csv",
    "datamodel.parse_predictions_csv",
    "folds.read_folds_csv",
    "features.read_feature_csv",
    "hashing.fnv1a64",
)


def _text_len(text, *args, **kwargs) -> int:
    return len(text) if isinstance(text, (str, bytes)) else 0


def install(tracer: Tracer) -> None:
    import lesionbench.cli as cli
    import lesionbench.folds as folds
    import lesionbench.fusion as fusion
    import lesionbench.metrics as metrics

    cli_names = {
        "datamodel": ("parse_metadata_csv", "parse_predictions_csv", "write_predictions_csv"),
        "features": ("compute_n_images", "build_site_vocab", "fit_norm_stats", "encode_dataset",
                     "write_feature_csv"),
        "folds": ("assign_folds", "fold_ratio_report", "read_folds_csv", "write_folds_csv"),
        "fusion": ("train", "save_model"),
        "hashing": ("fnv1a64",),
        "metrics": ("evaluate_cv", "load_reference_scores", "parse_score_table", "stability"),
        "ensemble": ("rank_average",),
    }
    sized = {"parse_metadata_csv", "parse_predictions_csv", "read_folds_csv", "fnv1a64"}
    for layer, names in cli_names.items():
        for name in names:
            tracer.wrap(cli, name, layer, _text_len if name in sized else None)
    tracer.wrap(fusion, "read_feature_csv", "features", _text_len)
    tracer.wrap(fusion, "_forward_cached", "fusion", lambda params, meta, cnn: len(meta))
    tracer.wrap(fusion, "_backward", "fusion", lambda params, cache, targets: len(targets))
    tracer.wrap(metrics, "auc", "metrics")
    for module in (folds, fusion):
        tracer.count(module, "map_diagnosis", "targets.map_diagnosis_calls")


def distinct_input_bytes(commands, chain: Path) -> int:
    """Sum over commands of the sizes of the distinct files each was given;
    paths are relative to ``chain``, where the commands ran."""
    total = 0
    for step in commands:
        files = set()
        for flag in ("--meta", "--folds-csv", "--cnn", "--preds", "--sizes", "--scores"):
            if flag in step.argv:
                files.update(p for p in step.argv[step.argv.index(flag) + 1].split(",") if p)
        total += sum((chain / f).stat().st_size for f in files)
    return total


def import_seconds(env: dict[str, str]) -> float:
    """Median time of ``import lesionbench.cli`` in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import lesionbench.cli; print(time.perf_counter() - t)"
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout)
        for _ in range(IMPORT_REPEATS)
    )


def step_other_ms(tracer: Tracer) -> list[float]:
    """Per training step: its wall time minus its forward and backward spans.

    A step runs from the start of one training forward to the start of the
    next on the same thread; it covers the batch gather, the loss and Adam.
    Steps followed by a validation forward (no backward) are left out.
    """
    threads: dict[int, list] = {}
    for s in tracer.spans:
        if s.name in (FORWARD, BACKWARD):
            threads.setdefault(s.thread, []).append(s)
    out = []
    for seq in threads.values():
        seq.sort(key=lambda s: s.start)
        for i in range(len(seq) - 2):
            fwd, bwd, nxt = seq[i], seq[i + 1], seq[i + 2]
            if fwd.name == FORWARD and bwd.name == BACKWARD and nxt.name == FORWARD and (
                i + 3 < len(seq) and seq[i + 3].name == BACKWARD
            ):
                other = (nxt.start - fwd.start) - (fwd.end - fwd.start) - (bwd.end - bwd.start)
                out.append(1e3 * other)
    return out


def step_micro_ms(workload, seed: int) -> tuple[list[float], list[float]]:
    """Public ``forward`` and ``backward`` timed at the workload's batch shape.

    Returns per-call forward times and, for the same batch, backward time
    minus forward time (``backward`` runs its own forward pass first).
    """
    from lesionbench import fusion
    from lesionbench.targets import TargetScheme

    rng = np.random.default_rng([seed, 0x57E9])
    d = workload.cnn_dim
    model = fusion.init_fusion_head(TargetScheme.NINE_CLASS, workload.hidden, d, rng)
    b = workload.batch_size
    fwd, bwd = [], []
    for i in range(MICRO_STEPS + 20):
        x = rng.normal(size=(b, 14))
        c = rng.normal(size=(b, d)) if d else None
        y = rng.integers(0, 9, size=b)
        t0 = time.perf_counter()
        fusion.forward(model, x, c)
        t1 = time.perf_counter()
        fusion.backward(model, x, c, y)
        t2 = time.perf_counter()
        if i >= 20:  # the first calls warm caches and BLAS buffers
            fwd.append(1e3 * (t1 - t0))
            bwd.append(1e3 * ((t2 - t1) - (t1 - t0)))
    return fwd, bwd


def _q(values: list[float], pct: float) -> float:
    return float(np.percentile(values, pct)) if values else 0.0


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def metrics(tracer: Tracer, *, rows: int, input_bytes: int, import_s: float, overhead_frac: float,
            micro_ms: tuple[list[float], list[float]]) -> dict[str, float]:
    """Per-layer metrics from the spans; ``micro_ms`` is ``step_micro_ms``'s result."""
    def size(name: str) -> int:
        return sum(s.size for s in tracer.by_name(name))

    t = tracer.total
    fwd, bwd = micro_ms
    other = step_other_ms(tracer)
    train_s = t("fusion.train")
    out = {
        "hashing.digest_s": t("hashing.fnv1a64"),
        "hashing.digest_mb_per_s": _rate(size("hashing.fnv1a64") / 1e6, t("hashing.fnv1a64")),
        "hashing.digest_bytes": size("hashing.fnv1a64"),
        "cli.import_s": import_s,
        "cli.bytes_read_ratio": sum(size(n) for n in READ_SPANS) / input_bytes,
        "datamodel.parse_metadata_s": t("datamodel.parse_metadata_csv"),
        "datamodel.parse_metadata_rows_per_s": _rate(
            rows * len(tracer.by_name("datamodel.parse_metadata_csv")), t("datamodel.parse_metadata_csv")),
        "datamodel.parse_predictions_s": t("datamodel.parse_predictions_csv"),
        "datamodel.write_predictions_s": t("datamodel.write_predictions_csv"),
        "features.encode_dataset_s": t("features.encode_dataset"),
        "features.write_feature_csv_s": t("features.write_feature_csv"),
        "features.read_feature_csv_s": t("features.read_feature_csv"),
        "features.read_feature_csv_mb_per_s": _rate(
            size("features.read_feature_csv") / 1e6, t("features.read_feature_csv")),
        "folds.assign_folds_s": t("folds.assign_folds"),
        "folds.read_folds_s": t("folds.read_folds_csv"),
        "folds.write_folds_s": t("folds.write_folds_csv"),
        "targets.map_diagnosis_calls": tracer.counts.get("targets.map_diagnosis_calls", 0),
        "fusion.train_s": train_s,
        "fusion.train_rows_per_s": _rate(size(BACKWARD), train_s),
        "fusion.steps": len(tracer.by_name(BACKWARD)),
        "fusion.save_model_s": t("fusion.save_model"),
        "fusion.forward_ms_p50": _q(fwd, 50),
        "fusion.forward_ms_p99": _q(fwd, 99),
        "fusion.backward_ms_p50": _q(bwd, 50),
        "fusion.backward_ms_p99": _q(bwd, 99),
        "fusion.step_other_ms_p50": _q(other, 50),
        "fusion.step_other_ms_p99": _q(other, 99),
        "metrics.evaluate_cv_s": t("metrics.evaluate_cv"),
        "metrics.auc_calls": len(tracer.by_name("metrics.auc")),
        "metrics.auc_s": t("metrics.auc"),
        "metrics.bootstrap_s": t("metrics.bootstrap_auc_std"),
        "ensemble.rank_average_s": t("ensemble.rank_average"),
        "trace.overhead_frac": overhead_frac,
    }
    self_s = tracer.self_times()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return out

