"""The workloads, the metrics they report, and which layer metric is
expected to move which end-to-end metric.

Both workloads run the same command sequence on the same 58,457-image
cohort, so every end-to-end metric exists on both: split, features, train,
evaluate, ensemble and an in-process bootstrap of the ensemble's 2020 AUC.
A run sets the inputs up three times, then repeats every step but
``train`` in rounds until its time is spent, and each such metric is the
median over its rounds (setup_s over its set-ups). The host's speed swings
within seconds: the same one-second command takes from 0.7 to 1.9 s on a
shared two-vCPU VM, and the fastest of a few calls moved more from run to
run than their median. ``train`` (two epochs, the CLI's minimum) runs once
and averages over its own 10 to 25 seconds.
What differs between the workloads is where the work sits:

* ``paper_meta``: a metadata-only fusion head (D=0, hidden 512,128,
  batch 64, serial folds). The training step dominates ``train_s``.
* ``paper_wide``: a D=16 external feature CSV (about 19 MB), hidden 128,32
  and two fold threads. Every round evaluates the OOF scores, which are
  what ``evaluate_s`` times; round 0 also evaluates an external prediction
  file rounded to three decimals (ties) and prints the stability table.
  Every round rank-averages the two files. Reading and digesting input
  takes a large share of ``train``; it is the only workload on the
  fold-thread code path. The paper's pooled image features have 1.5k-2.5k
  columns; D is cut to 16 so that every run, with its set-up, fits the
  benchmark's time budget.
"""

from __future__ import annotations

from dataclasses import dataclass

N_FOLDS = 5
EPOCHS = 2
N_BOOT = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    batch_size: int
    hidden: tuple[int, int]
    threads: str | None  # LESIONBENCH_THREADS; None leaves it unset
    cnn_dim: int = 0  # width of the external feature CSV given to train
    external_preds: int = 0  # prediction files blended with the OOF scores


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_meta",
            "D=0 fusion head, hidden 512,128, batch 64, serial folds: the training step "
            "dominates; fusion.* step timings move train_s and pipeline_s here",
            batch_size=64, hidden=(512, 128), threads=None,
        ),
        Workload(
            "paper_wide",
            "D=16 features (19 MB CSV), 2 fold threads, 2-file blend: input digest and parse "
            "take a large share; hashing.*, features.read_*, datamodel.parse_* move train_s and evaluate_s",
            batch_size=64, hidden=(128, 32), threads="2", cnn_dim=16, external_preds=1,
        ),
    )
}

# name -> (unit, better, bound). The host's speed drifts by 10-15% over tens
# of minutes, so timings get the widest bound allowed; peak RSS repeats
# within 1%.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "pipeline_s": ("s", "lower", 0.25),
    "split_s": ("s", "lower", 0.25),
    "features_s": ("s", "lower", 0.25),
    "train_s": ("s", "lower", 0.25),
    "evaluate_s": ("s", "lower", 0.25),
    "ensemble_s": ("s", "lower", 0.25),
    "bootstrap_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

LAYERS = ("cli", "hashing", "datamodel", "features", "folds", "fusion", "metrics", "ensemble")

# name -> (unit, better, [(end-to-end metric, workload), ...] it should move)
PER_LAYER = {
    "hashing.digest_s": ("s", "lower", [("train_s", "paper_wide"), ("pipeline_s", "paper_wide")]),
    "hashing.digest_mb_per_s": ("MB/s", "higher", [("train_s", "paper_wide"), ("pipeline_s", "paper_wide")]),
    "hashing.digest_bytes": ("bytes", "lower", [("train_s", "paper_wide"), ("pipeline_s", "paper_wide")]),
    "cli.import_s": ("s", "lower", [("split_s", "paper_wide"), ("evaluate_s", "paper_wide")]),
    "cli.bytes_read_ratio": ("ratio", "lower", [("evaluate_s", "paper_wide"), ("ensemble_s", "paper_wide")]),
    "datamodel.parse_metadata_s": ("s", "lower", [("evaluate_s", "paper_wide")]),
    "datamodel.parse_metadata_rows_per_s": ("rows/s", "higher", [("evaluate_s", "paper_wide")]),
    "datamodel.parse_predictions_s": ("s", "lower", [("evaluate_s", "paper_wide"), ("ensemble_s", "paper_wide")]),
    "datamodel.write_predictions_s": ("s", "lower", [("ensemble_s", "paper_wide")]),
    "features.encode_dataset_s": ("s", "lower", [("features_s", "paper_meta"), ("features_s", "paper_wide")]),
    "features.write_feature_csv_s": ("s", "lower", [("features_s", "paper_meta"), ("features_s", "paper_wide")]),
    "features.read_feature_csv_s": ("s", "lower", [("train_s", "paper_wide"), ("peak_rss_mb", "paper_wide")]),
    "features.read_feature_csv_mb_per_s": ("MB/s", "higher", [("train_s", "paper_wide"), ("peak_rss_mb", "paper_wide")]),
    "folds.assign_folds_s": ("s", "lower", [("split_s", "paper_meta")]),
    "folds.read_folds_s": ("s", "lower", [("split_s", "paper_meta")]),
    "folds.write_folds_s": ("s", "lower", [("split_s", "paper_meta")]),
    "targets.map_diagnosis_calls": ("count", "lower", [("split_s", "paper_meta"), ("train_s", "paper_meta")]),
    "fusion.train_s": ("s", "lower", [("train_s", "paper_meta"), ("train_s", "paper_wide")]),
    "fusion.train_rows_per_s": ("rows/s", "higher", [("train_s", "paper_meta"), ("train_s", "paper_wide")]),
    "fusion.steps": ("count", "lower", [("train_s", "paper_meta")]),
    "fusion.save_model_s": ("s", "lower", [("train_s", "paper_meta")]),
    "fusion.forward_ms_p50": ("ms", "lower", [("train_s", "paper_meta")]),
    "fusion.forward_ms_p99": ("ms", "lower", [("train_s", "paper_meta")]),
    "fusion.backward_ms_p50": ("ms", "lower", [("train_s", "paper_meta")]),
    "fusion.backward_ms_p99": ("ms", "lower", [("train_s", "paper_meta")]),
    "fusion.step_other_ms_p50": ("ms", "lower", [("train_s", "paper_meta")]),
    "fusion.step_other_ms_p99": ("ms", "lower", [("train_s", "paper_meta")]),
    "metrics.evaluate_cv_s": ("s", "lower", [("evaluate_s", "paper_wide")]),
    "metrics.auc_calls": ("count", "lower", [("evaluate_s", "paper_wide")]),
    "metrics.auc_s": ("s", "lower", [("evaluate_s", "paper_wide")]),
    "metrics.bootstrap_s": ("s", "lower", [("bootstrap_s", "paper_wide")]),
    "ensemble.rank_average_s": ("s", "lower", [("ensemble_s", "paper_wide")]),
    **{
        f"{layer}.self_s": ("s", "lower", [("pipeline_s", "paper_meta"), ("pipeline_s", "paper_wide"), ("pipeline_s", "paper_wide")])
        for layer in LAYERS
    },
    "trace.overhead_frac": ("ratio", "lower", []),
}


@dataclass(frozen=True)
class Step:
    metric: str | None  # end-to-end metric the step's time counts towards
    argv: tuple[str, ...] | None  # CLI arguments; None is the in-process bootstrap


def steps(w: Workload, seed: int, rep: int) -> list[Step]:
    """The steps of round ``rep``, in order; they run in ``chain<rep>``.

    Round 0 also trains, evaluates the external prediction files and prints
    the stability table; later rounds evaluate and blend round 0's OOF
    scores, and their outputs must match round 0's byte for byte. Paths are
    relative to the chain directory, so the arguments recorded in manifests
    are the same in every round and every run.
    """
    meta = "../inputs/meta.csv"
    preds = ["../chain0/run/oof.csv"] + [f"../inputs/model_{i:02d}.csv" for i in range(w.external_preds)]
    out = [
        Step("split_s", ("split", "--meta", meta, "--folds", str(N_FOLDS), "--seed", str(seed), "--out", "folds.csv")),
        Step("features_s", ("features", "--meta", meta, "--out", "features.csv")),
    ]
    if rep == 0:
        cnn = ("--cnn", "../inputs/cnn.csv") if w.cnn_dim else ()
        out.append(Step("train_s", ("train", "--meta", meta, "--folds-csv", "folds.csv", *cnn,
                                    "--epochs", str(EPOCHS), "--batch-size", str(w.batch_size),
                                    "--hidden", f"{w.hidden[0]},{w.hidden[1]}",
                                    "--seed", str(seed), "--out-dir", "run")))
    # evaluate_s times the OOF file alone, so that every round times the same input.
    out += [Step("evaluate_s" if p == preds[0] else None,
                 ("evaluate", "--meta", meta, "--folds-csv", "folds.csv", "--preds", p))
            for p in (preds if rep == 0 else preds[:1])]
    out.append(Step("ensemble_s", ("ensemble", "--preds", ",".join(preds), "--out", "ensemble.csv")))
    if rep == 0 and w.external_preds:
        out.append(Step(None, ("stability",)))
    out.append(Step("bootstrap_s", None))
    return out
