"""Deterministic patient-grouped, class-stratified fold assignment.

Patients are the assignment unit so no patient's images leak across folds. Stratification
targets the nine-class diagnosis distribution: patients are processed largest-first and each
goes to the fold currently least loaded with respect to the patient's own class counts. Ties
are broken by a seeded 64-bit mix of the patient id, which makes assignments reproducible
across runs and platforms while still varying with the seed. A split is a
:class:`FoldAssignment`, a ``datamodel.KeyedTable`` of image names and their int64 folds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import Dataset, KeyedTable, aligned_rows, csv_blocks, csv_keyed, csv_text
from .errors import DomainError, FormatError, ShapeError
from .hashing import MASK64, fnv1a64, splitmix64
from .targets import TargetScheme
from .targets import map_diagnosis  # noqa: F401 -- unused; perfbench/layers.py counts its calls

N_STRATA = TargetScheme.NINE_CLASS.class_count

DEFAULT_FOLDS = 5
DEFAULT_SEED = 42
FOLD_MAX = 2**63 - 1  # folds are held as int64


@dataclass(frozen=True, eq=False)
class FoldAssignment(KeyedTable):
    """A k-fold split as a keyed table: image names and a read-only int64 array of their folds.
    ``k`` is at least 1 and every fold lies in 0..k-1, else DomainError names the first image
    outside that range; :func:`check_folds` checks the split against the metadata."""

    image_names: tuple[str, ...]
    folds: np.ndarray
    k: int

    dtype = np.int64

    def _check(self, keys: tuple[str, ...], values: np.ndarray) -> None:
        if self.k < 1:
            raise DomainError(f"fold count must be at least 1, got {self.k}")
        if values.shape != (len(keys),):
            raise ShapeError(f"folds shape {values.shape} != ({len(keys)},)")
        outside = (values < 0) | (values >= self.k)
        if outside.any():
            i = int(np.argmax(outside))
            raise DomainError(f"image {keys[i]!r} has fold {values[i]}, "
                              f"outside 0..{self.k - 1} for k={self.k}")


@dataclass(frozen=True)
class FoldStats:
    size: int
    positives: int

    @property
    def positive_ratio(self) -> float:
        return self.positives / self.size if self.size else 0.0


@dataclass(frozen=True)
class FoldRatioReport:
    per_fold: tuple[FoldStats, ...]
    total: FoldStats


def assign_folds(d: Dataset, k: int, seed: int) -> FoldAssignment:
    """Split a dataset into k patient-grouped, class-stratified folds.

    Patients are sorted by descending image count, then by descending
    per-class count signature, then by patient_id, and greedily placed on
    the fold with the smallest dot product between the fold's current class
    counts and the patient's class counts. Tied folds are resolved with
    ``splitmix64(seed ^ fnv1a64(patient_id))``, so the result is a pure
    function of (dataset, k, seed). ``k`` runs from 2 to the image count.
    """
    if k < 2:
        raise DomainError(f"fold count must be at least 2, got {k}")
    if not len(d):
        raise DomainError("cannot assign folds on an empty dataset")
    _require_fold_count(k, len(d))
    # Fewer patients than folds is allowed; the surplus folds stay empty.
    pids = list(dict.fromkeys(d.patient_ids))  # indexed by d.patient
    class_counts = np.zeros((len(pids), N_STRATA), dtype=np.int64)
    np.add.at(class_counts, (d.patient, d.diagnosis_class), 1)
    pid_rank = np.argsort(sorted(range(len(pids)), key=pids.__getitem__))
    # np.lexsort sorts by its last key first.
    order = np.lexsort((pid_rank, *-class_counts.T[::-1], -class_counts.sum(axis=1)))

    seed64 = seed & MASK64
    fold_counts = np.zeros((k, N_STRATA), dtype=np.int64)
    patient_fold = np.empty(len(pids), dtype=np.int64)
    for p in order.tolist():
        v = class_counts[p]
        loads = fold_counts @ v
        tied = np.flatnonzero(loads == loads.min())
        if tied.size == 1:
            fold = int(tied[0])
        else:
            draw = splitmix64(seed64 ^ fnv1a64(pids[p].encode("utf-8")))
            fold = int(tied[draw % tied.size])
        fold_counts[fold] += v
        patient_fold[p] = fold

    return FoldAssignment(d.image_names, patient_fold[d.patient], k)


def fold_ratio_report(d: Dataset, f: FoldAssignment) -> FoldRatioReport:
    """Exact per-fold sizes and positive ratios, plus the global ones."""
    folds = f.select(d.image_names, "fold assignment")
    sizes = np.bincount(folds, minlength=f.k).tolist()
    positives = np.bincount(folds[d.positive], minlength=f.k).tolist()
    per_fold = tuple(map(FoldStats, sizes, positives))
    return FoldRatioReport(per_fold=per_fold, total=FoldStats(sum(sizes), sum(positives)))


def _require_fold_count(k: int, n_images: int) -> None:
    if k > n_images:
        raise DomainError(f"fold count {k} exceeds the image count {n_images}")


def check_folds(d: Dataset, f: FoldAssignment) -> None:
    """Check that ``f`` fits ``d``: each side names only the other's images (see
    :func:`~lesionbench.datamodel.aligned_rows`), the fold count is at most the image count, and
    every patient's images share one fold. Fold ids need not be contiguous: ``assign_folds``
    leaves surplus folds empty when there are fewer patients than folds."""
    folds = aligned_rows(f, d, "fold assignment")
    # Every fold id costs a model in ``train`` and a line in ``evaluate``.
    _require_fold_count(f.k, len(d))
    first_row = np.unique(d.patient, return_index=True)[1]
    split = d.patient[folds != folds[first_row][d.patient]]
    if split.size:  # report the first split patient in order of appearance
        p = int(split.min())
        raise DomainError(f"patient {d.patient_ids[first_row[p]]!r} is split across folds "
                          f"{np.unique(folds[d.patient == p]).tolist()}")


def write_folds_csv(d: Dataset, f: FoldAssignment) -> str:
    """Serialize an assignment in dataset row order (header
    ``image_name,fold``)."""
    folds = f.select(d.image_names, "fold assignment").tolist()
    return csv_text(["image_name", "fold"], [[d.image_names, list(map(str, folds))]])


def read_folds_csv(text: str) -> FoldAssignment:
    """Parse a folds CSV through ``datamodel.csv_keyed``, each fold an integer in [0, FOLD_MAX],
    a bad one named by ``datamodel.cast_cells``; k is inferred as max fold index + 1. A row-shape
    fault in a block of rows is reported before a bad fold in an earlier row of it."""
    header, blocks = csv_blocks(text, "folds")
    if header != ["image_name", "fold"]:
        raise FormatError(f"unrecognized folds header: {','.join(header)!r}")
    names, folds = csv_keyed(header, blocks, np.int64, (0, FOLD_MAX))
    if not names:
        raise FormatError("folds CSV contains no data rows")
    return FoldAssignment(names, folds[:, 0], int(folds.max()) + 1)
