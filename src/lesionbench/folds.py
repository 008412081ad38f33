"""Deterministic patient-grouped, class-stratified fold assignment.

Patients are the assignment unit so no patient's images leak across folds.
Stratification targets the nine-class diagnosis distribution: patients are
processed largest-first and each goes to the fold currently least loaded
with respect to the patient's own class counts. Ties are broken by a seeded
64-bit mix of the patient id, which makes assignments reproducible across
runs and platforms while still varying with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .datamodel import Dataset, csv_rows, csv_text, require_coverage
from .errors import DomainError, FormatError, UniquenessError
from .hashing import MASK64, fnv1a64, splitmix64
from .targets import TargetScheme, map_diagnosis

N_STRATA = TargetScheme.NINE_CLASS.class_count

DEFAULT_FOLDS = 5
DEFAULT_SEED = 42


@dataclass(frozen=True)
class FoldAssignment:
    """Image -> fold map for a k-fold split.

    Every image of the source dataset appears exactly once, and all images
    of one patient share a fold. ``seed`` is None for assignments read back
    from CSV, where the generating seed is unknown.
    """

    k: int
    assignment: dict[str, int]
    seed: int | None

    def __len__(self) -> int:
        return len(self.assignment)


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
    if not d.records:
        raise DomainError("cannot assign folds on an empty dataset")
    _require_fold_count(k, len(d))
    # Fewer patients than folds is allowed; the surplus folds stay empty.
    patients = d.by_patient

    class_counts: dict[str, np.ndarray] = {}
    for pid, positions in patients.items():
        counts = np.zeros(N_STRATA, dtype=np.int64)
        for pos in positions:
            counts[map_diagnosis(d.records[pos].diagnosis).value] += 1
        class_counts[pid] = counts

    order = sorted(
        patients,
        key=lambda pid: (
            -int(class_counts[pid].sum()),
            tuple(-c for c in class_counts[pid].tolist()),
            pid,
        ),
    )

    seed64 = seed & MASK64
    fold_counts = np.zeros((k, N_STRATA), dtype=np.int64)
    patient_fold: dict[str, int] = {}
    for pid in order:
        v = class_counts[pid]
        loads = fold_counts @ v
        tied = np.flatnonzero(loads == loads.min())
        if tied.size == 1:
            fold = int(tied[0])
        else:
            draw = splitmix64(seed64 ^ fnv1a64(pid.encode("utf-8")))
            fold = int(tied[draw % tied.size])
        fold_counts[fold] += v
        patient_fold[pid] = fold

    assignment = {r.image_name: patient_fold[r.patient_id] for r in d.records}
    return FoldAssignment(k=k, assignment=assignment, seed=seed)


def fold_ratio_report(d: Dataset, f: FoldAssignment) -> FoldRatioReport:
    """Exact per-fold sizes and positive ratios, plus the global ones."""
    require_coverage(d.image_names, f.assignment, "fold assignment")
    sizes = [0] * f.k
    positives = [0] * f.k
    for r in d.records:
        fold = f.assignment[r.image_name]
        sizes[fold] += 1
        positives[fold] += int(r.is_positive)
    per_fold = tuple(FoldStats(s, p) for s, p in zip(sizes, positives))
    total = FoldStats(sum(sizes), sum(positives))
    return FoldRatioReport(per_fold=per_fold, total=total)


def _require_fold_count(k: int, n_images: int) -> None:
    if k > n_images:
        raise DomainError(f"fold count {k} exceeds the image count {n_images}")


def check_folds(d: Dataset, f: FoldAssignment) -> None:
    """Check that ``f`` fits ``d``: each side names only the other's images,
    the fold count is at most the image count, and every patient's images
    share one fold.

    Fold ids need not be contiguous: ``assign_folds`` leaves surplus folds
    empty when there are fewer patients than folds.
    """
    require_coverage(d.image_names, f.assignment, "fold assignment")
    if len(f.assignment) > len(d):  # names on both sides are unique
        require_coverage(f.assignment, set(d.image_names), "metadata")
    # Every fold id costs a model in ``train`` and a line in ``evaluate``.
    _require_fold_count(f.k, len(d))
    names = d.image_names
    for pid, positions in d.by_patient.items():
        folds = {f.assignment[names[pos]] for pos in positions}
        if len(folds) > 1:
            raise DomainError(f"patient {pid!r} is split across folds {sorted(folds)}")


def write_folds_csv(d: Dataset, f: FoldAssignment) -> str:
    """Serialize an assignment in dataset record order (header
    ``image_name,fold``)."""
    require_coverage(d.image_names, f.assignment, "fold assignment")
    return csv_text(
        ["image_name", "fold"],
        ([r.image_name, str(f.assignment[r.image_name])] for r in d.records),
    )


def read_folds_csv(text: str) -> FoldAssignment:
    """Parse a folds CSV; k is inferred as max fold index + 1."""
    header, rows = csv_rows(text, "folds")
    if header != ["image_name", "fold"]:
        raise FormatError(f"unrecognized folds header: {','.join(header)!r}")
    assignment: dict[str, int] = {}
    for row_num, (name, fold_cell) in rows:
        if name in assignment:
            raise UniquenessError(f"duplicate image_name {name!r} in folds CSV")
        try:
            fold = int(fold_cell)
        except ValueError:
            raise FormatError(f"row {row_num}: non-integer fold {fold_cell!r}") from None
        if fold < 0:
            raise FormatError(f"row {row_num}: negative fold {fold}")
        assignment[name] = fold
    if not assignment:
        raise FormatError("folds CSV contains no data rows")
    return FoldAssignment(k=max(assignment.values()) + 1, assignment=assignment, seed=None)
