"""Ranking metrics, and the stability of a table of model scores.

The AUC here is the Mann-Whitney statistic: the probability that a random
positive outscores a random negative, with ties counted half. It is computed
from tied ranks in integer arithmetic, so it equals exact pair counting down
to the final double-precision division.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Sequence

import numpy as np

from .datamodel import (
    Dataset,
    KeyedTable,
    PredictionSet,
    _frozen,
    aligned_rows,
    csv_blocks,
    csv_keyed,
    csv_text,
    float_rows,
    reduce_fields,
    require_unit_interval,
)
from .errors import DomainError, FormatError, ShapeError
from .folds import FoldAssignment
from .hashing import MASK64

METRIC_NAMES = ("cv_all", "cv_2020", "private_lb", "public_lb")

REFERENCE_SCORES_RESOURCE = "model_scores.csv"

_MAX_REDRAWS = 10


@dataclass(frozen=True, eq=False)
class LabeledScores:
    """Parallel scores and binary labels; the input shape for AUC."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if scores.ndim != 1 or labels.ndim != 1 or scores.shape != labels.shape:
            raise ShapeError(
                f"scores {scores.shape} and labels {labels.shape} must be "
                "1-D and equal-length"
            )
        if not np.all(np.isfinite(scores)):
            raise DomainError("scores must be finite")
        if not np.all((labels == 0) | (labels == 1)):
            raise DomainError("labels must be 0 or 1")
        object.__setattr__(self, "scores", _frozen(scores))
        object.__setattr__(self, "labels", _frozen(labels))

    def __len__(self) -> int:
        return int(self.scores.size)

    __reduce__ = reduce_fields


def _tie_groups(sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tie group of each element of a non-empty ascending array, numbered
    from 0 in order with equal values sharing one, and each group's start."""
    new_group = np.empty(sorted_values.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_values[1:] != sorted_values[:-1]
    return np.cumsum(new_group) - 1, np.flatnonzero(new_group)


def doubled_ranks(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Twice the 1-based average ranks, as exact int64.

    Ties share their group's average rank; doubling keeps the .5 averages in
    integer arithmetic.
    """
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(x, kind="stable")
    group, starts = _tie_groups(x[order])
    ends = np.append(starts[1:], n) - 1
    r2_sorted = (starts + ends + 2)[group]  # (first_rank + last_rank) per position
    r2 = np.empty(n, dtype=np.int64)
    r2[order] = r2_sorted
    return r2


def average_ranks(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged (values are exact multiples of 0.5)."""
    return doubled_ranks(values) / 2.0


def auc(s: LabeledScores) -> float:
    """Tie-aware ROC AUC of scores against binary labels.

    Equals ``(#{pos > neg} + 0.5 * #{pos == neg}) / (P * N)``, evaluated via
    the rank-sum identity in O(n log n). The numerator is assembled in exact
    integer arithmetic; the single final division is the only rounding.
    """
    labels = s.labels
    p = int(labels.sum())
    n = int(labels.size) - p
    if p == 0 or n == 0:
        raise DomainError("AUC requires at least one positive and one negative")
    r2 = doubled_ranks(s.scores)
    u2 = int(r2[labels == 1].sum()) - p * (p + 1)  # equals 2*wins + ties
    return u2 / (2 * p * n)


def auc_or_none(
    scores: np.ndarray | Sequence[float], labels: np.ndarray | Sequence[int]
) -> float | None:
    """AUC, or None when undefined (empty input or a single class)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        return None
    p = int(labels.sum())
    if p == 0 or p == labels.size:
        return None
    return auc(LabeledScores(np.asarray(scores, dtype=np.float64), labels))


@dataclass(frozen=True)
class CvReport:
    """AUC over everything, over the 2020 cohort, and within each fold.

    Entries are None where the restriction holds a single class and the AUC
    is undefined.
    """

    cv_all: float | None
    cv_2020: float | None
    per_fold: tuple[float | None, ...]


def evaluate_cv(preds: PredictionSet, d: Dataset, f: FoldAssignment) -> CvReport:
    """Score out-of-fold predictions against a dataset's labels. ``preds`` must name exactly the
    images of ``d`` (see :func:`~lesionbench.datamodel.aligned_rows`); producing them out of
    fold is the caller's responsibility."""
    scores = aligned_rows(preds, d, "predictions")
    labels = d.positive.astype(np.int64)
    folds = f.select(d.image_names, "fold assignment")

    cv_all = auc_or_none(scores, labels)
    cv_2020 = auc_or_none(scores[d.is_2020], labels[d.is_2020])
    per_fold = tuple(
        auc_or_none(scores[folds == k], labels[folds == k]) for k in range(f.k)
    )
    return CvReport(cv_all=cv_all, cv_2020=cv_2020, per_fold=per_fold)


@dataclass(frozen=True, eq=False)
class ScoreTable(KeyedTable):
    """Per-model scores on the four tracked metrics: the model ids, and a read-only (n, 4)
    float64 array of their scores in ``METRIC_NAMES`` order, each in [0, 1]."""

    model_ids: tuple[str, ...]
    values: np.ndarray

    key = "model"

    @staticmethod
    def _check(keys: tuple[str, ...], values: np.ndarray) -> None:
        if values.shape != (len(keys), len(METRIC_NAMES)):
            raise ShapeError(f"scores shape {values.shape} != ({len(keys)}, {len(METRIC_NAMES)})")
        require_unit_interval(values, keys, "model", METRIC_NAMES)


@dataclass(frozen=True)
class StabilityResult:
    """Sample standard deviation per metric, plus the induced ordering.

    ``ranking`` lists metric names from most stable (smallest std) to least.
    """

    stds: tuple[float, float, float, float]
    ranking: tuple[str, ...]


def stability(t: ScoreTable) -> StabilityResult:
    """Per-metric sample standard deviation ((n-1) denominator) and ranking."""
    if len(t.model_ids) < 2:
        raise DomainError("stability needs at least 2 rows")
    # Each column is summed in sorted order, so the result is bitwise
    # independent of row order.
    stds = tuple(float(np.std(np.sort(column), ddof=1)) for column in t.values.T)
    ranking = tuple(
        name for _, name in sorted(zip(stds, METRIC_NAMES), key=lambda p: p[0])
    )
    return StabilityResult(stds=stds, ranking=ranking)  # type: ignore[arg-type]


@dataclass(frozen=True)
class BootstrapResult:
    """Spread of AUC under resampling; ``n_skipped`` counts replicates that
    stayed single-class after bounded redraws."""

    std: float
    n_used: int
    n_skipped: int


def bootstrap_auc_std(s: LabeledScores, n_boot: int, seed: int) -> BootstrapResult:
    """Standard deviation of AUC over seeded full-size resamples.

    Each replicate ``i`` draws with replacement from its own generator keyed
    by ``(seed, i)``, so replicates are reproducible and order-independent.
    Single-class resamples are redrawn up to a bounded number of times, then
    skipped and counted.

    Every element gets a key once, before the draws. The K tie groups that
    hold a positive are numbered k = 0..K-1 in score order; an element of
    such a group gets 3k+1 if negative and 3k+2 if positive, and an element
    of any other group gets 3k, where k counts the positive-holding groups
    below it (3K above the last). One bincount of the drawn keys then gives
    each group's positive and negative draws, and the cumulative count at 3k
    less the positive draws of groups before k gives the negative draws
    below group k. A replicate costs an O(n) draw and an O(K) score, and its
    AUC equals a direct AUC of the resampled arrays: wins and ties are exact
    integer sums, and the one division is the same.
    """
    if n_boot < 100:
        raise DomainError(f"n_boot must be at least 100, got {n_boot}")
    labels = s.labels
    p = int(labels.sum())
    if p == 0 or p == labels.size:
        raise DomainError("AUC requires at least one positive and one negative")
    n = int(labels.size)
    seed64 = seed & MASK64

    order = np.argsort(s.scores, kind="stable")
    sorted_pos = labels[order]
    group, starts = _tie_groups(s.scores[order])
    has_pos = np.zeros(starts.size, dtype=np.int64)
    has_pos[group[sorted_pos == 1]] = 1
    group_key = 3 * (np.cumsum(has_pos) - has_pos) + has_pos
    key = np.empty(n, dtype=np.intp)
    key[order] = group_key[group] + sorted_pos
    n_keys = 3 * int(has_pos.sum()) + 1

    aucs = []
    n_skipped = 0
    for i in range(n_boot):
        rng = np.random.default_rng((seed64, i))
        value = None
        for _ in range(_MAX_REDRAWS + 1):
            idx = rng.integers(0, n, size=n)
            c = np.bincount(key[idx], minlength=n_keys)
            group_pos = c[2::3]
            total_pos = int(group_pos.sum())
            if not 0 < total_pos < n:
                continue
            neg_below = np.cumsum(c)[:-1:3] - (np.cumsum(group_pos) - group_pos)
            wins = int((group_pos * neg_below).sum())
            ties = int((group_pos * c[1::3]).sum())
            value = (2 * wins + ties) / (2 * total_pos * (n - total_pos))
            break
        if value is None:
            n_skipped += 1
        else:
            aucs.append(value)
    if len(aucs) < 2:
        raise DomainError(
            f"all but {len(aucs)} resamples were single-class; cannot estimate spread"
        )
    return BootstrapResult(
        std=float(np.std(aucs, ddof=1)), n_used=len(aucs), n_skipped=n_skipped
    )


def parse_score_table(text: str) -> ScoreTable:
    """Parse a score CSV with header ``model,cv_all,cv_2020,private_lb,public_lb``."""
    header, blocks = csv_blocks(text, "score")
    if header != ["model", *METRIC_NAMES]:
        raise FormatError(f"unrecognized score header: {','.join(header)!r}")
    return ScoreTable(*csv_keyed(header, blocks))


def write_score_table(t: ScoreTable) -> str:
    return csv_text(["model", *METRIC_NAMES], float_rows(t.model_ids, t.values))


def load_reference_scores() -> ScoreTable:
    """The 18-model reference score table shipped with the package."""
    text = (
        resources.files("lesionbench")
        .joinpath(f"data/{REFERENCE_SCORES_RESOURCE}")
        .read_text(encoding="utf-8")
    )
    return parse_score_table(text)
