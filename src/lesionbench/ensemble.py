"""Rank-average ensembling.

Each model's scores are replaced by their normalized ranks before averaging,
which discards calibration differences between models: any strictly
increasing rescaling of a member's scores leaves the ensemble output
bit-identical. Members are aligned by image name, never by row: each member's
rows are taken in the first member's order through ``KeyedTable.select``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .datamodel import PredictionSet
from .errors import CoverageError, DomainError
from .metrics import average_ranks


def rank_transform(scores: Sequence[float] | np.ndarray) -> np.ndarray:
    """Map scores to uniform [0, 1] by normalized average rank.

    Rank r in [1, n] (ties get their group's average) maps to
    ``(r - 1) / (n - 1)``; a single score maps to 0.5. Preserves order and
    ties exactly, so AUC is invariant under this transform.
    """
    x = np.asarray(scores, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("rank_transform needs a non-empty 1-D score vector")
    finite = np.isfinite(x)
    if not bool(np.all(finite)):
        raise DomainError(
            f"non-finite score at index {int(np.flatnonzero(~finite)[0])}"
        )
    n = x.size
    if n == 1:
        return np.array([0.5])
    return (average_ranks(x) - 1.0) / (n - 1.0)


def rank_average(models: Sequence[PredictionSet]) -> PredictionSet:
    """Per-image mean of each model's rank-transformed scores.

    All models must cover the identical image set; the output follows the
    first model's image order. A member of another length raises CoverageError
    ``model i has N image(s), model 0 has M``; one that lacks an image of
    model 0, ``model i missing N image(s), first: 'X'``. The
    reduction sorts each image's contributions before summing, so the result
    is bitwise independent of model order.
    """
    if not models:
        raise DomainError("rank_average needs at least one model")

    base = models[0]
    aligned = np.empty((len(models), len(base)), dtype=np.float64)
    for i, m in enumerate(models):
        if len(m) != len(base):
            raise CoverageError(f"model {i} has {len(m)} image(s), model 0 has {len(base)}")
        # Names are unique, so finding model 0's n names among model i's n means the same set.
        aligned[i] = rank_transform(m.select(base.image_names, f"model {i}"))

    # Canonical summation order makes the mean symmetric in its arguments.
    aligned.sort(axis=0)
    means = np.add.reduce(aligned, axis=0) / len(models)
    return PredictionSet.from_scores(base.image_names, means)
