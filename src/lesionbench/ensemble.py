"""Rank-average ensembling.

Each model's scores are replaced by their normalized ranks before averaging,
which discards calibration differences between models: any strictly
increasing rescaling of a member's scores leaves the ensemble output
bit-identical.
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
    first model's image order. The reduction sorts each image's contributions
    before summing, so the result is bitwise independent of model order.
    """
    if not models:
        raise DomainError("rank_average needs at least one model")

    base = models[0]
    base_set = set(base.image_names)
    for i, m in enumerate(models[1:], start=1):
        other = set(m.image_names)
        if other != base_set:
            diff = sorted(base_set.symmetric_difference(other))
            shown = ", ".join(diff[:10])
            raise CoverageError(
                f"model {i} covers a different image set "
                f"({len(diff)} mismatched, first: {shown})"
            )

    aligned = np.empty((len(models), len(base)), dtype=np.float64)
    for i, m in enumerate(models):
        ranked = rank_transform(m.scores)
        pos = {name: j for j, name in enumerate(m.image_names)}
        idx = np.array([pos[name] for name in base.image_names])
        aligned[i] = ranked[idx]

    # Canonical summation order makes the mean symmetric in its arguments.
    aligned.sort(axis=0)
    means = np.add.reduce(aligned, axis=0) / len(models)
    return PredictionSet.from_scores(base.image_names, means)
