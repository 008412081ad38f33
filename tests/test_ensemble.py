import re

import numpy as np
import pytest

from lesionbench.datamodel import PredictionSet
from lesionbench.ensemble import rank_average, rank_transform
from lesionbench.errors import CoverageError, DomainError
from lesionbench.metrics import LabeledScores, auc


def test_rank_transform_distinct_values():
    assert np.array_equal(rank_transform([0.9, 0.1, 0.5]), [1.0, 0.0, 0.5])


def test_rank_transform_tie_pair():
    assert np.array_equal(rank_transform([0.2, 0.2]), [0.5, 0.5])


def test_rank_transform_hand_computed_ties():
    # ranks (3, 1.5, 4, 1.5, 5) then (r-1)/4
    assert np.array_equal(
        rank_transform([3, 1, 4, 1, 5]), [0.5, 0.125, 0.75, 0.125, 1.0]
    )


def test_rank_transform_singleton():
    assert np.array_equal(rank_transform([0.3]), [0.5])


def test_rank_transform_grid_for_distinct_inputs():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 50))
        scores = rng.permutation(n).astype(float)
        out = rank_transform(scores)
        assert set(out.tolist()) == {i / (n - 1) for i in range(n)}


def test_rank_transform_rejects_non_finite():
    with pytest.raises(DomainError, match="index 1"):
        rank_transform([0.1, np.nan, 0.3])
    with pytest.raises(DomainError):
        rank_transform([])


def test_rank_transform_idempotent():
    rng = np.random.default_rng(6)
    for _ in range(20):
        scores = rng.integers(0, 10, size=int(rng.integers(1, 40))).astype(float)
        once = rank_transform(scores)
        assert np.array_equal(rank_transform(once), once)


def test_rank_transform_preserves_auc_exactly():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(4, 100))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 0
            labels[-1] = 1
        scores = rng.integers(0, 12, size=n).astype(float)
        before = auc(LabeledScores(scores, labels))
        after = auc(LabeledScores(rank_transform(scores), labels))
        assert before == after


def test_rank_average_single_model_is_rank_transform():
    p = PredictionSet.from_scores(["x", "y", "z"], [0.9, 0.1, 0.5])
    out = rank_average([p])
    assert out.image_names == ("x", "y", "z")
    assert np.array_equal(out.scores, rank_transform([0.9, 0.1, 0.5]))


def test_rank_average_hand_composed():
    a = PredictionSet.from_scores(["x", "y", "z"], [0.9, 0.1, 0.5])
    b = PredictionSet.from_scores(["x", "y", "z"], [0.2, 0.3, 0.1])
    out = rank_average([a, b])
    assert np.array_equal(out.scores, [0.75, 0.5, 0.25])


def test_rank_average_aligns_by_image_name():
    a = PredictionSet.from_scores(["x", "y", "z"], [0.9, 0.1, 0.5])
    b = PredictionSet.from_scores(["z", "x", "y"], [0.1, 0.2, 0.3])
    out = rank_average([a, b])
    assert out.image_names == ("x", "y", "z")
    # b ranks: x -> 0.5, y -> 1.0, z -> 0.0
    assert np.array_equal(out.scores, [(1.0 + 0.5) / 2, (0.0 + 1.0) / 2, (0.5 + 0.0) / 2])


def test_rank_average_invariant_under_monotone_rescaling():
    rng = np.random.default_rng(13)
    names = tuple(f"I{i}" for i in range(60))
    raw = [rng.integers(-30, 30, size=60).astype(float) for _ in range(3)]
    base = rank_average([PredictionSet.from_scores(names, _unit(s)) for s in raw])
    rescaled = [
        _unit(3.0 * raw[0] + 7.0),
        _unit(raw[1] ** 3),
        _unit(5.0 * raw[2]),
    ]
    out = rank_average([PredictionSet.from_scores(names, s) for s in rescaled])
    assert np.array_equal(base.scores, out.scores)


def _unit(x: np.ndarray) -> np.ndarray:
    lo, hi = x.min(), x.max()
    if hi == lo:
        return np.full_like(x, 0.5)
    return (x - lo) / (hi - lo)


def test_rank_average_symmetric_in_model_order():
    rng = np.random.default_rng(14)
    names = tuple(f"I{i}" for i in range(40))
    models = [
        PredictionSet.from_scores(names, rng.random(40)) for _ in range(4)
    ]
    base = rank_average(models)
    for perm in ([3, 1, 0, 2], [1, 0, 3, 2], [2, 3, 1, 0]):
        out = rank_average([models[i] for i in perm])
        assert np.array_equal(base.scores, out.scores)


def test_rank_average_output_in_unit_interval():
    rng = np.random.default_rng(15)
    names = tuple(f"I{i}" for i in range(30))
    models = [PredictionSet.from_scores(names, rng.random(30)) for _ in range(5)]
    out = rank_average(models)
    assert out.scores.min() >= 0.0
    assert out.scores.max() <= 1.0


def test_rank_average_image_set_mismatch():
    a = PredictionSet.from_scores(["x", "y"], [0.1, 0.2])
    b = PredictionSet.from_scores(["x", "q"], [0.1, 0.2])
    with pytest.raises(CoverageError, match=r"^model 1 missing 1 image\(s\), first: 'y'$"):
        rank_average([a, b])


def test_rank_average_mismatch_messages_name_the_member():
    a = PredictionSet.from_scores(["x", "y", "z"], [0.1, 0.2, 0.3])
    short = PredictionSet.from_scores(["x", "y"], [0.1, 0.2])
    foreign = PredictionSet.from_scores(["q", "y", "r"], [0.1, 0.2, 0.3])
    with pytest.raises(CoverageError, match=r"^model 2 has 2 image\(s\), model 0 has 3$"):
        rank_average([a, a, short])
    with pytest.raises(CoverageError, match=re.escape(
            "model 1 missing 2 image(s), first: 'x'")):
        rank_average([a, foreign])


def test_rank_average_needs_models():
    with pytest.raises(DomainError):
        rank_average([])
