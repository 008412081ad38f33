import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lesionbench.datamodel import PredictionSet
from lesionbench.errors import CoverageError, DomainError, FormatError, RangeError
from lesionbench.metrics import (
    BootstrapResult,
    LabeledScores,
    ScoreTable,
    auc,
    auc_or_none,
    average_ranks,
    bootstrap_auc_std,
    evaluate_cv,
    load_reference_scores,
    parse_score_table,
    stability,
    write_score_table,
)
from util import (
    auc_pair_counting,
    make_dataset,
    make_folds,
    make_record,
    reference_bootstrap_auc_std,
)


def labeled(scores, labels) -> LabeledScores:
    return LabeledScores(np.asarray(scores, float), np.asarray(labels))


def test_auc_pair_counting_example():
    s = labeled([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    # pairs: (0.35,0.1) win, (0.35,0.4) loss, (0.8,0.1) win, (0.8,0.4) win
    assert auc(s) == 0.75
    assert auc_pair_counting([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auc_perfect_separation():
    assert auc(labeled([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])) == 1.0


def test_auc_all_ties():
    assert auc(labeled([0.5] * 6, [0, 1, 0, 1, 0, 1])) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(DomainError):
        auc(labeled([0.1, 0.2], [1, 1]))
    with pytest.raises(DomainError):
        auc(labeled([0.1, 0.2], [0, 0]))


def test_labeled_scores_validation():
    with pytest.raises(DomainError):
        labeled([0.1, np.nan], [0, 1])
    with pytest.raises(DomainError):
        labeled([0.1, 0.2], [0, 2])


def test_auc_matches_oracle_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 120))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 0
            labels[-1] = 1
        # coarse grid forces plenty of ties
        scores = rng.integers(0, 6, size=n) / 5.0
        assert auc(labeled(scores, labels)) == auc_pair_counting(scores, labels)


def test_auc_label_flip_complement():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(4, 60))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 0
            labels[-1] = 1
        scores = rng.normal(size=n).round(1)
        a = auc(labeled(scores, labels))
        b = auc(labeled(scores, 1 - labels))
        assert abs(a + b - 1.0) <= 1e-12


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(4, 80))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 0
            labels[-1] = 1
        scores = rng.integers(-40, 40, size=n).astype(float)
        a = int(rng.integers(1, 9))
        b = int(rng.integers(-20, 20))
        assert auc(labeled(a * scores + b, labels)) == auc(labeled(scores, labels))
        assert auc(labeled(scores**3, labels)) == auc(labeled(scores, labels))


def test_average_ranks_ties():
    assert np.array_equal(average_ranks([3, 1, 4, 1, 5]), [3.0, 1.5, 4.0, 1.5, 5.0])


def _cv_fixture():
    records = [
        make_record("A", patient_id="PA", malignant=True, year=2020),
        make_record("B", patient_id="PB", malignant=False, year=2020),
        make_record("C", patient_id="PC", malignant=True, year=2019),
        make_record("D", patient_id="PD", malignant=False, year=2019),
    ]
    d = make_dataset(records)
    f = make_folds({"A": 0, "B": 0, "C": 1, "D": 1}, k=2)
    preds = PredictionSet.from_scores(["A", "B", "C", "D"], [0.9, 0.1, 0.5, 0.5])
    return d, f, preds


def test_evaluate_cv_per_fold_values():
    d, f, preds = _cv_fixture()
    report = evaluate_cv(preds, d, f)
    assert report.per_fold == (1.0, 0.5)
    expected_all = auc_pair_counting([0.9, 0.1, 0.5, 0.5], [1, 0, 1, 0])
    assert report.cv_all == expected_all
    assert report.cv_2020 == 1.0


def test_evaluate_cv_all_2020_equals_cv_all():
    records = [
        make_record("A", patient_id="PA", malignant=True, year=2020),
        make_record("B", patient_id="PB", malignant=False, year=2020),
    ]
    d = make_dataset(records)
    f = make_folds({"A": 0, "B": 1}, k=2)
    preds = PredictionSet.from_scores(["A", "B"], [0.7, 0.2])
    report = evaluate_cv(preds, d, f)
    assert report.cv_all == report.cv_2020 == 1.0
    # single-image folds have one class each: undefined
    assert report.per_fold == (None, None)


def test_evaluate_cv_degenerate_2020_subset():
    records = [
        make_record("A", patient_id="PA", malignant=False, year=2020),
        make_record("C", patient_id="PC", malignant=True, year=2019),
        make_record("D", patient_id="PD", malignant=False, year=2019),
    ]
    d = make_dataset(records)
    f = make_folds({"A": 0, "C": 1, "D": 1}, k=2)
    preds = PredictionSet.from_scores(["A", "C", "D"], [0.1, 0.8, 0.3])
    report = evaluate_cv(preds, d, f)
    assert report.cv_2020 is None
    assert report.cv_all is not None


def test_evaluate_cv_missing_prediction_named():
    d, f, _ = _cv_fixture()
    preds = PredictionSet.from_scores(["A", "B", "C"], [0.9, 0.1, 0.5])
    with pytest.raises(CoverageError, match="'D'"):
        evaluate_cv(preds, d, f)


def test_auc_or_none():
    assert auc_or_none([], []) is None
    assert auc_or_none([0.1, 0.2], [1, 1]) is None
    assert auc_or_none([0.1, 0.9], [0, 1]) == 1.0


def test_stability_reference_table():
    result = stability(load_reference_scores())
    expected = (0.0012, 0.0043, 0.0060, 0.0093)
    for got, want in zip(result.stds, expected):
        assert abs(got - want) <= 0.0002
    assert result.ranking == ("cv_all", "cv_2020", "private_lb", "public_lb")


def test_stability_identical_rows_zero():
    table = ScoreTable(("a", "b"), [[0.9, 0.8, 0.7, 0.6], [0.9, 0.8, 0.7, 0.6]])
    assert stability(table).stds == (0.0, 0.0, 0.0, 0.0)


def test_stability_two_point_std():
    stds = stability(ScoreTable(("a", "b"), [[0.9, 0.5, 0.5, 0.5], [1.0, 0.5, 0.5, 0.5]])).stds
    assert stds[0] == pytest.approx(0.0707107, abs=1e-7)
    assert stds[1:] == (0.0, 0.0, 0.0)


def test_stability_needs_two_rows():
    with pytest.raises(DomainError):
        stability(ScoreTable(("a",), [[0.9, 0.8, 0.7, 0.6]]))


def test_stability_permutation_invariant():
    table = load_reference_scores()
    reversed_table = ScoreTable(table.model_ids[::-1], table.values[::-1])
    assert stability(table).stds == stability(reversed_table).stds


def test_score_table_round_trip_and_validation():
    table = load_reference_scores()
    assert parse_score_table(write_score_table(table)) == table
    whole = ScoreTable(("m0", "m1"), [[0.0, 1.0, 0.5, 0.25], [1.0, 0.0, 0.0, 0.875]])
    text = write_score_table(whole)
    assert text.splitlines()[1:] == ["m0,0,1,0.5,0.25", "m1,1,0,0,0.875"]
    assert parse_score_table(text) == whole
    with pytest.raises(FormatError):
        parse_score_table("model,a,b\nx,0.1,0.2\n")
    with pytest.raises(RangeError):
        parse_score_table(
            "model,cv_all,cv_2020,private_lb,public_lb\nx,1.2,0.5,0.5,0.5\n"
        )


def test_bootstrap_constant_scores_zero_std():
    s = labeled([0.5] * 40, [0, 1] * 20)
    result = bootstrap_auc_std(s, n_boot=100, seed=1)
    assert isinstance(result, BootstrapResult)
    assert result.std == 0.0
    assert result.n_used + result.n_skipped == 100


def test_bootstrap_requires_100_replicates():
    s = labeled([0.1, 0.9], [0, 1])
    with pytest.raises(DomainError):
        bootstrap_auc_std(s, n_boot=99, seed=1)


def test_bootstrap_single_class_rejected():
    with pytest.raises(DomainError):
        bootstrap_auc_std(labeled([0.1, 0.9], [1, 1]), n_boot=100, seed=1)


def test_bootstrap_reproducible():
    rng = np.random.default_rng(31)
    scores = rng.random(200)
    labels = (rng.random(200) < 0.3).astype(int)
    s = labeled(scores, labels)
    a = bootstrap_auc_std(s, n_boot=100, seed=99)
    b = bootstrap_auc_std(s, n_boot=100, seed=99)
    assert a == b
    c = bootstrap_auc_std(s, n_boot=100, seed=100)
    assert c.std != a.std


def _bootstrap_outcome(f, s, n_boot, seed):
    try:
        return f(s, n_boot, seed)
    except DomainError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bootstrap_equals_a_direct_auc_of_each_resample(data):
    n = data.draw(st.integers(2, 30), label="n")
    top = data.draw(st.integers(0, 4), label="distinct scores - 1")  # 0: all equal
    scores = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n), label="scores")
    few = data.draw(st.booleans(), label="1-3 positives")
    p = data.draw(st.integers(1, min(3, n - 1) if few else n - 1), label="positives")
    positives = data.draw(st.permutations(range(n)), label="order")[:p]
    labels = np.zeros(n, dtype=np.int64)
    labels[positives] = 1
    s = labeled(np.asarray(scores) / 4.0, labels)
    n_boot = data.draw(st.sampled_from([100, 101, 157]), label="n_boot")
    seed = data.draw(st.integers(-(2**70), 2**70), label="seed")
    assert _bootstrap_outcome(bootstrap_auc_std, s, n_boot, seed) == _bootstrap_outcome(
        reference_bootstrap_auc_std, s, n_boot, seed
    )


def test_bootstrap_skips_match_the_direct_oracle():
    # Two elements: each draw is single-class with probability 1/2, so 11 in a
    # row happen about once in 2,000 replicates.
    s = labeled([0.3, 0.7], [1, 0])
    result = bootstrap_auc_std(s, n_boot=5000, seed=3)
    assert result.n_skipped > 0
    assert result == reference_bootstrap_auc_std(s, 5000, 3)


def test_bootstrap_std_of_a_fixed_33k_input_is_pinned():
    # The first low-rate trial of acceptance criterion 8. The std was recorded
    # from the per-tie-group kernel that the keyed bincount replaced.
    n = 33000
    rng = np.random.default_rng((8080, 0))
    labels = np.zeros(n, dtype=np.int64)
    labels[: round(n * 0.0176)] = 1
    scores = np.where(labels == 1, rng.normal(1.0, 1.0, n), rng.normal(0.0, 1.0, n))
    result = bootstrap_auc_std(LabeledScores(scores, labels), 100, seed=0)
    assert result == BootstrapResult(std=0.010081733671033667, n_used=100, n_skipped=0)
