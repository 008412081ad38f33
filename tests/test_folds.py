import collections

import numpy as np
import pytest

from lesionbench.errors import CoverageError, DomainError, FormatError, RangeError, UniquenessError
from lesionbench.folds import (
    FoldAssignment,
    assign_folds,
    check_folds,
    fold_ratio_report,
    read_folds_csv,
    write_folds_csv,
)
from lesionbench.targets import TargetScheme, map_diagnosis
from util import make_dataset, make_folds, make_record

DIAGNOSES = ["nevus", "melanoma", "BCC", "BKL", "AK", "SCC", "VASC", "DF", None]


def random_dataset(rng, n_patients=None, singleton=False):
    n_patients = n_patients or int(rng.integers(5, 40))
    records = []
    for p in range(n_patients):
        n_images = 1 if singleton else int(rng.integers(1, 5))
        diag = DIAGNOSES[rng.integers(len(DIAGNOSES))]
        for i in range(n_images):
            if not singleton:
                diag = DIAGNOSES[rng.integers(len(DIAGNOSES))]
            records.append(
                make_record(
                    f"P{p}_I{i}",
                    patient_id=f"P{p}",
                    diagnosis=diag,
                    malignant=diag == "melanoma",
                )
            )
    return make_dataset(records)


def test_single_patient_lands_in_one_fold():
    d = make_dataset([make_record(f"I{i}", patient_id="P1") for i in range(5)])
    f = assign_folds(d, k=5, seed=42)
    folds_used = set(f.select(d.image_names, "folds").tolist())
    assert len(folds_used) == 1


def test_k_below_two_rejected():
    d = make_dataset([make_record("I1")])
    with pytest.raises(DomainError):
        assign_folds(d, k=1, seed=42)
    with pytest.raises(DomainError):
        assign_folds(d, k=0, seed=42)


def test_fold_count_bounded_by_image_count():
    d = make_dataset([make_record(f"I{i}", patient_id=f"P{i}") for i in range(3)])
    assert assign_folds(d, k=3, seed=42).k == 3
    with pytest.raises(DomainError, match="^fold count 4 exceeds the image count 3$"):
        assign_folds(d, k=4, seed=42)
    check_folds(d, make_folds({"I0": 0, "I1": 1, "I2": 2}, k=3))
    with pytest.raises(DomainError, match="^fold count 4 exceeds the image count 3$"):
        check_folds(d, make_folds({"I0": 0, "I1": 1, "I2": 3}, k=4))


def test_empty_dataset_rejected():
    with pytest.raises(DomainError):
        assign_folds(make_dataset([]), k=2, seed=42)


def test_ten_singleton_patients_balanced_classes():
    # 5 nevus patients + 5 melanoma patients, k=5: the greedy loader must
    # hand each fold exactly one patient of each class.
    records = [
        make_record(f"N{i}", patient_id=f"PN{i}", diagnosis="nevus") for i in range(5)
    ] + [
        make_record(f"M{i}", patient_id=f"PM{i}", diagnosis="melanoma", malignant=True)
        for i in range(5)
    ]
    d = make_dataset(records)
    f = assign_folds(d, k=5, seed=42)
    per_fold = collections.Counter(f.folds.tolist())
    assert all(per_fold[k] == 2 for k in range(5))
    fold_of = dict(zip(f.image_names, f.folds.tolist()))
    for k in range(5):
        classes = {
            d.records[i].diagnosis
            for i, r in enumerate(d.records)
            if fold_of[r.image_name] == k
        }
        assert classes == {"nevus", "melanoma"}


def test_partition_and_grouping_properties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = random_dataset(rng)
        k = int(rng.integers(2, 6))
        f = assign_folds(d, k=k, seed=int(rng.integers(0, 2**32)))
        # partition: every image exactly once, folds within range
        assert len(f) == len(d) and set(f.image_names) == set(d.image_names)
        assert all(0 <= v < k for v in f.folds.tolist())
        # grouping: one fold per patient
        fold_of = dict(zip(f.image_names, f.folds.tolist()))
        for pid, positions in d.by_patient.items():
            folds = {fold_of[d.records[i].image_name] for i in positions}
            assert len(folds) == 1, pid


def test_stratification_spread_on_singleton_patients():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = random_dataset(rng, singleton=True)
        k = int(rng.integers(2, 6))
        f = assign_folds(d, k=k, seed=int(rng.integers(0, 2**32)))
        counts = np.zeros((k, 9), dtype=int)
        fold_of = dict(zip(f.image_names, f.folds.tolist()))
        for r in d.records:
            cls = map_diagnosis(r.diagnosis, TargetScheme.NINE_CLASS).value
            counts[fold_of[r.image_name], cls] += 1
        for cls in range(9):
            col = counts[:, cls]
            assert col.max() - col.min() <= 1


def test_deterministic_for_fixed_inputs():
    rng = np.random.default_rng(2)
    d = random_dataset(rng)
    a = assign_folds(d, k=4, seed=123)
    b = assign_folds(d, k=4, seed=123)
    assert a == b
    assert a.k == b.k == 4


def test_seed_varies_assignment():
    d = make_dataset(
        [make_record(f"I{i}", patient_id=f"P{i}", diagnosis="nevus") for i in range(10)]
    )
    assignments = {
        tuple(assign_folds(d, k=5, seed=s).folds.tolist())  # rows in dataset order for every seed
        for s in range(10)
    }
    assert len(assignments) > 1


def test_ratio_report_perfect_stratification():
    records = [
        make_record(f"N{i}", patient_id=f"PN{i}", diagnosis="nevus") for i in range(98)
    ] + [
        make_record(f"M{i}", patient_id=f"PM{i}", diagnosis="melanoma", malignant=True)
        for i in range(2)
    ]
    d = make_dataset(records)
    f = assign_folds(d, k=2, seed=0)
    report = fold_ratio_report(d, f)
    assert [s.size for s in report.per_fold] == [50, 50]
    assert [s.positives for s in report.per_fold] == [1, 1]
    assert all(s.positive_ratio == 0.02 for s in report.per_fold)
    assert report.total.positive_ratio == 0.02


def test_ratio_report_all_negative():
    d = make_dataset(
        [make_record(f"I{i}", patient_id=f"P{i}") for i in range(10)]
    )
    f = assign_folds(d, k=2, seed=0)
    report = fold_ratio_report(d, f)
    assert all(s.positive_ratio == 0.0 for s in report.per_fold)


def test_ratio_report_uncovered_image_named():
    d = make_dataset([make_record("I1"), make_record("I2", patient_id="P2")])
    f = make_folds({"I1": 0}, k=2)
    with pytest.raises(CoverageError, match="I2"):
        fold_ratio_report(d, f)


def test_folds_csv_round_trip_and_determinism():
    rng = np.random.default_rng(3)
    d = random_dataset(rng)
    f = assign_folds(d, k=3, seed=7)
    text1 = write_folds_csv(d, f)
    text2 = write_folds_csv(d, assign_folds(d, k=3, seed=7))
    assert text1 == text2
    assert text1.splitlines()[0] == "image_name,fold"
    back = read_folds_csv(text1)
    assert back == f
    assert back.k == f.k


def test_read_folds_csv_errors():
    with pytest.raises(FormatError):
        read_folds_csv("image,fold\nI1,0\n")
    with pytest.raises(UniquenessError):
        read_folds_csv("image_name,fold\nI1,0\nI1,1\n")
    with pytest.raises(FormatError):
        read_folds_csv("image_name,fold\nI1,x\n")
    with pytest.raises(RangeError, match=rf"^row 2: fold -1 outside \[0, {2**63 - 1}\]$"):
        read_folds_csv("image_name,fold\nI1,0\nD,-1\n")
    # Folds are held as int64: a larger cell is named by its row, not an OverflowError.
    with pytest.raises(RangeError, match=rf"^row 2: fold {2**63} outside \[0, {2**63 - 1}\]$"):
        read_folds_csv(f"image_name,fold\nI1,0\nD,{2**63}\n")
    assert read_folds_csv(f"image_name,fold\nD,{2**63 - 1}\n").k == 2**63


def test_fold_ids_outside_zero_to_k_minus_one_rejected():
    # An image whose fold is not in range(k) would never be scored out of fold: ``train`` would
    # leave its OOF score unwritten and ``evaluate_cv`` would score it anyway.
    d = random_dataset(np.random.default_rng(0), n_patients=12, singleton=True)
    names = d.image_names
    with pytest.raises(DomainError, match=rf"image '{names[3]}' has fold 5, outside 0\.\.1 for k=2"):
        make_folds({n: 5 if i == 3 else i % 2 for i, n in enumerate(names)}, k=2)
    with pytest.raises(DomainError, match=rf"image '{names[1]}' has fold -1, outside 0\.\.1"):
        make_folds({n: -1 if i % 2 else 0 for i, n in enumerate(names)}, k=2)
    with pytest.raises(DomainError, match="fold count must be at least 1, got 0"):
        make_folds({}, k=0)
    assert len(make_folds({n: 0 for n in names}, k=1)) == len(names)


def test_assignment_cannot_change_after_its_range_check():
    given = np.array([0, 1])
    f = FoldAssignment(["a", "b"], given, 2)
    with pytest.raises(ValueError):
        f.folds[1] = 7
    given[1] = 7
    assert f.select(["a", "b"], "folds").tolist() == [0, 1]
    assert f.image_names == ("a", "b") and f.folds.dtype == np.int64
    assert f == make_folds({"a": 0, "b": 1}, k=2)
    assert f != make_folds({"b": 1, "a": 0}, k=2) != make_folds({"a": 0, "b": 1}, k=3)
