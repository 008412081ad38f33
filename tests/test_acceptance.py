"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its runtime. Every tolerance is asserted exactly as stated;
each test also enforces its runtime budget.
"""

import time

import numpy as np

from lesionbench.cli import main
from lesionbench.datamodel import (
    PredictionSet,
    parse_predictions_csv,
    validate_consistency,
    write_metadata_csv,
)
from lesionbench.ensemble import rank_average
from lesionbench.features import FeatureTable, write_feature_csv
from lesionbench.folds import assign_folds, write_folds_csv
from lesionbench.fusion import backward, lr_schedule
from lesionbench.metrics import (
    LabeledScores,
    auc,
    bootstrap_auc_std,
    evaluate_cv,
    load_reference_scores,
    stability,
)
from lesionbench.targets import DiagnosisClass, TargetScheme, map_diagnosis
from util import (
    auc_pair_counting,
    gradient_rel_error,
    make_dataset,
    make_record,
    numeric_gradients,
    random_fusion_instance,
)


def _report(num: int, started: float, detail: str) -> float:
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {num}: PASS ({elapsed:.2f}s) {detail}")
    return elapsed


def test_criterion_1_stability_reproduction():
    started = time.perf_counter()
    result = stability(load_reference_scores())
    expected = (0.0012, 0.0043, 0.0060, 0.0093)
    for got, want in zip(result.stds, expected):
        assert abs(got - want) <= 0.0002, (got, want)
    assert result.ranking == ("cv_all", "cv_2020", "private_lb", "public_lb")
    elapsed = _report(1, started, f"stds={tuple(round(s, 6) for s in result.stds)}")
    assert elapsed < 1.0


def test_criterion_2_auc_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 0
            labels[-1] = 1
        # coarse grids force ties; every third trial duplicates a value outright
        grid = int(rng.integers(2, max(3, n // 2)))
        scores = rng.integers(0, grid, size=n).astype(float) / grid
        if n >= 2 and trial % 3 == 0:
            i, j = rng.integers(0, n, size=2)
            scores[i] = scores[j]
        fast = auc(LabeledScores(scores, labels))
        brute = auc_pair_counting(scores, labels)
        assert fast == brute, (trial, fast, brute)
    elapsed = _report(2, started, "1000 instances, exact equality")
    assert elapsed < 10.0


def test_criterion_3_rank_invariance_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(303)

    # AUC exactly invariant under strictly increasing transforms
    for _ in range(200):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 0
            labels[-1] = 1
        scores = rng.integers(-50, 51, size=n).astype(float)
        a = float(rng.integers(1, 9))
        b = float(rng.integers(-20, 21))
        c = float(rng.integers(1, 6))
        transforms = [
            lambda x: a * x + b,
            lambda x: x**3,
            lambda x: x**3 + c * x,
        ]
        transform = transforms[int(rng.integers(3))]
        base = auc(LabeledScores(scores, labels))
        assert auc(LabeledScores(transform(scores), labels)) == base

    # rank_average bitwise invariant to per-model monotone rescaling
    unit_transforms = [
        lambda x: x / 2.0 + 0.25,
        lambda x: x * x,
        lambda x: x * x * x,
        lambda x: (x * x + x) / 2.0,
    ]
    for _ in range(50):
        n = int(rng.integers(2, 120))
        names = tuple(f"I{i}" for i in range(n))
        n_models = int(rng.integers(1, 5))
        raw = [rng.integers(0, 65, size=n) / 64.0 for _ in range(n_models)]
        base = rank_average([PredictionSet.from_scores(names, s) for s in raw])
        rescaled = [
            unit_transforms[int(rng.integers(len(unit_transforms)))](s) for s in raw
        ]
        out = rank_average([PredictionSet.from_scores(names, s) for s in rescaled])
        assert np.array_equal(base.scores, out.scores)
        assert base.scores.tobytes() == out.scores.tobytes()
    _report(3, started, "200 AUC transforms + 50 ensemble rescalings")


def test_criterion_4_gradient_check():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        model, x_meta, x_cnn, targets = random_fusion_instance(rng)
        analytic = backward(model, x_meta, x_cnn, targets)
        numeric = numeric_gradients(model, x_meta, x_cnn, targets, eps=1e-5)
        worst = max(worst, gradient_rel_error(analytic, numeric))
    assert worst < 1e-6, worst
    elapsed = _report(4, started, f"100 instances, max rel err {worst:.2e}")
    assert elapsed < 30.0


def test_criterion_5_schedule_conformance():
    started = time.perf_counter()
    assert lr_schedule(0, 15, 3e-4) == 3e-5
    assert lr_schedule(1, 15, 3e-4) == 3e-4
    assert lr_schedule(1, 15, 1.7e-4) == 1.7e-4
    assert lr_schedule(14, 15, 3e-4) == 0.0
    assert lr_schedule(14, 15, 2.2e-4) == 0.0
    _report(5, started, "warm-up tenth, peak, and zero endpoints exact")


def test_criterion_6_mapping_conformance():
    started = time.perf_counter()
    table = {
        "NV": DiagnosisClass.NV,
        "nevus": DiagnosisClass.NV,
        "MEL": DiagnosisClass.MEL,
        "melanoma": DiagnosisClass.MEL,
        "BCC": DiagnosisClass.BCC,
        "BKL": DiagnosisClass.BKL,
        "seborrheic keratosis": DiagnosisClass.BKL,
        "lichenoid keratosis": DiagnosisClass.BKL,
        "solar lentigo": DiagnosisClass.BKL,
        "lentigo NOS": DiagnosisClass.BKL,
        "AK": DiagnosisClass.AK,
        "SCC": DiagnosisClass.SCC,
        "VASC": DiagnosisClass.VASC,
        "DF": DiagnosisClass.DF,
        "cafe-au-lait macule": DiagnosisClass.Unknown,
        "atypical melanocytic proliferation": DiagnosisClass.Unknown,
    }
    for raw, expected in table.items():
        assert map_diagnosis(raw, TargetScheme.NINE_CLASS) is expected, raw
    for starred in ("BCC", "AK", "SCC", "VASC", "DF"):
        assert map_diagnosis(starred, TargetScheme.FOUR_CLASS) is DiagnosisClass.Unknown

    # consistency check flags exactly the constructed violations
    records = [
        make_record("V1", patient_id="A", diagnosis="melanoma", malignant=False),
        make_record("V2", patient_id="B", diagnosis="nevus", malignant=True),
        make_record("V3", patient_id="C", diagnosis="MEL", malignant=False),
        make_record("O1", patient_id="D", diagnosis="melanoma", malignant=True),
        make_record("O2", patient_id="E", diagnosis="nevus", malignant=False),
        make_record("O3", patient_id="F", diagnosis="BKL", malignant=False),
        make_record("O4", patient_id="G", diagnosis=None, malignant=True),
    ]
    report = validate_consistency(make_dataset(records))
    flagged = {issue.image_name for issue in report.errors}
    assert flagged == {"V1", "V2", "V3"}
    _report(6, started, "16 spellings, starred collapse, exact violation set")


def test_criterion_7_fold_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    diagnoses = ["nevus", "melanoma", "BCC", "BKL", "AK", "SCC", "VASC", "DF", None]
    for trial in range(1000):
        singleton = trial % 2 == 0
        n_patients = int(rng.integers(4, 25))
        records = []
        for p in range(n_patients):
            n_images = 1 if singleton else int(rng.integers(1, 4))
            for i in range(n_images):
                diag = diagnoses[rng.integers(len(diagnoses))]
                records.append(
                    make_record(
                        f"P{p}_I{i}",
                        patient_id=f"P{p}",
                        diagnosis=diag,
                        malignant=diag == "melanoma",
                    )
                )
        d = make_dataset(records)
        k = int(rng.integers(2, 5))
        seed = int(rng.integers(0, 2**63))
        f = assign_folds(d, k, seed)

        assert len(f) == len(d) and set(f.image_names) == set(d.image_names)
        assert all(0 <= v < k for v in f.folds.tolist())
        fold_of = dict(zip(f.image_names, f.folds.tolist()))
        for pid, positions in d.by_patient.items():
            folds = {fold_of[d.records[i].image_name] for i in positions}
            assert len(folds) == 1

        if singleton:
            counts = np.zeros((k, 9), dtype=int)
            for r in d.records:
                cls = map_diagnosis(r.diagnosis, TargetScheme.NINE_CLASS).value
                counts[fold_of[r.image_name], cls] += 1
            spread = counts.max(axis=0) - counts.min(axis=0)
            assert spread.max() <= 1

        if trial % 100 == 0:
            again = assign_folds(d, k, seed)
            assert write_folds_csv(d, f) == write_folds_csv(d, again)
    _report(7, started, "1000 datasets: partition, grouping, spread <= 1")


def test_criterion_8_instability_demonstration():
    started = time.perf_counter()
    n = 33000
    low_rate, high_rate = 0.0176, 0.1785

    def sample(rate: float, rng: np.random.Generator) -> LabeledScores:
        positives = round(n * rate)
        labels = np.zeros(n, dtype=np.int64)
        labels[:positives] = 1
        scores = np.where(
            labels == 1, rng.normal(1.0, 1.0, n), rng.normal(0.0, 1.0, n)
        )
        return LabeledScores(scores, labels)

    wins = 0
    for trial in range(100):
        rng = np.random.default_rng((8080, trial))
        std_low = bootstrap_auc_std(sample(low_rate, rng), 100, seed=trial).std
        std_high = bootstrap_auc_std(sample(high_rate, rng), 100, seed=trial + 10**6).std
        wins += std_low > std_high
    assert wins >= 95, wins
    elapsed = _report(8, started, f"low-rate std larger in {wins}/100 trials")
    assert elapsed < 120.0


def _synthetic_pipeline_dataset(seed: int = 77):
    rng = np.random.default_rng(seed)
    benign_diags = ["nevus", "BKL", "seborrheic keratosis", None]
    sites = ["torso", "head/neck", "upper extremity", "lower extremity"]
    records = []
    for p in range(200):
        malignant = p % 5 == 0
        age = float(rng.integers(65, 91)) if malignant else float(rng.integers(20, 56))
        for i in range(10):
            diag = "melanoma" if malignant else benign_diags[rng.integers(4)]
            records.append(
                make_record(
                    f"P{p:03d}_I{i}",
                    patient_id=f"P{p:03d}",
                    age=age,
                    site=sites[rng.integers(4)],
                    diagnosis=diag,
                    malignant=malignant,
                    year=2020 if rng.random() < 0.5 else 2019,
                    size=int(rng.integers(10**4, 10**7)),
                )
            )
    return make_dataset(records)


def test_criterion_9_end_to_end_desk_scale(tmp_path):
    started = time.perf_counter()
    d = _synthetic_pipeline_dataset()
    assert len(d) == 2000
    meta = tmp_path / "meta.csv"
    meta.write_text(write_metadata_csv(d), encoding="utf-8")

    # split (rerun must be byte-identical)
    folds_csv = tmp_path / "folds.csv"
    assert main(["split", "--meta", str(meta), "--folds", "5", "--seed", "42",
                 "--out", str(folds_csv)]) == 0
    folds_again = tmp_path / "folds_again.csv"
    assert main(["split", "--meta", str(meta), "--folds", "5", "--seed", "42",
                 "--out", str(folds_again)]) == 0
    assert folds_csv.read_bytes() == folds_again.read_bytes()
    assignment = assign_folds(d, 5, 42)
    per_fold_patients = {k: set() for k in range(5)}
    for r, fold in zip(d.records, assignment.select(d.image_names, "folds").tolist()):
        per_fold_patients[fold].add(r.patient_id)
    assert all(len(p) >= 20 for p in per_fold_patients.values())

    # features
    feats_csv = tmp_path / "features.csv"
    assert main(["features", "--meta", str(meta), "--out", str(feats_csv)]) == 0

    # synthetic external features for the D=16 variant
    rng = np.random.default_rng(123)
    proj = rng.normal(size=(9, 16))
    rows = [
        proj[map_diagnosis(r.diagnosis, TargetScheme.NINE_CLASS).value]
        + 0.1 * rng.normal(size=16)
        for r in d.records
    ]
    cnn_csv = tmp_path / "cnn.csv"
    cnn_csv.write_text(
        write_feature_csv(FeatureTable(d.image_names, np.array(rows)), prefix="c"),
        encoding="utf-8",
    )

    # train D=0 (stock 512,128) and D=16 (stock 128,32)
    run0, run16 = tmp_path / "run_d0", tmp_path / "run_d16"
    assert main(["train", "--meta", str(meta), "--folds-csv", str(folds_csv),
                 "--epochs", "15", "--batch-size", "64", "--lr", "3e-4",
                 "--hidden", "512,128", "--seed", "42", "--out-dir", str(run0)]) == 0
    assert main(["train", "--meta", str(meta), "--folds-csv", str(folds_csv),
                 "--cnn", str(cnn_csv), "--epochs", "15", "--batch-size", "64",
                 "--lr", "3e-4", "--hidden", "128,32", "--seed", "42",
                 "--out-dir", str(run16)]) == 0

    # deterministic rerun of the D=16 variant
    rerun = tmp_path / "run_d16_again"
    assert main(["train", "--meta", str(meta), "--folds-csv", str(folds_csv),
                 "--cnn", str(cnn_csv), "--epochs", "15", "--batch-size", "64",
                 "--lr", "3e-4", "--hidden", "128,32", "--seed", "42",
                 "--out-dir", str(rerun)]) == 0
    assert (run16 / "oof.csv").read_bytes() == (rerun / "oof.csv").read_bytes()
    assert (run16 / "model_fold0.lsnb").read_bytes() == (
        rerun / "model_fold0.lsnb"
    ).read_bytes()

    # evaluate both OOF sets
    assert main(["evaluate", "--meta", str(meta), "--folds-csv", str(folds_csv),
                 "--preds", str(run0 / "oof.csv")]) == 0
    oof0 = parse_predictions_csv((run0 / "oof.csv").read_text(encoding="utf-8"))
    oof16 = parse_predictions_csv((run16 / "oof.csv").read_text(encoding="utf-8"))
    rep0 = evaluate_cv(oof0, d, assignment)
    rep16 = evaluate_cv(oof16, d, assignment)
    assert rep0.cv_all is not None and rep0.cv_all > 0.95, rep0
    assert rep16.cv_all is not None and rep16.cv_all > 0.95, rep16

    # two-model rank-average ensemble
    ens_csv = tmp_path / "ensemble.csv"
    assert main(["ensemble", "--preds", f"{run0 / 'oof.csv'},{run16 / 'oof.csv'}",
                 "--out", str(ens_csv)]) == 0
    ens = parse_predictions_csv(ens_csv.read_text(encoding="utf-8"))
    rep_ens = evaluate_cv(ens, d, assignment)
    assert rep_ens.cv_all >= min(rep0.cv_all, rep16.cv_all)

    elapsed = _report(
        9,
        started,
        f"cv_all D0={rep0.cv_all:.4f} D16={rep16.cv_all:.4f} "
        f"ens={rep_ens.cv_all:.4f}",
    )
    assert elapsed < 300.0
