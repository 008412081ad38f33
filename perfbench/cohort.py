"""Seeded synthetic cohort at the source paper's scale, and the input files
the workloads read.

The cohort mirrors the combined training set of the paper: 33,126 images
from 2020 with 584 melanomas (1.76%), and 25,331 from 2019 whose diagnosis
mix covers all nine classes. Patients hold a variable number of images
(about 15 on average) and a few sex, age and site cells are missing. Every
file is written with the library's own public writers, so the program under
test receives nothing but CSV text.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from lesionbench import (
    BinaryTarget,
    Dataset,
    FeatureTable,
    PredictionSet,
    SampleRecord,
    Sex,
    SourceYear,
    write_metadata_csv,
    write_predictions_csv,
)
from lesionbench.features import write_feature_csv
from lesionbench.targets import DiagnosisClass, map_diagnosis

N_2020 = 33_126
MEL_2020 = 584
N_2019 = 25_331
N_TOTAL = N_2020 + N_2019

# Diagnosis strings as each cohort spells them, with their paper-scale
# counts. The 2020 mix is the published one; the 2019 mix keeps 100 images
# with an unrecognised diagnosis so that all nine classes occur.
DIAGNOSES_2020 = {
    "unknown": 27_124,
    "nevus": 5_193,
    "melanoma": MEL_2020,
    "seborrheic keratosis": 135,
    "lentigo NOS": 44,
    "lichenoid keratosis": 37,
    "solar lentigo": 7,
    "cafe-au-lait macule": 1,
    "atypical melanocytic proliferation": 1,
}
DIAGNOSES_2019 = {
    "NV": 12_775,
    "MEL": 4_522,
    "BCC": 3_323,
    "BKL": 2_624,
    "AK": 867,
    "SCC": 628,
    "VASC": 253,
    "DF": 239,
    "UNK": 100,
}
SITES = (
    "torso",
    "lower extremity",
    "upper extremity",
    "head/neck",
    "palms/soles",
    "oral/genital",
    "anterior torso",
    "posterior torso",
    "lateral torso",
)
SITE_WEIGHTS = (0.40, 0.22, 0.15, 0.10, 0.02, 0.01, 0.05, 0.04, 0.01)
MEAN_IMAGES_PER_PATIENT = 15
MISSING_RATE = 0.01



def scaled_counts(counts: dict[str, int], scale: float) -> dict[str, int]:
    """Counts multiplied by ``scale``, each kept at one or more."""
    return {k: max(1, round(v * scale)) for k, v in counts.items()}


def make_cohort(seed: int, scale: float = 1.0) -> Dataset:
    """The synthetic cohort for ``seed``; ``scale`` < 1 shrinks every count."""
    rng = np.random.default_rng([seed, 0xC0407])
    mixes = ((2020, scaled_counts(DIAGNOSES_2020, scale)), (2019, scaled_counts(DIAGNOSES_2019, scale)))
    total = sum(sum(mix.values()) for _, mix in mixes)
    image_ids = rng.permutation(10 * N_TOTAL)[:total]
    records: list[SampleRecord] = []
    first_patient = 0
    for year, mix in mixes:
        diagnoses = np.repeat(np.array(list(mix), dtype=object), list(mix.values()))
        rng.shuffle(diagnoses)
        n = diagnoses.size
        # Consecutive runs of images form one patient; run lengths are
        # geometric with mean MEAN_IMAGES_PER_PATIENT.
        starts = np.cumsum(rng.geometric(1.0 / MEAN_IMAGES_PER_PATIENT, size=n))
        new_patient = np.zeros(n, dtype=np.int64)
        new_patient[starts[starts < n]] = 1
        patient = np.cumsum(new_patient)
        n_patients = int(patient[-1]) + 1

        male = rng.random(n_patients) < 0.52
        base_age = 5.0 * rng.integers(3, 18, size=n_patients)
        age_shift = 5.0 * rng.integers(-1, 2, size=n)
        sex_missing = rng.random(n) < MISSING_RATE
        age_missing = rng.random(n) < MISSING_RATE
        site_missing = rng.random(n) < 2 * MISSING_RATE
        site = rng.choice(len(SITES), size=n, p=SITE_WEIGHTS)
        log_size = rng.normal(14.5 if year == 2020 else 13.0, 0.6, size=n)

        is_mel = {d: map_diagnosis(d) is DiagnosisClass.MEL for d in mix}
        mel = np.array([is_mel[d] for d in diagnoses])
        ages = np.minimum(90.0, base_age[patient] + age_shift + 10.0 * mel)
        sizes = np.exp(log_size + 0.3 * mel).astype(np.int64)
        sexes = [Sex.MISSING if gone else Sex.MALE if m else Sex.FEMALE
                 for gone, m in zip(sex_missing.tolist(), male[patient].tolist())]
        columns = zip(
            image_ids[len(records) : len(records) + n].tolist(),
            (patient + first_patient).tolist(),
            sexes,
            np.where(age_missing, np.nan, ages).tolist(),
            np.where(site_missing, -1, site).tolist(),
            diagnoses.tolist(),
            mel.tolist(),
            sizes.tolist(),
        )
        for image, pid, sex, age, site_ix, diagnosis, positive, size in columns:
            records.append(
                SampleRecord(
                    image_name=f"ISIC_{image:07d}",
                    patient_id=f"IP_{pid:07d}",
                    sex=sex,
                    age_approx=None if age != age else age,  # NaN marks a missing age
                    anatom_site=None if site_ix < 0 else SITES[site_ix],
                    diagnosis=diagnosis,
                    target_binary=BinaryTarget.MALIGNANT if positive else BinaryTarget.BENIGN,
                    source_year=SourceYear(year),
                    image_size_bytes=size,
                )
            )
        first_patient += n_patients
    cohort = Dataset.from_records(records)
    check_cohort(cohort, scale)
    return cohort


def check_cohort(cohort: Dataset, scale: float) -> None:
    """Raise AssertionError unless the cohort has the counts it must have."""
    mix_2020 = scaled_counts(DIAGNOSES_2020, scale)
    mix_2019 = scaled_counts(DIAGNOSES_2019, scale)
    n_2020 = sum(r.source_year is SourceYear.Y2020 for r in cohort.records)
    mel_2020 = sum(r.is_positive and r.source_year is SourceYear.Y2020 for r in cohort.records)
    classes_2019 = {map_diagnosis(r.diagnosis) for r in cohort.records if r.source_year is SourceYear.Y2019}
    expect = (sum(mix_2020.values()), mix_2020["melanoma"], sum(mix_2019.values()))
    got = (n_2020, mel_2020, len(cohort) - n_2020)
    if got != expect:
        raise AssertionError(f"cohort has (2020, 2020 melanomas, 2019) = {got}, expected {expect}")
    if scale == 1.0 and got != (N_2020, MEL_2020, N_2019):
        raise AssertionError(f"paper-scale cohort has {got}")
    if classes_2019 != set(DiagnosisClass):
        raise AssertionError(f"2019 cohort covers only {len(classes_2019)} of 9 classes")
    for what, missing in (
        ("sex", lambda r: r.sex is Sex.MISSING),
        ("age", lambda r: r.age_approx is None),
        ("site", lambda r: r.anatom_site is None),
    ):
        if not any(missing(r) for r in cohort.records):
            raise AssertionError(f"no missing {what} cell in the cohort")
    if any(r.image_size_bytes is None for r in cohort.records):
        raise AssertionError("image_size_bytes must be present for every image")


def cnn_features(cohort: Dataset, seed: int, dim: int) -> FeatureTable:
    """External image features: a per-class centroid plus unit noise."""
    rng = np.random.default_rng([seed, 0xC44])
    centroids = rng.normal(size=(len(DiagnosisClass), dim))
    classes = np.array([map_diagnosis(r.diagnosis).value for r in cohort.records])
    values = 0.5 * centroids[classes] + rng.normal(size=(len(cohort), dim))
    return FeatureTable(cohort.image_names, values)


def prediction_sets(cohort: Dataset, seed: int, n_files: int) -> list[PredictionSet]:
    """Scalar melanoma scores from ``n_files`` models of varying skill.

    The first and every second one after it are rounded to three decimals,
    as many released prediction files are, so their scores carry many ties.
    """
    rng = np.random.default_rng([seed, 0x9E7])
    labels = np.array([r.is_positive for r in cohort.records], dtype=np.float64)
    shared = rng.normal(size=len(cohort))  # what no member model can see
    out = []
    for i in range(n_files):
        separation = 1.2 + 0.05 * i
        logits = separation * labels - 3.0 + 0.7 * shared + 0.7 * rng.normal(size=len(cohort))
        scores = 1.0 / (1.0 + np.exp(-logits))
        if i % 2 == 0:
            scores = np.round(scores, 3)
        out.append(PredictionSet.from_scores(cohort.image_names, scores))
    return out


def write_inputs(workload, seed: int, scale: float, out_dir: Path) -> None:
    """Write one workload's input files into ``out_dir``: ``meta.csv``, plus
    ``cnn.csv`` and ``model_<i>.csv`` where the workload uses them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cohort = make_cohort(seed, scale)
    (out_dir / "meta.csv").write_text(write_metadata_csv(cohort), encoding="utf-8")
    if workload.cnn_dim:
        table = cnn_features(cohort, seed, workload.cnn_dim)
        (out_dir / "cnn.csv").write_text(write_feature_csv(table, prefix="c"), encoding="utf-8")
    for i, preds in enumerate(prediction_sets(cohort, seed, workload.external_preds)):
        (out_dir / f"model_{i:02d}.csv").write_text(write_predictions_csv(preds), encoding="utf-8")


if __name__ == "__main__":
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Write one workload's input files.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_inputs(WORKLOADS[args.workload], args.seed, args.scale, args.out)
