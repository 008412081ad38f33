"""Behaviour lock: the CLI pipeline's artifacts and printed reports, byte for byte.

Runs split -> features -> train (nine-class at D=0 and D=16, four-class at
D=0) -> ensemble on a fixed small cohort and pins the sha256 of every artifact and of every manifest with its
``timestamp=`` line dropped. It also pins the exact stdout of ``stability``
(shipped table and a ``--scores`` file) and of ``evaluate`` on a scalar, a
nine-class and a four-class prediction file, and the bytes of the shipped
score table as ``write_score_table`` writes it, and of the metadata, feature and
prediction writers on 10,000-row tables, which cross their 4,096-row write blocks, of the folds
writer and of a feature table shaped like the ``features`` command's, and of a training history.
A change that moves any of these pins changes the toolkit's output and must say so.
"""

import hashlib
from pathlib import Path

import numpy as np

from lesionbench.cli import main, write_history_csv
from lesionbench.datamodel import (
    Dataset,
    PredictionSet,
    Sex,
    write_metadata_csv,
    write_predictions_csv,
)
from lesionbench.features import FeatureTable, write_feature_csv
from lesionbench.folds import assign_folds, write_folds_csv
from lesionbench.fusion import EpochStats
from lesionbench.metrics import ScoreTable, load_reference_scores, write_score_table
from lesionbench.targets import TargetScheme
from util import make_dataset, make_record

DIAGNOSES = (
    "nevus", "NV", "seborrheic keratosis", "BCC", "lentigo NOS", "unknown",
    None, "AK", "solar lentigo", "DF",
)
SITES = ("torso", "head/neck", "upper extremity", "lower extremity", None)

GOLDEN = {
    "folds.csv":
        "3796972f2eaa28ae33518592687792821ef62c14adc9f3aaf0da00ed098d09bb",
    "folds.csv.manifest.txt":
        "566e16f5cc005d625214c7c4b938918283c3dcb3484ad9db530e1b652e33b258",
    "features.csv":
        "cc0e8c65c0697bf061206a7575ee38b3fe97a33ab23f181bb8648a46966204a2",
    "features.csv.manifest.txt":
        "247ecbdd47438ede1fb4cd6a19dddd87847b6715a63ba5682fbecf09ce39f724",
    "meta/oof.csv":
        "717dd7969e74d3f97eef18381090c783e1d2b94e06b3b4ccf0b4ea6dcdfab4b3",
    "meta/history.csv":
        "ece4a6767588b3352689b5e32b0228d686595fdb9bb568a82ce7e397f1e41aa0",
    "meta/model_fold0.lsnb":
        "87a15e9ae7aaf4cc806ddc4b2e3a6242bddc559c52091b776b4b80719291b91c",
    "meta/model_fold1.lsnb":
        "6efdfa80c24ab13310e9ee81124bf1f9ac5c059484c91fbae7588899cc01575a",
    "meta/model_fold2.lsnb":
        "4a8117cc35319d632dd697f5fe11fb1b3f987ae5ebc4938db0076b2dec730d31",
    "meta/train.manifest.txt":
        "0614e9b52a6ee9dc51a7929d096249d91659af62c0c794b0ac119d1869a0bf38",
    "wide/oof.csv":
        "04abc639a1685dc5b85ad212beecf78806bef5787ae5a3a514892afdd6ea6879",
    "wide/history.csv":
        "46bafa6d1ba7d4a11fa85556040feeeac3c1adbea46b99e0d163fef571641a35",
    "wide/model_fold0.lsnb":
        "f8a1079a56c80cbc6f42b7a1a01c9e68edcfa59a817f7d2f05d3ad638ff6f337",
    "wide/model_fold1.lsnb":
        "9c722b986f9988f4967609b85221a16f6a0f447c31f5233227717f01afa04a8a",
    "wide/model_fold2.lsnb":
        "a0dc870dbf6a62d70dc6219d0aa0a4b2756d8706398a9ff89e479798cebf52e1",
    "wide/train.manifest.txt":
        "0ac948f7f79e5675a1df370624f78fa5c45f0fbce918c18ba223dc374ee18ca2",
    "four/oof.csv":
        "fdd35c47aefe94e16ee1b1c85fd38e1c0cf4bcc37b9b1b2a582298de4558e1c1",
    "four/history.csv":
        "0c667daa06c6cdb66b58218975f3fde58acbe593ac2e76492b7f0bdccf9ba023",
    "four/model_fold0.lsnb":
        "608accf92037cfcb5976b94f90c59aa5ca37fed85829858b9563ef9b5b39280d",
    "four/model_fold1.lsnb":
        "48498b7b98798202347f1b7dec458036e2ec0c37fea8c4a3d0f7c7477f3dfc14",
    "four/model_fold2.lsnb":
        "24a0c2d4d8b4add5c1ff19473d1df4f839578ce20c7b8a2d84ef7e15dbf2da5e",
    "four/train.manifest.txt":
        "df7a2517620cf40ba4168e83aace3cf122ca9162d1caf425c0c5dd72185734ab",
    "ensemble.csv":
        "8ec5a561216c066c579c14e53108cbe949d01dad70a54dea53453b17feea1cfb",
    "ensemble.csv.manifest.txt":
        "d5a3ba11b376880899d1beff4fe842b383f0f1abbbce9be793b62b73b519255c",
}

STDOUT = {
    "stability":
        "cv_all std=0.001194\ncv_2020 std=0.004343\nprivate_lb std=0.005957\n"
        "public_lb std=0.009335\nranking: cv_all > cv_2020 > private_lb > public_lb\n",
    "stability --scores":
        "cv_all std=0.034272\ncv_2020 std=0.024704\nprivate_lb std=0.029174\n"
        "public_lb std=0.026088\nranking: cv_2020 > public_lb > private_lb > cv_all\n",
    "evaluate scalar":
        "cv_all=0.468750\ncv_2020=0.482639\nfold_0=0.289062\nfold_1=0.633333\nfold_2=0.492647\n",
    "evaluate 9c":
        "cv_all=0.456597\ncv_2020=0.513889\nfold_0=0.296875\nfold_1=0.766667\nfold_2=0.426471\n",
    "evaluate 4c":
        "cv_all=0.593750\ncv_2020=0.527778\nfold_0=0.359375\nfold_1=0.800000\nfold_2=0.558824\n",
}


def golden_dataset(n_patients=30):
    rng = np.random.default_rng(2020)
    records = []
    for p in range(n_patients):
        malignant = p % 5 == 0
        sex = (Sex.MALE, Sex.FEMALE, Sex.MISSING)[p % 3]
        age = None if p % 7 == 3 else float(rng.integers(4, 18) * 5)
        for i in range(1 + p % 3):
            records.append(
                make_record(
                    f"ISIC_{p:03d}{i}",
                    patient_id=f"IP_{p:03d}",
                    sex=sex,
                    age=age,
                    site=SITES[(p + i) % len(SITES)],
                    diagnosis="melanoma" if malignant else DIAGNOSES[(p + i) % len(DIAGNOSES)],
                    malignant=malignant,
                    year=2020 if p % 2 else 2019,
                    size=int(rng.integers(10**4, 10**6)),
                )
            )
    return make_dataset(records)


def _sha256(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith(".manifest.txt"):
        lines = data.decode("utf-8").splitlines(keepends=True)
        data = "".join(l for l in lines if not l.startswith("timestamp=")).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def test_pipeline_artifacts_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LESIONBENCH_THREADS", raising=False)
    d = golden_dataset()
    Path("meta.csv").write_text(write_metadata_csv(d), encoding="utf-8")
    cnn = np.random.default_rng(16).normal(size=(len(d), 16))
    Path("cnn.csv").write_text(
        write_feature_csv(FeatureTable(d.image_names, cnn), prefix="c"), encoding="utf-8"
    )

    train = ["train", "--meta", "meta.csv", "--folds-csv", "folds.csv",
             "--hidden", "8,4", "--epochs", "2", "--batch-size", "8", "--seed", "5"]
    assert main(["split", "--meta", "meta.csv", "--folds", "3", "--seed", "11",
                 "--out", "folds.csv"]) == 0
    assert main(["features", "--meta", "meta.csv", "--out", "features.csv"]) == 0
    assert main(train + ["--out-dir", "meta"]) == 0
    assert main(train + ["--cnn", "cnn.csv", "--out-dir", "wide"]) == 0
    assert main(train + ["--scheme", "4c", "--out-dir", "four"]) == 0
    assert main(["ensemble", "--preds", "meta/oof.csv,wide/oof.csv",
                 "--out", "ensemble.csv"]) == 0

    produced = sorted(
        str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
        if p.is_file() and p.name not in ("meta.csv", "cnn.csv")
    )
    assert produced == sorted(GOLDEN)
    assert {name: _sha256(Path(name)) for name in GOLDEN} == GOLDEN


def _prob_csv(names, rng, scheme: TargetScheme) -> str:
    probs = rng.dirichlet(np.ones(scheme.class_count), size=len(names))
    header = ["image_name"] + [f"prob_{c.name}" for c in scheme.classes]
    rows = [[name] + [repr(v) for v in row] for name, row in zip(names, probs.tolist())]
    return "\n".join(",".join(r) for r in [header] + rows) + "\n"


def test_shipped_score_table_writes_its_pinned_bytes():
    text = write_score_table(load_reference_scores())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "6ae39a785767760f4f0db966f9cff11db4bea024cf7c9a1c4467347e88b759e7")


def _stdout(capsys, argv) -> str:
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


def test_stability_and_evaluate_stdout_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    d = golden_dataset()
    Path("meta.csv").write_text(write_metadata_csv(d), encoding="utf-8")
    assert main(["split", "--meta", "meta.csv", "--folds", "3", "--seed", "11",
                 "--out", "folds.csv"]) == 0
    rng = np.random.default_rng(404)
    scores = np.round(rng.random(len(d)), 2)  # two decimals give tied scores
    Path("scalar.csv").write_text("image_name,target\n" + "".join(
        f"{n},{v!r}\n" for n, v in zip(d.image_names, scores.tolist())), encoding="utf-8")
    Path("9c.csv").write_text(_prob_csv(d.image_names, rng, TargetScheme.NINE_CLASS),
                              encoding="utf-8")
    Path("4c.csv").write_text(_prob_csv(d.image_names, rng, TargetScheme.FOUR_CLASS),
                              encoding="utf-8")
    names = tuple(f"model_{i}" for i in range(7))
    table = ScoreTable(names, rng.uniform(0.85, 0.95, (7, 4)))
    Path("scores.csv").write_text(write_score_table(table), encoding="utf-8")

    evaluate = ["evaluate", "--meta", "meta.csv", "--folds-csv", "folds.csv", "--preds"]
    printed = {
        "stability": _stdout(capsys, ["stability"]),
        "stability --scores": _stdout(capsys, ["stability", "--scores", "scores.csv"]),
        **{f"evaluate {kind}": _stdout(capsys, evaluate + [f"{kind}.csv"])
           for kind in ("scalar", "9c", "4c")},
    }
    assert printed == STDOUT


def _block_crossing_tables(n=10_000):
    """Seeded tables of ``n`` rows, more than two write blocks of 4,096 rows each."""
    rng = np.random.default_rng(4096)
    names = tuple(f"ISIC_{i:05d}" for i in range(n))
    age = rng.integers(0, 241, n) / 2  # whole and half years
    age[rng.random(n) < 0.1] = np.nan
    size = rng.integers(1, 10**7, n)
    size[rng.random(n) < 0.1] = 0
    d = Dataset(names, tuple(f"IP_{i // 3:05d}" for i in range(n)), rng.integers(-1, 2, n),
                age, tuple(SITES[i % 4] for i in range(n)), ("nevus",) * n,
                np.zeros(n, bool), rng.random(n) < 0.5, size)
    values = rng.normal(size=(n, 5))
    values[:, 0] = np.round(values[:, 0])  # integral cells, -0.0 among them
    values[::7, 1] = -0.0
    values[::5, 2] = values[1, 2]  # a repeated cell
    scores = np.round(rng.random(n), 3)  # ties
    scores[::11], scores[::13] = 0.0, 1.0
    return d, FeatureTable(names, values), PredictionSet.from_scores(names, scores)


def test_multi_block_writes_are_pinned():
    d, table, preds = _block_crossing_tables()
    texts = {
        "metadata": write_metadata_csv(d),
        "features f": write_feature_csv(table),
        "features c": write_feature_csv(table, prefix="c"),
        "predictions": write_predictions_csv(preds),
    }
    assert {k: hashlib.sha256(t.encode("utf-8")).hexdigest() for k, t in texts.items()} == {
        "metadata":
            "3b920de5dd8f19b02fd913451848007da14e44182acc6a649acc3eef1c843552",
        "features f":
            "d910c9ac4b93b8a378cdce0ff1b0699c52e502a61da39366303e60d442b448df",
        "features c":
            "2e08198a687d3b7bdabbd684cc336c0d1906554e291332c1d4d585fb1ed82d1d",
        "predictions":
            "a7b38c4b93435a8403a2c9cb67d22a96716c0078763d32f649f8b14fb1db5b57",
    }


def _features_shaped_table(n=10_000):
    """A seeded table shaped like the ``features`` command's output over three write blocks: 0/1
    one-hot columns, a z-score column with few distinct values, a column whose values are all
    distinct, and 0.0 beside -0.0 in the first block."""
    rng = np.random.default_rng(14)
    site = rng.integers(0, 4, n)
    age = rng.integers(0, 19, n) * 5.0
    values = np.column_stack([
        *(site == s for s in range(4)),
        (age - age.mean()) / age.std(),
        rng.normal(size=n),
        np.zeros(n),
    ]).astype(np.float64)
    values[1:4000:3, 6] = -0.0
    return FeatureTable(tuple(f"ISIC_{i:07d}" for i in range(n)), values)


def test_folds_features_and_history_writes_are_pinned():
    d, _, _ = _block_crossing_tables()
    history = [EpochStats(k, e, 1e-3 / (e + 1), 0.7 - 0.1 * e, None if k == 1 else 0.5 + e / 7)
               for k in range(3) for e in range(2)]
    texts = {
        "folds": write_folds_csv(d, assign_folds(d, 5, seed=3)),
        "features": write_feature_csv(_features_shaped_table()),
        "history": write_history_csv(history),
    }
    assert {k: hashlib.sha256(t.encode("utf-8")).hexdigest() for k, t in texts.items()} == {
        "folds": "5fab6eefa5e6faefeb05f191bea19b27d2feb9d0acb775caade8829bcc7faf18",
        "features": "88579ca15a431da5125b0774bc31590ced1917b4d8ad3a3855962095f66b7198",
        "history": "581c6b36a3923ebbf6d32943254bf4902f01bde11dc26ffb19652da56d0b5c2d",
    }
