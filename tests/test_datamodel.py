import copy
import dataclasses
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lesionbench.datamodel import (
    METADATA_COLUMNS,
    SIZE_MAX,
    BinaryTarget,
    Dataset,
    PredictionSet,
    Sex,
    SourceYear,
    equal_fields,
    parse_metadata_csv,
    parse_predictions_csv,
    positions,
    validate_consistency,
    values_at,
    write_metadata_csv,
    write_predictions_csv,
)
from lesionbench.errors import (
    CoverageError,
    DomainError,
    FormatError,
    LesionbenchError,
    RangeError,
    UniquenessError,
)
from lesionbench.features import FeatureTable
from lesionbench.folds import FoldAssignment
from lesionbench.fusion import init_fusion_head
from lesionbench.metrics import LabeledScores, ScoreTable
from lesionbench.targets import DiagnosisClass, TargetScheme, class_index
from util import make_dataset, make_record, reference_parse_metadata, reference_values_at

HEADER = "image_name,patient_id,sex,age_approx,anatom_site_general_challenge,diagnosis,target,source"


def test_parse_full_row():
    d = parse_metadata_csv(HEADER + "\nISIC_01,P1,male,45,torso,melanoma,1,2020\n")
    assert len(d) == 1
    r = d.records[0]
    assert r.image_name == "ISIC_01"
    assert r.patient_id == "P1"
    assert r.sex is Sex.MALE
    assert r.age_approx == 45.0
    assert r.anatom_site == "torso"
    assert r.diagnosis == "melanoma"
    assert r.target_binary is BinaryTarget.MALIGNANT
    assert r.source_year is SourceYear.Y2020
    assert r.image_size_bytes is None


def test_parse_empty_cells_are_missing():
    d = parse_metadata_csv(HEADER + "\nISIC_02,P1,,,,,0,2019\n")
    r = d.records[0]
    assert r.sex is Sex.MISSING
    assert r.age_approx is None
    assert r.anatom_site is None
    assert r.diagnosis is None
    assert r.target_binary is BinaryTarget.BENIGN
    assert r.source_year is SourceYear.Y2019


def test_parse_optional_size_column():
    text = HEADER + ",image_size_bytes\nISIC_01,P1,male,45,torso,melanoma,1,2020,12345\n"
    d = parse_metadata_csv(text)
    assert d.records[0].image_size_bytes == 12345


def test_parse_preserves_row_order():
    rows = "\n".join(f"I{i},P{i},male,30,torso,nevus,0,2020" for i in range(20))
    d = parse_metadata_csv(HEADER + "\n" + rows + "\n")
    assert [r.image_name for r in d.records] == [f"I{i}" for i in range(20)]


def test_parse_accepts_crlf():
    text = HEADER + "\r\nISIC_01,P1,male,45,torso,melanoma,1,2020\r\n"
    d = parse_metadata_csv(text)
    assert d.records[0].age_approx == 45.0


def test_duplicate_image_name_rejected():
    row = ",P1,male,45,torso,nevus,0,2020\n"
    for text, message in (
        (HEADER + "\nISIC_03,P1,male,45,torso,nevus,0,2020\nISIC_03,P2,male,50,torso,nevus,0,2020\n",
         "ISIC_03"),
        # rows are numbered as in every other metadata message: blank lines count
        (HEADER + "\n\n\nI1" + row + "I2" + row + "I1" + row,
         "duplicate image_name 'I1' (rows 3 and 5)"),
    ):
        with pytest.raises(UniquenessError, match=re.escape(message)):
            parse_metadata_csv(text)
    with pytest.raises(FormatError, match="row 5: non-numeric age_approx"):
        parse_metadata_csv(HEADER + "\n\n\nI1" + row + "I2" + row + "I1" + row.replace("45", "old"))


def test_missing_column_named_in_error():
    bad = HEADER.replace(",diagnosis", "")
    with pytest.raises(FormatError, match="diagnosis"):
        parse_metadata_csv(bad + "\n")


def test_non_numeric_age_carries_row_number():
    text = (
        HEADER
        + "\nISIC_01,P1,male,45,torso,nevus,0,2020"
        + "\nISIC_02,P2,male,old,torso,nevus,0,2020\n"
    )
    with pytest.raises(FormatError, match="row 2"):
        parse_metadata_csv(text)


def test_bad_target_and_source_rejected():
    with pytest.raises(FormatError, match="target"):
        parse_metadata_csv(HEADER + "\nI1,P1,male,45,torso,nevus,2,2020\n")
    with pytest.raises(FormatError, match="source"):
        parse_metadata_csv(HEADER + "\nI1,P1,male,45,torso,nevus,0,2021\n")


def test_age_range_enforced():
    with pytest.raises(RangeError):
        parse_metadata_csv(HEADER + "\nI1,P1,male,150,torso,nevus,0,2020\n")
    with pytest.raises(RangeError):
        make_record("I1", age=-1.0)


def test_size_must_be_positive():
    # ... and at most SIZE_MAX, as sizes are held in an int64 column
    for size in (0, SIZE_MAX + 1):
        with pytest.raises(RangeError):
            make_record("I1", size=size)
    text = HEADER + ",image_size_bytes\nI1,P1,male,45,torso,nevus,0,2020,{}\n"
    assert parse_metadata_csv(text.format(SIZE_MAX)).size.tolist() == [SIZE_MAX]
    for cell in ("0", "-1", str(SIZE_MAX + 1), "9999999999999999999999999"):
        message = f"row 1: image_size_bytes {cell} outside [1, {SIZE_MAX}]"
        with pytest.raises(RangeError, match=re.escape(message)):
            parse_metadata_csv(text.format(cell))


# Valid cells per column (image_name is drawn apart), and faulty ones.
GOOD_CELLS = {
    1: ["P1", "P2", "P3"],
    2: ["male", "female", "", " Male ", "FEMALE"],
    3: ["", "45", "45.5", "0", "-0", "120", " 7 ", "1_0", "1e1"],
    4: ["", "torso", "head/neck", "elbow"],
    5: ["", "melanoma", "MEL", " nevus ", "unknown", "BKL", "odd"],
    6: ["0", "1"],
    7: ["2019", "2020"],
    8: ["", "1", "12345", " 13", "+14", str(SIZE_MAX)],
}
BAD_CELLS = {
    1: [""],
    2: ["unknown", "m"],
    3: ["old", "150", "-1", "nan", "inf", "1e400"],
    6: ["2", "", " 1", "01"],
    7: ["2021", "", "20200"],
    8: ["0", "-5", "x", "1.5", "9999999999999999999999999", str(SIZE_MAX + 1)],
}
HEADERS = [list(METADATA_COLUMNS), list(METADATA_COLUMNS) + ["image_size_bytes"],
           [c for c in METADATA_COLUMNS if c != "diagnosis"]]


@st.composite
def metadata_texts(draw):
    """Metadata CSV text with up to three injected faults, and the number of
    distinct rows they hit."""
    header = draw(st.sampled_from([HEADERS[0], HEADERS[1], HEADERS[1], HEADERS[2]]))
    width = max(len(header), len(METADATA_COLUMNS))
    n = draw(st.integers(0, 8))
    rows = [[f"I{j}"] + [draw(st.sampled_from(GOOD_CELLS[c])) for c in range(1, width)]
            for j in range(n)]
    faulty = set()
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        j = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["cells", "cells", "width", "duplicate", "empty name"]))
        if kind == "cells":  # one or two bad cells in the row
            columns = [c for c in BAD_CELLS if c < len(rows[j])]
            for c in draw(st.lists(st.sampled_from(columns), min_size=1, max_size=2)):
                rows[j][c] = draw(st.sampled_from(BAD_CELLS[c]))
        elif kind == "width":
            rows[j] = rows[j] + ["x"] if draw(st.booleans()) else rows[j][:-1]
        elif kind == "duplicate" and j > 0:
            rows[j][0] = f"I{draw(st.integers(0, j - 1))}"
        elif kind == "empty name":
            rows[j][0] = ""
        faulty.add(j)
    lines = [",".join(header)]
    for row in rows:
        lines += [""] * draw(st.integers(0, 1))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n", len(faulty)


@settings(max_examples=500, deadline=None)
@given(case=metadata_texts())
def test_column_parse_equals_per_row_oracle(case):
    text, n_faulty = case
    try:
        expected = reference_parse_metadata(text)
    except LesionbenchError as exc:
        with pytest.raises(LesionbenchError) as got:
            parse_metadata_csv(text)
        # With faults in several rows, the two may report different ones first.
        if n_faulty <= 1:
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    got = parse_metadata_csv(text)
    assert got == expected
    assert got.records == expected.records
    assert got.by_patient == expected.by_patient
    assert parse_metadata_csv(write_metadata_csv(got)) == got


def test_by_patient_covers_every_record_once():
    d = make_dataset(
        [
            make_record("I1", patient_id="A"),
            make_record("I2", patient_id="B"),
            make_record("I3", patient_id="A"),
        ]
    )
    positions = sorted(pos for group in d.by_patient.values() for pos in group)
    assert positions == [0, 1, 2]
    assert d.by_patient["A"] == (0, 2)


def test_metadata_round_trip():
    rng = np.random.default_rng(7)
    records = []
    sites = ["torso", "head/neck", None]
    diagnoses = ["melanoma", "nevus", "BKL", None]
    for i in range(50):
        diag = diagnoses[rng.integers(len(diagnoses))]
        records.append(
            make_record(
                f"I{i}",
                patient_id=f"P{rng.integers(10)}",
                sex=[Sex.MALE, Sex.FEMALE, Sex.MISSING][rng.integers(3)],
                age=None if rng.random() < 0.2 else float(rng.integers(0, 100)) + 0.5,
                site=sites[rng.integers(len(sites))],
                diagnosis=diag,
                malignant=diag == "melanoma",
                year=2019 if rng.random() < 0.5 else 2020,
                size=None if rng.random() < 0.3 else int(rng.integers(1, 10**7)),
            )
        )
    d = make_dataset(records)
    assert parse_metadata_csv(write_metadata_csv(d)) == d


# A dataset built from columns, each numeric column at its writable limits and missing values.
COLUMNS = dict(image_names=("I0", "I1", "I2"), patient_ids=("P1", "P1", "P2"), sex=[1, 0, -1],
               age=[0.0, np.nan, 120.0], site=("torso", "", ""), diagnosis=("", "nevus", ""),
               positive=[0, 0, 0], is_2020=[1, 0, 1], size=[0, 1, SIZE_MAX])


@pytest.mark.parametrize("bad, message", [
    (dict(sex=[1, 5, -1]), "sex 5 outside [-1, 1]"),
    (dict(sex=[1, -2, -1]), "sex -2 outside [-1, 1]"),
    (dict(age=[0.0, 500.0, 120.0]), "age 500 outside [0, 120]"),
    (dict(age=[0.0, -1.0, 120.0]), "age -1 outside [0, 120]"),
    (dict(age=[0.0, np.inf, 120.0]), "age inf outside [0, 120]"),
    (dict(size=[0, -7, SIZE_MAX]), f"size -7 outside [0, {SIZE_MAX}]"),
    # the first bad image, at its first bad column
    (dict(sex=[1, 0, 5], age=[0.0, -1.0, 0.0], size=[0, -1, 0]), "age -1 outside [0, 120]"),
])
def test_dataset_rejects_a_value_its_writer_cannot_write(bad, message):
    # The writer would raise on such a sex code, write an age that the reader rejects, or write
    # a negative size as an empty cell that reads back as missing.
    d = Dataset(**COLUMNS)
    assert parse_metadata_csv(write_metadata_csv(d)) == d
    with pytest.raises(RangeError, match="^" + re.escape(f"image_name 'I1': {message}") + "$"):
        Dataset(**{**COLUMNS, **bad})


def test_consistency_truth_table():
    # all four (diagnosis maps to MEL?, malignant?) combinations
    cases = [
        (make_record("I1", diagnosis="melanoma", malignant=True), 0),
        (make_record("I2", diagnosis="melanoma", malignant=False), 1),
        (make_record("I3", diagnosis="nevus", malignant=True), 1),
        (make_record("I4", diagnosis="nevus", malignant=False), 0),
    ]
    for record, expected_errors in cases:
        report = validate_consistency(make_dataset([record]))
        assert len(report.errors) == expected_errors, record.image_name


def test_consistency_missing_diagnosis_warns():
    d = make_dataset([make_record("I1", diagnosis=None, malignant=True)])
    report = validate_consistency(d)
    assert len(report.errors) == 0
    assert any(w.rule == "diagnosis-missing" for w in report.warnings)


def test_consistency_flags_2020_positive_rate():
    # 50% positive is far above the expected 1.76%
    records = [
        make_record("I1", diagnosis="melanoma", malignant=True),
        make_record("I2", diagnosis="nevus", malignant=False),
    ]
    report = validate_consistency(make_dataset(records))
    assert [w.image_name for w in report.warnings if w.rule == "positive-rate-2020"] == [None]

    # 1.76% on the nose: 2 positives among ~114 images
    ok_records = [
        make_record(f"N{i}", patient_id=f"P{i}", diagnosis="nevus") for i in range(112)
    ] + [
        make_record("M1", patient_id="PM1", diagnosis="melanoma", malignant=True),
        make_record("M2", patient_id="PM2", diagnosis="melanoma", malignant=True),
    ]
    report = validate_consistency(make_dataset(ok_records))
    assert not any(w.rule == "positive-rate-2020" for w in report.warnings)


def test_scalar_predictions_format():
    p = PredictionSet.from_scores(["ISIC_01"], [0.25])
    assert write_predictions_csv(p) == "image_name,target\nISIC_01,0.25\n"


def test_from_scores_takes_arrays_sequences_and_iterables_alike():
    scores = np.random.default_rng(4).random(50)
    names = [f"I{i}" for i in range(50)]
    from_array = PredictionSet.from_scores(names, scores)
    assert from_array == PredictionSet.from_scores(names, scores.tolist())
    assert from_array == PredictionSet.from_scores(names, (float(x) for x in scores))
    assert from_array.scores.tobytes() == scores.tobytes()


def test_scalar_predictions_round_trip():
    rng = np.random.default_rng(11)
    p = PredictionSet.from_scores([f"I{i}" for i in range(200)], rng.random(200))
    assert parse_predictions_csv(write_predictions_csv(p)) == p


NINE_HEADER = (
    "image_name,prob_NV,prob_MEL,prob_BCC,prob_BKL,prob_AK,prob_SCC,"
    "prob_VASC,prob_DF,prob_Unknown"
)
FOUR_HEADER = "image_name,prob_NV,prob_MEL,prob_BKL,prob_Unknown"


def prob_csv(header, names, probs):
    return header + "\n" + "".join(
        ",".join([name] + [repr(float(v)) for v in row]) + "\n"
        for name, row in zip(names, probs)
    )


def test_full_predictions_round_trip_both_schemes():
    rng = np.random.default_rng(12)
    for scheme, header in ((TargetScheme.NINE_CLASS, NINE_HEADER),
                           (TargetScheme.FOUR_CLASS, FOUR_HEADER)):
        raw = rng.random((40, scheme.class_count))
        probs = raw / raw.sum(axis=1, keepdims=True)
        names = [f"I{i}" for i in range(40)]
        back = parse_predictions_csv(prob_csv(header, names, probs))
        mel = probs[:, class_index(DiagnosisClass.MEL, scheme)]
        assert back == PredictionSet.from_scores(names, mel)


def test_prediction_header_shapes():
    nine = parse_predictions_csv(prob_csv(NINE_HEADER, ["I1"], np.full((1, 9), 1 / 9)))
    assert np.array_equal(nine.scores, [1 / 9])
    four = parse_predictions_csv(prob_csv(FOUR_HEADER, ["I1"], np.full((1, 4), 0.25)))
    assert np.array_equal(four.scores, [0.25])


def test_prediction_out_of_range_rejected():
    with pytest.raises(RangeError):
        PredictionSet.from_scores(["I1"], [1.5])
    with pytest.raises(RangeError):
        parse_predictions_csv("image_name,target\nI1,1.5\n")
    with pytest.raises(RangeError):
        parse_predictions_csv("image_name,target\nI1,-0.1\n")


def test_prediction_unknown_header_rejected():
    with pytest.raises(FormatError):
        parse_predictions_csv("image_name,score\nI1,0.5\n")


def test_prediction_row_sums_enforced():
    bad = np.array([[0.5, 0.2, 0.2, 0.2]])
    with pytest.raises(DomainError, match="sum to 1 within 1e-9"):
        parse_predictions_csv(prob_csv(FOUR_HEADER, ["I1"], bad))
    with pytest.raises(DomainError, match="sum to 1 within 1e-9"):
        parse_predictions_csv(prob_csv(NINE_HEADER, ["I1"], np.full((1, 9), 0.1)))
    with pytest.raises(RangeError):  # every cell is checked, not only MEL
        parse_predictions_csv(prob_csv(FOUR_HEADER, ["I1"], [[1.5, 0.0, -0.5, 0.0]]))


def test_full_predictions_keep_their_mel_column():
    four = np.array([[0.1, 0.6, 0.2, 0.1], [0.7, 0.1, 0.1, 0.1]])
    p = parse_predictions_csv(prob_csv(FOUR_HEADER, ["A", "B"], four))
    assert np.array_equal(p.scores, [0.6, 0.1])
    nine = np.array([[0.1, 0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05]])
    p = parse_predictions_csv(prob_csv(NINE_HEADER, ["A"], nine))
    assert np.array_equal(p.scores, [0.3])


def test_prediction_arrays_read_only():
    p = PredictionSet.from_scores(["I1"], [0.5])
    with pytest.raises(ValueError):
        p.scores[0] = 0.9



# Twelve possible names, so a drawn key is often in the table and often not.
NAMES = st.text(alphabet="abc", min_size=1, max_size=2)


@settings(max_examples=400, deadline=None)
@given(table=st.dictionaries(NAMES, st.integers(-2**62, 2**62), max_size=8),
       keys=st.lists(NAMES, max_size=12))
@example(table={}, keys=[])
@example(table={}, keys=["a", "b", "a"])  # every key missing, one of them twice
@example(table={"a": 1, "b": 2}, keys=["b", "c", "a", "c", "a", "ca"])  # repeats, hit and miss
def test_values_at_equals_the_two_pass_oracle(table, keys):
    def outcome(lookup):
        try:
            return lookup(table, tuple(keys), np.int64, "t").tobytes()
        except CoverageError as exc:
            return str(exc)

    assert outcome(values_at) == outcome(reference_values_at)
    names = list(table)
    assert positions(names) == {name: names.index(name) for name in names}


@pytest.mark.parametrize("column, row_nums, row", [
    ("image_names", None, 2), ("patient_ids", None, 2),
    ("image_names", [5, 9, 12], 9), ("patient_ids", [5, 9, 12], 9),
])
def test_dataset_rejects_an_empty_name_as_its_reader_does(column, row_nums, row):
    # The writer would write the empty cell, and the reader reject the file.
    d = Dataset(**COLUMNS)
    text = write_metadata_csv(d)
    assert parse_metadata_csv(text) == d
    message = f"row {row}: empty {column[:-1]}"
    with pytest.raises(FormatError, match=f"^{message}$"):
        Dataset(**{**COLUMNS, column: ("I0", "", "I2")}, row_nums=row_nums)
    if row_nums is None:  # the reader numbers data rows 1, 2, ...
        lines = text.split("\n")
        cells = lines[row].split(",")
        cells[list(COLUMNS).index(column)] = ""
        lines[row] = ",".join(cells)
        with pytest.raises(FormatError, match=f"^{message}$"):
            parse_metadata_csv("\n".join(lines))


# Each keyed table type, its key column, and a valid 3-row array for it.
KEYED_TABLES = [
    (PredictionSet, "image_name", np.array([0.1, 0.7, 0.4])),
    (FeatureTable, "image_name", np.array([[0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8],
                                           [0.9, 0.0, 0.1, 0.2]])),
    (ScoreTable, "model", np.array([[0.9, 0.8, 0.7, 0.6], [0.5, 0.4, 0.3, 0.2],
                                    [0.1, 0.2, 0.3, 0.4]])),
]


@pytest.mark.parametrize("cls, key, values", KEYED_TABLES,
                         ids=[cls.__name__ for cls, _, _ in KEYED_TABLES])
def test_keyed_table_contract(cls, key, values):
    keys = ("a", "b", "c")
    given = values.copy()
    t = cls(list(keys), given)
    held_keys, held = (getattr(t, f.name) for f in dataclasses.fields(t))
    assert isinstance(held_keys, tuple) and held_keys == keys
    assert t == cls(keys, values) and len(t) == 3

    given[0] = 0.5  # the table holds a read-only copy
    assert np.array_equal(held, values) and not held.flags.writeable

    subclass = type("Sub" + cls.__name__, (cls,), {})
    others = [subclass] + [other for other, _, _ in KEYED_TABLES if other is not cls]
    for other in others:
        try:
            u = other(keys, values)
        except LesionbenchError:  # this type's shape check rejects these cells
            continue
        assert t != u and u != t
    assert t != (keys, values)

    own = t.select(["a", "b", "c"], "t")  # the table's own keys in order: its own array
    assert np.shares_memory(own, held) and not own.flags.writeable
    for picked, rows in ((["c", "a", "b", "a"], [2, 0, 1, 0]), (["b", "c"], [1, 2])):
        got = t.select(picked, "t")  # any other keys: a new array
        assert np.array_equal(got, values[rows])
        assert not np.shares_memory(got, held) and not got.flags.writeable
    with pytest.raises(CoverageError, match=r"^some table missing 2 image\(s\), first: 'x'$"):
        t.select(["b", "x", "a", "y"], "some table")
    with pytest.raises(UniquenessError, match=rf"^duplicate {key} 'a' \(rows 1 and 3\)$"):
        cls(["a", "b", "a"], values)


# A builder for one instance of each read-only type whose fields include arrays.
READ_ONLY = {
    "PredictionSet": lambda: PredictionSet(("a", "b"), [0.1, 0.7]),
    "FeatureTable": lambda: FeatureTable(("a", "b"), np.ones((2, 3))),
    "ScoreTable": lambda: ScoreTable(("m1", "m2"), np.full((2, 4), 0.5)),
    "FoldAssignment": lambda: FoldAssignment(("a", "b"), [0, 1], 2),
    "Dataset": lambda: make_dataset([make_record("a"), make_record("b", patient_id="P2")]),
    "FusionHeadModel": lambda: init_fusion_head(TargetScheme.NINE_CLASS, (4, 2), 3,
                                                np.random.default_rng(0)),
    "LabeledScores": lambda: LabeledScores(np.array([0.2, 0.8]), np.array([0, 1])),
}


@pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("name", sorted(READ_ONLY))
def test_copies_of_read_only_objects_stay_read_only(name, copy_of):
    original = READ_ONLY[name]()
    twin = copy_of(original)
    assert equal_fields(twin, original) and twin is not original
    if type(original).__eq__ is equal_fields:  # unhashable, as its arrays compare by value
        pytest.raises(TypeError, hash, original)
    arrays = [a for a in (getattr(twin, f.name) for f in dataclasses.fields(twin))
              if isinstance(a, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
