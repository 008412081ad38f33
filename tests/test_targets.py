import pytest

from lesionbench.targets import DiagnosisClass, TargetScheme, class_index, map_diagnosis

# The classes the four-class scheme has no column for.
FOLDED = (DiagnosisClass.BCC, DiagnosisClass.AK, DiagnosisClass.SCC, DiagnosisClass.VASC,
          DiagnosisClass.DF)

# Every known spelling and its nine-class target.
MAPPING_TABLE = [
    ("NV", DiagnosisClass.NV),
    ("MEL", DiagnosisClass.MEL),
    ("BCC", DiagnosisClass.BCC),
    ("BKL", DiagnosisClass.BKL),
    ("AK", DiagnosisClass.AK),
    ("SCC", DiagnosisClass.SCC),
    ("VASC", DiagnosisClass.VASC),
    ("DF", DiagnosisClass.DF),
    ("nevus", DiagnosisClass.NV),
    ("melanoma", DiagnosisClass.MEL),
    ("seborrheic keratosis", DiagnosisClass.BKL),
    ("lichenoid keratosis", DiagnosisClass.BKL),
    ("solar lentigo", DiagnosisClass.BKL),
    ("lentigo NOS", DiagnosisClass.BKL),
    ("cafe-au-lait macule", DiagnosisClass.Unknown),
    ("atypical melanocytic proliferation", DiagnosisClass.Unknown),
]


@pytest.mark.parametrize("raw,expected", MAPPING_TABLE)
def test_mapping_table(raw, expected):
    assert map_diagnosis(raw, TargetScheme.NINE_CLASS) is expected


def test_mapping_is_case_insensitive_and_trimmed():
    assert map_diagnosis("  Melanoma ", TargetScheme.NINE_CLASS) is DiagnosisClass.MEL
    assert map_diagnosis("NEVUS", TargetScheme.NINE_CLASS) is DiagnosisClass.NV
    assert map_diagnosis("bkl", TargetScheme.NINE_CLASS) is DiagnosisClass.BKL


def test_missing_and_unrecognized_map_to_unknown():
    assert map_diagnosis(None, TargetScheme.NINE_CLASS) is DiagnosisClass.Unknown
    assert map_diagnosis("", TargetScheme.NINE_CLASS) is DiagnosisClass.Unknown
    assert map_diagnosis("space lizard", TargetScheme.NINE_CLASS) is DiagnosisClass.Unknown


def test_four_class_collapse():
    assert map_diagnosis("BCC", TargetScheme.FOUR_CLASS) is DiagnosisClass.Unknown
    for name in ("BCC", "AK", "SCC", "VASC", "DF"):
        assert map_diagnosis(name, TargetScheme.FOUR_CLASS) is DiagnosisClass.Unknown
    assert map_diagnosis("melanoma", TargetScheme.FOUR_CLASS) is DiagnosisClass.MEL
    assert map_diagnosis("solar lentigo", TargetScheme.FOUR_CLASS) is DiagnosisClass.BKL


def test_four_class_commutes_with_class_index():
    # The class in the four-class column of the nine-class result is the direct
    # four-class result, for any input.
    four = TargetScheme.FOUR_CLASS
    probes = [raw for raw, _ in MAPPING_TABLE] + [None, "garbage", "  MEL  "]
    for raw in probes:
        nine = map_diagnosis(raw, TargetScheme.NINE_CLASS)
        assert four.classes[class_index(nine, four)] is map_diagnosis(raw, four)


def test_only_melanoma_spellings_reach_mel():
    mel_inputs = {raw for raw, cls in MAPPING_TABLE if cls is DiagnosisClass.MEL}
    assert mel_inputs == {"MEL", "melanoma"}
    for raw, cls in MAPPING_TABLE:
        if raw not in mel_inputs:
            assert cls is not DiagnosisClass.MEL


def test_class_index_nine_class_order():
    expected = ["NV", "MEL", "BCC", "BKL", "AK", "SCC", "VASC", "DF", "Unknown"]
    for i, name in enumerate(expected):
        assert class_index(DiagnosisClass[name], TargetScheme.NINE_CLASS) == i


def test_class_index_four_class_order():
    four = TargetScheme.FOUR_CLASS
    assert [c.name for c in four.classes] == ["NV", "MEL", "BKL", "Unknown"]
    assert [class_index(c, four) for c in four.classes] == [0, 1, 2, 3]


def test_class_index_folds_into_unknown():
    # Every nine-class label has a four-class column: its own, or Unknown's.
    four = TargetScheme.FOUR_CLASS
    assert set(DiagnosisClass) - set(four.classes) == set(FOLDED)
    for c in FOLDED:
        assert class_index(c, four) == 3
        assert map_diagnosis(c.name, four) is DiagnosisClass.Unknown


def test_scheme_classes_are_fixed_tables():
    for scheme in TargetScheme:
        assert len(scheme.classes) == scheme.class_count
        assert scheme.classes[-1] is DiagnosisClass.Unknown
        assert scheme.classes is scheme.classes
    assert TargetScheme.NINE_CLASS.classes == tuple(DiagnosisClass)
