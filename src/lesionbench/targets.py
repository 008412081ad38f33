"""Diagnosis-to-target mapping for the nine-class and four-class label schemes.

The two source cohorts label lesions differently: the older one uses short
codes (``NV``, ``MEL``, ...) while the newer one uses free-text phrases
(``nevus``, ``melanoma``, ``seborrheic keratosis``, ...). Both vocabularies
map onto one canonical nine-class target space; a reduced four-class scheme
keeps NV, MEL, BKL and folds everything else into Unknown. A scheme's
``classes`` is its column order and the one table of its columns: both
``map_diagnosis`` and ``class_index`` read it.
"""

from __future__ import annotations

from enum import Enum


class DiagnosisClass(Enum):
    """Canonical lesion classes; declaration order fixes all column orders."""

    NV = 0
    MEL = 1
    BCC = 2
    BKL = 3
    AK = 4
    SCC = 5
    VASC = 6
    DF = 7
    Unknown = 8


class TargetScheme(Enum):
    """Label space used for training and prediction columns.

    Each member is defined by its ``classes``, the scheme's classes in column
    order, built once; its value is its class count. Unknown, last in both
    schemes, also stands for every class the scheme has no column for.
    """

    classes: tuple[DiagnosisClass, ...]

    NINE_CLASS = tuple(DiagnosisClass)
    FOUR_CLASS = (DiagnosisClass.NV, DiagnosisClass.MEL, DiagnosisClass.BKL,
                  DiagnosisClass.Unknown)

    def __new__(cls, *classes: DiagnosisClass) -> "TargetScheme":
        scheme = object.__new__(cls)
        scheme._value_ = len(classes)
        scheme.classes = classes
        return scheme

    @property
    def class_count(self) -> int:
        return self.value


# Normalized spelling -> class. Short codes come from the older cohort's
# vocabulary, phrases from the newer one; lookups are case-insensitive and
# whitespace-trimmed, so only lowercase keys appear here.
_DIAGNOSIS_ALIASES: dict[str, DiagnosisClass] = {
    "nv": DiagnosisClass.NV,
    "mel": DiagnosisClass.MEL,
    "bcc": DiagnosisClass.BCC,
    "bkl": DiagnosisClass.BKL,
    "ak": DiagnosisClass.AK,
    "scc": DiagnosisClass.SCC,
    "vasc": DiagnosisClass.VASC,
    "df": DiagnosisClass.DF,
    "nevus": DiagnosisClass.NV,
    "melanoma": DiagnosisClass.MEL,
    "seborrheic keratosis": DiagnosisClass.BKL,
    "lichenoid keratosis": DiagnosisClass.BKL,
    "solar lentigo": DiagnosisClass.BKL,
    "lentigo nos": DiagnosisClass.BKL,
    "cafe-au-lait macule": DiagnosisClass.Unknown,
    "atypical melanocytic proliferation": DiagnosisClass.Unknown,
}


def map_diagnosis(
    raw: str | None, scheme: TargetScheme = TargetScheme.NINE_CLASS
) -> DiagnosisClass:
    """Map a raw diagnosis string to its target class in ``scheme``.

    Total function: missing and unrecognized strings map to Unknown, and so
    does a class that ``scheme`` has no column for. Matching is
    case-insensitive and ignores surrounding whitespace.
    """
    if raw is None:
        return DiagnosisClass.Unknown
    cls = _DIAGNOSIS_ALIASES.get(raw.strip().lower(), DiagnosisClass.Unknown)
    return cls if cls in scheme.classes else DiagnosisClass.Unknown


def class_index(c: DiagnosisClass, scheme: TargetScheme) -> int:
    """The column (0-based) that class ``c`` trains in under ``scheme``: its
    own, or Unknown's where the scheme has no column for it."""
    classes = scheme.classes
    return classes.index(c if c in classes else DiagnosisClass.Unknown)
