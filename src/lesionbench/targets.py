"""Diagnosis-to-target mapping for the nine-class and four-class label schemes.

The two source cohorts label lesions differently: the older one uses short
codes (``NV``, ``MEL``, ...) while the newer one uses free-text phrases
(``nevus``, ``melanoma``, ``seborrheic keratosis``, ...). Both vocabularies
map onto one canonical nine-class target space; a reduced four-class scheme
keeps NV, MEL, BKL and folds everything else into Unknown.
"""

from __future__ import annotations

from enum import Enum

from .errors import DomainError


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


NINE_CLASS_ORDER: tuple[DiagnosisClass, ...] = tuple(DiagnosisClass)

FOUR_CLASS_ORDER: tuple[DiagnosisClass, ...] = (
    DiagnosisClass.NV,
    DiagnosisClass.MEL,
    DiagnosisClass.BKL,
    DiagnosisClass.Unknown,
)

#: Classes that the four-class scheme folds into Unknown.
COLLAPSED_CLASSES: frozenset[DiagnosisClass] = frozenset(
    {
        DiagnosisClass.BCC,
        DiagnosisClass.AK,
        DiagnosisClass.SCC,
        DiagnosisClass.VASC,
        DiagnosisClass.DF,
    }
)


class TargetScheme(Enum):
    """Label space used for training and prediction columns."""

    NINE_CLASS = 9
    FOUR_CLASS = 4

    @property
    def class_count(self) -> int:
        return self.value

    @property
    def classes(self) -> tuple[DiagnosisClass, ...]:
        """Classes of this scheme in column order."""
        if self is TargetScheme.NINE_CLASS:
            return NINE_CLASS_ORDER
        return FOUR_CLASS_ORDER


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


def collapse(c: DiagnosisClass) -> DiagnosisClass:
    """Fold a nine-class label into the four-class scheme."""
    return DiagnosisClass.Unknown if c in COLLAPSED_CLASSES else c


def map_diagnosis(
    raw: str | None, scheme: TargetScheme = TargetScheme.NINE_CLASS
) -> DiagnosisClass:
    """Map a raw diagnosis string to its target class.

    Total function: missing and unrecognized strings map to Unknown. Matching
    is case-insensitive and ignores surrounding whitespace.
    """
    if raw is None:
        cls = DiagnosisClass.Unknown
    else:
        cls = _DIAGNOSIS_ALIASES.get(raw.strip().lower(), DiagnosisClass.Unknown)
    if scheme is TargetScheme.FOUR_CLASS:
        cls = collapse(cls)
    return cls


def class_index(c: DiagnosisClass, scheme: TargetScheme) -> int:
    """Position of class ``c`` in the scheme's column order (0-based).

    Under the four-class scheme the class must already be collapsed; the five
    folded classes have no index of their own there.
    """
    if scheme is TargetScheme.NINE_CLASS:
        return c.value
    if c in COLLAPSED_CLASSES:
        raise DomainError(
            f"{c.name} has no index in the four-class scheme; collapse it first"
        )
    return FOUR_CLASS_ORDER.index(c)
