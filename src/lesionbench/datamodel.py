"""Canonical record types and the toolkit's CSV formats.

All types are immutable after construction and safe for concurrent readers.
CSV streams are UTF-8; LF and CRLF are both accepted on read, LF is written.
Floats are written in their shortest round-trip representation, so
``parse(write(x)) == x`` holds exactly for datasets and prediction sets.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Container, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    CoverageError,
    DomainError,
    FormatError,
    RangeError,
    ShapeError,
    UniquenessError,
)
from .targets import DiagnosisClass, TargetScheme, class_index, map_diagnosis

METADATA_COLUMNS = (
    "image_name",
    "patient_id",
    "sex",
    "age_approx",
    "anatom_site_general_challenge",
    "diagnosis",
    "target",
    "source",
)
SIZE_COLUMN = "image_size_bytes"

#: Positive ratio of the newer cohort used as a sanity-check anchor.
EXPECTED_2020_POSITIVE_RATE = 0.0176

AGE_MAX = 120.0


class Sex(Enum):
    MALE = "male"
    FEMALE = "female"
    MISSING = "missing"


class BinaryTarget(Enum):
    BENIGN = 0
    MALIGNANT = 1


class SourceYear(Enum):
    Y2019 = 2019
    Y2020 = 2020


@dataclass(frozen=True, slots=True)
class SampleRecord:
    """One lesion image's metadata row."""

    image_name: str
    patient_id: str
    sex: Sex
    age_approx: float | None
    anatom_site: str | None
    diagnosis: str | None
    target_binary: BinaryTarget
    source_year: SourceYear
    image_size_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.age_approx is not None and not 0.0 <= self.age_approx <= AGE_MAX:
            raise RangeError(
                f"{self.image_name}: age_approx {self.age_approx} outside [0, {AGE_MAX:g}]"
            )
        if self.image_size_bytes is not None and self.image_size_bytes <= 0:
            raise RangeError(
                f"{self.image_name}: image_size_bytes must be positive, "
                f"got {self.image_size_bytes}"
            )

    @property
    def is_positive(self) -> bool:
        return self.target_binary is BinaryTarget.MALIGNANT


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of records with a patient index.

    ``by_patient`` maps each patient_id to the positions of its records, in
    record order; every record appears in the index exactly once.
    """

    records: tuple[SampleRecord, ...]
    by_patient: dict[str, tuple[int, ...]]

    @classmethod
    def from_records(cls, records: Iterable[SampleRecord]) -> "Dataset":
        recs = tuple(records)
        seen: dict[str, int] = {}
        groups: dict[str, list[int]] = {}
        for pos, rec in enumerate(recs):
            if rec.image_name in seen:
                raise UniquenessError(
                    f"duplicate image_name {rec.image_name!r} "
                    f"(rows {seen[rec.image_name] + 1} and {pos + 1})"
                )
            seen[rec.image_name] = pos
            groups.setdefault(rec.patient_id, []).append(pos)
        return cls(recs, {pid: tuple(ix) for pid, ix in groups.items()})

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[SampleRecord]:
        return iter(self.records)

    @cached_property
    def image_names(self) -> tuple[str, ...]:
        return tuple(r.image_name for r in self.records)


@dataclass(frozen=True, slots=True)
class ValidationIssue:
    image_name: str
    rule: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[ValidationIssue, ...]
    warnings: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


Rows = Iterator[tuple[int, list[str]]]


def csv_rows(text: str, noun: str) -> tuple[list[str], Rows]:
    """The one CSV reader: the header, and ``(row_num, row)`` per non-blank row.

    Every row must be as wide as the header, and its first cell, the row's
    key, must not be empty. A missing header, a wrong width, an empty key, or
    anything the csv module rejects (e.g. a field over its size limit) raises
    FormatError; callers check the header's names and parse the cells.
    """
    reader = csv.reader(_lines(text))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise FormatError(f"{noun} header: {exc}") from None
    if header is None:
        raise FormatError(f"empty {noun} stream: no header row")
    return header, _checked_rows(reader, header, noun)


_PIECE_CHARS = 1 << 16


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text``, split on LF only with ends kept, exactly as
    iterating ``io.StringIO(text)`` gives them.

    One StringIO of the whole text would hold a 4-byte-per-character copy of
    it, so the text goes through StringIO in pieces of about
    ``_PIECE_CHARS`` characters, each ending just after an LF.
    """

    def pieces() -> Iterator[str]:
        start = 0
        while start < len(text):
            end = text.find("\n", start + _PIECE_CHARS) + 1 or len(text)
            yield text[start:end]
            start = end

    return chain.from_iterable(map(io.StringIO, pieces()))


def _checked_rows(reader: Iterator[list[str]], header: list[str], noun: str) -> Rows:
    width = len(header)
    row_num = 0
    try:
        for row_num, row in enumerate(reader, start=1):
            if not row:  # tolerate blank lines
                continue
            if len(row) != width:
                raise FormatError(
                    f"row {row_num}: expected {width} fields, got {len(row)}"
                )
            if not row[0]:
                raise FormatError(f"row {row_num}: empty {header[0]}")
            yield row_num, row
    except csv.Error as exc:
        raise FormatError(f"{noun} row {row_num + 1}: {exc}") from None


def csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """The one CSV writer: a header and its rows, LF-terminated."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def parse_metadata_csv(text: str) -> Dataset:
    """Parse the metadata CSV format into a Dataset.

    Expected header: ``image_name,patient_id,sex,age_approx,
    anatom_site_general_challenge,diagnosis,target,source`` with an optional
    trailing ``image_size_bytes`` column. Empty cells denote missing values;
    ``target`` is 0/1 and ``source`` is 2019/2020. Records are returned in
    file order.
    """
    header, rows = csv_rows(text, "metadata")
    expected = list(METADATA_COLUMNS)
    if header == expected:
        has_size = False
    elif header == expected + [SIZE_COLUMN]:
        has_size = True
    else:
        missing = [c for c in expected if c not in header]
        if missing:
            raise FormatError(
                "metadata header is missing column(s): " + ", ".join(missing)
            )
        raise FormatError(f"unrecognized metadata header: {','.join(header)!r}")
    return Dataset.from_records(
        _parse_metadata_row(row, row_num, has_size) for row_num, row in rows
    )


def _parse_metadata_row(row: list[str], row_num: int, has_size: bool) -> SampleRecord:
    image_name, patient_id = row[0], row[1]
    if not patient_id:
        raise FormatError(f"row {row_num}: empty patient_id")

    sex_cell = row[2].strip().lower()
    if sex_cell == "":
        sex = Sex.MISSING
    elif sex_cell in ("male", "female"):
        sex = Sex(sex_cell)
    else:
        raise FormatError(f"row {row_num}: invalid sex {row[2]!r}")

    age: float | None = None
    if row[3] != "":
        try:
            age = float(row[3])
        except ValueError:
            raise FormatError(
                f"row {row_num}: non-numeric age_approx {row[3]!r}"
            ) from None
        if not 0.0 <= age <= AGE_MAX:
            raise RangeError(
                f"row {row_num}: age_approx {age:g} outside [0, {AGE_MAX:g}]"
            )

    site = row[4] if row[4] != "" else None
    diagnosis = row[5] if row[5] != "" else None

    if row[6] == "0":
        target = BinaryTarget.BENIGN
    elif row[6] == "1":
        target = BinaryTarget.MALIGNANT
    else:
        raise FormatError(f"row {row_num}: target must be 0 or 1, got {row[6]!r}")

    if row[7] == "2019":
        source = SourceYear.Y2019
    elif row[7] == "2020":
        source = SourceYear.Y2020
    else:
        raise FormatError(
            f"row {row_num}: source must be 2019 or 2020, got {row[7]!r}"
        )

    size: int | None = None
    if has_size and row[8] != "":
        try:
            size = int(row[8])
        except ValueError:
            raise FormatError(
                f"row {row_num}: non-integer image_size_bytes {row[8]!r}"
            ) from None
        if size <= 0:
            raise RangeError(
                f"row {row_num}: image_size_bytes must be positive, got {size}"
            )

    return SampleRecord(
        image_name=image_name,
        patient_id=patient_id,
        sex=sex,
        age_approx=age,
        anatom_site=site,
        diagnosis=diagnosis,
        target_binary=target,
        source_year=source,
        image_size_bytes=size,
    )


def _format_float(v: float) -> str:
    # repr() is the shortest digit string that round-trips; drop a trailing
    # ".0" so integral values stay as plain integers.
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def write_metadata_csv(d: Dataset) -> str:
    """Serialize a Dataset back to metadata-CSV text (inverse of parsing)."""
    has_size = any(r.image_size_bytes is not None for r in d.records)
    header = list(METADATA_COLUMNS) + ([SIZE_COLUMN] if has_size else [])
    return csv_text(header, (_metadata_row(r, has_size) for r in d.records))


def _metadata_row(r: SampleRecord, has_size: bool) -> list[str]:
    row = [
        r.image_name,
        r.patient_id,
        "" if r.sex is Sex.MISSING else r.sex.value,
        "" if r.age_approx is None else _format_float(r.age_approx),
        r.anatom_site or "",
        r.diagnosis or "",
        str(r.target_binary.value),
        str(r.source_year.value),
    ]
    if has_size:
        row.append("" if r.image_size_bytes is None else str(r.image_size_bytes))
    return row


def validate_consistency(d: Dataset) -> ValidationReport:
    """Check dataset-level label consistency.

    Errors: a present diagnosis that maps to MEL paired with a benign label,
    or a malignant label whose present diagnosis maps elsewhere (the binary
    target must agree with the melanoma class). Warnings: records with a
    missing diagnosis, and a 2020-cohort positive ratio that strays from the
    expected 1.76% by more than a factor of two.
    """
    errors: list[ValidationIssue] = []
    warnings: list[ValidationIssue] = []
    n_2020 = 0
    pos_2020 = 0
    for r in d.records:
        if r.source_year is SourceYear.Y2020:
            n_2020 += 1
            pos_2020 += int(r.is_positive)
        if r.diagnosis is None:
            warnings.append(
                ValidationIssue(
                    r.image_name,
                    "diagnosis-missing",
                    "diagnosis missing; melanoma consistency not verifiable",
                )
            )
            continue
        is_mel = map_diagnosis(r.diagnosis, TargetScheme.NINE_CLASS) is DiagnosisClass.MEL
        if is_mel and not r.is_positive:
            errors.append(
                ValidationIssue(
                    r.image_name,
                    "target-diagnosis-mismatch",
                    f"diagnosis {r.diagnosis!r} maps to MEL but target is benign",
                )
            )
        elif not is_mel and r.is_positive:
            errors.append(
                ValidationIssue(
                    r.image_name,
                    "target-diagnosis-mismatch",
                    f"target is malignant but diagnosis {r.diagnosis!r} does not map to MEL",
                )
            )
    if n_2020 > 0:
        ratio = pos_2020 / n_2020
        low = EXPECTED_2020_POSITIVE_RATE / 2
        high = EXPECTED_2020_POSITIVE_RATE * 2
        if ratio < low or ratio > high:
            warnings.append(
                ValidationIssue(
                    "*",
                    "positive-rate-2020",
                    f"2020 positive ratio {ratio:.4f} deviates from "
                    f"{EXPECTED_2020_POSITIVE_RATE:.4f} by more than a factor of 2",
                )
            )
    return ValidationReport(tuple(errors), tuple(warnings))


_SCORE_HEADER = ["image_name", "target"]


def _full_header(scheme: TargetScheme) -> list[str]:
    return ["image_name"] + [f"prob_{c.name}" for c in scheme.classes]


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Per-image melanoma scores, each in [0, 1], stored read-only.

    This is the only in-memory form of predictions: a full class-probability
    file is reduced to its MEL column as it is parsed.
    """

    image_names: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.image_names)
        if len(set(self.image_names)) != n:
            raise UniquenessError("prediction image names are not unique")
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.shape != (n,):
            raise ShapeError(f"scores shape {arr.shape} != ({n},)")
        _check_unit_interval(arr)
        object.__setattr__(self, "scores", _frozen(arr))

    @classmethod
    def from_scores(
        cls, image_names: Iterable[str], scores: np.ndarray | Iterable[float]
    ) -> "PredictionSet":
        if not isinstance(scores, (np.ndarray, Sequence)):
            scores = list(scores)
        return cls(tuple(image_names), np.asarray(scores, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.image_names)

    def score_map(self) -> dict[str, float]:
        """image_name -> score."""
        return dict(zip(self.image_names, self.scores.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PredictionSet):
            return NotImplemented
        return self.image_names == other.image_names and bool(
            np.array_equal(self.scores, other.scores)
        )

    __hash__ = None  # type: ignore[assignment]


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.flags.writeable = False
    return out


def _check_unit_interval(arr: np.ndarray) -> None:
    # NaN fails both comparisons, so it is rejected here too.
    ok = (arr >= 0.0) & (arr <= 1.0)
    if not bool(np.all(ok)):
        bad = arr[~ok].flat[0]
        raise RangeError(f"probability {bad!r} outside [0, 1]")


def write_predictions_csv(p: PredictionSet) -> str:
    """Serialize predictions as ``image_name,target``."""
    return csv_text(
        _SCORE_HEADER,
        ([name, _format_float(float(s))] for name, s in zip(p.image_names, p.scores)),
    )


def parse_predictions_csv(text: str) -> PredictionSet:
    """Parse a prediction CSV into melanoma scores.

    ``image_name,target`` holds the scores themselves. A full class-probability
    file, ``image_name,prob_<CLASS>,...`` in nine- or four-class column order,
    must hold values in [0, 1] with each row summing to 1 within 1e-9; it
    is reduced to its MEL column.
    """
    header, rows = csv_rows(text, "prediction")
    if header == _SCORE_HEADER:
        scheme = None
    elif header == _full_header(TargetScheme.NINE_CLASS):
        scheme = TargetScheme.NINE_CLASS
    elif header == _full_header(TargetScheme.FOUR_CLASS):
        scheme = TargetScheme.FOUR_CLASS
    else:
        raise FormatError(f"unrecognized prediction header: {','.join(header)!r}")

    names: list[str] = []
    values: list[list[float]] = []
    for row_num, row in rows:
        try:
            vals = [float(cell) for cell in row[1:]]
        except ValueError:
            raise FormatError(f"row {row_num}: non-numeric score") from None
        names.append(row[0])
        values.append(vals)

    arr = np.asarray(values, dtype=np.float64).reshape(-1, len(header) - 1)
    if scheme is None:
        return PredictionSet(tuple(names), arr[:, 0])
    _check_unit_interval(arr)
    if len(arr) and np.max(np.abs(arr.sum(axis=1) - 1.0)) > 1e-9:
        raise DomainError("probability rows must sum to 1 within 1e-9")
    return PredictionSet(tuple(names), arr[:, class_index(DiagnosisClass.MEL, scheme)])


def require_coverage(required: Iterable[str], available: Container[str], what: str) -> None:
    """Raise CoverageError naming the first of ``required`` not in ``available``.

    ``available`` should answer ``in`` cheaply: a dict, set or FeatureTable.
    """
    missing = [name for name in required if name not in available]
    if missing:
        raise CoverageError(
            f"{what} missing {len(missing)} image(s), first: {missing[0]!r}"
        )
