"""Canonical record types and the toolkit's CSV formats.

A :class:`Dataset` holds the metadata table column by column, one read-only array or tuple per
field, filled straight from the CSV cells; a :class:`SampleRecord` is one row of it, built only
on request. All types are immutable after construction and safe for concurrent readers. CSV
streams are UTF-8; LF and CRLF are both accepted on read, LF is written. Every format is read
through :func:`csv_blocks`, which hands its rows over in blocks of ``_BLOCK_ROWS`` as row numbers
and row-major cells. A clean block of lines (no quote, CR or NUL, each line as wide as the header
and keyed) is cut with one ``str.split``; from the first block that is not clean, the rest goes
through ``csv.reader``, its rows checked by ``_checked_rows``, with the same rows and errors.
The keyed formats but the metadata (predictions, features, score tables, folds, sizes) are read
by :func:`csv_keyed`, and every typed cell, theirs and the metadata's ages and sizes, is cast by
:func:`cast_cells`: one ``float``/``int``-syntax cast and a bounds check, redone cell by cell
only on a failure, to name a bad cell by its column. Every keyed table (:class:`PredictionSet`,
``features.FeatureTable``, ``metrics.ScoreTable``, ``folds.FoldAssignment``) is a
:class:`KeyedTable`: a tuple of keys checked by :func:`require_unique`, and a read-only float64
(int64 for folds) array with one row per key; [0, 1] values are checked by
:func:`require_unit_interval`, each with one message form. One table's rows are found by
another's names only through :func:`values_at` (over :func:`positions` for a name tuple, as
``KeyedTable.select`` does unless the names are the table's own, in order), whose misses raise
one CoverageError form; :func:`aligned_rows` aligns a table to the metadata in both directions.
The read-only dataclasses compare by :func:`equal_fields` and are copied by
:func:`reduce_fields`. Every format is written by :func:`csv_text` from blocks of equal-length
``str`` columns, ``_BLOCK_ROWS`` rows at a time: a piece of at least two columns with no comma,
quote, CR, LF or NUL in a cell is one ``str.join``, any other goes through ``csv.writer``, so
both give ``csv.writer``'s bytes. Every float cell is written by :func:`float_cells`, each distinct
value of a block formatted once, a numeric table's blocks through :func:`float_rows`: the shortest
round-trip ``repr``, or a plain integer if integral and below 1e16, so ``parse(write(x)) == x``
holds exactly for datasets and every keyed table.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import InitVar, dataclass, field, fields
from enum import Enum
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import attrgetter
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

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
SIZE_MAX = 2**63 - 1  # sizes are held as int64


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


#: Sex by its feature code, and the metadata cell that spells each code.
_SEX_OF_CODE = {1: Sex.MALE, 0: Sex.FEMALE, -1: Sex.MISSING}
_SEX_CELL = {1: "male", 0: "female", -1: ""}


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
        age, size = self.age_approx, self.image_size_bytes
        if age is not None and not 0.0 <= age <= AGE_MAX:
            raise RangeError(f"{self.image_name}: age_approx {age} outside [0, {AGE_MAX:g}]")
        if size is not None and not 0 < size <= SIZE_MAX:
            raise RangeError(f"{self.image_name}: image_size_bytes {size} outside [1, {SIZE_MAX}]")

    @property
    def is_positive(self) -> bool:
        return self.target_binary is BinaryTarget.MALIGNANT


def equal_fields(a: object, b: object) -> bool:
    """The one value equality of the read-only dataclasses: ``b`` has ``a``'s type and every
    field is equal, arrays by value with NaN equal to NaN. A class that takes it as ``__eq__``
    is unhashable, as is any class that defines ``__eq__``."""
    return type(b) is type(a) and all(
        np.array_equal(x, y, equal_nan=True) if isinstance(x, np.ndarray) else x == y
        for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a)))


def reduce_fields(self: object) -> tuple:
    """The one ``__reduce__`` of the read-only dataclasses: a pickled or deep-copied object is
    rebuilt through its constructor from its init fields, so the copy's arrays are read-only."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.flags.writeable = False
    return out


# The columns given to Dataset, in order: None marks a tuple of str, else the array dtype.
_COLUMNS = dict(image_names=None, patient_ids=None, sex=np.int8, age=np.float64, site=None,
                diagnosis=None, positive=np.bool_, is_2020=np.bool_, size=np.int64)
# The range of each numeric Dataset column that the metadata CSV holds; a NaN age is missing.
_BOUNDS = dict(sex=(-1, 1), age=(0, AGE_MAX), size=(0, SIZE_MAX))


@dataclass(frozen=True, eq=False)
class Dataset:
    """The metadata table, one read-only column per field, rows in file order.

    ``sex`` is the feature code 1 (male) / 0 (female) / -1 (missing); ``age`` is NaN and
    ``size`` 0 where missing; ``site`` and ``diagnosis`` are the raw cells, "" where missing.
    Derived on construction: ``patient``, each row's index among patients in order of first
    appearance, and ``diagnosis_class``, each diagnosis's nine-class code. A sex code, age or size
    outside those ranges (age in [0, ``AGE_MAX``], size at least 0) raises RangeError naming the
    first bad image and its column. Image names must be unique; a repeat is reported by its
    ``row_nums`` (default 1, 2, ...). ``records`` and ``by_patient`` are per-row views built on
    first use.
    """

    image_names: tuple[str, ...]
    patient_ids: tuple[str, ...]
    sex: np.ndarray
    age: np.ndarray
    site: tuple[str, ...]
    diagnosis: tuple[str, ...]
    positive: np.ndarray
    is_2020: np.ndarray
    size: np.ndarray
    row_nums: InitVar[Sequence[int] | None] = None
    patient: np.ndarray = field(init=False)
    diagnosis_class: np.ndarray = field(init=False)

    def __post_init__(self, row_nums: Sequence[int] | None) -> None:
        n = len(self.image_names)
        for name, dtype in _COLUMNS.items():
            value = getattr(self, name)
            value = tuple(value) if dtype is None else _frozen(np.asarray(value, dtype=dtype))
            if len(value) != n:
                raise ShapeError(f"column {name} has {len(value)} rows, not {n}")
            object.__setattr__(self, name, value)
        bad = np.array([(getattr(self, name) < lo) | (getattr(self, name) > hi)
                        for name, (lo, hi) in _BOUNDS.items()])
        if bad.any():  # the first bad row, at its first bad column
            i = int(np.argmax(bad.any(axis=0)))
            name, bounds = list(_BOUNDS.items())[int(np.argmax(bad[:, i]))]
            column = getattr(self, name)
            spec = "g" if column.dtype.kind == "f" else "d"
            v, lo, hi = (format(x, spec) for x in (column[i].item(), *bounds))
            raise RangeError(f"image_name {self.image_names[i]!r}: {name} {v} outside [{lo}, {hi}]")
        require_unique(self.image_names, "image_name", row_nums)
        patient_of = dict(zip(dict.fromkeys(self.patient_ids), range(n)))
        class_of = {s: map_diagnosis(s).value for s in dict.fromkeys(self.diagnosis)}
        for name, table, keys, dtype in (("patient", patient_of, self.patient_ids, np.int64),
                                         ("diagnosis_class", class_of, self.diagnosis, np.int8)):
            object.__setattr__(self, name, _frozen(values_at(table, keys, dtype, name)))

    @classmethod
    def from_records(cls, records: Iterable[SampleRecord]) -> "Dataset":
        """The dataset of ``records``, whose ``records`` view is that very tuple."""
        recs = tuple(records)

        def column(attr: str) -> tuple:  # Enum members give their value via ``_value_``
            return tuple(map(attrgetter(attr), recs))

        code_of = {sex.value: code for code, sex in _SEX_OF_CODE.items()}
        d = cls(column("image_name"), column("patient_id"),
                values_at(code_of, column("sex._value_"), np.int8, "sex"),
                np.array(column("age_approx"), dtype=np.float64),  # None becomes NaN
                [s or "" for s in column("anatom_site")], [s or "" for s in column("diagnosis")],
                column("target_binary._value_"), np.array(column("source_year._value_")) == 2020,
                [size or 0 for size in column("image_size_bytes")])
        d.__dict__["records"] = recs  # fills the cached_property
        return d

    def __len__(self) -> int:
        return len(self.image_names)

    __eq__ = equal_fields
    __reduce__ = reduce_fields

    @cached_property
    def records(self) -> tuple[SampleRecord, ...]:
        """The rows as SampleRecords."""
        columns = (getattr(self, name) if dtype is None else getattr(self, name).tolist()
                   for name, dtype in _COLUMNS.items())
        return tuple(
            SampleRecord(name, pid, _SEX_OF_CODE[sex], None if math.isnan(age) else age,
                         site or None, diagnosis or None, BinaryTarget(int(positive)),
                         SourceYear(2020 if is_2020 else 2019), size or None)
            for name, pid, sex, age, site, diagnosis, positive, is_2020, size in zip(*columns)
        )

    @cached_property
    def by_patient(self) -> dict[str, tuple[int, ...]]:
        """patient_id -> positions of its rows in row order, patients in order
        of first appearance; every row appears exactly once."""
        order = np.argsort(self.patient, kind="stable")
        groups = np.split(order, np.cumsum(np.bincount(self.patient))[:-1])
        return {pid: tuple(g.tolist()) for pid, g in zip(dict.fromkeys(self.patient_ids), groups)}


def values_at(table: Mapping, keys: Collection, dtype, what: str) -> np.ndarray:
    """The one checked name lookup: ``table[key]`` for each of ``keys``, as a 1-D array of
    ``dtype``. If any key is missing, CoverageError ``<what> missing N image(s), first: 'X'``
    counts every missing key, repeats included, and names the first."""
    try:
        return np.fromiter(map(table.__getitem__, keys), dtype=dtype)
    except KeyError:
        missing = [key for key in keys if key not in table]
    raise CoverageError(f"{what} missing {len(missing)} image(s), first: {missing[0]!r}")


def positions(names: Sequence[str]) -> dict[str, int]:
    """name -> its position in ``names``: the table that ``values_at`` aligns rows through."""
    return dict(zip(names, range(len(names))))


def require_unique(names: Sequence[str], key: str, rows: Sequence[int] | None = None) -> None:
    """Raise UniquenessError ``duplicate <key> 'X' (rows i and j)`` for the name repeated soonest,
    at its first two uses; ``rows`` numbers the names (default 1, 2, ...)."""
    if len(set(names)) == len(names):
        return
    first = dict(zip(reversed(names), range(len(names) - 1, -1, -1)))  # name -> first position
    again = int(np.flatnonzero(values_at(first, names, np.int64, key) != np.arange(len(names)))[0])
    rows = range(1, len(names) + 1) if rows is None else rows
    raise UniquenessError(f"duplicate {key} {names[again]!r} "
                          f"(rows {rows[first[names[again]]]} and {rows[again]})")


def require_unit_interval(values: np.ndarray, keys: Sequence[str], key: str,
                          columns: Sequence[str]) -> None:
    """Raise RangeError ``<key> 'X': <column>=v outside [0, 1]`` for the first cell of
    ``values`` in row order that is NaN or outside [0, 1], named by ``keys`` and ``columns``."""
    ok = (values >= 0.0) & (values <= 1.0)  # NaN fails both comparisons
    if not ok.all():
        at = int(np.argmin(ok))
        i, j = divmod(at, len(columns))
        raise RangeError(f"{key} {keys[i]!r}: {columns[j]}={values.flat[at].item()!r} "
                         "outside [0, 1]")


@dataclass(frozen=True, eq=False)
class KeyedTable:
    """Base of the keyed tables, frozen dataclasses whose first field is a tuple of unique keys and
    whose second is a read-only array of the class's ``dtype`` with one row per key; further fields
    are the subclass's own. On construction the keys become a tuple, a repeat raises UniquenessError
    through :func:`require_unique` with the class's key column ``key``, the subclass's
    ``_check(keys, values)`` checks the array's shape and values, and the table holds a read-only
    copy of the array. Tables are equal by :func:`equal_fields`, row order included."""

    key = "image_name"
    dtype = np.float64

    def __post_init__(self) -> None:
        keys_field, values_field = (f.name for f in fields(self)[:2])
        keys = tuple(getattr(self, keys_field))
        require_unique(keys, self.key)
        values = np.asarray(getattr(self, values_field), dtype=self.dtype)
        self._check(keys, values)
        object.__setattr__(self, keys_field, keys)
        object.__setattr__(self, values_field, _frozen(values))

    def _columns(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self)[:2])

    def __len__(self) -> int:
        return len(self._columns()[0])

    __eq__ = equal_fields
    __reduce__ = reduce_fields

    def select(self, keys: Sequence[str], what: str) -> np.ndarray:
        """A copy of the rows of ``keys``, in that order. CoverageError names the table as
        ``what`` and the first key it lacks. When ``keys`` are the table's own keys in order, as
        for every file the CLI writes, the copy is taken without a name lookup."""
        names, values = self._columns()
        if tuple(keys) == names:
            return values.copy()
        return values[values_at(positions(names), keys, np.intp, what)]


def aligned_rows(table: KeyedTable, d: Dataset, what: str) -> np.ndarray:
    """The one two-way alignment of a keyed table to the metadata: ``table``'s rows for ``d``'s
    images, in ``d``'s order. CoverageError names ``what`` and the first image ``table`` lacks,
    or reads ``metadata missing N image(s), first: 'X'`` for images ``d`` lacks."""
    rows = table.select(d.image_names, what)
    if len(table) > len(d):  # names on both sides are unique
        values_at(positions(d.image_names), table._columns()[0], np.intp, "metadata")
    return rows


@dataclass(frozen=True, slots=True)
class ValidationIssue:
    image_name: str
    rule: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[ValidationIssue, ...]
    warnings: tuple[ValidationIssue, ...]


Blocks = Iterator[tuple[Sequence[int], list[str]]]


def csv_blocks(text: str, noun: str) -> tuple[list[str], Blocks]:
    """The one CSV reader: the header, and the non-blank rows, numbered from 1 after the header,
    in blocks of ``_BLOCK_ROWS``, each as its row numbers and one new list of its cells, row after
    row. A missing header, a row not as wide as the header or with an empty first cell (its key),
    or anything the csv module rejects (e.g. a field over its size limit) raises FormatError.

    ``csv.reader`` reads the header from the line iterator, taking only the header's own lines.
    The rest is cut into blocks of ``_BLOCK_ROWS`` lines. A block whose lines ``csv.reader``
    would read as clean rows (see :func:`_clean_cells`) is split in one ``str.split``. From the
    first block that is not clean, the rest of the text, from its first line and row number, goes
    through ``csv.reader``, its rows checked by :func:`_checked_rows`, so a fault is raised once
    its block is reached.
    """
    lines = _lines(text)
    try:
        header = next(csv.reader(lines), None)
    except csv.Error as exc:
        raise FormatError(f"{noun} header: {exc}") from None
    if header is None:
        raise FormatError(f"empty {noun} stream: no header row")
    return header, _blocks(lines, header, noun)


def csv_columns(blocks: Blocks, width: int) -> tuple[list[int], list[list[str]]]:
    """All of ``csv_blocks``' rows as their row numbers and one list of cells per column. Equal
    cells of a column share one string, so a repeated value is held once."""
    row_nums: list[int] = []
    columns: list[list[str]] = [[] for _ in range(width)]
    shared: list[dict[str, str]] = [{} for _ in range(width)]
    for nums, cells in blocks:
        row_nums.extend(nums)
        for i, (column, same) in enumerate(zip(columns, shared)):
            part = cells[i::width]
            column.extend(map(same.setdefault, part, part))
    return row_nums, columns


def csv_keyed(header: list[str], blocks: Blocks, dtype=np.float64,
              bounds: tuple | None = None) -> tuple[tuple[str, ...], np.ndarray]:
    """All of ``csv_blocks``' rows as their keys and a ``dtype`` matrix of their other cells, each
    block cast by :func:`cast_cells` under ``header[1:]``, so a bad cell raises for the first one
    in row order. A repeated key raises UniquenessError naming both rows, once every row has
    parsed."""
    width = len(header)
    nums: list[int] = []
    names: list[str] = []
    parts = [np.empty(0, dtype)]
    for block_nums, cells in blocks:
        keys = cells[::width]
        del cells[::width]
        parts.append(cast_cells(cells, block_nums, header[1:], dtype, bounds))
        del cells  # this block's strings go before the next block's are made
        nums.extend(block_nums)
        names.extend(keys)
    require_unique(names, header[0], nums)
    return tuple(names), np.concatenate(parts).reshape(-1, width - 1)


def cast_cells(cells: list[str], row_nums: Sequence[int], columns: Sequence[str],
               dtype=np.float64, bounds: tuple | None = None) -> np.ndarray:
    """The one checked cast of CSV cells: the row-major ``cells`` of rows ``row_nums`` and
    ``columns`` as a 1-D ``dtype`` array in one call, which reads a cell as Python ``float`` or
    ``int`` does, checked against the inclusive ``bounds``. Only if that fails is each cell read
    in turn with ``float`` (``int`` for an integer dtype), and the first bad cell in row order
    raises FormatError ``row N: non-numeric <column> 'x'`` (``non-integer``) or RangeError
    ``row N: <column> v outside [lo, hi]``, numbers formatted ``g`` (``d``)."""
    try:
        values = np.array(cells, dtype)
        if bounds is None or ((values >= bounds[0]) & (values <= bounds[1])).all():
            return values
    except (ValueError, OverflowError):
        pass
    integer = np.dtype(dtype).kind == "i"
    read, kind, spec = (int, "integer", "d") if integer else (float, "numeric", "g")
    out = []
    for i, cell in enumerate(cells):
        row, column = row_nums[i // len(columns)], columns[i % len(columns)]
        try:
            value = read(cell)
        except ValueError:
            raise FormatError(f"row {row}: non-{kind} {column} {cell!r}") from None
        if bounds is not None and not bounds[0] <= value <= bounds[1]:
            lo, hi = (format(b, spec) for b in bounds)
            raise RangeError(f"row {row}: {column} {value:{spec}} outside [{lo}, {hi}]")
        out.append(value)
    return np.array(out, dtype)


_BLOCK_ROWS = 4096
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


def _blocks(lines: Iterator[str], header: list[str], noun: str) -> Blocks:
    start = 1
    while block := list(islice(lines, _BLOCK_ROWS)):
        cells = _clean_cells(block, len(header))
        if cells is None:
            rows = _checked_rows(csv.reader(chain(block, lines)), header, noun, start)
            while part := list(islice(rows, _BLOCK_ROWS)):
                nums, table = zip(*part)
                yield nums, [cell for row in table for cell in row]
            return
        yield range(start, start + len(block)), cells
        del cells  # a consumer done with the block frees it before the next one is cut
        start += len(block)


def _clean_cells(lines: list[str], width: int) -> list[str] | None:
    """The cells of ``lines``, row after row, if the block is clean, else None.

    It is clean when ``csv.reader`` would read each line as one row of ``width`` cells with a
    non-empty key, exactly as splitting it on commas gives them: no line holds a quote or a CR,
    nor a NUL, which ``csv`` rejects before Python 3.11; none is longer, its LF counted, than
    ``csv.field_size_limit()``; every line has ``width - 1`` commas; and no key cell is empty,
    which also rules out blank lines."""
    text = "".join(lines)
    if '"' in text or "\r" in text or "\0" in text:
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    if set(map(str.count, lines, repeat(","))) != {width - 1}:
        return None
    text = text.replace("\n", ",")
    cells = text.split(",")
    del cells[len(lines) * width:]  # the empty cell after the last line's LF
    return None if "" in cells[::width] else cells


def _checked_rows(reader: Iterator[list[str]], header: list[str], noun: str,
                  start: int) -> Iterator[tuple[int, list[str]]]:
    """``(row_num, row)`` per non-blank row of ``reader``, numbered from ``start``."""
    width = len(header)
    row_num = start - 1
    try:
        for row_num, row in enumerate(reader, start=start):
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


def csv_text(header: Sequence[str], blocks: Iterable[Sequence[Sequence[str]]]) -> str:
    """The one CSV writer: the header row and the rows of ``blocks``, LF-terminated, exactly as
    ``csv.writer`` writes them. Each block is a list of equal-length columns of ``str`` cells,
    written ``_BLOCK_ROWS`` rows at a time through :func:`_rows_text`."""
    parts = [_rows_text([[cell] for cell in header])]
    for block in blocks:
        rows = min(map(len, block), default=0)
        if max(map(len, block), default=0) != rows:
            raise ShapeError(f"block columns of {sorted(set(map(len, block)))} rows")
        for start in range(0, rows, _BLOCK_ROWS):
            parts.append(_rows_text(
                block if rows <= _BLOCK_ROWS else [c[start:start + _BLOCK_ROWS] for c in block]))
    return "".join(parts)


def _rows_text(columns: Sequence[Sequence[str]]) -> str:
    """The rows of the equal-length ``columns`` as ``csv.writer`` writes them, LF-terminated.

    With at least two columns and no cell holding a comma, quote, CR, LF or NUL, the writer quotes
    nothing, so the rows are one ``str.join`` of the cells by commas and LFs; the joined text is
    checked to hold only the joins' commas and LFs, and no quote, CR or NUL (``csv.writer`` quotes
    a CR from Python 3.13 on and rejects a NUL before 3.11). Any other rows go through
    :func:`_csv_writer_text`, which quotes what needs it and writes ``""`` for a row whose one
    field is empty."""
    width = len(columns)
    if width >= 2:
        text = "\n".join(map(",".join, zip(*columns))) + "\n"
        rows = len(columns[0])
        if (text.count(",") == rows * (width - 1) and text.count("\n") == rows
                and '"' not in text and "\r" not in text and "\0" not in text):
            return text
    return _csv_writer_text(zip(*columns))


def _csv_writer_text(rows: Iterable[Sequence[str]]) -> str:
    """``rows`` written by ``csv.writer``, LF-terminated: :func:`_rows_text`'s path for rows that
    the join cannot write."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def float_cells(a: np.ndarray) -> list[str]:
    """The one float formatter: each value of the 1-D float64 array ``a`` as its shortest
    round-trip ``repr``, or as a plain integer if integral and below 1e16 (-0.0 as ``0``). Each
    distinct value is formatted once; ``np.unique`` merges 0.0 with -0.0 and NaN with NaN, whose
    cells are the same."""
    distinct, at = np.unique(a, return_inverse=True)
    cells = list(map(repr, distinct.tolist()))
    small = np.flatnonzero(np.abs(distinct) < 1e16)  # np.trunc of a NaN can warn
    whole = small[np.trunc(distinct[small]) == distinct[small]]
    for i, v in zip(whole.tolist(), distinct[whole].astype(np.int64).tolist()):
        cells[i] = str(v)
    return np.array(cells, object)[at].tolist()


def float_rows(names: Sequence[str], values: np.ndarray) -> Iterator[list[Sequence[str]]]:
    """``csv_text`` blocks of ``_BLOCK_ROWS`` rows: the names, then one column of cells per column
    of the float64 matrix ``values``, formatted a block at a time, since a whole feature table's
    strings at once double its memory."""
    width = values.shape[1]
    for start in range(0, len(names), _BLOCK_ROWS):
        cells = float_cells(values[start:start + _BLOCK_ROWS].ravel())
        yield [names[start:start + _BLOCK_ROWS], *(cells[j::width] for j in range(width))]


def parse_metadata_csv(text: str) -> Dataset:
    """Parse the metadata CSV format into a Dataset.

    Expected header: ``image_name,patient_id,sex,age_approx,
    anatom_site_general_challenge,diagnosis,target,source`` with an optional
    trailing ``image_size_bytes`` column. Empty cells denote missing values;
    ``target`` is 0/1 and ``source`` is 2019/2020. Rows keep file order.
    Columns are checked in header order; an error names a column's first bad row.
    """
    header, blocks = csv_blocks(text, "metadata")
    expected = list(METADATA_COLUMNS)
    if header not in (expected, expected + [SIZE_COLUMN]):
        missing = [c for c in expected if c not in header]
        if missing:
            raise FormatError("metadata header is missing column(s): " + ", ".join(missing))
        raise FormatError(f"unrecognized metadata header: {','.join(header)!r}")
    nums, columns = csv_columns(blocks, len(header))
    names, pids, sex, age, site, diagnosis, target, source = columns[:8]
    sizes = columns[8] if len(columns) > 8 else [""] * len(nums)
    if "" in pids:
        raise FormatError(f"row {nums[pids.index('')]}: empty patient_id")
    code_of = {cell: code for code, cell in _SEX_CELL.items()}
    return Dataset(
        names,
        pids,
        _coded(sex, nums, lambda c: code_of.get(c.strip().lower()), np.int8, "invalid sex {!r}"),
        _present(age, nums, "age_approx", np.nan, np.float64, (0, AGE_MAX)),
        site,
        diagnosis,
        _coded(target, nums, {"0": 0, "1": 1}.get, np.bool_, "target must be 0 or 1, got {!r}"),
        _coded(source, nums, {"2019": 0, "2020": 1}.get, np.bool_,
               "source must be 2019 or 2020, got {!r}"),
        _present(sizes, nums, SIZE_COLUMN, 0, np.int64, (1, SIZE_MAX)),
        nums,
    )


def _coded(cells: Sequence[str], row_nums: Sequence[int], code: Callable[[str], object],
           dtype, problem: str) -> np.ndarray:
    """``code(cell)`` for each cell, called once per distinct cell; the first
    cell coded None raises FormatError naming its row and ``problem.format(cell)``."""
    codes = {cell: code(cell) for cell in dict.fromkeys(cells)}
    bad = next((cell for cell, c in codes.items() if c is None), None)
    if bad is not None:
        raise FormatError(f"row {row_nums[cells.index(bad)]}: " + problem.format(bad))
    return values_at(codes, cells, dtype, "codes")


def _present(cells: Sequence[str], row_nums: Sequence[int], column: str, missing: object,
             dtype, bounds: tuple) -> np.ndarray:
    """The non-empty cells of ``column`` through :func:`cast_cells`, ``missing`` for the empty
    ones."""
    given = np.array(list(map(bool, cells)), dtype=bool)
    out = np.full(len(cells), missing, dtype=dtype)
    out[given] = cast_cells(list(compress(cells, given)), list(compress(row_nums, given)),
                            (column,), dtype, bounds)
    return out


def write_metadata_csv(d: Dataset) -> str:
    """Serialize a Dataset back to metadata-CSV text (inverse of parsing)."""
    ages = np.where(np.isnan(d.age), "", np.array(float_cells(d.age), object)).tolist()
    columns = [d.image_names, d.patient_ids, list(map(_SEX_CELL.__getitem__, d.sex.tolist())),
               ages, d.site, d.diagnosis, np.where(d.positive, "1", "0").tolist(),
               np.where(d.is_2020, "2020", "2019").tolist()]
    if d.size.any():
        columns.append(np.where(d.size > 0, d.size.astype(str), "").tolist())
    header = list(METADATA_COLUMNS) + [SIZE_COLUMN] * (len(columns) - len(METADATA_COLUMNS))
    return csv_text(header, [columns])


def validate_consistency(d: Dataset) -> ValidationReport:
    """Check dataset-level label consistency.

    Errors: a present diagnosis that maps to MEL paired with a benign label,
    or a malignant label whose present diagnosis maps elsewhere (the binary
    target must agree with the melanoma class). Warnings: records with a
    missing diagnosis, and a 2020-cohort positive ratio that strays from the
    expected 1.76% by more than a factor of two.
    """
    has_diagnosis = np.array(list(map(bool, d.diagnosis)), dtype=bool)
    is_mel = d.diagnosis_class == DiagnosisClass.MEL.value
    errors = tuple(
        ValidationIssue(
            d.image_names[i], "target-diagnosis-mismatch",
            f"diagnosis {d.diagnosis[i]!r} maps to MEL but target is benign" if is_mel[i]
            else f"target is malignant but diagnosis {d.diagnosis[i]!r} does not map to MEL",
        )
        for i in np.flatnonzero(has_diagnosis & (is_mel != d.positive)).tolist()
    )
    warnings = [
        ValidationIssue(d.image_names[i], "diagnosis-missing",
                        "diagnosis missing; melanoma consistency not verifiable")
        for i in np.flatnonzero(~has_diagnosis).tolist()
    ]
    n_2020 = int(d.is_2020.sum())
    ratio = int((d.positive & d.is_2020).sum()) / max(n_2020, 1)
    if n_2020 and not EXPECTED_2020_POSITIVE_RATE / 2 <= ratio <= EXPECTED_2020_POSITIVE_RATE * 2:
        warnings.append(ValidationIssue(
            "*", "positive-rate-2020", f"2020 positive ratio {ratio:.4f} deviates from "
            f"{EXPECTED_2020_POSITIVE_RATE:.4f} by more than a factor of 2"))
    return ValidationReport(errors, tuple(warnings))


_SCORE_HEADER = ["image_name", "target"]


def _full_header(scheme: TargetScheme) -> list[str]:
    return ["image_name"] + [f"prob_{c.name}" for c in scheme.classes]


@dataclass(frozen=True, eq=False)
class PredictionSet(KeyedTable):
    """Per-image melanoma scores, each in [0, 1], stored read-only.

    This is the only in-memory form of predictions: a full class-probability
    file is reduced to its MEL column as it is parsed.
    """

    image_names: tuple[str, ...]
    scores: np.ndarray

    @staticmethod
    def _check(keys: tuple[str, ...], values: np.ndarray) -> None:
        if values.shape != (len(keys),):
            raise ShapeError(f"scores shape {values.shape} != ({len(keys)},)")
        require_unit_interval(values, keys, "image_name", ("score",))

    @classmethod
    def from_scores(
        cls, image_names: Iterable[str], scores: np.ndarray | Iterable[float]
    ) -> "PredictionSet":
        if not isinstance(scores, (np.ndarray, Sequence)):
            scores = list(scores)
        return cls(image_names, scores)

    def score_map(self) -> dict[str, float]:
        """image_name -> score."""
        return dict(zip(self.image_names, self.scores.tolist()))


def write_predictions_csv(p: PredictionSet) -> str:
    """Serialize predictions as ``image_name,target``."""
    return csv_text(_SCORE_HEADER, float_rows(p.image_names, p.scores[:, None]))


def parse_predictions_csv(text: str) -> PredictionSet:
    """Parse a prediction CSV into melanoma scores.

    ``image_name,target`` holds the scores themselves. A full class-probability
    file, ``image_name,prob_<CLASS>,...`` in nine- or four-class column order,
    must hold values in [0, 1] with each row summing to 1 within 1e-9; it
    is reduced to its MEL column. A file without data rows raises FormatError.
    """
    header, blocks = csv_blocks(text, "prediction")
    if header == _SCORE_HEADER:
        scheme = None
    elif header == _full_header(TargetScheme.NINE_CLASS):
        scheme = TargetScheme.NINE_CLASS
    elif header == _full_header(TargetScheme.FOUR_CLASS):
        scheme = TargetScheme.FOUR_CLASS
    else:
        raise FormatError(f"unrecognized prediction header: {','.join(header)!r}")

    names, arr = csv_keyed(header, blocks)
    if not names:
        raise FormatError("prediction CSV contains no data rows")
    if scheme is None:
        return PredictionSet(names, arr[:, 0])
    require_unit_interval(arr, names, "image_name", header[1:])
    sums = arr.sum(axis=1)
    if (off := np.abs(sums - 1.0) > 1e-9).any():
        i = int(np.argmax(off))
        raise DomainError(f"image_name {names[i]!r}: probabilities sum to {sums[i].item()!r}; "
                          "rows must sum to 1 within 1e-9")
    return PredictionSet(names, arr[:, class_index(DiagnosisClass.MEL, scheme)])
