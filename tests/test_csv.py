"""The shared CSV layer: one block-wise reader, its per-row path and one writer
behind all six formats (metadata, predictions, features, folds, score table,
sizes), and one float formatter behind every numeric writer."""

import csv
import dataclasses
import io
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lesionbench import cli, datamodel, features, folds, metrics
from lesionbench.cli import _read_sizes_csv, write_history_csv
from lesionbench.datamodel import (
    METADATA_COLUMNS,
    SIZE_MAX,
    Dataset,
    PredictionSet,
    Sex,
    _lines,
    cast_cells,
    csv_blocks,
    csv_keyed,
    csv_rows,
    csv_text,
    float_cells,
    float_rows,
    parse_metadata_csv,
    parse_predictions_csv,
    require_unique,
    write_metadata_csv,
    write_predictions_csv,
)
from lesionbench.errors import (
    DomainError,
    FormatError,
    LesionbenchError,
    RangeError,
    ShapeError,
    UniquenessError,
)
from lesionbench.features import FeatureTable, read_feature_csv, write_feature_csv
from lesionbench.folds import assign_folds, read_folds_csv, write_folds_csv
from lesionbench.fusion import EpochStats
from lesionbench.metrics import ScoreTable, parse_score_table, write_score_table
from util import (
    make_dataset,
    make_record,
    reference_csv_text,
    reference_float_rows,
    reference_format_float,
    reference_read_keyed,
    reference_require_unique,
)

META = ",".join(METADATA_COLUMNS)

# reader, header, one valid data row
FORMATS = {
    "metadata": (parse_metadata_csv, META, "I1,P1,male,45,torso,nevus,0,2020"),
    "metadata+size": (parse_metadata_csv, META + ",image_size_bytes",
                      "I1,P1,male,45,torso,nevus,0,2020,1234"),
    "scalar predictions": (parse_predictions_csv, "image_name,target", "I1,0.25"),
    "9c predictions": (
        parse_predictions_csv,
        "image_name,prob_NV,prob_MEL,prob_BCC,prob_BKL,prob_AK,prob_SCC,"
        "prob_VASC,prob_DF,prob_Unknown",
        "I1,0.5,0.5,0,0,0,0,0,0,0",
    ),
    "4c predictions": (parse_predictions_csv, "image_name,prob_NV,prob_MEL,prob_BKL,prob_Unknown",
                       "I1,0.25,0.25,0.25,0.25"),
    "features": (read_feature_csv, "image_name,f0,f1", "I1,0.5,-1"),
    "cnn": (lambda t: read_feature_csv(t, prefix="c"), "image_name,c0", "I1,3"),
    "folds": (read_folds_csv, "image_name,fold", "I1,0"),
    "score table": (parse_score_table, "model,cv_all,cv_2020,private_lb,public_lb",
                    "m1,0.9,0.9,0.9,0.9"),
    "sizes": (_read_sizes_csv, "image_name,image_size_bytes", "I1,1234"),
}
READERS = {
    "metadata": parse_metadata_csv,
    "predictions": parse_predictions_csv,
    "features": read_feature_csv,
    "folds": read_folds_csv,
    "score table": parse_score_table,
    "sizes": _read_sizes_csv,
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_valid_row_parses_with_blank_lines_skipped(fmt):
    reader, header, row = FORMATS[fmt]
    assert reader(f"{header}\n\n{row}\n\n") is not None


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("change", ["drop", "add"])
def test_every_format_checks_row_width(fmt, change):
    reader, header, row = FORMATS[fmt]
    bad = row.rsplit(",", 1)[0] if change == "drop" else row + ",0"
    with pytest.raises(FormatError, match="row 2: expected"):
        reader(f"{header}\n{row}\n{bad}\n")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_format_rejects_an_empty_key_cell(fmt):
    reader, header, row = FORMATS[fmt]
    key = header.split(",")[0]
    with pytest.raises(FormatError, match=f"^row 2: empty {key}$"):
        reader(f"{header}\n{row}\n{row[row.index(','):]}\n")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_numeric_formats_name_a_repeated_key_and_both_rows(fmt):
    reader, header, row = FORMATS[fmt]
    key, name = header.split(",")[0], row.split(",")[0]
    with pytest.raises(UniquenessError, match=rf"^duplicate {key} '{name}' \(rows 1 and 3\)$"):
        reader(f"{header}\n{row}\n\n{row}\n")


@pytest.mark.parametrize("make, key, values", [
    (PredictionSet.from_scores, "image_name", [0.5] * 3),
    (FeatureTable, "image_name", np.zeros((3, 2))),
    (ScoreTable, "model", np.full((3, 4), 0.5)),
], ids=["PredictionSet", "FeatureTable", "ScoreTable"])
def test_keyed_tables_name_a_repeated_key_and_both_rows(make, key, values):
    with pytest.raises(UniquenessError, match=rf"^duplicate {key} 'a' \(rows 1 and 3\)$"):
        make(("a", "b", "a"), values)


NINE = FORMATS["9c predictions"][1]


@pytest.mark.parametrize("reader, text, message", [
    (parse_predictions_csv, "image_name,target\na,0.5\nb,1.5\n",
     "image_name 'b': score=1.5 outside [0, 1]"),
    (parse_predictions_csv, f"{NINE}\na,0.5,nan,0.5,0,0,0,0,0,0\n",
     "image_name 'a': prob_MEL=nan outside [0, 1]"),
    (parse_score_table, "model,cv_all,cv_2020,private_lb,public_lb\nm,0.5,1.2,-1,0.5\n",
     "model 'm': cv_2020=1.2 outside [0, 1]"),
], ids=["scalar predictions", "9c predictions", "score table"])
def test_range_errors_name_the_key_and_column_of_the_first_bad_cell(reader, text, message):
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        reader(text)


TYPED_CELL_ERRORS = {  # reader, text, error, message
    "scalar predictions": (parse_predictions_csv, "image_name,target\nI1,x\n", FormatError,
                           "row 1: non-numeric target 'x'"),
    "9c predictions": (parse_predictions_csv, f"{NINE}\nI1,0.5,x,0.5,0,0,0,0,0,0\n",
                       FormatError, "row 1: non-numeric prob_MEL 'x'"),
    "features": (read_feature_csv, "image_name,f0,f1,f2,f3\nI1,0,0,0,0\nI2,0,0,0,x\n",
                 FormatError, "row 2: non-numeric f3 'x'"),
    "cnn": (lambda t: read_feature_csv(t, prefix="c"), "image_name,c0,c1,c2,c3\nI1,0,0,0,x\n",
            FormatError, "row 1: non-numeric c3 'x'"),
    "score table": (parse_score_table, "model,cv_all,cv_2020,private_lb,public_lb\n"
                    "m1,0.9,x,0.9,0.9\n", FormatError, "row 1: non-numeric cv_2020 'x'"),
    "negative fold": (read_folds_csv, "image_name,fold\nI1,0\nI2,-1\n", RangeError,
                      f"row 2: fold -1 outside [0, {2**63 - 1}]"),
    "fold 2**63": (read_folds_csv, f"image_name,fold\nI1,{2**63}\n", RangeError,
                   f"row 1: fold {2**63} outside [0, {2**63 - 1}]"),
    "age 130": (parse_metadata_csv, f"{META}\nI1,P1,male,130,torso,nevus,0,2020\n", RangeError,
                "row 1: age_approx 130 outside [0, 120]"),
    "size 0": (_read_sizes_csv, "image_name,image_size_bytes\nI1,0\n", RangeError,
               f"row 1: image_size_bytes 0 outside [1, {SIZE_MAX}]"),
}


@pytest.mark.parametrize("case", sorted(TYPED_CELL_ERRORS))
def test_a_bad_typed_cell_is_named_by_its_row_and_header_column(case):
    reader, text, error, message = TYPED_CELL_ERRORS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        reader(text)


def test_cast_cells_checks_the_bounds_of_every_cell_it_reads():
    # A cell that casts but lies outside the bounds is reported, named by its own row and column.
    with pytest.raises(RangeError, match=r"^row 7: b 2 outside \[0, 1\]$"):
        cast_cells(["0", "1", "0.5", "2"], [4, 7], ["a", "b"], np.float64, (0, 1))
    with pytest.raises(FormatError, match=r"^row 4: non-integer a '1\.5'$"):
        cast_cells(["1.5", "x"], [4], ["a", "b"], np.int64, (0, 9))


def test_value_errors_name_the_first_offending_image():
    with pytest.raises(DomainError, match=r"^image_name 'b': feature column 1 is inf; "
                                          r"feature values must be finite$"):
        read_feature_csv("image_name,c0,c1\na,0,1\nb,1,inf\nc,-inf,0\n", prefix="c")
    with pytest.raises(DomainError, match=r"^image_name 'b': probabilities sum to 0\.9; "
                                          r"rows must sum to 1 within 1e-9$"):
        parse_predictions_csv(f"{NINE}\na,0,1,0,0,0,0,0,0,0\nb,0.5,0.4,0,0,0,0,0,0,0\n")


@pytest.mark.parametrize("fmt, bad_row, message", [
    ("folds", "b,x", "row 3: non-integer fold 'x'"),
    ("sizes", "b,0", "row 3: image_size_bytes 0 outside [1, "),
])
def test_a_bad_cell_is_reported_before_an_earlier_repeated_key(fmt, bad_row, message):
    reader, header, row = FORMATS[fmt]
    with pytest.raises(LesionbenchError, match=re.escape(message)):
        reader(f"{header}\n{row}\n{row}\n{bad_row}\n")


@pytest.mark.parametrize("fmt, message", [
    ("folds", "row 1: non-integer fold 'x'"),
    ("sizes", "row 1: non-integer image_size_bytes 'x'"),
])
def test_a_row_shape_fault_is_reported_before_a_bad_cell_earlier_in_its_block(fmt, message):
    reader, header, row = FORMATS[fmt]
    key, cell = row.split(",")
    bad, wide = f"{key},x", f"{row},0"
    with pytest.raises(FormatError, match=r"^row 3: expected 2 fields, got 3$"):
        reader(f"{header}\n{bad}\nJ,{cell}\n{wide}\n")
    # In a later block, the shape fault comes after the bad cell: blocks keep row order.
    filler = "".join(f"J{i},{cell}\n" for i in range(datamodel._BLOCK_ROWS))
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        reader(f"{header}\n{bad}\n{filler}{wide}\n")


@settings(max_examples=300, deadline=None)
@given(names=st.lists(st.text(alphabet="abc", min_size=1, max_size=2), max_size=12),
       gaps=st.lists(st.integers(1, 3), min_size=12, max_size=12), numbered=st.booleans())
def test_require_unique_matches_the_per_row_oracle(names, gaps, numbered):
    rows = np.cumsum(gaps)[:len(names)].tolist() if numbered else None
    outcomes = []
    for check in (require_unique, reference_require_unique):
        try:
            check(names, "image_name", rows)
            outcomes.append(None)
        except UniquenessError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_format_rejects_empty_text(fmt):
    reader, _, _ = FORMATS[fmt]
    with pytest.raises(FormatError, match="no header row"):
        reader("")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_csv_module_errors_become_format_errors(fmt):
    reader, header, row = FORMATS[fmt]
    oversized = "x" * 200_000  # over the csv module's 131072-char field limit
    with pytest.raises(FormatError):
        reader(f"{header}\n{oversized},{row}\n")
    with pytest.raises(FormatError):
        reader(f"{header}\n{row[:1]}\r{row[1:]}\n")  # lone CR inside a field
    with pytest.raises(FormatError):
        reader(f"{oversized}\n{row}\n")


def test_csv_rows_yields_row_numbers_of_non_blank_rows():
    header, rows = csv_rows("a,b\n1,2\n\n3,4\n", "test")
    assert header == ["a", "b"]
    assert list(rows) == [(1, ["1", "2"]), (3, ["3", "4"])]


def test_csv_text_is_lf_terminated_and_quotes_minimally():
    text = csv_text(["a", "b", "c"], [[["1", "2"], ["x,y", 'q"'], ["", "z"]]])
    assert text == 'a,b,c\n1,"x,y",\n2,"q""",z\n'
    header, rows = csv_rows(text, "test")
    assert [row for _, row in rows] == [["1", "x,y", ""], ["2", 'q"', "z"]]
    with pytest.raises(ShapeError, match=r"^block columns of \[1, 2\] rows$"):
        csv_text(["a", "b"], [[["1", "2"], ["x"]]])  # zip would drop the second row


# Cells that csv.writer quotes or writes as they are: its delimiter, quote and line ends, NUL,
# line and record separators other than LF, spaces and empty cells.
WRITTEN_CELLS = st.sampled_from(["", " "]) | st.text(
    alphabet=',"\r\n\x00\x0b\x1c\x85\u2028 a', max_size=4)


def _written(write, header, rows):
    try:
        return write(header, rows)
    except csv.Error as exc:
        return csv.Error, str(exc)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_csv_text_writes_what_csv_writer_writes(data):
    # Joined and csv.writer pieces alternate: blocks of any size are cut into pieces of 1-3 rows.
    width, block_rows = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    row = st.lists(WRITTEN_CELLS, min_size=width, max_size=width)
    header, rows = data.draw(row), data.draw(st.lists(row, max_size=10))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    blocks = [[[r[j] for r in rows[i:k]] for j in range(width)]
              for i, k in zip([0, *cuts], [*cuts, len(rows)])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datamodel, "_BLOCK_ROWS", block_rows)
        assert _written(csv_text, header, blocks) == _written(reference_csv_text, header, rows)


def _reader_rows(lines):
    try:
        return list(csv.reader(lines))
    except csv.Error:
        return csv.Error


# Line and record separators other than LF must stay inside their line.
LINEISH = st.text(alphabet=',\n\r\x0b\x0c\x1c\x85\u2028"a \x00', max_size=80)


@settings(max_examples=200, deadline=None)
@given(text=LINEISH | st.text(max_size=80), piece=st.sampled_from([1, 2, 5, 1 << 16]))
def test_csv_rows_reads_the_lines_stringio_gives(text, piece):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datamodel, "_PIECE_CHARS", piece)
        assert list(_lines(text)) == list(io.StringIO(text))
        assert _reader_rows(_lines(text)) == _reader_rows(io.StringIO(text))


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=60, deadline=None)
@given(text=st.text(max_size=200))
def test_arbitrary_text_gives_a_value_or_a_toolkit_error(name, text):
    try:
        READERS[name](text)
    except LesionbenchError:
        pass


CSVISH = st.text(alphabet=',\n\r"0123456789.-+eEinfaI_PmlMNV xé', max_size=120)


def _rows_or_error(read, text):
    """``read``'s header and ``(row_num, row)`` pairs for ``text``, or its error message."""
    try:
        header, body = read(text, "test")
        if read is csv_rows:
            return header, list(body)
        width = len(header)
        return header, [(num, cells[i * width:(i + 1) * width])
                        for nums, cells in body for i, num in enumerate(nums)]
    except FormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(text=LINEISH | CSVISH, block_rows=st.integers(1, 3))
@example(text='"a\nb",c\n1,2\n', block_rows=1)  # a quoted header over two lines
def test_csv_blocks_gives_the_rows_and_errors_of_csv_rows(text, block_rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datamodel, "_BLOCK_ROWS", block_rows)
        assert _rows_or_error(csv_blocks, text) == _rows_or_error(csv_rows, text)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=60, deadline=None)
@given(body=CSVISH)
@example(body="D,9223372036854775808")  # folds past int64, which CSVISH seldom draws
@example(body="D,18446744073709551616")
def test_valid_header_with_arbitrary_body_gives_a_value_or_a_toolkit_error(fmt, body):
    reader, header, _ = FORMATS[fmt]
    try:
        reader(f"{header}\n{body}")
    except LesionbenchError:
        pass


# Cells that float() reads in unusual ways or rejects: signs, "_", exponents,
# whitespace, NUL, nan/inf spellings and non-ASCII digits.
ODD_CELLS = st.text(alphabet="0123456789+-_.eE \t\x0c\u2003\x00nafityNAFIY\u0663\u0665",
                    max_size=6)
NUMBERS = st.floats(0, 1).map(repr) | st.sampled_from(["0", "1", "0.25"]) | st.floats().map(repr)
# Integer cells, with the edges of the int64 fold and size bounds and cells that ``int`` reads
# in unusual ways.
INTEGERS = st.integers(0, 2**63 - 1).map(str) | st.sampled_from(
    ["-1", "0", "1", str(2**63 - 1), str(2**63), " 7", "1_0", "\u0663"])

# The dtype and bounds that each format's reader hands ``csv_keyed``, and its cells.
KEYED = dict.fromkeys(["features", "scalar predictions", "9c predictions", "4c predictions",
                       "score table"], (np.float64, None, NUMBERS)) | {
    "folds": (np.int64, (0, folds.FOLD_MAX), INTEGERS),
    "sizes": (np.int64, (1, SIZE_MAX), INTEGERS),
}


def _keyed(read, text, dtype, bounds):
    """``read``'s keys and value bytes for ``text``, or its error."""
    try:
        names, values = read(*csv_blocks(text, "test"), dtype, bounds)
    except LesionbenchError as exc:
        return type(exc), str(exc)
    return names, values.tobytes()


def _read(reader, text):
    """What ``reader`` makes of ``text``: every field of its result, arrays as bytes, or its
    error."""
    try:
        out = reader(text)
    except LesionbenchError as exc:
        return type(exc), str(exc)
    # The sizes reader gives a tuple of names and sizes; the others, a dataclass.
    values = out if isinstance(out, tuple) else [getattr(out, f.name)
                                                 for f in dataclasses.fields(out)]
    return [v.tobytes() if isinstance(v, np.ndarray) else v for v in values]


@pytest.mark.parametrize("fmt", sorted(KEYED))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_block_wise_parse_matches_the_per_row_oracle(fmt, data):
    # Faults are reported in one order by both: a row-shape fault anywhere in a block before a
    # bad cell in an earlier row of that block, blocks in row order, and a repeat last.
    reader, header, _ = FORMATS[fmt]
    dtype, bounds, values = KEYED[fmt]
    header = header.split(",")
    if fmt == "features":
        header = header[:1] + [f"f{i}" for i in range(data.draw(st.integers(1, 16)))]
    width = len(header)
    cells = data.draw(st.lists(st.lists(values, min_size=width - 1, max_size=width - 1),
                               max_size=10))
    prefix = data.draw(st.text(max_size=3))
    rows = [[f"{prefix}{i}"] + r for i, r in enumerate(cells)]
    edits = st.tuples(st.sampled_from(["cell", "empty", "key", "drop", "add", "blank", "repeat"]),
                      st.integers(0, 9), st.integers(1, width - 1), ODD_CELLS)
    for kind, i, j, odd in data.draw(st.lists(edits, max_size=3)) if rows else ():
        row = rows[i % len(rows)]
        if kind == "cell" and len(row) > j:
            row[j] = odd
        elif kind == "empty" and len(row) > j:
            row[j] = ""
        elif kind == "key" and row:
            row[0] = ""
        elif kind == "drop" and len(row) > 1:
            row.pop()
        elif kind == "add" and row:
            row.append("0")
        elif kind == "blank":
            rows.insert(i % len(rows), [])
        elif kind == "repeat" and row and rows[j % len(rows)]:
            row[0] = rows[j % len(rows)][0]
    text = reference_csv_text(header, rows)  # rows of any width

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datamodel, "_BLOCK_ROWS", 3)  # faults fall on block edges
        got = _keyed(csv_keyed, text, dtype, bounds), _read(reader, text)
        for module in (datamodel, features, metrics, folds, cli):
            mp.setattr(module, "csv_keyed", reference_read_keyed)
        want = _keyed(reference_read_keyed, text, dtype, bounds), _read(reader, text)
    assert got == want


FAULTS = ("quote", "quoted", "cr", "crlf", "nul", "drop", "add", "key", "blank", "long", "cell",
          "repeat")


def _faulty_body(data, row):
    """Up to ten well-formed rows like ``row``, each with its own key, and several faults."""
    key, rest = row.split(",", 1)
    lines = [f"{key}{i},{rest}" for i in range(data.draw(st.integers(1, 10)))]
    edits = st.tuples(st.sampled_from(FAULTS), st.integers(0, 99), st.integers(0, 99), ODD_CELLS)
    for kind, i, j, odd in data.draw(st.lists(edits, max_size=4)):
        at = i % len(lines)
        line, cells = lines[at], lines[at].split(",")
        pos = j % (len(line) + 1)
        if kind == "quote":
            line = line[:pos] + '"' + line[pos:]
        elif kind == "quoted":  # csv.reader reads it as the bare key
            line = ",".join([f'"{cells[0]}"'] + cells[1:])
        elif kind == "cr":
            line = line[:pos] + "\r" + line[pos:]
        elif kind == "crlf":
            line += "\r"
        elif kind == "nul":
            line = line[:pos] + "\0" + line[pos:]
        elif kind == "drop":
            line = ",".join(cells[:-1])
        elif kind == "add":
            line += ",0"
        elif kind == "key":
            line = ",".join([""] + cells[1:])
        elif kind == "blank":
            lines.insert(at, "")
            continue
        elif kind == "long":  # over the low field size limit below
            line = ",".join(cells[:j % len(cells)] + ["9" * 50] + cells[j % len(cells) + 1:])
        elif kind == "cell" and len(cells) > 1:
            line = ",".join(cells[:1 + j % (len(cells) - 1)] + [odd]
                            + cells[2 + j % (len(cells) - 1):])
        elif kind == "repeat":
            line = ",".join([lines[j % len(lines)].split(",")[0]] + cells[1:])
        lines[at] = line
    return "\n".join(lines) + data.draw(st.sampled_from(["", "\n"]))


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_block_wise_split_gives_what_the_per_row_path_gives(fmt, data):
    # Every reader's keys and value bytes, or its error's type and message, are
    # the same with the clean-block test declining every block.
    reader, header, row = FORMATS[fmt]
    body = data.draw(LINEISH | CSVISH | st.builds(_faulty_body, st.data(), st.just(row)))
    text = f"{header}\n{body}"
    old_limit = csv.field_size_limit()
    csv.field_size_limit(data.draw(st.sampled_from([40, old_limit])))
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(datamodel, "_BLOCK_ROWS", data.draw(st.integers(1, 3)))
            got = _read(reader, text)
            mp.setattr(datamodel, "_clean_cells", lambda lines, width: None)
            want = _read(reader, text)
    finally:
        csv.field_size_limit(old_limit)
    assert got == want


def _write_and_read_every_format():
    """Write a seeded table of each format across several blocks and check that it reads back."""
    rng = np.random.default_rng(0)
    n = 10
    names = tuple(f"ISIC_{i:07d}" for i in range(n))
    d = make_dataset(
        make_record(name, patient_id=f"P{i // 2}", sex=(Sex.MALE, Sex.FEMALE, Sex.MISSING)[i % 3],
                    age=None if i % 4 == 0 else 2.5 * i, site=None if i % 5 == 0 else "torso",
                    diagnosis=None if i % 3 == 0 else "nevus", size=None if i % 2 else 1000 + i)
        for i, name in enumerate(names))
    assert parse_metadata_csv(write_metadata_csv(d)) == d
    sizes = np.arange(100, 100 + n)
    got = _read_sizes_csv(csv_text(["image_name", "image_size_bytes"],
                                   [[names, list(map(str, sizes.tolist()))]]))
    assert got[0] == names and np.array_equal(got[1], sizes)
    f = assign_folds(d, 3, seed=0)
    assert read_folds_csv(write_folds_csv(d, f)) == f
    for prefix, width in (("f", 14), ("c", 4)):
        feats = FeatureTable(names, rng.normal(size=(n, width)))
        assert read_feature_csv(write_feature_csv(feats, prefix), prefix) == feats
    preds = PredictionSet(names, rng.random(n))
    assert parse_predictions_csv(write_predictions_csv(preds)) == preds
    for fmt in ("9c predictions", "4c predictions"):
        header = FORMATS[fmt][1].split(",")
        probs = rng.dirichlet(np.ones(len(header) - 1), size=n)
        mel = probs[:, header.index("prob_MEL") - 1]
        text = csv_text(header, float_rows(names, probs))
        assert parse_predictions_csv(text) == PredictionSet(names, mel)
    scores = ScoreTable(tuple(f"m{i}" for i in range(n)), rng.random((n, 4)))
    assert parse_score_table(write_score_table(scores)) == scores


def test_every_writers_output_is_read_without_the_per_row_path(monkeypatch):
    def per_row(*args):
        raise AssertionError("a written file took the per-row path")

    monkeypatch.setattr(datamodel, "_checked_rows", per_row)
    monkeypatch.setattr(datamodel, "_BLOCK_ROWS", 3)  # several blocks and a short last one
    _write_and_read_every_format()


def test_every_writer_writes_without_the_csv_writer_path(monkeypatch):
    def csv_writer(rows):
        raise AssertionError("rows took the csv.writer path")

    monkeypatch.setattr(datamodel, "_csv_writer_text", csv_writer)
    monkeypatch.setattr(datamodel, "_BLOCK_ROWS", 3)  # several blocks and a short last one
    _write_and_read_every_format()
    history = [EpochStats(k, e, 0.5 / (e + 1), 0.25 * e, None if e else 0.75)
               for k in range(2) for e in range(3)]
    assert write_history_csv(history) == reference_csv_text(
        ["fold", "epoch", "lr", "train_loss", "val_auc"],
        [[str(h.fold), str(h.epoch), repr(h.lr), repr(h.train_loss),
          "" if h.val_auc is None else repr(h.val_auc)] for h in history])
    # A block holding a name with a comma is left to csv.writer, and gets its bytes.
    table = FeatureTable(("I0", "a,b", "I2", "I3"), np.arange(8.0).reshape(4, 2) / 4)
    with pytest.raises(AssertionError, match="csv.writer"):
        write_feature_csv(table)
    monkeypatch.undo()
    monkeypatch.setattr(datamodel, "_BLOCK_ROWS", 3)
    (block,) = reference_float_rows(table.image_names, table.values)
    assert write_feature_csv(table) == reference_csv_text(["image_name", "f0", "f1"], zip(*block))


MAX = sys.float_info.max
EDGE_FLOATS = [-0.0, 1e16, -1e16, 1e16 - 2, 9999999999999998.0, 5e-324, -5e-324, MAX, -MAX,
               1e15 + 0.5]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats() | st.sampled_from(EDGE_FLOATS), max_size=40))
def test_float_cells_match_the_per_cell_oracle(values):
    assert float_cells(np.array(values, np.float64)) == list(map(reference_format_float, values))


# A small pool, so that ``np.unique`` merges repeats: 0.0 with -0.0, NaNs of other payloads and
# signs, the infinities, and the edges of the integer and float formats.
POOL = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 1e16 - 2, 1e16, 5e-324, 0.1, -3.0],
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
              0xFFFFFFFFFFFFFFFF], np.uint64).view(np.float64),
])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, len(POOL) - 1), max_size=40))
def test_float_cells_of_repeated_values_match_the_per_cell_oracle(at):
    values = POOL[at]
    assert float_cells(values) == list(map(reference_format_float, values.tolist()))


def _metadata_with_ages(names, ages):
    n = len(names)
    return Dataset(names, names, np.zeros(n), ages, ("",) * n, ("",) * n, np.zeros(n),
                   np.zeros(n), np.zeros(n))


UNIT = st.floats(0, 1) | st.sampled_from([0.0, -0.0, 1.0, 0.5])
WRITERS = {  # cells, width, writer of (names, matrix)
    "metadata": (st.floats(0, 120) | st.sampled_from([np.nan, -0.0, 45.0]), 1,
                 lambda names, v: write_metadata_csv(_metadata_with_ages(names, v[:, 0]))),
    "features": (st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS),
                 3, lambda names, v: write_feature_csv(FeatureTable(names, v))),
    "cnn": (st.sampled_from(EDGE_FLOATS + [0.0, 2.0, -3.0]), 2,
            lambda names, v: write_feature_csv(FeatureTable(names, v), prefix="c")),
    "predictions": (UNIT, 1, lambda names, v: write_predictions_csv(PredictionSet(names, v[:, 0]))),
    "score table": (UNIT, 4, lambda names, v: write_score_table(ScoreTable(names, v))),
}


@pytest.mark.parametrize("fmt", sorted(WRITERS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_block_wise_writes_match_the_per_cell_oracle(fmt, data):
    cells, width, write = WRITERS[fmt]
    rows = data.draw(st.lists(st.lists(cells, min_size=width, max_size=width), max_size=10))
    names = tuple(f"I{i}" for i in range(len(rows)))
    values = np.array(rows, np.float64).reshape(-1, width)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datamodel, "_BLOCK_ROWS", 3)  # rows fall on both sides of block edges
        got = write(names, values)
        for module in (datamodel, features, metrics):
            mp.setattr(module, "float_rows", reference_float_rows)
        mp.setattr(datamodel, "float_cells",
                   lambda a: list(map(reference_format_float, a.tolist())))
        want = write(names, values)
    assert got == want
