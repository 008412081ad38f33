"""Shared test helpers: record factories and independent oracles."""

from __future__ import annotations

import csv
import io
import itertools
import math
from typing import Iterator, Mapping

import numpy as np

from lesionbench import fusion, metrics
from lesionbench.datamodel import (
    AGE_MAX,
    METADATA_COLUMNS,
    SIZE_COLUMN,
    SIZE_MAX,
    BinaryTarget,
    Dataset,
    SampleRecord,
    Sex,
    SourceYear,
)
from lesionbench.errors import CoverageError, DomainError, FormatError, RangeError, UniquenessError
from lesionbench.folds import FoldAssignment
from lesionbench.hashing import MASK64


def make_record(
    image_name: str,
    patient_id: str = "P1",
    sex: Sex = Sex.MALE,
    age: float | None = 50.0,
    site: str | None = "torso",
    diagnosis: str | None = "nevus",
    malignant: bool = False,
    year: int = 2020,
    size: int | None = None,
) -> SampleRecord:
    return SampleRecord(
        image_name=image_name,
        patient_id=patient_id,
        sex=sex,
        age_approx=age,
        anatom_site=site,
        diagnosis=diagnosis,
        target_binary=BinaryTarget.MALIGNANT if malignant else BinaryTarget.BENIGN,
        source_year=SourceYear.Y2019 if year == 2019 else SourceYear.Y2020,
        image_size_bytes=size,
    )


def make_dataset(records) -> Dataset:
    return Dataset.from_records(records)


def make_folds(fold_of: Mapping[str, int], k: int) -> FoldAssignment:
    """The split that puts each image of ``fold_of`` in its fold, rows in the mapping's order."""
    return FoldAssignment(tuple(fold_of), list(fold_of.values()), k)


def csv_rows(text: str, noun: str) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The CSV text read by one ``csv.reader`` over ``io.StringIO(text)``: the header, and
    ``(row_num, row)`` per non-blank row, numbered from 1 after the header with blank lines
    counted. The oracle for the block-wise ``datamodel.csv_blocks``, with its own rules and the
    library's FormatError messages: no header, a row not as wide as the header, an empty first
    cell (the row's key), or a ``csv.Error`` raised as the row is read."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise FormatError(f"{noun} header: {exc}") from None
    if header is None:
        raise FormatError(f"empty {noun} stream: no header row")

    def rows() -> Iterator[tuple[int, list[str]]]:
        for row_num in itertools.count(1):
            try:
                row = next(reader, None)
            except csv.Error as exc:
                raise FormatError(f"{noun} row {row_num}: {exc}") from None
            if row is None:
                return
            if not row:
                continue
            if len(row) != len(header):
                raise FormatError(f"row {row_num}: expected {len(header)} fields, got {len(row)}")
            if row[0] == "":
                raise FormatError(f"row {row_num}: empty {header[0]}")
            yield row_num, row

    return header, rows()


def reference_parse_metadata(text: str) -> Dataset:
    """The metadata CSV parsed one row at a time into SampleRecords, each
    row's cells checked left to right: the oracle for the column-wise
    ``datamodel.parse_metadata_csv``."""
    header, rows = csv_rows(text, "metadata")
    expected = list(METADATA_COLUMNS)
    if header not in (expected, expected + [SIZE_COLUMN]):
        missing = [c for c in expected if c not in header]
        if missing:
            raise FormatError("metadata header is missing column(s): " + ", ".join(missing))
        raise FormatError(f"unrecognized metadata header: {','.join(header)!r}")
    records = []
    row_of: dict[str, int] = {}
    for row_num, row in rows:
        r = _reference_metadata_row(row, row_num, len(header) > len(expected))
        if r.image_name in row_of:
            raise UniquenessError(
                f"duplicate image_name {r.image_name!r} (rows {row_of[r.image_name]} and {row_num})"
            )
        row_of[r.image_name] = row_num
        records.append(r)
    return Dataset.from_records(records)


def _reference_metadata_row(row: list[str], row_num: int, has_size: bool) -> SampleRecord:
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

    age = None
    if row[3] != "":
        try:
            age = float(row[3])
        except ValueError:
            raise FormatError(f"row {row_num}: non-numeric age_approx {row[3]!r}") from None
        if not 0.0 <= age <= AGE_MAX:
            raise RangeError(f"row {row_num}: age_approx {age:g} outside [0, {AGE_MAX:g}]")

    if row[6] not in ("0", "1"):
        raise FormatError(f"row {row_num}: target must be 0 or 1, got {row[6]!r}")
    if row[7] not in ("2019", "2020"):
        raise FormatError(f"row {row_num}: source must be 2019 or 2020, got {row[7]!r}")

    size = None
    if has_size and row[8] != "":
        try:
            size = int(row[8])
        except ValueError:
            raise FormatError(
                f"row {row_num}: non-integer image_size_bytes {row[8]!r}"
            ) from None
        if not 0 < size <= SIZE_MAX:
            raise RangeError(f"row {row_num}: image_size_bytes {size} outside [1, {SIZE_MAX}]")

    return SampleRecord(
        image_name=image_name,
        patient_id=patient_id,
        sex=sex,
        age_approx=age,
        anatom_site=row[4] or None,
        diagnosis=row[5] or None,
        target_binary=BinaryTarget(int(row[6])),
        source_year=SourceYear(int(row[7])),
        image_size_bytes=size,
    )


def _reference_cell(cell, row_num, column, dtype, bounds):
    """One typed cell read on its own with ``int`` (int64) or ``float``, then bounded."""
    read, kind, spec = (int, "integer", "d") if dtype == np.int64 else (float, "numeric", "g")
    try:
        value = read(cell)
    except ValueError:
        raise FormatError(f"row {row_num}: non-{kind} {column} {cell!r}") from None
    if bounds is not None and not bounds[0] <= value <= bounds[1]:
        lo, hi = format(bounds[0], spec), format(bounds[1], spec)
        raise RangeError(f"row {row_num}: {column} {value:{spec}} outside [{lo}, {hi}]")
    return value


def reference_read_keyed(header, blocks, dtype=np.float64, bounds=None):
    """``csv_blocks``' rows parsed one at a time, each cell read and bounded on its own and named
    by its header column, and the keys checked for a repeat after the last row: the oracle for
    the block-wise ``datamodel.csv_keyed``."""
    nums: list[int] = []
    names: list[str] = []
    values: list[list] = []
    width = len(header)
    rows = ((num, cells[i * width:(i + 1) * width])
            for block_nums, cells in blocks for i, num in enumerate(block_nums))
    for row_num, row in rows:
        values.append([_reference_cell(cell, row_num, column, dtype, bounds)
                       for cell, column in zip(row[1:], header[1:])])
        nums.append(row_num)
        names.append(row[0])
    reference_require_unique(names, header[0], nums)
    return tuple(names), np.asarray(values, dtype=dtype).reshape(-1, width - 1)


def reference_format_float(v: float) -> str:
    """One float cell as every writer writes it, formatted on its own: the
    shortest round-trip ``repr``, an integral value below 1e16 in magnitude as a
    plain integer. The oracle for ``datamodel.float_cells``."""
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def reference_float_rows(names, values):
    """One block of the names and a column per column of ``values``, formatted one cell at a
    time: the oracle for the block-wise ``datamodel.float_rows``."""
    return [[list(names), *([reference_format_float(v) for v in column]
                            for column in values.T.tolist())]]


def reference_csv_text(header, rows) -> str:
    """``header`` and ``rows`` written by one ``csv.writer``, LF-terminated: the oracle for the
    block-wise ``datamodel.csv_text``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def reference_require_unique(names, key, rows=None) -> None:
    """The keys checked one at a time against a dict of the rows seen so far:
    the oracle for ``datamodel.require_unique``."""
    row_of: dict[str, int] = {}
    for num, name in zip(rows or range(1, len(names) + 1), names):
        if name in row_of:
            raise UniquenessError(f"duplicate {key} {name!r} (rows {row_of[name]} and {num})")
        row_of[name] = num


def reference_values_at(table, keys, dtype, what):
    """A pass that lists every missing key, then the dict lookup: the oracle for the one-pass
    ``datamodel.values_at``."""
    missing = [key for key in keys if key not in table]
    if missing:
        raise CoverageError(f"{what} missing {len(missing)} image(s), first: {missing[0]!r}")
    return np.fromiter(map(table.__getitem__, keys), dtype=dtype)


def auc_pair_counting(scores, labels) -> float:
    """O(P*N) pair-counting AUC: the independent oracle.

    Enumerates every (positive, negative) pair; ties count half.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = int(np.sum(pos[:, None] > neg[None, :]))
    ties = int(np.sum(pos[:, None] == neg[None, :]))
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def reference_bootstrap_auc_std(s, n_boot: int, seed: int) -> metrics.BootstrapResult:
    """Each resample drawn as ``metrics.bootstrap_auc_std`` draws it, redrawn
    or skipped by the same rule, and scored by pair counting on the resampled
    arrays: the oracle for its keyed-bincount kernel."""
    n = len(s)
    aucs = []
    n_skipped = 0
    for i in range(n_boot):
        rng = np.random.default_rng((seed & MASK64, i))
        for _ in range(metrics._MAX_REDRAWS + 1):
            idx = rng.integers(0, n, size=n)
            labels = s.labels[idx]
            if 0 < labels.sum() < n:
                aucs.append(auc_pair_counting(s.scores[idx], labels))
                break
        else:
            n_skipped += 1
    if len(aucs) < 2:
        raise DomainError(
            f"all but {len(aucs)} resamples were single-class; cannot estimate spread"
        )
    return metrics.BootstrapResult(
        std=float(np.std(aucs, ddof=1)), n_used=len(aucs), n_skipped=n_skipped
    )


def numeric_gradients(model, x_meta, x_cnn, targets, eps=1e-5):
    """Central finite differences of mean batch cross-entropy.

    Independent of the analytic backward pass: evaluates only the forward
    pass at perturbed parameters.
    """
    base = {k: np.array(v) for k, v in model.params().items()}
    tgt = np.asarray(targets, dtype=np.int64)

    def loss_at(name, flat_idx, delta):
        params = {k: v.copy() for k, v in base.items()}
        params[name].flat[flat_idx] += delta
        m = fusion.FusionHeadModel(scheme=model.scheme, **params)
        _, probs = fusion.forward(m, x_meta, x_cnn)
        return fusion.mean_cross_entropy(np.atleast_2d(probs), tgt)

    grads = {}
    for name, arr in base.items():
        g = np.zeros_like(arr)
        for idx in range(arr.size):
            g.flat[idx] = (
                loss_at(name, idx, eps) - loss_at(name, idx, -eps)
            ) / (2.0 * eps)
        grads[name] = g
    return grads


def gradient_rel_error(analytic: dict, numeric: dict) -> float:
    """Inf-norm relative error between two gradient bundles."""
    diff = 0.0
    scale = 0.0
    for name in analytic:
        diff = max(diff, float(np.max(np.abs(analytic[name] - numeric[name]))))
        scale = max(
            scale,
            float(np.max(np.abs(analytic[name]))),
            float(np.max(np.abs(numeric[name]))),
        )
    return diff / max(scale, 1e-12)


def random_fusion_instance(rng, max_hidden=16, max_cnn=8, max_batch=8, margin=1e-4):
    """Random small model + batch whose pre-activations avoid the ReLU kink.

    Finite differences with step 1e-5 would straddle the kink if some
    pre-activation were within the step of zero, so instances closer than
    ``margin`` are redrawn.
    """
    from lesionbench.targets import TargetScheme

    while True:
        h1 = int(rng.integers(2, max_hidden + 1))
        h2 = int(rng.integers(2, max_hidden + 1))
        d = int(rng.integers(0, max_cnn + 1))
        n = int(rng.integers(1, max_batch + 1))
        scheme = TargetScheme.NINE_CLASS if rng.random() < 0.5 else TargetScheme.FOUR_CLASS
        model = fusion.init_fusion_head(scheme, (h1, h2), d, rng)
        x_meta = rng.normal(size=(n, 14))
        x_cnn = rng.normal(size=(n, d)) if d else None
        targets = rng.integers(0, scheme.class_count, size=n)
        cache = reference_forward(
            model.params(), x_meta, x_cnn if x_cnn is not None else np.zeros((n, 0))
        )
        z_min = min(
            float(np.min(np.abs(cache["z1"]))), float(np.min(np.abs(cache["z2"])))
        )
        if z_min > margin:
            return model, x_meta, x_cnn, targets


def reference_forward(params, meta, cnn) -> dict:
    """The forward pass with a fresh array for every result: the oracle for
    ``fusion._forward_cached``, which writes into a reused workspace."""
    z1 = meta @ params["w1"].T + params["b1"]
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ params["w2"].T + params["b2"]
    h2 = np.maximum(z2, 0.0)
    joint = np.concatenate([h2, cnn], axis=1)
    logits = joint @ params["w3"].T + params["b3"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    return {
        "meta": meta, "z1": z1, "h1": h1, "z2": z2, "h2": h2,
        "joint": joint, "logits": logits, "probs": probs,
    }


def reference_backward(params, cache, targets) -> np.ndarray:
    """The gradient of mean cross-entropy as a new flat vector laid out like
    the parameters: the oracle for ``fusion._backward``. ``cache`` is
    ``reference_forward``'s result and is left unchanged."""
    n, _ = cache["probs"].shape
    h2_width = params["w2"].shape[0]
    shapes = tuple(params[name].shape for name in fusion.PARAM_NAMES)
    flat = np.empty(sum(map(math.prod, shapes)))
    g = fusion._views(flat, shapes)

    delta3 = cache["probs"].copy()
    delta3[np.arange(n), targets] -= 1.0
    delta3 /= n

    np.matmul(delta3.T, cache["joint"], out=g["w3"])
    delta3.sum(axis=0, out=g["b3"])
    d_joint = delta3 @ params["w3"]

    dz2 = d_joint[:, :h2_width] * (cache["z2"] > 0)
    np.matmul(dz2.T, cache["h1"], out=g["w2"])
    dz2.sum(axis=0, out=g["b2"])

    dz1 = (dz2 @ params["w2"]) * (cache["z1"] > 0)
    np.matmul(dz1.T, cache["meta"], out=g["w1"])
    dz1.sum(axis=0, out=g["b1"])
    return flat


def reference_adam_step(params, m, v, t, grads, lr):
    """One Adam step (Kingma & Ba 2014) array by array, in place: the oracle
    for the flat-vector update in ``fusion._AdamState``.

    ``params``, ``m``, ``v`` and ``grads`` are dicts of per-layer arrays;
    ``t`` is the step count after this step.
    """
    b1, b2, eps = fusion.ADAM_BETA1, fusion.ADAM_BETA2, fusion.ADAM_EPS
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for k in params:
        g = grads[k]
        m[k] = b1 * m[k] + (1.0 - b1) * g
        v[k] = b2 * v[k] + (1.0 - b2) * g * g
        params[k] -= lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + eps)


def reference_encode(r, vocab, stats, n_images: int) -> np.ndarray:
    """One record's 14-dimensional feature vector, built scalar by scalar from
    the record and its patient's image count: the oracle for the column-wise
    ``features.encode_dataset``."""
    v = np.zeros(14, dtype=np.float64)

    if r.sex is Sex.MALE:
        v[0] = 1.0
    elif r.sex is Sex.MISSING:
        v[0] = -1.0

    if r.age_approx is not None:
        v[1] = (r.age_approx - stats.age_mean) / stats.age_std

    if r.anatom_site in vocab.sites:
        v[2 + vocab.sites.index(r.anatom_site)] = 1.0

    if r.image_size_bytes is not None:
        v[12] = (math.log(r.image_size_bytes) - stats.log_size_mean) / stats.log_size_std

    v[13] = (n_images - stats.n_images_mean) / stats.n_images_std
    return v


def reference_fnv1a64(data: bytes, h: int = 0xCBF29CE484222325) -> int:
    """64-bit FNV-1a, one byte at a time from state ``h``: the oracle for the
    numpy kernel in ``hashing.fnv1a64``."""
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & ((1 << 64) - 1)
    return h
