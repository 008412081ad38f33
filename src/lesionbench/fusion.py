"""Trainable fusion head: metadata MLP branch, optional external feature
block, and a softmax classifier.

The metadata vector passes through two fully connected ReLU layers, is
concatenated with an externally supplied feature block of dimension D
(D = 0 gives a pure-metadata model), and a final linear layer produces class
logits. Training is mini-batch Adam under a cosine-annealed learning-rate
schedule with a single warm-up epoch, in float64 throughout so gradient
checks and rerun determinism are exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from decimal import Decimal
from typing import Sequence

import numpy as np

from .datamodel import Dataset, PredictionSet, _frozen, require_coverage
from .errors import DomainError, FormatError, ShapeError
from .features import N_METADATA_FEATURES, FeatureTable, read_feature_csv
from .folds import FoldAssignment
from .hashing import MASK64
from .metrics import auc_or_none
from .targets import DiagnosisClass, TargetScheme, class_index, map_diagnosis

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")

WEIGHTS_MAGIC = b"LSNB"
WEIGHTS_VERSION = 1

_HEADER = struct.Struct("<4sHBIIII")  # magic, version, scheme tag, h1, h2, d, c

PROB_FLOOR = 1e-12

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for fold-wise training.

    ``epochs`` counts the warm-up epoch, so it must be at least 2. The two
    stock hidden-layer configurations are (512, 128) and (128, 32); any
    positive pair is accepted.
    """

    epochs: int = 15
    batch_size: int = 64
    lr_peak: float = 3e-4
    seed: int = 42
    hidden: tuple[int, int] = (512, 128)
    scheme: TargetScheme = TargetScheme.NINE_CLASS

    def __post_init__(self) -> None:
        if self.epochs < 2:
            raise DomainError(
                "epochs must be >= 2: one warm-up epoch plus at least one "
                "cosine epoch"
            )
        if self.batch_size < 1:
            raise DomainError("batch_size must be positive")
        if not self.lr_peak > 0:
            raise DomainError("lr_peak must be positive")
        if len(self.hidden) != 2 or min(self.hidden) < 1:
            raise DomainError("hidden must be a pair of positive widths")


@dataclass(frozen=True, eq=False)
class FusionHeadModel:
    """Weights of the fusion head; immutable once constructed.

    Shapes: w1 (H1, 14), w2 (H2, H1), w3 (C, H2 + D), with matching bias
    vectors. C is fixed by the scheme; D >= 0 is the external feature width.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    scheme: TargetScheme

    def __post_init__(self) -> None:
        arrays = {n: np.asarray(getattr(self, n), dtype=np.float64) for n in PARAM_NAMES}
        # Pad so that arrays with too few axes reach the shape check below.
        w1, w2, w3 = (arrays[n].shape + (0, 0) for n in ("w1", "w2", "w3"))
        h1, h2, w3_width = w1[0], w2[0], w3[1]
        if w3_width < h2:
            raise ShapeError(f"w3 must be at least H2 = {h2} wide, got {arrays['w3'].shape}")
        shapes = _shapes(h1, h2, w3_width - h2, self.scheme.class_count)
        for (name, arr), shape in zip(arrays.items(), shapes):
            if arr.shape != shape:
                raise ShapeError(f"{name} must be {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise DomainError(f"parameter {name} contains non-finite values")
            object.__setattr__(self, name, _frozen(arr))

    @property
    def hidden(self) -> tuple[int, int]:
        return (int(self.w1.shape[0]), int(self.w2.shape[0]))

    @property
    def cnn_dim(self) -> int:
        return int(self.w3.shape[1] - self.w2.shape[0])

    @property
    def class_count(self) -> int:
        return int(self.w3.shape[0])

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FusionHeadModel):
            return NotImplemented
        return self.scheme is other.scheme and all(
            np.array_equal(getattr(self, n), getattr(other, n)) for n in PARAM_NAMES
        )

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class EpochStats:
    fold: int
    epoch: int
    lr: float
    train_loss: float
    val_auc: float | None


@dataclass(frozen=True)
class TrainResult:
    models: tuple[FusionHeadModel, ...]
    oof: PredictionSet
    history: tuple[EpochStats, ...]


def _one_tenth(x: float) -> float:
    # Divide by ten in decimal, then round once to binary. Plain x / 10
    # double-rounds and misses the decimal grid by one ulp (e.g. 3e-4 / 10
    # != 3e-5), which matters because warm-up rates are quoted in decimal.
    return float(Decimal(repr(x)) / 10)


def lr_schedule(epoch: int, total_epochs: int, lr_peak: float) -> float:
    """Learning rate for one epoch: warm-up, then a single cosine cycle.

    Epoch 0 runs at one tenth of the peak. Epochs 1..E-1 follow
    ``0.5 * lr_peak * (1 + cos(pi * (e - 1) / (E - 2)))``: the first cosine
    epoch is exactly the peak and the last is exactly 0. E = 2 degenerates
    to a single peak epoch after warm-up.
    """
    if total_epochs < 2:
        raise DomainError(f"total_epochs must be >= 2, got {total_epochs}")
    if not 0 <= epoch < total_epochs:
        raise DomainError(
            f"epoch {epoch} outside schedule range 0..{total_epochs - 1}"
        )
    if not lr_peak > 0:
        raise DomainError("lr_peak must be positive")
    if epoch == 0:
        return _one_tenth(lr_peak)
    if total_epochs == 2:
        return lr_peak
    phase = (epoch - 1) / (total_epochs - 2)
    return 0.5 * lr_peak * (1.0 + math.cos(math.pi * phase))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _stack_inputs(
    m: FusionHeadModel, x_meta: np.ndarray, x_cnn: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, bool]:
    meta = np.asarray(x_meta, dtype=np.float64)
    single = meta.ndim == 1
    meta = np.atleast_2d(meta)
    if meta.shape[1] != N_METADATA_FEATURES:
        raise ShapeError(
            f"metadata input must have {N_METADATA_FEATURES} columns, "
            f"got {meta.shape[1]}"
        )
    d = m.cnn_dim
    if d == 0:
        cnn = np.zeros((meta.shape[0], 0), dtype=np.float64)
        if x_cnn is not None and np.asarray(x_cnn).size != 0:
            raise ShapeError("model has no external feature block but x_cnn was given")
    else:
        if x_cnn is None:
            raise ShapeError(f"model expects a {d}-dimensional external feature block")
        cnn = np.atleast_2d(np.asarray(x_cnn, dtype=np.float64))
        if cnn.shape != (meta.shape[0], d):
            raise ShapeError(
                f"external feature block must be ({meta.shape[0]}, {d}), "
                f"got {cnn.shape}"
            )
    return meta, cnn, single


def _forward_cached(
    params: dict[str, np.ndarray], meta: np.ndarray, cnn: np.ndarray
) -> dict[str, np.ndarray]:
    z1 = meta @ params["w1"].T + params["b1"]
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ params["w2"].T + params["b2"]
    h2 = np.maximum(z2, 0.0)
    joint = np.concatenate([h2, cnn], axis=1)
    logits = joint @ params["w3"].T + params["b3"]
    probs = _softmax(logits)
    return {
        "meta": meta, "z1": z1, "h1": h1, "z2": z2, "h2": h2,
        "joint": joint, "logits": logits, "probs": probs,
    }


def forward(
    m: FusionHeadModel,
    x_meta: np.ndarray | Sequence[float],
    x_cnn: np.ndarray | Sequence[float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute (logits, probs) for one sample or a batch.

    Softmax subtracts the row maximum first, so arbitrarily large logits
    produce valid probabilities.
    """
    meta, cnn, single = _stack_inputs(
        m, np.asarray(x_meta, dtype=np.float64),
        None if x_cnn is None else np.asarray(x_cnn, dtype=np.float64),
    )
    cache = _forward_cached(m.params(), meta, cnn)
    logits, probs = cache["logits"], cache["probs"]
    if single:
        return logits[0], probs[0]
    return logits, probs


def cross_entropy(probs: np.ndarray | Sequence[float], target: int) -> float:
    """Negative log-probability of the target class, floored at 1e-12."""
    vec = np.asarray(probs, dtype=np.float64)
    if vec.ndim != 1:
        raise ShapeError(f"probs must be a vector, got shape {vec.shape}")
    if not 0 <= target < vec.shape[0]:
        raise DomainError(
            f"target {target} out of range for {vec.shape[0]} classes"
        )
    return float(-np.log(max(float(vec[target]), PROB_FLOOR)))


def mean_cross_entropy(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy of a batch of probability rows."""
    picked = probs[np.arange(probs.shape[0]), targets]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def _backward(
    params: dict[str, np.ndarray],
    cache: dict[str, np.ndarray],
    targets: np.ndarray,
) -> np.ndarray:
    """The gradient as one flat vector laid out like the parameters."""
    n, _ = cache["probs"].shape
    h2_width = params["w2"].shape[0]
    shapes = tuple(params[name].shape for name in PARAM_NAMES)
    flat = np.empty(sum(map(math.prod, shapes)))
    g = _views(flat, shapes)

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


def backward(
    m: FusionHeadModel,
    x_meta: np.ndarray,
    x_cnn: np.ndarray | None,
    targets: np.ndarray | Sequence[int],
) -> dict[str, np.ndarray]:
    """Analytic gradient of mean batch cross-entropy w.r.t. every parameter.

    Returns arrays keyed and shaped like the model's parameters.
    """
    tgt = np.asarray(targets, dtype=np.int64)
    if tgt.ndim != 1 or tgt.size == 0:
        raise DomainError("targets must be a non-empty 1-D array")
    if tgt.min() < 0 or tgt.max() >= m.class_count:
        raise DomainError(f"targets out of range for {m.class_count} classes")
    meta, cnn, _ = _stack_inputs(m, x_meta, x_cnn)
    if meta.shape[0] != tgt.size:
        raise ShapeError(
            f"batch has {meta.shape[0]} rows but {tgt.size} targets"
        )
    params = m.params()
    flat = _backward(params, _forward_cached(params, meta, cnn), tgt)
    return _views(flat, _shapes(*m.hidden, m.cnn_dim, m.class_count))


def init_fusion_head(
    scheme: TargetScheme,
    hidden: tuple[int, int],
    cnn_dim: int,
    rng: np.random.Generator,
) -> FusionHeadModel:
    """He-scaled random weights (std sqrt(2/fan_in)), zero biases."""
    shapes = _shapes(hidden[0], hidden[1], cnn_dim, scheme.class_count)
    return FusionHeadModel(scheme=scheme, **_views(_init_params(shapes, rng), shapes))


def _shapes(h1: int, h2: int, d: int, c: int) -> tuple[tuple[int, ...], ...]:
    """The parameter layout, in ``PARAM_NAMES`` order."""
    return ((h1, N_METADATA_FEATURES), (h1,), (h2, h1), (h2,), (c, h2 + d), (c,))


def _views(flat: np.ndarray, shapes: tuple[tuple[int, ...], ...]) -> dict[str, np.ndarray]:
    """Per-layer views into one flat parameter vector, keyed by ``PARAM_NAMES``."""
    views = {}
    offset = 0
    for name, shape in zip(PARAM_NAMES, shapes):
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return views


def _flatten(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """One flat float64 vector of per-layer arrays, in ``PARAM_NAMES`` order."""
    return np.concatenate([arrays[name].ravel() for name in PARAM_NAMES])


def _init_params(shapes: tuple[tuple[int, ...], ...], rng: np.random.Generator) -> np.ndarray:
    flat = np.zeros(sum(map(math.prod, shapes)))
    params = _views(flat, shapes)
    for name in ("w1", "w2", "w3"):
        w = params[name]
        w[...] = rng.normal(0.0, math.sqrt(2.0 / w.shape[1]), size=w.shape)
    return flat


class _AdamState:
    """Adam (Kingma & Ba 2014) over one flat parameter vector."""

    def __init__(self, size: int) -> None:
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, flat: np.ndarray, g: np.ndarray, lr: float) -> None:
        """Update ``flat`` in place, so per-layer views of it stay live."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * g
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * g * g
        flat -= lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + ADAM_EPS)


def train(
    d: Dataset,
    feats: FeatureTable,
    cnn: FeatureTable | None,
    f: FoldAssignment,
    cfg: TrainConfig,
) -> TrainResult:
    """Train one fusion head per fold and assemble out-of-fold predictions.

    For each fold k a model is trained on every record outside k and then
    scores fold k; the union of those melanoma probabilities is the OOF
    prediction set, in dataset order. Folds run one after another, each
    seeded with ``cfg.seed + k``. A non-finite loss, parameter or validation
    score stops training at once with a DomainError naming fold, epoch and
    batch.
    """
    if not d.records:
        raise DomainError("cannot train on an empty dataset")
    names = d.image_names
    if feats.width != N_METADATA_FEATURES:
        raise ShapeError(
            f"metadata features must have width {N_METADATA_FEATURES}, "
            f"got {feats.width}"
        )
    require_coverage(names, feats, "feature table")
    if cnn is not None:
        require_coverage(names, cnn, "external feature table")
    require_coverage(names, f.assignment, "fold assignment")

    x_meta = feats.select(names)
    x_cnn = cnn.select(names) if cnn is not None else np.zeros((len(names), 0))
    y = np.array(
        [
            class_index(map_diagnosis(r.diagnosis, cfg.scheme), cfg.scheme)
            for r in d.records
        ],
        dtype=np.int64,
    )
    y_bin = np.array([int(r.is_positive) for r in d.records], dtype=np.int64)
    fold_of = np.array([f.assignment[n] for n in names], dtype=np.int64)
    mel_col = class_index(DiagnosisClass.MEL, cfg.scheme)

    oof = np.empty(len(names), dtype=np.float64)
    models: list[FusionHeadModel] = []
    history: list[EpochStats] = []
    # Overflow shows up as a non-finite loss, parameter or score, which
    # _train_one_fold reports with its context; numpy's warnings would not.
    with np.errstate(all="ignore"):
        for k in range(f.k):
            model, val_scores, stats = _train_one_fold(
                k, x_meta, x_cnn, y, y_bin, fold_of, cfg, mel_col
            )
            oof[fold_of == k] = val_scores
            models.append(model)
            history.extend(stats)
    return TrainResult(
        models=tuple(models),
        oof=PredictionSet.from_scores(names, oof),
        history=tuple(history),
    )


def _train_one_fold(
    k: int,
    x_meta: np.ndarray,
    x_cnn: np.ndarray,
    y: np.ndarray,
    y_bin: np.ndarray,
    fold_of: np.ndarray,
    cfg: TrainConfig,
    mel_col: int,
) -> tuple[FusionHeadModel, np.ndarray, list[EpochStats]]:
    train_idx = np.flatnonzero(fold_of != k)
    val_idx = np.flatnonzero(fold_of == k)
    if train_idx.size == 0:
        raise DomainError(f"fold {k} leaves an empty training set")

    rng = np.random.default_rng((cfg.seed & MASK64) + k)
    shapes = _shapes(cfg.hidden[0], cfg.hidden[1], x_cnn.shape[1], cfg.scheme.class_count)
    flat = _init_params(shapes, rng)
    params = _views(flat, shapes)
    adam = _AdamState(flat.size)
    stats: list[EpochStats] = []
    val_scores = np.zeros(0, dtype=np.float64)

    def diverged(epoch: int, batch: int, what: str) -> DomainError:
        return DomainError(
            f"training diverged in fold {k}, epoch {epoch}, batch {batch}: "
            f"{what} (is the learning rate too high?)"
        )

    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg.epochs, cfg.lr_peak)
        perm = rng.permutation(train_idx.size)
        loss_sum = 0.0
        for b, start in enumerate(range(0, train_idx.size, cfg.batch_size)):
            batch = train_idx[perm[start : start + cfg.batch_size]]
            cache = _forward_cached(params, x_meta[batch], x_cnn[batch])
            loss = mean_cross_entropy(cache["probs"], y[batch])
            if not math.isfinite(loss):
                raise diverged(epoch, b, f"loss is {loss}")
            loss_sum += loss * batch.size
            adam.step(flat, _backward(params, cache, y[batch]), lr)
        if not np.isfinite(flat).all():
            raise diverged(epoch, b, "a parameter is not finite")

        if val_idx.size:
            val_probs = _forward_cached(params, x_meta[val_idx], x_cnn[val_idx])["probs"]
            val_scores = val_probs[:, mel_col]
            if not np.isfinite(val_scores).all():
                raise diverged(epoch, b, "a validation score is not finite")
            val_auc = auc_or_none(val_scores, y_bin[val_idx])
        else:
            val_auc = None
        stats.append(
            EpochStats(
                fold=k,
                epoch=epoch,
                lr=lr,
                train_loss=loss_sum / train_idx.size,
                val_auc=val_auc,
            )
        )

    # The last epoch's validation scores come from the final parameters.
    return FusionHeadModel(scheme=cfg.scheme, **params), val_scores, stats


def save_model(m: FusionHeadModel) -> bytes:
    """Serialize to the versioned binary weight format (magic ``LSNB``)."""
    h1, h2 = m.hidden
    header = _HEADER.pack(
        WEIGHTS_MAGIC, WEIGHTS_VERSION, m.scheme.class_count,
        h1, h2, m.cnn_dim, m.class_count,
    )
    return header + _flatten(m.params()).astype("<f8", copy=False).tobytes()


def load_model(data: bytes) -> FusionHeadModel:
    """Parse the binary weight format; exact inverse of :func:`save_model`."""
    if len(data) < _HEADER.size:
        raise FormatError(
            f"weight stream truncated: {len(data)} bytes, header needs "
            f"{_HEADER.size}"
        )
    magic, version, scheme_tag, h1, h2, d, c = _HEADER.unpack_from(data, 0)
    if magic != WEIGHTS_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {WEIGHTS_MAGIC!r}")
    if version != WEIGHTS_VERSION:
        raise FormatError(f"unsupported weight format version {version}")
    try:
        scheme = TargetScheme(scheme_tag)
    except ValueError:
        raise FormatError(f"unknown scheme tag {scheme_tag}") from None
    if c != scheme.class_count:
        raise FormatError(
            f"class count {c} contradicts scheme tag {scheme_tag}"
        )
    shapes = _shapes(h1, h2, d, c)
    expected = _HEADER.size + 8 * sum(map(math.prod, shapes))
    if len(data) != expected:
        raise FormatError(
            f"weight stream has {len(data)} bytes, expected {expected}"
        )
    flat = np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
    return FusionHeadModel(scheme=scheme, **_views(flat, shapes))


def read_cnn_csv(text: str) -> FeatureTable:
    """Parse an external feature CSV with header ``image_name,c0,...``."""
    return read_feature_csv(text, prefix="c")
