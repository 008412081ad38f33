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

import ctypes
import math
import os
import struct
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .datamodel import Dataset, PredictionSet, _frozen, aligned_rows, equal_fields, reduce_fields
from .errors import DomainError, FormatError, ShapeError
from .features import N_METADATA_FEATURES, FeatureTable, read_feature_csv
from .folds import FoldAssignment
from .hashing import MASK64
from .metrics import auc_or_none
from .targets import DiagnosisClass, TargetScheme, class_index, collapse
from .targets import map_diagnosis  # noqa: F401 -- unused; perfbench/layers.py counts its calls

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")

WEIGHTS_MAGIC = b"LSNB"
WEIGHTS_VERSION = 1

_HEADER = struct.Struct("<4sHBIIII")  # magic, version, scheme tag, h1, h2, d, c

PROB_FLOOR = 1e-12

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# The validation pass gathers and scores its rows in blocks of VAL_BLOCK to
# 2 * VAL_BLOCK - 1 rows (see ``_val_blocks``), so a fold's forward buffers
# stay small whatever its size. With numpy's OpenBLAS on one BLAS thread, as
# ``train`` runs, such blocks gave the bytes of one full product on the
# SkylakeX, Haswell and Sandybridge kernels, for 256 to 23,382 rows. Blocks
# must start at multiples of VAL_BLOCK: near-equal blocks (265 rows each for
# 1,061 rows) gave other bytes on Haswell.
VAL_BLOCK = 256

# Fold-epochs train on one worker thread per core when a step is matrix-bound:
# rows of one training batch x parameter count >= _MATRIX_BOUND. Below it
# every numpy call in a step takes a few microseconds, and two threads pass
# the GIL back and forth on each call. ``train`` on a 58,457-image paper
# cohort, 2 epochs, batch 64, 1 BLAS thread, 2 cores (median of 5 runs each):
#
#   hidden, D       batch x params   serial   2 threads
#   128,32, D=16        415k         1.83 s    3.14 s
#   128,32, D=0         388k         1.73 s    3.01 s
#   192,48, D=0         805k         2.48 s    2.95 s
#   256,64, D=0         1.34M        3.79 s    3.31 s
#   512,128, D=0        4.77M       11.77 s    6.42 s
_MATRIX_BOUND = 2**20


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

    __eq__ = equal_fields
    __reduce__ = reduce_fields


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


class _Workspace:
    """Every buffer the forward and backward passes write, allocated once and
    reused by each step and each validation pass; in ``train``, one per
    worker thread, shared by the folds it trains.

    Forward buffers hold ``rows`` rows and backward buffers ``batch_rows``;
    a pass over n rows writes into the first n rows of each. A forward-only
    workspace (``batch_rows`` 0) has no gradient buffers. ``params`` are
    live views: updating the flat vector behind them in place is seen by the
    next pass, and each fold-epoch points them at its fold's parameters.
    """

    def __init__(self, params: dict[str, np.ndarray], rows: int, batch_rows: int) -> None:
        self.params = params
        h1, h2 = params["w1"].shape[0], params["w2"].shape[0]
        c, joint_width = params["w3"].shape
        self.h1 = np.empty((rows, h1))
        self.h2 = np.empty((rows, h2))
        # With no external block the joint layer is h2 itself.
        self.joint = self.h2 if joint_width == h2 else np.empty((rows, joint_width))
        self.logits = np.empty((rows, c))
        self.probs = np.empty((rows, c))
        self.row_stat = np.empty((rows, 1))
        self.d_joint = np.empty((batch_rows, joint_width))
        self.dz2 = np.empty((batch_rows, h2))
        self.dz1 = np.empty((batch_rows, h1))
        self.live2 = np.empty((batch_rows, h2), dtype=bool)
        self.live1 = np.empty((batch_rows, h1), dtype=bool)
        if batch_rows:
            shapes = tuple(params[name].shape for name in PARAM_NAMES)
            self.grad = np.empty(sum(map(math.prod, shapes)))
            self.grads = _views(self.grad, shapes)


def _forward_cached(
    ws: _Workspace, meta: np.ndarray, cnn: np.ndarray
) -> dict[str, np.ndarray]:
    """Forward pass over ``len(meta)`` rows into ``ws``; returns views of the
    rows written, which the next pass over ``ws`` overwrites."""
    n = meta.shape[0]
    p = ws.params
    h1, h2, joint = ws.h1[:n], ws.h2[:n], ws.joint[:n]
    logits, probs, row_stat = ws.logits[:n], ws.probs[:n], ws.row_stat[:n]
    np.matmul(meta, p["w1"].T, out=h1)
    h1 += p["b1"]
    np.maximum(h1, 0.0, out=h1)
    np.matmul(h1, p["w2"].T, out=h2)
    h2 += p["b2"]
    np.maximum(h2, 0.0, out=h2)
    if ws.joint is not ws.h2:
        joint[:, : h2.shape[1]] = h2
        joint[:, h2.shape[1] :] = cnn
    np.matmul(joint, p["w3"].T, out=logits)
    logits += p["b3"]
    # Softmax subtracts the row maximum first.
    np.max(logits, axis=1, keepdims=True, out=row_stat)
    np.subtract(logits, row_stat, out=probs)
    np.exp(probs, out=probs)
    np.sum(probs, axis=1, keepdims=True, out=row_stat)
    probs /= row_stat
    return {"meta": meta, "h1": h1, "joint": joint, "logits": logits, "probs": probs}


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
    cache = _forward_cached(_Workspace(m.params(), meta.shape[0], 0), meta, cnn)
    logits, probs = cache["logits"], cache["probs"]
    if single:
        return logits[0], probs[0]
    return logits, probs


def mean_cross_entropy(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy of a batch of probability rows."""
    picked = probs[np.arange(probs.shape[0]), targets]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def _backward(
    ws: _Workspace,
    cache: dict[str, np.ndarray],
    targets: np.ndarray,
) -> np.ndarray:
    """The gradient into ``ws.grad``, one flat vector laid out like the
    parameters. The loss must be taken first: ``cache["probs"]`` becomes the
    output-layer error."""
    n = targets.shape[0]
    p, g = ws.params, ws.grads
    h2_width = p["w2"].shape[0]
    d_joint, dz2, dz1 = ws.d_joint[:n], ws.dz2[:n], ws.dz1[:n]
    live2, live1 = ws.live2[:n], ws.live1[:n]

    delta3 = cache["probs"]
    delta3[np.arange(n), targets] -= 1.0
    delta3 /= n

    np.matmul(delta3.T, cache["joint"], out=g["w3"])
    delta3.sum(axis=0, out=g["b3"])
    np.matmul(delta3, p["w3"], out=d_joint)

    # A ReLU output is positive exactly where its input was.
    np.greater(cache["joint"][:, :h2_width], 0.0, out=live2)
    np.multiply(d_joint[:, :h2_width], live2, out=dz2)
    np.matmul(dz2.T, cache["h1"], out=g["w2"])
    dz2.sum(axis=0, out=g["b2"])

    np.matmul(dz2, p["w2"], out=dz1)
    np.greater(cache["h1"], 0.0, out=live1)
    np.multiply(dz1, live1, out=dz1)
    np.matmul(dz1.T, cache["meta"], out=g["w1"])
    dz1.sum(axis=0, out=g["b1"])
    return ws.grad


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
    ws = _Workspace(m.params(), tgt.size, tgt.size)
    _backward(ws, _forward_cached(ws, meta, cnn), tgt)
    return ws.grads


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
    """Adam (Kingma & Ba 2014) over one flat parameter vector: one fold's
    moments and step count. A step writes two scratch vectors that the caller
    owns, so the folds one thread trains share them and a step allocates
    nothing."""

    def __init__(self, size: int) -> None:
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(
        self, flat: np.ndarray, g: np.ndarray, lr: float, scratch: tuple[np.ndarray, np.ndarray]
    ) -> None:
        """Update ``flat`` in place, so per-layer views of it stay live;
        ``scratch`` is two vectors of its size, which the step overwrites."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        m, v, (a, b) = self.m, self.v, scratch
        # m = m*b1 + g*(1-b1)
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        m += a
        # v = v*b2 + ((1-b2)*g)*g
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=a)
        a *= g
        v += a
        # flat -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += ADAM_EPS
        np.divide(m, bc1, out=b)
        b *= lr
        b /= a
        flat -= b


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
    prediction set, in dataset order. ``cnn``, if given, must name exactly the
    images of ``d`` (see ``datamodel.aligned_rows``). Each fold is seeded with
    ``cfg.seed + k`` and keeps its own parameters and Adam state, so folds are
    independent. They train one epoch at a time: worker threads take
    fold-epochs from a queue, and a fold that finishes an epoch goes to the
    back. Each worker has one workspace, sized for every fold, and points it
    at the fold it trains. When a step is matrix-bound (see
    ``_MATRIX_BOUND``) there is one worker per core of the CPU affinity mask,
    at most one per fold, and otherwise one. The result is the same bytes
    either way, and for any number of cores. A non-finite loss, parameter or
    validation score stops training with a DomainError naming fold, epoch
    and batch; with several failing folds it is the lowest fold's, the folds
    after it stop within one batch and the folds before it run on. An
    exception in the calling thread, such as KeyboardInterrupt, stops every
    fold; no worker is left running when ``train`` returns or raises.

    While the folds train, numpy's OpenBLAS runs on one thread (see
    ``_openblas_threads``), and its old thread count is restored when
    ``train`` returns or raises. ``_MATRIX_BOUND`` was measured with one BLAS
    thread, and with OpenBLAS's default of one thread per core each worker
    thread's matrix products would start their own BLAS threads and
    oversubscribe the cores: on 2 cores, paper-scale hidden 512,128 training
    took 19.9-21.6 s with the default and 10.0-10.1 s with one BLAS thread,
    with the same output bytes. The count is process-wide, so BLAS calls
    made on other threads while ``train`` runs also run on one thread. Where
    no known BLAS library or symbol is found (another BLAS, another
    platform), the count is left as it is.

    The inputs are not copied: the metadata features, ``cnn`` and the folds
    are read in place (see ``KeyedTable.select``), and each fold gathers the
    rows of one training batch or validation block at a time.
    """
    if not len(d):
        raise DomainError("cannot train on an empty dataset")
    names = d.image_names
    if feats.width != N_METADATA_FEATURES:
        raise ShapeError(
            f"metadata features must have width {N_METADATA_FEATURES}, "
            f"got {feats.width}"
        )
    x_meta = feats.select(names, "feature table")
    x_cnn = (aligned_rows(cnn, d, "external feature table") if cnn is not None
             else np.zeros((len(names), 0)))
    nine = cfg.scheme is TargetScheme.NINE_CLASS
    column_of = [class_index(c if nine else collapse(c), cfg.scheme) for c in DiagnosisClass]
    y = np.array(column_of, dtype=np.int64)[d.diagnosis_class]
    y_bin = d.positive.astype(np.int64)
    fold_of = f.select(names, "fold assignment")
    mel_col = class_index(DiagnosisClass.MEL, cfg.scheme)

    shapes = _shapes(*cfg.hidden, x_cnn.shape[1], cfg.scheme.class_count)
    n_params = sum(map(math.prod, shapes))
    if n_params * 8 > np.iinfo(np.intp).max:  # float64 bytes numpy cannot address
        raise DomainError(f"hidden {cfg.hidden[0]},{cfg.hidden[1]} needs {n_params} "
                          "parameters, more than one array can hold")
    step_size = min(cfg.batch_size, len(names)) * n_params
    workers = min(f.k, _cpu_count()) if step_size >= _MATRIX_BOUND else 1
    runs = [_FoldRun(k, x_meta, x_cnn, y, y_bin, fold_of, cfg, mel_col) for k in range(f.k)]
    # Fold-epochs in round-robin order: a worker takes the fold at the front, trains one epoch
    # and puts the fold back at the end, so the last wave is one epoch of a fold, not a fold.
    todo = deque(runs)
    errors: dict[int, BaseException] = {}

    def work(ws: _Workspace, scratch: tuple[np.ndarray, np.ndarray]) -> None:
        # Overflow shows up as a non-finite loss, parameter or score, which
        # the fold reports with its context; numpy's warnings would not.
        # Threads do not inherit the error state.
        with np.errstate(all="ignore"):
            while True:
                try:
                    run = todo.popleft()
                except IndexError:  # the folds left are on other workers
                    return
                try:
                    if run.epoch(ws, scratch) and len(run.stats) < cfg.epochs:
                        todo.append(run)
                except BaseException as e:  # raised by the calling thread
                    errors[run.k] = e
                    # The folds before k run on: in fold order their errors come first.
                    for later in runs[run.k + 1 :]:
                        later.stop.set()

    threads = [threading.Thread(target=work, args=_worker_buffers(runs)) for _ in range(workers)]
    with _one_blas_thread():
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            # Every fold has ended unless this thread was interrupted (KeyboardInterrupt, say):
            # then the workers stop before their next batch, and are waited for.
            for run in runs:
                run.stop.set()
            for t in threads:
                if t.ident is not None:
                    t.join()
    if errors:
        raise errors[min(errors)]

    oof = np.empty(len(names), dtype=np.float64)
    models: list[FusionHeadModel] = []
    history: list[EpochStats] = []
    for run in runs:
        oof[fold_of == run.k] = run.val_scores
        # The last epoch's validation scores come from the final parameters.
        models.append(FusionHeadModel(scheme=cfg.scheme, **run.params))
        history.extend(run.stats)
    return TrainResult(
        models=tuple(models),
        oof=PredictionSet.from_scores(names, oof),
        history=tuple(history),
    )


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas() -> ctypes.CDLL | None:
    """The OpenBLAS that numpy wheels bundle as ``numpy.libs/libscipy_openblas64_-*.so`` beside
    the numpy package, or None where there is no such library (a numpy built against another
    BLAS, another platform)."""
    found = sorted(Path(np.__file__).parent.parent.joinpath("numpy.libs")
                   .glob("libscipy_openblas64_-*.so"))
    try:
        return ctypes.CDLL(str(found[0]))  # numpy has loaded it: this is the same library
    except (IndexError, OSError):
        return None


def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of :func:`_openblas`, or None where there is no such
    library or it lacks the symbols."""
    lib = _openblas()
    try:
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except AttributeError:  # no library (None) or no such symbol
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


_BLAS_LOCK = threading.Lock()
_blas_saved: list[int] = []  # per caller inside ``_one_blas_thread``: the count the first found


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """One OpenBLAS thread for the process while any caller is inside the block: the first to
    enter saves the count and sets 1, the last to leave restores it. Nothing where
    ``_openblas_threads`` finds no library."""
    get, set_ = _openblas_threads() or (lambda: 1, lambda n: None)
    with _BLAS_LOCK:
        _blas_saved.append(_blas_saved[0] if _blas_saved else get())
        set_(1)
    try:
        yield
    finally:
        with _BLAS_LOCK:
            old = _blas_saved.pop()
            if not _blas_saved:
                set_(old)


def _val_blocks(n_val: int) -> list[slice]:
    """``max(1, n_val // VAL_BLOCK)`` row blocks covering the validation rows,
    each starting at a multiple of ``VAL_BLOCK``, the last taking the rest, so
    none is a short tail."""
    blocks = max(1, n_val // VAL_BLOCK)
    return [slice(i * VAL_BLOCK, (i + 1) * VAL_BLOCK if i < blocks - 1 else n_val)
            for i in range(blocks)]


class _FoldRun:
    """Fold k's training, one epoch per call of :meth:`epoch`. Between epochs
    it holds only the fold's own state: its generator, flat parameters, Adam
    moments, validation scores and epoch stats. The buffers a pass writes
    belong to the caller (see ``_worker_buffers``), and the row indices are
    rebuilt each epoch. Setting ``stop`` makes ``epoch`` return False before
    its next batch or validation pass."""

    def __init__(
        self,
        k: int,
        x_meta: np.ndarray,
        x_cnn: np.ndarray,
        y: np.ndarray,
        y_bin: np.ndarray,
        fold_of: np.ndarray,
        cfg: TrainConfig,
        mel_col: int,
    ) -> None:
        self.k, self.cfg, self.mel_col = k, cfg, mel_col
        self.x_meta, self.x_cnn, self.y, self.y_bin, self.fold_of = x_meta, x_cnn, y, y_bin, fold_of
        self.stop = threading.Event()
        n_val = int(np.count_nonzero(fold_of == k))
        self.rng = np.random.default_rng((cfg.seed & MASK64) + k)
        shapes = _shapes(cfg.hidden[0], cfg.hidden[1], x_cnn.shape[1], cfg.scheme.class_count)
        self.flat = _init_params(shapes, self.rng)
        self.params = _views(self.flat, shapes)
        self.adam = _AdamState(self.flat.size)
        self.bs = min(cfg.batch_size, fold_of.size - n_val)
        self.blocks = _val_blocks(n_val)
        self.rows = max(self.bs, *(s.stop - s.start for s in self.blocks))
        # Scores are copied out of the workspace, whose rows the next pass overwrites.
        self.val_scores = np.zeros(n_val, dtype=np.float64)
        self.stats: list[EpochStats] = []

    def _diverged(self, epoch: int, batch: int, what: str) -> DomainError:
        return DomainError(
            f"training diverged in fold {self.k}, epoch {epoch}, batch {batch}: "
            f"{what} (is the learning rate too high?)"
        )

    def epoch(self, ws: _Workspace, scratch: tuple[np.ndarray, np.ndarray]) -> bool:
        """Train and score the next epoch in ``ws`` and ``scratch``; False if
        ``stop`` was set before a batch or the validation pass."""
        k, cfg, epoch = self.k, self.cfg, len(self.stats)
        train_idx = np.flatnonzero(self.fold_of != k)
        val_idx = np.flatnonzero(self.fold_of == k)
        if train_idx.size == 0:
            raise DomainError(f"fold {k} leaves an empty training set")
        x_meta, x_cnn, y = self.x_meta, self.x_cnn, self.y
        ws.params = self.params
        lr = lr_schedule(epoch, cfg.epochs, cfg.lr_peak)
        perm = self.rng.permutation(train_idx.size)
        loss_sum = 0.0
        for b, start in enumerate(range(0, train_idx.size, self.bs)):
            if self.stop.is_set():
                return False
            batch = train_idx[perm[start : start + self.bs]]
            targets = y[batch]
            cache = _forward_cached(ws, x_meta[batch], x_cnn[batch])
            loss = mean_cross_entropy(cache["probs"], targets)
            if not math.isfinite(loss):
                raise self._diverged(epoch, b, f"loss is {loss}")
            loss_sum += loss * batch.size
            self.adam.step(self.flat, _backward(ws, cache, targets), lr, scratch)
        if not np.isfinite(self.flat).all():
            raise self._diverged(epoch, b, "a parameter is not finite")
        if self.stop.is_set():
            return False

        if val_idx.size:
            for s in self.blocks:
                rows = val_idx[s]
                probs = _forward_cached(ws, x_meta[rows], x_cnn[rows])["probs"]
                np.copyto(self.val_scores[s], probs[:, self.mel_col])
            if not np.isfinite(self.val_scores).all():
                raise self._diverged(epoch, b, "a validation score is not finite")
            val_auc = auc_or_none(self.val_scores, self.y_bin[val_idx])
        else:
            val_auc = None
        self.stats.append(
            EpochStats(
                fold=k,
                epoch=epoch,
                lr=lr,
                train_loss=loss_sum / train_idx.size,
                val_auc=val_auc,
            )
        )
        return True


def _worker_buffers(runs: Sequence[_FoldRun]) -> tuple[_Workspace, tuple[np.ndarray, np.ndarray]]:
    """The buffers one worker thread trains any of ``runs`` in: a workspace
    with forward rows for the largest batch or validation block and backward
    rows for the largest batch, and Adam's two scratch vectors. Each epoch
    points the workspace at its fold's parameters."""
    size = runs[0].flat.size
    ws = _Workspace(runs[0].params, max(r.rows for r in runs), max(r.bs for r in runs))
    return ws, (np.empty(size), np.empty(size))


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
