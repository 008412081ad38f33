import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lesionbench import fusion
from lesionbench.errors import DomainError, FormatError, ShapeError
from lesionbench.features import (
    FeatureTable,
    build_site_vocab,
    compute_n_images,
    encode_dataset,
    fit_norm_stats,
)
from lesionbench.folds import assign_folds
from lesionbench.fusion import (
    FusionHeadModel,
    TrainConfig,
    backward,
    cross_entropy,
    forward,
    init_fusion_head,
    load_model,
    lr_schedule,
    read_cnn_csv,
    save_model,
    train,
)
from lesionbench.metrics import evaluate_cv
from lesionbench.targets import DiagnosisClass, TargetScheme, class_index
from util import (
    gradient_rel_error,
    make_dataset,
    make_folds,
    make_record,
    numeric_gradients,
    random_fusion_instance,
    reference_adam_step,
    reference_backward,
    reference_forward,
)


# --- learning-rate schedule ---------------------------------------------

def test_schedule_warmup_is_exact_tenth():
    assert lr_schedule(0, 15, 3e-4) == 3e-5
    assert lr_schedule(0, 15, 2e-4) == 2e-5
    assert lr_schedule(0, 15, 1.5e-4) == 1.5e-5
    assert lr_schedule(0, 15, 1e-4) == 1e-5


def test_schedule_first_cosine_epoch_is_peak():
    assert lr_schedule(1, 15, 3e-4) == 3e-4
    assert lr_schedule(1, 7, 0.123) == 0.123


def test_schedule_last_epoch_is_zero():
    assert lr_schedule(14, 15, 3e-4) == 0.0
    assert lr_schedule(6, 7, 1e-4) == 0.0


def test_schedule_midpoint():
    # E=16 puts epoch 8 at phase exactly 0.5
    assert lr_schedule(8, 16, 3e-4) == 1.5e-4


def test_schedule_two_epoch_degenerate():
    assert lr_schedule(1, 2, 1e-3) == 1e-3


def test_schedule_monotone_after_peak():
    values = [lr_schedule(e, 15, 3e-4) for e in range(1, 15)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_schedule_domain_errors():
    with pytest.raises(DomainError):
        lr_schedule(0, 1, 3e-4)
    with pytest.raises(DomainError):
        lr_schedule(15, 15, 3e-4)
    with pytest.raises(DomainError):
        lr_schedule(-1, 15, 3e-4)
    with pytest.raises(DomainError):
        lr_schedule(1, 15, 0.0)


# --- forward pass --------------------------------------------------------

def zero_model(scheme=TargetScheme.NINE_CLASS, hidden=(4, 3), d=0):
    h1, h2 = hidden
    c = scheme.class_count
    return FusionHeadModel(
        w1=np.zeros((h1, 14)), b1=np.zeros(h1),
        w2=np.zeros((h2, h1)), b2=np.zeros(h2),
        w3=np.zeros((c, h2 + d)), b3=np.zeros(c),
        scheme=scheme,
    )


def test_forward_zero_weights_uniform():
    m = zero_model()
    logits, probs = forward(m, np.zeros(14))
    assert np.array_equal(logits, np.zeros(9))
    assert np.allclose(probs, 1 / 9, atol=0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_forward_pure_metadata_model():
    rng = np.random.default_rng(0)
    m = init_fusion_head(TargetScheme.FOUR_CLASS, (8, 4), 0, rng)
    logits, probs = forward(m, rng.normal(size=14))
    assert logits.shape == (4,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_forward_stable_softmax_huge_logits():
    m = zero_model(hidden=(2, 2))
    b3 = np.zeros(9)
    b3[0] = 1000.0
    m = FusionHeadModel(
        w1=m.w1, b1=m.b1, w2=m.w2, b2=m.b2, w3=m.w3, b3=b3, scheme=m.scheme
    )
    _, probs = forward(m, np.zeros(14))
    assert np.isfinite(probs).all()
    assert probs[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(probs.sum() - 1.0) <= 1e-9


def test_forward_batch_matches_single():
    rng = np.random.default_rng(1)
    m = init_fusion_head(TargetScheme.NINE_CLASS, (6, 5), 3, rng)
    xm = rng.normal(size=(4, 14))
    xc = rng.normal(size=(4, 3))
    logits, probs = forward(m, xm, xc)
    for i in range(4):
        # BLAS may pick different accumulation kernels for (1,k) and (n,k)
        # matmuls, so equality is up to the last ulp, not bitwise
        li, pi = forward(m, xm[i], xc[i])
        assert np.allclose(li, logits[i], rtol=1e-13, atol=1e-15)
        assert np.allclose(pi, probs[i], rtol=1e-13, atol=1e-15)


def test_forward_shape_errors():
    m = zero_model(d=2)
    with pytest.raises(ShapeError):
        forward(m, np.zeros(13), np.zeros(2))
    with pytest.raises(ShapeError):
        forward(m, np.zeros(14))  # missing cnn block
    with pytest.raises(ShapeError):
        forward(zero_model(), np.zeros(14), np.zeros(2))  # unexpected cnn block


# --- model validation -------------------------------------------------------

def zero_arrays(d=2):
    """Writable copies of ``zero_model(d=d)``'s six arrays (H1=4, H2=3)."""
    return {name: np.array(a) for name, a in zero_model(d=d).params().items()}


@pytest.mark.parametrize("name", fusion.PARAM_NAMES)
def test_model_names_each_misshapen_array(name):
    arrays = zero_arrays()
    arrays[name] = arrays[name][..., None]
    with pytest.raises(ShapeError, match=f"^{name} "):
        FusionHeadModel(scheme=TargetScheme.NINE_CLASS, **arrays)


def test_model_rejects_w3_narrower_than_h2():
    arrays = zero_arrays(d=0)
    arrays["w3"] = arrays["w3"][:, :2]
    with pytest.raises(ShapeError, match="^w3 "):
        FusionHeadModel(scheme=TargetScheme.NINE_CLASS, **arrays)


def test_model_rejects_w3_rows_other_than_the_scheme_classes():
    arrays = zero_arrays()
    arrays["w3"], arrays["b3"] = arrays["w3"][:4], arrays["b3"][:4]
    with pytest.raises(ShapeError, match="^w3 "):
        FusionHeadModel(scheme=TargetScheme.NINE_CLASS, **arrays)
    assert FusionHeadModel(scheme=TargetScheme.FOUR_CLASS, **arrays).cnn_dim == 2


@pytest.mark.parametrize("name", ["w1", "w2", "w3"])
@pytest.mark.parametrize("ndim", [0, 1])
def test_model_rejects_weights_with_too_few_axes(name, ndim):
    arrays = zero_arrays()
    arrays[name] = np.zeros((3,) * ndim)
    with pytest.raises(ShapeError, match=f"^{name} "):
        FusionHeadModel(scheme=TargetScheme.NINE_CLASS, **arrays)


@pytest.mark.parametrize("name", fusion.PARAM_NAMES)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_model_names_each_non_finite_array(name, value):
    arrays = zero_arrays()
    arrays[name].flat[-1] = value
    with pytest.raises(DomainError, match=f"parameter {name} "):
        FusionHeadModel(scheme=TargetScheme.NINE_CLASS, **arrays)


def test_cnn_block_zeroed_matches_pure_metadata():
    rng = np.random.default_rng(2)
    m16 = init_fusion_head(TargetScheme.NINE_CLASS, (8, 4), 16, rng)
    w3 = np.array(m16.w3)
    w3[:, 4:] = 0.0
    m16_frozen = FusionHeadModel(
        w1=m16.w1, b1=m16.b1, w2=m16.w2, b2=m16.b2, w3=w3, b3=m16.b3,
        scheme=m16.scheme,
    )
    m0 = FusionHeadModel(
        w1=m16.w1, b1=m16.b1, w2=m16.w2, b2=m16.b2, w3=w3[:, :4], b3=m16.b3,
        scheme=m16.scheme,
    )
    xm = rng.normal(size=(5, 14))
    xc = rng.normal(size=(5, 16))
    logits_a, _ = forward(m16_frozen, xm, xc)
    logits_b, _ = forward(m0, xm)
    assert np.array_equal(logits_a, logits_b)


# --- loss -----------------------------------------------------------------

def test_cross_entropy_uniform():
    assert cross_entropy(np.full(9, 1 / 9), 4) == pytest.approx(math.log(9), rel=1e-12)


def test_cross_entropy_one_hot():
    probs = np.zeros(9)
    probs[2] = 1.0
    assert cross_entropy(probs, 2) == 0.0
    assert cross_entropy(probs, 1) == pytest.approx(math.log(1e12), rel=1e-12)
    assert cross_entropy(probs, 1) == pytest.approx(27.631, abs=1e-3)


def test_cross_entropy_bad_target():
    with pytest.raises(DomainError):
        cross_entropy(np.full(4, 0.25), 4)


# --- gradients ------------------------------------------------------------

def test_backward_zero_weight_output_layer_identity():
    m = zero_model(hidden=(3, 2), d=2)
    x_meta = np.array([0.5, -1.0] + [0.0] * 12)
    x_cnn = np.array([2.0, -3.0])
    grads = backward(m, x_meta, x_cnn, [1])
    _, probs = forward(m, x_meta, x_cnn)
    joint = np.concatenate([np.zeros(2), x_cnn])  # hidden path is all zero
    delta = np.array(probs)
    delta[1] -= 1.0
    assert np.allclose(grads["w3"], np.outer(delta, joint), atol=1e-15)
    assert np.allclose(grads["b3"], delta, atol=1e-15)
    # dead ReLU units: no gradient reaches the metadata branch
    assert np.all(grads["w1"] == 0.0)
    assert np.all(grads["w2"] == 0.0)


def test_backward_duplicated_batch_equals_single():
    rng = np.random.default_rng(3)
    m, x_meta, x_cnn, targets = random_fusion_instance(rng)
    one_meta = x_meta[:1]
    one_cnn = None if x_cnn is None else x_cnn[:1]
    single = backward(m, one_meta, one_cnn, targets[:1])
    dup_meta = np.repeat(one_meta, 5, axis=0)
    dup_cnn = None if one_cnn is None else np.repeat(one_cnn, 5, axis=0)
    dup = backward(m, dup_meta, dup_cnn, np.repeat(targets[:1], 5))
    for name in single:
        assert np.allclose(single[name], dup[name], rtol=1e-12, atol=1e-15)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(5):
        m, x_meta, x_cnn, targets = random_fusion_instance(rng)
        analytic = backward(m, x_meta, x_cnn, targets)
        numeric = numeric_gradients(m, x_meta, x_cnn, targets)
        assert gradient_rel_error(analytic, numeric) < 1e-6


def test_backward_validates_targets():
    m = zero_model()
    with pytest.raises(DomainError):
        backward(m, np.zeros((1, 14)), None, [9])
    with pytest.raises(DomainError):
        backward(m, np.zeros((1, 14)), None, [])


# --- training -------------------------------------------------------------

def separable_dataset(n_patients=40, images_per_patient=2, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for p in range(n_patients):
        malignant = p % 2 == 0
        age = float(rng.integers(65, 90)) if malignant else float(rng.integers(20, 55))
        for i in range(images_per_patient):
            records.append(
                make_record(
                    f"P{p}_I{i}",
                    patient_id=f"P{p}",
                    age=age,
                    site="torso" if rng.random() < 0.5 else "head/neck",
                    diagnosis="melanoma" if malignant else "nevus",
                    malignant=malignant,
                    year=2020 if rng.random() < 0.5 else 2019,
                    size=int(rng.integers(10**4, 10**6)),
                )
            )
    return make_dataset(records)


def feature_table_for(d):
    n_images = compute_n_images(d)
    stats = fit_norm_stats(d, n_images)
    return FeatureTable(
        d.image_names, encode_dataset(d, build_site_vocab(d), stats, n_images)
    )


SMALL_CFG = TrainConfig(epochs=15, batch_size=8, lr_peak=1e-2, seed=0, hidden=(32, 16))


def test_train_separable_reaches_high_auc():
    d = separable_dataset()
    f = assign_folds(d, k=2, seed=0)
    result = train(d, feature_table_for(d), None, f, SMALL_CFG)
    report = evaluate_cv(result.oof, d, f)
    assert report.cv_all is not None and report.cv_all > 0.95
    assert len(result.models) == 2
    assert len(result.history) == 2 * SMALL_CFG.epochs


def test_train_loss_non_increasing_within_tolerance():
    d = separable_dataset()
    f = assign_folds(d, k=2, seed=0)
    result = train(d, feature_table_for(d), None, f, SMALL_CFG)
    for fold in range(2):
        losses = [h.train_loss for h in result.history if h.fold == fold]
        # epochs 1..E-1; 5% slack for mini-batch noise
        for a, b in zip(losses[1:], losses[2:]):
            assert b <= a * 1.05


def test_train_is_deterministic():
    d = separable_dataset()
    f = assign_folds(d, k=2, seed=0)
    feats = feature_table_for(d)
    r1 = train(d, feats, None, f, SMALL_CFG)
    r2 = train(d, feats, None, f, SMALL_CFG)
    assert r1.oof == r2.oof
    assert r1.history == r2.history
    for a, b in zip(r1.models, r2.models):
        assert save_model(a) == save_model(b)


def test_train_with_cnn_features():
    rng = np.random.default_rng(7)
    d = separable_dataset(n_patients=20)
    f = assign_folds(d, k=2, seed=0)
    cnn = FeatureTable(d.image_names, rng.normal(size=(len(d), 5)))
    cfg = TrainConfig(epochs=3, batch_size=8, lr_peak=1e-3, seed=0, hidden=(8, 4))
    result = train(d, feature_table_for(d), cnn, f, cfg)
    assert result.models[0].cnn_dim == 5
    assert len(result.oof) == len(d)


def test_oof_scores_are_each_folds_final_model_scores():
    rng = np.random.default_rng(11)
    d = separable_dataset(n_patients=30)
    f = assign_folds(d, k=3, seed=0)
    feats = feature_table_for(d)
    cnn = FeatureTable(d.image_names, rng.normal(size=(len(d), 3)))
    cfg = TrainConfig(epochs=3, batch_size=8, lr_peak=1e-2, seed=0, hidden=(8, 4))
    result = train(d, feats, cnn, f, cfg)
    mel = class_index(DiagnosisClass.MEL, cfg.scheme)
    oof = dict(zip(result.oof.image_names, result.oof.scores))
    fold_of = dict(zip(f.image_names, f.folds.tolist()))
    for k, model in enumerate(result.models):
        names = [n for n in d.image_names if fold_of[n] == k]
        _, probs = forward(model, feats.select(names, "f"), cnn.select(names, "c"))
        assert np.array([oof[n] for n in names]).tobytes() == probs[:, mel].tobytes(), k


def test_train_calls_the_step_functions_the_benchmark_traces(monkeypatch):
    # perfbench/layers.py wraps these two names with size functions of three
    # positional arguments; fusion.steps counts the backward calls.
    calls = {"forward": [], "backward": []}

    def sized(key, fn, size_of):
        def wrapper(*args, **kwargs):
            calls[key].append(size_of(*args, **kwargs))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fusion, "_forward_cached", sized(
        "forward", fusion._forward_cached, lambda params, meta, cnn: len(meta)))
    monkeypatch.setattr(fusion, "_backward", sized(
        "backward", fusion._backward, lambda params, cache, targets: len(targets)))
    d = separable_dataset(n_patients=13)
    names = d.image_names
    # Fold 2 of 4 is empty, so its model trains on every image and scores none.
    f = make_folds({n: (0, 1, 3)[i % 3] for i, n in enumerate(names)}, k=4)
    cfg = TrainConfig(epochs=3, batch_size=7, lr_peak=1e-3, seed=0, hidden=(4, 2))
    train(d, feature_table_for(d), None, f, cfg)

    n_val = [int((f.folds == k).sum()) for k in range(f.k)]
    n_train = [len(names) - v for v in n_val]
    steps = sum(cfg.epochs * math.ceil(t / min(cfg.batch_size, t)) for t in n_train)
    val_passes = cfg.epochs * sum(v > 0 for v in n_val)
    assert len(calls["backward"]) == steps
    assert len(calls["forward"]) == steps + val_passes
    assert sum(calls["backward"]) == cfg.epochs * sum(n_train)
    assert sum(calls["forward"]) == cfg.epochs * (sum(n_train) + sum(n_val))


def test_train_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(epochs=1)
    with pytest.raises(DomainError):
        TrainConfig(batch_size=0)
    with pytest.raises(DomainError):
        TrainConfig(lr_peak=0.0)
    with pytest.raises(DomainError):
        TrainConfig(hidden=(0, 4))


def test_train_coverage_checked_before_work():
    d = separable_dataset(n_patients=6)
    f = assign_folds(d, k=2, seed=0)
    feats = feature_table_for(d)
    partial = FeatureTable(feats.image_names[:-1], feats.values[:-1])
    with pytest.raises(Exception) as exc_info:
        train(d, partial, None, f, SMALL_CFG)
    assert d.image_names[-1] in str(exc_info.value)

    missing_fold = make_folds({n: 0 for n in d.image_names[:-1]}, k=2)
    with pytest.raises(Exception):
        train(d, feats, None, missing_fold, SMALL_CFG)


def test_train_stops_a_diverging_run_with_its_context():
    d = separable_dataset(n_patients=10)
    f = assign_folds(d, k=2, seed=0)
    cfg = TrainConfig(epochs=2, batch_size=4, lr_peak=1e200, seed=0, hidden=(8, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings stay silent
        with pytest.raises(DomainError, match=r"diverged in fold 0, epoch 0, batch \d+"):
            train(d, feature_table_for(d), None, f, cfg)


# --- BLAS threads -------------------------------------------------------------

def _tiny_run(d, lr=1e-3):
    return train(d, feature_table_for(d), None, assign_folds(d, k=2, seed=0),
                 TrainConfig(epochs=2, batch_size=4, lr_peak=lr, seed=0, hidden=(8, 4)))


def test_train_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    found = fusion._openblas_threads()
    if found is None:
        pytest.skip("numpy's bundled OpenBLAS is not found here")
    get, set_ = found
    seen = []
    original = fusion._backward

    def wrapper(ws, cache, targets):
        seen.append(get())
        return original(ws, cache, targets)

    monkeypatch.setattr(fusion, "_backward", wrapper)
    d = separable_dataset(n_patients=10)
    old = get()
    set_(2)
    try:
        before = get()
        _tiny_run(d)
        assert seen and set(seen) == {1}
        assert get() == before
        seen.clear()
        with pytest.raises(DomainError, match="diverged"):
            _tiny_run(d, lr=1e200)
        assert seen and set(seen) == {1}
        assert get() == before
    finally:
        set_(old)


def test_overlapping_blas_blocks_restore_the_count_when_the_last_leaves(monkeypatch):
    count = [2]
    monkeypatch.setattr(fusion, "_openblas_threads",
                        lambda: (lambda: count[0], lambda n: count.__setitem__(0, n)))
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def a():  # enters first, leaves first
        with fusion._one_blas_thread():
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def b():
        a_in.wait(10)
        with fusion._one_blas_thread():
            b_in.set()
            a_out.wait(10)
            seen.append(count[0])

    threads = [threading.Thread(target=f) for f in (a, b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert not any(t.is_alive() for t in threads)
    assert seen == [1]  # A's leaving does not restore the count under B
    assert count == [2]


def test_many_overlapping_blas_blocks_see_one_thread_and_restore_the_count(monkeypatch):
    count = [3]
    monkeypatch.setattr(fusion, "_openblas_threads",
                        lambda: (lambda: count[0], lambda n: count.__setitem__(0, n)))
    seen = []
    start = threading.Barrier(8)

    def enter_and_leave():
        start.wait(10)
        for _ in range(500):
            with fusion._one_blas_thread():
                time.sleep(0)  # as training's native code does, let other threads run
                seen.append(count[0])

    threads = [threading.Thread(target=enter_and_leave) for _ in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8 * 500 and set(seen) == {1}
    assert count == [3]


def test_train_runs_where_no_blas_library_is_found(monkeypatch):
    d = separable_dataset(n_patients=10)
    want = _tiny_run(d).oof
    monkeypatch.setattr(fusion, "_openblas_threads", lambda: None)
    assert _tiny_run(d).oof.scores.tobytes() == want.scores.tobytes()


# --- fold threads -------------------------------------------------------------

def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _record_threads(monkeypatch):
    """Thread idents of every forward pass ``train`` makes from now on."""
    threads = []
    original = fusion._forward_cached

    def wrapper(ws, meta, cnn):
        threads.append(threading.get_ident())
        return original(ws, meta, cnn)

    monkeypatch.setattr(fusion, "_forward_cached", wrapper)
    return threads


def _record_runs(monkeypatch):
    """Every fold run ``train`` builds from now on, keyed by the identity of its parameter
    views, which each epoch gives its workspace."""
    runs = {}
    init = fusion._FoldRun.__init__

    def recording_init(run, *args):
        init(run, *args)
        runs[id(run.params)] = run

    monkeypatch.setattr(fusion._FoldRun, "__init__", recording_init)
    return runs


@pytest.mark.parametrize("scheme", list(TargetScheme))
@pytest.mark.parametrize("cnn_dim", [0, 5])
def test_serial_and_threaded_training_give_the_same_bytes(monkeypatch, scheme, cnn_dim):
    rng = np.random.default_rng(3)
    d = separable_dataset(n_patients=30)
    f = assign_folds(d, k=5, seed=0)
    feats = feature_table_for(d)
    cnn = FeatureTable(d.image_names, rng.normal(size=(len(d), cnn_dim))) if cnn_dim else None
    cfg = TrainConfig(epochs=3, batch_size=8, lr_peak=1e-2, seed=0, hidden=(8, 4),
                      scheme=scheme)
    monkeypatch.setattr(fusion, "_MATRIX_BOUND", 0)
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for workers in (1, 2, 5):  # 5 workers outnumber the cores of most test hosts
            _cpus(monkeypatch, workers)
            threads = _record_threads(monkeypatch)
            r = train(d, feats, cnn, f, cfg)
            n_threads = len(set(threads))
            # An idle pool thread takes the next fold, so short folds may share a thread.
            assert n_threads == 1 if workers == 1 else 1 <= n_threads <= workers, workers
            runs[workers] = ([save_model(m) for m in r.models], r.oof.scores.tobytes(),
                             r.oof.image_names, r.history)
    finally:
        sys.setswitchinterval(interval)
    assert runs[2] == runs[1] and runs[5] == runs[1]


def test_one_worker_starts_fold_epochs_in_round_robin_order(monkeypatch):
    d = separable_dataset(n_patients=30)
    f = assign_folds(d, k=5, seed=0)
    cfg = TrainConfig(epochs=3, batch_size=8, lr_peak=1e-2, seed=0, hidden=(8, 4))
    _cpus(monkeypatch, 2)  # 8 rows x 201 parameters is below the bound: one worker
    runs = _record_runs(monkeypatch)
    passes, forward = [], fusion._forward_cached

    def wrapper(ws, meta, cnn):
        run = runs[id(ws.params)]
        passes.append((run.k, len(run.stats)))  # (fold, epoch)
        return forward(ws, meta, cnn)

    monkeypatch.setattr(fusion, "_forward_cached", wrapper)
    train(d, feature_table_for(d), None, f, cfg)
    starts = [p for i, p in enumerate(passes) if i == 0 or passes[i - 1] != p]
    assert starts == [(k, epoch) for epoch in range(3) for k in range(5)]


def test_train_builds_one_workspace_per_worker_not_per_fold(monkeypatch):
    built = []

    class CountedWorkspace(fusion._Workspace):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    d = separable_dataset(n_patients=30)
    f = assign_folds(d, k=5, seed=0)
    monkeypatch.setattr(fusion, "_Workspace", CountedWorkspace)
    monkeypatch.setattr(fusion, "_MATRIX_BOUND", 0)
    _cpus(monkeypatch, 2)
    train(d, feature_table_for(d), None, f, TrainConfig(epochs=2, batch_size=8, hidden=(8, 4)))
    assert len(built) == 2


@pytest.mark.parametrize("hidden, n_threads", [((128, 32), 1), ((256, 64), 2)])
def test_folds_take_threads_when_batch_rows_times_parameters_reach_the_bound(
    monkeypatch, hidden, n_threads
):
    # 64 rows x 6,345 parameters is below 2**20; 64 x 20,873 is above.
    d = separable_dataset(n_patients=40)
    f = assign_folds(d, k=2, seed=0)
    cfg = TrainConfig(epochs=2, batch_size=64, lr_peak=1e-3, seed=0, hidden=hidden)
    _cpus(monkeypatch, 2)
    threads = _record_threads(monkeypatch)
    # A fold this small can end its epoch before a second worker is scheduled, and the first
    # worker then takes the next fold too. Each fold's first epoch waits until n_threads folds
    # have started, so n_threads workers run them on n_threads threads, and fewer workers break
    # the barrier.
    barrier, epoch = threading.Barrier(n_threads, timeout=10), fusion._FoldRun.epoch

    def first_epoch_waits(run, ws, scratch):
        if not run.stats:
            barrier.wait()
        return epoch(run, ws, scratch)

    monkeypatch.setattr(fusion._FoldRun, "epoch", first_epoch_waits)
    train(d, feature_table_for(d), None, f, cfg)
    assert len(set(threads)) == n_threads


def test_cpu_count_is_the_affinity_mask_or_else_the_cpu_count(monkeypatch):
    _cpus(monkeypatch, 3)
    assert fusion._cpu_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity")  # as on platforms without one
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert fusion._cpu_count() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert fusion._cpu_count() == 1


def test_a_failing_fold_stops_the_folds_after_it(monkeypatch):
    started, outcome = threading.Event(), {}

    def fake_epoch(run, ws, scratch):
        if run.k == 0:
            assert started.wait(10)
            raise DomainError("fold 0 failed")
        started.set()
        outcome[run.k] = run.stop.wait(10)  # a real fold checks it before each batch
        return False

    d = separable_dataset(n_patients=10)
    f = assign_folds(d, k=5, seed=0)
    monkeypatch.setattr(fusion, "_MATRIX_BOUND", 0)
    monkeypatch.setattr(fusion._FoldRun, "epoch", fake_epoch)
    _cpus(monkeypatch, 2)
    with pytest.raises(DomainError, match="fold 0 failed"):
        train(d, feature_table_for(d), None, f, SMALL_CFG)
    assert outcome[1] is True  # fold 1 was told to stop, not timed out
    assert all(outcome.values())  # queued folds that started stopped at once


def test_a_fold_before_a_failing_one_runs_on_and_the_lowest_error_is_raised(monkeypatch):
    failed, outcome = threading.Event(), {}

    def fake_epoch(run, ws, scratch):
        if run.k == 1:
            failed.set()
            raise DomainError("fold 1 failed")
        if run.k == 0:
            assert failed.wait(10)
            outcome[0] = run.stop.wait(0.2)  # fold 1's failure must not stop fold 0
            raise DomainError("fold 0 failed")
        outcome[run.k] = run.stop.wait(10)
        return False

    d = separable_dataset(n_patients=10)
    f = assign_folds(d, k=3, seed=0)
    monkeypatch.setattr(fusion, "_MATRIX_BOUND", 0)
    monkeypatch.setattr(fusion._FoldRun, "epoch", fake_epoch)
    _cpus(monkeypatch, 2)
    with pytest.raises(DomainError, match="fold 0 failed"):
        train(d, feature_table_for(d), None, f, SMALL_CFG)
    assert outcome[0] is False
    assert outcome.get(2, True) is True


def test_a_stopped_fold_returns_before_its_next_batch(monkeypatch):
    d = separable_dataset(n_patients=20)
    f = assign_folds(d, k=2, seed=0)
    calls = []
    original = fusion._forward_cached

    def wrapper(ws, meta, cnn):
        calls.append(len(meta))
        run.stop.set()  # as another fold's failure would, during this batch
        return original(ws, meta, cnn)

    monkeypatch.setattr(fusion, "_forward_cached", wrapper)
    x_meta = feature_table_for(d).select(d.image_names, "features")
    y = np.zeros(len(d), dtype=np.int64)
    run = fusion._FoldRun(0, x_meta, np.zeros((len(d), 0)), y, y,
                          f.select(d.image_names, "f"), SMALL_CFG, 0)
    result = run.epoch(*fusion._worker_buffers([run]))
    assert result is False
    assert calls == [SMALL_CFG.batch_size]


def test_a_fold_failing_in_its_second_epoch_stops_the_folds_after_it_within_one_batch(
    monkeypatch
):
    d = separable_dataset(n_patients=40)
    f = assign_folds(d, k=5, seed=0)
    cfg = TrainConfig(epochs=4, batch_size=4, lr_peak=1e-3, seed=0, hidden=(8, 4))
    monkeypatch.setattr(fusion, "_MATRIX_BOUND", 0)
    _cpus(monkeypatch, 2)
    runs = _record_runs(monkeypatch)
    first_epochs_done, after_stop = threading.Event(), {k: 0 for k in range(1, 5)}
    epoch, forward = fusion._FoldRun.epoch, fusion._forward_cached

    def failing_epoch(run, ws, scratch):
        if run.k == 0 and len(run.stats) == 1:
            assert first_epochs_done.wait(10)
            raise DomainError("fold 0 failed in epoch 1")
        going = epoch(run, ws, scratch)
        if all(len(r.stats) >= 1 for r in runs.values() if r.k):
            first_epochs_done.set()
        return going

    def counting_forward(ws, meta, cnn):
        run = runs[id(ws.params)]
        if run.stop.is_set():  # a pass begun after the fold was told to stop
            after_stop[run.k] += 1
        return forward(ws, meta, cnn)

    monkeypatch.setattr(fusion._FoldRun, "epoch", failing_epoch)
    monkeypatch.setattr(fusion, "_forward_cached", counting_forward)
    with pytest.raises(DomainError, match="fold 0 failed in epoch 1"):
        train(d, feature_table_for(d), None, f, cfg)
    later = [r for r in runs.values() if r.k]
    assert len(later) == 4 and all(r.stop.is_set() for r in later)
    assert all(1 <= len(r.stats) < cfg.epochs for r in later)
    # A fold checks its stop before each batch, so at most the batch under way runs on.
    assert all(n <= 1 for n in after_stop.values()), after_stop


@pytest.mark.parametrize("where", ["fold", "caller"])
def test_a_keyboard_interrupt_leaves_no_worker_running_and_restores_the_blas_count(
    monkeypatch, where
):
    count, seen = [3], set()
    monkeypatch.setattr(fusion, "_openblas_threads",
                        lambda: (lambda: count[0], lambda n: count.__setitem__(0, n)))
    d = separable_dataset(n_patients=40)
    f = assign_folds(d, k=5, seed=0)
    cfg = TrainConfig(epochs=4, batch_size=4, lr_peak=1e-3, seed=0, hidden=(8, 4))
    monkeypatch.setattr(fusion, "_MATRIX_BOUND", 0)
    _cpus(monkeypatch, 2)
    runs = _record_runs(monkeypatch)
    forward, calls = fusion._forward_cached, []

    def interrupting_forward(ws, meta, cnn):
        seen.add(count[0])
        calls.append(None)
        if len(calls) == 30:  # inside some fold's first or second epoch
            if where == "fold":
                raise KeyboardInterrupt
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)  # as Ctrl-C would
        return forward(ws, meta, cnn)

    monkeypatch.setattr(fusion, "_forward_cached", interrupting_forward)
    before = set(threading.enumerate())
    with pytest.raises(KeyboardInterrupt):
        train(d, feature_table_for(d), None, f, cfg)
    assert set(threading.enumerate()) <= before
    assert seen == {1} and count == [3]
    if where == "caller":  # every fold was told to stop, and none finished
        assert all(r.stop.is_set() and len(r.stats) < cfg.epochs for r in runs.values())


@pytest.mark.parametrize("hidden, cnn_dim", [((512, 128), 0), ((128, 32), 16)])
@pytest.mark.parametrize("offset", [(1, -1), (1, 0), (2, -1), (2, 37)])
def test_blocked_validation_scores_equal_one_full_pass_bit_for_bit(
    monkeypatch, hidden, cnn_dim, offset
):
    block = fusion.VAL_BLOCK
    n_val, bs = offset[0] * block + offset[1], 64
    rng = np.random.default_rng(n_val)
    n = n_val + bs
    x_meta, x_cnn = rng.normal(size=(n, 14)), rng.normal(size=(n, cnn_dim))
    y = rng.integers(0, 9, n)
    fold_of = np.repeat([0, 1], [n_val, bs])
    cfg = TrainConfig(epochs=2, batch_size=bs, lr_peak=1e-3, seed=0, hidden=hidden)
    mel = class_index(DiagnosisClass.MEL, cfg.scheme)
    calls = []
    original = fusion._forward_cached

    def wrapper(ws, meta, cnn):
        calls.append((ws.h1.shape[0], len(meta)))
        return original(ws, meta, cnn)

    monkeypatch.setattr(fusion, "_forward_cached", wrapper)
    with fusion._one_blas_thread():  # as ``train`` runs both
        run = fusion._FoldRun(0, x_meta, x_cnn, y, (y == mel).astype(np.int64), fold_of, cfg, mel)
        buffers = fusion._worker_buffers([run])
        while len(run.stats) < cfg.epochs:
            assert run.epoch(*buffers)
        full = original(fusion._Workspace(run.params, n_val, 0), x_meta[:n_val],
                        x_cnn[:n_val])["probs"][:, mel]
    assert run.val_scores.tobytes() == full.tobytes()
    val_blocks = [rows for _, rows in calls if rows != bs]
    assert sum(val_blocks) == cfg.epochs * n_val
    assert min(val_blocks) >= min(n_val, block)
    assert max(capacity for capacity, _ in calls) <= max(bs, 2 * block - 1)


# Scores blocked validation rows as training does and as one full pass, on one BLAS thread, under
# the kernel that OPENBLAS_CORETYPE names; prints the kernel's name, then one line per mismatch.
BLOCKS_ON_A_KERNEL = """
import ctypes
import numpy as np
from lesionbench import fusion
corename = getattr(fusion._openblas(), "scipy_openblas_get_corename64_", None)
if corename is None:
    raise SystemExit("no bundled OpenBLAS with scipy_openblas_get_corename64_")
corename.argtypes, corename.restype = [], ctypes.c_char_p
print(corename().decode())
with fusion._one_blas_thread():
    for hidden, d in (((512, 128), 0), ((128, 32), 16)):
        for n in (255, 549, 1061, 11691):
            rng = np.random.default_rng(n)
            shapes = fusion._shapes(*hidden, d, 9)
            params = fusion._views(fusion._init_params(shapes, rng), shapes)
            meta, cnn = rng.normal(size=(n, 14)), rng.normal(size=(n, d))
            blocks = fusion._val_blocks(n)
            ws = fusion._Workspace(params, max(s.stop - s.start for s in blocks), 0)
            blocked = np.concatenate(  # copied out of ``ws``, which the next block overwrites
                [fusion._forward_cached(ws, meta[s], cnn[s])["probs"].copy() for s in blocks])
            full = fusion._forward_cached(fusion._Workspace(params, n, 0), meta, cnn)["probs"]
            if blocked.tobytes() != full.tobytes():
                print(f"hidden {hidden}, D={d}, n={n}: blocks {blocks} differ from one pass")
"""

# The instructions each kernel needs: forcing it on a CPU without them could fault.
KERNEL_FLAGS = {"Haswell": {"avx2", "fma"}, "Sandybridge": {"avx"}}


@pytest.mark.parametrize("core", sorted(KERNEL_FLAGS))
def test_blocked_validation_gives_one_pass_bytes_on_other_blas_kernels(core):
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            flags = {f for line in cpuinfo if line.startswith("flags") for f in line.split()}
    except OSError:
        pytest.skip("no /proc/cpuinfo to check the CPU's instructions")
    if not KERNEL_FLAGS[core] <= flags:
        pytest.skip(f"this CPU lacks {sorted(KERNEL_FLAGS[core] - flags)} for {core}")
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": str(Path(fusion.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", BLOCKS_ON_A_KERNEL], env=env,
                         capture_output=True, text=True, timeout=300)
    if run.returncode and run.stderr.startswith("no bundled OpenBLAS"):
        pytest.skip(run.stderr.strip())
    assert run.returncode == 0, run.stderr
    name, *mismatches = run.stdout.splitlines()
    if name != core:
        pytest.skip(f"OPENBLAS_CORETYPE={core} loaded the {name} kernel")
    assert mismatches == []


# --- flat parameter vector and Adam ----------------------------------------

def test_init_draws_w1_w2_w3_in_order():
    model = init_fusion_head(TargetScheme.FOUR_CLASS, (5, 3), 2, np.random.default_rng(3))
    ref = np.random.default_rng(3)
    assert np.array_equal(model.w1, ref.normal(0.0, math.sqrt(2.0 / 14), size=(5, 14)))
    assert np.array_equal(model.w2, ref.normal(0.0, math.sqrt(2.0 / 5), size=(3, 5)))
    assert np.array_equal(model.w3, ref.normal(0.0, math.sqrt(2.0 / 5), size=(4, 5)))
    assert not (model.b1.any() or model.b2.any() or model.b3.any())


@pytest.mark.parametrize("scheme", list(TargetScheme))
@pytest.mark.parametrize("cnn_dim", [0, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flat_adam_steps_match_per_array_reference_bit_for_bit(scheme, cnn_dim, seed):
    rng = np.random.default_rng(seed)
    hidden = (int(rng.integers(2, 12)), int(rng.integers(2, 12)))
    model = init_fusion_head(scheme, hidden, cnn_dim, rng)
    shapes = fusion._shapes(*hidden, cnn_dim, scheme.class_count)
    flat = fusion._flatten(model.params())
    params = fusion._views(flat, shapes)
    ws = fusion._Workspace(params, 8, 8)
    adam, scratch = fusion._AdamState(flat.size), (np.empty(flat.size), np.empty(flat.size))
    ref = {k: v.copy() for k, v in model.params().items()}
    m = {k: np.zeros_like(v) for k, v in ref.items()}
    v = {k: np.zeros_like(a) for k, a in ref.items()}
    for t in range(1, 7):
        n = int(rng.integers(1, 9))
        cache = fusion._forward_cached(
            ws, rng.normal(size=(n, 14)), rng.normal(size=(n, cnn_dim))
        )
        g = fusion._backward(ws, cache, rng.integers(0, scheme.class_count, n))
        lr = float(10.0 ** rng.uniform(-4, -1))
        adam.step(flat, g, lr, scratch)
        reference_adam_step(ref, m, v, t, fusion._views(g, shapes), lr)
        for name in fusion.PARAM_NAMES:
            assert params[name].tobytes() == ref[name].tobytes(), (t, name)
        assert adam.m.tobytes() == fusion._flatten(m).tobytes()
        assert adam.v.tobytes() == fusion._flatten(v).tobytes()


# --- the per-fold workspace -------------------------------------------------

@st.composite
def workspace_runs(draw):
    """A batch capacity and the batch sizes one workspace sees: a full batch,
    then any others, then a last one that may be short."""
    capacity = draw(st.integers(1, 9))
    sizes = draw(st.lists(st.integers(1, capacity), max_size=4))
    return capacity, [capacity, *sizes, draw(st.integers(1, capacity))]


@settings(max_examples=150, deadline=None)
@given(
    scheme=st.sampled_from(list(TargetScheme)),
    hidden=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    cnn_dim=st.integers(0, 5),
    run=workspace_runs(),
    n_val=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)
@example(scheme=TargetScheme.NINE_CLASS, hidden=(6, 3), cnn_dim=0, run=(1, [1, 1]),
         n_val=5, seed=0)
@example(scheme=TargetScheme.FOUR_CLASS, hidden=(6, 3), cnn_dim=4, run=(5, [5, 5, 2]),
         n_val=3, seed=1)
def test_reused_workspace_matches_the_allocating_oracle_bit_for_bit(
    scheme, hidden, cnn_dim, run, n_val, seed
):
    capacity, sizes = run
    rng = np.random.default_rng(seed)
    shapes = fusion._shapes(*hidden, cnn_dim, scheme.class_count)
    flat = fusion._init_params(shapes, rng)
    params = fusion._views(flat, shapes)
    ws = fusion._Workspace(params, max(capacity, n_val), capacity)
    adam, scratch = fusion._AdamState(flat.size), (np.empty(flat.size), np.empty(flat.size))
    for n in sizes:
        meta, cnn = rng.normal(size=(n, 14)), rng.normal(size=(n, cnn_dim))
        targets = rng.integers(0, scheme.class_count, n)
        ref = reference_forward(params, meta, cnn)
        ref_grad = reference_backward(params, ref, targets)
        cache = fusion._forward_cached(ws, meta, cnn)
        assert cache["logits"].tobytes() == ref["logits"].tobytes()
        assert cache["probs"].tobytes() == ref["probs"].tobytes()
        loss = fusion.mean_cross_entropy(cache["probs"], targets)
        assert loss.hex() == fusion.mean_cross_entropy(ref["probs"], targets).hex()
        assert fusion._backward(ws, cache, targets).tobytes() == ref_grad.tobytes()
        adam.step(flat, ws.grad, 1e-2, scratch)  # the next batch sees new parameters
    # A validation-sized pass after the steps: a stale row would show here.
    meta, cnn = rng.normal(size=(n_val, 14)), rng.normal(size=(n_val, cnn_dim))
    ref = reference_forward(params, meta, cnn)
    cache = fusion._forward_cached(ws, meta, cnn)
    assert cache["logits"].tobytes() == ref["logits"].tobytes()
    assert cache["probs"].tobytes() == ref["probs"].tobytes()


def test_training_step_allocates_less_than_one_batch_activation():
    rng = np.random.default_rng(0)
    hidden, bs = (512, 128), 64
    shapes = fusion._shapes(*hidden, 0, TargetScheme.NINE_CLASS.class_count)
    flat = fusion._init_params(shapes, rng)
    ws = fusion._Workspace(fusion._views(flat, shapes), bs, bs)
    adam, scratch = fusion._AdamState(flat.size), (np.empty(flat.size), np.empty(flat.size))
    batches = [
        (rng.normal(size=(bs, 14)), np.zeros((bs, 0)), rng.integers(0, 9, bs))
        for _ in range(20)
    ]

    def step(meta, cnn, targets):
        cache = fusion._forward_cached(ws, meta, cnn)
        fusion.mean_cross_entropy(cache["probs"], targets)
        adam.step(flat, fusion._backward(ws, cache, targets), 1e-3, scratch)

    step(*batches[0])  # warm-up: first-call set-up in numpy and BLAS
    tracemalloc.start()
    try:
        for batch in batches[1:]:
            step(*batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bs * hidden[0] * 8, peak


def test_train_allocates_less_than_half_its_external_table():
    # Training reads its tables in place and gathers validation rows a block at a time.
    d = separable_dataset(n_patients=2000)
    feats = feature_table_for(d)
    cnn = FeatureTable(d.image_names, np.random.default_rng(0).normal(size=(len(d), 512)))
    f = assign_folds(d, k=2, seed=0)
    cfg = TrainConfig(epochs=2, batch_size=16, lr_peak=1e-3, seed=0, hidden=(8, 4))
    tracemalloc.start()
    try:
        train(d, feats, cnn, f, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cnn.values.nbytes / 2, peak / cnn.values.nbytes


# --- serialization ----------------------------------------------------------

def test_save_load_round_trip():
    rng = np.random.default_rng(8)
    for scheme, d in ((TargetScheme.NINE_CLASS, 0), (TargetScheme.FOUR_CLASS, 7)):
        m = init_fusion_head(scheme, (5, 3), d, rng)
        back = load_model(save_model(m))
        assert back == m
        assert back.scheme is scheme
        assert back.cnn_dim == d


def test_load_rejects_bad_magic():
    m = init_fusion_head(TargetScheme.NINE_CLASS, (2, 2), 0, np.random.default_rng(9))
    data = bytearray(save_model(m))
    data[:4] = b"NOPE"
    with pytest.raises(FormatError, match="LSNB"):
        load_model(bytes(data))


def test_load_rejects_truncation():
    m = init_fusion_head(TargetScheme.NINE_CLASS, (2, 2), 0, np.random.default_rng(10))
    data = save_model(m)
    with pytest.raises(FormatError):
        load_model(data[:-3])
    with pytest.raises(FormatError):
        load_model(data[:10])
    with pytest.raises(FormatError):
        load_model(data + b"\x00")


def test_load_rejects_unknown_version():
    m = init_fusion_head(TargetScheme.NINE_CLASS, (2, 2), 0, np.random.default_rng(11))
    data = bytearray(save_model(m))
    data[4] = 99
    with pytest.raises(FormatError, match="version"):
        load_model(bytes(data))


def test_read_cnn_csv():
    table = read_cnn_csv("image_name,c0,c1\nI1,0.5,-1.5\n")
    assert table.width == 2
    assert np.array_equal(table.values, [[0.5, -1.5]])
    with pytest.raises(FormatError):
        read_cnn_csv("image_name,x0\nI1,0.5\n")
