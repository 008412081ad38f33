import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lesionbench.datamodel import Sex
from lesionbench.errors import (
    CapacityError,
    CoverageError,
    DomainError,
    ShapeError,
    UniquenessError,
)
from lesionbench.features import (
    FEATURE_NAMES,
    N_METADATA_FEATURES,
    SITE_SLOTS,
    STD_FLOOR,
    FeatureTable,
    NormStats,
    SiteVocabulary,
    build_site_vocab,
    compute_n_images,
    encode_dataset,
    fit_norm_stats,
    read_feature_csv,
    write_feature_csv,
)
from util import make_dataset, make_record, reference_encode


def unit_stats() -> NormStats:
    return NormStats(
        age_mean=0.0, age_std=1.0,
        log_size_mean=0.0, log_size_std=1.0,
        n_images_mean=0.0, n_images_std=1.0,
    )


def test_feature_layout():
    assert len(FEATURE_NAMES) == N_METADATA_FEATURES == 14
    assert FEATURE_NAMES[0] == "sex"
    assert FEATURE_NAMES[1] == "age_z"
    assert FEATURE_NAMES[2:12] == tuple(f"site_{i}" for i in range(10))
    assert FEATURE_NAMES[12:] == ("log_size_z", "n_images_z")


def test_compute_n_images_group_counting():
    d = make_dataset(
        [make_record(f"A{i}", patient_id="PA") for i in range(2)]
        + [make_record(f"B{i}", patient_id="PB") for i in range(5)]
    )
    counts = compute_n_images(d)
    assert counts.tolist() == [2, 2, 5, 5, 5, 5, 5]
    assert counts[d.image_names.index("A0")] == 2
    assert counts[d.image_names.index("B3")] == 5


def test_compute_n_images_singletons():
    d = make_dataset([make_record(f"I{i}", patient_id=f"P{i}") for i in range(4)])
    assert set(compute_n_images(d).tolist()) == {1}


def test_site_vocab_sorted_not_padded():
    d = make_dataset(
        [
            make_record("I1", site="torso"),
            make_record("I2", site="head/neck"),
            make_record("I3", site=None),
        ]
    )
    vocab = build_site_vocab(d)
    assert vocab.sites == ("head/neck", "torso")


def test_site_vocab_empty_dataset_area():
    d = make_dataset([make_record("I1", site=None)])
    vocab = build_site_vocab(d)
    assert vocab.sites == ()


def test_site_vocab_holds_at_most_ten_unique_sites():
    sites = tuple(f"site{i:02d}" for i in range(SITE_SLOTS + 1))
    assert SiteVocabulary(sites[:SITE_SLOTS]).sites == sites[:SITE_SLOTS]
    with pytest.raises(ShapeError, match="at most 10"):
        SiteVocabulary(sites)
    with pytest.raises(UniquenessError):
        SiteVocabulary(("torso", "torso"))


def test_site_vocab_capacity_error_lists_extras():
    d = make_dataset(
        [make_record(f"I{i}", patient_id=f"P{i}", site=f"site{i:02d}") for i in range(11)]
    )
    with pytest.raises(CapacityError, match="site10"):
        build_site_vocab(d)


def test_fit_norm_stats_two_point():
    d = make_dataset(
        [
            make_record("I1", patient_id="P1", age=40.0),
            make_record("I2", patient_id="P2", age=60.0),
        ]
    )
    stats = fit_norm_stats(d, compute_n_images(d))
    assert stats.age_mean == 50.0
    assert stats.age_std == pytest.approx(math.sqrt(200.0), abs=1e-7)
    assert stats.age_std == pytest.approx(14.1421356, abs=1e-6)


def test_fit_norm_stats_constant_feature_floored():
    d = make_dataset(
        [make_record(f"I{i}", patient_id=f"P{i}", age=50.0) for i in range(5)]
    )
    stats = fit_norm_stats(d, compute_n_images(d))
    assert stats.age_std == STD_FLOOR
    assert stats.n_images_std == STD_FLOOR  # all counts are 1


def test_fit_norm_stats_all_missing_defaults_with_flag():
    d = make_dataset(
        [make_record(f"I{i}", patient_id=f"P{i}", age=None) for i in range(3)]
    )
    stats = fit_norm_stats(d, compute_n_images(d))
    assert stats.age_mean == 0.0
    assert stats.age_std == 1.0
    assert stats.age_defaulted
    assert stats.log_size_defaulted  # no sizes either


def test_fit_norm_stats_empty_subset_rejected():
    d = make_dataset([])
    with pytest.raises(DomainError):
        fit_norm_stats(d, compute_n_images(d))


def encode_one(r, vocab, stats, n_images):
    """``encode_dataset`` on a one-record dataset: that record's row."""
    return encode_dataset(make_dataset([r]), vocab, stats, n_images)[0]


def test_encode_centered_values_vanish():
    # male, age == mean, site == vocab[0], size missing, n_images == mean
    d = make_dataset([make_record("I1", site="torso", age=50.0)])
    vocab = build_site_vocab(d)
    stats = NormStats(
        age_mean=50.0, age_std=10.0,
        log_size_mean=0.0, log_size_std=1.0,
        n_images_mean=1.0, n_images_std=1.0,
    )
    v = encode_one(d.records[0], vocab, stats, np.array([1]))
    expected = np.zeros(14)
    expected[0] = 1.0
    expected[2] = 1.0
    assert np.array_equal(v, expected)


def test_encode_all_missing_record():
    r = make_record("I1", sex=Sex.MISSING, age=None, site=None, diagnosis=None)
    d = make_dataset([r])
    vocab = build_site_vocab(d)
    stats = fit_norm_stats(d, np.array([1]))
    v = encode_one(r, vocab, stats, np.array([1]))
    expected = np.zeros(14)
    expected[0] = -1.0
    # n_images == mean on the singleton dataset, so its z-score is 0
    assert np.array_equal(v, expected)


def test_encode_hand_z_score():
    r = make_record("I1", sex=Sex.FEMALE, age=60.0, site=None)
    stats = NormStats(
        age_mean=50.0, age_std=10.0,
        log_size_mean=0.0, log_size_std=1.0,
        n_images_mean=1.0, n_images_std=1.0,
    )
    d = make_dataset([r])
    v = encode_one(r, build_site_vocab(d), stats, np.array([1]))
    assert v[0] == 0.0
    assert v[1] == 1.0  # (60 - 50) / 10


def test_encode_log_size():
    r = make_record("I1", size=1000)
    stats = unit_stats()
    d = make_dataset([r])
    v = encode_one(r, build_site_vocab(d), stats, np.array([1]))
    assert v[12] == pytest.approx(math.log(1000.0), rel=1e-15)


def test_encode_out_of_vocab_site_is_all_zero():
    r = make_record("I1", site="elbow")
    d = make_dataset([make_record("I2", patient_id="P2", site="torso")])
    vocab = build_site_vocab(d)
    v = encode_one(r, vocab, unit_stats(), np.array([1]))
    assert np.all(v[2:12] == 0.0)


def test_encode_n_images_must_hold_one_count_per_row():
    r = make_record("I1")
    d = make_dataset([r])
    for n_images in (np.array([]), np.array([1, 1]), np.array([[1]])):
        with pytest.raises(ShapeError, match="one count per row"):
            encode_one(r, build_site_vocab(d), unit_stats(), n_images)
        with pytest.raises(ShapeError, match="one count per row"):
            fit_norm_stats(d, n_images)


def test_encode_site_block_is_one_hot_or_zero():
    rng = np.random.default_rng(3)
    sites = ["torso", "head/neck", "upper extremity", None]
    records = [
        make_record(
            f"I{i}",
            patient_id=f"P{i % 7}",
            site=sites[rng.integers(len(sites))],
            age=float(rng.integers(10, 90)),
        )
        for i in range(40)
    ]
    d = make_dataset(records)
    n_images = compute_n_images(d)
    vocab = build_site_vocab(d)
    stats = fit_norm_stats(d, n_images)
    matrix = encode_dataset(d, vocab, stats, n_images)
    assert matrix.shape == (40, 14)
    site_sums = matrix[:, 2:12].sum(axis=1)
    assert set(site_sums.tolist()) <= {0.0, 1.0}


def test_encoding_invariant_to_record_order():
    records = [
        make_record("I1", patient_id="A", age=30.0, site="torso", size=100),
        make_record("I2", patient_id="B", age=40.0, site="head/neck", size=200),
        make_record("I3", patient_id="A", age=50.0, site=None, size=None),
    ]
    d1 = make_dataset(records)
    d2 = make_dataset(records[::-1])
    out1 = {}
    out2 = {}
    for d, out in ((d1, out1), (d2, out2)):
        n_images = compute_n_images(d)
        vocab = build_site_vocab(d)
        stats = fit_norm_stats(d, n_images)
        out.update(zip(d.image_names, encode_dataset(d, vocab, stats, n_images)))
    for name in out1:
        assert np.array_equal(out1[name], out2[name])


SITES = ["torso", "head/neck", "upper extremity", "palms/soles", "elbow", None]

RECORDS = st.lists(
    st.builds(
        lambda i, sex, age, site, size: (i, sex, age, site, size),
        st.integers(0, 5),
        st.sampled_from(list(Sex)),
        st.none() | st.floats(0.0, 120.0),
        st.sampled_from(SITES),
        st.none() | st.integers(1, 10**12),
    ),
    max_size=12,
)
STATS = st.builds(
    NormStats,
    age_mean=st.floats(-1e3, 1e3), age_std=st.floats(1e-8, 1e3),
    log_size_mean=st.floats(-1e3, 1e3), log_size_std=st.floats(1e-8, 1e3),
    n_images_mean=st.floats(-1e3, 1e3), n_images_std=st.floats(1e-8, 1e3),
)


@settings(max_examples=200, deadline=None)
@given(rows=RECORDS, vocab_sites=st.sets(st.sampled_from(SITES[:-1]), max_size=4),
       stats=st.none() | STATS)
def test_encode_dataset_equals_stacked_reference_rows(rows, vocab_sites, stats):
    records = [
        make_record(f"I{j}", patient_id=f"P{i}", sex=sex, age=age, site=site, size=size)
        for j, (i, sex, age, site, size) in enumerate(rows)
    ]
    d = make_dataset(records)
    n_images = compute_n_images(d)
    vocab = SiteVocabulary(tuple(sorted(vocab_sites)))
    if stats is None:
        if not records:
            return
        stats = fit_norm_stats(d, n_images)
    expected = np.array(
        [reference_encode(r, vocab, stats, n) for r, n in zip(records, n_images.tolist())]
    )
    got = encode_dataset(d, vocab, stats, n_images)
    assert got.shape == (len(records), N_METADATA_FEATURES)
    assert got.tobytes() == expected.reshape(-1, N_METADATA_FEATURES).tobytes()


def test_z_scored_features_standardized_on_fit_subset():
    rng = np.random.default_rng(9)
    records = [
        make_record(
            f"I{i}",
            patient_id=f"P{rng.integers(12)}",
            age=float(rng.integers(1, 100)),
            size=int(rng.integers(10, 10**6)),
        )
        for i in range(60)
    ]
    d = make_dataset(records)
    n_images = compute_n_images(d)
    stats = fit_norm_stats(d, n_images)
    matrix = encode_dataset(d, build_site_vocab(d), stats, n_images)
    for col in (1, 12, 13):
        assert abs(matrix[:, col].mean()) < 1e-9
        assert abs(matrix[:, col].std(ddof=1) - 1.0) < 1e-9


def test_feature_csv_round_trip():
    rng = np.random.default_rng(5)
    table = FeatureTable(
        tuple(f"I{i}" for i in range(25)), rng.normal(size=(25, 14))
    )
    text = write_feature_csv(table)
    assert text.splitlines()[0] == "image_name," + ",".join(f"f{i}" for i in range(14))
    assert read_feature_csv(text) == table


def test_feature_table_select_aligns_rows():
    table = FeatureTable(("A", "B", "C"), np.arange(42.0).reshape(3, 14))
    picked = table.select(["C", "A"], "feature table")
    assert np.array_equal(picked[0], table.values[2])
    assert np.array_equal(picked[1], table.values[0])
    with pytest.raises(CoverageError, match=r"^cnn table missing 2 image\(s\), first: 'D'$"):
        table.select(["A", "D", "E"], "cnn table")
