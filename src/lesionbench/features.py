"""Metadata feature engineering.

Each metadata row becomes a 14-dimensional vector in fixed order::

    [sex, age_z, site_0 .. site_9, log_size_z, n_images_z]

Sex is 1 (male) / 0 (female) / -1 (missing). Continuous features are
z-scored against statistics that :func:`fit_norm_stats` fits on the dataset
it is given. The CLI's ``train`` and ``features`` commands fit them on every
metadata row, validation folds included, so one feature table serves all
folds. Missing continuous values encode as 0, i.e. the mean. The
anatomical site occupies ten one-hot slots, one per site of a data-derived
vocabulary (the observed sites, sorted, at most ten); a missing or
out-of-vocabulary site leaves the whole block zero.
A FeatureTable is written with ``datamodel.float_rows`` and read with ``csv_keyed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import (
    Dataset,
    KeyedTable,
    csv_blocks,
    csv_keyed,
    csv_text,
    float_rows,
    values_at,
)
from .errors import (
    CapacityError,
    DomainError,
    FormatError,
    ShapeError,
    UniquenessError,
)

N_METADATA_FEATURES = 14
SITE_SLOTS = 10
STD_FLOOR = 1e-8

FEATURE_NAMES: tuple[str, ...] = (
    ("sex", "age_z")
    + tuple(f"site_{i}" for i in range(SITE_SLOTS))
    + ("log_size_z", "n_images_z")
)


@dataclass(frozen=True)
class SiteVocabulary:
    """The observed sites, sorted ascending: at most ten, one per site slot.
    Slots past the last site stay zero in every row."""

    sites: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.sites) > SITE_SLOTS:
            raise ShapeError(f"site vocabulary must have at most {SITE_SLOTS} entries")
        if len(set(self.sites)) != len(self.sites):
            raise UniquenessError("site vocabulary entries must be unique")


@dataclass(frozen=True)
class NormStats:
    """Mean/std for the three continuous features, fitted on one subset.

    Stds use the (n-1) denominator and are floored at ``STD_FLOOR``. A
    ``*_defaulted`` flag records that no values were observed and the stats
    fell back to mean 0, std 1.
    """

    age_mean: float
    age_std: float
    log_size_mean: float
    log_size_std: float
    n_images_mean: float
    n_images_std: float
    age_defaulted: bool = False
    log_size_defaulted: bool = False

    def __post_init__(self) -> None:
        for name in ("age_std", "log_size_std", "n_images_std"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")


def compute_n_images(d: Dataset) -> np.ndarray:
    """For each row, the number of rows of ``d`` that share its patient, as
    a row-aligned int64 array. Counted over exactly the dataset given; pass
    the train+test concatenation to reproduce counts over all available data.
    """
    return np.bincount(d.patient)[d.patient]


def build_site_vocab(d: Dataset) -> SiteVocabulary:
    """Distinct non-missing sites, sorted ascending."""
    distinct = sorted(set(d.site) - {""})
    if len(distinct) > SITE_SLOTS:
        extras = ", ".join(distinct[SITE_SLOTS:])
        raise CapacityError(
            f"found {len(distinct)} distinct sites, vocabulary holds "
            f"{SITE_SLOTS}; extras: {extras}"
        )
    return SiteVocabulary(tuple(distinct))


def _mean_std(values: np.ndarray) -> tuple[float, float, bool]:
    if not len(values):
        return 0.0, 1.0, True
    std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return float(values.mean()), max(std, STD_FLOOR), False


def _counts(d: Dataset, n_images: np.ndarray) -> np.ndarray:
    counts = np.asarray(n_images, dtype=np.float64)
    if counts.shape != (len(d),):
        raise ShapeError(f"n_images must hold one count per row, got shape {counts.shape}")
    return counts


def _log_sizes(d: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The rows that have a size, and the natural log of each such size. It
    is ``math.log`` per value: ``np.log`` differs in the last bit on a few."""
    has_size = d.size > 0
    return has_size, np.fromiter(map(math.log, d.size[has_size].tolist()), dtype=np.float64)


def fit_norm_stats(d: Dataset, n_images: np.ndarray) -> NormStats:
    """Fit normalization statistics on every row of ``d``.

    Missing ages and sizes are excluded from their statistics; sizes enter as
    natural logs. ``n_images`` is ``compute_n_images``' row-aligned array.
    """
    if not len(d):
        raise DomainError("cannot fit normalization statistics on an empty dataset")
    age_mean, age_std, age_defaulted = _mean_std(d.age[~np.isnan(d.age)])
    ls_mean, ls_std, ls_defaulted = _mean_std(_log_sizes(d)[1])
    ni_mean, ni_std, _ = _mean_std(_counts(d, n_images))
    return NormStats(age_mean, age_std, ls_mean, ls_std, ni_mean, ni_std,
                     age_defaulted, ls_defaulted)


def encode_dataset(d: Dataset, vocab: SiteVocabulary, stats: NormStats,
                   n_images: np.ndarray) -> np.ndarray:
    """Encode every row as its 14-dimensional feature vector, one column
    (or the site block) at a time; rows follow dataset order.

    ``n_images`` is ``compute_n_images``' row-aligned array.
    """
    counts = _counts(d, n_images)
    out = np.zeros((len(d), N_METADATA_FEATURES), dtype=np.float64)
    out[:, 0] = d.sex
    has_age = ~np.isnan(d.age)
    out[has_age, 1] = (d.age[has_age] - stats.age_mean) / stats.age_std

    slot_of = {site: i for i, site in enumerate(vocab.sites) if site}  # "" is a missing site
    slot = {s: slot_of.get(s, -1) for s in dict.fromkeys(d.site)}  # -1: no slot
    slots = values_at(slot, d.site, np.int64, "site")
    hit = slots >= 0
    out[np.flatnonzero(hit), 2 + slots[hit]] = 1.0

    has_size, log_sizes = _log_sizes(d)
    out[has_size, 12] = (log_sizes - stats.log_size_mean) / stats.log_size_std
    out[:, 13] = (counts - stats.n_images_mean) / stats.n_images_std
    return out


@dataclass(frozen=True, eq=False)
class FeatureTable(KeyedTable):
    """Image-keyed feature matrix, the unit of feature CSV exchange."""

    image_names: tuple[str, ...]
    values: np.ndarray  # (n, width) float64

    @staticmethod
    def _check(keys: tuple[str, ...], values: np.ndarray) -> None:
        if values.ndim != 2 or values.shape[0] != len(keys):
            raise ShapeError(f"feature matrix shape {values.shape} does not match "
                             f"{len(keys)} image names")
        finite = np.isfinite(values)
        if not finite.all():  # name the first non-finite cell in row order
            i, j = divmod(int(np.argmin(finite)), values.shape[1])
            raise DomainError(f"image_name {keys[i]!r}: feature column {j} is "
                              f"{values[i, j].item()!r}; feature values must be finite")

    @property
    def width(self) -> int:
        return int(self.values.shape[1])


def write_feature_csv(table: FeatureTable, prefix: str = "f") -> str:
    """Serialize a feature table with header ``image_name,<prefix>0,...``."""
    header = ["image_name"] + [f"{prefix}{i}" for i in range(table.width)]
    return csv_text(header, float_rows(table.image_names, table.values))


def read_feature_csv(text: str, prefix: str = "f") -> FeatureTable:
    """Parse a feature CSV with header ``image_name,<prefix>0,...``."""
    header, blocks = csv_blocks(text, "feature")
    n_cols = len(header) - 1
    if n_cols < 1 or header != ["image_name"] + [f"{prefix}{i}" for i in range(n_cols)]:
        raise FormatError(f"unrecognized feature header: {','.join(header)!r}")
    return FeatureTable(*csv_keyed(header, blocks))
