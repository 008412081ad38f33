"""Output checks, written independently of the library's own code paths.

Each check returns None when it passes and a one-line reason when it fails.
AUCs are recomputed by counting (positive, negative) pairs with a binary
search over the sorted negatives, chunk by chunk; the library instead ranks
all scores at once, so agreement is not a tautology.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

PAIR_CHUNK = 4096


class Labels:
    """Per-image label, cohort year and patient read straight from meta.csv."""

    def __init__(self, meta_csv: Path) -> None:
        with meta_csv.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        self.names = [r["image_name"] for r in rows]
        self.label = np.array([int(r["target"]) for r in rows], dtype=np.int64)
        self.is_2020 = np.array([r["source"] == "2020" for r in rows])
        self.patient = {r["image_name"]: r["patient_id"] for r in rows}


def aligned_scores(path: Path, labels: Labels) -> np.ndarray:
    """Scores of a prediction CSV in metadata order; KeyError/ValueError if the
    file does not cover exactly the metadata images."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        by_name = {row[0]: float(row[1]) for row in reader if row}
    if len(by_name) != len(labels.names):
        raise ValueError(f"{path.name} has {len(by_name)} images, metadata has {len(labels.names)}")
    return np.array([by_name[n] for n in labels.names])


def read_folds(path: Path) -> dict[str, int]:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {row[0]: int(row[1]) for row in reader if row}


def pair_count_auc(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """(wins + ties / 2) / (P * N) by explicit pair counting; None if undefined."""
    pos = scores[labels == 1]
    neg = np.sort(scores[labels == 0])
    if pos.size == 0 or neg.size == 0:
        return None
    wins = ties = 0
    for lo in range(0, pos.size, PAIR_CHUNK):
        chunk = pos[lo : lo + PAIR_CHUNK]
        below = np.searchsorted(neg, chunk, side="left")
        upto = np.searchsorted(neg, chunk, side="right")
        wins += int(below.sum())
        ties += int((upto - below).sum())
    return (2 * wins + ties) / (2 * pos.size * neg.size)


def _fmt(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.6f}"


def check_cv_output(stdout: str, scores: np.ndarray, labels: Labels, fold: np.ndarray) -> str | None:
    """The ``cv_all``/``cv_2020``/``fold_k`` lines equal pair-counted AUCs.

    ``scores`` and ``fold`` are aligned with ``labels.names``.
    """
    printed = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    expected = {
        "cv_all": pair_count_auc(scores, labels.label),
        "cv_2020": pair_count_auc(scores[labels.is_2020], labels.label[labels.is_2020]),
    }
    for k in range(int(fold.max()) + 1):
        expected[f"fold_{k}"] = pair_count_auc(scores[fold == k], labels.label[fold == k])
    for key, value in expected.items():
        if printed.get(key) != _fmt(value):
            return f"printed {key}={printed.get(key)}, pair counting gives {_fmt(value)}"
    return None


def check_folds(fold_of: dict[str, int], labels: Labels, k: int) -> str | None:
    """folds.csv covers every image once, uses folds 0..k-1, keeps patients whole."""
    if sorted(fold_of) != sorted(labels.names):
        return "folds.csv does not cover exactly the metadata images"
    if set(fold_of.values()) != set(range(k)):
        return f"folds.csv uses folds {sorted(set(fold_of.values()))}, expected 0..{k - 1}"
    seen: dict[str, int] = {}
    for name, fold in fold_of.items():
        if seen.setdefault(labels.patient[name], fold) != fold:
            return f"patient {labels.patient[name]} spans folds {seen[labels.patient[name]]} and {fold}"
    return None


def _normalized_rank(scores: np.ndarray) -> np.ndarray:
    # Average 1-based rank: (first rank + last rank) / 2 of each tie group.
    s = np.sort(scores)
    first = np.searchsorted(s, scores, side="left") + 1
    last = np.searchsorted(s, scores, side="right")
    return ((first + last) / 2.0 - 1.0) / (scores.size - 1.0)


def check_ensemble(ensemble: np.ndarray, members: list[np.ndarray]) -> str | None:
    """The ensemble is the mean of the members' normalized ranks (to 1e-12)."""
    expected = np.mean([_normalized_rank(m) for m in members], axis=0)
    err = float(np.max(np.abs(ensemble - expected)))
    return None if err <= 1e-12 else f"ensemble.csv differs from the rank mean by {err:.3g}"


def check_stability(stdout: str, table: Path) -> str | None:
    """Printed per-metric stds match numpy's sample std of the shipped table."""
    with table.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    printed = {}
    for line in stdout.splitlines():
        if " std=" in line:
            name, value = line.split(" std=")
            printed[name] = float(value)
    for metric in ("cv_all", "cv_2020", "private_lb", "public_lb"):
        std = float(np.std([float(r[metric]) for r in rows], ddof=1))
        if metric not in printed or abs(printed[metric] - std) > 1.5e-6:
            return f"stability {metric} std printed {printed.get(metric)}, numpy gives {std:.6f}"
    return None


def artifact_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``; manifests without ``timestamp=``."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith(".manifest.txt"):
            data = b"".join(
                line for line in data.splitlines(keepends=True) if not line.startswith(b"timestamp=")
            )
        out[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return out


def compare_digests(a: dict[str, str], b: dict[str, str], what: str) -> str | None:
    if a == b:
        return None
    diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return f"{what}: {len(diff)} artifact(s) differ, first {diff[0]}"
