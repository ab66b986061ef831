"""Datasets for fraud-style binary classification.

Covers CSV ingestion with per-column standardization, stratified
train/test splitting, sharding across organizations, imbalance statistics,
and SMOTE oversampling of the minority class. All randomized operations
take explicit seeds and are bit-reproducible.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

CREDIT_CARD_COLUMNS: tuple[str, ...] = (
    "Time",
    *(f"V{i}" for i in range(1, 29)),
    "Amount",
    "Class",
)


class DataError(ValueError):
    """The data cannot support the configured run; found once it is loaded."""


class ParseError(DataError):
    """CSV content that does not match the expected schema."""


class StratificationError(DataError):
    """A class is too small to stratify."""


@dataclass(frozen=True)
class Dataset:
    """Fixed-width feature rows with binary labels, in stable order.

    Treated as immutable: every operation that changes membership returns a
    new Dataset. The positive class (label 1) is the minority/fraud class.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if labs.shape != (feats.shape[0],):
            raise ValueError("labels length must match feature rows")
        if not np.isfinite(feats).all():
            raise ValueError("features must be finite")
        if labs.size and not np.isin(labs, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def schema_width(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx])

    def minority_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == 1)

    def class_counts(self) -> tuple[int, int]:
        pos = int(np.count_nonzero(self.labels == 1))
        return len(self) - pos, pos


@dataclass(frozen=True)
class PartitionPlan:
    """How to shard a training set across organizations.

    iid: seeded shuffle, near-equal contiguous slices. label-skew: a `skew`
    fraction of the minority examples is concentrated in the first
    ceil(num_orgs/3) shards, the rest is dealt evenly across all shards.
    """

    num_orgs: int
    mode: str = "iid"
    skew: float = 0.0

    def __post_init__(self) -> None:
        if self.num_orgs < 1:
            raise ValueError("num_orgs must be positive")
        if self.mode not in ("iid", "label-skew"):
            raise ValueError(f"unknown partition mode: {self.mode!r}")
        if not 0.0 <= self.skew <= 1.0:
            raise ValueError("skew must lie in [0, 1]")


@dataclass(frozen=True)
class SmoteConfig:
    k: int = 5
    target_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if not 0.0 < self.target_ratio <= 1.0:
            raise ValueError("target_ratio must lie in (0, 1]")


def standardize(features: np.ndarray) -> np.ndarray:
    """Center and scale each column; zero-variance columns are left centered."""
    feats = np.asarray(features, dtype=np.float64)
    std = feats.std(axis=0)
    return (feats - feats.mean(axis=0)) / np.where(std == 0.0, 1.0, std)


def load_csv(path) -> Dataset:
    """Load a credit-card-schema CSV (Time,V1..V28,Amount,Class).

    Features are standardized per-column using this file's own statistics.
    Row order is preserved.
    """
    rows: list[list[float]] = []
    labels: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file, expected a header row")
        header = [name.strip().strip('"') for name in header]
        if tuple(header) != CREDIT_CARD_COLUMNS:
            raise ParseError(
                f"{path}: header mismatch, expected columns "
                f"{','.join(CREDIT_CARD_COLUMNS)}"
            )
        width = len(CREDIT_CARD_COLUMNS)
        for row_no, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ParseError(
                    f"{path}: row {row_no}: expected {width} fields, got {len(row)}"
                )
            values = []
            for col_no, cell in enumerate(row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: row {row_no}, column {CREDIT_CARD_COLUMNS[col_no]}: "
                        f"not numeric: {cell!r}"
                    ) from None
            label = values[-1]
            if label not in (0.0, 1.0):
                raise ParseError(
                    f"{path}: row {row_no}, column Class: must be 0 or 1, got {cell!r}"
                )
            rows.append(values[:-1])
            labels.append(int(label))
    if not rows:
        raise ParseError(f"{path}: no data rows after the header")
    return Dataset(standardize(np.array(rows, dtype=np.float64)),
                   np.array(labels, dtype=np.int64))


def split(data: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified split preserving the class ratio in both halves.

    Per class, round(train_fraction * count) examples go to the training
    half (clamped so both halves keep at least one example of each class).
    Deterministic given the seed; the two halves are disjoint and
    exhaustive, each in original row order.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    train_parts: list[np.ndarray] = []
    test_parts: list[np.ndarray] = []
    for cls in (0, 1):
        idx = np.flatnonzero(data.labels == cls)
        if idx.size < 2:
            raise StratificationError(
                f"class {cls} has {idx.size} example(s); need at least 2 to stratify"
            )
        shuffled = rng.permutation(idx)
        n_train = int(train_fraction * idx.size + 0.5)
        n_train = min(max(n_train, 1), idx.size - 1)
        train_parts.append(shuffled[:n_train])
        test_parts.append(shuffled[n_train:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return data.subset(train_idx), data.subset(test_idx)


def partition(data: Dataset, plan: PartitionPlan, seed: int) -> list[Dataset]:
    """Split a training set into disjoint, exhaustive per-organization shards."""
    n = len(data)
    if plan.num_orgs > n:
        raise DataError(f"cannot deal {n} training rows to {plan.num_orgs} organizations")
    rng = np.random.default_rng(seed)
    if plan.mode == "iid":
        order = rng.permutation(n)
        slices = _near_equal_slices(order, plan.num_orgs)
    else:
        minority = rng.permutation(data.minority_indices())
        n_skew = int(round(plan.skew * minority.size))
        concentrated = minority[:n_skew]
        rest = np.concatenate([minority[n_skew:], np.flatnonzero(data.labels == 0)])
        rest = rng.permutation(rest)
        n_heads = math.ceil(plan.num_orgs / 3)
        slices = [list(part) for part in _near_equal_slices(rest, plan.num_orgs)]
        for pos, idx in enumerate(concentrated):
            slices[pos % n_heads].append(idx)
    return [data.subset(np.sort(np.asarray(part, dtype=np.int64))) for part in slices]


def _near_equal_slices(order: np.ndarray, k: int) -> list[np.ndarray]:
    base, extra = divmod(len(order), k)
    out = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        out.append(order[start : start + size])
        start += size
    return out


def stratified_parts(data: Dataset, n_parts: int, seed: int) -> list[Dataset]:
    """Deal the dataset into n_parts shards of near-equal class composition."""
    if n_parts < 1:
        raise ValueError("n_parts must be positive")
    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[] for _ in range(n_parts)]
    for cls in (0, 1):
        idx = rng.permutation(np.flatnonzero(data.labels == cls))
        for pos, i in enumerate(idx):
            buckets[pos % n_parts].append(int(i))
    return [data.subset(np.sort(np.asarray(b, dtype=np.int64))) for b in buckets]


def imbalance_stats(data: Dataset) -> tuple[int, float]:
    """Count and fraction of minority (label 1) examples."""
    if len(data) == 0:
        raise ValueError("dataset is empty")
    minority = int(np.count_nonzero(data.labels == 1))
    return minority, minority / len(data)


def knn_minority(data: Dataset, point_index: int, k: int) -> list[int]:
    """Indices of the k nearest minority neighbors of a minority example.

    Euclidean distance, self excluded, ties broken by lower index.
    Duplicates of the query point (distance 0) are valid neighbors.
    """
    minority = data.minority_indices()
    if point_index not in minority:
        raise ValueError(f"index {point_index} is not a minority example")
    if k < 1:
        raise ValueError("k must be positive")
    if k >= minority.size:
        raise ValueError(
            f"k={k} must be smaller than the minority count {minority.size}"
        )
    diffs = data.features[minority] - data.features[point_index]
    dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    dists[minority == point_index] = np.inf
    order = np.lexsort((minority, dists))
    return [int(minority[j]) for j in order[:k]]


def interpolate(x_i: np.ndarray, x_j: np.ndarray, r: float) -> np.ndarray:
    """Point at fraction r of the way from x_i toward x_j."""
    return x_i + (x_j - x_i) * r


def smote(data: Dataset, cfg: SmoteConfig, seed: int) -> Dataset:
    """Oversample the minority class until minority/majority >= target_ratio.

    Synthetic examples are drawn on the segment between a minority point and
    one of its k nearest minority neighbors, chosen uniformly; parents cycle
    round-robin over the original minority points. Existing examples are
    never altered; synthetics (label 1) are appended.
    """
    minority = data.minority_indices()
    n_min = minority.size
    n_maj = len(data) - n_min
    if n_min <= cfg.k:
        raise ValueError(
            f"minority count {n_min} must exceed k={cfg.k} for SMOTE"
        )
    needed = math.ceil(cfg.target_ratio * n_maj) - n_min
    if needed <= 0:
        return data

    neighbor_table = [knn_minority(data, int(i), cfg.k) for i in minority]
    rng = np.random.default_rng(seed)
    synthetic = np.empty((needed, data.schema_width), dtype=np.float64)
    for s in range(needed):
        parent_pos = s % n_min
        nbrs = neighbor_table[parent_pos]
        choice = int(rng.integers(cfg.k))
        r = float(rng.random())
        synthetic[s] = interpolate(
            data.features[minority[parent_pos]], data.features[nbrs[choice]], r
        )
    features = np.vstack([data.features, synthetic])
    labels = np.concatenate([data.labels, np.ones(needed, dtype=np.int64)])
    return Dataset(features, labels)
