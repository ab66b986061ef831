"""Datasets for fraud-style binary classification.

Covers CSV ingestion with per-column standardization, stratified
train/test splitting, sharding across organizations, imbalance statistics,
and SMOTE oversampling of the minority class. All randomized operations
take explicit seeds and are bit-reproducible.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import get_type_hints

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
        labs = np.asarray(self.labels)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if labs.shape != (feats.shape[0],):
            raise ValueError("labels length must match feature rows")
        if not np.isfinite(feats).all():
            raise ValueError("features must be finite")
        # the values as given: an int64 cast first would read 0.7 as 0 and "1" as 1
        if not ((labs == 0) | (labs == 1)).all():
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs.astype(np.int64, copy=False))

    @classmethod
    def _from_checked(cls, features: np.ndarray, labels: np.ndarray) -> "Dataset":
        """A Dataset of rows taken from checked ones, stored as given: float64
        features (rows, width) and int64 0/1 labels, so nothing is checked again."""
        data = object.__new__(cls)
        object.__setattr__(data, "features", features)
        object.__setattr__(data, "labels", labels)
        return data

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def schema_width(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        """The rows at `indices`, integers in [0, len) in any order, repeats allowed."""
        idx = np.asarray(indices)
        if idx.size:
            # a boolean mask or a float array would otherwise be read as row numbers
            if idx.dtype.kind not in "iu":
                raise ValueError(f"row indices must be integers, got dtype {idx.dtype}")
            # and a negative one as counted from the end
            if idx.min() < 0 or idx.max() >= len(self):
                bad = idx[(idx < 0) | (idx >= len(self))][0]
                raise ValueError(f"row index {bad} is out of range for {len(self)} rows")
        idx = idx.astype(np.int64, copy=False)
        return Dataset._from_checked(self.features[idx], self.labels[idx])

    def minority_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == 1)

    def class_counts(self) -> tuple[int, int]:
        pos = int(np.count_nonzero(self.labels == 1))
        return len(self) - pos, pos


def check_integer(key: str, value) -> None:
    """Refuse, naming its key, a setting that is not an integer: a bool, a float
    such as 3.0 or anything else. Python and numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key} must be an integer, got {value!r}")


def check_count(key: str, value) -> None:
    """Refuse, naming its key, a count that is not an integer of at least 1."""
    check_integer(key, value)
    if value < 1:
        raise ValueError(f"{key} must be at least 1, got {value!r}")


class Count(int):
    """The annotation of a config field that counts something, checked by
    `check_count`; text parses to it as to int, and the plain int is stored."""


# the resolved type of each field of a config class, by name
_field_types = cache(get_type_hints)
# the check of an integer field, and of each entry of a tuple of integers
_INTEGER_CHECKS = {int: check_integer, Count: check_count}
_ENTRY_CHECKS = {tuple[int, ...]: check_integer, tuple[Count, ...]: check_count}


def check_fields(config) -> None:
    """Check, naming its key, each typed setting of a config dataclass and store it
    as the Python int, float or bool of its value; every config class calls this first.

    An int field, and each entry of a tuple[int, ...] field, must be an integer. A
    Count field, and each entry of a tuple[Count, ...] field, must be an integer of
    at least 1, else "{key} must be at least 1, got {value!r}" ("{key} entry" for an
    entry). A float field, and a float | None field that is set, must be a finite
    real number that is not a bool, and a bool field a bool. Stored so, every setting
    serializes as cli.config_hash serializes it, and 1 and 1.0 run under one hash.
    Fields of any other type are the class's own to check.
    """
    hints = _field_types(type(config))
    for key, value in list(vars(config).items()):
        hint = hints[key]
        if (check := _INTEGER_CHECKS.get(hint)) is not None:
            check(key, value)
            object.__setattr__(config, key, int(value))
        elif (check := _ENTRY_CHECKS.get(hint)) is not None:
            for entry in value:
                check(f"{key} entry", entry)
            object.__setattr__(config, key, tuple(map(int, value)))
        elif hint is float or (hint == float | None and value is not None):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{key} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
            object.__setattr__(config, key, float(value))
        elif hint is bool:
            if not isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{key} must be a bool, got {value!r}")
            object.__setattr__(config, key, bool(value))


@dataclass(frozen=True)
class PartitionPlan:
    """How to shard a training set across organizations.

    iid: seeded shuffle, near-equal contiguous slices. label-skew: a `skew`
    fraction of the minority examples is concentrated in the first
    ceil(num_orgs/3) shards, the rest is dealt evenly across all shards.
    """

    num_orgs: Count
    mode: str = "iid"
    skew: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.mode not in ("iid", "label-skew"):
            raise ValueError(f"unknown partition mode: {self.mode!r}")
        if not 0.0 <= self.skew <= 1.0:
            raise ValueError("skew must lie in [0, 1]")


@dataclass(frozen=True)
class SmoteConfig:
    k: Count = 5
    target_ratio: float = 1.0

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0.0 < self.target_ratio <= 1.0:
            raise ValueError("target_ratio must lie in (0, 1]")


def standardize(features: np.ndarray) -> np.ndarray:
    """Center and scale each column; zero-variance columns are left centered.

    The rows are centered once and divided in place. The statistics follow `np.std`'s
    own arithmetic: column sums by `np.add.reduce` divided by n for the mean, the
    centered squares summed and divided the same way, then the square root. So the
    bytes equal `(x - x.mean(0)) / x.std(0)`, a zero deviation read as 1.
    """
    feats = np.asarray(features, dtype=np.float64)
    n = feats.shape[0]
    centered = feats - np.add.reduce(feats, axis=0) / n
    std = np.sqrt(np.add.reduce(np.square(centered), axis=0) / n)
    centered /= np.where(std == 0.0, 1.0, std)
    return centered


def read_utf8(path, error: type[Exception] = ParseError) -> str:
    """A text file's contents less a leading byte-order mark; raises `error`, naming
    the file and a byte offset counted from its start, if it is not UTF-8."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return text.removeprefix("\ufeff")


def load_csv(path) -> Dataset:
    """Load a credit-card-schema CSV (Time,V1..V28,Amount,Class).

    Features are standardized per-column using this file's own statistics.
    Row order is preserved.
    """
    rows: list[list[float]] = []
    labels: list[int] = []
    reader = csv.reader(io.StringIO(read_utf8(path)))
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
                value = float(cell)  # "1e400" parses, to inf
                if not math.isfinite(value):
                    raise ValueError
            except ValueError:
                raise ParseError(
                    f"{path}: row {row_no}, column {CREDIT_CARD_COLUMNS[col_no]}: "
                    f"not a finite number: {cell!r}"
                ) from None
            values.append(value)
        label = values[-1]
        if label not in (0.0, 1.0):
            raise ParseError(
                f"{path}: row {row_no}, column Class: must be 0 or 1, got {cell!r}"
            )
        rows.append(values[:-1])
        labels.append(int(label))
    if not rows:
        raise ParseError(f"{path}: no data rows after the header")
    features = np.array(rows, dtype=np.float64)
    # finite cells can still overflow their column's mean or variance
    with np.errstate(over="ignore", invalid="ignore"):
        scalable = np.isfinite(features.mean(axis=0)) & np.isfinite(features.std(axis=0))
    if not scalable.all():
        column = CREDIT_CARD_COLUMNS[int(np.argmin(scalable))]
        raise ParseError(f"{path}: column {column}: values too large to standardize")
    return Dataset(standardize(features), np.array(labels, dtype=np.int64))


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
    # array_split gives the first len % num_orgs slices one row more
    if plan.mode == "iid":
        slices = np.array_split(rng.permutation(n), plan.num_orgs)
    else:
        minority = rng.permutation(data.minority_indices())
        n_skew = int(round(plan.skew * minority.size))
        concentrated = minority[:n_skew]
        rest = np.concatenate([minority[n_skew:], np.flatnonzero(data.labels == 0)])
        slices = np.array_split(rng.permutation(rest), plan.num_orgs)
        n_heads = math.ceil(plan.num_orgs / 3)
        for head in range(n_heads):
            slices[head] = np.concatenate([slices[head], concentrated[head::n_heads]])
    for org, part in enumerate(slices):
        if len(part) == 0:
            raise DataError(
                f"{plan.mode} partition of {n} training rows leaves organization {org} "
                f"no rows")
    return [data.subset(np.sort(part)) for part in slices]


def stratified_parts(data: Dataset, n_parts: int, seed: int) -> list[Dataset]:
    """Deal the dataset into n_parts shards of near-equal class composition."""
    check_count("n_parts", n_parts)
    rng = np.random.default_rng(seed)
    by_class = [rng.permutation(np.flatnonzero(data.labels == cls)) for cls in (0, 1)]
    return [data.subset(np.sort(np.concatenate([idx[p::n_parts] for idx in by_class])))
            for p in range(n_parts)]


def imbalance_stats(data: Dataset) -> tuple[int, float]:
    """Count and fraction of minority (label 1) examples."""
    if len(data) == 0:
        raise ValueError("dataset is empty")
    minority = data.class_counts()[1]
    return minority, minority / len(data)


# difference cells (float64) one block of kNN queries holds: 8 MiB
_KNN_BLOCK_CELLS = 1 << 20


def _nearest(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Row q holds the positions in `points` of the k points nearest to point
    `queries[q]`, nearest first.

    Euclidean distance, each row's from one `einsum("ij,ij->i")` over its differences
    `points - points[query]`. A query's own distance is set to -inf, so a stable sort
    puts it first, to be dropped, and breaks every other tie by lower position. Queries
    run in blocks of at most `_KNN_BLOCK_CELLS` difference cells, so many points never
    need all their pairs at once.
    """
    m, width = points.shape
    per_block = max(1, _KNN_BLOCK_CELLS // max(1, m * width))
    table = np.empty((queries.size, k), dtype=np.intp)
    for start in range(0, queries.size, per_block):
        block = queries[start : start + per_block]
        diffs = (points - points[block, None, :]).reshape(block.size * m, width)
        dists = np.sqrt(np.einsum("ij,ij->i", diffs, diffs)).reshape(block.size, m)
        dists[np.arange(block.size), block] = -np.inf
        table[start : start + block.size] = np.argsort(dists, axis=1, kind="stable")[:, 1 : k + 1]
    return table


def knn_minority(data: Dataset, point_index: int, k: int) -> list[int]:
    """Indices of the k nearest minority neighbors of a minority example.

    Euclidean distance, self excluded, ties broken by lower index.
    Duplicates of the query point (distance 0) are valid neighbors. The one-query
    case of the table `smote` builds for a whole dataset.
    """
    minority = data.minority_indices()
    if point_index not in minority:
        raise ValueError(f"index {point_index} is not a minority example")
    check_integer("k", k)
    if k < 1:
        raise ValueError("k must be positive")
    if k >= minority.size:
        raise ValueError(
            f"k={k} must be smaller than the minority count {minority.size}"
        )
    query = np.searchsorted(minority, [point_index])
    return minority[_nearest(data.features[minority], query, k)[0]].tolist()


def _draws_from_raw(words: np.ndarray, k: int,
                    needed: int) -> tuple[np.ndarray, np.ndarray] | None:
    """`(choice, r)` as `needed` rounds of `(rng.integers(k), rng.random())` draw them
    from a fresh PCG64 Generator whose raw 64-bit output is `words`, 3 per 2 rounds,
    or None where Lemire's bounded method would reject a draw and redraw.

    For 2 <= k < 2**32, `integers(k)` takes one 32-bit half of a word, low half
    first, keeping the high half for the next call, and maps it to `(x * k) >> 32`;
    `random()` takes a whole word as `(w >> 11) * 2**-53`. So round 2p reads the low
    half of word 3p and word 3p+1, and round 2p+1 the high half of word 3p and word
    3p+2. Lemire rejects x when `(x * k) mod 2**32 < (2**32 - k) mod k`.
    """
    w = words.reshape(-1, 3)
    halves = np.stack([w[:, 0] & 0xFFFFFFFF, w[:, 0] >> 32], axis=1).ravel()[:needed]
    products = halves * np.uint64(k)
    if ((products & 0xFFFFFFFF) < (2**32 - k) % k).any():
        return None
    fractions = w[:, 1:].ravel()[:needed]
    return (products >> 32).astype(np.int64), (fractions >> 11) * 2.0**-53


def _smote_draws(k: int, needed: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour choices and fractions for `needed` synthetic rows: per row in turn,
    `rng.integers(k)` then `rng.random()` on `default_rng(seed)`, an order that fixes
    the stream. They are read in one raw PCG64 call; the per-row loop runs only for
    k = 1, where `integers(1)` draws nothing, or when a draw would be rejected."""
    if k > 1:
        words = np.random.default_rng(seed).bit_generator.random_raw(3 * math.ceil(needed / 2))
        drawn = _draws_from_raw(words, k, needed)
        if drawn is not None:
            return drawn
    rng = np.random.default_rng(seed)
    choice, r = zip(*[(rng.integers(k), rng.random()) for _ in range(needed)])
    return np.array(choice), np.array(r)


def smote(data: Dataset, cfg: SmoteConfig, seed: int) -> Dataset:
    """Oversample the minority class until minority/majority >= target_ratio.

    Synthetic examples are drawn on the segment between a minority point and
    one of its k nearest minority neighbors, chosen uniformly; parents cycle
    round-robin over the original minority points. Existing examples are
    never altered; synthetics (label 1) are appended. Every minority point's
    neighbors come from one table per call, as `knn_minority` gives them.
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

    points = data.features[minority]
    neighbors = minority[_nearest(points, np.arange(n_min), cfg.k)]
    choice, r = _smote_draws(cfg.k, needed, seed)
    parent = np.arange(needed) % n_min
    x_i = points[parent]
    # x_i + (x_j - x_i) * r in place after the original rows: a large set-up peaks here
    features = np.empty((len(data) + needed, data.schema_width))
    features[: len(data)] = data.features
    synthetic = features[len(data) :]
    np.take(data.features, neighbors[parent, choice], axis=0, out=synthetic)
    synthetic -= x_i
    synthetic *= r[:, None]
    synthetic += x_i
    # the original rows were checked; a difference near 1e308 can overflow
    if not np.isfinite(synthetic).all():
        raise ValueError("features must be finite")
    labels = np.concatenate([data.labels, np.ones(needed, dtype=np.int64)])
    return Dataset._from_checked(features, labels)
