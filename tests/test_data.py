import math
import os

import numpy as np
import pytest

from fedledger import data as datamod
from fedledger.data import (
    CREDIT_CARD_COLUMNS,
    DataError,
    Dataset,
    ParseError,
    PartitionPlan,
    SmoteConfig,
    StratificationError,
    imbalance_stats,
    knn_minority,
    load_csv,
    partition,
    smote,
    split,
    standardize,
    stratified_parts,
)


def make_dataset(features, labels):
    return Dataset(np.array(features, dtype=np.float64), np.array(labels))


def write_csv(path, rows):
    with open(path, "w") as fh:
        fh.write(",".join(CREDIT_CARD_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def brute_force_knn(data, point_index, k):
    """Exhaustive all-pairs distance sort; oracle for knn_minority."""
    out = []
    for i in np.flatnonzero(data.labels == 1):
        if i == point_index:
            continue
        d = float(np.linalg.norm(data.features[i] - data.features[point_index]))
        out.append((d, int(i)))
    out.sort()
    return [i for _, i in out[:k]]


class TestLoadCsv:
    def test_echo_roundtrip(self, tmp_path):
        path = tmp_path / "tiny.csv"
        rows = [
            [0.0] + [float(i) for i in range(1, 29)] + [100.0, 0],
            [1.0] + [float(-i) for i in range(1, 29)] + [50.0, 1],
            [2.0] + [0.0] * 28 + [75.0, 0],
        ]
        write_csv(path, rows)
        ds = load_csv(path)
        assert len(ds) == 3
        assert ds.schema_width == 30
        assert list(ds.labels) == [0, 1, 0]
        # the features are the written rows, standardized
        raw = np.array([r[:-1] for r in rows])
        assert ds.features.tobytes() == standardize(raw).tobytes()
        # columns are centered and scaled
        np.testing.assert_allclose(ds.features.mean(axis=0), 0.0, atol=1e-12)

    def test_row_arity_error_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write(",".join(CREDIT_CARD_COLUMNS) + "\n")
            fh.write(",".join(["0.0"] * 31) + "\n")
            fh.write(",".join(["0.0"] * 29) + "\n")
        with pytest.raises(ParseError, match="row 3"):
            load_csv(path)

    def test_non_numeric_cell_names_column(self, tmp_path):
        path = tmp_path / "bad2.csv"
        row = ["0.0"] * 31
        row[2] = "oops"
        with open(path, "w") as fh:
            fh.write(",".join(CREDIT_CARD_COLUMNS) + "\n")
            fh.write(",".join(row) + "\n")
        with pytest.raises(ParseError, match="column V2"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        # 1e400 parses to inf; a non-finite feature must not reach Dataset
        path = tmp_path / "nonfinite.csv"
        rows = [["0.0"] * 31, ["0.0"] * 31]
        rows[1][5] = cell
        with open(path, "w") as fh:
            fh.write(",".join(CREDIT_CARD_COLUMNS) + "\n")
            fh.writelines(",".join(row) + "\n" for row in rows)
        with pytest.raises(ParseError, match=f"row 3, column V5: not a finite number: '{cell}'"):
            load_csv(path)

    @pytest.mark.parametrize("cells", [
        ["1e308", "1e308"],  # finite cells whose sum overflows the mean
        ["1e200", "-1e200", "0"],  # a zero mean, but the variance overflows
    ])
    def test_column_too_large_to_standardize(self, tmp_path, cells):
        path = tmp_path / "huge.csv"
        rows = [["0.0"] * 30 + [str(i % 2)] for i in range(len(cells))]
        for row, cell in zip(rows, cells):
            row[2] = cell
        with open(path, "w") as fh:
            fh.write(",".join(CREDIT_CARD_COLUMNS) + "\n")
            fh.writelines(",".join(row) + "\n" for row in rows)
        with pytest.raises(ParseError, match=f"^{path}: column V2: values too large to standardize$"):
            load_csv(path)

    def test_quoted_cells_and_header(self, tmp_path):
        # the public fraud file quotes its header and Class column
        path = tmp_path / "quoted.csv"
        header = ",".join(f'"{c}"' for c in CREDIT_CARD_COLUMNS)
        row = ",".join(["1.5"] * 30 + ['"1"'])
        path.write_text(header + "\n" + row + "\n")
        ds = load_csv(path)
        assert len(ds) == 1
        assert ds.labels[0] == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "badheader.csv"
        with open(path, "w") as fh:
            fh.write("a,b,c\n")
        with pytest.raises(ParseError, match="header"):
            load_csv(path)

    @pytest.mark.skipif(
        "CREDITCARD_CSV" not in os.environ,
        reason="set CREDITCARD_CSV to the public credit-card file to enable",
    )
    def test_public_dataset_counts(self):
        ds = load_csv(os.environ["CREDITCARD_CSV"])
        assert len(ds) == 284807
        assert int(ds.labels.sum()) == 492


class TestSubset:
    def test_rows_in_given_order(self):
        ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1])
        for idx in ([2, 0, 2], np.array([3, 1], dtype=np.uint8)):
            out = ds.subset(idx)
            assert out.features[:, 0].tolist() == [float(i) for i in idx]
            assert out.labels.tolist() == [ds.labels[i] for i in idx]

    def test_empty(self):
        ds = make_dataset([[0.0], [1.0]], [0, 1])
        out = ds.subset([])
        assert len(out) == 0 and out.schema_width == 1

    @pytest.mark.parametrize("idx", [[True, False, True, False], [1.7, 2.2], np.array([1.0])])
    def test_mask_or_non_integer_refused(self, idx):
        ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1])
        with pytest.raises(ValueError, match="row indices must be integers"):
            ds.subset(idx)

    @pytest.mark.parametrize("idx, bad", [
        ([-1, -4], -1),
        ([3, -1], -1),
        ([0, 2, -3], -3),
        ([1, 4], 4),
        (np.array([3, 9, 0], dtype=np.uint8), 9),
    ])
    def test_index_outside_rows_refused(self, idx, bad):
        ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1])
        with pytest.raises(ValueError, match=f"^row index {bad} is out of range for 4 rows$"):
            ds.subset(idx)


class TestDatasetLabels:
    @pytest.mark.parametrize("labels", [
        [0, 1, 1],
        np.array([False, True, True]),
        np.array([0, 1, 1], dtype=np.uint8),
        np.array([0, 1, 1], dtype=np.int32),
        np.array([0.0, 1.0, 1.0]),
        np.array([0.0, 1.0, 1.0], dtype=np.float32),
    ])
    def test_exact_zero_one_accepted_as_int64(self, labels):
        ds = Dataset(np.zeros((3, 2)), labels)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("labels", [
        [0.7, 1.9, True],
        [0, 1, 2],
        [0, -1, 1],
        [0.0, 1.0, 1e-9],
        [0.0, 1.0, float("nan")],
        ["0", "1", "1"],
        np.array(["0", "1", "1"], dtype=object),
    ])
    def test_values_checked_before_the_cast(self, labels):
        with pytest.raises(ValueError, match="^labels must be 0 or 1$"):
            Dataset(np.zeros((3, 2)), labels)

    def test_empty(self):
        ds = Dataset(np.zeros((0, 2)), [])
        assert ds.labels.dtype == np.int64 and len(ds) == 0


class TestDerivedDatasets:
    """Datasets derived from a checked one are built without checking again."""

    @staticmethod
    def checked():
        rng = np.random.default_rng(24)
        labels = np.array([1] * 12 + [0] * 48)
        return make_dataset(rng.normal(size=(60, 3)) + labels[:, None], labels)

    def test_derived_paths_skip_the_checks(self, monkeypatch):
        from fedledger.federation import _flip_labels

        data = self.checked()

        def checked_again(self):
            raise AssertionError("a derived Dataset was checked again")

        monkeypatch.setattr(Dataset, "__post_init__", checked_again)
        derived = [
            data.subset([5, 0, 59, 5]),
            data.subset([]),
            *split(data, 0.8, 1),
            *partition(data, PartitionPlan(4), 2),
            *partition(data, PartitionPlan(4, "label-skew", 0.5), 3),
            *stratified_parts(data, 3, 4),
            smote(data, SmoteConfig(k=3), 5),
            _flip_labels(data, 0.3, 6),
        ]
        monkeypatch.undo()
        for out in derived:
            # as the checks would have stored them
            again = Dataset(out.features, out.labels)
            assert out.features.dtype == np.float64 and out.features.ndim == 2
            assert out.labels.dtype == np.int64
            assert np.array_equal(again.features, out.features)
            assert np.array_equal(again.labels, out.labels)

    @pytest.mark.parametrize("features, labels, message", [
        ([[0.0], [math.inf]], [0, 1], "features must be finite"),
        ([[0.0], [math.nan]], [0, 1], "features must be finite"),
        ([[0.0], [1.0]], [0, 2], "labels must be 0 or 1"),
    ])
    def test_constructor_keeps_every_check(self, features, labels, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dataset(np.array(features), np.array(labels))

    def test_smote_refuses_rows_that_overflow(self):
        # finite rows whose differences overflow: row 1's neighbour is row 0,
        # so its synthetic row x_1 + (x_0 - x_1) * r is not finite
        feats = np.array([[1.5e308], [-1.5e308], [1.4e308], [0.0], [1.0], [2.0], [3.0], [4.0]])
        data = make_dataset(feats, [1, 1, 1, 0, 0, 0, 0, 0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^features must be finite$"):
                smote(data, SmoteConfig(k=1), 7)


class TestSplit:
    def test_exact_stratification(self):
        labels = [1] * 10 + [0] * 90
        ds = make_dataset(np.arange(100, dtype=float).reshape(100, 1), labels)
        train, test = split(ds, 0.8, seed=1)
        assert len(train) == 80 and len(test) == 20
        assert int(train.labels.sum()) == 8
        assert int(test.labels.sum()) == 2

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        ds = make_dataset(rng.normal(size=(50, 2)), rng.integers(0, 2, size=50))
        a = split(ds, 0.7, seed=9)
        b = split(ds, 0.7, seed=9)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    def test_disjoint_exhaustive(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(41, 2))
        ds = make_dataset(feats, rng.integers(0, 2, size=41))
        train, test = split(ds, 0.6, seed=3)
        combined = np.vstack([train.features, test.features])
        assert combined.shape[0] == 41
        # every original row appears exactly once
        key = lambda arr: sorted(map(tuple, arr))
        assert key(combined) == key(feats)

    def test_credit_card_scale_counts(self):
        # same shape as the public fraud dataset: 284,807 rows, 492 positive
        n, pos = 284807, 492
        labels = np.zeros(n, dtype=np.int64)
        labels[:pos] = 1
        ds = Dataset(np.zeros((n, 1)), labels)
        train, test = split(ds, 0.8, seed=0)
        assert len(test) in (56961, 56962)
        assert len(train) + len(test) == n

    def test_tiny_class_rejected(self):
        ds = make_dataset([[0.0], [1.0], [2.0]], [0, 0, 1])
        with pytest.raises(StratificationError):
            split(ds, 0.5, seed=0)


class TestPartition:
    def test_iid_even_sizes(self):
        ds = make_dataset(np.arange(10, dtype=float).reshape(10, 1), [0] * 10)
        shards = partition(ds, PartitionPlan(2, "iid"), 0)
        assert sorted(len(s) for s in shards) == [5, 5]

    def test_skew_boundary_all_minority_in_first_shard(self):
        labels = [1, 1, 1] + [0] * 6
        ds = make_dataset(np.arange(9, dtype=float).reshape(9, 1), labels)
        shards = partition(ds, PartitionPlan(3, "label-skew", skew=1.0), 4)
        assert int(shards[0].labels.sum()) == 3
        assert int(shards[1].labels.sum()) == 0
        assert int(shards[2].labels.sum()) == 0

    @pytest.mark.parametrize("mode,skew", [("iid", 0.0), ("label-skew", 0.7)])
    def test_union_is_input_multiset(self, mode, skew):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(23, 2))
        labels = rng.integers(0, 2, size=23)
        ds = make_dataset(feats, labels)
        shards = partition(ds, PartitionPlan(4, mode, skew=skew), 6)
        got = np.vstack([s.features for s in shards])
        assert sorted(map(tuple, got)) == sorted(map(tuple, feats))
        assert sum(len(s) for s in shards) == 23

    def test_skew_leaving_an_organization_no_rows_rejected(self):
        # all 4 minority rows go to the first ceil(6 / 3) = 2 shards, and the
        # 3 majority rows reach only organizations 0 to 2
        ds = make_dataset(np.arange(7, dtype=float).reshape(7, 1), [1] * 4 + [0] * 3)
        with pytest.raises(DataError, match="leaves organization 3 no rows"):
            partition(ds, PartitionPlan(6, "label-skew", skew=1.0), 0)

    def test_too_many_orgs_rejected(self):
        ds = make_dataset([[0.0]], [0])
        with pytest.raises(ValueError):
            partition(ds, PartitionPlan(2, "iid"), 0)

    def test_zero_orgs_rejected(self):
        with pytest.raises(ValueError):
            PartitionPlan(0, "iid")

    @pytest.mark.parametrize("num_orgs", [3.0, 2.5, True, "3"])
    def test_non_integer_orgs_refused(self, num_orgs):
        with pytest.raises(ValueError, match="^num_orgs must be an integer, got "):
            PartitionPlan(num_orgs)

    def test_numpy_integer_orgs_accepted(self):
        ds = make_dataset(np.arange(12.0).reshape(6, 2), [1, 0] * 3)
        same_shards(partition(ds, PartitionPlan(np.int64(3)), 4),
                    partition(ds, PartitionPlan(3), 4))


class TestStratifiedParts:
    def test_class_balance_and_exhaustive(self):
        labels = [1] * 6 + [0] * 12
        ds = make_dataset(np.arange(18, dtype=float).reshape(18, 1), labels)
        parts = stratified_parts(ds, 3, seed=0)
        assert all(int(p.labels.sum()) == 2 for p in parts)
        assert sum(len(p) for p in parts) == 18


class TestImbalanceStats:
    def test_balanced(self):
        ds = make_dataset(np.zeros((4, 1)), [0, 1, 0, 1])
        assert imbalance_stats(ds) == (2, 0.5)

    def test_all_negative(self):
        ds = make_dataset(np.zeros((3, 1)), [0, 0, 0])
        assert imbalance_stats(ds) == (0, 0.0)

    def test_credit_card_scale_ratio(self):
        labels = np.zeros(284807, dtype=np.int64)
        labels[:492] = 1
        ds = Dataset(np.zeros((284807, 1)), labels)
        count, ratio = imbalance_stats(ds)
        assert count == 492
        assert ratio == pytest.approx(0.00173, abs=2e-5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            imbalance_stats(make_dataset(np.empty((0, 1)), []))


class TestKnnMinority:
    def test_line_neighbors(self):
        ds = make_dataset([[0.0], [1.0], [10.0]], [1, 1, 1])
        assert knn_minority(ds, 0, 1) == [1]

    def test_duplicate_is_first_neighbor(self):
        ds = make_dataset([[2.0], [2.0], [5.0]], [1, 1, 1])
        assert knn_minority(ds, 1, 2) == [0, 2]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(25, 2))
        labels = np.array([1] * 20 + [0] * 5)
        ds = make_dataset(feats, labels)
        for q in range(0, 20, 3):
            assert knn_minority(ds, q, 3) == brute_force_knn(ds, q, 3)

    def test_majority_query_rejected(self):
        ds = make_dataset([[0.0], [1.0], [2.0]], [1, 1, 0])
        with pytest.raises(ValueError):
            knn_minority(ds, 2, 1)

    def test_k_too_large_rejected(self):
        ds = make_dataset([[0.0], [1.0]], [1, 1])
        with pytest.raises(ValueError):
            knn_minority(ds, 0, 2)

    def test_query_never_its_own_neighbour_when_distances_overflow(self):
        # every difference squares past the largest float, so every distance is
        # inf; the nearest of a row is the lowest other position, never the row
        points = np.array([[1.5e308], [-1.5e308], [-1.4e308]])
        ds = make_dataset(points, [1, 1, 1])
        with np.errstate(over="ignore"):
            assert datamod._nearest(points, np.arange(3), 1).tolist() == [[1], [0], [0]]
            assert datamod._nearest(points, np.arange(3), 2).tolist() == [[1, 2], [0, 2], [0, 1]]
            assert [knn_minority(ds, q, 1) for q in range(3)] == [[1], [0], [0]]


class TestSmote:
    def test_synthetics_on_segment(self):
        rng = np.random.default_rng(10)
        n_min, n_maj = 12, 60
        feats = np.vstack([rng.normal(size=(n_min, 3)), rng.normal(5.0, 1.0, (n_maj, 3))])
        labels = np.array([1] * n_min + [0] * n_maj)
        ds = make_dataset(feats, labels)
        out = smote(ds, SmoteConfig(k=3, target_ratio=1.0), 11)
        synth = out.features[len(ds):]
        assert synth.shape[0] == n_maj - n_min
        minority_feats = feats[:n_min]
        for row in synth:
            # the synthetic point must sit on a segment between two minority points
            best = min(
                _segment_residual(row, minority_feats[a], minority_feats[b])
                for a in range(n_min)
                for b in range(n_min)
                if a != b
            )
            assert best < 1e-9

    def test_existing_examples_untouched_and_labels_one(self):
        rng = np.random.default_rng(13)
        feats = np.vstack([rng.normal(size=(6, 2)), rng.normal(3.0, 1.0, (20, 2))])
        labels = np.array([1] * 6 + [0] * 20)
        ds = make_dataset(feats, labels)
        out = smote(ds, SmoteConfig(k=2, target_ratio=1.0), 14)
        np.testing.assert_array_equal(out.features[:26], feats)
        np.testing.assert_array_equal(out.labels[:26], labels)
        assert (out.labels[26:] == 1).all()

    def test_target_ratio_met(self):
        rng = np.random.default_rng(15)
        feats = np.vstack([rng.normal(size=(5, 2)), rng.normal(4.0, 1.0, (100, 2))])
        ds = make_dataset(feats, [1] * 5 + [0] * 100)
        out = smote(ds, SmoteConfig(k=3, target_ratio=1.0), 16)
        minority, _ = imbalance_stats(out)
        assert minority >= 100

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        feats = np.vstack([rng.normal(size=(6, 2)), rng.normal(4.0, 1.0, (30, 2))])
        ds = make_dataset(feats, [1] * 6 + [0] * 30)
        a = smote(ds, SmoteConfig(k=2, target_ratio=0.8), 18)
        b = smote(ds, SmoteConfig(k=2, target_ratio=0.8), 18)
        assert np.array_equal(a.features, b.features)

    def test_already_balanced_returns_unchanged(self):
        rng = np.random.default_rng(19)
        feats = rng.normal(size=(10, 2))
        ds = make_dataset(feats, [1] * 5 + [0] * 5)
        out = smote(ds, SmoteConfig(k=2, target_ratio=1.0), 20)
        assert len(out) == 10

    def test_minority_smaller_than_k_rejected(self):
        ds = make_dataset(np.zeros((10, 2)), [1, 1] + [0] * 8)
        with pytest.raises(ValueError):
            smote(ds, SmoteConfig(k=3, target_ratio=1.0), 0)

    @pytest.mark.parametrize("k", [2.5, 3.0, True, False, "3"])
    def test_non_integral_k_refused(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            SmoteConfig(k=k)

    def test_numpy_integer_k(self):
        ds = make_dataset(np.arange(20.0).reshape(10, 2), [1] * 4 + [0] * 6)
        out = smote(ds, SmoteConfig(k=np.int64(3)), 1)
        same_shards([out], [smote(ds, SmoteConfig(k=3), 1)])


def _segment_residual(p, a, b):
    """Distance from p to the closed segment [a, b]."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


# The loop versions below are the reference implementations the array code in
# fedledger.data replaced; the array code must reproduce them bit for bit.


def _near_equal_slices(order, k):
    base, extra = divmod(len(order), k)
    out = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        out.append(order[start : start + size])
        start += size
    return out


def oracle_partition(data, plan, seed):
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
    for org, part in enumerate(slices):
        if len(part) == 0:
            raise DataError(
                f"{plan.mode} partition of {n} training rows leaves organization {org} "
                f"no rows")
    return [data.subset(np.sort(np.asarray(part, dtype=np.int64))) for part in slices]


def oracle_stratified_parts(data, n_parts, seed):
    rng = np.random.default_rng(seed)
    buckets = [[] for _ in range(n_parts)]
    for cls in (0, 1):
        idx = rng.permutation(np.flatnonzero(data.labels == cls))
        for pos, i in enumerate(idx):
            buckets[pos % n_parts].append(int(i))
    return [data.subset(np.sort(np.asarray(b, dtype=np.int64))) for b in buckets]


def oracle_knn_minority(data, point_index, k):
    """The per-query kNN that `data._nearest` replaced, one distance vector per call."""
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


def oracle_standardize(features):
    """The two-pass standardize: `np.std`, then a second centering and a division."""
    feats = np.asarray(features, dtype=np.float64)
    std = feats.std(axis=0)
    return (feats - feats.mean(axis=0)) / np.where(std == 0.0, 1.0, std)


def interpolate(x_i, x_j, r):
    return x_i + (x_j - x_i) * r


def oracle_smote(data, cfg, seed):
    minority = data.minority_indices()
    n_min = minority.size
    n_maj = len(data) - n_min
    needed = math.ceil(cfg.target_ratio * n_maj) - n_min
    if needed <= 0:
        return data
    neighbor_table = [oracle_knn_minority(data, int(i), cfg.k) for i in minority]
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


def imbalanced(n_min, n_maj, width, seed):
    """n_min fraud rows scattered among n_maj others, with seeded normal features."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(n_min + n_maj, dtype=np.int64)
    labels[rng.permutation(n_min + n_maj)[:n_min]] = 1
    return make_dataset(rng.normal(size=(n_min + n_maj, width)), labels)


def seeded_dataset(seed):
    """1 to 60 rows of 1 to 4 features, with ties, and a seeded share of fraud."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 61))
    feats = rng.normal(size=(rows, int(rng.integers(1, 5))))
    if seed % 3 == 0:  # duplicated rows, so that neighbour distances tie
        feats = np.round(feats)
    return make_dataset(feats, (rng.random(rows) < rng.uniform(0.05, 0.6)).astype(np.int64))


def same_shards(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()


def same_outcome(fn, oracle, *args):
    """fn(*args) equals oracle(*args) bit for bit, or both raise the same error."""
    try:
        want = oracle(*args)
    except ValueError as exc:
        with pytest.raises(type(exc)) as raised:
            fn(*args)
        assert str(raised.value) == str(exc)
        return False
    same_shards(fn(*args), want)
    return True


class TestArrayCodeMatchesLoops:
    @pytest.mark.parametrize("seed", range(60))
    def test_partition(self, seed):
        data = seeded_dataset(seed)
        rng = np.random.default_rng(1000 + seed)
        dealt = 0
        for num_orgs in sorted({1, 2, 3, 7, int(rng.integers(1, 40)), len(data)}):
            for skew in (0.0, 1.0, float(rng.random())):
                plan = PartitionPlan(num_orgs, "label-skew", skew=skew)
                dealt += same_outcome(partition, oracle_partition, data, plan, seed)
            dealt += same_outcome(partition, oracle_partition, data,
                                  PartitionPlan(num_orgs, "iid"), seed)
        assert dealt > 0

    @pytest.mark.parametrize("seed", range(60))
    def test_stratified_parts(self, seed):
        data = seeded_dataset(seed)
        for n_parts in (1, 2, 3, 5, len(data) + 2):
            same_shards(stratified_parts(data, n_parts, seed),
                        oracle_stratified_parts(data, n_parts, seed))

    @pytest.mark.parametrize("seed", range(40))
    def test_smote(self, seed):
        rng = np.random.default_rng(2000 + seed)
        n_min = int(rng.integers(2, 30))
        n_maj = int(rng.integers(1, 200))
        width = int(rng.integers(1, 5))
        feats = rng.normal(size=(n_min + n_maj, width))
        if seed % 4 == 0:  # duplicated minority points tie on distance
            feats[: n_min // 2 + 1] = np.round(feats[: n_min // 2 + 1])
        labels = np.zeros(n_min + n_maj, dtype=np.int64)
        labels[rng.permutation(n_min + n_maj)[:n_min]] = 1
        data = make_dataset(feats, labels)
        cfg = SmoteConfig(k=int(rng.integers(1, n_min)),
                          target_ratio=float(rng.choice([1.0, rng.uniform(0.01, 1.0)])))
        got = smote(data, cfg, seed)
        want = oracle_smote(data, cfg, seed)
        if want is data:
            assert got is data
        same_shards([got], [want])

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7])
    @pytest.mark.parametrize("n_min, n_maj, width, target_ratio, needed", [
        (8, 9, 3, 1.0, 1),
        (8, 10, 3, 1.0, 2),
        (8, 11, 3, 1.0, 3),
        (9, 50, 3, 1.0, 41),
        (9, 50, 3, 0.5, 16),
        (9, 51, 3, 0.5, 17),
        (26, 1308, 30, 1.0, 1282),  # the size of one large-shards shard
    ])
    def test_smote_cases(self, k, n_min, n_maj, width, target_ratio, needed):
        data = imbalanced(n_min, n_maj, width, seed=n_maj)
        cfg = SmoteConfig(k=k, target_ratio=target_ratio)
        for seed in range(5):
            want = oracle_smote(data, cfg, seed)
            assert len(want) - len(data) == needed
            same_shards([smote(data, cfg, seed)], [want])

    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("needed", [1, 2, 5, 6])
    def test_smote_falls_back_to_loop_on_rejection(self, k, needed, monkeypatch):
        """Lemire rejects x = 0 for every k that is not a power of two: a zero in the
        half the last row reads must send smote to the loop, which redraws."""
        real = datamod._draws_from_raw
        seen = []

        def zero_last_half(words, k, needed):
            words = words.copy()
            p, half = divmod(needed - 1, 2)
            words[3 * p] &= np.uint64(0xFFFFFFFF << 32 if half == 0 else 0xFFFFFFFF)
            seen.append(real(words, k, needed))
            return seen[-1]

        monkeypatch.setattr(datamod, "_draws_from_raw", zero_last_half)
        data = imbalanced(8, 8 + needed, 3, seed=needed)
        cfg = SmoteConfig(k=k)
        same_shards([smote(data, cfg, 3)], [oracle_smote(data, cfg, 3)])
        assert seen == [None]

    @pytest.mark.parametrize("seed", range(30))
    def test_knn_every_k(self, seed):
        """Every query and every k from 1 to M - 1, through knn_minority and through the
        table smote builds; a third of the seeds round the features, so points repeat
        and distances tie."""
        data = seeded_dataset(seed)
        minority = data.minority_indices()
        for k in range(1, minority.size):
            want = [oracle_knn_minority(data, int(i), k) for i in minority]
            assert [knn_minority(data, int(i), k) for i in minority] == want
            table = datamod._nearest(data.features[minority], np.arange(minority.size), k)
            assert minority[table].tolist() == want

    @pytest.mark.parametrize("width", [1, 3])
    def test_knn_ties_and_duplicates(self, width):
        # four copies of one point and equidistant pairs around it
        feats = np.zeros((9, width))
        feats[4:, 0] = [1.0, -1.0, 2.0, -2.0, 1.0]
        data = make_dataset(feats, [1] * 9)
        for k in range(1, 9):
            for i in range(9):
                assert knn_minority(data, i, k) == oracle_knn_minority(data, i, k)
        assert knn_minority(data, 1, 4) == [0, 2, 3, 4]

    @pytest.mark.parametrize("cells", [1, 66, 100, 165, 363, 1000])
    def test_knn_blocks(self, cells, monkeypatch):
        """A query over 11 minority points of width 3 takes 33 difference cells, so a
        cap of `cells` splits the 11 queries into blocks of cells // 33 rows (at least
        1): 1, 2, 3, 5, 11 and 30, the last two in one block."""
        monkeypatch.setattr(datamod, "_KNN_BLOCK_CELLS", cells)
        data = imbalanced(11, 5, 3, seed=cells)
        minority = data.minority_indices()
        for k in (1, 4, 10):
            table = datamod._nearest(data.features[minority], np.arange(11), k)
            assert minority[table].tolist() == [oracle_knn_minority(data, int(i), k)
                                                for i in minority]

    def test_knn_minority_count_past_one_block(self):
        """200 minority rows of width 30 need 1.2 M difference cells, so smote's table
        takes two blocks at the shipped cap: 174 queries, then 26."""
        data = imbalanced(200, 260, 30, seed=3)
        assert datamod._KNN_BLOCK_CELLS // (200 * 30) == 174
        minority = data.minority_indices()
        table = datamod._nearest(data.features[minority], np.arange(200), 5)
        assert minority[table].tolist() == [oracle_knn_minority(data, int(i), 5)
                                            for i in minority]
        cfg = SmoteConfig(k=5)
        same_shards([smote(data, cfg, 4)], [oracle_smote(data, cfg, 4)])

    @pytest.mark.parametrize("point_index, k", [(2, 1), (0, 0), (0, 3), (7, 1)])
    def test_knn_refusals_unchanged(self, point_index, k):
        data = make_dataset([[0.0], [1.0], [2.0], [5.0]], [1, 1, 0, 1])
        with pytest.raises(ValueError) as want:
            oracle_knn_minority(data, point_index, k)
        with pytest.raises(ValueError, match=f"^{want.value}$"):
            knn_minority(data, point_index, k)

    @pytest.mark.parametrize("k", [True, 2.5])
    def test_knn_non_integer_k_refused(self, k):
        # each died with a TypeError
        data = make_dataset([[0.0], [1.0], [2.0], [5.0]], [1, 1, 0, 1])
        with pytest.raises(ValueError, match=f"^k must be an integer, got {k!r}$"):
            knn_minority(data, 0, k)

    @pytest.mark.parametrize("seed", range(20))
    def test_standardize(self, seed):
        rng = np.random.default_rng(3000 + seed)
        rows, width = int(rng.integers(1, 400)), int(rng.integers(1, 8))
        feats = rng.normal(rng.uniform(-1e3, 1e3), rng.uniform(1e-3, 1e3), (rows, width))
        feats[:, int(rng.integers(width))] = rng.normal()  # a zero-variance column
        if seed % 2:
            feats = np.round(feats)
        for x in (feats, np.asfortranarray(feats), feats[::-1], feats.astype(np.float32)):
            assert standardize(x).tobytes() == oracle_standardize(x).tobytes()

    def test_standardize_one_row_and_integers(self):
        for x in ([[3.0, -2.0, 0.5]], np.arange(12).reshape(4, 3), [[1e150], [-1e150]]):
            assert standardize(x).tobytes() == oracle_standardize(x).tobytes()

    def test_raw_draws_reject_only_read_halves(self):
        words = np.array([1, 0, 0], dtype=np.uint64)  # low half 1, high half 0
        assert datamod._draws_from_raw(words, 3, 1) is not None
        assert datamod._draws_from_raw(words, 3, 2) is None
        # a power of two has threshold 0: no half is ever rejected
        choice, r = datamod._draws_from_raw(np.zeros(3, dtype=np.uint64), 4, 2)
        assert choice.tolist() == [0, 0] and r.tolist() == [0.0, 0.0]

    def test_raw_draws_reject_where_numpy_redraws(self):
        """At this k Lemire rejects about a quarter of the draws, so numpy's own redraws
        meet the rejection test within a few hundred seeds."""
        k = 3 * 2**30 + 1
        threshold = (2**32 - k) % k
        rejected = 0
        for seed in range(400):
            words = np.random.default_rng(seed).bit_generator.random_raw(3)
            rng = np.random.default_rng(seed)
            choice, r = rng.integers(k), rng.random()
            drawn = datamod._draws_from_raw(words, k, 1)
            if drawn is None:
                rejected += 1
                high = int(words[0]) >> 32
                if high * k % 2**32 >= threshold:  # numpy redrew from the high half
                    assert choice == high * k >> 32
            else:
                assert (drawn[0][0], drawn[1][0]) == (choice, r)
        assert 50 < rejected < 150


def _csv(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    return path


_HEADER = ",".join(CREDIT_CARD_COLUMNS) + "\n"


class TestRefusals:
    """Refusals that no other test reaches, each from its own input."""

    @pytest.mark.parametrize("refused, error, match", [
        (lambda tmp: Dataset(np.zeros(3), np.zeros(3)), ValueError,
         "^features must be a 2-d array$"),
        (lambda tmp: Dataset(np.zeros((3, 2)), np.zeros(2)), ValueError,
         "^labels length must match feature rows$"),
        (lambda tmp: load_csv(_csv(tmp, "")), ParseError,
         "in.csv: empty file, expected a header row$"),
        (lambda tmp: load_csv(_csv(tmp, _HEADER + ",".join(["0"] * 30 + ["2"]) + "\n")),
         ParseError, r"in.csv: row 2, column Class: must be 0 or 1, got '2'$"),
        (lambda tmp: load_csv(_csv(tmp, _HEADER)), ParseError,
         "in.csv: no data rows after the header$"),
        (lambda tmp: split(make_dataset(np.zeros((4, 1)), [0, 1, 0, 1]), 1.0, 0), ValueError,
         "^train_fraction must lie strictly between 0 and 1$"),
    ], ids=["1-d-features", "too-few-labels", "empty-csv", "class-of-2", "header-only",
            "split-keeps-nothing"])
    def test_refused(self, tmp_path, refused, error, match):
        with pytest.raises(error, match=match):
            refused(tmp_path)
