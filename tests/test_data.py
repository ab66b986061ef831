import os

import numpy as np
import pytest

from fedledger.data import (
    CREDIT_CARD_COLUMNS,
    Dataset,
    ParseError,
    PartitionPlan,
    SmoteConfig,
    StratificationError,
    imbalance_stats,
    interpolate,
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

    def test_too_many_orgs_rejected(self):
        ds = make_dataset([[0.0]], [0])
        with pytest.raises(ValueError):
            partition(ds, PartitionPlan(2, "iid"), 0)

    def test_zero_orgs_rejected(self):
        with pytest.raises(ValueError):
            PartitionPlan(0, "iid")


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


class TestSmote:
    def test_midpoint_interpolation(self):
        x = interpolate(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 0.5)
        np.testing.assert_array_equal(x, [0.5, 0.5])

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


def _segment_residual(p, a, b):
    """Distance from p to the closed segment [a, b]."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))
