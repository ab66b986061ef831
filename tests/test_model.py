import math
from dataclasses import astuple

import numpy as np
import pytest

from fedledger.data import Dataset
from fedledger.model import (
    PROB_FLOOR,
    Metrics,
    ModelParams,
    TrainConfig,
    _bce,
    _sigmoid,
    average,
    evaluate,
    evaluate_many,
    gradient,
    init_params,
    local_train,
    local_train_many,
    loss,
    param_count,
    predict,
    predict_batch,
    stacked_accuracy,
)


def logistic(weights, bias):
    """Single-layer model: weights then bias in the flat layout."""
    d = len(weights)
    return ModelParams((d, 1), np.array([*weights, bias], dtype=np.float64))


def make_dataset(features, labels):
    return Dataset(np.array(features, dtype=np.float64), np.array(labels))


def finite_difference_gradient(params, batch, weight_decay=0.0, step=1e-5):
    """Central differences on loss(); the independent oracle for gradient()."""
    out = np.empty_like(params.weights)
    for j in range(params.weights.size):
        up = params.weights.copy()
        up[j] += step
        down = params.weights.copy()
        down[j] -= step
        hi = loss(ModelParams(params.layer_dims, up), batch, weight_decay)
        lo = loss(ModelParams(params.layer_dims, down), batch, weight_decay)
        out[j] = (hi - lo) / (2 * step)
    return out


def masked_sigmoid(z):
    """Two-branch logistic selected with boolean masks; the oracle for _sigmoid."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def subset_sgd(params, data, cfg, seed):
    """The Dataset-level SGD loop: subset, gradient() on a fresh ModelParams,
    w - lr*g. The oracle local_train must reproduce bit for bit."""
    rng = np.random.default_rng(seed)
    weights = params.weights.copy()
    current = ModelParams(params.layer_dims, weights)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            batch = data.subset(order[start : start + cfg.batch_size])
            g = gradient(current, batch, cfg.weight_decay)
            weights = weights - cfg.learning_rate * g
            current = ModelParams(params.layer_dims, weights)
    return weights


def bits(values):
    """uint64 view, so that equality is bit for bit (signed zeros, NaN payloads)."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def two_log_bce(probs, labels):
    """The two-log BCE formula over the last axis; the oracle for _bce."""
    probs = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return -np.mean(labels * np.log(probs) + (1 - labels) * np.log(1.0 - probs), axis=-1)


def reference_metrics(params, data, threshold=0.5):
    """Metrics of one model on one dataset from predict_batch and the two-log
    BCE, one count at a time; the oracle for evaluate and evaluate_many."""
    probs = predict_batch(params, data.features)
    preds = probs >= threshold
    y = data.labels.astype(bool)
    tp = int(np.count_nonzero(preds & y))
    fp = int(np.count_nonzero(preds & ~y))
    fn = int(np.count_nonzero(~preds & y))
    accuracy = float(np.count_nonzero(preds == y)) / len(data)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return Metrics(accuracy, float(two_log_bce(probs, data.labels)), f1, precision)


class TestSigmoid:
    def test_bitwise_equal_to_masked_form(self):
        edges = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 745.0, -745.0,
                 1e308, -1e308, np.nan, -np.nan]
        z = np.concatenate([edges, np.random.default_rng(0).normal(scale=20.0, size=5000)])
        got = _sigmoid(z)
        assert np.array_equal(got.view(np.uint64), masked_sigmoid(z).view(np.uint64))

    def test_extremes_stay_in_unit_interval(self):
        with np.errstate(over="raise"):
            got = _sigmoid(np.array([-1e308, -745.0, 745.0, 1e308]))
        assert got[0] == 0.0 and got[-1] == 1.0
        assert np.all((got >= 0.0) & (got <= 1.0))


class TestPredict:
    def test_zero_weights_give_half(self):
        params = ModelParams((3, 4, 1), np.zeros(param_count((3, 4, 1))))
        assert predict(params, np.array([1.0, -2.0, 3.0])) == 0.5

    def test_saturated_logit(self):
        params = logistic([10.0, 10.0], 0.0)
        assert predict(params, np.array([1.0, 1.0])) > 0.99

    def test_cancellation(self):
        params = logistic([1.0, -1.0, 0.0], 0.0)
        assert predict(params, np.array([1.0, 1.0, 1.0])) == 0.5

    def test_width_mismatch_rejected(self):
        params = logistic([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            predict(params, np.array([1.0, 2.0, 3.0]))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        params = ModelParams((5, 3, 1), rng.normal(size=param_count((5, 3, 1))))
        feats = rng.normal(size=(10, 5))
        batch = predict_batch(params, feats)
        singles = [predict(params, feats[i]) for i in range(10)]
        # batched and row-wise matmuls may round differently in the last bit
        np.testing.assert_allclose(batch, singles, rtol=1e-12)


class TestLoss:
    def test_zero_weights_ln2(self):
        params = logistic([0.0, 0.0], 0.0)
        ds = make_dataset([[1.0, 2.0], [3.0, -4.0]], [1, 0])
        assert loss(params, ds) == pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_separation_near_zero(self):
        params = logistic([20.0], 0.0)
        ds = make_dataset([[1.0], [-1.0]], [1, 0])
        assert loss(params, ds) < 1e-3

    def test_hand_computed_bce(self):
        # frozen from a per-example sigmoid/log computation done by hand
        params = logistic([0.5, -0.25], 0.1)
        ds = make_dataset(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 2.0]], [1, 0, 1, 0]
        )
        assert loss(params, ds) == pytest.approx(0.48324525710657057, abs=1e-12)

    def test_weight_decay_penalty(self):
        params = logistic([0.5, -0.25], 0.1)
        ds = make_dataset([[1.0, 0.0]], [1])
        base = loss(params, ds)
        wd = loss(params, ds, weight_decay=0.1)
        penalty = 0.5 * 0.1 * (0.5**2 + 0.25**2 + 0.1**2)
        assert wd == pytest.approx(base + penalty, abs=1e-12)

    def test_empty_dataset_rejected(self):
        params = logistic([1.0], 0.0)
        with pytest.raises(ValueError):
            loss(params, make_dataset(np.empty((0, 1)), []))

    def test_saturated_loss_stays_finite(self):
        params = logistic([1000.0], 0.0)
        ds = make_dataset([[1.0]], [0])  # confidently wrong
        value = loss(params, ds)
        assert math.isfinite(value)
        assert value == pytest.approx(-math.log(1e-12), rel=1e-6)


class TestGradient:
    def test_replicated_batch_invariance(self):
        rng = np.random.default_rng(11)
        params = logistic(rng.normal(size=3), 0.2)
        feats = rng.normal(size=(4, 3))
        labels = [1, 0, 1, 1]
        single = make_dataset(feats, labels)
        double = make_dataset(np.vstack([feats, feats]), labels + labels)
        np.testing.assert_allclose(
            gradient(params, single), gradient(params, double), atol=1e-15
        )

    def test_zero_weight_single_example(self):
        params = logistic([0.0, 0.0, 0.0], 0.0)
        x = np.array([0.3, -1.2, 2.0])
        g = gradient(params, make_dataset([x], [1]))
        np.testing.assert_allclose(g[:3], -0.5 * x, atol=1e-15)
        assert g[3] == pytest.approx(-0.5)

    @pytest.mark.parametrize("dims", [(4, 1), (4, 3, 1)])
    def test_matches_finite_differences(self, dims):
        rng = np.random.default_rng(sum(dims))
        for trial in range(5):
            params = ModelParams(dims, rng.uniform(-0.8, 0.8, param_count(dims)))
            feats = rng.normal(size=(6, dims[0]))
            labels = rng.integers(0, 2, size=6)
            batch = make_dataset(feats, labels)
            g = gradient(params, batch, weight_decay=0.01)
            fd = finite_difference_gradient(params, batch, weight_decay=0.01)
            np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-7)

    def test_empty_batch_rejected(self):
        params = logistic([1.0], 0.0)
        with pytest.raises(ValueError):
            gradient(params, make_dataset(np.empty((0, 1)), []))


class TestLocalTrain:
    def test_single_full_batch_step_identity(self):
        rng = np.random.default_rng(3)
        params = logistic(rng.normal(size=2), 0.0)
        ds = make_dataset(rng.normal(size=(8, 2)), rng.integers(0, 2, size=8))
        cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=8,
                          weight_decay=0.001)
        trained = local_train(params, ds, cfg, 42)
        expected = params.weights - 0.05 * gradient(params, ds, weight_decay=0.001)
        np.testing.assert_array_equal(trained.weights, expected)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        params = init_params((3, 2, 1), seed=9)
        ds = make_dataset(rng.normal(size=(20, 3)), rng.integers(0, 2, size=20))
        cfg = TrainConfig(epochs=3, batch_size=4)
        a = local_train(params, ds, cfg, 123)
        b = local_train(params, ds, cfg, 123)
        assert np.array_equal(a.weights, b.weights)

    def test_input_params_unmodified(self):
        params = init_params((3, 1), seed=1)
        before = params.weights.copy()
        ds = make_dataset(np.eye(3), [1, 0, 1])
        local_train(params, ds, TrainConfig(epochs=2, batch_size=2), 5)
        assert np.array_equal(params.weights, before)

    def test_separable_data_reaches_full_accuracy(self):
        rng = np.random.default_rng(6)
        n = 40
        feats = np.vstack([
            rng.normal(loc=(-2.0, -2.0), scale=0.3, size=(n // 2, 2)),
            rng.normal(loc=(2.0, 2.0), scale=0.3, size=(n // 2, 2)),
        ])
        labels = np.array([0] * (n // 2) + [1] * (n // 2))
        ds = make_dataset(feats, labels)
        params = init_params((2, 1), seed=0)
        cfg = TrainConfig(learning_rate=0.5, epochs=50, batch_size=8,
                          weight_decay=0.0)
        trained = local_train(params, ds, cfg, 7)
        assert evaluate(trained, ds).accuracy == 1.0

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 2601])
    @pytest.mark.parametrize("hidden", [(), (16,), (8, 4)])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.001])
    def test_bit_identical_to_subset_loop(self, n, hidden, weight_decay):
        rng = np.random.default_rng(n)
        ds = make_dataset(rng.normal(size=(n, 5)), (rng.random(n) < 0.3).astype(int))
        params = init_params((5, *hidden, 1), seed=n + len(hidden))
        before = params.weights.copy()
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=32,
                          weight_decay=weight_decay)
        trained = local_train(params, ds, cfg, 11)
        assert np.array_equal(trained.weights, subset_sgd(params, ds, cfg, 11))
        assert np.array_equal(params.weights, before)
        assert trained.layer_dims == params.layer_dims

    def test_empty_dataset_rejected(self):
        empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            local_train(init_params((3, 1), seed=0), empty, TrainConfig(), 0)

    def test_width_mismatch_rejected(self):
        ds = make_dataset(np.ones((4, 2)), [0, 1, 0, 1])
        with pytest.raises(ValueError, match="width"):
            local_train(init_params((3, 1), seed=0), ds, TrainConfig(), 0)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)


class TestLocalTrainMany:
    """local_train_many against the Dataset-level oracle loop, shard by shard."""

    @staticmethod
    def shards(sizes, width=5, seed=0):
        rng = np.random.default_rng(seed)
        return [make_dataset(rng.normal(size=(n, width)), (rng.random(n) < 0.3).astype(int))
                for n in sizes]

    @staticmethod
    def assert_bits_equal(got, expected):
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def check_against_oracle(self, params, shards, cfg, seeds):
        before = params.weights.copy()
        copies = [(s.features.copy(), s.labels.copy()) for s in shards]
        trained = local_train_many(params, shards, cfg, seeds)
        assert len(trained) == len(shards)
        for shard, seed, result in zip(shards, seeds, trained):
            self.assert_bits_equal(result.weights, subset_sgd(params, shard, cfg, seed))
            assert result.layer_dims == params.layer_dims
        assert np.array_equal(params.weights, before)
        for shard, (features, labels) in zip(shards, copies):
            assert np.array_equal(shard.features, features)
            assert np.array_equal(shard.labels, labels)
        return trained

    @pytest.mark.parametrize("sizes, batch", [
        # one shard smaller than the batch, one a batch plus one row, one large
        ([1, 31, 32, 33, 2601], 32),
        # 6, 7, 9 and 13 batches an epoch: the shards start epochs and take
        # short batches at different steps, so groups form and split
        ([95, 100, 130, 131, 200], 16),
        ([1, 7, 33, 60], 1),
        # one full-batch step an epoch; nothing may be sized by batch_size
        ([1, 40, 300], 10**12),
    ])
    @pytest.mark.parametrize("hidden", [(), (16,), (8, 4)])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.001])
    @pytest.mark.parametrize("epochs", [1, 3])
    def test_bit_identical_to_subset_loop(self, sizes, batch, hidden, weight_decay, epochs):
        shards = self.shards(sizes, seed=len(hidden) + epochs)
        params = init_params((5, *hidden, 1), seed=epochs)
        cfg = TrainConfig(learning_rate=0.05, epochs=epochs, batch_size=batch,
                          weight_decay=weight_decay)
        self.check_against_oracle(params, shards, cfg, list(range(11, 11 + len(sizes))))

    def test_single_shard_is_local_train(self):
        (shard,) = self.shards([70])
        params = init_params((5, 16, 1), seed=8)
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=16)
        (trained,) = self.check_against_oracle(params, [shard], cfg, [21])
        self.assert_bits_equal(trained.weights, local_train(params, shard, cfg, 21).weights)

    def test_identical_shards_and_seeds_give_identical_models(self):
        (shard, other) = self.shards([45, 45])
        params = init_params((5, 8, 4, 1), seed=5)
        cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=8)
        a, b, c = self.check_against_oracle(params, [shard, shard, other], cfg, [6, 6, 6])
        self.assert_bits_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, c.weights)

    def test_no_shards(self):
        assert local_train_many(init_params((3, 1), seed=0), [], TrainConfig(), []) == []

    def test_empty_shard_rejected(self):
        empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
        full = make_dataset(np.ones((4, 3)), [0, 1, 0, 1])
        with pytest.raises(ValueError, match="shard 1: dataset is empty"):
            local_train_many(init_params((3, 1), seed=0), [full, empty], TrainConfig(), [0, 1])

    def test_width_mismatch_rejected(self):
        good = make_dataset(np.ones((4, 3)), [0, 1, 0, 1])
        narrow = make_dataset(np.ones((4, 2)), [0, 1, 0, 1])
        with pytest.raises(ValueError, match="shard 1: feature width 2"):
            local_train_many(init_params((3, 1), seed=0), [good, narrow], TrainConfig(), [0, 1])

    def test_single_dataset_errors_name_no_shard(self):
        empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
        narrow = make_dataset(np.ones((4, 2)), [0, 1, 0, 1])
        params = init_params((3, 1), seed=0)
        with pytest.raises(ValueError, match="^dataset is empty$"):
            local_train(params, empty, TrainConfig(), 0)
        with pytest.raises(ValueError, match="^feature width 2 does not match model input width 3$"):
            local_train(params, narrow, TrainConfig(), 0)

    def test_seed_count_must_match_shards(self):
        shard = make_dataset(np.ones((4, 3)), [0, 1, 0, 1])
        with pytest.raises(ValueError, match="1 seeds for 2 shards"):
            local_train_many(init_params((3, 1), seed=0), [shard, shard], TrainConfig(), [0])


class TestEvaluate:
    def test_hand_confusion_matrix(self):
        # force predictions (1,1,0) against labels (1,0,0)
        params = logistic([5.0], 0.0)
        ds = make_dataset([[1.0], [1.0], [-1.0]], [1, 0, 0])
        m = evaluate(params, ds)
        assert m.precision == pytest.approx(0.5)
        assert m.f1 == pytest.approx(2 / 3)
        assert m.accuracy == pytest.approx(2 / 3)

    def test_degenerate_all_negative(self):
        params = logistic([0.0], -5.0)
        ds = make_dataset([[1.0], [2.0]], [0, 0])
        m = evaluate(params, ds)
        assert m.precision == 0.0
        assert m.f1 == 0.0
        assert m.accuracy == 1.0

    def test_bounds(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            params = init_params((4, 3, 1), seed=trial)
            ds = make_dataset(rng.normal(size=(15, 4)), rng.integers(0, 2, size=15))
            m = evaluate(params, ds)
            assert 0.0 <= m.accuracy <= 1.0
            assert 0.0 <= m.precision <= 1.0
            assert 0.0 <= m.f1 <= 1.0
            assert m.loss >= 0.0

    @pytest.mark.parametrize("dims", [(4, 1), (4, 3, 1), (4, 6, 2, 1)])
    def test_loss_equals_loss_function(self, dims):
        rng = np.random.default_rng(len(dims))
        ds = make_dataset(rng.normal(size=(50, 4)) * 4.0, rng.integers(0, 2, size=50))
        params = init_params(dims, seed=3, scale=2.0)
        assert evaluate(params, ds).loss == loss(params, ds)


class TestBce:
    def test_bitwise_equal_to_two_log_form(self):
        rng = np.random.default_rng(4)
        edges = [0.0, 1.0, PROB_FLOOR, 1.0 - PROB_FLOOR, 1e-300, 1.0 - 1e-17, 0.5]
        probs = np.concatenate([edges, edges, rng.random(50), rng.random(50) ** 40])
        labels = np.concatenate([np.zeros(7), np.ones(7), rng.integers(0, 2, size=100)])
        labels = labels.astype(np.int64)
        np.testing.assert_array_equal(bits(_bce(probs, labels)),
                                      bits(two_log_bce(probs, labels)))
        # stacked: one value per row, each the same bits as that row alone
        stack = np.stack([probs, probs[::-1], 1.0 - probs])
        got = _bce(stack, labels)
        assert got.shape == (3,)
        np.testing.assert_array_equal(bits(got), bits(two_log_bce(stack, labels)))
        np.testing.assert_array_equal(bits(got), bits([_bce(row, labels) for row in stack]))


class TestEvaluateMany:
    SIZES = (7, 12, 7, 1, 12, 7, 30)  # unequal, with repeats that share a pass

    def datasets(self, seed, width=4):
        rng = np.random.default_rng(seed)
        return [make_dataset(rng.normal(size=(n, width)) * 3.0, rng.integers(0, 2, size=n))
                for n in self.SIZES]

    @pytest.mark.parametrize("dims", [(4, 1), (4, 3, 1), (4, 6, 2, 1)])
    @pytest.mark.parametrize("threshold", [0.5, 0.3])
    def test_bitwise_equal_to_evaluate_per_dataset(self, dims, threshold):
        datasets = self.datasets(len(dims))
        params = init_params(dims, seed=5, scale=1.5)
        got = evaluate_many(params, datasets, threshold)
        assert len(got) == len(datasets)
        for metrics, data in zip(got, datasets):
            expected = bits(astuple(reference_metrics(params, data, threshold)))
            np.testing.assert_array_equal(bits(astuple(metrics)), expected)
            np.testing.assert_array_equal(
                bits(astuple(evaluate(params, data, threshold))), expected)

    def test_no_datasets(self):
        assert evaluate_many(init_params((4, 1), seed=0), []) == []

    def test_errors_name_the_dataset(self):
        params = init_params((4, 1), seed=0)
        good = self.datasets(0)[0]
        empty = make_dataset(np.empty((0, 4)), np.empty(0))
        with pytest.raises(ValueError, match="^dataset 1: dataset is empty"):
            evaluate_many(params, [good, empty])
        narrow = make_dataset(np.ones((3, 2)), [0, 1, 0])
        with pytest.raises(ValueError, match="^dataset 1: feature width 2 does not match"):
            evaluate_many(params, [good, narrow])
        with pytest.raises(ValueError, match="^dataset is empty"):
            evaluate(params, empty)
        with pytest.raises(ValueError, match="^feature width 2 does not match"):
            evaluate(params, narrow)
        with pytest.raises(ValueError, match="threshold"):
            evaluate_many(params, [good], threshold=1.0)


class TestStackedAccuracy:
    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("dims", [(4, 1), (4, 6, 2, 1)])
    def test_equal_to_evaluate_per_model(self, count, dims):
        rng = np.random.default_rng(count)
        data = make_dataset(rng.normal(size=(23, 4)) * 3.0, rng.integers(0, 2, size=23))
        stack = rng.uniform(-1.5, 1.5, size=(count, param_count(dims)))
        got = stacked_accuracy(dims, stack, data)
        expected = [reference_metrics(ModelParams(dims, w), data).accuracy for w in stack]
        np.testing.assert_array_equal(bits(got), bits(expected))

    def test_width_mismatch_rejected(self):
        data = make_dataset(np.ones((3, 2)), [0, 1, 0])
        with pytest.raises(ValueError, match="feature width 2 does not match"):
            stacked_accuracy((4, 1), np.zeros((2, 5)), data)


class TestShardAveraging:
    def test_one_step_equals_centralized(self):
        # one full-batch step per equal shard, averaged, matches one
        # centralized full-batch step on the union
        rng = np.random.default_rng(21)
        dims = (3, 2, 1)
        params = ModelParams(dims, rng.uniform(-0.5, 0.5, param_count(dims)))
        shards = []
        for s in range(4):
            feats = rng.normal(size=(10, 3))
            labels = rng.integers(0, 2, size=10)
            shards.append(make_dataset(feats, labels))
        union = make_dataset(
            np.vstack([s.features for s in shards]),
            np.concatenate([s.labels for s in shards]),
        )
        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=10,
                          weight_decay=0.0)
        per_shard = [local_train(params, s, cfg, 0) for s in shards]
        averaged = average(per_shard)
        central = local_train(
            params, union,
            TrainConfig(learning_rate=0.1, epochs=1, batch_size=40,
                        weight_decay=0.0),
            0,
        )
        np.testing.assert_allclose(averaged.weights, central.weights, atol=1e-12)

    def test_average_requires_matching_dims(self):
        with pytest.raises(ValueError):
            average([init_params((2, 1), 0), init_params((3, 1), 0)])


class TestModelParams:
    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            ModelParams((3, 1), np.zeros(2))

    def test_output_width_must_be_one(self):
        with pytest.raises(ValueError):
            ModelParams((3, 2), np.zeros(8))

    def test_loss_permutation_invariant(self):
        rng = np.random.default_rng(17)
        params = init_params((3, 1), seed=2)
        feats = rng.normal(size=(9, 3))
        labels = rng.integers(0, 2, size=9)
        ds = make_dataset(feats, labels)
        perm = rng.permutation(9)
        shuffled = make_dataset(feats[perm], labels[perm])
        assert loss(params, ds) == pytest.approx(loss(params, shuffled), abs=1e-12)
