import collections
import math
import tracemalloc
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
    _check_data,
    _Loss,
    _sigmoid,
    _Step,
    average,
    evaluate,
    gradient,
    init_params,
    local_train,
    local_train_many,
    loss,
    param_count,
    predict_batch,
    stacked_accuracy,
)


def logistic(weights, bias):
    """Single-layer model: weights then bias in the flat layout."""
    d = len(weights)
    return ModelParams((d, 1), np.array([*weights, bias], dtype=np.float64))


def uniform_params(dims, seed, scale):
    """Seeded weights uniform in [-scale, scale): init_params's draw, wider."""
    rng = np.random.default_rng(seed)
    return ModelParams(dims, rng.uniform(-scale, scale, size=param_count(dims)))


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


def parent_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function that cannot overflow: exp only sees -|z| <= 0.

    Bit for bit equal to 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z))
    otherwise. The exponent is picked with where() rather than -abs(z) so
    that a NaN logit keeps its sign bit, as it does in those two forms.
    """
    # model._sigmoid as it was before the _Loss kernel, kept verbatim as the
    # oracle for its out= form
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    denom = 1.0 + e
    return np.where(pos, 1.0, e) / denom


def parent_bce(probs: np.ndarray, labels: np.ndarray) -> np.floating | np.ndarray:
    """Mean BCE over the last axis: a scalar for (n,) probabilities, one value
    per model for (..., n). Each row is averaged by the same pairwise sum as
    a single (n,) vector.

    One log per row: the log of the probability given to the true label.
    For finite probabilities this is bit for bit the two-log form
    -mean(y*log(p) + (1-y)*log(1-p)): clamped away from 0 and 1, every log
    is negative, and adding the other term's 0*log = -0.0 changes nothing.
    """
    # model._bce as it was before the _Loss kernel, kept verbatim as the
    # oracle for its out= form
    probs = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    log_true = np.log(np.where(labels == 1, probs, 1.0 - probs))
    return -(log_true.sum(axis=-1) / labels.shape[-1])


def sigmoid(z):
    """model._sigmoid of z into a new array, z left as it was."""
    z = np.asarray(z, dtype=np.float64)
    return _sigmoid(z.copy(), np.empty_like(z))


def bce(probs, labels):
    """model._bce of probabilities (..., n) and their labels (n,), into a new
    array of shape (...); probs left as they were. The label terms are
    built here from their definition: sign +1 and offset 0 where the label
    is 1, sign -1 and offset 1 where it is 0."""
    probs = np.asarray(probs, dtype=np.float64)
    sign = np.where(labels == 1, 1.0, -1.0)
    offset = np.where(labels == 1, 0.0, 1.0)
    return _bce(probs.copy(), sign, offset, np.empty(probs.shape[:-1]))


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


def parent_layer_views(dims, flat):
    """_layer_views as it was when it also took one vector (P,), kept verbatim
    for the parent oracles: one vector gives W (din, dout) and b (dout,), a
    stack (m, P) gives W (m, din, dout) and b (m, 1, dout)."""
    out = []
    offset = 0
    for din, dout in zip(dims, dims[1:]):
        end = offset + din * dout
        if flat.ndim == 1:
            out.append((flat[offset:end].reshape(din, dout), flat[end : end + dout]))
        else:
            m = len(flat)
            out.append((flat[:, offset:end].reshape(m, din, dout),
                        flat[:, end : end + dout].reshape(m, 1, dout)))
        offset = end + dout
    return out


def parent_forward(layers, x):
    """The forward pass as it was before the _Step kernel, kept verbatim with
    its activations for parent_grad: fresh arrays for every product."""
    activations = [x]
    a = x
    for w, b in layers[:-1]:
        a = a @ w
        a += b
        np.maximum(a, 0.0, out=a)
        activations.append(a)
    w_out, b_out = layers[-1]
    z = a @ w_out
    z += b_out
    return activations, parent_sigmoid(z[..., 0])


def parent_grad(dims, flat, x, y, weight_decay):
    """Backpropagation as it was before the _Step kernel, kept verbatim as its
    oracle: fresh views, a zeroed gradient and products copied into it on
    every call."""
    n = x.shape[-2]
    layers = parent_layer_views(dims, flat)
    activations, probs = parent_forward(layers, x)

    grad = np.zeros_like(flat)
    # these views alias `grad`, so writing into them fills the flat vectors
    grad_layers = parent_layer_views(dims, grad)
    delta = np.expand_dims((probs - y) / n, -1)
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        gw, gb = grad_layers[li]
        gw[...] = activations[li].swapaxes(-1, -2) @ delta
        gb[...] = delta.sum(axis=-2, keepdims=True)
        if li > 0:
            delta = (delta @ w.swapaxes(-1, -2)) * (activations[li] > 0)
    if weight_decay:
        grad += weight_decay * flat
    return grad


def parent_steps(dims, w, batches, learning_rate, weight_decay):
    """The SGD loop around parent_grad, on a copy of the weight block w."""
    w = w.copy()
    for x, y in batches:
        g = parent_grad(dims, w, x, y, weight_decay)
        g *= learning_rate
        w -= g
    return w


def parent_probs(dims, w, x):
    """The one-vector forward pass: predict_batch as it was before every
    model became a row of a stack."""
    return parent_forward(parent_layer_views(dims, w), x)[1]


def parent_loss(dims, w, data, weight_decay):
    """loss() as it was before it became a stack of one."""
    bce = parent_bce(parent_probs(dims, w, data.features), data.labels)
    if weight_decay:
        bce += 0.5 * weight_decay * float(w @ w)
    return float(bce)


def parent_metrics(dims, w, data, threshold):
    """evaluate() as it was before it became a stack of one."""
    probs = parent_probs(dims, w, data.features)
    preds = probs >= threshold
    y = data.labels.astype(bool)
    tp = int(np.count_nonzero(preds & y))
    fp = int(np.count_nonzero(preds & ~y))
    fn = int(np.count_nonzero(~preds & y))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = np.count_nonzero(preds == y) / len(y)
    return Metrics(float(accuracy), float(parent_bce(probs, data.labels)), f1, precision)


def parent_local_train_many(params, shards, cfg, seeds):
    """local_train_many as it was before the shards moved through epochs
    together, kept verbatim as the oracle for the schedule: its steps fall
    into segments planned from the steps where some shard's batch changes
    size."""
    if len(seeds) != len(shards):
        raise ValueError(f"{len(seeds)} seeds for {len(shards)} shards")
    dims = params.layer_dims
    _check_data(params.input_width, shards, "shard")
    if not shards:
        return []
    layout = np.argsort([len(shard) for shard in shards], kind="stable")
    x = np.concatenate([shards[i].features for i in layout])
    y = np.concatenate([shards[i].labels for i in layout])
    n = np.array([len(shards[i]) for i in layout])
    epochs = cfg.epochs
    # no wider than the largest shard: the same batches, and positions stay within int64
    batch = min(cfg.batch_size, int(n[-1]))
    per_epoch = -(-n // batch)
    ends = epochs * per_epoch  # ascending, as the layout is
    # order[begins[j] + e * n[j] + p] is row p of shard j's epoch e, as a row of x
    begins = np.cumsum(epochs * n) - epochs * n
    order = np.empty(epochs * len(x), dtype=np.intp)
    for i, first, count, at in zip(layout.tolist(), np.cumsum(n) - n, n, begins):
        epoch_rows = order[at : at + epochs * count].reshape(epochs, count)
        epoch_rows[...] = np.arange(first, first + count)
        np.random.default_rng(seeds[i]).permuted(epoch_rows, axis=1, out=epoch_rows)
    epoch_starts = np.outer(np.arange(1, epochs + 1), per_epoch[n % batch != 0]).ravel()
    events = sorted({0, *ends.tolist(), *(epoch_starts - 1).tolist(), *epoch_starts.tolist()})
    weights = np.tile(params.weights, (len(shards), 1))
    # cursor[j] is where shard j's next batch starts in `order`; a step moves
    # it by the batch's rows, so a short last batch moves it to the next epoch
    cursor = begins.copy()
    # (first shard, end shard, rows) -> the kernel that steps that group
    kernels: dict[tuple[int, int, int], _Step] = {}
    for step, stop in zip(events, events[1:]):
        lo = int(np.searchsorted(ends, step, side="right"))  # the shards before lo are done
        rows = np.minimum(n[lo:] - step % per_epoch[lo:] * batch, batch)
        cuts = [lo, *((rows[1:] != rows[:-1]).nonzero()[0] + lo + 1).tolist(), len(n)]
        # shards never share a step's arithmetic, so the groups step in turn
        for a, b in zip(cuts, cuts[1:]):
            count = int(rows[a - lo])
            if (a, b, count) not in kernels:
                kernels[a, b, count] = _Step(dims, weights[a:b], count, cfg.weight_decay)
            kernel = kernels[a, b, count]
            pos = cursor[a:b, None] + np.arange(count)
            w = kernel.w
            for _ in range(stop - step):
                idx = order[pos]
                g = kernel(x.take(idx, axis=0), y.take(idx))
                g *= cfg.learning_rate
                w -= g
                pos += batch
            cursor[a:b] += (stop - step) * count
    return [ModelParams(dims, weights[j]) for j in np.argsort(layout).tolist()]


def one_model_cases(hidden):
    """(params, data) of one seeded model over 5 features, with and without a
    NaN weight, on 1, 21 and 32 rows."""
    dims = (5, *hidden, 1)
    rng = np.random.default_rng(len(hidden))
    weights = rng.uniform(-0.8, 0.8, size=param_count(dims))
    with_nan = weights.copy()
    with_nan[3] = np.nan
    for w in (weights, with_nan):
        for rows in (1, 21, 32):
            data = make_dataset(rng.normal(size=(rows, 5)), rng.integers(0, 2, size=rows))
            yield ModelParams(dims, w), data


def bits(values):
    """uint64 view, so that equality is bit for bit (signed zeros, NaN payloads)."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def two_log_bce(probs, labels):
    """The two-log BCE formula over the last axis; the oracle for _bce."""
    probs = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return -np.mean(labels * np.log(probs) + (1 - labels) * np.log(1.0 - probs), axis=-1)


def reference_metrics(params, data, threshold=0.5):
    """Metrics of one model on one dataset from predict_batch and the two-log
    BCE, one count at a time; the oracle for evaluate."""
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
        got = sigmoid(z)
        assert np.array_equal(got.view(np.uint64), masked_sigmoid(z).view(np.uint64))

    def test_extremes_stay_in_unit_interval(self):
        with np.errstate(over="raise"):
            got = sigmoid(np.array([-1e308, -745.0, 745.0, 1e308]))
        assert got[0] == 0.0 and got[-1] == 1.0
        assert np.all((got >= 0.0) & (got <= 1.0))


def float_bits(*patterns):
    """float64 values from their uint64 bit patterns."""
    return np.array(patterns, dtype=np.uint64).view(np.float64)


# NaNs of either sign bit, quiet and with payloads
NANS = float_bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF800000000BEEF,
                  0xFFFC000000000001)
SUBNORMALS = float_bits(1, 0x8000000000000001, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF,
                        0x0000000100000000)


class TestCheaperForms:
    """model._sigmoid and model._bce against the parent's forms, kept
    verbatim above as parent_sigmoid and parent_bce, bit for bit."""

    EDGES = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, 36.7, -36.7, 745.2, -745.2, 800.0, -800.0], NANS,
        SUBNORMALS])

    def test_sigmoid_edges(self):
        with np.errstate(all="ignore"):
            expected = parent_sigmoid(self.EDGES)
        np.testing.assert_array_equal(bits(sigmoid(self.EDGES)), bits(expected))

    @pytest.mark.parametrize("scale", [1.0, 20.0, 400.0])
    def test_sigmoid_random_logits(self, scale):
        z = np.random.default_rng(int(scale)).normal(scale=scale, size=(3, 4000))
        with np.errstate(all="ignore"):
            expected = parent_sigmoid(z)
        np.testing.assert_array_equal(bits(sigmoid(z)), bits(expected))

    def test_sigmoid_of_the_logit_buffer_view(self):
        # _forward passes the view z[..., 0] of its (m, n, 1) logit buffer
        logits = np.random.default_rng(2).normal(scale=30.0, size=(4, 50, 1))
        logits[1, 7] = np.nan
        expected = parent_sigmoid(logits[..., 0])
        got = _sigmoid(logits[..., 0], np.empty((4, 50)))
        np.testing.assert_array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize("label", [0, 1])
    def test_bce_edges_per_label(self, label):
        edges = np.concatenate([[0.0, -0.0, 1.0, PROB_FLOOR, 1.0 - PROB_FLOOR, 0.5, np.inf,
                                 -np.inf, 2.0], SUBNORMALS, NANS])
        labels = np.array([label])
        for p in edges:
            with np.errstate(all="ignore"):
                expected = parent_bce(np.array([p]), labels)
            np.testing.assert_array_equal(bits(bce(np.array([p]), labels)), bits(expected))

    def test_bce_random_probabilities_both_labels(self):
        rng = np.random.default_rng(9)
        probs = np.concatenate([
            np.repeat([0.0, 1.0, PROB_FLOOR, 1.0 - PROB_FLOOR], 2), rng.random(300),
            rng.random(300) ** 60, 1.0 - rng.random(300) ** 60])
        labels = np.concatenate([np.tile([0, 1], 4), rng.integers(0, 2, size=900)])
        stack = np.stack([probs, probs[::-1], 1.0 - probs])
        np.testing.assert_array_equal(bits(bce(stack, labels)), bits(parent_bce(stack, labels)))
        np.testing.assert_array_equal(bits(bce(probs, labels)), bits(parent_bce(probs, labels)))


def parent_stacked_loss(dims, stack, data):
    """stacked_loss as it was before the _Loss kernel: the parent forward
    pass and BCE on fresh arrays."""
    probs = parent_forward(parent_layer_views(dims, stack), data.features)[1]
    return parent_bce(probs, data.labels)


class TestLossKernel:
    """The _Loss kernel against parent_stacked_loss, bit for bit."""

    @staticmethod
    def case(hidden, members, seed, rows=37, nan=False):
        dims = (5, *hidden, 1)
        rng = np.random.default_rng(seed)
        stack = rng.uniform(-2.0, 2.0, size=(members, param_count(dims)))
        if nan:
            stack[members // 2, 2] = np.nan
        data = make_dataset(rng.normal(size=(rows, 5)) * 3.0, rng.integers(0, 2, size=rows))
        return dims, stack, data

    @pytest.mark.parametrize("hidden", [(), (16,), (8, 4)])
    @pytest.mark.parametrize("members", [1, 15, 16])
    @pytest.mark.parametrize("nan", [False, True])
    def test_stack_bit_identical_to_parent(self, hidden, members, nan):
        dims, stack, data = self.case(hidden, members, seed=members + len(hidden), nan=nan)
        expected = parent_stacked_loss(dims, stack, data)
        got = _Loss(dims, stack, data)()
        np.testing.assert_array_equal(bits(got), bits(expected))
        np.testing.assert_array_equal(bits(_Loss(dims, stack, data)()), bits(expected))

    @pytest.mark.parametrize("hidden", [(), (16,), (8, 4)])
    def test_first_chunk_without_its_first_row(self, hidden):
        # a table's first chunk values rows 1: of its block; row 0, the empty
        # coalition, holds no model, here NaNs that must reach no other row
        dims, block, data = self.case(hidden, 16, seed=3)
        block[0] = np.nan
        kernel = _Loss(dims, block, data)
        got = kernel(1)
        assert got.shape == (15,)
        np.testing.assert_array_equal(bits(got), bits(parent_stacked_loss(dims, block[1:], data)))

    def test_block_rewritten_between_calls(self):
        # the table writes each chunk's means into the block the kernel was
        # built on; every call values what the block holds then
        dims, block, data = self.case((16,), 16, seed=4)
        kernel = _Loss(dims, block, data)
        rng = np.random.default_rng(5)
        for start in (1, 0, 0, 1, 0):
            block[...] = rng.uniform(-2.0, 2.0, size=block.shape)
            expected = parent_stacked_loss(dims, block[start:], data)
            np.testing.assert_array_equal(bits(kernel(start)), bits(expected))


class TestPredict:
    """predict_batch on single rows, and a batch against its rows one at a time."""

    def test_zero_weights_give_half(self):
        params = ModelParams((3, 4, 1), np.zeros(param_count((3, 4, 1))))
        probs = predict_batch(params, np.array([[1.0, -2.0, 3.0]]))
        assert probs.shape == (1,)
        assert probs[0] == 0.5

    def test_saturated_logit(self):
        params = logistic([10.0, 10.0], 0.0)
        assert predict_batch(params, np.array([[1.0, 1.0]]))[0] > 0.99

    def test_cancellation(self):
        params = logistic([1.0, -1.0, 0.0], 0.0)
        assert predict_batch(params, np.array([[1.0, 1.0, 1.0]]))[0] == 0.5

    def test_width_mismatch_rejected(self):
        params = logistic([1.0, 2.0], 0.0)
        with pytest.raises(ValueError, match="feature width 3 does not match"):
            predict_batch(params, np.array([[1.0, 2.0, 3.0]]))

    def test_single_vector_rejected(self):
        params = logistic([1.0, 2.0], 0.0)
        with pytest.raises(ValueError, match=r"\(rows, width\) matrix, got shape \(2,\)"):
            predict_batch(params, np.array([1.0, 2.0]))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        params = ModelParams((5, 3, 1), rng.normal(size=param_count((5, 3, 1))))
        feats = rng.normal(size=(10, 5))
        batch = predict_batch(params, feats)
        singles = [predict_batch(params, feats[i : i + 1])[0] for i in range(10)]
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

    @pytest.mark.parametrize("key", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [2.0, 2.5, True, np.float64(8.0), "8"])
    def test_non_integer_counts_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got "):
            TrainConfig(**{key: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = TrainConfig(epochs=np.int64(2), batch_size=np.int64(8))
        ds = make_dataset(np.eye(3), [1, 0, 1])
        params = init_params((3, 1), seed=1)
        trained = local_train(params, ds, cfg, 5)
        expected = local_train(params, ds, TrainConfig(epochs=2, batch_size=8), 5)
        assert np.array_equal(trained.weights, expected.weights)

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", math.nan),
        ("learning_rate", math.inf),
        ("weight_decay", math.nan),
        ("weight_decay", math.inf),
    ])
    def test_non_finite_rates_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            TrainConfig(**{key: value})


# row counts like those of ten shards a synthetic_n = 50000 run rebalances,
# two pairs equal, in no order
LARGE_SHARDS = [2626, 2592, 2610, 2604, 2610, 2590, 2616, 2598, 2626, 2620]


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
        # one full-batch step an epoch; nothing may be sized by batch_size,
        # and a batch beyond int64 must not overflow position arithmetic
        ([1, 40, 300], 10**12),
        ([1, 40, 300], 10**30),
        # ten shards of a large-shards round: 81 to 83 batches an epoch
        (LARGE_SHARDS, 32),
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

    @pytest.mark.parametrize("hidden", [(), (8, 4)])
    def test_shuffled_input_order_permutes_outputs(self, hidden):
        sizes = [20, 53, 1, 54, 64, 33, 53, 200]
        shards = self.shards(sizes, seed=3)
        seeds = list(range(31, 31 + len(sizes)))
        params = init_params((5, *hidden, 1), seed=4)
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=16, weight_decay=0.001)
        trained = self.check_against_oracle(params, shards, cfg, seeds)
        perm = np.random.default_rng(9).permutation(len(sizes)).tolist()
        shuffled = self.check_against_oracle(
            params, [shards[i] for i in perm], cfg, [seeds[i] for i in perm])
        for got, i in zip(shuffled, perm):
            self.assert_bits_equal(got.weights, trained[i].weights)

    @pytest.mark.parametrize("epochs", [1, 4])
    def test_equal_sized_shards_that_are_not_adjacent(self, epochs):
        # 2, 3 and 4 batches an epoch, two shards each: at step 2 the shards
        # of 2 and 4 batches take full batches while those of 3 take their
        # short ones, between them in the layout
        shards = self.shards([61, 20, 41, 60, 21, 40], seed=epochs)
        params = init_params((5, 16, 1), seed=2)
        cfg = TrainConfig(learning_rate=0.05, epochs=epochs, batch_size=16, weight_decay=0.001)
        self.check_against_oracle(params, shards, cfg, [5, 6, 7, 8, 9, 10])

    @pytest.mark.parametrize("hidden", [(), (16,)])
    def test_multiple_of_the_batch_runs_across_epoch_starts(self, hidden):
        # 16, 48 and 64 rows are whole batches, so those shards' segments
        # span epoch starts; 50 rows end each epoch on a short batch
        shards = self.shards([48, 16, 50, 64], seed=len(hidden))
        params = init_params((5, *hidden, 1), seed=6)
        cfg = TrainConfig(learning_rate=0.05, epochs=5, batch_size=16)
        self.check_against_oracle(params, shards, cfg, [41, 42, 43, 44])

    def test_kernel_calls_per_default_shaped_round(self, monkeypatch):
        # 53 and 54 rows at batch 32: one full-batch step of all ten shards,
        # then one short-batch step per size, every epoch
        calls = []
        step = _Step.__call__
        def counted(kernel, x, y):
            calls.append(x.shape[:-1])
            return step(kernel, x, y)
        monkeypatch.setattr(_Step, "__call__", counted)
        sizes = [54, 53, 53, 54, 53, 53, 53, 54, 53, 53]
        cfg = TrainConfig(epochs=10, batch_size=32)
        local_train_many(init_params((5, 16, 1), seed=0), self.shards(sizes), cfg, list(range(10)))
        assert sorted(calls) == sorted([(10, 32), (7, 21), (3, 22)] * 10)

    def test_memory_does_not_grow_with_steps_times_shards(self):
        # 10,000 steps of 30 shards: a (steps x shards) table of 8-byte
        # entries would take 2.4 MB
        shards = self.shards([5000] + [1] * 29, width=3)
        params = init_params((3, 4, 1), seed=0)
        cfg = TrainConfig(epochs=2, batch_size=1)
        tracemalloc.start()
        try:
            local_train_many(params, shards, cfg, list(range(30)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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


def step_shapes(train, sizes, batch, epochs):
    """The (stack, rows) of every _Step call `train` makes for shards of these
    sizes; the weights are not looked at."""
    calls = []
    step = _Step.__call__

    def counted(kernel, x, y):
        calls.append(x.shape[:-1])
        return step(kernel, x, y)

    shards = [make_dataset(np.zeros((n, 2)), np.zeros(n, dtype=np.int64)) for n in sizes]
    cfg = TrainConfig(epochs=epochs, batch_size=batch)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Step, "__call__", counted)
        train(init_params((2, 1), seed=0), shards, cfg, list(range(len(sizes))))
    return calls


def batches_by_rows(calls):
    """How many shard batches of each row count the calls took."""
    totals = collections.Counter()
    for stack, rows in calls:
        totals[rows] += stack
    return totals


def seeded_layouts(count):
    """(sizes, batch, epochs) of up to 11 shards of 1 to 59 rows."""
    rng = np.random.default_rng(24)
    for _ in range(count):
        sizes = rng.integers(1, 60, size=int(rng.integers(1, 12))).tolist()
        yield sizes, int(rng.integers(1, 20)), int(rng.integers(1, 4))


class TestSchedule:
    """local_train_many's passes against parent_local_train_many's. The bits
    are subset_sgd's to check; this checks that the shards take as many
    batches of each size as before, in no more _Step calls."""

    @pytest.mark.parametrize("sizes, batch, epochs", [
        ([1, 31, 32, 33, 2601], 32, 3),
        ([95, 100, 130, 131, 200], 16, 3),
        ([1, 7, 33, 60], 1, 3),
        ([1, 40, 300], 10**12, 3),
        ([20, 53, 1, 54, 64, 33, 53, 200], 16, 3),
        ([61, 20, 41, 60, 21, 40], 16, 4),
        ([48, 16, 50, 64], 16, 5),
        ([54, 53, 53, 54, 53, 53, 53, 54, 53, 53], 32, 10),
        ([70], 16, 3),
        (LARGE_SHARDS, 32, 10),
        ([5000] + [1] * 29, 1, 2),
    ])
    def test_same_batches_in_no_more_calls(self, sizes, batch, epochs):
        got = step_shapes(local_train_many, sizes, batch, epochs)
        want = step_shapes(parent_local_train_many, sizes, batch, epochs)
        assert len(got) <= len(want)
        assert batches_by_rows(got) == batches_by_rows(want)

    def test_seeded_layouts(self):
        for layout in seeded_layouts(200):
            self.test_same_batches_in_no_more_calls(*layout)

    def test_large_shards_round(self):
        # 80 full batches an epoch for 2590 rows, 82 for 2626, 81 for the
        # rest; then one pass per run of equally short last batches
        calls = step_shapes(local_train_many, LARGE_SHARDS, 32, 10)
        per_epoch = [(10, 32)] * 80 + [(9, 32), (2, 32), (1, 30), (1, 6), (1, 12),
                                        (2, 18), (1, 24), (1, 28), (2, 2)]
        assert calls == per_epoch * 10


class TestStepKernel:
    """The _Step kernel against parent_grad, bit for bit."""

    @pytest.mark.parametrize("members", [1, 2, 10, 30])
    @pytest.mark.parametrize("hidden", [(), (16,), (8, 4)])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.001])
    @pytest.mark.parametrize("rows", [1, 21, 32])
    def test_steps_bit_identical_to_parent_loop(self, members, hidden, weight_decay, rows):
        # four steps on new batches, so every buffer is reused with new values
        dims = (5, *hidden, 1)
        rng = np.random.default_rng(rows + len(hidden))
        start = rng.uniform(-0.8, 0.8, size=(members, param_count(dims)))
        batches = [(rng.normal(size=(members, rows, 5)) * 2.0,
                    (rng.random((members, rows)) < 0.3).astype(np.int64)) for _ in range(4)]
        kernel = _Step(dims, start.copy(), rows, weight_decay)
        for x, y in batches:
            g = kernel(x, y)
            g *= 0.05
            kernel.w -= g
        expected = parent_steps(dims, start, batches, 0.05, weight_decay)
        np.testing.assert_array_equal(bits(kernel.w), bits(expected))
        if members == 1:
            # a stack of one steps as the one vector did
            alone = parent_steps(dims, start[0], [(x[0], y[0]) for x, y in batches],
                                 0.05, weight_decay)
            np.testing.assert_array_equal(bits(kernel.w[0]), bits(alone))

    @pytest.mark.parametrize("hidden", [(), (16,), (8, 4)])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.001])
    def test_gradient_bit_identical_to_parent(self, hidden, weight_decay):
        for params, batch in one_model_cases(hidden):
            got = gradient(params, batch, weight_decay)
            expected = parent_grad(params.layer_dims, params.weights, batch.features,
                                   batch.labels, weight_decay)
            np.testing.assert_array_equal(bits(got), bits(expected))


class TestStackOfOne:
    """The single-model functions, each a stack of one, against the one-vector
    parent forward pass, bit for bit."""

    @pytest.mark.parametrize("hidden", [(), (16,), (8, 4)])
    def test_predict_batch(self, hidden):
        for params, data in one_model_cases(hidden):
            got = predict_batch(params, data.features)
            assert got.shape == (len(data),)
            expected = parent_probs(params.layer_dims, params.weights, data.features)
            np.testing.assert_array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize("hidden", [(), (16,), (8, 4)])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.001])
    def test_loss(self, hidden, weight_decay):
        for params, data in one_model_cases(hidden):
            got = loss(params, data, weight_decay)
            assert type(got) is float
            expected = parent_loss(params.layer_dims, params.weights, data, weight_decay)
            np.testing.assert_array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize("hidden", [(), (16,), (8, 4)])
    @pytest.mark.parametrize("threshold", [0.5, 0.3])
    def test_evaluate(self, hidden, threshold):
        for params, data in one_model_cases(hidden):
            got = astuple(evaluate(params, data, threshold))
            assert all(type(value) is float for value in got)
            expected = parent_metrics(params.layer_dims, params.weights, data, threshold)
            np.testing.assert_array_equal(bits(got), bits(astuple(expected)))


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
        params = uniform_params(dims, seed=3, scale=2.0)
        assert evaluate(params, ds).loss == loss(params, ds)


class TestBce:
    def test_bitwise_equal_to_two_log_form(self):
        rng = np.random.default_rng(4)
        edges = [0.0, 1.0, PROB_FLOOR, 1.0 - PROB_FLOOR, 1e-300, 1.0 - 1e-17, 0.5]
        probs = np.concatenate([edges, edges, rng.random(50), rng.random(50) ** 40])
        labels = np.concatenate([np.zeros(7), np.ones(7), rng.integers(0, 2, size=100)])
        labels = labels.astype(np.int64)
        np.testing.assert_array_equal(bits(bce(probs, labels)),
                                      bits(two_log_bce(probs, labels)))
        # stacked: one value per row, each the same bits as that row alone
        stack = np.stack([probs, probs[::-1], 1.0 - probs])
        got = bce(stack, labels)
        assert got.shape == (3,)
        np.testing.assert_array_equal(bits(got), bits(two_log_bce(stack, labels)))
        np.testing.assert_array_equal(bits(got), bits([bce(row, labels) for row in stack]))


class TestEvaluateOracle:
    SIZES = (7, 12, 7, 1, 12, 7, 30)

    def datasets(self, seed, width=4):
        rng = np.random.default_rng(seed)
        return [make_dataset(rng.normal(size=(n, width)) * 3.0, rng.integers(0, 2, size=n))
                for n in self.SIZES]

    @pytest.mark.parametrize("dims", [(4, 1), (4, 3, 1), (4, 6, 2, 1)])
    @pytest.mark.parametrize("threshold", [0.5, 0.3])
    def test_bitwise_equal_to_reference(self, dims, threshold):
        params = uniform_params(dims, seed=5, scale=1.5)
        for data in self.datasets(len(dims)):
            got = astuple(evaluate(params, data, threshold))
            assert all(type(value) is float for value in got)
            np.testing.assert_array_equal(
                bits(got), bits(astuple(reference_metrics(params, data, threshold))))

    def test_threshold_refused(self):
        with pytest.raises(ValueError, match="threshold"):
            evaluate(init_params((4, 1), seed=0), self.datasets(0)[0], threshold=1.0)


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


@pytest.mark.parametrize("call, where", [
    (lambda p, good, d: local_train_many(p, [good, d], TrainConfig(), [0, 1]), "shard 1: "),
    (lambda p, good, d: local_train_many(p, [d], TrainConfig(), [0]), ""),
    (lambda p, good, d: evaluate(p, d), ""),
    (lambda p, good, d: _Loss(p.layer_dims, np.stack([p.weights] * 2), d), ""),
    (lambda p, good, d: stacked_accuracy(p.layer_dims, np.stack([p.weights] * 2), d), ""),
    (lambda p, good, d: loss(p, d), ""),
    (lambda p, good, d: gradient(p, d), ""),
], ids=["local_train_many", "local_train_many-one", "evaluate",
        "_Loss", "stacked_accuracy", "loss", "gradient"])
def test_empty_and_width_messages(call, where):
    params = init_params((3, 1), seed=0)
    good = make_dataset(np.ones((4, 3)), [0, 1, 0, 1])
    empty = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
    narrow = make_dataset(np.ones((4, 2)), [0, 1, 0, 1])
    with pytest.raises(ValueError, match=f"^{where}dataset is empty$"):
        call(params, good, empty)
    with pytest.raises(ValueError,
                       match=f"^{where}feature width 2 does not match model input width 3$"):
        call(params, good, narrow)


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


class TestRefusals:
    """Refusals that no round reaches, each from its own input."""

    @pytest.mark.parametrize("refused, match", [
        (lambda data: average([]), "cannot average zero models"),
        (lambda data: _Loss((3, 1), np.zeros((2, 5)), data),
         r"stack shape \(2, 5\) does not match layer_dims \(3, 1\) \(expected \(m, 4\)\)"),
        (lambda data: ModelParams((3,), np.zeros(3)),
         "layer_dims needs at least input and output widths >= 1"),
    ], ids=["average-of-none", "stack-of-wrong-width", "no-output-layer"])
    def test_refused(self, refused, match):
        with pytest.raises(ValueError, match=match):
            refused(make_dataset(np.eye(3), [1, 0, 1]))
