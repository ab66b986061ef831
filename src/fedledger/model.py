"""Small MLP binary classifier over a flat parameter vector.

The flat layout ((W, b) per layer, row-major) makes model averaging and
content-addressed hashing elsewhere in the package trivial. All operations
are pure with value semantics on the parameters; nothing here keeps state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset

PROB_FLOOR = 1e-12


def param_count(layer_dims: Sequence[int]) -> int:
    return sum((din + 1) * dout for din, dout in zip(layer_dims, layer_dims[1:]))


@dataclass(frozen=True)
class ModelParams:
    """Flat real-valued parameters of an MLP with sigmoid output.

    layer_dims runs input width -> hidden widths -> 1.
    """

    layer_dims: tuple[int, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.layer_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError("layer_dims needs at least input and output widths >= 1")
        if dims[-1] != 1:
            raise ValueError("output width must be 1 (binary classifier)")
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64).ravel())
        if w.size != param_count(dims):
            raise ValueError(
                f"weights length {w.size} does not match layer_dims {dims} "
                f"(expected {param_count(dims)})"
            )
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "weights", w)

    @property
    def input_width(self) -> int:
        return self.layer_dims[0]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 1
    batch_size: int = 32
    weight_decay: float = 0.001

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    loss: float
    f1: float
    precision: float


def init_params(layer_dims: Sequence[int], seed: int, scale: float = 0.1) -> ModelParams:
    """Seeded small-uniform initialization in [-scale, scale)."""
    dims = tuple(int(d) for d in layer_dims)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-scale, scale, size=param_count(dims))
    return ModelParams(dims, weights)


def _layer_views(dims: tuple[int, ...], flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of flat parameter vectors as per-layer (W, b) pairs; no copies.

    `flat` is one vector (P,), giving W (din, dout) and b (dout,), or a stack
    of m vectors (m, P), giving W (m, din, dout) and b (m, 1, dout), so that
    each model's b broadcasts over the rows of its input.
    """
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


def _layers(params: ModelParams) -> list[tuple[np.ndarray, np.ndarray]]:
    return _layer_views(params.layer_dims, params.weights)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function that cannot overflow: exp only sees -|z| <= 0.

    Bit for bit equal to 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z))
    otherwise. The exponent is picked with where() rather than -abs(z) so
    that a NaN logit keeps its sign bit, as it does in those two forms.
    """
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    denom = 1.0 + e
    return np.where(pos, 1.0 / denom, e / denom)


def _forward(
    layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """ReLU hidden layers, sigmoid output. Returns activations and probabilities.

    x is (n, din). With stacked layers from _layer_views, every model of the
    stack runs on the same x, or model i on its own rows x[i] when x is
    (m, n, din); one model's layers run on each x[j] of a stacked (g, n, din).
    Activations are (..., n, width) and probabilities (..., n). A stacked
    matmul computes each slice with the same BLAS call as a single model on
    a single x, so each slice is bit for bit what that pair alone gives.
    The bias add and ReLU write into the product.
    """
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
    return activations, _sigmoid(z[..., 0])


def _as_matrix(params: ModelParams, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.shape[1] != params.input_width:
        raise ValueError(
            f"feature width {x.shape[1]} does not match model input "
            f"width {params.input_width}"
        )
    return x


def predict(params: ModelParams, features: np.ndarray) -> float:
    """Probability of the positive (fraud) class for one feature vector."""
    x = _as_matrix(params, features)
    if x.shape[0] != 1:
        raise ValueError("predict takes a single feature vector; see predict_batch")
    return float(_forward(_layers(params), x)[1][0])


def predict_batch(params: ModelParams, features: np.ndarray) -> np.ndarray:
    return _forward(_layers(params), _as_matrix(params, features))[1]


def _bce(probs: np.ndarray, labels: np.ndarray) -> np.floating | np.ndarray:
    """Mean BCE over the last axis: a scalar for (n,) probabilities, one value
    per model for (..., n). Each row is averaged by the same pairwise sum as
    a single (n,) vector.

    One log per row: the log of the probability given to the true label.
    For finite probabilities this is bit for bit the two-log form
    -mean(y*log(p) + (1-y)*log(1-p)): clamped away from 0 and 1, every log
    is negative, and adding the other term's 0*log = -0.0 changes nothing.
    """
    probs = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    log_true = np.log(np.where(labels == 1, probs, 1.0 - probs))
    return -(log_true.sum(axis=-1) / labels.shape[-1])


def loss(params: ModelParams, data: Dataset, weight_decay: float = 0.0) -> float:
    """Mean binary cross-entropy, plus an optional 0.5*wd*||w||^2 penalty.

    Probabilities are clamped away from 0 and 1 so the value stays finite.
    """
    if len(data) == 0:
        raise ValueError("dataset is empty")
    bce = _bce(predict_batch(params, data.features), data.labels)
    if weight_decay:
        bce += 0.5 * weight_decay * float(params.weights @ params.weights)
    return float(bce)


def _stacked_probs(layer_dims: Sequence[int], stack: np.ndarray, data: Dataset) -> np.ndarray:
    """Probabilities (m, n) of the m models of `stack` on `data`, one stacked pass.

    Row i is bit for bit predict_batch(ModelParams(layer_dims, stack[i]),
    data.features); memory grows with m * len(data) * the widest layer, so
    callers bound m.
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(data) == 0:
        raise ValueError("dataset is empty")
    if stack.ndim != 2 or stack.shape[1] != param_count(dims):
        raise ValueError(
            f"stack shape {stack.shape} does not match layer_dims {dims} "
            f"(expected (m, {param_count(dims)}))"
        )
    if data.features.shape[1] != dims[0]:
        raise ValueError(
            f"feature width {data.features.shape[1]} does not match model input "
            f"width {dims[0]}"
        )
    # a stack of one runs unstacked: the same arithmetic, less per-call overhead
    flat = stack[0] if len(stack) == 1 else stack
    probs = _forward(_layer_views(dims, flat), data.features)[1]
    return probs.reshape(len(stack), len(data))


def stacked_loss(layer_dims: Sequence[int], stack: np.ndarray, data: Dataset) -> np.ndarray:
    """loss() of many models of one architecture at once, one per row of `stack`.

    `stack` is (m, P): row i is the flat weight vector of model i. Entry i
    of the result is bit for bit loss(ModelParams(layer_dims, stack[i]), data),
    from one stacked forward pass; its memory grows with m * len(data) *
    the widest layer, so callers bound m.
    """
    return _bce(_stacked_probs(layer_dims, stack, data), data.labels)


def stacked_accuracy(layer_dims: Sequence[int], stack: np.ndarray, data: Dataset) -> np.ndarray:
    """evaluate().accuracy of many models of one architecture at once.

    Entry i is bit for bit evaluate(ModelParams(layer_dims, stack[i]),
    data).accuracy, at its default threshold of 0.5, from one stacked forward
    pass as in stacked_loss(); no loss is computed.
    """
    return _accuracy(_stacked_probs(layer_dims, stack, data) >= 0.5, data.labels.astype(bool))


def _grad(
    dims: tuple[int, ...],
    flat: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    weight_decay: float,
) -> np.ndarray:
    """Backpropagation over one non-empty batch of checked raw arrays.

    The one gradient kernel, called by gradient() and local_train_many() after
    they check their inputs. `flat` is one vector (P,) with x (n, din) and y
    (n,), or a stack (m, P) with x (m, n, din) and y (m, n): model i on its
    own batch x[i]. Each slice of a stacked result is bit for bit that model's
    gradient alone, as in _forward. Returns new arrays; `flat` is only read.
    """
    n = x.shape[-2]
    layers = _layer_views(dims, flat)
    activations, probs = _forward(layers, x)

    grad = np.zeros_like(flat)
    # these views alias `grad`, so writing into them fills the flat vectors
    grad_layers = _layer_views(dims, grad)
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


def gradient(params: ModelParams, batch: Dataset, weight_decay: float = 0.0) -> np.ndarray:
    """Gradient of loss() over the batch, in the flat parameter layout.

    Backpropagation with ReLU'(0) taken as 0. The weight-decay term is
    folded in here (classical SGD + L2, not decoupled). The Dataset checked
    its rows when it was built; this checks only that the batch is non-empty
    and matches the model's input width, then runs the same kernel as
    local_train().
    """
    if len(batch) == 0:
        raise ValueError("batch is empty")
    x = _as_matrix(params, batch.features)
    return _grad(params.layer_dims, params.weights, x, batch.labels, weight_decay)


def local_train(params: ModelParams, data: Dataset, cfg: TrainConfig, seed: int) -> ModelParams:
    """Mini-batch SGD: epochs x ceil(n/batch_size) steps w <- w - lr*grad.

    Batches come from a seeded shuffle each epoch; identical inputs and seed
    give bitwise-identical outputs. The input params are left untouched.
    Each step is the same arithmetic as gradient() on data.subset(batch
    indices). This is local_train_many() of one shard.
    """
    return local_train_many(params, [data], cfg, [seed])[0]


def local_train_many(
    params: ModelParams,
    shards: Sequence[Dataset],
    cfg: TrainConfig,
    seeds: Sequence[int],
) -> list[ModelParams]:
    """local_train() of `params` on every shard, the shards in lock-step.

    Entry i is bit for bit local_train(params, shards[i], cfg, seeds[i]):
    each shard draws its own seeded permutation when it starts an epoch, so
    its batches are exactly those. At each step index, the shards whose batch
    has the same row count take that step together, through one stacked
    forward and backward pass of _grad; a shard alone at its row count takes
    it unstacked. The groups are formed again only when a shard starts an
    epoch, reaches a short last batch or is done. Beside the concatenated
    rows this keeps one index per row, so memory grows with neither epochs
    nor batch_size.

    The Datasets checked their rows (finite features, 0/1 labels) when they
    were built, so this checks only that every shard is non-empty and matches
    the model's input width, once, and then runs every step on rows indexed
    straight from one concatenated array.
    """
    if len(seeds) != len(shards):
        raise ValueError(f"{len(seeds)} seeds for {len(shards)} shards")
    dims = params.layer_dims
    for i, shard in enumerate(shards):
        where = f"shard {i}: " if len(shards) > 1 else ""
        if len(shard) == 0:
            raise ValueError(f"{where}dataset is empty")
        if shard.schema_width != params.input_width:
            raise ValueError(
                f"{where}feature width {shard.schema_width} does not match "
                f"model input width {params.input_width}"
            )
    if not shards:
        return []
    x = np.concatenate([shard.features for shard in shards])
    y = np.concatenate([shard.labels for shard in shards])
    batch = cfg.batch_size
    sizes = [len(shard) for shard in shards]
    starts = np.cumsum([0, *sizes[:-1]]).tolist()
    per_epoch = [-(-n // batch) for n in sizes]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # order[starts[i] : starts[i] + sizes[i]] is shard i's current epoch, as rows of x
    order = np.empty(len(x), dtype=np.intp)
    weights = np.tile(params.weights, (len(shards), 1))
    step, end = 0, cfg.epochs * max(per_epoch)
    while step < end:
        # row count -> (the shards, where each one's batch starts in `order`).
        # The groups hold for `run` steps: until a shard reaches a short last
        # batch, starts an epoch or is done.
        groups: dict[int, tuple[list[int], list[int]]] = {}
        run = end - step
        for i, (n, k, start) in enumerate(zip(sizes, per_epoch, starts)):
            if step >= cfg.epochs * k:
                continue
            first = step % k * batch
            if first == 0:
                np.add(rngs[i].permutation(n), start, out=order[start : start + n])
            run = min(run, max((n - first) // batch, 1))
            members, offsets = groups.setdefault(min(batch, n - first), ([], []))
            members.append(i)
            offsets.append(start + first)
        # shards never share a step's arithmetic, so each group takes its run
        # of steps in turn
        for count, (members, offsets) in groups.items():
            if len(members) == 1:  # a shard alone at its row count steps unstacked
                sel, pos = members[0], np.arange(offsets[0], offsets[0] + count)
            else:
                sel, pos = members, np.add.outer(offsets, np.arange(count))
            w = weights[sel]  # a view of one shard's row, or a copy of the group's
            for _ in range(run):
                idx = order[pos]
                g = _grad(dims, w, x.take(idx, axis=0), y.take(idx), cfg.weight_decay)
                g *= cfg.learning_rate
                w -= g
                pos += batch
            weights[sel] = w  # a no-op for a view
        step += run
    return [ModelParams(dims, w) for w in weights]


def _accuracy(preds: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Share of matching entries over the last axis of boolean predictions and labels."""
    return np.count_nonzero(preds == y, axis=-1) / preds.shape[-1]


def _metrics(probs: np.ndarray, labels: np.ndarray, threshold: float) -> list[Metrics]:
    """Metrics of each row of probs (g, n) against the same row of labels (g, n).

    Fraud (label 1) is the positive class; precision and F1 fall back to 0
    when their denominators vanish. Counts, accuracy and loss are taken over
    the last axis, so row i is bit for bit what its (n,) vectors alone give.
    """
    preds = probs >= threshold
    y = labels.astype(bool)
    tp = np.count_nonzero(preds & y, axis=-1).tolist()
    fp = np.count_nonzero(preds & ~y, axis=-1).tolist()
    fn = np.count_nonzero(~preds & y, axis=-1).tolist()
    out = []
    rows = zip(_accuracy(preds, y).tolist(), _bce(probs, labels).tolist(), tp, fp, fn)
    for accuracy, bce, tp_i, fp_i, fn_i in rows:
        precision = tp_i / (tp_i + fp_i) if tp_i + fp_i else 0.0
        recall = tp_i / (tp_i + fn_i) if tp_i + fn_i else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out.append(Metrics(accuracy, bce, f1, precision))
    return out


def evaluate(params: ModelParams, data: Dataset, threshold: float = 0.5) -> Metrics:
    """Thresholded classification metrics; fraud (label 1) is the positive class.

    Precision and F1 fall back to 0 when their denominators vanish. One
    forward pass serves both the thresholded metrics and the loss, which
    equals loss(params, data). This is evaluate_many() of one dataset.
    """
    return evaluate_many(params, [data], threshold)[0]


def evaluate_many(
    params: ModelParams, datasets: Sequence[Dataset], threshold: float = 0.5
) -> list[Metrics]:
    """evaluate() of one model on every dataset, entry i bit for bit
    evaluate(params, datasets[i], threshold).

    Datasets with equal row counts share one forward pass over their stacked
    (g, n, width) features: each slice is the same BLAS call as that dataset
    alone, as in _forward. A dataset alone at its row count runs unstacked.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly between 0 and 1")
    groups: dict[int, list[int]] = {}
    for i, data in enumerate(datasets):
        where = f"dataset {i}: " if len(datasets) > 1 else ""
        if len(data) == 0:
            raise ValueError(f"{where}dataset is empty")
        if data.schema_width != params.input_width:
            raise ValueError(
                f"{where}feature width {data.schema_width} does not match "
                f"model input width {params.input_width}"
            )
        groups.setdefault(len(data), []).append(i)
    layers = _layers(params)
    by_index: dict[int, Metrics] = {}
    for n, members in groups.items():
        if len(members) == 1:
            x, y = datasets[members[0]].features, datasets[members[0]].labels
        else:
            x = np.stack([datasets[i].features for i in members])
            y = np.stack([datasets[i].labels for i in members])
        probs = _forward(layers, x)[1].reshape(len(members), n)
        by_index.update(zip(members, _metrics(probs, y.reshape(len(members), n), threshold)))
    return [by_index[i] for i in range(len(datasets))]


def average(models: Sequence[ModelParams]) -> ModelParams:
    """Uniform average of parameter vectors; the unit step of aggregation.

    Models are added in the order given, starting from a zero vector, and the
    sum is divided by their count (so an all -0.0 coordinate averages to 0.0).
    """
    if not models:
        raise ValueError("cannot average zero models")
    dims = models[0].layer_dims
    for m in models[1:]:
        if m.layer_dims != dims:
            raise ValueError("models must share layer_dims to be averaged")
    # the order np.stack(...).mean(axis=0) sums in, spelled out so that the
    # batched coalition means in valuation can match it bit for bit
    total = np.zeros_like(models[0].weights)
    for m in models:
        total += m.weights
    total /= len(models)
    return ModelParams(dims, total)
