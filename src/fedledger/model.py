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

    layer_dims runs input width -> hidden widths -> 1. version tracks the
    federation round the parameters belong to.
    """

    layer_dims: tuple[int, ...]
    weights: np.ndarray
    version: int = 0

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
    seed: int = 0

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
    return ModelParams(dims, weights, version=0)


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
    stack runs on the same x: activations are (..., n, width) and
    probabilities (..., n). A stacked matmul computes each model's slice with
    the same BLAS call as a single model, so each slice is bit for bit what
    that model alone gives. The bias add and ReLU write into the product.
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
    a single (n,) vector."""
    probs = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return -np.mean(labels * np.log(probs) + (1 - labels) * np.log(1.0 - probs), axis=-1)


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


def stacked_loss(layer_dims: Sequence[int], stack: np.ndarray, data: Dataset) -> np.ndarray:
    """loss() of many models of one architecture at once, one per row of `stack`.

    `stack` is (m, P): row i is the flat weight vector of model i. Entry i
    of the result is bit for bit loss(ModelParams(layer_dims, stack[i]), data),
    from one stacked forward pass; its memory grows with m * len(data) *
    the widest layer, so callers bound m.
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
    return np.reshape(_bce(probs, data.labels), len(stack))


def _grad(
    dims: tuple[int, ...],
    flat: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    weight_decay: float,
) -> np.ndarray:
    """Backpropagation over one non-empty batch of checked raw arrays.

    The one gradient kernel: gradient() and local_train() both call it after
    checking their inputs. Returns a new flat vector; `flat` is only read.
    """
    m = x.shape[0]
    layers = _layer_views(dims, flat)
    activations, probs = _forward(layers, x)

    grad = np.zeros_like(flat)
    # these views alias `grad`, so writing into them fills the flat vector
    grad_layers = _layer_views(dims, grad)
    delta = ((probs - y) / m).reshape(m, 1)
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        gw, gb = grad_layers[li]
        gw[...] = activations[li].T @ delta
        gb[...] = delta.sum(axis=0)
        if li > 0:
            delta = (delta @ w.T) * (activations[li] > 0)
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


def local_train(params: ModelParams, data: Dataset, cfg: TrainConfig) -> ModelParams:
    """Mini-batch SGD: epochs x ceil(n/batch_size) steps w <- w - lr*grad.

    Batches come from a seeded shuffle each epoch; identical inputs and seed
    give bitwise-identical outputs. The input params are left untouched and
    the result's version is bumped by one.

    The Dataset checked its rows (finite features, 0/1 labels) when it was
    built, so this checks only emptiness and feature width, once, and then
    runs every step on rows indexed straight from its arrays. Each step is
    the same arithmetic as gradient() on data.subset(batch indices).
    """
    if len(data) == 0:
        raise ValueError("dataset is empty")
    x = _as_matrix(params, data.features)
    y = data.labels
    dims = params.layer_dims
    rng = np.random.default_rng(cfg.seed)
    n = len(data)
    weights = params.weights
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            g = _grad(dims, weights, x[idx], y[idx], cfg.weight_decay)
            weights = weights - cfg.learning_rate * g
    return ModelParams(dims, weights, params.version + 1)


def evaluate(params: ModelParams, data: Dataset, threshold: float = 0.5) -> Metrics:
    """Thresholded classification metrics; fraud (label 1) is the positive class.

    Precision and F1 fall back to 0 when their denominators vanish. One
    forward pass serves both the thresholded metrics and the loss, which
    equals loss(params, data).
    """
    if len(data) == 0:
        raise ValueError("dataset is empty")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly between 0 and 1")
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
    return Metrics(accuracy, float(_bce(probs, data.labels)), f1, precision)


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
    return ModelParams(dims, total, models[0].version)
