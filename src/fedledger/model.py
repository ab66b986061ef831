"""Small MLP binary classifier over a flat parameter vector.

The flat layout ((W, b) per layer, row-major) makes model averaging and
content-addressed hashing elsewhere in the package trivial. All public
operations are pure with value semantics on the parameters; nothing here
keeps state between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Count, Dataset, check_fields

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
    epochs: Count = 1
    batch_size: Count = 32
    weight_decay: float = 0.001

    def __post_init__(self) -> None:
        check_fields(self)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    loss: float
    f1: float
    precision: float


def init_params(layer_dims: Sequence[int], seed: int) -> ModelParams:
    """Seeded small-uniform initialization in [-0.1, 0.1)."""
    dims = tuple(int(d) for d in layer_dims)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-0.1, 0.1, size=param_count(dims))
    return ModelParams(dims, weights)


def _layer_views(dims: tuple[int, ...], stack: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of a stack of m flat parameter vectors (m, P) as per-layer (W, b)
    pairs, W (m, din, dout) and b (m, 1, dout), so that each model's b
    broadcasts over the rows of its input; no copies.
    """
    out = []
    offset = 0
    m = len(stack)
    for din, dout in zip(dims, dims[1:]):
        end = offset + din * dout
        out.append((stack[:, offset:end].reshape(m, din, dout),
                    stack[:, end : end + dout].reshape(m, 1, dout)))
        offset = end + dout
    return out


def _sigmoid(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Logistic function of z into `out`, that cannot overflow: exp only sees
    -|z| <= 0. z is spent: it is left holding the numerator.

    e = exp(minimum(z, -z)), then maximum(e, z >= 0) / (1 + e): bit for bit
    1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) otherwise. For z >= 0,
    e <= 1 and the numerator is 1; otherwise e >= 0 and it is e. minimum and
    maximum return their first NaN operand, so a NaN logit keeps its sign
    bit, as it does in those two forms; the comparison's bools are written
    into z as 1.0 and 0.0.
    """
    np.negative(z, out=out)
    np.minimum(z, out, out=out)
    np.exp(out, out=out)
    np.greater_equal(z, 0.0, out=z)
    np.maximum(out, z, out=z)
    np.add(out, 1.0, out=out)
    return np.divide(z, out, out=out)


def _buffers(
    dims: tuple[int, ...], m: int, rows: int
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """_forward's empty buffers for m models on `rows` rows: hidden (m, rows,
    width) per hidden layer, logits (m, rows, 1) and probabilities (m, rows)."""
    return ([np.empty((m, rows, width)) for width in dims[1:-1]], np.empty((m, rows, 1)),
            np.empty((m, rows)))


def _forward(
    layers: list[tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    hidden: list[np.ndarray],
    logits: np.ndarray,
    probs: np.ndarray,
) -> np.ndarray:
    """ReLU hidden layers, sigmoid output. Returns the probabilities.

    `layers` are _layer_views of a stack of m models. Every model runs on the
    same x (n, din), or model i on its own rows x[i] when x is (m, n, din);
    probabilities are (m, n). A stacked matmul computes each slice with the
    same BLAS call as that model alone on its rows, so each row is bit for
    bit what that pair alone gives, whatever the stack's size. Every step
    writes into the given buffers (see _buffers): each product into
    hidden[i] (m, n, width) or logits (m, n, 1) with np.matmul(out=), the
    same arithmetic as @, the bias add and ReLU into the product, and the
    sigmoid into probs (m, n). The hidden activations stay there for the
    caller; the logits are spent by _sigmoid.
    """
    a = x
    for (w, b), out in zip(layers, hidden):
        a = np.matmul(a, w, out=out)
        a += b
        np.maximum(a, 0.0, out=a)
    w_out, b_out = layers[-1]
    z = np.matmul(a, w_out, out=logits)
    z += b_out
    return _sigmoid(z[..., 0], probs)


def _check_data(width: int, datasets: Sequence[Dataset], name: str = "dataset") -> None:
    """Refuse an empty dataset, or one whose feature width is not the model's.

    The Datasets checked their rows (finite features, 0/1 labels) when they
    were built, so this is the only check the kernels need. With more than
    one dataset, a message starts with `{name} i: `.
    """
    for i, data in enumerate(datasets):
        where = f"{name} {i}: " if len(datasets) > 1 else ""
        if len(data) == 0:
            raise ValueError(f"{where}dataset is empty")
        if data.schema_width != width:
            raise ValueError(
                f"{where}feature width {data.schema_width} does not match "
                f"model input width {width}"
            )


def predict_batch(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Probability of the positive (fraud) class for each row of a (rows, width) matrix."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be a (rows, width) matrix, got shape {x.shape}")
    if x.shape[1] != params.input_width:
        raise ValueError(
            f"feature width {x.shape[1]} does not match model input "
            f"width {params.input_width}"
        )
    dims = params.layer_dims
    return _forward(_layer_views(dims, params.weights[None]), x, *_buffers(dims, 1, len(x)))[0]


def _bce(probs: np.ndarray, sign: np.ndarray, offset: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Mean BCE over the last axis of `probs` (..., n) into `out` (...), one
    value per model; each row is averaged by the same pairwise sum as a
    single (n,) vector. probs is spent. sign and offset are _Loss's label
    terms: +1 and 0 where the label is 1, -1 and 1 where it is 0.

    One log per row: the log of the probability given to the true label,
    p*sign + offset, that is p or 1 - p bit for bit. For finite probabilities
    this is bit for bit the two-log form -mean(y*log(p) + (1-y)*log(1-p)):
    clamped away from 0 and 1 by maximum then minimum, as np.clip clamps,
    every log is negative, and adding the other term's 0*log = -0.0 changes
    nothing.
    """
    np.maximum(probs, PROB_FLOOR, out=probs)
    np.minimum(probs, 1.0 - PROB_FLOOR, out=probs)
    np.multiply(probs, sign, out=probs)
    np.add(probs, offset, out=probs)
    np.log(probs, out=probs)
    np.add.reduce(probs, axis=-1, out=out)
    np.divide(out, probs.shape[-1], out=out)
    return np.negative(out, out=out)


class _Loss:
    """The one loss kernel: the BCE of a block of models on one dataset, from
    views and buffers built once and reused by every call, as _Step is for
    the gradient.

    Its inputs are checked once, here: `data` must be a non-empty dataset of
    the model's input width and `w` a (m, P) block for `dims`. The layer
    views alias the C-contiguous block, which the caller may rewrite between
    calls (a UtilityGame writes each batch's means into its block, and
    _value_chunks each chunk's). A call values rows start: of the block through
    _forward and _bce, every step written into the kernel's buffers, and
    returns its loss buffer's rows start:, which the next call overwrites.
    Each loss is bit for bit that model's loss alone; memory grows with
    m * len(data) * the widest layer, so callers bound m.
    """

    def __init__(self, dims: Sequence[int], w: np.ndarray, data: Dataset):
        dims = tuple(int(d) for d in dims)
        _check_data(dims[0], [data])
        if w.ndim != 2 or w.shape[1] != param_count(dims):
            raise ValueError(
                f"stack shape {w.shape} does not match layer_dims {dims} "
                f"(expected (m, {param_count(dims)}))"
            )
        m = len(w)
        self.x = data.features
        self.layers = _layer_views(dims, w)
        self.hidden, self.logits, self.probs = _buffers(dims, m, len(data))
        self.offset = np.subtract(1.0, data.labels)  # 1 where the label is 0
        self.sign = np.subtract(data.labels, self.offset)  # +1 or -1
        self.losses = np.empty(m)

    def forward(self, start: int = 0) -> np.ndarray:
        """The probabilities (m - start, n) of rows start: of the block."""
        layers, hidden, logits, probs = self.layers, self.hidden, self.logits, self.probs
        if start:
            layers = [(w[start:], b[start:]) for w, b in layers]
            hidden = [h[start:] for h in hidden]
            logits, probs = logits[start:], probs[start:]
        return _forward(layers, self.x, hidden, logits, probs)

    def __call__(self, start: int = 0) -> np.ndarray:
        """The losses (m - start,) of rows start: of the block."""
        return _bce(self.forward(start), self.sign, self.offset, self.losses[start:])


def loss(params: ModelParams, data: Dataset, weight_decay: float = 0.0) -> float:
    """Mean binary cross-entropy, plus an optional 0.5*wd*||w||^2 penalty.

    Probabilities are clamped away from 0 and 1 so the value stays finite.
    """
    bce = _Loss(params.layer_dims, params.weights[None], data)()[0]
    if weight_decay:
        bce += 0.5 * weight_decay * float(params.weights @ params.weights)
    return float(bce)


def stacked_accuracy(layer_dims: Sequence[int], stack: np.ndarray, data: Dataset) -> np.ndarray:
    """evaluate().accuracy of many models of one architecture at once.

    `stack` is (m, P): row i is the flat weight vector of model i, and entry
    i is bit for bit evaluate(ModelParams(layer_dims, stack[i]),
    data).accuracy, at its default threshold of 0.5, from one stacked forward
    pass of the _Loss kernel; no loss is computed.
    """
    probs = _Loss(layer_dims, stack, data).forward()
    return _accuracy(probs >= 0.5, data.labels.astype(bool))


class _Step:
    """The one backpropagation kernel: the gradient of a lock-step group of
    models, from views and buffers built once and reused by every step.

    Its layer views alias the C-contiguous weight stack `w` (m, P) it is
    given, which the caller steps in place, with batches x (m, rows, din) and
    y (m, rows), model i on its own batch x[i]; local_train_many() passes
    slices of its weight block, gradient() a copy. A call fills and returns
    the gradient buffer, which the next call overwrites; it only reads `w`.
    The forward pass is _forward, given the kernel's buffers; every backward
    product is written with out= into a buffer of shape (m, rows, width),
    and the bias gradients are summed straight into their views of the
    gradient. The arithmetic is that of a plain forward and backward pass,
    so each row of the gradient is bit for bit that model's gradient alone,
    as in _forward.
    """

    def __init__(self, dims: tuple[int, ...], w: np.ndarray, rows: int, weight_decay: float):
        m = len(w)
        self.w = w
        self.weight_decay = weight_decay
        self.layers = _layer_views(dims, w)
        self.weights_t = [lw.swapaxes(-1, -2) for lw, _ in self.layers]
        self.grad = np.empty_like(w)
        # these views alias `grad`, so writing into them fills the flat vectors
        grad_layers = _layer_views(dims, self.grad)
        self.weight_grads = [gw for gw, _ in grad_layers]
        self.bias_grads = [gb[:, 0] for _, gb in grad_layers]
        self.hidden, self.logits, self.probs = _buffers(dims, m, rows)
        self.hidden_t = [a.swapaxes(-1, -2) for a in self.hidden]
        # deltas[li] is the loss gradient at layer li's output
        self.deltas = [np.empty((m, rows, width)) for width in dims[1:]]
        self.decay = np.empty_like(w) if weight_decay else None

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        delta = self.deltas[-1]
        probs = _forward(self.layers, x, self.hidden, self.logits, self.probs)
        np.subtract(probs, y, out=delta[..., 0])
        delta /= x.shape[-2]
        inputs_t = [x.swapaxes(-1, -2), *self.hidden_t]
        for li in range(len(self.layers) - 1, -1, -1):
            np.matmul(inputs_t[li], delta, out=self.weight_grads[li])
            np.add.reduce(delta, axis=-2, out=self.bias_grads[li])
            if li > 0:
                below = self.deltas[li - 1]
                np.matmul(delta, self.weights_t[li], out=below)
                below *= self.hidden[li - 1] > 0
                delta = below
        if self.weight_decay:
            np.multiply(self.weight_decay, self.w, out=self.decay)
            self.grad += self.decay
        return self.grad


def gradient(params: ModelParams, batch: Dataset, weight_decay: float = 0.0) -> np.ndarray:
    """Gradient of loss() over the batch, in the flat parameter layout.

    Backpropagation with ReLU'(0) taken as 0. The weight-decay term is
    folded in here (classical SGD + L2, not decoupled). The Dataset checked
    its rows when it was built; this checks only that the batch is non-empty
    and matches the model's input width, then runs the same kernel as
    local_train().
    """
    _check_data(params.input_width, [batch])
    kernel = _Step(params.layer_dims, params.weights[None].copy(), len(batch), weight_decay)
    return kernel(batch.features[None], batch.labels[None])[0]


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
    shard i draws all its epochs' permutations up front from its own seeded
    generator, the same draws as one permutation per epoch, and takes its
    batches in order. The shards are laid out by row count, hence by full
    batches per epoch, in the concatenated rows and in one weight block, and
    move through the epochs together. Step s of an epoch stacks the shards
    that still have an (s+1)-th full batch, a suffix of the layout, in one
    forward and backward pass through the _Step kernel built for that suffix
    on its slice of the weight block, which the steps update in place. Then
    each run of adjacent shards whose last batches are equally short takes
    them in one pass. Stacking never changes a row's bits, so the schedule
    only decides how many passes a call makes.

    Beside the concatenated rows, this keeps `order`, epochs x rows indices
    (about 2 MB for ten shards of 2,600 rows over 10 epochs), the positions
    in `order` of each shard's next full batch and of its short last batch,
    no more entries than rows, and the kernels' buffers, shards x rows x the
    widest layer each; nothing grows with steps x shards. A step reads its
    positions from `order`, gathers those rows and moves the positions on
    by the batch size. The Datasets checked their rows (finite features,
    0/1 labels) when they were built, so this checks only that every shard
    is non-empty and matches the model's input width, once.
    """
    if len(seeds) != len(shards):
        raise ValueError(f"{len(seeds)} seeds for {len(shards)} shards")
    dims = params.layer_dims
    _check_data(params.input_width, shards, "shard")
    if not shards:
        return []
    layout = np.argsort([len(shard) for shard in shards], kind="stable")
    x = np.concatenate([shards[i].features for i in layout])
    y = np.concatenate([shards[i].labels for i in layout]).astype(np.float64)
    n = np.array([len(shards[i]) for i in layout])
    epochs = cfg.epochs
    # no wider than the largest shard: the same batches, and positions stay within int64
    batch = min(cfg.batch_size, int(n[-1]))
    full = n // batch  # full batches an epoch, ascending as the layout is
    short = n - full * batch  # rows of the short last batch, 0 for none
    # order[begins[j] + e * n[j] + p] is row p of shard j's epoch e, as a row of x
    begins = np.cumsum(epochs * n) - epochs * n
    order = np.empty(epochs * len(x), dtype=np.intp)
    for i, first, count, at in zip(layout.tolist(), np.cumsum(n) - n, n, begins):
        epoch_rows = order[at : at + epochs * count].reshape(epochs, count)
        epoch_rows[...] = np.arange(first, first + count)
        np.random.default_rng(seeds[i]).permuted(epoch_rows, axis=1, out=epoch_rows)
    weights = np.tile(params.weights, (len(shards), 1))
    wd = cfg.weight_decay
    # An epoch's passes in turn, as (steps, kernel, positions in `order`, what
    # a step adds to them). Step s stacks the shards with more than s full
    # batches, shards lo.. for s in [full[lo - 1], full[lo]); the shards
    # before `whole` have none, and pos holds the others' next full batch.
    whole = int(np.searchsorted(full, 0, side="right"))
    pos = begins[whole:, None] + np.arange(batch)
    passes = []
    start = 0
    for lo in np.flatnonzero(np.diff(full, prepend=0)).tolist():
        stop = int(full[lo])
        kernel = _Step(dims, weights[lo:], batch, wd)
        passes.append((stop - start, kernel, pos[lo - whole :], batch))
        start = stop
    # Then each run of adjacent shards whose last batches are equally short
    # takes them in one step, which moves their positions to the next epoch.
    edges = [0, *(np.flatnonzero(np.diff(short)) + 1).tolist(), len(n)]
    for a, b in zip(edges, edges[1:]):
        if short[a]:
            last = (begins[a:b] + full[a:b] * batch)[:, None] + np.arange(short[a])
            passes.append((1, _Step(dims, weights[a:b], int(short[a]), wd), last, n[a:b, None]))
    for _ in range(epochs):
        for steps, kernel, at, advance in passes:
            for _ in range(steps):
                idx = order[at]
                g = kernel(x.take(idx, axis=0), y.take(idx))
                g *= cfg.learning_rate
                kernel.w -= g
                at += advance
        # past its short rows, a shard's next full batch starts its next epoch
        pos += short[whole:, None]
    return [ModelParams(dims, weights[j]) for j in np.argsort(layout).tolist()]


def _accuracy(preds: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Share of matching entries over the last axis of boolean predictions and labels."""
    return np.count_nonzero(preds == y, axis=-1) / preds.shape[-1]


def evaluate(params: ModelParams, data: Dataset, threshold: float = 0.5) -> Metrics:
    """Thresholded classification metrics; fraud (label 1) is the positive class.

    Precision and F1 fall back to 0 when their denominators vanish. One
    forward pass serves both the thresholded metrics and the loss, which
    equals loss(params, data).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly between 0 and 1")
    kernel = _Loss(params.layer_dims, params.weights[None], data)
    probs = kernel.forward()
    preds = probs[0] >= threshold
    y = data.labels.astype(bool)
    tp = int(np.count_nonzero(preds & y))
    fp = int(np.count_nonzero(preds & ~y))
    fn = int(np.count_nonzero(~preds & y))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    bce = _bce(probs, kernel.sign, kernel.offset, kernel.losses)[0]
    return Metrics(float(_accuracy(preds, y)), float(bce), f1, precision)


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
