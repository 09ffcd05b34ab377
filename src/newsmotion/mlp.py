"""Feed-forward classifier: ReLU hidden layers, two-node softmax output.

Training is plain mini-batch gradient descent on cross-entropy with
optional L2, a step-decayed learning rate, and model selection by best
validation error. Everything is deterministic in the config seed.

Activations are feature-major, (units, rows), so every layer is one
``w @ a`` product (`_layers`), in training and in scoring alike.

`train` computes in float32. It takes the full train and validation
matrices, float64 or float32, and the blocks to train on. Every
mini-batch is gathered from one row-major float32 array of just those
blocks' columns, from `features.block_columns`: the train matrix's own
rows when they are float32 and the blocks are all of them, else one
cast copy; the matrices themselves are only read. Every weight and
bias lives in one flat float32 buffer, viewed per layer, that each
layer's float64 Glorot draw (`_glorot`) is rounded into as it is made,
so no float64 copy of the model is held. Each step updates every
parameter with one ``grads *= lr; params -= grads`` and the best-epoch
snapshot is one copy. `_step`, the step `train` takes on each
mini-batch, computes in the dtype of the weights it is given, so the
tests' gradient oracle runs the same step on a float64 model in
float64. Validation inside `train` scores in float32. Final scoring,
`predict_batch`, is float64: numpy upcasts float32 weights exactly
against the float64 feature matrix, and the `<f8` blob holds them
exactly, so a trained model scores the same in memory and loaded back.
A loaded model's weights and biases are views of the one float64 array
its blob loads into (`codec.unpack`).
The last bits of a matrix product depend on the BLAS thread count and on
the orientation of its operands.

Every model carries the feature layout it was trained on, and
`predict_batch` is the only way a model scores rows: it rejects a matrix
of another layout and returns the confidence p_up - p_down per row. A
row predicts up if and only if its confidence is positive, so ties
predict down; `error_rate` applies that rule to the matrix labels.
Models are saved as `codec` blobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .codec import read_blob, unpack, write_blob
from .config import TrainConfig
from .errors import ParseError, TrainingDiverged, ValidationError
from .features import FeatureLayout, FeatureMatrix, block_columns
from .sampling import POSITIVE


@dataclass
class MlpModel:
    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]  # per layer, shape (fan_out, fan_in)
    biases: list[np.ndarray]
    layout: FeatureLayout
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        dims = self.layer_dims
        if len(dims) < 2:
            raise ValidationError("need at least input and output layers")
        if any(d <= 0 for d in dims):
            raise ValidationError(f"layer dims must be positive, got {dims}")
        if dims[-1] != 2:
            raise ValidationError(f"output layer must have 2 units, got {dims[-1]}")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValidationError("one weight matrix and bias vector per layer expected")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i + 1], dims[i]):
                raise ValidationError(
                    f"layer {i}: weight shape {w.shape} != ({dims[i + 1]}, {dims[i]})"
                )
            if b.shape != (dims[i + 1],):
                raise ValidationError(
                    f"layer {i}: bias shape {b.shape} != ({dims[i + 1]},)"
                )
        if self.layout.dimension != dims[0]:
            raise ValidationError(
                f"layout dimension {self.layout.dimension} != input dim {dims[0]}"
            )


def _glorot(dims: Sequence[int], seed: int) -> Iterator[np.ndarray]:
    """Each layer's Glorot-uniform weights, (fan_out, fan_in) float64, in order.

    One generator, deterministic in seed, draws every layer in turn.
    """
    rng = np.random.default_rng(seed)
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        yield rng.uniform(-limit, limit, size=(fan_out, fan_in))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax (max subtraction) of a 2-D array of logits."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _layers(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    a: np.ndarray,
    out: Sequence[np.ndarray] | None = None,
) -> Iterator[np.ndarray]:
    """Yields each layer's activations, feature-major; the last are the logits.

    ``a`` is (fan_in, rows), and each layer is (units, rows), so a layer
    is ``w @ a``. ``out``, if given, holds one such buffer per layer to
    write into.
    """
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = np.matmul(w, a, out=None if out is None else out[i])
        a += b[:, None]
        if i < last:
            np.maximum(a, 0.0, out=a)
        yield a


def _confidences(
    weights: Sequence[np.ndarray], biases: Sequence[np.ndarray], a: np.ndarray
) -> np.ndarray:
    """p_up - p_down per column of a feature-major ``a``, one layer held at a time."""
    for logits in _layers(weights, biases, a):
        pass
    p = softmax(logits.T)
    return p[:, 0] - p[:, 1]


def _step(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    a: np.ndarray,
    y: np.ndarray,
    l2: float,
    grad_w: Sequence[np.ndarray],
    grad_b: Sequence[np.ndarray],
    out: Sequence[np.ndarray] | None = None,
) -> float:
    """Loss of a feature-major batch ``a``; writes the gradients into grad_w, grad_b."""
    n = a.shape[1]
    activations = [a, *_layers(weights, biases, a, out)]
    z = activations[-1]
    cols = np.arange(n)
    # log p(label) = z_label - logsumexp(z); stable via max subtraction
    z_max = z.max(axis=0)
    log_norm = z_max + np.log(np.exp(z - z_max).sum(axis=0))
    loss = float(np.mean(log_norm - z[y, cols]))
    if l2 > 0:
        loss += 0.5 * l2 * sum(float(np.sum(w * w)) for w in weights)
    # the softmax is taken in float64, then rounded to the step's dtype
    delta = np.ascontiguousarray(softmax(z.T).T, dtype=z.dtype)
    delta[y, cols] -= 1.0
    delta /= n
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(delta, activations[i].T, out=grad_w[i])
        if l2 > 0:
            grad_w[i] += l2 * weights[i]
        np.sum(delta, axis=1, out=grad_b[i])
        if i > 0:
            delta = weights[i].T @ delta
            delta *= activations[i] > 0
    return loss


def predict_batch(model: MlpModel, matrix: FeatureMatrix) -> np.ndarray:
    """Confidence p_up - p_down per matrix row; a row predicts up iff it is > 0."""
    if model.layout != matrix.layout:
        raise ValidationError("model and matrix feature layouts differ")
    return _confidences(model.weights, model.biases, matrix.x.T)


def error_rate(confidences: np.ndarray, labels: Sequence[str]) -> float:
    """Share of rows whose predicted direction disagrees with the label."""
    truths = np.asarray(labels) == POSITIVE
    return float(np.mean((confidences > 0) != truths))


def _views(
    flat: np.ndarray, dims: Sequence[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views of one flat buffer, in blob order."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        weights.append(flat[at : at + fan_out * fan_in].reshape(fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return weights, biases


def train(
    train_matrix: FeatureMatrix,
    valid_matrix: FeatureMatrix,
    config: TrainConfig,
    blocks: Sequence[str] | None = None,
) -> MlpModel:
    """Fit on the training matrix, selecting the best validation-error epoch.

    ``blocks`` names the feature blocks to train on, all of the matrices'
    by default; the model's layout is theirs. The matrices, float64 or
    float32, are only read: training casts those blocks' columns to
    float32 once, and takes float32 rows of every block as they are. A
    float32 matrix trains the same model, byte for byte, as the float64
    matrix it was cast from.
    Records per-epoch train loss and validation error in model metadata.
    Raises TrainingDiverged on non-finite loss.
    """
    if len(train_matrix) == 0 or len(valid_matrix) == 0:
        raise ValidationError("train and validation sets must be non-empty")
    if train_matrix.layout != valid_matrix.layout:
        raise ValidationError("train and validation feature layouts differ")
    blocks = train_matrix.layout.blocks if blocks is None else blocks
    layout, x_train = block_columns(
        train_matrix.x, train_matrix.layout, blocks, np.float32
    )
    # class 0 is up, class 1 is down
    y_train = (np.asarray(train_matrix.labels) != POSITIVE).astype(np.int64)
    _, x_valid = block_columns(valid_matrix.x, valid_matrix.layout, blocks, np.float32)
    x_valid = np.ascontiguousarray(x_valid.T)
    valid_labels = np.asarray(valid_matrix.labels)

    dims = (layout.dimension, *config.hidden, 2)
    params = np.zeros(sum(m * (n + 1) for n, m in zip(dims, dims[1:])), np.float32)
    weights, biases = _views(params, dims)
    for w, draw in zip(weights, _glorot(dims, config.seed)):
        w[...] = draw
    grads = np.empty_like(params)
    grad_w, grad_b = _views(grads, dims)
    best_params = params.copy()
    # the input and each layer of a batch; m rows use the first m * units
    buffers = [np.empty(d * config.batch_size, dtype=np.float32) for d in dims]

    def batch_views(m: int) -> list[np.ndarray]:
        return [buf[: d * m].reshape(d, m) for buf, d in zip(buffers, dims)]

    rng = np.random.default_rng(config.seed)
    n = x_train.shape[0]
    train_losses: list[float] = []
    valid_errors: list[float] = []
    best_error = np.inf
    best_epoch = -1
    since_best = 0
    for epoch in range(config.epochs):
        lr = config.learning_rate * config.decay ** (epoch // config.decay_every)
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            a, *out = batch_views(len(batch))
            np.copyto(a, x_train[batch].T)
            y = y_train[batch]
            loss = _step(weights, biases, a, y, config.l2, grad_w, grad_b, out)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss {loss} at epoch {epoch}, batch start {start}; "
                    f"lower the learning rate"
                )
            grads *= lr
            params -= grads
            epoch_loss += loss * len(batch)
        train_losses.append(epoch_loss / n)
        error = error_rate(_confidences(weights, biases, x_valid), valid_labels)
        valid_errors.append(error)
        if error < best_error:
            best_error = error
            best_epoch = epoch
            np.copyto(best_params, params)
            since_best = 0
        else:
            since_best += 1
            if config.patience and since_best >= config.patience:
                break
    best_weights, best_biases = _views(best_params, dims)
    return MlpModel(
        layer_dims=dims,
        weights=best_weights,
        biases=best_biases,
        layout=layout,
        metadata={
            "seed": config.seed,
            "epochs_run": len(train_losses),
            "best_epoch": best_epoch,
            "train_losses": train_losses,
            "validation_errors": valid_errors,
        },
    )


def save_model(model: MlpModel, path: str | Path) -> None:
    """A blob: dims, layout and metadata in the header, then each layer's w and b."""
    header = {
        "layer_dims": list(model.layer_dims),
        "layout": model.layout.to_dict(),
        "metadata": model.metadata,
    }
    arrays = [a for w, b in zip(model.weights, model.biases) for a in (w, b)]
    write_blob(path, header, arrays)


def _model(header: dict, data: BinaryIO) -> MlpModel:
    dims = tuple(int(d) for d in header["layer_dims"])
    if header.get("layout") is None:
        raise ParseError("header has no feature layout")
    layout = FeatureLayout.from_dict(header["layout"])
    layers = zip(dims, dims[1:])  # (fan_in n, fan_out m): weights (m, n), bias (m,)
    arrays = unpack(data, [s for n, m in layers for s in ((m, n), (m,))])
    return MlpModel(
        layer_dims=dims,
        weights=arrays[0::2],
        biases=arrays[1::2],
        layout=layout,
        metadata=header.get("metadata", {}),
    )


def load_model(path: str | Path) -> MlpModel:
    return read_blob(path, _model)
