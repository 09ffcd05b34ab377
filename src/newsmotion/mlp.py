"""Feed-forward classifier: ReLU hidden layers, two-node softmax output.

Training is plain mini-batch gradient descent on cross-entropy with
optional L2, a step-decayed learning rate, and model selection by best
validation error. Everything is deterministic in the config seed.

`train` computes in float32: it rounds the float64 Glorot draw of `init`
to float32, and `loss_and_gradients` computes in the dtype of the
model's weights, casting each mini-batch as it is drawn. A float64 model
(the gradient oracle's) still runs in float64. Scoring is float64: numpy
upcasts float32 weights exactly against the float64 feature matrix, and
the `<f8` blob holds them exactly, so a trained model scores the same in
memory and loaded back. The last bits of a matrix product depend on the
BLAS thread count.

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
from typing import Sequence

import numpy as np

from .codec import read_blob, unpack, write_blob
from .config import TrainConfig
from .errors import ParseError, TrainingDiverged, ValidationError
from .features import FeatureLayout, FeatureMatrix
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

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def copy_parameters(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        return [w.copy() for w in self.weights], [b.copy() for b in self.biases]


def init(layer_dims: Sequence[int], seed: int, layout: FeatureLayout) -> MlpModel:
    """Glorot-uniform weights, zero biases, deterministic in seed."""
    dims = tuple(int(d) for d in layer_dims)
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        layer_dims=dims,
        weights=weights,
        biases=biases,
        layout=layout,
        metadata={"seed": int(seed)},
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax (max subtraction); accepts 1-D or 2-D input."""
    z = np.asarray(logits, dtype=np.float64)
    squeeze = z.ndim == 1
    if squeeze:
        z = z[None, :]
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    return p[0] if squeeze else p


def _forward_pass(
    model: MlpModel, x: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Returns (pre-activations per layer, activations per layer incl. input)."""
    activations = [x]
    pre = []
    a = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        pre.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        activations.append(a)
    return pre, activations


def loss_and_gradients(
    model: MlpModel, x: np.ndarray, y: np.ndarray, l2: float = 0.0
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean cross-entropy over the batch plus backpropagated gradients.

    y holds class indices (0 = up, 1 = down). With l2 > 0 the loss adds
    l2/2 times the squared Frobenius norm of every weight matrix (biases
    are not penalized). The batch is cast to the dtype of the model's
    weights, and the gradients are returned in that dtype.
    """
    dtype = model.weights[0].dtype
    x = np.asarray(x, dtype=dtype)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValidationError("batch must be a non-empty 2-D array")
    if x.shape[0] != y.shape[0]:
        raise ValidationError("batch inputs and labels have different lengths")
    if x.shape[1] != model.input_dim:
        raise ValidationError(
            f"input dimension {x.shape[1]} != model input {model.input_dim}"
        )
    n = x.shape[0]
    pre, activations = _forward_pass(model, x)
    z_out = pre[-1]
    # log p(label) = z_label - logsumexp(z); stable via max subtraction
    z_max = z_out.max(axis=1, keepdims=True)
    log_norm = z_max[:, 0] + np.log(np.exp(z_out - z_max).sum(axis=1))
    loss = float(np.mean(log_norm - z_out[np.arange(n), y]))
    if l2 > 0:
        loss += 0.5 * l2 * sum(float(np.sum(w * w)) for w in model.weights)

    delta = softmax(z_out).astype(dtype, copy=False)
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grad_w: list[np.ndarray] = [None] * len(model.weights)
    grad_b: list[np.ndarray] = [None] * len(model.weights)
    for i in range(len(model.weights) - 1, -1, -1):
        grad_w[i] = delta.T @ activations[i]
        if l2 > 0:
            grad_w[i] += l2 * model.weights[i]
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i]) * (pre[i - 1] > 0)
    return loss, grad_w, grad_b


def predict_batch(model: MlpModel, matrix: FeatureMatrix) -> np.ndarray:
    """Confidence p_up - p_down per matrix row; a row predicts up iff it is > 0."""
    if model.layout != matrix.layout:
        raise ValidationError("model and matrix feature layouts differ")
    _, activations = _forward_pass(model, matrix.x)
    p = softmax(activations[-1])
    return p[:, 0] - p[:, 1]


def error_rate(confidences: np.ndarray, labels: Sequence[str]) -> float:
    """Share of rows whose predicted direction disagrees with the label."""
    truths = np.asarray(labels) == POSITIVE
    return float(np.mean((confidences > 0) != truths))


def train(
    train_matrix: FeatureMatrix, valid_matrix: FeatureMatrix, config: TrainConfig
) -> MlpModel:
    """Fit on the training matrix, selecting the best validation-error epoch.

    Records per-epoch train loss and validation error in model metadata.
    Raises TrainingDiverged on non-finite loss.
    """
    if len(train_matrix) == 0 or len(valid_matrix) == 0:
        raise ValidationError("train and validation sets must be non-empty")
    if train_matrix.layout != valid_matrix.layout:
        raise ValidationError("train and validation feature layouts differ")
    x_train = train_matrix.x
    # class 0 is up, class 1 is down
    y_train = (np.asarray(train_matrix.labels) != POSITIVE).astype(np.int64)

    dims = (train_matrix.layout.dimension, *config.hidden, 2)
    model = init(dims, config.seed, layout=train_matrix.layout)
    model.weights = [w.astype(np.float32) for w in model.weights]
    model.biases = [b.astype(np.float32) for b in model.biases]
    rng = np.random.default_rng(config.seed)
    n = x_train.shape[0]

    train_losses: list[float] = []
    valid_errors: list[float] = []
    best_error = np.inf
    best_epoch = -1
    best_params = model.copy_parameters()
    since_best = 0
    for epoch in range(config.epochs):
        lr = config.learning_rate * config.decay ** (epoch // config.decay_every)
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grad_w, grad_b = loss_and_gradients(
                model, x_train[batch], y_train[batch], config.l2
            )
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss {loss} at epoch {epoch}, batch start {start}; "
                    f"lower the learning rate"
                )
            for params, grads in ((model.weights, grad_w), (model.biases, grad_b)):
                for p, g in zip(params, grads):
                    g *= lr
                    p -= g
            epoch_loss += loss * len(batch)
        train_losses.append(epoch_loss / n)
        error = error_rate(predict_batch(model, valid_matrix), valid_matrix.labels)
        valid_errors.append(error)
        if error < best_error:
            best_error = error
            best_epoch = epoch
            best_params = model.copy_parameters()
            since_best = 0
        else:
            since_best += 1
            if config.patience and since_best >= config.patience:
                break
    if best_epoch >= 0:
        model.weights, model.biases = best_params
    model.metadata = {
        "seed": config.seed,
        "epochs_run": len(train_losses),
        "best_epoch": best_epoch,
        "train_losses": train_losses,
        "validation_errors": valid_errors,
    }
    return model


def save_model(model: MlpModel, path: str | Path) -> None:
    """A blob: dims, layout and metadata in the header, then each layer's w and b."""
    header = {
        "layer_dims": list(model.layer_dims),
        "layout": model.layout.to_dict(),
        "metadata": model.metadata,
    }
    arrays = [a for w, b in zip(model.weights, model.biases) for a in (w, b)]
    write_blob(path, header, arrays)


def _model(header: dict, data: bytes) -> MlpModel:
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
