"""Feed-forward classifier: ReLU hidden layers, two-node softmax output.

Training is plain mini-batch gradient descent on cross-entropy with
optional L2, a step-decayed learning rate, and model selection by best
validation error. Everything is deterministic in the config seed.

Activations are feature-major, (units, rows), so every layer is one
``w @ a`` product (`_layers`), in training and in scoring alike.

`train_each` fits one model per block set, and `train` is its one-set
case. Training computes in float32. It takes the full train and
validation matrices and only reads them. Sets train in lockstep
groups, in request order, while a group's parameters number at most
`GROUP_PARAMS`; the models share the seed, so they see the same
batches. Each mini-batch decodes its rows once, every column,
straight from the train matrix's packed rows (`FeatureMatrix.decode`)
into a new float32 (columns, rows) array, cast as they are written. A
model whose blocks' columns (`features.block_columns`) are one run of
those reads a row slice of the batch, and any other concatenates its
column runs, so no copy of a block subset's matrix is made. Every
temporary of a step is numpy's own allocation. A group holds plain
float32 arrays: layer 0 one (fan_out, width) array per model, since
each model reads its own columns, and every later layer one (models,
fan_out, fan_in) array, with biases (models, fan_out), so that the
group takes each later layer as one stacked product. A one-model
group's arrays are its model's weights. Each model's float64 Glorot
draw (`_glorot`) is rounded to float32 layer by layer as it is made, so
no float64 copy of a model is held. `_step`, the step a group takes on
each mini-batch, makes one layer's gradient at a time and hands it on
once the error has been carried back through that layer's weights; the
trainer then updates the layer with ``g *= lr; p -= g`` and the
gradient is dropped before the next layer's is made. So a group holds
its parameters, their best-epoch snapshot and one layer's gradient, and
each parameter takes the same update as from a whole-model gradient.
Each model's arithmetic in a stack is its own, so a model trains to the
same bits in a group of any size. A model leaves its group when its
patience runs out or its loss turns non-finite, and the others go on,
gathered by index into new arrays (`_gather`). `_step` computes in the
dtype of the weights it is given, so the tests' gradient oracle runs
the same step on a float64 model in float64. Validation scores one
model at a time, in float32. Final scoring, `predict_batch`, is
float64: it decodes the model's columns of every row as float64, and
numpy upcasts float32 weights exactly against them. The blob stores
float32 weights as ``<f4`` and loads them back as they were, so a
trained model scores the same in memory and loaded back. A loaded
model's weights and biases are views of the one array its blob loads
into (`codec.unpack`).
The last bits of a matrix product depend on the BLAS thread count and on
the orientation of its operands, so a matrix's rows are always scored
whole, never in chunks.

Every model carries the feature layout it was trained on, and
`predict_batch` is the only way a model scores rows: it rejects a matrix
of another layout and returns the confidence p_up - p_down per row. A
row predicts up if and only if its confidence is positive, so ties
predict down; `error_rate` applies that rule to the matrix labels.
Models are saved as `codec` blobs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from .codec import read_blob, unpack, write_blob
from .config import TrainConfig
from .errors import ParseError, PipelineError, TrainingDiverged, ValidationError
from .features import FeatureLayout, FeatureMatrix, block_columns
from .sampling import POSITIVE

# The most float32 parameters of a group of models that train in lockstep
# (`train_each`): 1 MiB of them.
GROUP_PARAMS = 2**18


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
    """Stable softmax (max subtraction) over axis 1 of an array of logits.

    A 2-D array holds one row per sample; a 3-D one, (rows, classes,
    models), one such array per model.
    """
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _layers(
    weights: Sequence, biases: Sequence[np.ndarray], a: np.ndarray | Sequence[np.ndarray]
) -> Iterator[np.ndarray]:
    """Yields each layer's activations, feature-major; the last are the logits.

    ``a`` is (fan_in, rows), and each layer is (units, rows), so a layer
    is ``w @ a``. A stack of models is the same with a leading model
    axis: weights (models, fan_out, fan_in), biases (models, fan_out) and
    activations (models, units, rows). Only its first layer differs,
    since each model reads its own columns: ``weights[0]`` and ``a`` are
    lists, one entry per model, and each model's product is written into
    its slot of the stacked activations.
    """
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        if isinstance(w, list):
            into = np.empty((*b.shape, a[0].shape[1]), np.result_type(w[0], a[0]))
            for w_k, a_k, into_k in zip(w, a, into):
                np.matmul(w_k, a_k, out=into_k)
            a = into
        else:
            a = w @ a
        a += b[..., None]
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
    weights: Sequence,
    biases: Sequence[np.ndarray],
    a: Sequence[np.ndarray],
    y: np.ndarray,
    l2: float,
    apply: Callable[[int, list | np.ndarray, np.ndarray], None],
) -> np.ndarray:
    """Each model's loss on a batch; makes and applies each layer's gradients.

    The models are a stack as `_layers` takes it: ``a`` holds each
    model's (fan_in, rows) columns of the batch, and ``y`` its labels.
    From the last layer back, layer i's gradients are made, shaped as
    the layer's weights and biases, the error is carried back through
    ``weights[i]``, and only then is ``apply(i, grad_w, grad_b)`` called.
    So ``apply`` may update layer i in place, every gradient is still
    that of the weights the batch was scored with, and no more than one
    layer's gradients are held at once. Each model's arithmetic is its
    own: a model steps the same, bit for bit, alone or in a stack of any
    size.
    """
    n = len(y)
    activations = [a, *_layers(weights, biases, a)]
    z = activations[-1]
    cols = np.arange(n)
    # log p(label) = z_label - logsumexp(z); stable via max subtraction
    z_max = z.max(axis=1)
    log_norm = z_max + np.log(np.exp(z - z_max[:, None]).sum(axis=1))
    losses = np.mean(log_norm - z[:, y, cols], axis=1).astype(np.float64)
    if l2 > 0:
        # each model's squared weights, summed layer by layer in the order
        # one model alone sums them, so its loss is the same to the bit
        penalty = np.array([np.sum(w * w) for w in weights[0]], np.float64)
        for w in weights[1:]:
            penalty += np.sum(w * w, axis=(1, 2))
        losses += 0.5 * l2 * penalty
    # the softmax is taken in float64, then rounded to the step's dtype
    delta = np.ascontiguousarray(softmax(z.T).T, dtype=z.dtype)
    delta[:, y, cols] -= 1.0
    delta /= n
    for i in range(len(weights) - 1, -1, -1):
        if i > 0:
            grad_w = delta @ activations[i].mT
            if l2 > 0:
                grad_w += l2 * weights[i]
        else:
            grad_w = [d_k @ a_k.T for d_k, a_k in zip(delta, a)]
            if l2 > 0:
                for g_k, w_k in zip(grad_w, weights[0]):
                    g_k += l2 * w_k
        grad_b = np.sum(delta, axis=2)
        if i > 0:
            delta = weights[i].mT @ delta
            delta *= activations[i] > 0
        apply(i, grad_w, grad_b)
        del grad_w, grad_b
    return losses


def predict_batch(
    model: MlpModel, matrix: FeatureMatrix, blocks: Sequence[str] | None = None
) -> np.ndarray:
    """Confidence p_up - p_down per matrix row; a row predicts up iff it is > 0.

    The model scores the rows' columns of ``blocks``, all of the matrix's
    by default, which are decoded whole as float64; their layout must be
    the model's.
    """
    sub, runs = block_columns(
        matrix.layout, matrix.layout.blocks if blocks is None else blocks
    )
    if model.layout != sub:
        raise ValidationError("model and matrix feature layouts differ")
    x = matrix.decode(np.empty((len(matrix), sub.dimension)), slice(None), runs)
    return _confidences(model.weights, model.biases, x.T)


def error_rate(confidences: np.ndarray, labels: Sequence[str]) -> float:
    """Share of rows whose predicted direction disagrees with the label."""
    truths = np.asarray(labels) == POSITIVE
    return float(np.mean((confidences > 0) != truths))


def _param_count(width: int, tail: Sequence[int]) -> int:
    """How many parameters a model of this input width holds, ``tail`` after."""
    return sum(m * (n + 1) for n, m in zip((width, *tail), tail))


def _member(
    weights: Sequence, biases: Sequence[np.ndarray], k: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Model k's weights and biases, as views of a stack's."""
    return [weights[0][k], *(w[k] for w in weights[1:])], [b[k] for b in biases]


def _gather(
    weights: Sequence, biases: Sequence[np.ndarray], ks: Sequence[int]
) -> tuple[list, list[np.ndarray]]:
    """A stack of models ``ks`` of a stack, in new arrays."""
    return (
        [[weights[0][k].copy() for k in ks], *(w[ks] for w in weights[1:])],
        [b[ks] for b in biases],
    )


def _columns(u: np.ndarray, runs: Sequence[tuple[slice, slice]]) -> np.ndarray:
    """A model's rows of the feature-major ``u``: a row slice of it when its
    columns are one run of ``u``'s, else the runs' rows concatenated."""
    if len(runs) == 1:
        return u[runs[0][0]]
    return np.concatenate([u[src] for src, _ in runs])


@dataclass
class _Training:
    """One model's training in a group: where its columns sit, what it recorded."""

    index: int
    layout: FeatureLayout
    runs: list[tuple[slice, slice]]  # its columns in the matrices' layout
    train_losses: list[float] = field(default_factory=list)
    valid_errors: list[float] = field(default_factory=list)
    best_error: float = np.inf
    best_epoch: int = -1
    since_best: int = 0
    epoch_loss: float = 0.0


def _train_group(
    train_matrix: FeatureMatrix,
    valid_matrix: FeatureMatrix,
    config: TrainConfig,
    layouts: Sequence[FeatureLayout],
) -> list[MlpModel | PipelineError]:
    """`train` for each layout, in order, every model stepping on the same batches.

    Each batch and the validation rows are decoded once, every column of
    them, into a new C-ordered (width, rows) float32 array; the
    orientation of a product's operands sets its last bits, so a batch
    is never a transposed (rows, width) array. Each model takes its
    columns from it (`_columns`). The models step as one stack, as
    `_layers` takes it, and are scored one at a time. A model leaves the
    stack when its patience runs out or its loss turns non-finite, and
    the rest go on.
    """
    width = train_matrix.layout.dimension
    # class 0 is up, class 1 is down
    y_train = (np.asarray(train_matrix.labels) != POSITIVE).astype(np.int64)
    valid_labels = np.asarray(valid_matrix.labels)
    u_valid = np.empty((width, len(valid_matrix)), np.float32)
    valid_matrix.decode(u_valid.T)
    active = [
        _Training(index, layout, block_columns(train_matrix.layout, layout.blocks)[1])
        for index, layout in enumerate(layouts)
    ]
    tail = (*config.hidden, 2)
    # layer 0 is one (fan_out, width) array per model, as each reads its own
    # columns, and every later layer one (models, fan_out, fan_in) array
    weights: list = [
        [], *(np.empty((len(layouts), m, n), np.float32) for n, m in zip(tail, tail[1:]))
    ]
    biases = [np.zeros((len(layouts), m), np.float32) for m in tail]
    for k, t in enumerate(active):
        # each model's float64 Glorot draw is rounded into float32 as it is
        # made, and freed before the next is made
        draws = _glorot((t.layout.dimension, *tail), config.seed)
        weights[0].append(next(draws).astype(np.float32))
        for w in weights[1:]:
            w[k] = next(draws)
    best_w, best_b = _gather(weights, biases, range(len(layouts)))
    results: list[MlpModel | PipelineError | None] = [None] * len(layouts)

    def update(i: int, grad_w: list | np.ndarray, grad_b: np.ndarray) -> None:
        params = zip(weights[0], grad_w) if i == 0 else [(weights[i], grad_w)]
        for p, g in (*params, (biases[i], grad_b)):
            g *= lr
            p -= g

    def leave(gone: Sequence[int]) -> None:
        """Models ``gone`` leave the stack, each with its best epoch unless it
        diverged, and the rest are gathered into new arrays."""
        nonlocal weights, biases, best_w, best_b, active
        ks = [k for k in range(len(active)) if k not in gone]
        for k in gone:
            t = active[k]
            if results[t.index] is None:
                saved_w, saved_b = _member(best_w, best_b, k)
                if ks:
                    # views of the snapshot would hold all of it after the
                    # rest are gathered, so a model that leaves while others
                    # train on takes copies
                    saved_w = [w.copy() for w in saved_w]
                    saved_b = [b.copy() for b in saved_b]
                results[t.index] = MlpModel(
                    layer_dims=(t.layout.dimension, *tail),
                    weights=saved_w,
                    biases=saved_b,
                    layout=t.layout,
                    metadata={
                        "seed": config.seed,
                        "epochs_run": len(t.train_losses),
                        "best_epoch": t.best_epoch,
                        "train_losses": t.train_losses,
                        "validation_errors": t.valid_errors,
                    },
                )
        active = [active[k] for k in ks]
        weights, biases = _gather(weights, biases, ks)
        best_w, best_b = _gather(best_w, best_b, ks)

    rng = np.random.default_rng(config.seed)
    n = len(train_matrix)
    for epoch in range(config.epochs):
        lr = config.learning_rate * config.decay ** (epoch // config.decay_every)
        order = rng.permutation(n)
        for t in active:
            t.epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            m = len(batch)
            u = np.empty((width, m), np.float32)
            train_matrix.decode(u.T, batch)
            a = [_columns(u, t.runs) for t in active]
            losses = _step(weights, biases, a, y_train[batch], config.l2, update)
            diverged = []
            for k, (t, loss) in enumerate(zip(active, losses.tolist())):
                t.epoch_loss += loss * m
                if not math.isfinite(loss):
                    diverged.append(k)
                    results[t.index] = TrainingDiverged(
                        f"non-finite loss {loss} at epoch {epoch}, batch start {start}; "
                        f"lower the learning rate"
                    )
            if diverged:
                leave(diverged)
                if not active:
                    return results
        stopped = []
        for k, t in enumerate(active):
            t.train_losses.append(t.epoch_loss / n)
            x_valid = _columns(u_valid, t.runs)
            # one model scored at a time holds one model's activations
            model_w, model_b = _member(weights, biases, k)
            error = error_rate(_confidences(model_w, model_b, x_valid), valid_labels)
            t.valid_errors.append(error)
            if error < t.best_error:
                t.best_error = error
                t.best_epoch = epoch
                # model k's parameters become its best-epoch snapshot
                for saved, current in zip(_member(best_w, best_b, k), (model_w, model_b)):
                    for dst, src in zip(saved, current):
                        dst[...] = src
                t.since_best = 0
            else:
                t.since_best += 1
                if config.patience and t.since_best >= config.patience:
                    stopped.append(k)
        if stopped:
            leave(stopped)
            if not active:
                return results
    leave(range(len(active)))
    return results


def train_each(
    train_matrix: FeatureMatrix,
    valid_matrix: FeatureMatrix,
    config: TrainConfig,
    block_sets: Sequence[Sequence[str]],
) -> Iterator[MlpModel | PipelineError]:
    """For each block set in turn, what `train` returns or the PipelineError it raises.

    Sets train in lockstep groups, in request order, while a group's
    float32 parameters number at most `GROUP_PARAMS`; a set over it
    trains alone. Every model of a group sees the same batches, as they
    share the seed, so each batch is decoded once and every model steps
    at once (`_step`), each exactly as `train` steps it alone. A group
    trains when its first result is asked for, and nothing of an earlier
    group is held by then but the results the caller still holds.
    """
    members: list[FeatureLayout | PipelineError] = []
    for blocks in block_sets:
        try:
            if len(train_matrix) == 0 or len(valid_matrix) == 0:
                raise ValidationError("train and validation sets must be non-empty")
            if train_matrix.layout != valid_matrix.layout:
                raise ValidationError("train and validation feature layouts differ")
            members.append(block_columns(train_matrix.layout, blocks)[0])
        except PipelineError as exc:
            members.append(exc)
    # Each span is consecutive members; its layouts train as one group.
    tail = (*config.hidden, 2)
    spans: list[list[FeatureLayout | PipelineError]] = [[]]
    total = 0
    for member in members:
        size = 0
        if isinstance(member, FeatureLayout):
            size = _param_count(member.dimension, tail)
        if total and total + size > GROUP_PARAMS:
            spans.append([])
            total = 0
        spans[-1].append(member)
        total += size
    for span in spans:
        layouts = [m for m in span if isinstance(m, FeatureLayout)]
        trained = []
        if layouts:
            trained = _train_group(train_matrix, valid_matrix, config, layouts)[::-1]
        for member in span:
            yield trained.pop() if isinstance(member, FeatureLayout) else member


def train(
    train_matrix: FeatureMatrix, valid_matrix: FeatureMatrix, config: TrainConfig
) -> MlpModel:
    """Fit on every block of the training matrix, selecting the best
    validation-error epoch.

    The model's layout is the matrices'. The matrices are only read: each
    batch casts its rows to float32 as it decodes them. Records per-epoch
    train loss and validation error in model metadata. Raises
    TrainingDiverged on non-finite loss. This is `train_each` of one set.
    """
    (model,) = train_each(train_matrix, valid_matrix, config, [train_matrix.layout.blocks])
    if isinstance(model, PipelineError):
        raise model
    return model


def save_model(model: MlpModel, path: str | Path) -> None:
    """A blob: dims, layout and metadata in the header, then each layer's w
    and b, float32 ones as ``<f4`` (`codec.write_blob`)."""
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
    arrays = unpack(data, header, [s for n, m in layers for s in ((m, n), (m,))])
    if any(a.dtype.kind != "f" for a in arrays):
        raise ValueError("weights and biases must be stored as floats")
    return MlpModel(
        layer_dims=dims,
        weights=arrays[0::2],
        biases=arrays[1::2],
        layout=layout,
        metadata=header.get("metadata", {}),
    )


def load_model(path: str | Path) -> MlpModel:
    """The model `save_model` wrote, its arrays in the dtypes it stored."""
    return read_blob(path, _model)
