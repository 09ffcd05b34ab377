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
straight from the train matrix's packed rows (`FeatureMatrix.decode`),
cast to float32 as they are written into the batch buffer; full
batches are decoded a few at a time, each into a buffer of its own. A model
whose blocks' columns (`features.block_columns`) are one run of those
reads a row slice of the batch, and any other copies its columns out of
it, so no copy of a block subset's rows is made. A group's
weights and biases live in one flat float32 buffer (`_Stack`), each
layer's run holding every model's weights, then every model's biases:
layer 0 one block per model, since each model reads its own columns,
and every later layer one (models, fan_out, fan_in) stack, so that the
group takes each later layer as one stacked product. A one-model group is laid out as its model's
blob. Each model's float64 Glorot draw (`_glorot`) is rounded into the
buffer layer by layer as it is made, so no float64 copy of a model is
held. `_step`, the step a group takes on each mini-batch, writes one
layer's gradient at a time into one buffer the size of the group's
largest layer, and hands it on once the error has been carried back
through that layer's weights; the trainer then updates the layer with
``g *= lr; p -= g``. So a group holds its parameters, their best-epoch
snapshot and one layer's gradient, and each parameter takes the same
update as from a whole-model gradient. Each model's arithmetic in a
stack is its own, so a model trains to the same bits in a group of any
size. A model leaves its group when its patience runs out or its loss
turns non-finite, and the others go on. `_step` computes in the dtype
of the weights it is given, so the tests' gradient oracle runs the same
step on a float64 model in float64. Validation scores one model at a
time, in float32. Final scoring,
`predict_batch`, is float64: it decodes the model's columns of every
row as float64, and numpy upcasts float32 weights exactly against
them. The blob stores float32 weights as ``<f4`` and loads them back as
they were, so a trained model scores the same in memory and loaded
back. A loaded model's weights and biases are views of the one array
its blob loads into (`codec.unpack`).
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
    weights: Sequence,
    biases: Sequence[np.ndarray],
    a: np.ndarray | Sequence[np.ndarray],
    out: Sequence[np.ndarray] | None = None,
) -> Iterator[np.ndarray]:
    """Yields each layer's activations, feature-major; the last are the logits.

    ``a`` is (fan_in, rows), and each layer is (units, rows), so a layer
    is ``w @ a``. A stack of models is the same with a leading model
    axis: weights (models, fan_out, fan_in), biases (models, fan_out) and
    activations (models, units, rows). Only its first layer differs,
    since each model reads its own columns: ``weights[0]`` and ``a`` are
    lists, one entry per model, and each model's product is written into
    its slot of the stacked activations. ``out``, if given, holds one
    buffer per layer to write into.
    """
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        into = None if out is None else out[i]
        if isinstance(w, list):
            if into is None:
                shape = (*b.shape, a[0].shape[1])
                into = np.empty(shape, np.result_type(w[0], a[0]))
            for w_k, a_k, into_k in zip(w, a, into):
                np.matmul(w_k, a_k, out=into_k)
            a = into
        else:
            a = np.matmul(w, a, out=into)
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
    grad_w: Sequence,
    grad_b: Sequence[np.ndarray],
    apply: Callable[[int], None],
    out: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Each model's loss on a batch; writes and applies each layer's gradients.

    The models are a stack as `_layers` takes it: ``a`` holds each
    model's (fan_in, rows) columns of the batch, and ``y`` its labels.
    From the last layer back, layer i's gradients are written into
    ``grad_w[i]`` and ``grad_b[i]``, shaped as the layer's weights and
    biases, the error is carried back through ``weights[i]``, and only
    then is ``apply(i)`` called. So ``apply`` may update layer i in
    place, every gradient is still that of the weights the batch was
    scored with, and the layers' gradient buffers may share memory.
    Each model's arithmetic is its own: a model steps the same, bit for
    bit, alone or in a stack of any size.
    """
    n = len(y)
    activations = [a, *_layers(weights, biases, a, out)]
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
            np.matmul(delta, activations[i].mT, out=grad_w[i])
            if l2 > 0:
                grad_w[i] += l2 * weights[i]
        else:
            for d_k, a_k, g_k, w_k in zip(delta, a, grad_w[0], weights[0]):
                np.matmul(d_k, a_k.T, out=g_k)
                if l2 > 0:
                    g_k += l2 * w_k
        np.sum(delta, axis=2, out=grad_b[i])
        if i > 0:
            delta = weights[i].mT @ delta
            delta *= activations[i] > 0
        apply(i)
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


def _stack_size(widths: Sequence[int], tail: Sequence[int]) -> int:
    """How many parameters models of these input widths hold, ``tail`` after."""
    return sum(m * (n + 1) for width in widths for n, m in zip((width, *tail), tail))


def _stack_views(
    flat: np.ndarray, widths: Sequence[int], tail: Sequence[int], shared: bool = False
) -> tuple[list, list[np.ndarray], list[np.ndarray]]:
    """The weights, biases and layer runs of a stack of models in ``flat``.

    ``widths`` are the models' input widths, and ``tail`` the units of
    every later layer, the same for every model. Layer i's run holds
    every model's weights, then every model's biases, (models, fan_out):
    for layer 0 one (fan_out, fan_in) block per model, as `_layers`
    takes it, and for every later layer one (models, fan_out, fan_in)
    stack. So a one-model stack is laid out as its model's blob. With
    ``shared``, every run starts at the front of ``flat``, as one
    gradient buffer the size of the largest layer holds them.
    """
    m = len(widths)
    weights, biases, runs, at = [], [], [], 0
    for i, fan_out in enumerate(tail):
        start = at = 0 if shared else at
        if i == 0:
            w = []
            for width in widths:
                w.append(flat[at : at + fan_out * width].reshape(fan_out, width))
                at += fan_out * width
        else:
            w = flat[at : at + m * fan_out * tail[i - 1]].reshape(m, fan_out, tail[i - 1])
            at += w.size
        weights.append(w)
        biases.append(flat[at : at + m * fan_out].reshape(m, fan_out))
        at += m * fan_out
        runs.append(flat[start:at])
    return weights, biases, runs


def _member(
    weights: Sequence, biases: Sequence[np.ndarray], k: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Model k's weights and biases, as views of a stack's."""
    return [weights[0][k], *(w[k] for w in weights[1:])], [b[k] for b in biases]


class _Stack:
    """Models that train in lockstep: their float32 parameters, best-epoch
    snapshot and one layer's gradient.

    The parameters and the snapshot are each laid out as `_stack_views`
    says, from the front of one flat buffer, and layer i's gradient takes
    the front of one buffer the size of the largest layer, in the same
    order, so that ``g *= lr; p -= g`` over layer i's runs updates every
    model's layer i. The buffers are made once; models that leave free
    no memory, and the rest move to the front of the same buffers.
    """

    def __init__(self, widths: Sequence[int], tail: Sequence[int], seed: int):
        self.tail = tuple(tail)
        self.params = np.zeros(_stack_size(widths, tail), np.float32)
        weights, biases, layers = _stack_views(self.params, widths, tail)
        for k, width in enumerate(widths):
            # each model's float64 Glorot draw is rounded into float32 as it
            # is made, and freed before the next is made
            draws = _glorot((width, *tail), seed)
            for w in _member(weights, biases, k)[0]:
                w[...] = next(draws)
        # the gradient is made before the snapshot: in the other order the
        # heap fragments more, and a run of one-model groups (the ablation at
        # 4x512) peaks about 1 MB higher in RSS
        self.grad = np.empty(max(map(len, layers)), np.float32)
        self.best = self.params.copy()
        self._view(widths)

    def _view(self, widths: Sequence[int]) -> None:
        self.widths = list(widths)
        size = _stack_size(widths, self.tail)
        views = _stack_views(self.params[:size], widths, self.tail)
        self.weights, self.biases, self.layers = views
        self.best_views = _stack_views(self.best[:size], widths, self.tail)[:2]
        self.grad_w, self.grad_b, self.grads = _stack_views(
            self.grad, widths, self.tail, True
        )

    def snapshot(self, k: int) -> None:
        """Model k's parameters become its best-epoch snapshot."""
        saved = _member(*self.best_views, k)
        current = _member(self.weights, self.biases, k)
        for dst, src in zip(saved[0] + saved[1], current[0] + current[1]):
            np.copyto(dst, src)

    def keep(self, ks: Sequence[int]) -> None:
        """Keeps models ``ks`` only, moved to the front of the buffers.

        Layer by layer, a kept model's weights and biases move to a lower
        address or stay, so a run is moved, in address order, before any
        move lands on it; each stacked run is gathered before it is
        written.
        """
        moved = ((self.weights, self.biases), self.best_views)
        self._view([self.widths[k] for k in ks])
        for (dst_w, dst_b), (src_w, src_b) in zip(
            ((self.weights, self.biases), self.best_views), moved
        ):
            for i in range(len(self.tail)):
                if i == 0:
                    for j, k in enumerate(ks):
                        np.copyto(dst_w[0][j], src_w[0][k])
                else:
                    dst_w[i][...] = src_w[i][ks]
                dst_b[i][...] = src_b[i][ks]


def _columns(
    u: np.ndarray, runs: Sequence[tuple[slice, slice]], buffer: np.ndarray | None
) -> np.ndarray:
    """A model's rows of the feature-major ``u``: a row slice of it when its
    columns are one run of ``u``'s, else a copy into the front of ``buffer``."""
    if len(runs) == 1:
        return u[runs[0][0]]
    out = buffer[: runs[-1][1].stop * u.shape[1]].reshape(-1, u.shape[1])
    for src, dst in runs:
        np.copyto(out[dst], u[src])
    return out


@dataclass
class _Training:
    """One model's training in a group: where its columns sit, what it recorded."""

    index: int
    layout: FeatureLayout
    runs: list[tuple[slice, slice]]  # its columns in the matrices' layout
    buffer: np.ndarray | None  # a batch of its columns, when they are not one run
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
    them; the models step as one `_Stack` and are scored one at a time. A model leaves the stack when its patience runs
    out or its loss turns non-finite, and the rest go on.
    """
    width = train_matrix.layout.dimension
    # class 0 is up, class 1 is down
    y_train = (np.asarray(train_matrix.labels) != POSITIVE).astype(np.int64)
    valid_labels = np.asarray(valid_matrix.labels)
    nv = len(valid_matrix)
    u_valid = np.empty((width, nv), dtype=np.float32)
    valid_matrix.decode(u_valid.T)
    # no batch has more rows than the training matrix; m rows use the
    # first m * units of each buffer
    rows = min(config.batch_size, len(train_matrix))
    active, copied = [], [0]
    for index, layout in enumerate(layouts):
        runs = block_columns(train_matrix.layout, layout.blocks)[1]
        buffer = None
        if len(runs) > 1:
            buffer = np.empty(layout.dimension * rows, np.float32)
            copied.append(layout.dimension)
        active.append(_Training(index, layout, runs, buffer))
    tail = (*config.hidden, 2)
    stack = _Stack([t.layout.dimension for t in active], tail, config.seed)
    # Full batches are decoded `ahead` at a time, each into its own
    # (width, rows) slot, as many as one `FeatureMatrix.decode` pass takes;
    # a short last batch is decoded alone into the front of the first slot.
    ahead = max(1, min(train_matrix.rows_per_decode, len(train_matrix)) // rows)
    slots = np.empty((ahead, width, rows), dtype=np.float32)
    batch_out = [np.empty(len(active) * d * rows, np.float32) for d in tail]
    # Each model's validation columns are copied into this buffer, when
    # they are not one run, just before that model scores them.
    valid_copy = np.empty(max(copied) * nv, np.float32)
    results: list[MlpModel | PipelineError | None] = [None] * len(layouts)

    def update(i: int) -> None:
        g = stack.grads[i]
        g *= lr
        stack.layers[i] -= g

    def leave(gone: Sequence[int]) -> None:
        """Models ``gone`` leave the stack, each with its best epoch unless it
        diverged; its weights stay views of the snapshot it left."""
        nonlocal stack, active
        ks = [k for k in range(len(active)) if k not in gone]
        for k in gone:
            t = active[k]
            if results[t.index] is None:
                weights, biases = _member(*stack.best_views, k)
                if ks:
                    # the snapshot moves when the stack shrinks, so a model
                    # that leaves while others train on takes its own copy
                    weights = [w.copy() for w in weights]
                    biases = [b.copy() for b in biases]
                results[t.index] = MlpModel(
                    layer_dims=(t.layout.dimension, *tail),
                    weights=weights,
                    biases=biases,
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
        if ks:
            stack.keep(ks)

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
            slot = start // config.batch_size % ahead
            if m < rows:
                u = slots[0].reshape(-1)[: width * m].reshape(width, m)
                train_matrix.decode(u.T, batch)
            else:
                if slot == 0:
                    k = min(ahead, (n - start) // rows)
                    decoded = order[start : start + k * rows]
                    train_matrix.decode(slots[:k].transpose(0, 2, 1), decoded)
                u = slots[slot]
            a = [_columns(u, t.runs, t.buffer) for t in active]
            out = [
                buf[: len(active) * d * m].reshape(len(active), d, m)
                for buf, d in zip(batch_out, tail)
            ]
            losses = _step(
                stack.weights, stack.biases, a, y_train[batch], config.l2,
                stack.grad_w, stack.grad_b, update, out,
            )
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
            x_valid = _columns(u_valid, t.runs, valid_copy)
            # one model scored at a time holds one model's activations
            weights, biases = _member(stack.weights, stack.biases, k)
            error = error_rate(_confidences(weights, biases, x_valid), valid_labels)
            t.valid_errors.append(error)
            if error < t.best_error:
                t.best_error = error
                t.best_epoch = epoch
                stack.snapshot(k)
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
    at once (`_Stack`), each exactly as `train` steps it alone. A group
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
            size = _stack_size([member.dimension], tail)
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
    train_matrix: FeatureMatrix,
    valid_matrix: FeatureMatrix,
    config: TrainConfig,
    blocks: Sequence[str] | None = None,
) -> MlpModel:
    """Fit on the training matrix, selecting the best validation-error epoch.

    ``blocks`` names the feature blocks to train on, all of the matrices'
    by default; the model's layout is theirs. The matrices are only
    read: each batch casts its rows' columns of those blocks to float32
    as it decodes them. Records per-epoch train loss and validation
    error in model metadata. Raises TrainingDiverged on non-finite loss.
    This is `train_each` of one set.
    """
    blocks = train_matrix.layout.blocks if blocks is None else blocks
    (model,) = train_each(train_matrix, valid_matrix, config, [blocks])
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
