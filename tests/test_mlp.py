"""Tests for the feed-forward classifier and its training loop."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from datetime import date, timedelta

import numpy as np
import pytest

from newsmotion import mlp
from newsmotion.config import TrainConfig
from newsmotion.evaluation import DEFAULT_COMBINATIONS
from newsmotion.errors import TrainingDiverged, ValidationError, ParseError
from newsmotion.features import (
    BLOCK_ORDER,
    FeatureLayout,
    FeatureMatrix,
    block_columns,
    load_feature_matrix,
    write_feature_matrix,
)
from newsmotion.graph import DOWN, UP
from newsmotion.mlp import (
    GROUP_PARAMS,
    MlpModel,
    _confidences,
    _layers,
    _stack_size,
    error_rate,
    load_model,
    predict_batch,
    save_model,
    softmax,
    train,
    train_each,
)
from newsmotion.sampling import NEGATIVE, POSITIVE

from support import (
    child_env,
    dense,
    init,
    loss_and_gradients,
    packed,
    sliced,
    traced_peak,
)

DAY = date(2012, 3, 5)


def forward(model: MlpModel, x: np.ndarray) -> tuple[float, float]:
    """Probabilities (p_up, p_down) for one feature vector, layer by layer."""
    a = np.asarray(x, dtype=np.float64)
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = w @ a + b
        if i < last:
            a = np.maximum(a, 0.0)
    ((p_up, p_down),) = softmax(a[None, :])
    return float(p_up), float(p_down)


def predict(model: MlpModel, x: np.ndarray) -> tuple[str, float]:
    """Predicted direction and confidence p_up - p_down; ties predict down."""
    p_up, p_down = forward(model, x)
    label = UP if p_up > p_down else DOWN
    return label, p_up - p_down


def _layout(dim: int) -> FeatureLayout:
    return FeatureLayout(blocks=("ct",), k=0, n_categories=dim)


def _matrix(x: np.ndarray, labels: list[str] | None = None) -> FeatureMatrix:
    n = x.shape[0]
    return packed(
        _layout(x.shape[1]),
        [f"T{i}" for i in range(n)],
        [DAY + timedelta(days=i) for i in range(n)],
        [POSITIVE] * n if labels is None else labels,
        x,
    )


def _separable(n: int, dim: int, seed: int) -> FeatureMatrix:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim))
    x[:, 0] = np.where(x[:, 0] >= 0, x[:, 0] + 0.5, x[:, 0] - 0.5)
    labels = [POSITIVE if v > 0 else NEGATIVE for v in x[:, 0]]
    return _matrix(x, labels)


def _longest_stall(errors: list[float]) -> int:
    """Most epochs in a row without a strictly lower validation error."""
    best, run, longest = math.inf, 0, 0
    for error in errors:
        run = 0 if error < best else run + 1
        best, longest = min(best, error), max(longest, run)
    return longest


def _all_blocks(n: int, seed: int) -> FeatureMatrix:
    """Every block, k = 3 and 2 categories; the first price column carries the label."""
    rng = np.random.default_rng(seed)
    layout = FeatureLayout(BLOCK_ORDER, k=3, n_categories=2)
    x = rng.normal(size=(n, layout.dimension))
    labels = [POSITIVE if v > 0 else NEGATIVE for v in x[:, 0] + 0.5 * x[:, 1]]
    return packed(
        layout,
        [f"T{i}" for i in range(n)],
        [DAY + timedelta(days=i) for i in range(n)],
        labels,
        x,
    )


def _reference_train(
    train_m: FeatureMatrix,
    valid_m: FeatureMatrix,
    config: TrainConfig,
    blocks: tuple[str, ...],
) -> MlpModel:
    """`train` with a whole-model step: every layer's gradient of a batch
    from `loss_and_gradients`, then one ``g *= lr; p -= g`` over one
    buffer of every parameter. Rows are the blocks' columns, decoded dense."""
    train_m, valid_m = sliced(train_m, blocks), sliced(valid_m, blocks)
    x_train = dense(train_m)
    dims = (train_m.layout.dimension, *config.hidden, 2)
    model = init(dims, config.seed, train_m.layout)
    layers = [p for w, b in zip(model.weights, model.biases) for p in (w, b)]
    shapes = [p.shape for p in layers]
    params = np.concatenate([p.ravel() for p in layers]).astype(np.float32)
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    views = [v.reshape(s) for v, s in zip(np.split(params, ends[:-1]), shapes)]
    model.weights, model.biases = views[0::2], views[1::2]
    grads = np.empty_like(params)
    y = (np.asarray(train_m.labels) != POSITIVE).astype(np.int64)
    x_valid = np.ascontiguousarray(dense(valid_m).T, dtype=np.float32)
    rng = np.random.default_rng(config.seed)
    best, best_error, best_epoch, since_best = params.copy(), math.inf, -1, 0
    losses, errors = [], []
    for epoch in range(config.epochs):
        lr = config.learning_rate * config.decay ** (epoch // config.decay_every)
        order = rng.permutation(len(train_m))
        total = 0.0
        for start in range(0, len(train_m), config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grad_w, grad_b = loss_and_gradients(
                model, x_train[batch], y[batch], config.l2
            )
            parts = [g.ravel() for gw, gb in zip(grad_w, grad_b) for g in (gw, gb)]
            np.concatenate(parts, out=grads)
            grads *= lr
            params -= grads
            total += loss * len(batch)
        losses.append(total / len(train_m))
        confidences = _confidences(model.weights, model.biases, x_valid)
        errors.append(error_rate(confidences, valid_m.labels))
        if errors[-1] < best_error:
            best_error, best_epoch, since_best = errors[-1], epoch, 0
            np.copyto(best, params)
        else:
            since_best += 1
            if config.patience and since_best >= config.patience:
                break
    np.copyto(params, best)
    model.metadata = {
        "seed": config.seed,
        "epochs_run": len(losses),
        "best_epoch": best_epoch,
        "train_losses": losses,
        "validation_errors": errors,
    }
    return model


def _zero_model(dims: tuple[int, ...]) -> MlpModel:
    weights = [np.zeros((dims[i + 1], dims[i])) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    return MlpModel(
        layer_dims=dims, weights=weights, biases=biases, layout=_layout(dims[0])
    )


class TestInit:
    def test_shapes_and_zero_biases(self):
        model = init([5, 7, 2], seed=3, layout=_layout(5))
        assert model.layer_dims == (5, 7, 2)
        assert model.weights[0].shape == (7, 5)
        assert model.weights[1].shape == (2, 7)
        assert all(np.all(b == 0.0) for b in model.biases)

    def test_weights_stay_inside_the_glorot_bound(self):
        model = init([9, 6, 2], seed=4, layout=_layout(9))
        for w, (fan_out, fan_in) in zip(model.weights, [(6, 9), (2, 6)]):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= limit)

    def test_deterministic_in_seed(self):
        a = init([4, 3, 2], seed=11, layout=_layout(4))
        b = init([4, 3, 2], seed=11, layout=_layout(4))
        c = init([4, 3, 2], seed=12, layout=_layout(4))
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert any(not np.array_equal(x, y) for x, y in zip(a.weights, c.weights))

    def test_bad_dims_rejected(self):
        with pytest.raises(ValidationError):
            init([5], seed=1, layout=_layout(5))
        with pytest.raises(ValidationError):
            init([5, 3], seed=1, layout=_layout(5))
        with pytest.raises(ValidationError):
            init([5, 0, 2], seed=1, layout=_layout(5))
        with pytest.raises(ValidationError, match="layout"):
            init([5, 3, 2], seed=1, layout=_layout(4))


class TestSoftmax:
    def test_rows_sum_to_one_even_with_extreme_logits(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = rng.uniform(-700.0, 700.0, size=(rng.integers(1, 8), 2))
            p = softmax(z)
            assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-12)
            assert np.all(p >= 0.0)

    def test_equal_logits_split_evenly(self):
        assert softmax(np.array([[0.0, 0.0]])).tolist() == [[0.5, 0.5]]

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            z = rng.normal(size=(1, 4))
            shift = float(rng.uniform(-50.0, 50.0))
            assert np.allclose(softmax(z), softmax(z + shift), atol=1e-12)


class TestLossAndGradients:
    def test_zero_logits_give_log_two_loss(self):
        model = _zero_model((3, 2))
        loss, _, _ = loss_and_gradients(model, np.ones((4, 3)), np.array([0, 1, 0, 1]))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def _numeric_check(self, dims: tuple[int, ...], l2: float, seed: int) -> float:
        rng = np.random.default_rng(seed)
        model = init(dims, seed=seed, layout=_layout(dims[0]))
        for b in model.biases:
            b += rng.normal(scale=0.1, size=b.shape)
        x = rng.normal(size=(6, dims[0]))
        y = rng.integers(0, 2, size=6)
        _, grad_w, grad_b = loss_and_gradients(model, x, y, l2)
        eps = 1e-5
        worst = 0.0
        for params, grads in ((model.weights, grad_w), (model.biases, grad_b)):
            for arr, grad in zip(params, grads):
                flat = arr.ravel()
                for idx in range(flat.size):
                    original = flat[idx]
                    flat[idx] = original + eps
                    up, _, _ = loss_and_gradients(model, x, y, l2)
                    flat[idx] = original - eps
                    down, _, _ = loss_and_gradients(model, x, y, l2)
                    flat[idx] = original
                    numeric = (up - down) / (2 * eps)
                    analytic = grad.ravel()[idx]
                    scale = max(abs(numeric), abs(analytic), 1e-8)
                    worst = max(worst, abs(numeric - analytic) / scale)
        return worst

    def test_gradients_match_central_differences(self):
        assert self._numeric_check((4, 5, 2), l2=0.0, seed=31) < 1e-5

    def test_gradients_match_central_differences_with_l2(self):
        assert self._numeric_check((3, 4, 2), l2=0.05, seed=32) < 1e-5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_step_gradients_match_central_differences_in_either_dtype(self, dtype):
        # the model of the given dtype takes the step; the differences are
        # taken in float64 on the same (float32-exact) parameter values
        dims, l2 = (5, 6, 4, 2), 0.05
        rng = np.random.default_rng(34)
        exact = init(dims, seed=34, layout=_layout(dims[0]))
        exact.weights = [w.astype(dtype).astype(np.float64) for w in exact.weights]
        exact.biases = [
            rng.normal(scale=0.1, size=b.shape).astype(dtype).astype(np.float64)
            for b in exact.biases
        ]
        model = MlpModel(
            layer_dims=dims,
            weights=[w.astype(dtype) for w in exact.weights],
            biases=[b.astype(dtype) for b in exact.biases],
            layout=exact.layout,
        )
        x = rng.normal(size=(7, dims[0])).astype(dtype).astype(np.float64)
        y = rng.integers(0, 2, size=7)
        _, grad_w, grad_b = loss_and_gradients(model, x, y, l2)
        eps = 1e-6
        for params, grads in ((exact.weights, grad_w), (exact.biases, grad_b)):
            for arr, grad in zip(params, grads):
                assert grad.dtype == dtype
                numeric = np.empty(arr.shape)
                flat = arr.ravel()
                for idx in range(flat.size):
                    original = flat[idx]
                    flat[idx] = original + eps
                    up, _, _ = loss_and_gradients(exact, x, y, l2)
                    flat[idx] = original - eps
                    down, _, _ = loss_and_gradients(exact, x, y, l2)
                    flat[idx] = original
                    numeric.ravel()[idx] = (up - down) / (2 * eps)
                scale = float(np.abs(numeric).max())
                tolerance = 1e-4 if dtype == np.float32 else 1e-7
                assert float(np.abs(grad - numeric).max()) <= tolerance * scale

    def test_l2_penalizes_weights_but_not_biases(self):
        model = init([3, 4, 2], seed=5, layout=_layout(3))
        for b in model.biases:
            b += 1.0
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 3))
        y = rng.integers(0, 2, size=5)
        plain, _, _ = loss_and_gradients(model, x, y, 0.0)
        penalized, _, _ = loss_and_gradients(model, x, y, 0.1)
        expected = 0.05 * sum(float(np.sum(w * w)) for w in model.weights)
        assert penalized - plain == pytest.approx(expected, abs=1e-12)

    def test_inactive_relu_unit_gets_no_gradient(self):
        model = _zero_model((1, 1, 2))
        model.weights[0][0, 0] = -1.0
        model.weights[1][:, 0] = [1.0, -1.0]
        x = np.array([[2.0], [3.0]])
        _, grad_w, _ = loss_and_gradients(model, x, np.array([0, 1]))
        assert np.all(grad_w[0] == 0.0)

    @pytest.mark.parametrize("dims", [(5, 7, 2), (12, 16, 16, 2)])
    def test_gradients_take_the_dtype_of_the_weights(self, dims):
        rng = np.random.default_rng(len(dims))
        model = init(dims, seed=33, layout=_layout(dims[0]))
        x = rng.normal(size=(6, dims[0]))
        y = rng.integers(0, 2, size=6)
        _, grad_w, grad_b = loss_and_gradients(model, x, y, l2=0.01)
        assert all(g.dtype == np.float64 for g in (*grad_w, *grad_b))
        model.weights = [w.astype(np.float32) for w in model.weights]
        model.biases = [b.astype(np.float32) for b in model.biases]
        _, grad_w32, grad_b32 = loss_and_gradients(model, x, y, l2=0.01)
        assert all(g.dtype == np.float32 for g in (*grad_w32, *grad_b32))
        for g32, g64 in zip((*grad_w32, *grad_b32), (*grad_w, *grad_b)):
            scale = max(float(np.abs(g64).max()), 1e-8)
            assert float(np.abs(g32 - g64).max()) / scale < 1e-3

    def test_bad_batches_rejected(self):
        model = _zero_model((3, 2))
        with pytest.raises(ValidationError):
            loss_and_gradients(model, np.zeros((0, 3)), np.array([], dtype=int))
        with pytest.raises(ValidationError):
            loss_and_gradients(model, np.zeros((2, 3)), np.array([0]))
        with pytest.raises(ValidationError):
            loss_and_gradients(model, np.zeros((2, 4)), np.array([0, 1]))


class TestTrain:
    def test_separable_data_reaches_zero_training_error(self):
        matrix = _separable(120, 3, seed=41)
        config = TrainConfig(
            hidden=(8,), learning_rate=0.5, batch_size=16, epochs=40, seed=2
        )
        model = train(matrix, matrix, config)
        predicted = (predict_batch(model, matrix) > 0).tolist()
        assert predicted == [label == POSITIVE for label in matrix.labels]

    def test_zero_epochs_returns_initial_parameters(self):
        matrix = _separable(30, 3, seed=42)
        config = TrainConfig(hidden=(4,), epochs=0, seed=9)
        model = train(matrix, matrix, config)
        fresh = init((3, 4, 2), seed=9, layout=_layout(3))
        # training starts from the float64 Glorot draw rounded to float32
        for w, f in zip(model.weights, fresh.weights):
            assert np.array_equal(w, f.astype(np.float32))
        assert model.metadata["epochs_run"] == 0
        assert model.metadata["best_epoch"] == -1

    def test_restored_model_matches_best_validation_epoch(self):
        train_m = _separable(150, 4, seed=43)
        valid_m = _separable(60, 4, seed=44)
        config = TrainConfig(
            hidden=(6,), learning_rate=0.3, batch_size=32, epochs=15, seed=3
        )
        model = train(train_m, valid_m, config)
        errors = model.metadata["validation_errors"]
        best = model.metadata["best_epoch"]
        assert errors[best] == min(errors)
        predicted = [predict(model, x)[0] for x in dense(valid_m)]
        expected = [UP if label == POSITIVE else DOWN for label in valid_m.labels]
        mismatches = sum(p != e for p, e in zip(predicted, expected))
        assert mismatches / len(valid_m) == errors[best]

    def test_patience_stops_after_stalled_epochs(self):
        matrix = _separable(40, 3, seed=45)
        config = TrainConfig(
            hidden=(4,), learning_rate=1e-12, epochs=50, patience=2, seed=4
        )
        model = train(matrix, matrix, config)
        assert model.metadata["epochs_run"] == 3

    def test_zero_patience_runs_every_epoch(self):
        matrix = _separable(40, 3, seed=45)
        config = TrainConfig(
            hidden=(4,), learning_rate=1e-12, epochs=50, patience=0, seed=4
        )
        model = train(matrix, matrix, config)
        # the vanishing rate never improves on the first epoch's error
        assert model.metadata["best_epoch"] == 0
        assert model.metadata["epochs_run"] == 50

    def test_default_patience_keeps_the_best_epoch_of_a_full_run(self):
        train_m = _separable(120, 4, seed=66)
        noisy = _separable(60, 4, seed=86)
        flip = np.random.default_rng(6).random(60) < 0.2
        labels = [
            (NEGATIVE if label == POSITIVE else POSITIVE) if f else label
            for label, f in zip(noisy.labels, flip)
        ]
        valid_m = _matrix(dense(noisy), labels)
        settings = dict(
            hidden=(6,), learning_rate=0.2, batch_size=16, epochs=30, seed=6
        )
        full = train(train_m, valid_m, TrainConfig(patience=0, **settings))
        short = train(train_m, valid_m, TrainConfig(**settings))
        assert TrainConfig().patience == 8
        best = full.metadata["best_epoch"]
        assert _longest_stall(full.metadata["validation_errors"][: best + 1]) < 8
        run = short.metadata["epochs_run"]
        assert run == best + 9 < full.metadata["epochs_run"] == 30
        assert short.metadata["best_epoch"] == best
        for key in ("train_losses", "validation_errors"):
            assert short.metadata[key] == full.metadata[key][:run]
        for a, b in zip(full.weights + full.biases, short.weights + short.biases):
            assert np.array_equal(a, b)

    def test_training_replays_the_gradient_step_batch_by_batch(self):
        # 70 rows in batches of 16 leave a last batch of 6
        train_m = _separable(70, 5, seed=67)
        valid_m = _separable(30, 5, seed=68)
        config = TrainConfig(
            hidden=(6, 4), learning_rate=0.3, batch_size=16, epochs=6,
            l2=0.01, patience=0, seed=8,
        )
        assert len(train_m) % config.batch_size != 0
        model = train(train_m, valid_m, config)

        replay = init((5, 6, 4, 2), seed=config.seed, layout=train_m.layout)
        params = [p.astype(np.float32) for p in (*replay.weights, *replay.biases)]
        replay.weights, replay.biases = params[:3], params[3:]
        x_train = dense(train_m)
        y = (np.asarray(train_m.labels) != POSITIVE).astype(np.int64)
        rng = np.random.default_rng(config.seed)
        losses, errors, snapshots = [], [], []
        for epoch in range(config.epochs):
            lr = config.learning_rate * config.decay ** (epoch // config.decay_every)
            order = rng.permutation(len(train_m))
            total = 0.0
            for start in range(0, len(train_m), config.batch_size):
                batch = order[start : start + config.batch_size]
                loss, grad_w, grad_b = loss_and_gradients(
                    replay, x_train[batch], y[batch], config.l2
                )
                for p, g in zip(params, (*grad_w, *grad_b)):
                    p -= lr * g
                total += loss * len(batch)
            losses.append(total / len(train_m))
            errors.append(error_rate(predict_batch(replay, valid_m), valid_m.labels))
            snapshots.append([p.copy() for p in params])

        assert model.metadata["train_losses"] == losses
        assert model.metadata["validation_errors"] == errors
        best = snapshots[model.metadata["best_epoch"]]
        for got, want in zip((*model.weights, *model.biases), best):
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes()

    def test_divergence_raises_instead_of_returning_garbage(self):
        base = _separable(60, 3, seed=46)
        matrix = _matrix(dense(base) * 1e150, base.labels)
        config = TrainConfig(hidden=(8,), learning_rate=10.0, epochs=10, seed=5)
        with pytest.raises(TrainingDiverged):
            with np.errstate(over="ignore", invalid="ignore"):
                train(matrix, matrix, config)

    def test_peak_holds_no_float64_copy_of_the_weights(self):
        matrix = _separable(8, 64, seed=50)
        config = TrainConfig(hidden=(20000,), batch_size=4, epochs=1, seed=6)
        dims = (64, 20000, 2)
        n_params = sum(m * (n + 1) for n, m in zip(dims, dims[1:]))
        _, peak = traced_peak(lambda: train(matrix, matrix, config))
        # The float32 parameters, gradients and best-epoch snapshot take
        # 12 bytes per parameter; 4 more cover the activations and the
        # rest. A float64 copy of the weights (8 bytes each) does not fit.
        assert peak < 16 * n_params

    @pytest.mark.parametrize("l2", [0.0, 0.02])
    @pytest.mark.parametrize("blocks", [BLOCK_ORDER, ("price", "ps", "ct")])
    def test_training_saves_the_bytes_of_a_whole_buffer_step(
        self, tmp_path, l2, blocks
    ):
        # 70 rows in batches of 16 leave a last batch of 6; patience 3
        # stops the run early
        train_m = _all_blocks(70, seed=90)
        valid_m = _all_blocks(40, seed=91)
        config = TrainConfig(
            hidden=(7, 6, 5), learning_rate=0.4, batch_size=16, epochs=25,
            decay_every=4, l2=l2, patience=3, seed=11,
        )
        paths = [tmp_path / "train.bin", tmp_path / "reference.bin"]
        model = train(train_m, valid_m, config, blocks)
        assert model.metadata["epochs_run"] < config.epochs
        save_model(model, paths[0])
        save_model(_reference_train(train_m, valid_m, config, blocks), paths[1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_peak_holds_one_layer_of_gradients(self):
        matrix = _separable(8, 64, seed=51)
        config = TrainConfig(hidden=(1000, 1000, 1000), batch_size=4, epochs=1, seed=7)
        dims = (64, 1000, 1000, 1000, 2)
        sizes = [m * (n + 1) for n, m in zip(dims, dims[1:])]
        _, peak = traced_peak(lambda: train(matrix, matrix, config))
        # The float32 parameters and best-epoch snapshot take 8 bytes per
        # parameter, and the gradient 4 per parameter of the largest
        # layer; 1 MiB covers the activations, the rows and the rest. A
        # whole-model gradient (4 bytes per parameter, 4.3 MB more here)
        # does not fit, nor do two float64 Glorot draws held at once.
        assert peak < 4 * (2 * sum(sizes) + max(sizes)) + 2**20

    def test_batch_buffers_hold_at_most_the_training_rows(self):
        matrix = _separable(40, 64, seed=52)
        runs = {}
        for batch_size in (40, 20000):
            config = TrainConfig(hidden=(512,), batch_size=batch_size, epochs=1, seed=8)
            runs[batch_size] = traced_peak(lambda: train(matrix, matrix, config))
        (exact, exact_peak), (large, large_peak) = runs[40], runs[20000]
        # Both run the same one batch; buffers for 20000 rows of 578 units
        # would take 46 MB more.
        for p, q in zip((*exact.weights, *exact.biases), (*large.weights, *large.biases)):
            assert p.tobytes() == q.tobytes()
        assert large_peak < 1.1 * exact_peak

    def test_mismatched_layouts_rejected(self):
        a = _separable(20, 3, seed=47)
        b = _separable(20, 4, seed=48)
        with pytest.raises(ValidationError, match="layout"):
            train(a, b, TrainConfig(hidden=(4,), epochs=1))

    def test_empty_split_rejected(self):
        matrix = _separable(20, 3, seed=49)
        empty = _matrix(np.zeros((0, 3)))
        with pytest.raises(ValidationError):
            train(empty, matrix, TrainConfig(hidden=(4,), epochs=1))


class TestPredict:
    def test_tie_predicts_down_with_zero_confidence(self):
        model = _zero_model((3, 2))
        label, confidence = predict(model, np.ones(3))
        assert label == DOWN
        assert confidence == 0.0

    def test_confidence_is_probability_gap(self):
        model = init([4, 5, 2], seed=51, layout=_layout(4))
        rng = np.random.default_rng(52)
        x = rng.normal(size=4)
        label, confidence = predict(model, x)
        p_up, p_down = forward(model, x)
        assert confidence == p_up - p_down
        assert label == (UP if p_up > p_down else DOWN)

    def test_batch_agrees_with_single_predictions(self):
        model = init([4, 6, 2], seed=53, layout=_layout(4))
        rng = np.random.default_rng(54)
        matrix = _matrix(rng.normal(size=(25, 4)))
        confidences = predict_batch(model, matrix)
        for i in range(len(matrix)):
            label, confidence = predict(model, dense(matrix)[i])
            assert (UP if confidences[i] > 0 else DOWN) == label
            assert abs(confidences[i] - confidence) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_is_a_softmax_over_the_training_forward_pass(self, dtype):
        model = init([7, 16, 16, 16, 2], seed=56, layout=_layout(7))
        model.weights = [w.astype(dtype) for w in model.weights]
        model.biases = [(b + 0.01).astype(dtype) for b in model.biases]
        matrix = _matrix(np.random.default_rng(57).normal(size=(40, 7)))
        *_, logits = _layers(model.weights, model.biases, dense(matrix).T)
        p = softmax(logits.T)
        expected = p[:, 0] - p[:, 1]
        assert predict_batch(model, matrix).tobytes() == expected.tobytes()

    def test_wrong_input_dimension_rejected(self):
        model = init([4, 5, 2], seed=55, layout=_layout(4))
        with pytest.raises(ValidationError, match="layouts differ"):
            predict_batch(model, _matrix(np.ones((2, 3))))


class TestModelFile:
    def test_round_trip_preserves_predictions_exactly(self, tmp_path):
        matrix = _separable(80, 3, seed=61)
        config = TrainConfig(hidden=(6,), learning_rate=0.3, epochs=5, seed=6)
        model = train(matrix, matrix, config)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.layer_dims == model.layer_dims
        assert loaded.layout == model.layout
        assert loaded.metadata == model.metadata
        original = predict_batch(model, matrix)
        restored = predict_batch(loaded, matrix)
        assert np.array_equal(original, restored)

    def test_float32_weights_survive_the_blob_exactly(self, tmp_path):
        matrix = _separable(80, 3, seed=62)
        config = TrainConfig(hidden=(6, 5), learning_rate=0.3, epochs=3, seed=7)
        model = train(matrix, matrix, config)
        params = (*model.weights, *model.biases)
        assert all(p.dtype == np.float32 for p in params)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        for p, q in zip(params, (*loaded.weights, *loaded.biases)):
            assert q.dtype == np.float32 and q.tobytes() == p.tobytes()
        original = predict_batch(model, matrix)
        assert original.dtype == np.float64
        assert original.tobytes() == predict_batch(loaded, matrix).tobytes()

    def test_float32_weights_are_stored_as_f4(self, tmp_path):
        matrix = _separable(40, 3, seed=67)
        config = TrainConfig(hidden=(6, 5), learning_rate=0.3, epochs=2, seed=7)
        model = train(matrix, matrix, config)
        path = tmp_path / "model.bin"
        save_model(model, path)
        line, body = path.read_bytes().split(b"\n", 1)
        params = [p for w, b in zip(model.weights, model.biases) for p in (w, b)]
        assert json.loads(line)["dtypes"] == ["<f4"] * len(params)
        assert body == b"".join(p.astype("<f4").tobytes() for p in params)
        loaded = load_model(path)
        # every array views the one float32 array the blob loads into
        base = loaded.weights[0].base
        assert all(p.base is base for p in (*loaded.weights, *loaded.biases))

    def test_a_float64_model_names_no_dtypes(self, tmp_path):
        model = init([3, 4, 2], seed=68, layout=_layout(3))
        path = tmp_path / "model.bin"
        save_model(model, path)
        line, body = path.read_bytes().split(b"\n", 1)
        assert "dtypes" not in json.loads(line)
        assert len(body) == 8 * sum(p.size for p in (*model.weights, *model.biases))
        loaded = load_model(path)
        assert all(w.dtype == np.float64 for w in loaded.weights)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_f4_weights_score_as_their_f8_upcast(self, tmp_path, threads):
        # A child Python, so that the BLAS thread count is its own: the
        # loaded float32 model scores every row to the bit as the float64
        # upcast of its weights, the form earlier model files stored.
        script = """
import sys
import numpy as np
from dataclasses import replace
from newsmotion.config import TrainConfig
from newsmotion.features import FeatureLayout, FeatureMatrix
from newsmotion.mlp import load_model, predict_batch, save_model, train
from newsmotion.sampling import NEGATIVE, POSITIVE
rng = np.random.default_rng(71)
layout = FeatureLayout(("ct",), k=0, n_categories=40)
x = rng.normal(size=(300, 40)) * (rng.random((300, 40)) < 0.3)
bits = x.view(np.uint64) != 0
matrix = FeatureMatrix(
    layout, ["T"] * 300, [None] * 300, [POSITIVE, NEGATIVE] * 150,
    np.packbits(bits, axis=1), x[bits],
)
config = TrainConfig(hidden=(64, 32), learning_rate=0.2, epochs=3, seed=8)
save_model(train(matrix, matrix, config), sys.argv[1])
model = load_model(sys.argv[1])
upcast = replace(
    model,
    weights=[w.astype(np.float64) for w in model.weights],
    biases=[b.astype(np.float64) for b in model.biases],
)
assert model.weights[0].dtype == np.float32
assert predict_batch(model, matrix).tobytes() == predict_batch(upcast, matrix).tobytes()
"""
        env = {**child_env(), "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "model.bin")],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr

    def test_a_load_holds_the_parameters_once(self, tmp_path):
        dims = (64, 20000, 2)
        n_params = sum(m * (n + 1) for n, m in zip(dims, dims[1:]))
        model = init(dims, seed=66, layout=_layout(64))
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded, peak = traced_peak(lambda: load_model(path))
        saved = (*model.weights, *model.biases)
        for p, q in zip(saved, (*loaded.weights, *loaded.biases)):
            assert p.tobytes() == q.tobytes()
        # The parameters are read into one float64 array, 8 bytes each; a
        # second copy of them does not fit.
        assert peak < 1.1 * 8 * n_params

    def test_two_trainings_in_one_process_save_identical_bytes(self, tmp_path):
        train_m = _separable(90, 6, seed=69)
        valid_m = _separable(40, 6, seed=70)
        config = TrainConfig(
            hidden=(16, 8), learning_rate=0.2, batch_size=32, epochs=4, seed=9
        )
        paths = [tmp_path / "first.bin", tmp_path / "second.bin"]
        for path in paths:
            save_model(train(train_m, valid_m, config), path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_header_without_layout_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(init([3, 4, 2], seed=62, layout=_layout(3)), path)
        header, body = path.read_bytes().split(b"\n", 1)
        header = header.replace(b'"layout":', b'"was_layout":')
        path.write_bytes(header + b"\n" + body)
        with pytest.raises(ParseError, match="no feature layout") as err:
            load_model(path)
        assert str(path) in str(err.value)

    def test_truncated_parameters_rejected(self, tmp_path):
        model = init([3, 4, 2], seed=63, layout=_layout(3))
        path = tmp_path / "model.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ParseError, match="bytes"):
            load_model(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"broken\n")
        with pytest.raises(ParseError, match="header"):
            load_model(path)


def _write_blob(name: str, path) -> None:
    if name == "model.bin":
        save_model(init([3, 4, 2], seed=64, layout=_layout(3)), path)
    else:
        write_feature_matrix(_separable(6, 3, seed=65), path)


# Each header key of both blob formats, with a value of the wrong type;
# ("layout", key) is a key of the feature layout in that header.
_HEADER_KEYS = [
    ("model.bin", ("layer_dims",), "wide"),
    ("model.bin", ("layout",), []),
    ("features_test.bin", ("layout",), []),
    ("features_test.bin", ("rows",), "many"),
    ("features_test.bin", ("tickers",), 3),
    ("features_test.bin", ("dates",), 3),
    ("features_test.bin", ("labels",), 3),
] + [
    (name, ("layout", key), wrong)
    for name in ("model.bin", "features_test.bin")
    for key, wrong in (("blocks", 3), ("k", "many"), ("categories", None))
]


class TestBlobHeaders:
    """Every bad blob header is a ParseError that names the file."""

    @staticmethod
    def _load(name: str, path):
        return (load_model if name == "model.bin" else load_feature_matrix)(path)

    @pytest.mark.parametrize("drop", [True, False], ids=["dropped", "wrong_type"])
    @pytest.mark.parametrize(
        "name, keys, wrong",
        [pytest.param(*case, id=f"{case[0]}:{'.'.join(case[1])}") for case in _HEADER_KEYS],
    )
    def test_bad_header_key_names_the_file(self, tmp_path, name, keys, wrong, drop):
        path = tmp_path / name
        _write_blob(name, path)
        line, data = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        parent = header
        for key in keys[:-1]:
            parent = parent[key]
        if drop:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = wrong
        path.write_bytes(json.dumps(header).encode() + b"\n" + data)
        with pytest.raises(ParseError) as err:
            self._load(name, path)
        assert str(path) in str(err.value)
        if drop:
            assert keys[-1] in str(err.value)

    @pytest.mark.parametrize("name", ["model.bin", "features_test.bin"])
    def test_header_that_is_not_an_object_names_the_file(self, tmp_path, name):
        path = tmp_path / name
        _write_blob(name, path)
        data = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(b"[1, 2]\n" + data)
        with pytest.raises(ParseError, match="header") as err:
            self._load(name, path)
        assert str(path) in str(err.value)


class TestTrainEach:
    """Block sets train in lockstep groups, each model as `train` trains it alone."""

    @staticmethod
    def _groups(monkeypatch) -> list[int]:
        """How many models each group trains, as `train_each` calls them."""
        sizes: list[int] = []
        train_group = mlp._train_group

        def recording(train_m, valid_m, config, layouts):
            sizes.append(len(layouts))
            return train_group(train_m, valid_m, config, layouts)

        monkeypatch.setattr(mlp, "_train_group", recording)
        return sizes

    @staticmethod
    def _same_bytes(tmp_path, model: MlpModel, alone: MlpModel) -> bool:
        paths = [tmp_path / "group.bin", tmp_path / "alone.bin"]
        save_model(model, paths[0])
        save_model(alone, paths[1])
        return paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("l2", [0.0, 0.02])
    def test_every_row_of_a_group_saves_the_bytes_of_training_it_alone(
        self, tmp_path, monkeypatch, l2
    ):
        # 70 rows in batches of 16 leave a last batch of 6; patience 3
        # stops the rows at different epochs, so the stack shrinks
        train_m = _all_blocks(70, seed=92)
        valid_m = _all_blocks(40, seed=93)
        config = TrainConfig(
            hidden=(7, 6, 5), learning_rate=0.4, batch_size=16, epochs=25,
            decay_every=4, l2=l2, patience=3, seed=12,
        )
        groups = self._groups(monkeypatch)
        models = list(train_each(train_m, valid_m, config, DEFAULT_COMBINATIONS))
        assert groups == [len(DEFAULT_COMBINATIONS)]
        runs = sorted({model.metadata["epochs_run"] for model in models})
        assert len(runs) > 2 and runs[-1] < config.epochs
        for blocks, model in zip(DEFAULT_COMBINATIONS, models):
            alone = train(train_m, valid_m, config, blocks)
            assert model.layout.blocks == blocks
            assert self._same_bytes(tmp_path, model, alone), blocks

    def test_a_missing_block_or_a_divergence_fails_only_its_row(
        self, tmp_path, monkeypatch
    ):
        matrices = []
        for n, seed in ((70, 94), (40, 95)):
            full = _all_blocks(n, seed=seed)
            # no ct block, and ps values large enough to overflow a step
            layout = FeatureLayout(("price", "bok", "ps"), k=3, n_categories=0)
            x = dense(full)[:, : layout.dimension]
            x[:, slice(*layout.offsets()["ps"])] *= 1e150
            matrices.append(packed(layout, full.tickers, full.dates, full.labels, x))
        train_m, valid_m = matrices
        config = TrainConfig(
            hidden=(7, 5), learning_rate=0.4, batch_size=16, epochs=12,
            patience=3, seed=13,
        )
        sets = [("price",), ("price", "ct"), ("price", "ps"), ("price", "bok"), ("bok", "ps")]
        groups = self._groups(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            results = list(train_each(train_m, valid_m, config, sets))
            assert groups == [4]
            with pytest.raises(TrainingDiverged) as alone:
                train(train_m, valid_m, config, ("price", "ps"))
            for i in (0, 3):
                assert self._same_bytes(
                    tmp_path, results[i], train(train_m, valid_m, config, sets[i])
                ), sets[i]
                assert results[i].metadata["epochs_run"] > 1
        missing, diverged = results[1], results[2]
        assert isinstance(missing, ValidationError) and "ct" in str(missing)
        assert isinstance(diverged, TrainingDiverged)
        assert str(diverged) == str(alone.value)
        assert isinstance(results[4], TrainingDiverged)

    def test_a_group_holds_at_most_its_parameter_budget(self):
        matrix = _all_blocks(8, seed=96)
        tail = (300, 250, 2)
        widths = [block_columns(matrix.layout, s)[0].dimension for s in DEFAULT_COMBINATIONS]
        sizes = [_stack_size([w], tail) for w in widths]
        # about 0.3 of the budget each, so the eight form groups of three
        assert 3 * max(sizes) <= GROUP_PARAMS < 4 * min(sizes)
        config = TrainConfig(hidden=tail[:-1], batch_size=4, epochs=2, seed=14)

        def count() -> int:
            # each result is a temporary, as the ablation scores it, so no
            # model of a group is held while the next group trains
            results = train_each(matrix, matrix, config, DEFAULT_COMBINATIONS)
            return sum(isinstance(next(results), MlpModel) for _ in widths)

        trained, peak = traced_peak(count)
        assert trained == len(DEFAULT_COMBINATIONS)
        # A group's float32 parameters, snapshot and gradient take at most
        # 12 bytes per parameter of the budget; 512 KiB covers the rest.
        # One group of all eight models (8 MB here) does not fit.
        assert peak < 12 * GROUP_PARAMS + 2**19


class TestBatchDecode:
    """Each batch decodes from the packed rows to the bits of a dense gather."""

    @staticmethod
    def _gather(out, x, rows, runs) -> None:
        """The dense gather training made before rows were packed."""
        for src, dst in runs:
            np.copyto(out[dst], x[rows, src].T)

    def test_every_group_union_decodes_as_the_dense_gather(self):
        matrix = _all_blocks(70, seed=97)
        x = dense(matrix)
        x[x < 0.4] = 0.0
        x[::7, 3] = -0.0
        matrix = packed(matrix.layout, matrix.tickers, matrix.dates, matrix.labels, x)
        order = np.random.default_rng(98).permutation(len(matrix))
        combos = DEFAULT_COMBINATIONS
        for i in range(len(combos)):
            for j in range(i + 1, len(combos) + 1):
                blocks = {b for c in combos[i:j] for b in c}
                union, runs = block_columns(matrix.layout, blocks)
                for start in range(0, len(matrix), 16):
                    batch = order[start : start + 16]
                    want = np.empty((union.dimension, len(batch)), np.float32)
                    got = np.full_like(want, np.nan)
                    self._gather(want, x, batch, runs)
                    matrix.decode(got.T, batch, runs)
                    assert got.tobytes() == want.tobytes(), (blocks, start)
