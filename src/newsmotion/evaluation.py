"""Test-set evaluation: feature-ablation error rates and the propagation sweep.

The ablation trains one classifier per feature-block combination (shared
seed and hyperparameters) and scores each on the same test rows; the
combination of every block can score a model file already trained on the
full matrices instead. The combinations train in lockstep groups
(`mlp.train_each`), each model as `mlp.train` trains it alone: each
reads the full train and validation matrices and trains on only its
blocks' columns, cast to float32 as each batch decodes them, so no copy
of a subset is made for training. Each row of the ablation decodes its
blocks' columns of the test rows whole, as float64, and nothing else,
when its model scores them. The sweep seeds the correlation graph with
per-date classifier confidences, propagates, and measures accuracy and
coverage of the emitted unseen-stock predictions as the confidence
threshold rises, through `emissions`, which `predict` calls at its one
threshold.
Both score through `mlp.predict_batch`, which rejects a model of another
feature layout, and count a confidence above 0 as an up prediction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .codec import write_table
from .config import TrainConfig
from .errors import PipelineError, ValidationError
from .features import FeatureMatrix, block_set
from .graph import CorrelationGraph, Propagation, propagate, threshold_predictions
from .ingest import PriceSeries
from .mlp import MlpModel, error_rate, load_model, predict_batch, train_each
from .sampling import POSITIVE, movement_label

logger = logging.getLogger(__name__)

# The default ablation set: price alone, then each way of adding news blocks.
DEFAULT_COMBINATIONS: tuple[tuple[str, ...], ...] = (
    ("price",),
    ("price", "bok"),
    ("price", "bok", "ps"),
    ("price", "bok", "ct"),
    ("price", "ps"),
    ("price", "ct"),
    ("price", "ps", "ct"),
    ("price", "bok", "ps", "ct"),
)

OK = "ok"
FAILED = "failed"
NOT_AVAILABLE = "n/a"

ABLATION_HEADER = "combination,error_rate,samples,status"
SWEEP_HEADER = "tau,accuracy,predicted_per_day,observed_per_day"


@dataclass(frozen=True)
class AblationRow:
    """Test error of one feature-block combination."""

    name: str
    blocks: tuple[str, ...]
    error: float | None  # None when the combination failed to train
    samples: int
    status: str  # OK or FAILED
    note: str = ""

    def __post_init__(self):
        if self.error is not None and not 0.0 <= self.error <= 1.0:
            raise ValidationError(f"error rate {self.error} outside [0, 1]")


@dataclass(frozen=True)
class AblationReport:
    """One row per requested combination, in request order."""

    rows: tuple[AblationRow, ...]
    metadata: dict


@dataclass(frozen=True)
class SweepRow:
    """Accuracy and coverage of propagated predictions at one threshold."""

    tau: float
    accuracy: float | None  # None when no emitted prediction had a defined movement
    predicted_per_day: float
    observed_per_day: float

    def __post_init__(self):
        if self.accuracy is not None and not 0.0 <= self.accuracy <= 1.0:
            raise ValidationError(f"accuracy {self.accuracy} outside [0, 1]")


@dataclass(frozen=True)
class SweepReport:
    """One row per requested tau, in request order."""

    rows: tuple[SweepRow, ...]
    metadata: dict


def run_ablation(
    train_matrix: FeatureMatrix,
    valid_matrix: FeatureMatrix,
    test_matrix: FeatureMatrix,
    combinations: Sequence[Sequence[str]],
    config: TrainConfig,
    full_model: str | Path | None,
) -> AblationReport:
    """Train one model per block combination and score each on the test rows.

    Every model shares the same seed and hyperparameters, so rows differ
    only in their feature columns. An empty or unknown combination is
    rejected before the first training; one that fails to train, or names
    a block the matrices lack, is marked failed and the remaining
    combinations still run. ``full_model``, when not None, is a model file
    holding what ``train`` returns for the full train and validation
    matrices under ``config``: the combination of every block loads and
    scores it instead of training the same model again. It is loaded only
    when that row comes up. The other rows train in `mlp.train_each`'s
    groups, and each row's model is dropped once its test rows are
    scored, so no model of a group is held while the next group trains.
    """
    if not (train_matrix.layout == valid_matrix.layout == test_matrix.layout):
        raise ValidationError("ablation matrices must share one feature layout")
    if len(test_matrix) == 0:
        raise ValidationError("test split is empty")
    if not combinations:
        raise ValidationError("at least one combination is required")
    block_sets = [block_set(c) for c in combinations]
    from_file = [
        full_model is not None and blocks == train_matrix.layout.blocks
        for blocks in block_sets
    ]
    trained = train_each(
        train_matrix,
        valid_matrix,
        config,
        [blocks for blocks, loaded in zip(block_sets, from_file) if not loaded],
    )
    rows: list[AblationRow] = []
    for blocks, loaded in zip(block_sets, from_file):
        name = "+".join(blocks)
        try:
            # The model is a temporary, dropped before the next group trains.
            err = _test_error(
                load_model(full_model) if loaded else next(trained), test_matrix, blocks
            )
        except PipelineError as exc:
            logger.warning("combination %s failed: %s", name, exc)
            rows.append(
                AblationRow(name, blocks, None, len(test_matrix), FAILED, str(exc))
            )
            continue
        logger.info("combination %s: test error %.4f", name, err)
        rows.append(AblationRow(name, blocks, err, len(test_matrix), OK))
    return AblationReport(
        rows=tuple(rows),
        metadata={"seed": config.seed, "test_samples": len(test_matrix)},
    )


def _test_error(
    model: MlpModel | PipelineError, test_matrix: FeatureMatrix, blocks: Sequence[str]
) -> float:
    """The model's error on the test rows' columns of ``blocks``; an error
    that its training gave instead is raised."""
    if isinstance(model, PipelineError):
        raise model
    confidences = predict_batch(model, test_matrix, blocks)
    return error_rate(confidences, test_matrix.labels)


def emissions(
    model: MlpModel,
    test_matrix: FeatureMatrix,
    graph: CorrelationGraph,
    taus: Sequence[float],
    iterations: int,
    clamp_observed: bool,
) -> tuple[np.ndarray, Propagation, list[np.ndarray]]:
    """Each test row's confidence, their propagation, and one emission mask per tau.

    `predict` writes these at its tau and the sweep scores them at each of
    its taus, so the two emit from the same code.
    """
    if len(test_matrix) == 0:
        raise ValidationError("test split is empty")
    if not taus:
        raise ValidationError("at least one tau is required")
    confidences = predict_batch(model, test_matrix)
    p = propagate(
        graph,
        test_matrix.dates,
        test_matrix.tickers,
        confidences,
        iterations=iterations,
        clamp_observed=clamp_observed,
    )
    masks = [threshold_predictions(graph, p.values, p.observed, tau) for tau in taus]
    return confidences, p, masks


def run_propagation_sweep(
    test_matrix: FeatureMatrix,
    model: MlpModel,
    graph: CorrelationGraph,
    prices: Mapping[str, PriceSeries],
    taus: Sequence[float],
    iterations: int,
    clamp_observed: bool,
) -> SweepReport:
    """Propagate per-date classifier confidences and sweep the emission threshold.

    Each test date's observed stocks seed one row of a dates x N matrix
    with their signed confidences, zeros elsewhere; after propagation,
    each tau emits the unseen stocks whose confidence clears it, by the
    `emissions` that `predict` calls at its tau. Accuracy compares the
    emitted labels against the next-day price movement where the price
    table defines one; emissions without a defined movement count toward
    coverage but not accuracy. Dates whose observed stocks all fall
    outside the graph are skipped and counted in the report metadata.
    """
    taus = [float(t) for t in taus]
    _, p, emitted = emissions(model, test_matrix, graph, taus, iterations, clamp_observed)
    days_used = len(p.dates)
    if days_used == 0:
        raise ValidationError("no test date had an observed stock in the graph")
    # +1 / -1 where the next-day close moved up / down, 0 where undefined
    moved = np.zeros(p.values.shape, dtype=np.int8)
    for r, c in zip(*np.nonzero(np.logical_or.reduce(emitted))):
        series = prices.get(graph.nodes[c])
        movement = movement_label(series, p.dates[r]) if series is not None else None
        if movement is not None:
            moved[r, c] = 1 if movement == POSITIVE else -1
    observed_per_day = int(p.observed.sum()) / days_used
    rows = []
    for tau, mask in zip(taus, emitted):
        scored = mask & (moved != 0)
        n_scored = int(scored.sum())
        correct = int((scored & (moved == np.sign(p.values))).sum())
        rows.append(
            SweepRow(
                tau=tau,
                accuracy=(correct / n_scored) if n_scored else None,
                predicted_per_day=int(mask.sum()) / days_used,
                observed_per_day=observed_per_day,
            )
        )
    return SweepReport(
        rows=tuple(rows),
        metadata={
            "days_used": days_used,
            "days_skipped": p.days_skipped,
            "out_of_graph_samples": p.out_of_graph,
            "iterations": iterations,
            "clamp_observed": clamp_observed,
        },
    )


def _render_table(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines) + "\n"


def _cell(value: float | None) -> str:
    """A CSV field: the float's repr, or n/a for a missing value."""
    return NOT_AVAILABLE if value is None else repr(value)


def write_ablation_report(report: AblationReport, path: str | Path) -> None:
    """CSV with one row per combination; failed rows carry an n/a error rate."""
    rows = ((r.name, _cell(r.error), str(r.samples), r.status) for r in report.rows)
    write_table(path, ABLATION_HEADER, rows)


def render_ablation(report: AblationReport) -> str:
    """Aligned-text rendering of the ablation table."""
    body = []
    for row in report.rows:
        err = NOT_AVAILABLE if row.error is None else f"{row.error:.4f}"
        status = f"{row.status}: {row.note}" if row.note else row.status
        body.append((row.name, err, str(row.samples), status))
    table = _render_table(("combination", "error rate", "samples", "status"), body)
    return table + f"test samples: {report.metadata.get('test_samples', 0)}\n"


def write_sweep_report(report: SweepReport, path: str | Path) -> None:
    """Plot-ready CSV: tau, accuracy, predicted_per_day, observed_per_day."""
    rows = (
        map(_cell, (r.tau, r.accuracy, r.predicted_per_day, r.observed_per_day))
        for r in report.rows
    )
    write_table(path, SWEEP_HEADER, rows)


def render_sweep(report: SweepReport) -> str:
    """Aligned-text rendering of the sweep table plus day counts."""
    body = []
    for row in report.rows:
        acc = NOT_AVAILABLE if row.accuracy is None else f"{row.accuracy:.4f}"
        body.append(
            (
                f"{row.tau:.2f}",
                acc,
                f"{row.predicted_per_day:.2f}",
                f"{row.observed_per_day:.2f}",
            )
        )
    table = _render_table(("tau", "accuracy", "predicted/day", "observed/day"), body)
    meta = report.metadata
    return table + (
        f"days used: {meta.get('days_used', 0)}, "
        f"skipped (no observed stocks): {meta.get('days_skipped', 0)}\n"
    )
