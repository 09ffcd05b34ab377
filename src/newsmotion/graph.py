"""Stock correlation graph: build from price histories, propagate predictions.

The graph is one symmetric N x N float64 weight matrix over the sorted
ticker universe, zero on the diagonal and wherever two stocks share no
edge. An edge carries the Pearson coefficient of the two daily-close
series over their common trading dates inside the graph window, and
survives only when |rho| strictly exceeds the prune threshold and the
series share at least min_overlap dates.

Propagation seeds a dates x N matrix with each date's signed classifier
confidences, exactly 0 for stocks without news that day, and multiplies
it by the weight matrix once per iteration to reach stocks absent from
the news.

A prediction row, direct or propagated, says UP where its confidence is
positive and DOWN otherwise: `write_predictions` derives the label, and
the classifier module applies the same rule to its own confidences.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date as Date
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .codec import decoding, read_table, write_table
from .errors import ValidationError
from .dates import DateRange
from .ingest import PriceSeries

DNN = "dnn"
PROPAGATED = "propagated"
UP = "up"
DOWN = "down"

GRAPH_HEADER = "ticker_i,ticker_j,weight"
PREDICTIONS_HEADER = "date,ticker,source,label,confidence"


@dataclass(eq=False)
class CorrelationGraph:
    """Symmetric pruned correlation graph over an ordered ticker universe."""

    nodes: list[str]
    weights: np.ndarray  # (N, N) float64; symmetric, zero diagonal, 0 = no edge
    threshold: float
    min_overlap: int
    window: DateRange | None = None

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValidationError("duplicate tickers in node list")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(self.nodes), len(self.nodes)):
            raise ValidationError(
                f"weight matrix of shape {w.shape} for {len(self.nodes)} nodes"
            )
        bad = ~(np.abs(w) <= 1.0)  # also catches NaN
        if bad.any():
            raise ValidationError(f"edge weight {w[bad][0]!r} outside [-1, 1]")
        if np.any(np.diagonal(w) != 0.0):
            raise ValidationError("self-edge on the weight matrix diagonal")
        if not np.array_equal(w, w.T):
            i, j = np.argwhere(w != w.T)[0]
            raise ValidationError(f"asymmetric edge between {i} and {j}")
        self.weights = w
        self.index = {t: i for i, t in enumerate(self.nodes)}

    def __len__(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return int(np.count_nonzero(self.weights)) // 2

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Each undirected edge once, as (i, j, weight) with i < j, row by row."""
        for i, j in zip(*np.nonzero(np.triu(self.weights, 1))):
            yield int(i), int(j), float(self.weights[i, j])


def build_graph(
    prices: Mapping[str, PriceSeries],
    universe: Sequence[str],
    window: DateRange | None = None,
    *,
    threshold: float,
    min_overlap: int,
) -> CorrelationGraph:
    """Correlate every ticker pair over the window and keep |rho| > threshold.

    Tickers that trade on the same dates form a group. For each pair of
    groups, each ticker's closes on the common dates are centred
    (two-pass: minus their mean) and every pair's cross sums are taken
    one row at a time, so each rho is the same two-pass Pearson a single
    pair would get. Pairs with fewer than min_overlap common dates, or a
    constant series over them, get no edge; rho is clipped into [-1, 1].
    """
    if threshold < 0:
        raise ValidationError("threshold must be non-negative")
    if min_overlap < 2:
        raise ValidationError("min_overlap must be at least 2")
    missing = sorted(t for t in universe if prices.get(t) is None)
    if missing:
        raise ValidationError(f"universe tickers without price series: {missing}")
    nodes = sorted(set(universe))
    closes: list[np.ndarray] = []
    groups: dict[tuple[int, ...], list[int]] = {}  # trading days -> node indices
    for i, ticker in enumerate(nodes):
        series = prices.get(ticker)
        keep = [k for k, d in enumerate(series.dates) if window is None or d in window]
        closes.append(series.closes[keep])
        groups.setdefault(tuple(series.dates[k].toordinal() for k in keep), []).append(i)
    days = [np.asarray(key, dtype=np.int64) for key in groups]
    members = [np.asarray(m, dtype=np.int64) for m in groups.values()]
    weights = np.zeros((len(nodes), len(nodes)))
    for a in range(len(days)):
        for b in range(a, len(days)):
            common, pos_a, pos_b = np.intersect1d(
                days[a], days[b], assume_unique=True, return_indices=True
            )
            if len(common) < min_overlap:
                continue
            ca, ss_a = _centred([closes[i][pos_a] for i in members[a]])
            cb, ss_b = (ca, ss_a) if a == b else _centred(
                [closes[j][pos_b] for j in members[b]]
            )
            for r, i in enumerate(members[a]):
                if ss_a[r] == 0.0:
                    continue
                rest = slice(r + 1, None) if a == b else slice(None)
                cross = (ca[r] * cb[rest]).sum(axis=1)
                with np.errstate(divide="ignore", invalid="ignore"):
                    rho = np.clip(cross / np.sqrt(ss_a[r] * ss_b[rest]), -1.0, 1.0)
                hit = (ss_b[rest] != 0.0) & (np.abs(rho) > threshold)
                cols = members[b][rest][hit]
                weights[i, cols] = weights[cols, i] = rho[hit]
    return CorrelationGraph(
        nodes=nodes,
        weights=weights,
        threshold=threshold,
        min_overlap=min_overlap,
        window=window,
    )


def _centred(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Rows minus their means, and each centred row's sum of squares."""
    x = np.stack(rows)
    c = x - x.mean(axis=1, keepdims=True)
    return c, (c * c).sum(axis=1)


@dataclass(frozen=True)
class Propagation:
    """Propagated confidences for each date with an observed stock in the graph."""

    dates: list[Date]  # ascending; row r of values and observed
    values: np.ndarray  # (dates, N), clipped to [-1, 1]
    observed: np.ndarray  # (dates, N) bool, entries seeded from the classifier
    days_skipped: int  # dates whose observed stocks all fall outside the graph
    out_of_graph: int  # samples whose ticker is not a graph node


def propagate(
    graph: CorrelationGraph,
    dates: Sequence[Date],
    tickers: Sequence[str],
    confidences: Sequence[float],
    iterations: int = 1,
    clamp_observed: bool = False,
) -> Propagation:
    """Seed one row per date with its samples' confidences and apply X' = XA.

    Sample k puts confidences[k] at (dates[k], tickers[k]); every other
    entry of the seed is exactly 0. Samples of tickers outside the graph
    are counted and left out. With clamp_observed, observed entries are
    reset to their seeds after each multiplication. Entries are clipped
    to [-1, 1] only after the final iteration; zero iterations return
    the seeds.
    """
    if iterations < 0:
        raise ValidationError("iterations must be non-negative")
    conf = np.asarray(confidences, dtype=np.float64)
    if not len(dates) == len(tickers) == len(conf):
        raise ValidationError(
            f"{len(dates)} dates, {len(tickers)} tickers and {len(conf)} confidences"
        )
    if not np.all(np.abs(conf) <= 1.0):
        raise ValidationError("confidences must be finite and lie in [-1, 1]")
    col = np.asarray([graph.index.get(t, -1) for t in tickers], dtype=np.int64)
    inside = col >= 0
    used = sorted({d for d, ok in zip(dates, inside) if ok})
    row_of = {d: r for r, d in enumerate(used)}
    row = np.asarray([row_of[d] for d, ok in zip(dates, inside) if ok], dtype=np.int64)
    seeds = np.zeros((len(used), len(graph)))
    seeds[row, col[inside]] = conf[inside]
    observed = np.zeros(seeds.shape, dtype=bool)
    observed[row, col[inside]] = True
    values = seeds
    for _ in range(iterations):
        values = values @ graph.weights
        if clamp_observed:
            values[observed] = seeds[observed]
    return Propagation(
        dates=used,
        values=np.clip(values, -1.0, 1.0),
        observed=observed,
        days_skipped=len(set(dates)) - len(used),
        out_of_graph=int(np.count_nonzero(~inside)),
    )


def threshold_predictions(
    graph: CorrelationGraph, values: np.ndarray, observed: np.ndarray, tau: float
) -> np.ndarray:
    """Mask of the unseen stocks whose propagated confidence clears tau.

    Zero entries never qualify (no signal reached them), so tau = 0 emits
    exactly the unseen stocks touched by propagation. An emitted entry
    predicts up when positive and down when negative.
    """
    if tau < 0:
        raise ValidationError("tau must be non-negative")
    if values.shape != observed.shape or values.shape[-1:] != (len(graph),):
        raise ValidationError("values and observed mask do not match the graph")
    return ~observed & (values != 0.0) & (np.abs(values) >= tau)


def write_graph(graph: CorrelationGraph, path: str | Path) -> None:
    """CSV of edges (i < j lexicographically) under '# key=value' header lines."""
    meta = {
        "threshold": repr(graph.threshold),
        "min_overlap": str(graph.min_overlap),
        "window": "none" if graph.window is None else str(graph.window),
        "nodes": ",".join(graph.nodes),
    }
    rows = ((graph.nodes[i], graph.nodes[j], repr(w)) for i, j, w in graph.edges())
    write_table(path, GRAPH_HEADER, rows, meta)


def _edge(parts: list[str]) -> tuple[str, str, float]:
    return parts[0], parts[1], float(parts[2])


def load_graph(path: str | Path) -> CorrelationGraph:
    meta, edges = read_table(path, GRAPH_HEADER, _edge)
    with decoding(path, "header field"):
        threshold = float(meta["threshold"])
        min_overlap = int(meta["min_overlap"])
        nodes = meta["nodes"].split(",") if meta["nodes"] else []
        window = meta.get("window", "none")
        window = None if window == "none" else DateRange.parse(window)
        index = {t: i for i, t in enumerate(nodes)}
        weights = np.zeros((len(nodes), len(nodes)))
        seen: set[frozenset[int]] = set()
        for a, b, w in edges:
            if a not in index or b not in index:
                raise ValueError(f"edge {a},{b} references unknown node")
            pair = frozenset((index[a], index[b]))
            if len(pair) == 1:
                raise ValueError(f"self-edge on {a}")
            if pair in seen:
                raise ValueError(f"edge {a},{b} repeated")
            seen.add(pair)
            weights[index[a], index[b]] = weights[index[b], index[a]] = w
        return CorrelationGraph(
            nodes=nodes,
            weights=weights,
            threshold=threshold,
            min_overlap=min_overlap,
            window=window,
        )


def write_predictions(
    rows: Iterable[tuple[Date, str, str, float]], path: str | Path
) -> None:
    """Write (date, ticker, source, confidence) rows sorted, each with its label."""
    table = (
        (d.isoformat(), ticker, source, UP if c > 0 else DOWN, repr(c))
        for d, ticker, source, c in sorted(rows, key=lambda row: row[:3])
    )
    write_table(path, PREDICTIONS_HEADER, table)
