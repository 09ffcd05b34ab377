"""Test-local oracles for the correlation graph: per-pair Pearson and alignment.

`build_graph_pairwise` is the one-pair-at-a-time graph build: align two
series on their shared dates, then the two-pass Pearson coefficient. The
vectorised `newsmotion.graph.build_graph` must reproduce its weights bit
for bit (up to clipping rho into [-1, 1]), and `dense_weights` turns an
edge list into the weight matrix the graph holds.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from newsmotion.errors import ValidationError
from newsmotion.ingest import DateRange, PriceSeries


def pearson(u: np.ndarray, v: np.ndarray) -> float:
    """Pearson product-moment correlation of two equal-length series."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValidationError(f"need equal-length vectors, got {u.shape} and {v.shape}")
    if len(u) < 2:
        raise ValidationError("correlation needs at least 2 points")
    du = u - u.mean()
    dv = v - v.mean()
    su = float(np.sum(du * du))
    sv = float(np.sum(dv * dv))
    if su == 0.0 or sv == 0.0:
        raise ValidationError("correlation undefined for a constant series")
    return float(np.sum(du * dv) / np.sqrt(su * sv))


def align_series(
    a: PriceSeries, b: PriceSeries, window: DateRange | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Closes of both series restricted to shared dates (inside window), date order."""
    b_by_date = dict(zip(b.dates, b.closes.tolist()))
    xs: list[float] = []
    ys: list[float] = []
    for d, c in zip(a.dates, a.closes.tolist()):
        if window is not None and d not in window:
            continue
        other = b_by_date.get(d)
        if other is not None:
            xs.append(c)
            ys.append(other)
    return np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)


def build_graph_pairwise(
    prices: Mapping[str, PriceSeries],
    universe: Sequence[str],
    window: DateRange | None,
    threshold: float,
    min_overlap: int,
) -> np.ndarray:
    """Weight matrix over sorted(set(universe)), one aligned pair at a time."""
    nodes = sorted(set(universe))
    weights = np.zeros((len(nodes), len(nodes)))
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            u, v = align_series(prices.get(nodes[i]), prices.get(nodes[j]), window)
            if len(u) < min_overlap:
                continue
            try:
                rho = min(1.0, max(-1.0, pearson(u, v)))
            except ValidationError:  # constant over the overlap
                continue
            if abs(rho) > threshold:
                weights[i, j] = weights[j, i] = rho
    return weights


def dense_weights(nodes: Sequence[str], edges) -> np.ndarray:
    """Symmetric weight matrix of (ticker_a, ticker_b, weight) edges."""
    index = {t: i for i, t in enumerate(nodes)}
    weights = np.zeros((len(nodes), len(nodes)))
    for a, b, w in edges:
        weights[index[a], index[b]] = weights[index[b], index[a]] = w
    return weights
