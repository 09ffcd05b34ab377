"""Skip-gram word embeddings with negative sampling, plus similarity queries.

Training is single-threaded and deterministic: a fixed seed drives
initialization and negative sampling, and updates are applied in
fixed-order mini-batches of (center, context) pairs taken in corpus
order, so the same corpus, config, and seed always yield bit-identical
vectors. Negatives are drawn for a block of batches at a time, looked up
in a grid over [0, 1) that gives exactly what a search of the noise CDF
gives, and each batch's updates reach the parameters through one bincount
scatter-add. A batch takes its rows once and runs its sigmoid in place;
its loss is taken for the whole block once the block is done.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .codec import read_blob, unpack, write_blob
from .config import SkipGramConfig
from .errors import ValidationError

log = logging.getLogger(__name__)

# Pairs per block of batches drawn at once; keeps the block arrays small.
_BLOCK_PAIRS = 4096
# Cells of the negative lookup; a power of two, so a draw's cell is exact.
_GRID = 4096


@dataclass
class EmbeddingTable:
    """Vocabulary with one dense vector per word."""

    words: list[str]
    vectors: np.ndarray  # (V, d) float64
    epoch_losses: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.words):
            raise ValidationError("vectors shape does not match vocabulary")
        if self.dimension <= 0:
            raise ValidationError("vector dimension must be positive")
        # A non-finite vector would silently drop out of every ranking.
        finite = np.isfinite(self.vectors).all(axis=1)
        if not finite.all():
            word = self.words[int(np.argmin(finite))]
            raise ValidationError(f"word {word!r} has a non-finite component")
        if len(set(self.words)) != len(self.words):
            raise ValidationError("duplicate words in vocabulary")
        self.index = {w: i for i, w in enumerate(self.words)}

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def __len__(self) -> int:
        return len(self.words)


def _negative_lookup(noise_cdf: np.ndarray) -> np.ndarray:
    """Per cell of a ``_GRID``-cell grid over [0, 1), the negative every draw
    in it gets, or -1 where that depends on the draw.

    A draw r lies in cell floor(r * _GRID); the grid is a power of two, so
    that product and each cell edge g / _GRID are exact. Every r of cell g
    has ``searchsorted(noise_cdf, r, "right")`` between the number of cdf
    values <= g / _GRID and the number < (g + 1) / _GRID; where the two
    counts meet, no cdf value lies strictly inside the cell, and that count
    is every draw's answer.
    """
    edges = np.arange(_GRID + 1) / _GRID
    lo = np.searchsorted(noise_cdf, edges[:-1], side="right")
    hi = np.searchsorted(noise_cdf, edges[1:], side="left")
    return np.where(lo >= hi, lo, -1)


def _negatives(lookup: np.ndarray, noise_cdf: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``np.searchsorted(noise_cdf, r, side="right")`` for draws r in [0, 1).

    ``lookup`` is `_negative_lookup` of ``noise_cdf``; only the draws that
    land in a cell with a cdf value strictly inside it are searched.
    """
    negatives = lookup.take((r * _GRID).astype(np.intp))
    searched = negatives < 0
    negatives[searched] = np.searchsorted(noise_cdf, r[searched], side="right")
    return negatives


def _pair_arrays(
    sentences: Sequence[Sequence[str]], index: dict[str, int], window: int
) -> tuple[np.ndarray, np.ndarray]:
    """All in-window (center, context) id pairs of the filtered corpus.

    Pairs come in sentence order, then center position, then context
    position. Out-of-vocabulary tokens are dropped before windowing, and a
    window never crosses a sentence boundary.
    """
    ids: list[int] = []
    sentence_ids: list[int] = []
    for s, sentence in enumerate(sentences):
        kept = [index[t] for t in sentence if t in index]
        ids.extend(kept)
        sentence_ids.extend([s] * len(kept))
    flat = np.asarray(ids, dtype=np.int64)
    sid = np.asarray(sentence_ids, dtype=np.int64)
    offsets = np.r_[np.arange(-window, 0), np.arange(1, window + 1)]
    ctx_pos = np.arange(len(flat))[:, None] + offsets
    clipped = np.clip(ctx_pos, 0, max(len(flat) - 1, 0))
    valid = (clipped == ctx_pos) & (sid[clipped] == sid[:, None])
    centers = np.broadcast_to(flat[:, None], valid.shape)[valid]
    return centers, flat[clipped[valid]]


def _scatter_add(
    table: np.ndarray, cells: np.ndarray, rows: np.ndarray, updates: np.ndarray
) -> None:
    """table[rows] += updates, accumulating repeated rows (one bincount).

    ``cells`` holds each entry's flat index, ``np.arange(table.size)`` in
    the table's shape. A repeated row's updates are summed in order before
    they reach the table. Every other entry gets +0.0 added, which keeps
    its bits unless it is -0.0, so a call costs the whole table, not just
    the rows it touches.
    """
    table += np.bincount(
        cells.take(rows, axis=0).ravel(),
        weights=updates.ravel(),
        minlength=table.size,
    ).reshape(table.shape)


def train_skipgram(
    sentences: Sequence[Sequence[str]], config: SkipGramConfig
) -> EmbeddingTable:
    """Train embeddings on tokenized sentences.

    For each (center, context) pair inside the window the objective is
    log sigmoid(u.v) plus ``negatives`` terms log sigmoid(-u.v') with
    negatives drawn from the unigram^(3/4) distribution. Pairs are taken
    in fixed-order mini-batches of ``max(1, min(1024, V // 4))`` for a
    vocabulary of V words: every pair of a batch is scored against the
    vectors as they stood at the batch start, so repeated rows pile their
    updates into one step, and a batch that is large against V diverges.
    Row ids, learning rates and negatives are drawn once per block of
    whole batches (about ``_BLOCK_PAIRS`` pairs); a negative is the
    `_negatives` lookup of its draw, which equals the draw's
    ``searchsorted`` in the noise CDF. A batch's updates are applied by
    one `_scatter_add`. Each batch's scores fill a block-wide array, whose
    loss is taken once per block and summed batch by batch, so the sum
    has each batch's own bits. The mean loss of each epoch is recorded on
    the returned table.
    """
    counts: dict[str, int] = {}
    for sentence in sentences:
        for token in sentence:
            counts[token] = counts.get(token, 0) + 1
    vocab = sorted(
        (w for w, c in counts.items() if c >= config.min_count),
        key=lambda w: (-counts[w], w),
    )
    if not vocab:
        raise ValidationError(
            f"no words meet min_count={config.min_count}; corpus too small"
        )
    index = {w: i for i, w in enumerate(vocab)}
    freqs = np.asarray([counts[w] for w in vocab], dtype=np.int64)

    # Pair arrays are identical every epoch (fixed window); build them once.
    centers, contexts = _pair_arrays(sentences, index, config.window)
    total_pairs = len(centers)
    if total_pairs == 0:
        raise ValidationError("corpus yields no training pairs after filtering")

    rng = np.random.default_rng(config.seed)
    n_words = len(vocab)
    dim = config.dimension
    # Word vectors fill rows [0, V) and context vectors rows [V, 2V), so one
    # scatter-add applies a batch's center and context updates together.
    params = np.zeros((2 * n_words, dim))
    params[:n_words] = (rng.random((n_words, dim)) - 0.5) / dim
    context_rows = contexts + n_words

    noise = freqs.astype(np.float64) ** 0.75
    noise_cdf = np.cumsum(noise)
    noise_cdf /= noise_cdf[-1]

    k = config.negatives
    lr0 = config.learning_rate
    lr_floor = lr0 * 1e-4
    schedule_len = total_pairs * config.epochs
    batch = max(1, min(1024, n_words // 4))
    # rng.random hands out its doubles in order, so one (block, k) draw is
    # the block's batches' own draws laid end to end.
    block = batch * (_BLOCK_PAIRS // batch)
    lookup = _negative_lookup(noise_cdf)
    cells = np.arange(params.size).reshape(params.shape)
    target = np.zeros(k + 1)
    target[0] = 1.0
    loss_sign = np.full(k + 1, 1.0)
    loss_sign[0] = -1.0

    epoch_losses = []
    for epoch in range(config.epochs):
        loss_sum = 0.0
        for block_start in range(0, total_pairs, block):
            size = min(block, total_pairs - block_start)
            done = epoch * total_pairs + block_start
            lr = np.maximum(
                lr0 * (1.0 - np.arange(done, done + size) / schedule_len), lr_floor
            )[:, None]
            # Per pair: center row, context row, then the negatives' rows,
            # and a score for each row but the center's.
            rows = np.empty((size, k + 2), dtype=np.int64)
            scores = np.empty((size, k + 1))
            rows[:, 0] = centers[block_start : block_start + size]
            rows[:, 1] = context_rows[block_start : block_start + size]
            rows[:, 2:] = _negatives(lookup, noise_cdf, rng.random((size, k)))
            rows[:, 2:] += n_words
            for start in range(0, size, batch):
                stop = start + batch
                uv = params.take(rows[start:stop], axis=0)
                u, v = uv[:, 0], uv[:, 1:]
                np.einsum("bd,bkd->bk", u, v, out=scores[start:stop])
                # g = lr * (target - sigmoid(score)), sigmoid(x) being
                # 1 / (1 + exp(-x)) with x clipped to [-35, 35].
                g = np.negative(scores[start:stop])
                np.minimum(g, 35.0, out=g)
                np.maximum(g, -35.0, out=g)
                np.exp(g, out=g)
                g += 1.0
                np.divide(1.0, g, out=g)
                np.subtract(target, g, out=g)
                g *= lr[start:stop]
                updates = np.empty((len(g), k + 2, dim))
                np.einsum("bk,bkd->bd", g, v, out=updates[:, 0])
                np.einsum("bk,bd->bkd", g, u, out=updates[:, 1:])
                _scatter_add(
                    params, cells, rows[start:stop].ravel(), updates.reshape(-1, dim)
                )
            # Each batch's loss, summed as that batch's own array would be.
            scores *= loss_sign
            np.logaddexp(0.0, scores, out=scores)
            for start in range(0, size, batch):
                loss_sum += scores[start : start + batch].sum()
        epoch_losses.append(loss_sum / total_pairs)

    return EmbeddingTable(
        words=list(vocab),
        vectors=params[:n_words].copy(),
        epoch_losses=epoch_losses,
    )


def rank_by_seed_similarity(
    table: EmbeddingTable, seeds: Sequence[str]
) -> list[tuple[str, float]]:
    """Score every vocabulary word by its best cosine to any seed.

    Result is sorted by descending score with ties broken by word order;
    seeds themselves score exactly 1.0. Seeds missing from the vocabulary
    are skipped with a warning; if all are missing this is an error.
    Zero-norm vectors cannot be scored and are left out.
    """
    present = [s for s in seeds if s in table]
    for s in seeds:
        if s not in table:
            log.warning("seed word %r not in vocabulary; skipped", s)
    if not present:
        raise ValidationError(f"none of the seed words {list(seeds)!r} are in vocabulary")

    norms = np.linalg.norm(table.vectors, axis=1)
    scorable = norms > 0.0
    unit = np.zeros_like(table.vectors)
    unit[scorable] = table.vectors[scorable] / norms[scorable, None]
    seed_ids = [table.index[s] for s in present]
    scores = (unit @ unit[seed_ids].T).max(axis=1)
    for i in seed_ids:
        scores[i] = 1.0

    ranked = [
        (table.words[i], float(scores[i]))
        for i in range(len(table.words))
        if scorable[i]
    ]
    ranked.sort(key=lambda item: (-item[1], item[0]))
    return ranked


def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    """A blob: the words and the dimension in the header, then the (V, d)
    vectors as ``<f8`` (`codec.write_blob`)."""
    header = {"words": table.words, "dimension": table.dimension}
    write_blob(path, header, [table.vectors])


def _table(header: dict, data: BinaryIO) -> EmbeddingTable:
    words, dim = header["words"], header["dimension"]
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise ValueError("words must be a list of strings")
    if type(dim) is not int or dim <= 0:
        raise ValueError(f"dimension must be a positive int, got {dim!r}")
    (vectors,) = unpack(data, header, [(len(words), dim)])
    if vectors.dtype != np.float64:
        raise ValueError("vectors must be stored as <f8")
    return EmbeddingTable(words=words, vectors=vectors)


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """The table `save_embeddings` wrote.

    A bad header field, a byte count that disagrees with the header, and
    a table `EmbeddingTable` refuses (a ``nan`` or infinite component
    among them) are a `ParseError` naming the file.
    """
    return read_blob(path, _table)
