"""Skip-gram word embeddings with negative sampling, plus similarity queries.

Training is single-threaded and deterministic: a fixed seed drives
initialization and negative sampling, and updates are applied in
fixed-order mini-batches of (center, context) pairs taken in corpus
order, so the same corpus, config, and seed always yield bit-identical
vectors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .codec import decoding
from .config import SkipGramConfig
from .errors import ParseError, ValidationError

log = logging.getLogger(__name__)


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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -35.0, 35.0)))


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


def _scatter_add(table: np.ndarray, rows: np.ndarray, updates: np.ndarray) -> None:
    """table[rows] += updates, accumulating repeated rows (sort + reduceat)."""
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    starts = np.flatnonzero(sorted_rows[1:] != sorted_rows[:-1]) + 1
    starts = np.concatenate(([0], starts))
    table[sorted_rows[starts]] += np.add.reduceat(updates[order], starts, axis=0)


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
    The mean loss of each epoch is recorded on the returned table.
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
    target = np.zeros(k + 1)
    target[0] = 1.0
    loss_sign = np.full(k + 1, 1.0)
    loss_sign[0] = -1.0

    epoch_losses = []
    for epoch in range(config.epochs):
        loss_sum = 0.0
        for start in range(0, total_pairs, batch):
            stop = min(start + batch, total_pairs)
            done = epoch * total_pairs + start
            lr = np.maximum(
                lr0 * (1.0 - np.arange(done, done + stop - start) / schedule_len),
                lr_floor,
            )
            # Per pair: center row, context row, then the negatives' rows.
            rows = np.empty((stop - start, k + 2), dtype=np.int64)
            rows[:, 0] = centers[start:stop]
            rows[:, 1] = context_rows[start:stop]
            negatives = np.searchsorted(
                noise_cdf, rng.random((stop - start, k)), side="right"
            )
            np.add(negatives, n_words, out=rows[:, 2:])
            u = params[rows[:, 0]]
            v = params[rows[:, 1:]]
            scores = np.einsum("bd,bkd->bk", u, v)
            loss_sum += np.logaddexp(0.0, loss_sign * scores).sum()
            g = lr[:, None] * (target - _sigmoid(scores))
            updates = np.empty((stop - start, k + 2, dim))
            np.einsum("bk,bkd->bd", g, v, out=updates[:, 0])
            np.multiply(g[:, :, None], u[:, None, :], out=updates[:, 1:])
            _scatter_add(params, rows.ravel(), updates.reshape(-1, dim))
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
    """Write the standard text format: 'V d' header, then 'word v1 .. vd' rows."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table.words)} {table.dimension}\n")
        for word, row in zip(table.words, table.vectors):
            fh.write(word + " " + " ".join(f"{x:.6f}" for x in row) + "\n")


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Read the text vector format written by `save_embeddings`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ParseError(f"{path}:1: expected header '<vocab_size> <dimension>'")
        with decoding(f"{path}:1"):
            vocab_size, dim = int(header[0]), int(header[1])
            vectors = np.empty((vocab_size, dim))
        words: list[str] = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            where = f"{path}:{lineno}"
            if len(words) == vocab_size:
                raise ParseError(f"{where}: more rows than declared vocab {vocab_size}")
            word, comps = parts[0], parts[1:]
            if len(comps) != dim:
                raise ParseError(
                    f"{where}: word {word!r} has {len(comps)} components, expected {dim}"
                )
            with decoding(where):
                vectors[len(words)] = [float(c) for c in comps]
            words.append(word)
    if len(words) != vocab_size:
        raise ParseError(f"{path}: {len(words)} rows, header declared {vocab_size}")
    with decoding(path):
        return EmbeddingTable(words=words, vectors=vectors)
