"""The block-wise skip-gram trainer as it was before its batch loop was tuned.

`blockwise_skipgram` is the earlier `newsmotion.embedding.train_skipgram`
kept verbatim: negatives drawn by `np.searchsorted` over the whole block,
two `take`s, a broadcast outer product and the loss summed batch by batch.
The tuned trainer must reproduce its vectors and epoch losses bit for bit.
`_sigmoid` is its logistic function, shared with the pair-by-pair oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from newsmotion.config import SkipGramConfig
from newsmotion.embedding import (
    _BLOCK_PAIRS,
    EmbeddingTable,
    _pair_arrays,
    _scatter_add,
)
from newsmotion.errors import ValidationError


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -35.0, 35.0)))


def blockwise_skipgram(
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
    whole batches (about ``_BLOCK_PAIRS`` pairs), and a batch's updates
    are applied by one `_scatter_add`.
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
    # rng.random hands out its doubles in order, so one (block, k) draw is
    # the block's batches' own draws laid end to end.
    block = batch * max(1, _BLOCK_PAIRS // batch)
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
            )
            # Per pair: center row, context row, then the negatives' rows.
            rows = np.empty((size, k + 2), dtype=np.int64)
            rows[:, 0] = centers[block_start : block_start + size]
            rows[:, 1] = context_rows[block_start : block_start + size]
            negatives = np.searchsorted(noise_cdf, rng.random((size, k)), side="right")
            np.add(negatives, n_words, out=rows[:, 2:])
            for start in range(0, size, batch):
                stop = start + batch
                u = params.take(rows[start:stop, 0], axis=0)
                v = params.take(rows[start:stop, 1:], axis=0)
                scores = np.einsum("bd,bkd->bk", u, v)
                loss_sum += np.logaddexp(0.0, loss_sign * scores).sum()
                g = lr[start:stop, None] * (target - _sigmoid(scores))
                updates = np.empty((len(u), k + 2, dim))
                np.einsum("bk,bkd->bd", g, v, out=updates[:, 0])
                np.multiply(g[:, :, None], u[:, None, :], out=updates[:, 1:])
                _scatter_add(
                    params, cells, rows[start:stop].ravel(), updates.reshape(-1, dim)
                )
        epoch_losses.append(loss_sum / total_pairs)

    return EmbeddingTable(
        words=list(vocab),
        vectors=params[:n_words].copy(),
        epoch_losses=epoch_losses,
    )
