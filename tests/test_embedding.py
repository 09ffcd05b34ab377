"""Skip-gram training and cosine queries."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from newsmotion.config import SkipGramConfig
from newsmotion.embedding import (
    _BLOCK_PAIRS,
    _GRID,
    EmbeddingTable,
    _negative_lookup,
    _negatives,
    _pair_arrays,
    _scatter_add,
    rank_by_seed_similarity,
    train_skipgram,
)
from newsmotion.errors import ValidationError

from skipgram_oracle import _sigmoid, blockwise_skipgram

_SMALL = SkipGramConfig(
    dimension=12, window=2, negatives=4, epochs=3, min_count=1, seed=3
)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity of two equal-dimension non-zero vectors."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValidationError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValidationError("cosine undefined for zero vector")
    return float(np.dot(u, v) / (nu * nv))


def _vocabulary(sentences, min_count):
    """Words by falling count then spelling, their ids, and their counts."""
    counts = {}
    for sentence in sentences:
        for token in sentence:
            counts[token] = counts.get(token, 0) + 1
    vocab = sorted(
        (w for w, c in counts.items() if c >= min_count),
        key=lambda w: (-counts[w], w),
    )
    index = {w: i for i, w in enumerate(vocab)}
    return vocab, index, np.asarray([counts[w] for w in vocab], dtype=np.int64)


def sequential_skipgram(sentences, config):
    """Pair-by-pair SGNS oracle: one update per (center, context) pair.

    Same vocabulary, initialization, negative-sampling stream and
    learning-rate schedule as ``train_skipgram``; returns (vectors, losses).
    """
    vocab, index, freqs = _vocabulary(sentences, config.min_count)
    pair_centers, pair_contexts = [], []
    total_pairs = 0
    for sentence in sentences:
        ids = [index[t] for t in sentence if t in index]
        centers, contexts = [], []
        for pos, center in enumerate(ids):
            lo = max(0, pos - config.window)
            hi = min(len(ids), pos + config.window + 1)
            for ctx_pos in range(lo, hi):
                if ctx_pos != pos:
                    centers.append(center)
                    contexts.append(ids[ctx_pos])
        if centers:
            pair_centers.append(np.asarray(centers, dtype=np.int64))
            pair_contexts.append(np.asarray(contexts, dtype=np.int64))
            total_pairs += len(centers)

    rng = np.random.default_rng(config.seed)
    dim = config.dimension
    vecs = (rng.random((len(vocab), dim)) - 0.5) / dim
    ctx_vecs = np.zeros((len(vocab), dim))
    noise_cdf = np.cumsum(freqs.astype(np.float64) ** 0.75)
    noise_cdf /= noise_cdf[-1]
    k = config.negatives
    lr0 = config.learning_rate
    schedule_len = total_pairs * config.epochs
    target = np.zeros(k + 1)
    target[0] = 1.0
    loss_sign = np.full(k + 1, 1.0)
    loss_sign[0] = -1.0
    rows = np.empty(k + 1, dtype=np.int64)
    losses = []
    done = 0
    for _ in range(config.epochs):
        loss_sum = 0.0
        for centers, contexts in zip(pair_centers, pair_contexts):
            negatives = np.searchsorted(
                noise_cdf, rng.random((len(centers), k)), side="right"
            )
            for t in range(len(centers)):
                lr = max(lr0 * (1.0 - done / schedule_len), lr0 * 1e-4)
                rows[0] = contexts[t]
                rows[1:] = negatives[t]
                u = vecs[centers[t]]
                v = ctx_vecs[rows]
                scores = v @ u
                loss_sum += np.logaddexp(0.0, loss_sign * scores).sum()
                g = lr * (target - _sigmoid(scores))
                np.add.at(ctx_vecs, rows, g[:, None] * u)
                u += g @ v
                done += 1
        losses.append(loss_sum / total_pairs)
    return vecs, losses


def _reduceat_scatter_add(table, rows, updates):
    """table[rows] += updates, accumulating repeated rows (sort + reduceat)."""
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    starts = np.flatnonzero(sorted_rows[1:] != sorted_rows[:-1]) + 1
    starts = np.concatenate(([0], starts))
    table[sorted_rows[starts]] += np.add.reduceat(updates[order], starts, axis=0)


def per_batch_skipgram(sentences, config):
    """Mini-batch SGNS oracle that draws its negatives batch by batch.

    The same batches, update rule and random stream as ``train_skipgram``,
    but each batch draws its own negatives and learning rates, and the
    updates are summed by sort + reduceat. Returns (vectors, losses).
    """
    vocab, index, freqs = _vocabulary(sentences, config.min_count)
    centers, contexts = _pair_arrays(sentences, index, config.window)
    total_pairs = len(centers)

    rng = np.random.default_rng(config.seed)
    n_words = len(vocab)
    dim = config.dimension
    params = np.zeros((2 * n_words, dim))
    params[:n_words] = (rng.random((n_words, dim)) - 0.5) / dim
    context_rows = contexts + n_words
    noise_cdf = np.cumsum(freqs.astype(np.float64) ** 0.75)
    noise_cdf /= noise_cdf[-1]
    k = config.negatives
    lr0 = config.learning_rate
    schedule_len = total_pairs * config.epochs
    batch = max(1, min(1024, n_words // 4))
    target = np.zeros(k + 1)
    target[0] = 1.0
    loss_sign = np.full(k + 1, 1.0)
    loss_sign[0] = -1.0
    losses = []
    for epoch in range(config.epochs):
        loss_sum = 0.0
        for start in range(0, total_pairs, batch):
            stop = min(start + batch, total_pairs)
            done = epoch * total_pairs + start
            lr = np.maximum(
                lr0 * (1.0 - np.arange(done, done + stop - start) / schedule_len),
                lr0 * 1e-4,
            )
            rows = np.empty((stop - start, k + 2), dtype=np.int64)
            rows[:, 0] = centers[start:stop]
            rows[:, 1] = context_rows[start:stop]
            negatives = np.searchsorted(
                noise_cdf, rng.random((stop - start, k)), side="right"
            )
            rows[:, 2:] = negatives + n_words
            u = params[rows[:, 0]]
            v = params[rows[:, 1:]]
            scores = np.einsum("bd,bkd->bk", u, v)
            loss_sum += np.logaddexp(0.0, loss_sign * scores).sum()
            g = lr[:, None] * (target - _sigmoid(scores))
            updates = np.empty((stop - start, k + 2, dim))
            np.einsum("bk,bkd->bd", g, v, out=updates[:, 0])
            np.multiply(g[:, :, None], u[:, None, :], out=updates[:, 1:])
            _reduceat_scatter_add(params, rows.ravel(), updates.reshape(-1, dim))
        losses.append(loss_sum / total_pairs)
    return params[:n_words], losses


def _cells(table):
    return np.arange(table.size).reshape(table.shape)


def _zipf_corpus(n_words=48, sentences=700, seed=23):
    """Sentences over ``n_words`` words drawn with Zipf-like frequencies."""
    rng = np.random.default_rng(seed)
    words = [f"w{i:02d}" for i in range(n_words)]
    weights = 1.0 / np.arange(1, n_words + 1)
    weights /= weights.sum()
    return [
        list(rng.choice(words, size=int(rng.integers(2, 9)), p=weights))
        for _ in range(sentences)
    ]


def _mini_corpus():
    rng = np.random.default_rng(17)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    corpus = []
    for _ in range(80):
        size = int(rng.integers(3, 6))
        corpus.append(list(rng.choice(words, size=size)))
    return corpus


def substitution_corpus(n=10000, seed=29):
    """Sentences from two templates where 'rise' and 'rebound' are swapped freely."""
    rng = np.random.default_rng(seed)
    pair = ("rise", "rebound")
    templates = (
        "stocks {} sharply after the early report",
        "shares of the group could {} again tomorrow",
    )
    fillers = [
        f"{a} traders watched the {b} board quietly"
        for a in ("some", "many", "most", "other")
        for b in ("main", "local", "busy", "quiet")
    ]
    corpus = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.6:
            template = templates[int(rng.integers(2))]
            corpus.append(template.format(pair[int(rng.integers(2))]).split())
        else:
            corpus.append(fillers[int(rng.integers(len(fillers)))].split())
    return corpus


@pytest.fixture(scope="module")
def subst_table():
    return train_skipgram(substitution_corpus(), _SMALL)


class TestCosine:
    def test_self_similarity_is_one(self):
        u = np.array([0.3, -1.2, 2.0])
        assert cosine(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors_score_zero(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_hand_value(self):
        got = cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            u = rng.normal(size=8)
            v = rng.normal(size=8)
            alpha = float(rng.uniform(0.1, 10.0))
            assert abs(cosine(u, v) - cosine(v, u)) < 1e-12
            assert abs(cosine(alpha * u, v) - cosine(u, v)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            cosine(np.array([0.0, 0.0]), np.array([1.0, 0.0]))


class TestTrainSkipgram:
    def test_same_seed_is_bit_identical(self):
        corpus = _mini_corpus()
        a = train_skipgram(corpus, _SMALL)
        b = train_skipgram(corpus, _SMALL)
        assert a.words == b.words
        assert np.array_equal(a.vectors, b.vectors)

    def test_different_seed_changes_vectors(self):
        corpus = _mini_corpus()
        a = train_skipgram(corpus, _SMALL)
        b = train_skipgram(corpus, SkipGramConfig(
            dimension=12, window=2, negatives=4, epochs=3, min_count=1, seed=4
        ))
        assert not np.array_equal(a.vectors, b.vectors)

    def test_min_count_filters_vocabulary(self):
        corpus = [["common", "common", "rare"], ["common", "common"]]
        table = train_skipgram(
            corpus,
            SkipGramConfig(dimension=4, window=2, epochs=1, min_count=2, seed=1),
        )
        assert "rare" not in table
        assert "common" in table

    def test_a_word_at_exactly_min_count_is_kept(self):
        corpus = [["common", "common", "twice"], ["common", "twice", "once"]]
        table = train_skipgram(
            corpus,
            SkipGramConfig(dimension=4, window=2, epochs=1, min_count=2, seed=1),
        )
        assert table.words == ["common", "twice"]

    def test_a_corpus_without_pairs_is_an_error(self):
        # one word in all, so no window holds a second
        with pytest.raises(ValidationError, match="no training pairs"):
            train_skipgram(
                [["alone"]],
                SkipGramConfig(dimension=4, window=2, epochs=1, min_count=1, seed=1),
            )

    def test_all_words_below_min_count_is_an_error(self):
        corpus = [["one", "two"], ["three", "four"]]
        with pytest.raises(ValidationError):
            train_skipgram(
                corpus,
                SkipGramConfig(dimension=4, window=2, epochs=1, min_count=5, seed=1),
            )

    def test_vocabulary_orders_by_frequency_then_word(self):
        corpus = [["b", "b", "a", "a", "c"]] * 3
        table = train_skipgram(
            corpus,
            SkipGramConfig(dimension=4, window=1, epochs=1, min_count=1, seed=1),
        )
        assert table.words == ["a", "b", "c"]

    def test_epoch_loss_is_monotone_non_increasing(self):
        corpus = [["up", "down", "flat", "open"]] * 150
        table = train_skipgram(
            corpus,
            SkipGramConfig(dimension=8, window=2, epochs=5, min_count=1, seed=2),
        )
        assert len(table.epoch_losses) == 5
        for earlier, later in zip(table.epoch_losses, table.epoch_losses[1:]):
            assert later <= earlier + 1e-6

    def test_substituted_words_converge(self, subst_table):
        rise, rebound = (subst_table.index[w] for w in ("rise", "rebound"))
        assert cosine(subst_table.vectors[rise], subst_table.vectors[rebound]) > 0.9

    @pytest.mark.parametrize("n_words", [4, 5, 6])
    def test_tiny_vocabulary_does_not_diverge(self, n_words):
        rng = np.random.default_rng(n_words)
        words = ["up", "down", "flat", "open", "close", "halt"][:n_words]
        corpus = [
            list(rng.choice(words, size=int(rng.integers(2, 7)))) for _ in range(300)
        ]
        table = train_skipgram(
            corpus,
            SkipGramConfig(dimension=8, window=3, epochs=5, min_count=1, seed=5),
        )
        losses = table.epoch_losses
        assert len(table) == n_words
        assert np.all(np.isfinite(losses))
        assert all(later < losses[0] for later in losses[1:])
        assert np.all(np.isfinite(table.vectors))

    def test_a_diverged_training_is_refused(self):
        # The vectors overflow; the table refuses them before embed writes them.
        config = replace(_SMALL, learning_rate=1e300)
        with np.errstate(all="ignore"):
            with pytest.raises(ValidationError, match="non-finite"):
                train_skipgram(_mini_corpus(), config)

    def test_batch_of_one_matches_pair_by_pair_oracle(self):
        # Six words give a batch size of max(1, 6 // 4) = 1.
        corpus = _mini_corpus()
        table = train_skipgram(corpus, _SMALL)
        vectors, losses = sequential_skipgram(corpus, _SMALL)
        assert len(table) == 6
        np.testing.assert_allclose(table.vectors, vectors, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(table.epoch_losses, losses, rtol=0.0, atol=1e-10)

    def test_blocks_of_batches_match_per_batch_oracle(self):
        corpus = _zipf_corpus()
        config = SkipGramConfig(
            dimension=8, window=2, negatives=3, epochs=2, min_count=1, seed=9
        )
        table = train_skipgram(corpus, config)
        vectors, losses = per_batch_skipgram(corpus, config)
        # Batches of 10 or more, several blocks an epoch, and a last batch
        # and block that are both cut short.
        batch = len(table) // 4
        block = batch * (_BLOCK_PAIRS // batch)
        pairs = len(_pair_arrays(corpus, table.index, config.window)[0])
        assert batch >= 10
        assert pairs > 2 * block
        assert pairs % batch and pairs % block
        np.testing.assert_allclose(table.vectors, vectors, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(table.epoch_losses, losses, rtol=0.0, atol=1e-12)


class TestBitExact:
    """The tuned batch loop against the verbatim earlier one."""

    @pytest.mark.parametrize(
        "corpus, config, batch",
        [
            pytest.param(
                _zipf_corpus(),
                SkipGramConfig(dimension=8, window=2, negatives=3, epochs=2,
                               min_count=1, seed=9),
                12,
                id="zipf-48",
            ),
            pytest.param(
                _zipf_corpus(n_words=224, sentences=1500, seed=31),
                SkipGramConfig(dimension=48, window=3, negatives=5, epochs=2,
                               min_count=1, seed=5),
                55,
                id="accept-shaped",
            ),
            pytest.param(_mini_corpus(), _SMALL, 1, id="batch-of-one"),
        ],
    )
    def test_vectors_and_losses_equal_the_blockwise_oracle(self, corpus, config, batch):
        table = train_skipgram(corpus, config)
        oracle = blockwise_skipgram(corpus, config)
        # Several blocks an epoch, and a last batch and block cut short.
        block = batch * (_BLOCK_PAIRS // batch)
        pairs = len(_pair_arrays(corpus, table.index, config.window)[0])
        assert max(1, len(table) // 4) == batch
        if batch > 1:
            assert pairs > 2 * block
            assert pairs % batch and pairs % block
        assert table.words == oracle.words
        assert table.vectors.tobytes() == oracle.vectors.tobytes()
        assert np.array_equal(table.epoch_losses, oracle.epoch_losses)


    def test_a_large_vocabulary_takes_batches_of_1024_pairs(self):
        # 4400 words would make batches of 1100 pairs without the cap
        rng = np.random.default_rng(41)
        words = [f"w{i:04d}" for i in range(4400)]
        corpus = [list(s) for s in rng.permutation(words * 2).reshape(-1, 8)]
        config = SkipGramConfig(
            dimension=4, window=1, negatives=2, epochs=1, min_count=1, seed=7
        )
        table = train_skipgram(corpus, config)
        oracle = blockwise_skipgram(corpus, config)
        assert len(table) // 4 > 1024
        assert len(_pair_arrays(corpus, table.index, config.window)[0]) > 2 * 1024
        assert table.vectors.tobytes() == oracle.vectors.tobytes()
        assert np.array_equal(table.epoch_losses, oracle.epoch_losses)


class TestNegativeLookup:
    @staticmethod
    def _cdf(counts):
        cdf = np.cumsum(np.asarray(counts, dtype=np.float64) ** 0.75)
        return cdf / cdf[-1]

    @pytest.mark.parametrize(
        "counts",
        [
            pytest.param(np.arange(222, 0, -1) * 7, id="zipf-222"),
            pytest.param([5, 3, 2, 1, 1, 1], id="six-words"),
            # Equal counts put every cdf value on a cell edge: 1/4, 2/4, 3/4, 1.
            pytest.param([9, 9, 9, 9], id="cdf-on-edges"),
            pytest.param([1], id="one-word"),
        ],
    )
    def test_equals_searchsorted_right(self, counts):
        cdf = self._cdf(counts)
        lookup = _negative_lookup(cdf)
        edges = np.arange(_GRID) / _GRID
        inner = cdf[cdf < 1.0]
        draws = np.concatenate([
            np.random.default_rng(4).random(50_000),
            edges,
            np.nextafter(edges[1:], 0.0),
            inner,
            np.nextafter(cdf, 0.0),
            [0.0, np.nextafter(1.0, 0.0)],
        ])
        assert draws.min() >= 0.0 and draws.max() < 1.0
        got = _negatives(lookup, cdf, draws.reshape(-1, 1))
        assert got.shape == (len(draws), 1)
        assert np.array_equal(got.ravel(), np.searchsorted(cdf, draws, side="right"))

    def test_only_cells_holding_a_cdf_value_are_searched(self):
        cdf = self._cdf([9, 9, 9, 9])
        lookup = _negative_lookup(cdf)
        assert lookup.shape == (_GRID,)
        # 1/4, 2/4 and 3/4 open a cell, so no cell straddles a value.
        assert (lookup >= 0).all()
        assert np.array_equal(np.unique(lookup), [0, 1, 2, 3])
        cdf = self._cdf([5, 3, 2, 1, 1, 1])
        straddled = np.flatnonzero(_negative_lookup(cdf) < 0)
        assert np.array_equal(straddled, np.floor(cdf[:-1] * _GRID).astype(int))


class TestScatterAdd:
    def test_matches_add_at_on_repeated_rows(self):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 7, size=60)
        rows[:5] = 3  # a run of one row, besides the scattered repeats
        updates = rng.normal(size=(60, 4))
        got = rng.normal(size=(9, 4))  # rows 7 and 8 are never touched
        expected = got.copy()
        _scatter_add(got, _cells(got), rows, updates)
        np.add.at(expected, rows, updates)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_untouched_rows_keep_their_bits(self):
        rng = np.random.default_rng(12)
        # Word rows above, context rows at +0.0 below, as in training.
        table = np.zeros((8, 5))
        table[:4] = rng.normal(size=(4, 5))
        table[1, 2] = np.inf
        before = table.copy()
        rows = np.array([0, 2, 2, 5, 0, 5])
        _scatter_add(table, _cells(table), rows, rng.normal(size=(6, 5)))
        untouched = [1, 3, 4, 6, 7]
        assert table[untouched].tobytes() == before[untouched].tobytes()
        assert not np.signbit(table[[4, 6, 7]]).any()
        assert (table[[0, 2, 5]] != before[[0, 2, 5]]).all()


class TestEmbeddingTable:
    @pytest.mark.parametrize(
        "vectors, message",
        [
            (np.zeros(2), "does not match vocabulary"),
            (np.zeros((3, 2)), "does not match vocabulary"),
            (np.zeros((2, 0)), "dimension must be positive"),
        ],
        ids=["1-D", "row-count", "zero-dimension"],
    )
    def test_a_table_of_the_wrong_shape_is_refused(self, vectors, message):
        with pytest.raises(ValidationError, match=message):
            EmbeddingTable(words=["up", "down"], vectors=vectors)

    def test_the_first_word_with_a_non_finite_component_is_named(self):
        vectors = np.array([[1.0], [np.nan], [np.inf]])
        with pytest.raises(ValidationError, match="^word 'b' has a non-finite"):
            EmbeddingTable(words=["a", "b", "c"], vectors=vectors)

    def test_one_component_is_a_valid_dimension(self):
        table = EmbeddingTable(words=["up", "down"], vectors=np.array([[1.0], [-1.0]]))
        assert table.dimension == 1


class TestRankBySeedSimilarity:
    def _table(self, words, vectors):
        vectors = np.asarray(vectors, dtype=np.float64)
        return EmbeddingTable(words=list(words), vectors=vectors)

    def test_vocabulary_of_seeds_only(self):
        table = self._table(["rise", "drop"], [[1.0, 0.0], [0.0, 1.0]])
        ranked = rank_by_seed_similarity(table, ["rise", "drop"])
        assert ranked == [("drop", 1.0), ("rise", 1.0)]

    def test_word_identical_to_seed_scores_one(self):
        table = self._table(
            ["rise", "clone", "other"],
            [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        )
        ranked = rank_by_seed_similarity(table, ["rise"])
        assert ranked[0] == ("clone", 1.0)
        assert ("rise", 1.0) in ranked[:2]

    def test_scores_sort_descending_with_lexicographic_ties(self):
        table = self._table(
            ["b", "a", "far"],
            [[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]],
        )
        ranked = rank_by_seed_similarity(table, ["a"])
        assert [w for w, _ in ranked] == ["a", "b", "far"]

    def test_a_zero_vector_is_left_out(self):
        table = self._table(
            ["rise", "blank", "drop"], [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]
        )
        assert rank_by_seed_similarity(table, ["rise"]) == [("rise", 1.0), ("drop", 0.0)]

    def test_absent_seed_warns_and_is_skipped(self, caplog):
        table = self._table(["rise", "x"], [[1.0, 0.0], [0.5, 0.5]])
        with caplog.at_level("WARNING"):
            ranked = rank_by_seed_similarity(table, ["rise", "ghost"])
        assert any("ghost" in message for message in caplog.messages)
        assert ranked[0][0] == "rise"

    def test_all_seeds_absent_is_an_error(self):
        table = self._table(["x"], [[1.0, 0.0]])
        with pytest.raises(ValidationError):
            rank_by_seed_similarity(table, ["ghost", "phantom"])

    def test_substitution_corpus_ranks_shared_context_word_high(self, subst_table):
        table = subst_table
        seeds = [w for w in ("rise", "drop", "surge", "fall") if w in table]
        ranked = rank_by_seed_similarity(table, seeds)
        non_seeds = [w for w, _ in ranked if w not in seeds]
        assert "rebound" in non_seeds[:20]
