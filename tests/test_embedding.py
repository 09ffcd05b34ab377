"""Skip-gram training, cosine queries, and the vector file format."""

from __future__ import annotations

import numpy as np
import pytest

from newsmotion.config import SkipGramConfig
from newsmotion.embedding import (
    EmbeddingTable,
    _scatter_add,
    _sigmoid,
    load_embeddings,
    rank_by_seed_similarity,
    save_embeddings,
    train_skipgram,
)
from newsmotion.errors import ParseError, ValidationError

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


def sequential_skipgram(sentences, config):
    """Pair-by-pair SGNS oracle: one update per (center, context) pair.

    Same vocabulary, initialization, negative-sampling stream and
    learning-rate schedule as ``train_skipgram``; returns (vectors, losses).
    """
    counts = {}
    for sentence in sentences:
        for token in sentence:
            counts[token] = counts.get(token, 0) + 1
    vocab = sorted(
        (w for w, c in counts.items() if c >= config.min_count),
        key=lambda w: (-counts[w], w),
    )
    index = {w: i for i, w in enumerate(vocab)}
    freqs = np.asarray([counts[w] for w in vocab], dtype=np.int64)
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

    def test_batch_of_one_matches_pair_by_pair_oracle(self):
        # Six words give a batch size of max(1, 6 // 4) = 1.
        corpus = _mini_corpus()
        table = train_skipgram(corpus, _SMALL)
        vectors, losses = sequential_skipgram(corpus, _SMALL)
        assert len(table) == 6
        np.testing.assert_allclose(table.vectors, vectors, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(table.epoch_losses, losses, rtol=0.0, atol=1e-10)


class TestScatterAdd:
    def test_matches_add_at_on_repeated_rows(self):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 7, size=60)
        rows[:5] = 3  # a run of one row, besides the scattered repeats
        updates = rng.normal(size=(60, 4))
        got = rng.normal(size=(9, 4))  # rows 7 and 8 are never touched
        expected = got.copy()
        _scatter_add(got, rows, updates)
        np.add.at(expected, rows, updates)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


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


class TestVectorFile:
    def test_round_trip_within_text_precision(self, tmp_path):
        rng = np.random.default_rng(13)
        table = EmbeddingTable(
            words=["alpha", "beta", "gamma"],
            vectors=rng.normal(size=(3, 5)),
        )
        path = tmp_path / "vectors.txt"
        save_embeddings(table, path)
        again = load_embeddings(path)
        assert again.words == table.words
        np.testing.assert_allclose(again.vectors, table.vectors, atol=1e-6)

    def test_header_declares_shape(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("2 3\nup 1.0 0.0 0.0\ndown 0.0 1.0 0.0\n", encoding="utf-8")
        table = load_embeddings(path)
        assert len(table) == 2
        assert table.dimension == 3

    def test_short_row_names_the_word(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("2 3\nup 1.0 0.0 0.0\ndown 0.0 1.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="down"):
            load_embeddings(path)

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("3 2\nup 1.0 0.0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_embeddings(path)

    def test_bad_component_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("2 3\nup 1.0 0.0 0.0\nword 1.0 x 0.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"vectors\.txt:3: .*'x'"):
            load_embeddings(path)

    def test_blank_line_between_rows_is_skipped(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("2 3\nup 1.0 0.0 0.0\n\ndown 0.0 1.0 0.0\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.words == ["up", "down"]
        np.testing.assert_array_equal(table.vectors, [[1, 0, 0], [0, 1, 0]])

    def test_extra_row_names_its_line(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("1 1\nup 1.0\n\ndown 0.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"vectors\.txt:4: more rows than declared"):
            load_embeddings(path)
