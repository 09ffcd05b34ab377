"""Acceptance suite: one test per core guarantee of the pipeline.

Each test prints a single pass/fail line with the measured values, so a
plain pytest run doubles as an acceptance report. Tolerances are pinned
here as module constants.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from newsmotion import cli
from newsmotion.codec import read_table
from newsmotion.embedding import _pair_arrays, load_embeddings
from newsmotion.evaluation import ABLATION_HEADER, NOT_AVAILABLE, OK, SWEEP_HEADER
from newsmotion.features import (
    FeatureLayout,
    featurize_samples,
    subject_of_keyword,
    training_stats,
)
from newsmotion.graph import CorrelationGraph, build_graph, propagate
from newsmotion.dates import DateRange
from newsmotion.ingest import PriceSeries
from newsmotion.lexicon import (
    SEED_WORDS,
    CategoryEntry,
    CategoryLexicon,
    KeywordEntry,
    KeywordLexicon,
    load_keyword_lexicon,
)
from newsmotion.mlp import MlpModel, load_model, predict_batch, save_model, softmax
from newsmotion.sampling import NEGATIVE, POSITIVE, Sample, Sentence
from newsmotion.tokens import tokenize

from graph_oracle import pearson
from support import dense, init, loss_and_gradients, polarity_score_of

GRADIENT_TOLERANCE = 1e-4
GRADIENT_TIME_LIMIT = 10.0
SOFTMAX_TOLERANCE = 1e-12
POLARITY_TOLERANCE = 1e-12
PEARSON_TOLERANCE = 1e-12
PROPAGATION_TOLERANCE = 1e-12
MAX_FULL_FEATURE_ERROR = 0.15
MIN_PRICE_ONLY_GAP = 0.10
MIN_PROPAGATED_ACCURACY = 0.6
PIPELINE_TIME_LIMIT = 300.0
FULL_DIMENSION = 2022
PLANTED_VERBS = ("climb", "slide", "advance", "rally", "retreat")
MIN_PLANTED_SIMILARITY = 0.98
MAX_NEXT_SIMILARITY = 0.8

PIPELINE_CONFIG = """\
[embedding]
dimension = 48
window = 3
epochs = 3

[lexicon]
keywords = 300
category_words = 50

[training]
hidden = 64,32
epochs = 30
batch_size = 64
"""

STAGES = (
    "synth",
    "ingest",
    "embed",
    "lexicon",
    "featurize",
    "train",
    "graph",
    "predict",
    "evaluate",
)

DAY = date(2012, 2, 1)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _sample(ticker: str, text: str, label: str, mentions=()) -> Sample:
    sentence = Sentence(text=text, article_date=DAY, mentions=tuple(mentions))
    return Sample(ticker=ticker, date=DAY, sentences=(sentence,), label=label)


def _price_table(series_list) -> dict[str, PriceSeries]:
    return {s.ticker: s for s in series_list}


def _gradient_gap(dims: tuple[int, ...], seed: int) -> float:
    """Worst relative error between analytic and central-difference gradients."""
    rng = np.random.default_rng(seed)
    model = init(dims, seed=seed, layout=FeatureLayout(("ct",), 0, dims[0]))
    for b in model.biases:
        b += rng.normal(scale=0.1, size=b.shape)
    x = rng.normal(size=(6, dims[0]))
    y = rng.integers(0, 2, size=6)
    _, grad_w, grad_b = loss_and_gradients(model, x, y)
    eps = 1e-5
    worst = 0.0
    for params, grads in ((model.weights, grad_w), (model.biases, grad_b)):
        for arr, grad in zip(params, grads):
            flat = arr.ravel()
            for idx in range(flat.size):
                original = flat[idx]
                flat[idx] = original + eps
                up, _, _ = loss_and_gradients(model, x, y)
                flat[idx] = original - eps
                down, _, _ = loss_and_gradients(model, x, y)
                flat[idx] = original
                numeric = (up - down) / (2 * eps)
                analytic = grad.ravel()[idx]
                scale = max(abs(numeric), abs(analytic), 1e-8)
                worst = max(worst, abs(numeric - analytic) / scale)
    return worst


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Two identical full pipeline runs on the synthetic fixture."""
    work_dirs = []
    first_seconds = 0.0
    for name in ("first", "second"):
        root = tmp_path_factory.mktemp(name)
        config = root / "pipeline.ini"
        config.write_text(PIPELINE_CONFIG)
        started = time.monotonic()
        for stage in STAGES:
            code = cli.main([stage, "--config", str(config)])
            assert code == 0, f"{name} run: stage {stage} exited {code}"
        if name == "first":
            first_seconds = time.monotonic() - started
        work_dirs.append(root / "work")
    return {"work_dirs": work_dirs, "seconds": first_seconds}


def _ablation_error(parts: list[str]) -> tuple[str, float | None]:
    name, err, _, status = parts
    return name, float(err) if status == OK else None


def _ablation_errors(work) -> dict[str, float | None]:
    return dict(read_table(work / "ablation.csv", ABLATION_HEADER, _ablation_error)[1])


def _sweep_row(parts: list[str]) -> tuple[float, float | None, float]:
    tau, acc, per_day, _ = parts
    return float(tau), None if acc == NOT_AVAILABLE else float(acc), float(per_day)


def _sweep_rows(work) -> list[tuple[float, float | None, float]]:
    return read_table(work / "sweep.csv", SWEEP_HEADER, _sweep_row)[1]


class TestAcceptance:
    def test_criterion_01_gradient_oracle(self):
        started = time.monotonic()
        worst = 0.0
        models = 0
        for dims in ((5, 7, 2), (12, 16, 16, 2)):
            for seed in range(10):
                worst = max(worst, _gradient_gap(dims, 100 * len(dims) + seed))
                models += 1
        elapsed = time.monotonic() - started
        _report(
            "criterion 1, gradient oracle",
            models >= 20 and worst < GRADIENT_TOLERANCE and elapsed < GRADIENT_TIME_LIMIT,
            f"max relative error {worst:.2e} over {models} models in {elapsed:.1f}s",
        )

    def test_criterion_02_softmax_stability(self):
        rng = np.random.default_rng(99)
        logits = rng.uniform(-700.0, 700.0, size=(10_000, 2))
        logits[:4] = [[700.0, -700.0], [-700.0, 700.0], [700.0, 700.0], [0.0, 0.0]]
        probs = softmax(logits[:4])
        gap = float(np.abs(softmax(logits).sum(axis=1) - 1.0).max())

        zero = MlpModel(
            layer_dims=(3, 2),
            weights=[np.zeros((2, 3))],
            biases=[np.zeros(2)],
            layout=FeatureLayout(("ct",), 0, 3),
        )
        x = np.array([[0.5, -1.0, 2.0]])
        losses = [loss_and_gradients(zero, x, np.array([y]))[0] for y in (0, 1)]
        loss_gap = max(abs(loss - math.log(2.0)) for loss in losses)
        _report(
            "criterion 2, softmax stability",
            gap <= SOFTMAX_TOLERANCE
            and loss_gap <= SOFTMAX_TOLERANCE
            and np.isfinite(probs).all(),
            f"max |sum-1| {gap:.2e} over 10000 pairs, zero-logit loss off by {loss_gap:.2e}",
        )

    def test_criterion_03_polarity_score_oracle(self):
        rng = np.random.default_rng(7)
        pool = [
            "alpha", "bravo", "charlie", "delta", "echo",
            "foxtrot", "golf", "hotel", "india", "juliett",
        ]
        worst = 0.0
        corpora = 50
        for _ in range(corpora):
            n = int(rng.integers(2, 31))
            words = list(rng.choice(pool, size=int(rng.integers(1, 11)), replace=False))
            samples = []
            for i in range(n):
                chosen = [w for w in words if rng.random() < 0.5]
                text = " ".join(chosen) if chosen else "the market moved"
                if i < 2:
                    label = POSITIVE if i == 0 else NEGATIVE
                else:
                    label = POSITIVE if rng.random() < 0.5 else NEGATIVE
                samples.append(_sample("AAA", text, label))
            flipped = [
                Sample(
                    ticker=s.ticker,
                    date=s.date,
                    sentences=s.sentences,
                    label=NEGATIVE if s.label == POSITIVE else POSITIVE,
                )
                for s in samples
            ]
            pos = [s for s in samples if s.label == POSITIVE]
            neg = [s for s in samples if s.label == NEGATIVE]
            for word in words:
                pos_df = sum(1 for s in pos if word in s.sentences[0].text.split())
                neg_df = sum(1 for s in neg if word in s.sentences[0].text.split())
                reference = math.log((pos_df + 1) * (len(neg) + 1)) - math.log(
                    (neg_df + 1) * (len(pos) + 1)
                )
                score = polarity_score_of(word, samples)
                worst = max(worst, abs(score - reference))
                assert polarity_score_of(word, flipped) == -score
        _report(
            "criterion 3, polarity-score oracle",
            worst <= POLARITY_TOLERANCE,
            f"max |score - brute force| {worst:.2e} over {corpora} corpora, "
            "label inversion negates exactly",
        )

    def test_criterion_04_pearson_and_threshold(self):
        rng = np.random.default_rng(11)
        s = rng.normal(size=30)
        self_gap = abs(pearson(s, s) - 1.0)
        mirror_gap = abs(pearson(s, -s) + 1.0)
        case_gap = abs(
            pearson(np.array([1.0, 3.0, 2.0, 4.0]), np.array([1.0, 2.0, 3.0, 4.0]))
            - 0.8
        )
        start = date(2012, 1, 2)
        table = _price_table(
            [
                PriceSeries(
                    ticker="AAA",
                    dates=tuple(start + timedelta(days=i) for i in range(4)),
                    closes=np.array([1.0, 3.0, 2.0, 4.0]),
                ),
                PriceSeries(
                    ticker="BBB",
                    dates=tuple(start + timedelta(days=i) for i in range(4)),
                    closes=np.array([1.0, 2.0, 3.0, 4.0]),
                ),
            ]
        )
        at_threshold = build_graph(
            table, ["AAA", "BBB"], None, threshold=0.8, min_overlap=2
        ).edge_count()
        below_threshold = build_graph(
            table, ["AAA", "BBB"], None, threshold=0.79, min_overlap=2
        ).edge_count()
        _report(
            "criterion 4, pearson and threshold",
            max(self_gap, mirror_gap, case_gap) <= PEARSON_TOLERANCE
            and at_threshold == 0
            and below_threshold == 1,
            f"identity/mirror/0.8-case gaps {self_gap:.1e}/{mirror_gap:.1e}/"
            f"{case_gap:.1e}, rho exactly at threshold makes no edge",
        )

    def test_criterion_05_propagation_oracle(self):
        rng = np.random.default_rng(23)
        n = 10
        nodes = [f"T{i:02d}" for i in range(n)]
        worst = 0.0
        graphs = 100
        for trial in range(graphs):
            dense = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.3:
                        dense[i, j] = dense[j, i] = rng.uniform(-1.0, 1.0)
            graph = CorrelationGraph(
                nodes=nodes, weights=dense, threshold=0.8, min_overlap=2
            )
            observed = rng.random(n) < 0.5
            values = np.where(observed, rng.uniform(-1.0, 1.0, size=n), 0.0)
            iterations = trial % 3 + 1
            clamp = trial % 2 == 0
            seeded = np.flatnonzero(observed)
            propagated = propagate(
                graph,
                [DAY] * len(seeded),
                [nodes[i] for i in seeded],
                values[seeded],
                iterations=iterations,
                clamp_observed=clamp,
            )
            expected = values.copy()
            for _ in range(iterations):
                expected = dense @ expected
                if clamp:
                    expected[observed] = values[observed]
            expected = np.clip(expected, -1.0, 1.0)
            got = propagated.values[0] if seeded.size else np.zeros(n)
            worst = max(worst, float(np.abs(got - expected).max()))
        _report(
            "criterion 5, propagation oracle",
            worst <= PROPAGATION_TOLERANCE,
            f"max |propagate - per-vector oracle| {worst:.2e} over {graphs} graphs, "
            "1-3 iterations, with and without clamping",
        )

    def test_criterion_06_subject_heuristic(self):
        text = "Apple rose while Samsung and Microsoft fell"
        mentions = (("AAPL", 0), ("SSNLF", 17), ("MSFT", 29))
        lexicon = KeywordLexicon(
            [KeywordEntry(word="rose", seed=True, similarity=1.0, df=1, idf=1.0, ps=0.7)]
        )
        categories = CategoryLexicon(["energy"], [CategoryEntry("energy", "oil", True, 1.0)])
        closes = np.linspace(10.0, 12.0, 10)
        dates = tuple(date(2012, 1, 2) + timedelta(days=i) for i in range(10))
        table = _price_table(
            [PriceSeries(t, dates, closes) for t in ("AAPL", "SSNLF", "MSFT")]
        )
        stats = training_stats(table, DateRange(date(2012, 1, 1), date(2012, 12, 31)))
        signs = {}
        for target in ("AAPL", "SSNLF", "MSFT"):
            sample = _sample(target, text, POSITIVE, mentions)
            full, _ = featurize_samples([sample], table, stats, lexicon, categories)
            signs[target] = float(dense(full, ["ps"])[0, 0])
        sentence = Sentence(text=text, article_date=DAY, mentions=mentions)
        _report(
            "criterion 6, subject heuristic",
            signs["AAPL"] == 0.7
            and signs["SSNLF"] == -0.7
            and signs["MSFT"] == -0.7
            and subject_of_keyword(sentence, "AAPL", text.index("rose"))
            and not subject_of_keyword(sentence, "MSFT", text.index("rose")),
            "subject target keeps the keyword sign, the two non-subject "
            "targets flip it",
        )

    def test_criterion_07_news_features_beat_price_alone(self, pipeline):
        errors = _ablation_errors(pipeline["work_dirs"][0])
        full = errors["price+bok+ps+ct"]
        price_only = errors["price"]
        seconds = pipeline["seconds"]
        ok = (
            full is not None
            and price_only is not None
            and full <= MAX_FULL_FEATURE_ERROR
            and price_only - full >= MIN_PRICE_ONLY_GAP
            and seconds < PIPELINE_TIME_LIMIT
        )
        _report(
            "criterion 7, news features beat price alone",
            ok,
            f"error(all)={full}, error(price)={price_only}, "
            f"full run in {seconds:.0f}s",
        )

    def test_criterion_08_propagation_sweep(self, pipeline):
        rows = _sweep_rows(pipeline["work_dirs"][0])
        taus = [row[0] for row in rows]
        per_day = [row[2] for row in rows]
        at_08 = next(row[1] for row in rows if row[0] == 0.8)
        monotone = all(a >= b for a, b in zip(per_day, per_day[1:]))
        ok = (
            taus == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
            and at_08 is not None
            and at_08 >= MIN_PROPAGATED_ACCURACY
            and monotone
        )
        _report(
            "criterion 8, propagation sweep",
            ok,
            f"unseen accuracy {at_08} at tau=0.8, predicted/day {per_day} "
            "non-increasing",
        )

    def test_criterion_09_determinism(self, pipeline):
        first, second = pipeline["work_dirs"]
        names = (
            "model.bin",
            "graph.csv",
            "predictions.csv",
            "ablation.csv",
            "ablation.txt",
            "sweep.csv",
            "sweep.txt",
        )
        mismatched = [
            name
            for name in names
            if (first / name).read_bytes() != (second / name).read_bytes()
        ]
        _report(
            "criterion 9, determinism",
            not mismatched,
            f"two runs byte-identical over {len(names)} files"
            + (f", differing: {mismatched}" if mismatched else ""),
        )

    def test_criterion_10_feature_dimension_contract(self, tmp_path):
        words = [
            "".join(letters)
            for letters in itertools.islice(
                itertools.product("abcdefghijklmnopqrstuvwxyz", repeat=3), 1010
            )
        ]
        keywords = KeywordLexicon(
            [
                KeywordEntry(
                    word=w, seed=i < 9, similarity=1.0, df=1, idf=1.0, ps=0.1
                )
                for i, w in enumerate(words[:1000])
            ]
        )
        categories = CategoryLexicon(
            [f"category{i}" for i in range(10)],
            [
                CategoryEntry(f"category{i}", words[1000 + i], True, 1.0)
                for i in range(10)
            ],
        )
        layout = FeatureLayout(("price", "bok", "ps", "ct"), k=1000, n_categories=10)
        table = _price_table(
            [
                PriceSeries(
                    ticker="AAA",
                    dates=tuple(
                        date(2012, 1, 2) + timedelta(days=i) for i in range(10)
                    ),
                    closes=np.linspace(10.0, 12.0, 10),
                )
            ]
        )
        samples = [
            _sample("AAA", f"{words[7]} {words[500]} {words[1003]}", POSITIVE),
            _sample("AAA", f"{words[0]} {words[999]}", NEGATIVE),
        ]
        stats = training_stats(table, DateRange(date(2012, 1, 1), date(2012, 12, 31)))
        matrix, skipped = featurize_samples(samples, table, stats, keywords, categories)
        model = init((layout.dimension, 8, 2), seed=1, layout=layout)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        confidences = predict_batch(loaded, matrix)
        _report(
            "criterion 10, feature dimension contract",
            layout.dimension == FULL_DIMENSION
            and dense(matrix).shape == (2, FULL_DIMENSION)
            and not skipped
            and matrix.layout == layout
            and loaded.layout == layout
            and loaded.layout.dimension == dense(matrix).shape[1]
            and len(confidences) == 2,
            f"k=1000, 10 categories, all blocks: {matrix.layout.dimension} dims, "
            "model layout round-trips",
        )


class TestEmbeddingOnFixture:
    """Skip-gram checks on the artifacts of the shared fixture run."""

    def test_pair_arrays_keep_nested_loop_order(self, pipeline):
        work = pipeline["work_dirs"][0]
        with (work / "corpus.txt").open(encoding="utf-8") as fh:
            sentences = [tokens for tokens in map(tokenize, fh) if tokens]
        words = load_embeddings(work / "embeddings.bin").words
        index = {w: i for i, w in enumerate(words)}
        window = 3
        expected_centers, expected_contexts = [], []
        for sentence in sentences:
            ids = [index[t] for t in sentence if t in index]
            for pos, center in enumerate(ids):
                lo, hi = max(0, pos - window), min(len(ids), pos + window + 1)
                for ctx_pos in range(lo, hi):
                    if ctx_pos != pos:
                        expected_centers.append(center)
                        expected_contexts.append(ids[ctx_pos])
        centers, contexts = _pair_arrays(sentences, index, window)
        assert centers.tolist() == expected_centers
        assert contexts.tolist() == expected_contexts

    def test_planted_verbs_rank_right_after_the_seeds(self, pipeline):
        entries = load_keyword_lexicon(pipeline["work_dirs"][0] / "keywords.csv").entries
        head = [e.word for e in entries[:9]]
        planted = entries[9:14]
        next_score = entries[14].similarity
        ok = (
            set(head) == set(SEED_WORDS)
            and all(e.seed for e in entries[:9])
            and {e.word for e in planted} == set(PLANTED_VERBS)
            and all(e.similarity >= MIN_PLANTED_SIMILARITY for e in planted)
            and next_score < MAX_NEXT_SIMILARITY
        )
        _report(
            "lexicon ranking",
            ok,
            f"seeds {head}, ranks 10-14 "
            f"{[(e.word, round(e.similarity, 4)) for e in planted]}, "
            f"rank 15 {entries[14].word} at {next_score:.4f}",
        )


# Runs two stages that must skip, then checks what they imported.
_SKIPPING = """\
import sys
from newsmotion import cli
for stage in ("ingest", "train"):
    assert cli.main([stage, "--config", sys.argv[1]]) == 0, stage
loaded = sorted(name for name in sys.modules if name.startswith("newsmotion."))
assert "numpy" not in sys.modules, f"numpy imported; newsmotion modules {loaded}"
assert "importlib.metadata" not in sys.modules, "importlib.metadata imported"
"""


class TestCachedRerun:
    """A rerun over the shared fixture run's finished work dir."""

    def test_skipped_stages_import_no_numpy(self, pipeline):
        config = pipeline["work_dirs"][0].parent / "pipeline.ini"
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _SKIPPING, str(config)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        for unit in ("ingest", "train"):
            assert f"{unit}: artifacts up to date, skipping" in done.stderr
