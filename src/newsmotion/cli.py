"""Command-line pipeline driver: one subcommand per stage.

Each stage reads its declared inputs, writes its artifacts into the work
dir, and records a manifest of content hashes so an unchanged stage is
skipped on rerun; ``evaluate`` keeps one manifest for each of its two
halves, the ablation and the sweep. Exit codes: 0 success, 1 validation
error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from datetime import date as Date
from pathlib import Path
from typing import Sequence

from . import __version__
from .config import PipelineConfig, load_config
from .embedding import load_embeddings, save_embeddings, train_skipgram
from .errors import (
    ConfigError,
    MissingArtifactError,
    ParseError,
    PipelineError,
    ValidationError,
)
from .evaluation import (
    DEFAULT_COMBINATIONS,
    render_ablation,
    render_sweep,
    run_ablation,
    run_propagation_sweep,
    write_ablation_report,
    write_sweep_report,
)
from .features import (
    BLOCK_ORDER,
    FeatureLayout,
    featurize_samples,
    load_feature_matrix,
    write_feature_matrix,
)
from .graph import (
    DNN,
    PROPAGATED,
    Prediction,
    build_graph,
    load_graph,
    propagate,
    threshold_predictions,
    write_graph,
    write_predictions,
)
from .ingest import DateRange, load_articles, load_prices
from .lexicon import (
    build_category_lexicon,
    build_keyword_lexicon,
    load_category_lexicon,
    load_category_seeds,
    load_keyword_lexicon,
    write_category_lexicon,
    write_keyword_lexicon,
)
from .manifest import text_sha256, up_to_date, work_dir_lock, write_manifest
from .mlp import DOWN, UP, load_model, predict_batch, save_model, train
from .sampling import (
    AliasMatcher,
    build_samples,
    extract_sentences,
    load_aliases,
    load_samples,
    split_by_date,
    write_samples,
)
from .synth import generate_synthetic_fixture
from .tokens import tokenize

logger = logging.getLogger(__name__)

# Which stage produces each work-dir artifact, for dependency errors.
_PRODUCERS = {
    "samples_train.jsonl": "ingest",
    "samples_valid.jsonl": "ingest",
    "samples_test.jsonl": "ingest",
    "corpus.txt": "ingest",
    "embeddings.txt": "embed",
    "keywords.csv": "lexicon",
    "categories.csv": "lexicon",
    "features_train.bin": "featurize",
    "features_valid.bin": "featurize",
    "features_test.bin": "featurize",
    "skipped.csv": "featurize",
    "model.bin": "train",
    "graph.csv": "graph",
    "predictions.csv": "predict",
}

def _artifact(config: PipelineConfig, name: str) -> Path:
    return config.paths.work_dir / name


def _require_artifact(config: PipelineConfig, name: str) -> Path:
    path = _artifact(config, name)
    if not path.is_file():
        raise MissingArtifactError(path, _PRODUCERS[name])
    return path


def _require_input(path: Path, key: str) -> Path:
    if not path.is_file():
        raise ValidationError(f"input file {path} not found (paths.{key})")
    return path


def _stage_key(config: PipelineConfig, unit: str) -> str:
    """Hash of the config sections the cache unit declares in ``_COMMANDS``."""
    (sections,) = (
        s for _, _, units, _ in _COMMANDS for name, s in units.items() if name == unit
    )
    return text_sha256("\n".join(repr(getattr(config, s)) for s in sections))


def _skip(config, unit, inputs, outputs, force: bool) -> bool:
    if force:
        return False
    if up_to_date(
        config.paths.work_dir, unit, inputs, outputs, _stage_key(config, unit)
    ):
        logger.info("%s: artifacts up to date, skipping", unit)
        return True
    return False


def _finish(config, unit, inputs, outputs) -> int:
    write_manifest(
        config.paths.work_dir, unit, inputs, outputs, _stage_key(config, unit)
    )
    return 0


def _matcher(config: PipelineConfig) -> AliasMatcher:
    return AliasMatcher(load_aliases(config.paths.aliases))


def _price_table(config: PipelineConfig):
    window = DateRange(config.dates.train_start, config.dates.train_end)
    return load_prices(config.paths.prices, window)


def cmd_synth(config: PipelineConfig, force: bool) -> int:
    paths = config.paths
    inputs: dict[str, Path] = {}
    outputs = {key: getattr(paths, key) for key in ("articles", "prices", "aliases")}
    if _skip(config, "synth", inputs, outputs, force):
        return 0
    summary = generate_synthetic_fixture(config.synth, paths.articles.parent)
    for src, dst in (
        (summary.articles_path, paths.articles),
        (summary.prices_path, paths.prices),
        (summary.aliases_path, paths.aliases),
    ):
        if src != dst:
            dst.parent.mkdir(parents=True, exist_ok=True)
            src.replace(dst)
    logger.info(
        "synth: %d tickers over %d trading days, %d articles, about %d samples",
        summary.tickers,
        summary.trading_days,
        summary.articles,
        summary.expected_samples,
    )
    return _finish(config, "synth", inputs, outputs)


def cmd_ingest(config: PipelineConfig, force: bool) -> int:
    inputs = {
        key: _require_input(getattr(config.paths, key), key)
        for key in ("articles", "prices", "aliases")
    }
    outputs = {
        name: _artifact(config, name)
        for name in (
            "samples_train.jsonl",
            "samples_valid.jsonl",
            "samples_test.jsonl",
            "corpus.txt",
        )
    }
    if _skip(config, "ingest", inputs, outputs, force):
        return 0
    matcher = _matcher(config)
    prices = _price_table(config)
    sentences = extract_sentences(load_articles(config.paths.articles), matcher)
    samples = build_samples(sentences, prices)
    split = split_by_date(samples, config.dates.train_end, config.dates.valid_end)
    write_samples(split.train, outputs["samples_train.jsonl"])
    write_samples(split.validation, outputs["samples_valid.jsonl"])
    write_samples(split.test, outputs["samples_test.jsonl"])
    with outputs["corpus.txt"].open("w", encoding="utf-8", newline="\n") as fh:
        for sentence in sentences:
            if sentence.article_date <= config.dates.train_end:
                fh.write(sentence.text.replace("\n", " ") + "\n")
    logger.info(
        "ingest: %d mention sentences; %d/%d/%d train/valid/test samples",
        len(sentences),
        len(split.train),
        len(split.validation),
        len(split.test),
    )
    return _finish(config, "ingest", inputs, outputs)


def cmd_embed(config: PipelineConfig, force: bool) -> int:
    corpus_path = _require_artifact(config, "corpus.txt")
    inputs = {"corpus.txt": corpus_path}
    outputs = {"embeddings.txt": _artifact(config, "embeddings.txt")}
    if _skip(config, "embed", inputs, outputs, force):
        return 0
    with corpus_path.open("r", encoding="utf-8") as fh:
        sentences = [tokens for tokens in (tokenize(line) for line in fh) if tokens]
    table = train_skipgram(sentences, config.embedding)
    save_embeddings(table, outputs["embeddings.txt"])
    logger.info(
        "embed: %d sentences -> %d words x %d dims",
        len(sentences),
        len(table),
        table.dimension,
    )
    return _finish(config, "embed", inputs, outputs)


def cmd_lexicon(config: PipelineConfig, force: bool) -> int:
    samples_path = _require_artifact(config, "samples_train.jsonl")
    embeddings_path = _require_artifact(config, "embeddings.txt")
    inputs = {
        "samples_train.jsonl": samples_path,
        "embeddings.txt": embeddings_path,
        "aliases": _require_input(config.paths.aliases, "aliases"),
    }
    category_seeds_path = config.paths.category_seeds
    if category_seeds_path is not None:
        inputs["category_seeds"] = _require_input(category_seeds_path, "category_seeds")
    outputs = {
        "keywords.csv": _artifact(config, "keywords.csv"),
        "categories.csv": _artifact(config, "categories.csv"),
    }
    if _skip(config, "lexicon", inputs, outputs, force):
        return 0
    table = load_embeddings(embeddings_path)
    train_samples = load_samples(samples_path, _matcher(config))
    keywords = build_keyword_lexicon(table, train_samples, k=config.lexicon.keywords)
    category_seeds = load_category_seeds(category_seeds_path)
    categories = build_category_lexicon(
        table, category_seeds, m=config.lexicon.category_words
    )
    write_keyword_lexicon(keywords, outputs["keywords.csv"])
    write_category_lexicon(categories, outputs["categories.csv"])
    logger.info(
        "lexicon: %d keywords, %d categories x up to %d words",
        len(keywords),
        len(categories.categories),
        config.lexicon.category_words,
    )
    return _finish(config, "lexicon", inputs, outputs)


def cmd_featurize(config: PipelineConfig, force: bool) -> int:
    inputs = {
        name: _require_artifact(config, name)
        for name in (
            "samples_train.jsonl",
            "samples_valid.jsonl",
            "samples_test.jsonl",
            "keywords.csv",
            "categories.csv",
        )
    }
    inputs["prices"] = _require_input(config.paths.prices, "prices")
    inputs["aliases"] = _require_input(config.paths.aliases, "aliases")
    outputs = {
        name: _artifact(config, name)
        for name in (
            "features_train.bin",
            "features_valid.bin",
            "features_test.bin",
            "skipped.csv",
        )
    }
    if _skip(config, "featurize", inputs, outputs, force):
        return 0
    keywords = load_keyword_lexicon(inputs["keywords.csv"])
    categories = load_category_lexicon(inputs["categories.csv"])
    layout = FeatureLayout(
        blocks=BLOCK_ORDER, k=len(keywords), n_categories=len(categories.categories)
    )
    prices = _price_table(config)
    matcher = _matcher(config)
    all_skipped: list[tuple[str, str, Date, str]] = []
    for split_name in ("train", "valid", "test"):
        samples = load_samples(inputs[f"samples_{split_name}.jsonl"], matcher)
        matrix, skipped = featurize_samples(samples, prices, keywords, categories, layout)
        write_feature_matrix(matrix, outputs[f"features_{split_name}.bin"])
        all_skipped.extend((split_name, t, d, reason) for t, d, reason in skipped)
        logger.info(
            "featurize: %s split %d rows x %d dims, %d skipped",
            split_name,
            len(matrix),
            layout.dimension,
            len(skipped),
        )
    with outputs["skipped.csv"].open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("split,ticker,date,reason\n")
        for split_name, ticker, d, reason in all_skipped:
            fh.write(f"{split_name},{ticker},{d.isoformat()},{reason}\n")
    return _finish(config, "featurize", inputs, outputs)


def _train_files(config: PipelineConfig) -> tuple[dict, dict]:
    """Inputs and outputs of the ``train`` stage."""
    inputs = {
        name: _require_artifact(config, name)
        for name in ("features_train.bin", "features_valid.bin")
    }
    return inputs, {"model.bin": _artifact(config, "model.bin")}


def cmd_train(config: PipelineConfig, force: bool) -> int:
    inputs, outputs = _train_files(config)
    if _skip(config, "train", inputs, outputs, force):
        return 0
    train_matrix = load_feature_matrix(inputs["features_train.bin"])
    valid_matrix = load_feature_matrix(inputs["features_valid.bin"])
    model = train(train_matrix, valid_matrix, config.training)
    save_model(model, outputs["model.bin"])
    meta = model.metadata
    errors = meta.get("validation_errors", [])
    best = meta.get("best_epoch", -1)
    logger.info(
        "train: %d epochs, best epoch %d, validation error %.4f",
        meta.get("epochs_run", 0),
        best,
        errors[best] if 0 <= best < len(errors) else float("nan"),
    )
    return _finish(config, "train", inputs, outputs)


def cmd_graph(config: PipelineConfig, force: bool) -> int:
    inputs = {"prices": _require_input(config.paths.prices, "prices")}
    outputs = {"graph.csv": _artifact(config, "graph.csv")}
    if _skip(config, "graph", inputs, outputs, force):
        return 0
    prices = _price_table(config)
    g = build_graph(
        prices,
        prices.tickers(),
        window=config.graph.window,
        threshold=config.graph.threshold,
        min_overlap=config.graph.min_overlap,
    )
    write_graph(g, outputs["graph.csv"])
    logger.info("graph: %d nodes, %d edges", len(g), g.edge_count())
    return _finish(config, "graph", inputs, outputs)


def cmd_predict(config: PipelineConfig, force: bool) -> int:
    inputs = {
        "model.bin": _require_artifact(config, "model.bin"),
        "features_test.bin": _require_artifact(config, "features_test.bin"),
        "graph.csv": _require_artifact(config, "graph.csv"),
    }
    outputs = {"predictions.csv": _artifact(config, "predictions.csv")}
    if _skip(config, "predict", inputs, outputs, force):
        return 0
    model = load_model(inputs["model.bin"])
    test_matrix = load_feature_matrix(inputs["features_test.bin"])
    if model.layout is not None and model.layout != test_matrix.layout:
        raise ValidationError("model and test matrix feature layouts differ")
    g = load_graph(inputs["graph.csv"])
    labels, confidences = predict_batch(model, test_matrix.x)
    predictions = [
        Prediction(date=d, ticker=t, source=DNN, label=label, confidence=float(c))
        for d, t, label, c in zip(
            test_matrix.dates, test_matrix.tickers, labels, confidences
        )
    ]
    p = propagate(
        g,
        test_matrix.dates,
        test_matrix.tickers,
        confidences,
        config.graph.iterations,
        config.graph.clamp_observed,
    )
    emitted = threshold_predictions(g, p.values, p.observed, config.sweep.predict_tau)
    for r, c in zip(*emitted.nonzero()):
        value = float(p.values[r, c])
        predictions.append(
            Prediction(
                date=p.dates[r],
                ticker=g.nodes[c],
                source=PROPAGATED,
                label=UP if value > 0 else DOWN,
                confidence=value,
            )
        )
    write_predictions(predictions, outputs["predictions.csv"])
    logger.info(
        "predict: %d dnn and %d propagated predictions over %d dates",
        len(test_matrix),
        int(emitted.sum()),
        len(set(test_matrix.dates)),
    )
    return _finish(config, "predict", inputs, outputs)


def _vouched_model(config: PipelineConfig) -> Path | None:
    """model.bin, if the train manifest vouches for it under the current config."""
    inputs, outputs = _train_files(config)
    if up_to_date(
        config.paths.work_dir, "train", inputs, outputs, _stage_key(config, "train")
    ):
        logger.info("ablation: the full row scores model.bin")
        return outputs["model.bin"]
    logger.info("ablation: model.bin is stale, training the full row as well")
    return None


def cmd_evaluate(config: PipelineConfig, force: bool) -> int:
    features = {
        name: _require_artifact(config, name)
        for name in ("features_train.bin", "features_valid.bin", "features_test.bin")
    }
    model_path = _require_artifact(config, "model.bin")
    graph_path = _require_artifact(config, "graph.csv")
    prices_path = _require_input(config.paths.prices, "prices")

    inputs = {**features, "model.bin": model_path}
    outputs = {
        name: _artifact(config, name) for name in ("ablation.csv", "ablation.txt")
    }
    if not _skip(config, "ablation", inputs, outputs, force):
        ablation = run_ablation(
            load_feature_matrix(features["features_train.bin"]),
            load_feature_matrix(features["features_valid.bin"]),
            load_feature_matrix(features["features_test.bin"]),
            DEFAULT_COMBINATIONS,
            config.training,
            full_model=_vouched_model(config),
        )
        write_ablation_report(ablation, outputs["ablation.csv"])
        outputs["ablation.txt"].write_text(render_ablation(ablation), encoding="utf-8")
        _finish(config, "ablation", inputs, outputs)
    print(outputs["ablation.txt"].read_text(encoding="utf-8"), end="")

    inputs = {
        "features_test.bin": features["features_test.bin"],
        "model.bin": model_path,
        "graph.csv": graph_path,
        "prices": prices_path,
    }
    outputs = {name: _artifact(config, name) for name in ("sweep.csv", "sweep.txt")}
    if not _skip(config, "sweep", inputs, outputs, force):
        sweep = run_propagation_sweep(
            load_feature_matrix(features["features_test.bin"]),
            load_model(model_path),
            load_graph(graph_path),
            _price_table(config),
            config.sweep.taus,
            iterations=config.graph.iterations,
            clamp_observed=config.graph.clamp_observed,
        )
        write_sweep_report(sweep, outputs["sweep.csv"])
        outputs["sweep.txt"].write_text(render_sweep(sweep), encoding="utf-8")
        _finish(config, "sweep", inputs, outputs)
    print(outputs["sweep.txt"].read_text(encoding="utf-8"), end="")
    return 0


# (stage, command, {cache unit: config sections it reads}, help). Each
# unit keeps its own manifest, and its sections make up its cache key;
# [paths] never does, as the files are content-hashed. evaluate has two
# units, so a sweep or graph change does not retrain the ablation.
_COMMANDS = (
    (
        "synth",
        cmd_synth,
        {"synth": ("synth",)},
        "generate a synthetic articles/prices/aliases fixture",
    ),
    (
        "ingest",
        cmd_ingest,
        {"ingest": ("dates",)},
        "split articles into labeled samples and the embedding corpus",
    ),
    (
        "embed",
        cmd_embed,
        {"embed": ("embedding",)},
        "train word embeddings on the training corpus",
    ),
    (
        "lexicon",
        cmd_lexicon,
        {"lexicon": ("lexicon",)},
        "build the keyword and category lexicons",
    ),
    (
        "featurize",
        cmd_featurize,
        {"featurize": ("dates",)},
        "build feature matrices for all splits",
    ),
    ("train", cmd_train, {"train": ("training",)}, "train the movement classifier"),
    (
        "graph",
        cmd_graph,
        {"graph": ("dates", "graph")},
        "build the price correlation graph",
    ),
    (
        "predict",
        cmd_predict,
        {"predict": ("graph", "sweep")},
        "emit test-set predictions, direct and propagated",
    ),
    (
        "evaluate",
        cmd_evaluate,
        {"ablation": ("training",), "sweep": ("dates", "graph", "sweep")},
        "run the feature ablation and the propagation sweep",
    ),
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newsmotion",
        description="news-driven next-day stock movement prediction pipeline",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="<stage>")
    for name, func, _, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--config", required=True, metavar="PATH", help="pipeline config file"
        )
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            metavar="SECTION.KEY=VALUE",
            help="override a config value; repeatable, wins over the file",
        )
        p.add_argument(
            "--force",
            action="store_true",
            help="rerun even when the stage's artifacts are up to date",
        )
        p.add_argument("--verbose", action="store_true", help="debug logging")
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = load_config(args.config, args.overrides or ())
        with work_dir_lock(config.paths.work_dir):
            return args.func(config, args.force)
    except (ConfigError, ValidationError, ParseError, MissingArtifactError) as exc:
        logger.error("%s", exc)
        return 1
    except PipelineError as exc:
        logger.error("%s", exc)
        return 2
    except OSError as exc:
        logger.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
