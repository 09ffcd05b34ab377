"""Command-line pipeline driver: runs one stage per call.

``UNITS`` lists each cache unit once: the stage it belongs to, the config
sections and fields its cache key hashes, its inputs and outputs, and the
body that does its work. One runner does the rest for every unit. It
first deletes the temporary files a killed run of the unit left, and the
unit's store entries past ``[pipeline] store_entries``. It requires the
inputs, and it reads a work-dir input only while the unit that made it,
and every unit above that one, is up to date under the current config.
It skips the unit when its own manifest is still up to date. Otherwise,
when the work dir's store holds the unit's outputs for its current
config key, inputs and versions, it copies them back with their
manifest; failing that, it runs the body against temporary outputs,
moves them into place, writes the manifest and stores both. Once the
unit has run or restored, it deletes the work-dir files of an older
format that the unit's outputs replaced. ``ingest`` has two units:
``prices`` parses and checks the price CSV into ``prices.bin``, which
every later price reader loads, and ``ingest`` makes the samples.
``evaluate`` has two, the ablation and the sweep.
Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import importlib
import logging
import sys
from operator import attrgetter
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .config import PACKAGED, PipelineConfig, load_config
from .dates import DateRange
from .errors import (
    ConfigError,
    MissingArtifactError,
    ParseError,
    PipelineError,
    ValidationError,
)
from .manifest import (
    Digests,
    manifest_path,
    prune,
    remove_leftovers,
    replacing,
    restore,
    store,
    text_sha256,
    up_to_date,
    work_dir_lock,
    write_manifest,
)
from .record import Record

# The stage functions a body calls that perfbench's tracer wraps on this
# module, by the module that owns them: a body reads each as an attribute
# of this module (`_here.train`), so a wrapper or a test's patch set here is
# the one every body calls. Every other stage name is called through its
# own module, which the body imports when it starts; `evaluation`'s own
# calls are wrapped on `evaluation`. The stage modules load numpy, so this
# module imports none of them: the module `__getattr__` (PEP 562) imports a
# listed name's module on first use. The table goes once perfbench wraps the
# stage modules themselves (ROADMAP direction 8).
_STAGE_NAMES = {
    "synth": ("generate_synthetic_fixture",),
    "ingest": ("load_prices",),
    "sampling": ("extract_sentences", "build_samples"),
    "embedding": ("train_skipgram",),
    "lexicon": ("build_keyword_lexicon", "build_category_lexicon"),
    "features": ("featurize_samples",),
    "mlp": ("train",),
    "graph": ("build_graph",),
    "evaluation": ("run_ablation", "run_propagation_sweep"),
}


_OWNER = {name: module for module, names in _STAGE_NAMES.items() for name in names}


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(importlib.import_module(f".{_OWNER[name]}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# This module as run: `__main__` under `python -m newsmotion.cli`, where
# `from . import cli` would load a second copy.
_here = sys.modules[__name__]

logger = logging.getLogger(__name__)

_SPLITS = ("train", "valid", "test")

SKIPPED_HEADER = "split,ticker,date,reason"


def _synth(config, inputs, outputs) -> None:
    summary = _here.generate_synthetic_fixture(
        config.synth, outputs["articles"], outputs["prices"], outputs["aliases"]
    )
    logger.info(
        "synth: %d tickers over %d trading days, %d articles, about %d samples",
        summary.tickers,
        summary.trading_days,
        summary.articles,
        summary.expected_samples,
    )


def _prices(config, inputs, outputs) -> None:
    from . import ingest
    ingest.write_price_table(_here.load_prices(inputs["prices"]), outputs["prices.bin"])


def _ingest(config, inputs, outputs) -> None:
    from . import ingest, sampling
    matcher = sampling.AliasMatcher(sampling.load_aliases(inputs["aliases"]))
    prices = ingest.load_price_table(inputs["prices.bin"])
    # in (date, id) order, so no output depends on the order of the file's lines
    articles = sorted(
        ingest.load_articles(inputs["articles"]), key=lambda a: (a.date, a.id)
    )
    abbreviations = sampling.load_abbreviations(inputs["abbreviations"])
    sentences = _here.extract_sentences(articles, matcher, abbreviations)
    samples = _here.build_samples(sentences, prices)
    split = sampling.split_by_date(
        samples, config.dates.train_end, config.dates.valid_end
    )
    for name, rows in zip(_SPLITS, (split.train, split.validation, split.test)):
        sampling.write_samples(rows, outputs[f"samples_{name}.jsonl"])
    with outputs["corpus.txt"].open("w", encoding="utf-8", newline="\n") as fh:
        for sentence in sentences:
            if sentence.article_date <= config.dates.train_end:
                # Reading text mode splits lines at "\r" too.
                text = sentence.text.replace("\r", " ").replace("\n", " ")
                fh.write(text + "\n")
    logger.info(
        "ingest: %d mention sentences; %d/%d/%d train/valid/test samples",
        len(sentences),
        len(split.train),
        len(split.validation),
        len(split.test),
    )


def _embed(config, inputs, outputs) -> None:
    from . import embedding
    from .tokens import tokenize
    with inputs["corpus.txt"].open("r", encoding="utf-8") as fh:
        sentences = [tokens for tokens in (tokenize(line) for line in fh) if tokens]
    table = _here.train_skipgram(sentences, config.embedding)
    embedding.save_embeddings(table, outputs["embeddings.bin"])
    logger.info(
        "embed: %d sentences -> %d words x %d dims",
        len(sentences),
        len(table),
        table.dimension,
    )


def _lexicon(config, inputs, outputs) -> None:
    from . import embedding, lexicon, sampling
    table = embedding.load_embeddings(inputs["embeddings.bin"])
    train_samples = sampling.load_samples(inputs["samples_train.jsonl"])
    keywords = _here.build_keyword_lexicon(
        table, train_samples, k=config.lexicon.keywords
    )
    category_seeds = lexicon.load_category_seeds(inputs["category_seeds"])
    categories = _here.build_category_lexicon(
        table, category_seeds, m=config.lexicon.category_words
    )
    lexicon.write_keyword_lexicon(keywords, outputs["keywords.csv"])
    lexicon.write_category_lexicon(categories, outputs["categories.csv"])
    logger.info(
        "lexicon: %d keywords, %d categories x up to %d words",
        len(keywords),
        len(categories.categories),
        config.lexicon.category_words,
    )


def _featurize(config, inputs, outputs) -> None:
    from . import codec, features, ingest, lexicon, sampling
    keywords = lexicon.load_keyword_lexicon(inputs["keywords.csv"])
    categories = lexicon.load_category_lexicon(inputs["categories.csv"])
    prices = ingest.load_price_table(inputs["prices.bin"])
    stats = features.training_stats(
        prices, DateRange(config.dates.train_start, config.dates.train_end)
    )
    skipped_rows: list[tuple[str, str, str, str]] = []
    for split_name in _SPLITS:
        samples = sampling.load_samples(inputs[f"samples_{split_name}.jsonl"])
        matrix, skipped = _here.featurize_samples(
            samples, prices, stats, keywords, categories
        )
        features.write_feature_matrix(matrix, outputs[f"features_{split_name}.bin"])
        skipped_rows.extend((split_name, t, d.isoformat(), why) for t, d, why in skipped)
        logger.info(
            "featurize: %s split %d rows x %d dims, %d skipped",
            split_name,
            len(matrix),
            matrix.layout.dimension,
            len(skipped),
        )
        # Freed before the next split loads, so no two splits are held.
        del samples, matrix
    codec.write_table(outputs["skipped.csv"], SKIPPED_HEADER, skipped_rows)


def _train(config, inputs, outputs) -> None:
    from . import features, mlp
    model = _here.train(
        features.load_feature_matrix(inputs["features_train.bin"]),
        features.load_feature_matrix(inputs["features_valid.bin"]),
        config.training,
    )
    mlp.save_model(model, outputs["model.bin"])
    meta = model.metadata
    best, run, epochs = meta["best_epoch"], meta["epochs_run"], config.training.epochs
    logger.info(
        "train: %s, best epoch %d, validation error %.4f",
        f"stopped early after {run} of {epochs} epochs"
        if run < epochs
        else f"{run} epochs",
        best,
        # no epoch is best when none ran
        meta["validation_errors"][best] if best >= 0 else float("nan"),
    )


def _graph(config, inputs, outputs) -> None:
    from . import graph, ingest
    prices = ingest.load_price_table(inputs["prices.bin"])
    g = _here.build_graph(
        prices,
        list(prices),
        window=config.graph.window,
        threshold=config.graph.threshold,
        min_overlap=config.graph.min_overlap,
    )
    graph.write_graph(g, outputs["graph.csv"])
    logger.info("graph: %d nodes, %d edges", len(g), g.edge_count())


def _predict(config, inputs, outputs) -> None:
    from . import evaluation, features, graph, mlp
    model = mlp.load_model(inputs["model.bin"])
    test_matrix = features.load_feature_matrix(inputs["features_test.bin"])
    g = graph.load_graph(inputs["graph.csv"])
    confidences, p, (emitted,) = evaluation.emissions(
        model,
        test_matrix,
        g,
        (config.sweep.predict_tau,),
        config.graph.iterations,
        config.graph.clamp_observed,
    )
    rows = [
        (d, t, graph.DNN, float(c))
        for d, t, c in zip(test_matrix.dates, test_matrix.tickers, confidences)
    ]
    rows.extend(
        (p.dates[r], g.nodes[c], graph.PROPAGATED, float(p.values[r, c]))
        for r, c in zip(*emitted.nonzero())
    )
    graph.write_predictions(rows, outputs["predictions.csv"])
    logger.info(
        "predict: %d dnn and %d propagated predictions over %d dates",
        len(test_matrix),
        int(emitted.sum()),
        len(set(test_matrix.dates)),
    )


def _ablation(config, inputs, outputs) -> None:
    from . import evaluation, features
    ablation = _here.run_ablation(
        features.load_feature_matrix(inputs["features_train.bin"]),
        features.load_feature_matrix(inputs["features_valid.bin"]),
        features.load_feature_matrix(inputs["features_test.bin"]),
        evaluation.DEFAULT_COMBINATIONS,
        config.training,
        full_model=inputs["model.bin"],
    )
    evaluation.write_ablation_report(ablation, outputs["ablation.csv"])
    text = evaluation.render_ablation(ablation)
    outputs["ablation.txt"].write_text(text, encoding="utf-8")


def _sweep(config, inputs, outputs) -> None:
    from . import evaluation, features, graph, ingest, mlp
    sweep = _here.run_propagation_sweep(
        features.load_feature_matrix(inputs["features_test.bin"]),
        mlp.load_model(inputs["model.bin"]),
        graph.load_graph(inputs["graph.csv"]),
        ingest.load_price_table(inputs["prices.bin"]),
        config.sweep.taus,
        iterations=config.graph.iterations,
        clamp_observed=config.graph.clamp_observed,
    )
    evaluation.write_sweep_report(sweep, outputs["sweep.csv"])
    outputs["sweep.txt"].write_text(evaluation.render_sweep(sweep), encoding="utf-8")


class Unit(Record):
    """One cache unit of a stage, with its own manifest: a frozen record.

    ``sections`` make up its cache key: each names a whole section, or
    one field as ``section.field``; [paths] never does, as the files are
    content-hashed. ``inputs`` and ``outputs`` name work-dir artifacts,
    config paths as ``paths.<key>``, or files the package ships as
    ``data.<key>``. ``body(config, inputs, outputs)``
    gets them keyed as in the manifest and writes every output it is
    given; the runner owns skipping, renaming and the manifest.
    ``report`` is an output that the stage prints whether the unit ran or
    skipped. ``revision`` counts the changes to what the body writes from
    unchanged inputs and sections; a non-zero one joins the cache key, so
    outputs of an older revision are remade once. ``retired`` names
    work-dir files of an older format that the outputs replace; the
    runner deletes them once the unit has run or restored.
    """

    stage: str
    sections: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    body: Callable[..., None]
    report: str | None = None
    revision: int = 0
    retired: tuple[str, ...] = ()


_SAMPLES = ("samples_train.jsonl", "samples_valid.jsonl", "samples_test.jsonl")
_FEATURES = ("features_train.bin", "features_valid.bin", "features_test.bin")
_FIXTURE = ("paths.articles", "paths.prices", "paths.aliases")
_PROPAGATION = ("graph.iterations", "graph.clamp_observed")

# ingest has two units, so a dates change does not remake prices.bin, and
# evaluate has two, so a sweep or graph change does not retrain the
# ablation. Both evaluate units retire evaluate.manifest.json, the
# manifest of the single unit evaluate had before.
UNITS = {
    "synth": Unit("synth", ("synth",), (), _FIXTURE, _synth),
    # revision 1: prices.bin's header names its arrays' dtypes
    "prices": Unit(
        "ingest", (), ("paths.prices",), ("prices.bin",), _prices, revision=1
    ),
    # revision 1: each sample sentence keeps its mentions; revision 2: a
    # "\r" in a sentence becomes a space in corpus.txt, as "\n" does;
    # revision 3: an alias is stripped of surrounding whitespace; revision
    # 4: the articles are read in (date, id) order, not in file order
    "ingest": Unit(
        "ingest",
        ("dates.train_end", "dates.valid_end"),
        ("paths.articles", "prices.bin", "paths.aliases", "data.abbreviations"),
        (*_SAMPLES, "corpus.txt"),
        _ingest,
        revision=4,
    ),
    # embeddings.txt: the word2vec text file that embeddings.bin replaced
    "embed": Unit(
        "embed",
        ("embedding",),
        ("corpus.txt",),
        ("embeddings.bin",),
        _embed,
        retired=("embeddings.txt",),
    ),
    "lexicon": Unit(
        "lexicon",
        ("lexicon",),
        ("samples_train.jsonl", "embeddings.bin", "paths.category_seeds"),
        ("keywords.csv", "categories.csv"),
        _lexicon,
    ),
    # revision 1: the rows are stored as a bit mask plus their values
    "featurize": Unit(
        "featurize",
        ("dates.train_start", "dates.train_end"),
        (*_SAMPLES, "keywords.csv", "categories.csv", "prices.bin"),
        (*_FEATURES, "skipped.csv"),
        _featurize,
        revision=1,
    ),
    # revisions of train and ablation: 1, training computes in float32; 2,
    # activations are feature-major and validation scores in float32; 3,
    # model.bin stores the float32 weights as <f4
    "train": Unit(
        "train",
        ("training",),
        ("features_train.bin", "features_valid.bin"),
        ("model.bin",),
        _train,
        revision=3,
    ),
    "graph": Unit(
        "graph",
        ("graph.threshold", "graph.min_overlap", "graph.window_start", "graph.window_end"),
        ("prices.bin",),
        ("graph.csv",),
        _graph,
    ),
    "predict": Unit(
        "predict",
        (*_PROPAGATION, "sweep.predict_tau"),
        ("model.bin", "features_test.bin", "graph.csv"),
        ("predictions.csv",),
        _predict,
    ),
    "ablation": Unit(
        "evaluate",
        ("training",),
        (*_FEATURES, "model.bin"),
        ("ablation.csv", "ablation.txt"),
        _ablation,
        report="ablation.txt",
        revision=3,
        retired=("evaluate.manifest.json",),
    ),
    "sweep": Unit(
        "evaluate",
        (*_PROPAGATION, "sweep.taus"),
        ("features_test.bin", "model.bin", "graph.csv", "prices.bin"),
        ("sweep.csv", "sweep.txt"),
        _sweep,
        report="sweep.txt",
        retired=("evaluate.manifest.json",),
    ),
}

# The unit that makes each work-dir artifact; paths.* files are user data.
_PRODUCER = {
    name: unit
    for unit, spec in UNITS.items()
    for name in spec.outputs
    if not name.startswith("paths.")
}
# The units whose outputs the store keeps, those that make work-dir
# artifacts: synth writes the user's files.
_STORED = set(_PRODUCER.values())

_HELP = {
    "synth": "generate a synthetic articles/prices/aliases fixture",
    "ingest": "check the prices; split articles into samples and the embedding corpus",
    "embed": "train word embeddings on the training corpus",
    "lexicon": "build the keyword and category lexicons",
    "featurize": "build feature matrices for all splits",
    "train": "train the movement classifier",
    "graph": "build the price correlation graph",
    "predict": "emit test-set predictions, direct and propagated",
    "evaluate": "run the feature ablation and the propagation sweep",
}


def _files(config: PipelineConfig, names: Sequence[str]) -> dict[str, Path]:
    """Paths of declared files, keyed as in the manifest.

    A blank ``paths.<key>`` means the packaged file of that key, when the
    package ships one, and otherwise drops out.
    """
    files = {}
    for name in names:
        if name.startswith("paths."):
            name = name.removeprefix("paths.")
            path = getattr(config.paths, name) or PACKAGED.get(name)
        elif name.startswith("data."):
            name = name.removeprefix("data.")
            path = PACKAGED[name]
        else:
            path = config.paths.work_dir / name
        if path is not None:
            files[name] = path
    return files


def _stage_key(config: PipelineConfig, unit: str) -> str:
    """Hash of the config sections and fields the unit declares in ``UNITS``."""
    spec = UNITS[unit]
    parts = []
    for entry in spec.sections:
        value = attrgetter(entry)(config)
        parts.append(f"{entry}={value!r}" if "." in entry else repr(value))
    if spec.revision:
        parts.append(f"revision {spec.revision}")
    return text_sha256("\n".join(parts))


def _stale(
    config: PipelineConfig, unit: str, digests: Digests, answers: dict[str, str | None]
) -> str | None:
    """The most upstream unit, from ``unit`` up, that is not up to date, or None.

    A manifest vouches for its outputs only while every unit above it is
    up to date too; ``paths.*`` files end the walk. ``answers`` keeps each
    unit's result for the run.
    """
    if unit not in answers:
        spec = UNITS[unit]
        producers = [_PRODUCER[name] for name in spec.inputs if name in _PRODUCER]
        above = (_stale(config, p, digests, answers) for p in producers)
        answers[unit] = next(filter(None, above), None)
        if answers[unit] is None and not up_to_date(
            config.paths.work_dir,
            unit,
            _files(config, spec.inputs),
            _files(config, spec.outputs),
            _stage_key(config, unit),
            digests,
        ):
            answers[unit] = unit
    return answers[unit]


def _run_unit(
    config: PipelineConfig, unit: str, force: bool, digests: Digests, answers: dict
):
    spec = UNITS[unit]
    work_dir = config.paths.work_dir
    outputs = _files(config, spec.outputs)
    entries = config.pipeline.store_entries if unit in _STORED else 0
    # The lock rules out a live writer, so any temporary file of the
    # unit's is a killed run's, whether the unit now runs or skips.
    remove_leftovers([*outputs.values(), manifest_path(work_dir, unit)])
    prune(work_dir, unit, entries)
    inputs = _files(config, spec.inputs)
    for name, path in inputs.items():
        producer = _PRODUCER.get(name)
        if not path.is_file():
            if producer is None:
                raise ValidationError(f"input file {path} not found (paths.{name})")
            raise MissingArtifactError(path, UNITS[producer].stage)
        stale = producer and _stale(config, producer, digests, answers)
        if stale:
            raise ValidationError(
                f"{name}: {stale} is not up to date; rerun {UNITS[stale].stage}"
            )
    if not force and _stale(config, unit, digests, answers) is None:
        logger.info("%s: artifacts up to date, skipping", unit)
        return
    key = _stage_key(config, unit)
    if not force and entries and restore(work_dir, unit, inputs, outputs, key, digests):
        logger.info("%s: restored from the store", unit)
    else:
        with replacing(outputs) as temporary:
            spec.body(config, inputs, temporary)
        write_manifest(work_dir, unit, inputs, outputs, key, digests)
        if entries:
            store(work_dir, unit, outputs, entries)
    for name in spec.retired:
        (work_dir / name).unlink(missing_ok=True)
    # A later unit of the stage may read what this one just wrote.
    answers[unit] = None


def _run_stage(config: PipelineConfig, stage: str, force: bool) -> int:
    # One run hashes each file once and checks each upstream unit once.
    digests, answers = Digests(), {}
    for unit, spec in UNITS.items():
        if spec.stage == stage:
            _run_unit(config, unit, force, digests, answers)
            if spec.report is not None:
                report = config.paths.work_dir / spec.report
                print(report.read_text(encoding="utf-8"), end="")
    return 0


def _parser() -> argparse.ArgumentParser:
    stages = dict.fromkeys(spec.stage for spec in UNITS.values())
    width = max(map(len, stages))
    parser = argparse.ArgumentParser(
        prog="newsmotion",
        description="news-driven next-day stock movement prediction pipeline",
        epilog="stages:\n"
        + "".join(f"  {stage:<{width}}  {_HELP[stage]}\n" for stage in stages),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "stage", choices=stages, metavar="<stage>", help="the stage to run, listed below"
    )
    parser.add_argument(
        "--config", required=True, metavar="PATH", help="pipeline config file"
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        metavar="SECTION.KEY=VALUE",
        help="override a config value; repeatable, wins over the file",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="rerun even when the stage's artifacts are up to date",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
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
            return _run_stage(config, args.stage, args.force)
    except (ConfigError, ValidationError, ParseError, MissingArtifactError) as exc:
        logger.error("%s", exc)
        return 1
    except (PipelineError, OSError) as exc:
        logger.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
