"""End-to-end tests for the command line interface."""

from __future__ import annotations

import ast
import bisect
import inspect
import json
import logging
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from datetime import date
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from newsmotion import cli, evaluation, graph, mlp
from newsmotion.config import TrainConfig, load_config
from newsmotion.embedding import _pair_arrays, load_embeddings
from newsmotion.evaluation import run_propagation_sweep
from newsmotion.features import (
    BLOCK_ORDER,
    INSUFFICIENT_HISTORY,
    UNNORMALIZABLE,
    FeatureLayout,
    load_feature_matrix,
    write_feature_matrix,
)
from newsmotion.graph import DNN, DOWN, PROPAGATED, UP, load_graph
from newsmotion.ingest import Article, load_prices, write_articles
from newsmotion.lexicon import load_keyword_lexicon
from newsmotion.manifest import (
    Digests,
    _entry,
    file_sha256,
    manifest_path,
    text_sha256,
    work_dir_lock,
    write_manifest,
)
from newsmotion.mlp import load_model, save_model
from newsmotion.sampling import NEGATIVE, POSITIVE, load_samples, movement_label
from newsmotion.tokens import tokenize

from support import (
    SMOKE_CONFIG,
    child_env,
    init,
    load_predictions,
    packed,
    shuffle_lines,
    smoke_digests,
    traced_peak,
    work_digests,
)

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

ARTIFACTS = (
    "prices.bin",
    "samples_train.jsonl",
    "samples_valid.jsonl",
    "samples_test.jsonl",
    "corpus.txt",
    "embeddings.bin",
    "keywords.csv",
    "categories.csv",
    "features_train.bin",
    "features_valid.bin",
    "features_test.bin",
    "skipped.csv",
    "model.bin",
    "graph.csv",
    "predictions.csv",
    "ablation.csv",
    "ablation.txt",
    "sweep.csv",
    "sweep.txt",
)


def _write_config(root: Path, text: str = SMOKE_CONFIG) -> Path:
    path = root / "pipeline.ini"
    path.write_text(text)
    return path


def _copy(pipeline: Path, tmp_path: Path) -> Path:
    """A private copy of the finished pipeline run; returns its config."""
    root = tmp_path / "copy"
    shutil.copytree(pipeline, root)
    return root / "pipeline.ini"


def _record(config_path: Path, unit: str, key: str | None = None) -> None:
    """Write ``unit``'s manifest for the files now in place.

    The manifest holds ``key``, by default the unit's current key.
    """
    config = load_config(config_path, ())
    spec = cli.UNITS[unit]
    write_manifest(
        config.paths.work_dir,
        unit,
        cli._files(config, spec.inputs),
        cli._files(config, spec.outputs),
        cli._stage_key(config, unit) if key is None else key,
        Digests(),
    )


def _refused(config: Path, stage: str, caplog, *args: str) -> str:
    """Run ``stage``, which must exit 1; returns the errors it logged."""
    caplog.clear()
    with caplog.at_level(logging.ERROR):
        assert cli.main([stage, "--config", str(config), *args]) == 1, stage
    return caplog.text


# Config properties, by the fields they are computed from.
_PROPERTIES = {"graph.window": {"graph.window_start", "graph.window_end"}}


class _Section:
    """Stands in for one config section and notes each read as ``section.field``."""

    def __init__(self, name, section, read: set[str]):
        self._name = name
        self._section = section
        self._read = read

    def __getattr__(self, field):
        name = f"{self._name}.{field}"
        self._read.update(_PROPERTIES.get(name, {name}))
        return getattr(self._section, field)


class _Recorder:
    """Stands in for a PipelineConfig and notes the fields each cache unit reads.

    ``unit`` is the cache unit whose body is running (see `_watch_bodies`);
    reads outside every body are filed under None.
    """

    def __init__(self, config):
        self._config = config
        self.unit = None
        self.read: dict[str | None, set[str]] = {}

    def __getattr__(self, name):
        read = self.read.setdefault(self.unit, set())
        return _Section(name, getattr(self._config, name), read)


class _Inputs(dict):
    """A unit's inputs mapping that notes each name its body reads."""

    def __init__(self, files, read: set[str]):
        super().__init__(files)
        self.read = read

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)

    def get(self, name, default=None):
        if name in self:
            self.read.add(name)
        return super().get(name, default)


def _watch_bodies(monkeypatch) -> dict[str, set[str]]:
    """Wrap each unit's body; returns the input names each body has read.

    While a body runs, a `_Recorder` config files its reads under the unit.
    """
    read: dict[str, set[str]] = {}

    def watching(unit, body):
        def watched(config, inputs, outputs):
            read[unit] = set()
            recording = isinstance(config, _Recorder)
            if recording:
                config.unit = unit
            try:
                body(config, _Inputs(inputs, read[unit]), outputs)
            finally:
                if recording:
                    config.unit = None

        return watched

    for unit, spec in cli.UNITS.items():
        watched = replace(spec, body=watching(unit, spec.body))
        monkeypatch.setitem(cli.UNITS, unit, watched)
    return read


@pytest.fixture
def trainings(monkeypatch) -> list[int]:
    """Counts the models trained, by the train stage and by the ablation.

    Both train through ``mlp.train_each``, the ablation a group of
    models at a time, so a count of calls would not count models.
    """
    trained: list[int] = []
    train_each = mlp.train_each

    def counting(*args, **kwargs):
        for result in train_each(*args, **kwargs):
            if isinstance(result, mlp.MlpModel):
                trained.append(1)
            yield result

    monkeypatch.setattr(mlp, "train_each", counting)
    monkeypatch.setattr(evaluation, "train_each", counting)
    return trained


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run every stage once on a small synthetic dataset."""
    root = tmp_path_factory.mktemp("cli")
    smoke_digests(root)
    return root


class TestFullPipeline:
    def test_all_artifacts_written(self, pipeline):
        for name in ARTIFACTS:
            assert (pipeline / "work" / name).is_file(), name
        for name in ("articles.jsonl", "prices.csv", "aliases.csv"):
            assert (pipeline / name).is_file(), name

    def test_a_cold_pass_parses_prices_once(self, tmp_path, monkeypatch):
        """Only ingest parses prices.csv; every later reader loads prices.bin."""
        config = _write_config(tmp_path)
        parse, stages = cli.load_prices, []

        def counting(path):
            stages.append(stage)
            return parse(path)

        monkeypatch.setattr(cli, "load_prices", counting)
        for stage in STAGES:
            assert cli.main([stage, "--config", str(config)]) == 0, stage
        assert stages == ["ingest"]

    def test_reports_are_wellformed(self, pipeline):
        ablation = (pipeline / "work" / "ablation.csv").read_text().splitlines()
        assert ablation[0] == "combination,error_rate,samples,status"
        assert len(ablation) > 1
        sweep = (pipeline / "work" / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "tau,accuracy,predicted_per_day,observed_per_day"
        assert len(sweep) == 7

    def test_model_artifacts_load_back(self, pipeline):
        graph = load_graph(pipeline / "work" / "graph.csv")
        assert len(list(graph.edges())) > 0
        predictions = load_predictions(pipeline / "work" / "predictions.csv")
        assert predictions
        lexicon = load_keyword_lexicon(pipeline / "work" / "keywords.csv")
        assert len(lexicon.entries) == 120

    def test_predict_emits_what_the_sweep_counts(self, pipeline, tmp_path):
        root = tmp_path / "copy"
        shutil.copytree(pipeline, root)
        config_path = root / "pipeline.ini"
        config = load_config(config_path, ())
        work = root / "work"
        prices = load_prices(config.paths.prices)
        taus = (0.0, 0.4, 0.8)
        sweep = run_propagation_sweep(
            load_feature_matrix(work / "features_test.bin"),
            load_model(work / "model.bin"),
            load_graph(work / "graph.csv"),
            prices,
            taus,
            config.graph.iterations,
            config.graph.clamp_observed,
        )
        days_used = sweep.metadata["days_used"]
        for tau, row in zip(taus, sweep.rows):
            argv = ["predict", "--config", str(config_path), "--force"]
            assert cli.main([*argv, "--set", f"sweep.predict_tau={tau}"]) == 0
            propagated = [
                p
                for p in load_predictions(work / "predictions.csv")
                if p.source == PROPAGATED
            ]
            assert propagated or tau > 0.0
            assert row.predicted_per_day == len(propagated) / days_used
            moves = [movement_label(prices.get(p.ticker), p.date) for p in propagated]
            scored = [(p, m) for p, m in zip(propagated, moves) if m is not None]
            correct = sum(
                1 for p, m in scored if (UP if m == POSITIVE else DOWN) == p.label
            )
            assert row.accuracy == (correct / len(scored) if scored else None)

    def test_ablation_scores_the_way_predict_labels(self, pipeline):
        work = pipeline / "work"
        matrix = load_feature_matrix(work / "features_test.bin")
        truth = {
            (d, t): UP if label == POSITIVE else DOWN
            for d, t, label in zip(matrix.dates, matrix.tickers, matrix.labels)
        }
        assert len(truth) == len(matrix)
        dnn = [
            p for p in load_predictions(work / "predictions.csv") if p.source == DNN
        ]
        assert len(dnn) == len(matrix)
        wrong = sum(1 for p in dnn if p.label != truth[p.date, p.ticker])
        rows = (work / "ablation.csv").read_text().splitlines()[1:]
        errors = {row.split(",")[0]: row.split(",")[1] for row in rows}
        assert float(errors["price+bok+ps+ct"]) == wrong / len(dnn)

    def test_second_run_skips_an_up_to_date_stage(self, pipeline, caplog):
        config = pipeline / "pipeline.ini"
        with caplog.at_level(logging.INFO):
            assert cli.main(["ingest", "--config", str(config)]) == 0
        assert "ingest: artifacts up to date, skipping" in caplog.text

    def test_force_reruns_anyway(self, pipeline, caplog):
        config = pipeline / "pipeline.ini"
        with caplog.at_level(logging.INFO):
            assert cli.main(["lexicon", "--config", str(config), "--force"]) == 0
        assert "up to date, skipping" not in caplog.text

    @pytest.mark.parametrize(
        "setting, logged",
        [
            ("patience=1", "train: stopped early after 2 of 8 epochs, best epoch 0,"),
            ("patience=0", "train: 8 epochs, best epoch 0,"),
            ("epochs=0", "train: 0 epochs, best epoch -1, validation error nan"),
        ],
    )
    def test_train_logs_an_early_stop(self, pipeline, tmp_path, caplog, setting, logged):
        config = _copy(pipeline, tmp_path)
        # a vanishing rate never improves on the first epoch's error
        argv = ["train", "--config", str(config)]
        argv += ["--set", "training.learning_rate=1e-12"]
        argv += ["--set", f"training.{setting}"]
        with caplog.at_level(logging.INFO):
            assert cli.main(argv) == 0
        assert logged in caplog.text
        # the best epoch's error is logged whenever an epoch ran
        assert caplog.text.count("validation error nan") == logged.count("nan")


class TestIngestCorpus:
    def test_a_carriage_return_stays_inside_its_corpus_line(self, tmp_path):
        """embed reads corpus.txt in text mode, which also ends a line at "\r"."""
        (tmp_path / "aliases.csv").write_text("Acme,ACM\n")
        closes = [("2012-03-01", 10.0), ("2012-03-02", 11.0), ("2012-03-05", 10.5)]
        (tmp_path / "prices.csv").write_text(
            "date,ticker,close\n" + "".join(f"{d},ACM,{c}\n" for d, c in closes)
        )
        body = "Acme rose\r\nin early trade. Later Acme fell."
        article = Article("a1", date(2012, 3, 2), "", body, "wire")
        write_articles([article], tmp_path / "articles.jsonl")
        config = _write_config(tmp_path, "")
        assert cli.main(["ingest", "--config", str(config)]) == 0
        with (tmp_path / "work" / "corpus.txt").open(encoding="utf-8") as fh:
            lines = [" ".join(line.split()) for line in fh]
        assert lines == ["Acme rose in early trade.", "Later Acme fell."]


class TestInputOrder:
    """The outputs depend on what the input files say, not on their line order.

    ingest reads the articles in (date, id) order; the price and alias
    loaders key every row. Only the manifest that hashes the file changes.
    """

    @pytest.mark.parametrize(
        "name, header, manifest",
        [
            ("articles.jsonl", False, "ingest.manifest.json"),
            ("prices.csv", True, "prices.manifest.json"),
            ("aliases.csv", False, "ingest.manifest.json"),
        ],
    )
    def test_shuffled_lines_change_no_output(
        self, pipeline, tmp_path, name, header, manifest
    ):
        before = work_digests(pipeline / "work")
        after = smoke_digests(
            tmp_path, lambda root: shuffle_lines(root / name, 5, header)
        )
        assert after.pop(manifest) != before.pop(manifest)
        assert after == before

    def test_closes_times_four_change_only_prices_bin(self, pipeline, tmp_path):
        """Scaling by a power of two is exact and commutes with every
        rounding, so each scale-free number made from the closes keeps its
        bits; only prices.bin and the manifests that hash it change."""

        def times_four(root: Path) -> None:
            path = root / "prices.csv"
            header, *rows = path.read_text().splitlines()
            fields = (row.rsplit(",", 1) for row in rows)
            scaled = [f"{head},{4 * float(close)!r}" for head, close in fields]
            path.write_text("\n".join([header, *scaled]) + "\n")

        before = work_digests(pipeline / "work")
        after = smoke_digests(tmp_path, times_four)
        assert after.keys() == before.keys()
        assert {name for name in before if after[name] != before[name]} == {
            "prices.bin",
            "prices.manifest.json",
            "ingest.manifest.json",
            "featurize.manifest.json",
            "graph.manifest.json",
            "sweep.manifest.json",
        }


def _word2vec_text(work: Path) -> None:
    """Replace ``embeddings.bin`` by the word2vec text the previous format wrote."""
    table = load_embeddings(work / "embeddings.bin")
    rows = (
        word + " " + " ".join(f"{x:.6f}" for x in row) + "\n"
        for word, row in zip(table.words, table.vectors)
    )
    (work / "embeddings.txt").write_text(
        f"{len(table)} {table.dimension}\n" + "".join(rows), encoding="utf-8"
    )
    (work / "embeddings.bin").unlink()


def _previous_format(work: Path) -> None:
    """Rewrite a work dir, its store included, as the previous format left it.

    The word vectors are word2vec text, ``prices.bin``'s header names no
    dtypes, the prices unit's key holds no revision, and every manifest
    and store entry records those files.
    """
    entries = [path.parent for path in work.glob(".store/*/*/*.manifest.json")]
    old = {}  # each rewritten file's digest, by its digest before
    for where in (work, *entries):
        if (where / "prices.bin").is_file():
            path = where / "prices.bin"
            before = file_sha256(path)
            line, data = path.read_bytes().split(b"\n", 1)
            header = json.loads(line)
            del header["dtypes"]
            line = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
            path.write_bytes(line + b"\n" + data)
            old[before] = file_sha256(path)
        if (where / "embeddings.bin").is_file():
            before = file_sha256(where / "embeddings.bin")
            _word2vec_text(where)
            old[before] = file_sha256(where / "embeddings.txt")
    for manifest in [*work.glob("*.manifest.json"), *work.glob(".store/*/*/*.manifest.json")]:
        record = json.loads(manifest.read_text(encoding="utf-8"))
        for kind in ("inputs", "outputs"):
            record[kind] = {
                ("embeddings.txt" if name == "embeddings.bin" else name): old.get(d, d)
                for name, d in record[kind].items()
            }
        if record["stage"] == "prices":
            record["config"] = text_sha256("")
        manifest.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        if manifest.parent != work:
            del record["outputs"]
            manifest.parent.rename(_entry(work, record))


class TestPreviousFormat:
    """A work dir the previous format wrote runs through every stage."""

    def test_a_previous_work_dir_reruns_the_changed_units_once(
        self, pipeline, tmp_path, caplog
    ):
        config = _copy(pipeline, tmp_path)
        work = config.parent / "work"
        fresh = work_digests(work)
        _previous_format(work)
        skipped = []
        for _ in range(2):
            caplog.clear()
            with caplog.at_level(logging.INFO):
                for stage in STAGES[1:]:
                    assert cli.main([stage, "--config", str(config)]) == 0, stage
            assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
            skipped.append(set(re.findall(r"(\w+): artifacts up to date", caplog.text)))
        # prices.bin's new bytes rerun its readers, which write what they wrote
        assert skipped == [{"train", "predict", "ablation"}, set(cli.UNITS) - {"synth"}]
        # a unit that runs again reads the prices.bin now in place
        assert cli.main(["graph", "--config", str(config), "--force"]) == 0
        after = work_digests(work)
        assert after.pop("embeddings.txt")
        assert after == fresh


class TestFeaturizeSkips:
    def test_trimmed_prices_fill_skipped_csv(self, pipeline, tmp_path):
        """Samples whose price block cannot be built are listed, not featurized.

        One ticker loses its closes before one of its training samples, so
        that sample has fewer than five prior closes; another loses every
        close up to ``dates.train_end``, so it has no training-window
        statistics. The third reason, no price history, cannot occur
        through the CLI: ingest leaves a sample whose ticker has no price
        series unlabeled and drops it.
        """
        config = _copy(pipeline, tmp_path)
        settings = load_config(config, ())
        work, train_end = settings.paths.work_dir, settings.dates.train_end
        splits = ("train", "valid", "test")
        sample = load_samples(work / "samples_train.jsonl")[100]
        late = sample.ticker
        series = load_prices(settings.paths.prices)[late]
        cut = series.dates[series.last_index_on_or_before(sample.date)]
        test_tickers = [s.ticker for s in load_samples(work / "samples_test.jsonl")]
        unnormalizable = next(t for t in test_tickers if t != late)
        lines = settings.paths.prices.read_text().splitlines(keepends=True)
        kept = [lines[0]]
        for line in lines[1:]:
            day, ticker, _ = line.split(",")
            if ticker == late and day < cut.isoformat():
                continue
            if ticker == unnormalizable and day <= train_end.isoformat():
                continue
            kept.append(line)
        settings.paths.prices.write_text("".join(kept))
        for stage in ("ingest", "embed", "lexicon", "featurize"):
            assert cli.main([stage, "--config", str(config)]) == 0, stage

        prices = load_prices(settings.paths.prices)
        expected, featurized = [], []
        for split in splits:
            for s in load_samples(work / f"samples_{split}.jsonl"):
                row = f"{split},{s.ticker},{s.date.isoformat()}"
                prior = bisect.bisect_left(prices[s.ticker].dates, s.date)
                if s.ticker == unnormalizable:
                    expected.append(f"{row},{UNNORMALIZABLE}")
                elif s.ticker == late and prior < 5:
                    expected.append(f"{row},{INSUFFICIENT_HISTORY}")
                else:
                    featurized.append((split, s.ticker, s.date))
        skipped = (work / "skipped.csv").read_text(encoding="utf-8").splitlines()
        assert skipped[0] == "split,ticker,date,reason"
        assert skipped[1:] == expected
        date_of = sample.date.isoformat()
        assert f"train,{late},{date_of},{INSUFFICIENT_HISTORY}" in expected
        assert any(row.endswith(UNNORMALIZABLE) for row in expected)
        rows = [
            (split, ticker, d)
            for split in splits
            for matrix in [load_feature_matrix(work / f"features_{split}.bin")]
            for ticker, d in zip(matrix.tickers, matrix.dates)
        ]
        assert rows == featurized


class TestStageKeys:
    def test_stages_read_only_their_declared_sections(
        self, pipeline, tmp_path, monkeypatch
    ):
        config = str(_copy(pipeline, tmp_path))
        _watch_bodies(monkeypatch)
        # The runner hashes every declared section; only the bodies' reads count.
        stage_key = cli._stage_key
        monkeypatch.setattr(
            cli, "_stage_key", lambda config, unit: stage_key(config._config, unit)
        )
        for stage in STAGES:
            units = {
                unit: spec.sections
                for unit, spec in cli.UNITS.items()
                if spec.stage == stage
            }
            recorders = []

            def recording(*args):
                recorders.append(_Recorder(load_config(*args)))
                return recorders[-1]

            monkeypatch.setattr(cli, "load_config", recording)
            assert cli.main([stage, "--config", config, "--force"]) == 0, stage
            (recorder,) = recorders
            # A unit that declares no section reads none.
            keyed = {unit for unit, declared in units.items() if declared}
            assert set(recorder.read) - {None} == keyed, stage
            # The runner reads the paths, and the store's size, which no
            # output depends on.
            outside = recorder.read.get(None, set()) - {"pipeline.store_entries"}
            assert all(field.startswith("paths.") for field in outside), stage
            for unit, declared in units.items():
                seen = recorder.read.get(unit, set())
                fields = {f for f in seen if not f.startswith("paths.")}
                # A field of a section declared whole counts as that section.
                whole = {f.partition(".")[0] for f in fields} & set(declared)
                read = {f for f in fields if f.partition(".")[0] not in whole} | whole
                assert read == set(declared), unit

    def test_bodies_read_exactly_their_declared_inputs(
        self, pipeline, tmp_path, monkeypatch
    ):
        config = _copy(pipeline, tmp_path)
        read = _watch_bodies(monkeypatch)
        for stage in STAGES:
            assert cli.main([stage, "--config", str(config), "--force"]) == 0, stage
        loaded = load_config(config, ())
        assert read == {
            unit: set(cli._files(loaded, spec.inputs))
            for unit, spec in cli.UNITS.items()
        }

    def _run(self, config, stages, override, caplog):
        caplog.clear()
        with caplog.at_level(logging.INFO):
            for stage in stages:
                argv = [stage, "--config", str(config), "--set", override]
                assert cli.main(argv) == 0, stage
        skipping = "{}: artifacts up to date, skipping"
        return {
            unit
            for unit, spec in cli.UNITS.items()
            if spec.stage in stages and skipping.format(unit) in caplog.text
        }

    def test_seed_change_skips_the_stages_without_a_seed(
        self, pipeline, tmp_path, caplog
    ):
        config = _copy(pipeline, tmp_path)
        stages = ("synth", "ingest", "graph", "embed")
        skipped = self._run(config, stages, "pipeline.seed=2", caplog)
        assert skipped == {"synth", "prices", "ingest", "graph"}

    def test_blas_thread_count_change_reruns_a_unit(
        self, pipeline, tmp_path, caplog, monkeypatch
    ):
        """Bytes made at one BLAS thread count are not reused at another."""
        config = _copy(pipeline, tmp_path)
        # Two usable CPUs, so that both counts below hold on any host.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def run() -> str:
            # graph reads prices.bin, which the ingest stage makes.
            caplog.clear()
            with caplog.at_level(logging.INFO):
                for stage in ("ingest", "graph"):
                    assert cli.main([stage, "--config", str(config)]) == 0, stage
            return caplog.text

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        run()
        assert "graph: artifacts up to date, skipping" in run()
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        error = _refused(config, "graph", caplog)
        assert "prices.bin: prices is not up to date; rerun ingest" in error
        assert "up to date, skipping" not in run()

    def test_iterations_change_reruns_predict_not_train(
        self, pipeline, tmp_path, caplog
    ):
        config = _copy(pipeline, tmp_path)
        skipped = self._run(config, ("train", "predict"), "graph.iterations=2", caplog)
        assert skipped == {"train"}

    def test_train_start_change_reruns_none_of_graph_predict_evaluate(
        self, pipeline, tmp_path, caplog
    ):
        config = _copy(pipeline, tmp_path)
        override = "dates.train_start=2012-02-01"
        assert self._run(config, ("graph",), override, caplog) == {"graph"}
        # featurize reads train_start, so what it wrote is stale
        for stage in ("predict", "evaluate"):
            error = _refused(config, stage, caplog, "--set", override)
            assert "featurize is not up to date; rerun featurize" in error

    def test_missing_alias_table_stops_lexicon_and_featurize_at_ingest(
        self, pipeline, tmp_path, caplog
    ):
        config = _copy(pipeline, tmp_path)
        for stage in ("lexicon", "featurize"):
            error = _refused(config, stage, caplog, "--set", "paths.aliases=absent.csv")
            assert "samples_train.jsonl: ingest is not up to date; rerun ingest" in error

    @pytest.mark.parametrize(
        "stages, override, skipped",
        [
            (("ingest",), "dates.train_start=2012-02-01", {"prices", "ingest"}),
            (("predict",), "sweep.taus=0.1,0.9", {"predict"}),
            (("evaluate",), "sweep.predict_tau=0.5", {"ablation", "sweep"}),
        ],
        ids=["ingest", "predict", "evaluate"],
    )
    def test_a_field_a_unit_does_not_read_leaves_it_skipped(
        self, pipeline, tmp_path, caplog, stages, override, skipped
    ):
        config = _copy(pipeline, tmp_path)
        assert self._run(config, stages, override, caplog) == skipped

    def test_dropped_category_seeds_rerun_the_lexicon(
        self, pipeline, tmp_path, caplog
    ):
        config = _copy(pipeline, tmp_path)
        categories = config.parent / "work" / "categories.csv"
        packaged = categories.read_bytes()
        (config.parent / "seeds.txt").write_text("[movers]\nrise\nfall\n")
        custom = self._run(
            config, ("lexicon",), "paths.category_seeds=seeds.txt", caplog
        )
        assert not custom
        assert categories.read_bytes() != packaged
        dropped = self._run(config, ("lexicon",), "paths.category_seeds=", caplog)
        assert not dropped
        assert categories.read_bytes() == packaged


    @pytest.mark.parametrize(
        "key, unit, edit",
        [
            ("abbreviations", "ingest", "Zzq.\n"),
            ("category_seeds", "lexicon", "# edited\n"),
        ],
    )
    def test_an_edited_packaged_file_reruns_its_unit(
        self, pipeline, tmp_path, caplog, monkeypatch, key, unit, edit
    ):
        """Packaged data is hashed like any input, whatever the package version."""
        config = _copy(pipeline, tmp_path)
        work = config.parent / "work"
        before = {name: (work / name).read_bytes() for name in cli.UNITS[unit].outputs}
        packaged = cli.PACKAGED[key]
        edited = tmp_path / packaged.name
        edited.write_text(packaged.read_text(encoding="utf-8") + edit, encoding="utf-8")
        stage = [cli.UNITS[unit].stage, "--config", str(config)]
        monkeypatch.setitem(cli.PACKAGED, key, edited)
        with caplog.at_level(logging.INFO):
            assert cli.main(stage) == 0
        assert f"{unit}: artifacts up to date, skipping" not in caplog.text
        assert "restored" not in caplog.text
        record = json.loads(manifest_path(work, unit).read_text())
        assert record["inputs"][key] == text_sha256(edited.read_text(encoding="utf-8"))
        # the edit changes no word the unit uses
        assert {name: (work / name).read_bytes() for name in before} == before
        # and the packaged file as shipped is the store's to give back
        monkeypatch.setitem(cli.PACKAGED, key, packaged)
        caplog.clear()
        with caplog.at_level(logging.INFO):
            assert cli.main(stage) == 0
        assert f"{unit}: restored from the store" in caplog.text


class TestEvaluateUnits:
    """evaluate caches the ablation and the sweep apart, each with its manifest."""

    def _evaluate(self, config, *args) -> None:
        assert cli.main(["evaluate", "--config", str(config), *args]) == 0

    def test_sweep_and_graph_changes_leave_the_ablation_alone(
        self, pipeline, tmp_path, trainings, caplog, capsys
    ):
        config = _copy(pipeline, tmp_path)
        work = config.parent / "work"
        ablation = {
            name: (work / name).read_bytes() for name in ("ablation.csv", "ablation.txt")
        }
        sweeps = [(work / "sweep.csv").read_bytes()]
        capsys.readouterr()
        with caplog.at_level(logging.INFO):
            self._evaluate(config, "--set", "sweep.taus=0.1,0.9")
            sweeps.append((work / "sweep.csv").read_bytes())
            for stage in ("graph", "predict", "evaluate"):
                argv = [stage, "--config", str(config)]
                assert cli.main([*argv, "--set", "graph.threshold=0.2"]) == 0, stage
            sweeps.append((work / "sweep.csv").read_bytes())
        assert trainings == []
        assert caplog.text.count("ablation: artifacts up to date, skipping") == 2
        assert "sweep: artifacts up to date" not in caplog.text
        assert len(set(sweeps)) == 3
        assert capsys.readouterr().out.count(ablation["ablation.txt"].decode()) == 2
        for name, content in ablation.items():
            assert (work / name).read_bytes() == content, name

    def test_training_change_reruns_the_ablation(
        self, pipeline, tmp_path, trainings, caplog
    ):
        config = _copy(pipeline, tmp_path)
        override = ("--set", "training.epochs=3")
        # model.bin was trained under epochs=8: evaluate waits for train
        error = _refused(config, "evaluate", caplog, *override)
        assert "model.bin: train is not up to date; rerun train" in error
        assert trainings == []
        assert cli.main(["train", "--config", str(config), *override]) == 0
        caplog.clear()
        with caplog.at_level(logging.INFO):
            self._evaluate(config, *override)
        assert "artifacts up to date" not in caplog.text
        # the train stage's one training, then every row but the full one
        assert len(trainings) == len(evaluation.DEFAULT_COMBINATIONS)

    def test_a_work_dir_trained_in_float64_retrains_once(
        self, pipeline, tmp_path, trainings, caplog
    ):
        config = _copy(pipeline, tmp_path)
        # train and the ablation keyed [training] alone before revision 1
        key = text_sha256(repr(load_config(config, ()).training))
        self._check_retrains_once(config, key, trainings, caplog)

    def test_a_work_dir_trained_row_major_retrains_once(
        self, pipeline, tmp_path, trainings, caplog
    ):
        config = _copy(pipeline, tmp_path)
        # revision 1 trained with row-major activations, one array per layer
        key = text_sha256(f"{load_config(config, ()).training!r}\nrevision 1")
        self._check_retrains_once(config, key, trainings, caplog)

    @staticmethod
    def _check_retrains_once(config, key, trainings, caplog):
        # a work dir of an older revision holds no store of this revision's outputs
        shutil.rmtree(config.parent / "work" / ".store")
        for unit in ("train", "ablation"):
            _record(config, unit, key)
        with caplog.at_level(logging.INFO):
            for _ in range(2):
                for stage in ("train", "evaluate"):
                    assert cli.main([stage, "--config", str(config)]) == 0, stage
        assert caplog.text.count("train: artifacts up to date, skipping") == 1
        assert caplog.text.count("ablation: artifacts up to date, skipping") == 1
        assert len(trainings) == len(evaluation.DEFAULT_COMBINATIONS)

    def test_full_row_scores_the_vouched_model(self, pipeline, tmp_path, trainings):
        config = _copy(pipeline, tmp_path)
        ablation = config.parent / "work" / "ablation.csv"
        before = ablation.read_bytes()
        self._evaluate(config, "--force")
        assert len(trainings) == len(evaluation.DEFAULT_COMBINATIONS) - 1
        assert ablation.read_bytes() == before

    def test_model_of_another_training_key_is_not_reused(
        self, pipeline, tmp_path, trainings, caplog
    ):
        config = _copy(pipeline, tmp_path)
        ablation = config.parent / "work" / "ablation.csv"
        before = ablation.read_bytes()
        argv = ["train", "--config", str(config), "--set", "training.epochs=1"]
        assert cli.main(argv) == 0
        del trainings[:]
        error = _refused(config, "evaluate", caplog, "--force")
        assert "model.bin: train is not up to date; rerun train" in error
        assert trainings == []
        assert ablation.read_bytes() == before


class TestTrainUnit:
    def test_training_holds_the_train_rows_once(self, tmp_path, monkeypatch):
        layout = FeatureLayout(BLOCK_ORDER, k=300, n_categories=2)  # 614 columns
        rng = np.random.default_rng(5)
        inputs = {}
        for name, n in (("train", 2000), ("valid", 50)):
            inputs[f"features_{name}.bin"] = tmp_path / f"features_{name}.bin"
            matrix = packed(
                layout,
                ["AAA"] * n,
                [date(2012, 3, 5)] * n,
                [POSITIVE if i % 2 else NEGATIVE for i in range(n)],
                rng.normal(size=(n, layout.dimension)),
            )
            write_feature_matrix(matrix, inputs[f"features_{name}.bin"])
        train_bytes = 2000 * layout.dimension * 8

        def training(*args, **kwargs):
            tracemalloc.reset_peak()  # the peak from here on is the training's
            return mlp.train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", training)
        config = SimpleNamespace(
            training=TrainConfig(hidden=(4,), batch_size=64, epochs=1, seed=3)
        )
        outputs = {"model.bin": tmp_path / "model.bin"}
        _, peak = traced_peak(lambda: cli._train(config, inputs, outputs))
        assert load_model(outputs["model.bin"]).layout == layout
        # While it trains, the unit holds the train rows once: every entry
        # is non-zero, so their float64 values take train_bytes and their
        # mask 1/64 of it; the validation rows, the model and its batches
        # take the rest. A second float64 copy (about 2.15 x) does not fit,
        # nor a float32 copy beside the float64 rows (about 1.65 x).
        assert peak < 1.3 * train_bytes


class TestVouchedInputs:
    """A unit reads a work-dir artifact only while every unit above it is up to date."""

    @pytest.mark.parametrize("force", [(), ("--force",)])
    @pytest.mark.parametrize(
        "stage, artifact, keep, producer",
        [
            ("featurize", "keywords.csv", 31, "lexicon"),
            ("embed", "corpus.txt", 200, "ingest"),
        ],
    )
    def test_truncated_artifact_names_its_producer(
        self, pipeline, tmp_path, caplog, stage, artifact, keep, producer, force
    ):
        config = _copy(pipeline, tmp_path)
        work = config.parent / "work"
        path = work / artifact
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:keep]))
        manifest = manifest_path(work, stage).read_bytes()
        with caplog.at_level(logging.ERROR):
            assert cli.main([stage, "--config", str(config), *force]) == 1
        message = f"{artifact}: {producer} is not up to date; rerun {producer}"
        assert message in caplog.text
        assert manifest_path(work, stage).read_bytes() == manifest

    def test_missing_producer_manifest_vouches_for_nothing(
        self, pipeline, tmp_path, caplog
    ):
        config = _copy(pipeline, tmp_path)
        manifest_path(config.parent / "work", "train").unlink()
        with caplog.at_level(logging.ERROR):
            assert cli.main(["predict", "--config", str(config), "--force"]) == 1
        assert "model.bin: train is not up to date; rerun train" in caplog.text

    def test_malformed_manifest_reads_as_stale(self, pipeline, tmp_path, caplog):
        config = _copy(pipeline, tmp_path)
        path = manifest_path(config.parent / "work", "ingest")
        record = json.loads(path.read_text())
        path.write_text(json.dumps({**record, "outputs": None}))
        error = _refused(config, "embed", caplog)
        assert "corpus.txt: ingest is not up to date; rerun ingest" in error
        assert cli.main(["ingest", "--config", str(config)]) == 0
        assert json.loads(path.read_text()) == record

    def test_config_paths_are_not_vouched_for(self, pipeline, tmp_path, caplog):
        config = _copy(pipeline, tmp_path)
        with (config.parent / "prices.csv").open("a") as fh:
            fh.write("2012-12-31,ZZZ0,10.0\n")
        error = _refused(config, "graph", caplog)
        assert "prices.bin: prices is not up to date; rerun ingest" in error
        caplog.clear()
        with caplog.at_level(logging.INFO):
            for stage in ("ingest", "graph"):
                assert cli.main([stage, "--config", str(config)]) == 0, stage
        assert "prices: artifacts up to date" not in caplog.text
        assert "graph: artifacts up to date" not in caplog.text
        assert "ZZZ0" in load_graph(config.parent / "work" / "graph.csv").nodes

    @pytest.mark.parametrize("force", [(), ("--force",)])
    @pytest.mark.parametrize(
        "override, stage, artifact, unit",
        [
            ("training.epochs=3", "predict", "model.bin", "train"),
            ("training.epochs=3", "evaluate", "model.bin", "train"),
            ("embedding.dimension=16", "lexicon", "embeddings.bin", "embed"),
            ("embedding.dimension=16", "predict", "model.bin", "embed"),
        ],
    )
    def test_a_stale_unit_upstream_stops_the_stage(
        self, pipeline, tmp_path, caplog, override, stage, artifact, unit, force
    ):
        config = _copy(pipeline, tmp_path)
        work = config.parent / "work"
        before = _tree(work)
        error = _refused(config, stage, caplog, "--set", override, *force)
        assert f"{artifact}: {unit} is not up to date; rerun {unit}" in error
        assert _tree(work) == before

    @pytest.mark.parametrize("override", ["training.epochs=3", "embedding.dimension=16"])
    def test_the_override_passed_to_every_stage_runs_them_all(
        self, pipeline, tmp_path, override
    ):
        config = _copy(pipeline, tmp_path)
        for stage in STAGES:
            argv = [stage, "--config", str(config), "--set", override]
            assert cli.main(argv) == 0, stage


class TestAtomicWrites:
    def test_failed_write_keeps_the_previous_artifacts(
        self, pipeline, tmp_path, monkeypatch
    ):
        config = _copy(pipeline, tmp_path)
        work = config.parent / "work"
        kept = {
            path: path.read_bytes()
            for path in (work / "predictions.csv", manifest_path(work, "predict"))
        }
        listing = sorted(os.listdir(work))

        def failing(predictions, path):
            Path(path).write_text("date,ticker,source,label,confidence\n2013-")
            raise OSError("disk full")

        monkeypatch.setattr(graph, "write_predictions", failing)
        assert cli.main(["predict", "--config", str(config), "--force"]) == 2
        for path, content in kept.items():
            assert path.read_bytes() == content, path.name
        assert sorted(os.listdir(work)) == listing

    def test_failed_synth_leaves_no_scratch_behind(self, tmp_path, monkeypatch):
        config = _write_config(tmp_path)

        def failing(synth, articles, prices, aliases):
            Path(articles).write_text("{")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "generate_synthetic_fixture", failing)
        assert cli.main(["synth", "--config", str(config)]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipeline.ini", "work"]


# Runs the CLI with ``os.replace`` wrapped to SIGKILL the process on its
# Nth call: argv is N, then the CLI's arguments.
_KILL_AT_REPLACE = """\
import os, signal, sys
from newsmotion import cli

calls, replace = 0, os.replace

def killing(*args, **kwargs):
    global calls
    calls += 1
    if calls == int(sys.argv[1]):
        os.kill(os.getpid(), signal.SIGKILL)
    return replace(*args, **kwargs)

os.replace = killing
sys.exit(cli.main(sys.argv[2:]))
"""


def _tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` but the lock, by relative path."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != ".lock"
    }


class TestCrashRecovery:
    # featurize renames its four outputs, then its manifest; synth its
    # three fixture files, then its manifest.
    @pytest.mark.parametrize(
        "stage, n",
        [("featurize", n) for n in range(1, 6)] + [("synth", n) for n in range(1, 5)],
    )
    def test_rerun_after_a_kill_at_each_rename_leaves_no_debris(
        self, pipeline, tmp_path, caplog, stage, n
    ):
        config = _copy(pipeline, tmp_path)
        root = config.parent
        uninterrupted = _tree(root)
        killed = subprocess.run(
            [sys.executable, "-c", _KILL_AT_REPLACE, str(n), stage]
            + ["--config", str(config), "--force"],
            cwd=tmp_path,
            env=child_env(),
            capture_output=True,
            text=True,
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert list(root.rglob(".*.tmp")), "the kill left no temporary file"
        with caplog.at_level(logging.WARNING):
            assert cli.main([stage, "--config", str(config)]) == 0
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert list(root.rglob(".*.tmp")) == []
        assert _tree(root) == uninterrupted


class TestReadme:
    def test_stage_table_matches_the_units(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8").split("\n## Pipeline stages\n", 1)[1]
        table = text.strip().split("\n\n", 1)[0].splitlines()
        rows = [line.strip("|").split("|") for line in table[2:]]
        listed = {}
        for stage, key, reads, writes in rows:
            unit = re.search(r"\((\w+)\)", stage) or re.search(r"`(\w+)`", stage)
            listed[unit.group(1)] = (
                re.findall(r"`\[?([\w.]+)\]?`", key),
                set(re.findall(r"`([^`]+)`", reads)),
                set(re.findall(r"`([^`]+)`", writes)),
            )
        assert listed == {
            unit: (list(spec.sections), set(spec.inputs), set(spec.outputs))
            for unit, spec in cli.UNITS.items()
        }


class TestPublicNames:
    def test_every_public_name_is_referenced_in_the_package(self):
        """The package holds what the pipeline calls; test-only helpers live in tests/."""
        package = Path(cli.__file__).resolve().parent
        trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in package.glob("*.py")}
        used = set()
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
        defined = [
            f"{module}.{node.name}"
            for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        ]
        assert len(defined) > 100
        assert sorted(name for name in defined if name.split(".")[1] not in used) == []


def _traced_names() -> list[str]:
    """The function names perfbench/launch.py's `plan` wraps, in its order."""
    launch = Path(__file__).resolve().parent.parent / "perfbench" / "launch.py"
    tree = ast.parse(launch.read_text(encoding="utf-8"))
    (plan,) = (
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "plan" for t in node.targets)
    )
    return [ast.literal_eval(key) for key in plan.keys]


class TestTracingPlan:
    def test_traced_names_are_still_module_attributes(self):
        """perfbench/launch.py wraps these by name; a rename would zero its spans."""
        names = _traced_names()
        assert {"train", "run_ablation", "run_propagation_sweep"} <= set(names)
        missing = [
            n for n in names if not hasattr(cli, n) and not hasattr(evaluation, n)
        ]
        assert missing == []

    def test_the_shim_lists_exactly_the_traced_names_it_does_not_import(self):
        """The table holds exactly the plan names a body reads as `_here.<name>`."""
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        read_here = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "_here"
        }
        assert sorted(read_here - set(_traced_names())) == []
        assert sorted(cli._OWNER) == sorted(read_here)

    def test_no_traced_name_is_read_through_its_stage_module(self):
        """`mlp.train(...)` would bypass the wrapper the tracer sets on cli."""
        package = Path(cli.__file__).parent
        modules = {path.stem for path in package.glob("*.py")}
        traced = set(_traced_names())
        tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
        bypassed = [
            f"{node.lineno}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr in traced
        ]
        assert bypassed == []

    def test_every_shim_name_is_read_by_a_unit_body(self):
        """The shim resolves each listed name; one that no body reads is a dead entry."""
        read = set()
        for spec in cli.UNITS.values():
            tree = ast.parse(inspect.getsource(spec.body))
            read.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
        listed = {name for names in cli._STAGE_NAMES.values() for name in names}
        assert sorted(listed - read) == []

    def test_no_stage_name_is_read_as_a_bare_global(self):
        """A bare name skips the module `__getattr__`, and any wrapper set on cli.

        Only a name this module imports at its top is a global the tracer
        patches; one a body imports is a local it never sees.
        """
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        traced = set(_traced_names()) - imported
        bare = [
            f"{node.lineno}: {node.id}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in traced
        ]
        assert bare == []

    def test_module_run_writes_what_main_writes(self, pipeline, tmp_path):
        """`python -m newsmotion.cli` runs as `__main__`, and looks its names up there."""
        config = _copy(pipeline, tmp_path)
        root = config.parent
        made = _tree(root)
        assert {f"work/{name}" for name in ARTIFACTS} <= set(made)
        shutil.rmtree(root / "work")
        for stage in STAGES:
            argv = [stage, "--config", str(config), "--force"]
            done = subprocess.run(
                [sys.executable, "-m", "newsmotion.cli", *argv],
                env=child_env(),
                capture_output=True,
                text=True,
            )
            assert done.returncode == 0, (stage, done.stderr)
        remade = _tree(root)
        assert sorted(remade) == sorted(made)
        assert [name for name in made if remade[name] != made[name]] == []

    @pytest.mark.parametrize("stage", ["synth", "embed"])
    def test_a_stage_imports_only_the_modules_its_body_reads(
        self, pipeline, tmp_path, stage
    ):
        config = _copy(pipeline, tmp_path)
        script = (
            "import sys\n"
            "from newsmotion import cli\n"
            "assert cli.main([sys.argv[1], '--config', sys.argv[2], '--force']) == 0\n"
            "print(' '.join(sorted(sys.modules)))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, stage, str(config)],
            env=child_env(),
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        own = {"synth": "newsmotion.synth", "embed": "newsmotion.embedding"}[stage]
        assert own in loaded
        unread = {"newsmotion.mlp", "newsmotion.features", "newsmotion.evaluation"}
        assert sorted(unread & loaded) == []

    def test_a_name_looked_up_here_imports_only_its_own_module(self):
        script = (
            "import sys\n"
            "from newsmotion import cli\n"
            "cli.generate_synthetic_fixture\n"
            "print(' '.join(sorted(sys.modules)))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=child_env(),
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        assert "newsmotion.synth" in loaded
        assert "newsmotion.mlp" not in loaded and "newsmotion.evaluation" not in loaded

    def test_unknown_names_are_not_module_attributes(self):
        assert not hasattr(cli, "no_such_stage_function")
        with pytest.raises(AttributeError, match="no_such_stage_function"):
            cli.no_such_stage_function

    def test_traced_stages_record_their_spans(self, pipeline, tmp_path):
        """The tracer's spans and FLOP counter still fire after signature changes."""
        repo = Path(__file__).resolve().parent.parent
        config = _copy(pipeline, tmp_path)
        spans, flop, pairs, counts = set(), 0.0, 0.0, {}
        # ingest skips first; the stage modules load only for bodies that run.
        runs = [("ingest", ())]
        forced = ("ingest", "embed", "featurize", "train", "graph", "predict", "evaluate")
        runs.extend((stage, ("--force",)) for stage in forced)
        for n, (stage, args) in enumerate(runs):
            trace = tmp_path / f"{n}.{stage}.trace.json"
            argv = [str(repo / "perfbench" / "launch.py"), str(trace), stage]
            done = subprocess.run(
                [sys.executable, *argv, "--config", str(config), *args],
                cwd=tmp_path,
                env=child_env(),
                capture_output=True,
                text=True,
            )
            assert done.returncode == 0, (stage, done.stderr)
            recorded = json.loads(trace.read_text())
            assert recorded["exit_code"] == 0, stage
            names = [span[0] for span in recorded["spans"]]
            if not args:
                assert "ingest: artifacts up to date, skipping" in done.stderr
                assert "manifest.check" in names
            # Only the ingest stage parses prices.csv, and only when it runs.
            parses = names.count("ingest.load_prices")
            assert parses == (stage == "ingest" and bool(args)), stage
            if stage == "predict":
                emitting = ("mlp.predict_batch", "graph.propagate", "graph.threshold")
                assert [names.count(name) for name in emitting] == [1, 1, 1]
            spans.update(names)
            flop += recorded["counts"].get("mlp.flop", 0.0)
            pairs += recorded["counts"].get("embedding.pairs", 0.0)
            if stage == "featurize":
                counts = recorded["counts"]
        wanted = {
            "manifest.check",
            "ingest.load_prices",
            "embedding.train_skipgram",
            "features.featurize",
            "graph.build",
            "mlp.train",
            "mlp.predict_batch",
            "graph.propagate",
            "evaluation.ablation",
            "evaluation.sweep",
        }
        assert wanted <= spans
        assert flop > 0
        work = config.parent / "work"
        with (work / "corpus.txt").open(encoding="utf-8") as fh:
            sentences = [tokens for tokens in map(tokenize, fh) if tokens]
        index = load_embeddings(work / "embeddings.bin").index
        settings = load_config(config, ()).embedding
        centers, _ = _pair_arrays(sentences, index, settings.window)
        assert pairs == len(centers) * settings.epochs
        rows = sum(
            len(load_feature_matrix(work / f"features_{split}.bin"))
            for split in ("train", "valid", "test")
        )
        skipped = (work / "skipped.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert counts["features.rows"] == rows > 0
        assert counts["features.skipped"] == len(skipped)


class TestFailureModes:
    def test_missing_config_exits_one(self, tmp_path, caplog):
        with caplog.at_level(logging.ERROR):
            code = cli.main(["ingest", "--config", str(tmp_path / "absent.ini")])
        assert code == 1
        assert "not found" in caplog.text

    def test_bad_override_exits_one(self, tmp_path):
        config = _write_config(tmp_path, "")
        assert cli.main(["synth", "--config", str(config), "--set", "nope"]) == 1
        assert (
            cli.main(["synth", "--config", str(config), "--set", "ghost.key=1"]) == 1
        )

    def test_invalid_value_exits_one(self, tmp_path):
        config = _write_config(tmp_path, "")
        code = cli.main(
            ["lexicon", "--config", str(config), "--set", "lexicon.keywords=0"]
        )
        assert code == 1

    def test_bad_synth_value_exits_one_at_load(self, tmp_path, caplog):
        config = _write_config(tmp_path, "")
        argv = ["ingest", "--config", str(config), "--set", "synth.tickers=0"]
        with caplog.at_level(logging.ERROR):
            assert cli.main(argv) == 1
        assert "[synth] tickers must be in" in caplog.text
        assert not (tmp_path / "work").exists()

    def test_negative_synth_seed_exits_one_at_load(self, tmp_path, caplog):
        config = _write_config(tmp_path, "")
        argv = ["synth", "--config", str(config), "--set", "synth.seed=-1"]
        with caplog.at_level(logging.ERROR):
            assert cli.main(argv) == 1
        assert "[synth] seed must be non-negative" in caplog.text
        assert "Traceback" not in caplog.text
        assert not (tmp_path / "work").exists()

    def test_missing_input_file_exits_one(self, tmp_path, caplog):
        config = _write_config(tmp_path, "")
        for missing in ("paths.prices", "paths.articles"):
            caplog.clear()
            with caplog.at_level(logging.ERROR):
                assert cli.main(["ingest", "--config", str(config)]) == 1
            assert f"not found ({missing})" in caplog.text
            # The price table is made first; with prices in place, the
            # samples unit names the next missing file.
            (tmp_path / "prices.csv").write_text("date,ticker,close\n2012-01-02,A,1\n")

    @pytest.mark.parametrize(
        "name, line",
        [
            ("prices", b"2012-01-02,Z\xff,1\n"),
            ("articles", b'{"id": "\xff", "date": "2012-01-02"}\n'),
            ("aliases", b"Caf\xe9,CAF\n"),
        ],
    )
    def test_input_that_is_not_utf8_exits_one(
        self, pipeline, tmp_path, caplog, name, line
    ):
        config = _copy(pipeline, tmp_path)
        path = getattr(load_config(config, ()).paths, name)
        data = path.read_bytes()
        path.write_bytes(data + line)
        lineno = data.count(b"\n") + 1
        with caplog.at_level(logging.ERROR):
            assert cli.main(["ingest", "--config", str(config)]) == 1
        assert f"{path}:{lineno}: not UTF-8 text" in caplog.text
        assert "Traceback" not in caplog.text

    def test_alias_given_for_two_tickers_exits_one(self, pipeline, tmp_path, caplog):
        config = _copy(pipeline, tmp_path)
        path = load_config(config, ()).paths.aliases
        data = path.read_text(encoding="utf-8")
        alias, ticker = next(
            line.rsplit(",", 1) for line in data.splitlines() if not line.startswith("#")
        )
        path.write_text(data + f"{alias},{ticker}X\n", encoding="utf-8")
        lineno = data.count("\n") + 1
        with caplog.at_level(logging.ERROR):
            assert cli.main(["ingest", "--config", str(config)]) == 1
        assert f"{path}:{lineno}: alias {alias!r} is given for {ticker}X" in caplog.text
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize("blank", [" ", "\t"])
    def test_blank_alias_exits_one(self, pipeline, tmp_path, caplog, blank):
        config = _copy(pipeline, tmp_path)
        path = load_config(config, ()).paths.aliases
        data = path.read_text(encoding="utf-8")
        path.write_text(data + f"{blank},ACX\n", encoding="utf-8")
        lineno = data.count("\n") + 1
        error = _refused(config, "ingest", caplog)
        assert f"{path}:{lineno}: expected 'alias,ticker'" in error
        assert "Traceback" not in error

    def test_duplicate_article_id_exits_one(self, pipeline, tmp_path, caplog):
        config = _copy(pipeline, tmp_path)
        path = load_config(config, ()).paths.articles
        data = path.read_text(encoding="utf-8")
        first = json.loads(data.splitlines()[0])
        path.write_text(data + json.dumps(first) + "\n", encoding="utf-8")
        lineno = data.count("\n") + 1
        error = _refused(config, "ingest", caplog)
        assert f"{path}:{lineno}: duplicate article id {first['id']!r}" in error
        assert "Traceback" not in error

    def test_empty_test_split_stops_predict_as_it_stops_evaluate(
        self, pipeline, tmp_path, caplog
    ):
        config = _copy(pipeline, tmp_path)
        work = config.parent / "work"
        (work / "predictions.csv").unlink()
        late = ("--set", "dates.valid_end=2099-01-01")
        for stage in ("ingest", "featurize", "train"):
            assert cli.main([stage, "--config", str(config), *late]) == 0, stage
        assert len(load_feature_matrix(work / "features_test.bin")) == 0
        for stage in ("predict", "evaluate"):
            assert "test split is empty" in _refused(config, stage, caplog, *late)
        assert not (work / "predictions.csv").exists()

    def test_malformed_prices_csv_exits_one(self, pipeline, tmp_path, caplog):
        config = _copy(pipeline, tmp_path)
        path = load_config(config, ()).paths.prices
        data = path.read_bytes()
        # The quote stays open until the field outgrows csv's limit.
        rows = "".join(f"2013-01-{d:02d},T{k},10\n" for k in range(300) for d in range(1, 28))
        path.write_bytes(data + b'2012-01-02,"AAA,10\n' + rows.encode())
        lineno = data.count(b"\n") + 1
        with caplog.at_level(logging.ERROR):
            assert cli.main(["ingest", "--config", str(config)]) == 1
        assert f"{path}:{lineno}: field larger than field limit" in caplog.text
        assert "Traceback" not in caplog.text

    def test_price_table_with_an_infinite_close_exits_one(
        self, pipeline, tmp_path, caplog
    ):
        config = _copy(pipeline, tmp_path)
        table = config.parent / "work" / "prices.bin"
        # The last value is the last ticker's last close.
        table.write_bytes(table.read_bytes()[:-8] + struct.pack("<d", float("inf")))
        _record(config, "prices")
        last = list(load_prices(config.parent / "prices.csv"))[-1]
        error = _refused(config, "graph", caplog)
        assert f"{table}: {last}: closes must be finite and > 0" in error
        assert "Traceback" not in error

    def test_missing_artifact_names_its_producer(self, tmp_path, caplog):
        config = _write_config(tmp_path, "")
        with caplog.at_level(logging.ERROR):
            assert cli.main(["train", "--config", str(config)]) == 1
        assert "run the 'featurize' stage first" in caplog.text

    def test_locked_work_dir_exits_two(self, tmp_path, caplog):
        config = _write_config(tmp_path, "")
        with work_dir_lock(tmp_path / "work"), caplog.at_level(logging.ERROR):
            assert cli.main(["synth", "--config", str(config)]) == 2
        assert "locked by another run" in caplog.text

    def test_predict_rejects_a_model_with_another_layout(
        self, pipeline, tmp_path, caplog
    ):
        config = _copy(pipeline, tmp_path)
        work = config.parent / "work"
        predictions = (work / "predictions.csv").read_bytes()
        layout = load_feature_matrix(work / "features_test.bin").layout
        # Same input width, different blocks: the width check alone passes.
        other = replace(
            layout,
            blocks=("price", "bok", "ps"),
            k=layout.k + layout.n_categories // 2,
            n_categories=0,
        )
        assert other.dimension == layout.dimension and other != layout
        save_model(init((other.dimension, 4, 2), seed=1, layout=other), work / "model.bin")
        # train's manifest records the hand-built model, so that the layout
        # check, not staleness, is what rejects it.
        _record(config, "train")
        with caplog.at_level(logging.ERROR):
            assert cli.main(["predict", "--config", str(config)]) == 1
        assert "layouts differ" in caplog.text
        assert (work / "predictions.csv").read_bytes() == predictions

    @pytest.mark.parametrize(
        "artifact, unit, pattern, corrupt, message",
        [
            (
                "model.bin",
                "train",
                rb'"layer_dims":',
                b'"dims":',
                "model.bin: missing header field 'layer_dims'",
            ),
            ("graph.csv", "graph", rb"# threshold=[^\n]*", b"# threshold=abc", "'abc'"),
        ],
    )
    def test_corrupt_artifact_header_exits_one_naming_the_file(
        self, pipeline, tmp_path, caplog, artifact, unit, pattern, corrupt, message
    ):
        config = _copy(pipeline, tmp_path)
        work = config.parent / "work"
        path = work / artifact
        path.write_bytes(re.sub(pattern, corrupt, path.read_bytes(), count=1))
        # The producer's manifest records the corrupt file, so that the
        # loader, not staleness, is what rejects it.
        _record(config, unit)
        error = _refused(config, "predict", caplog)
        assert str(path) in error
        assert message in error

    def test_embeddings_header_beyond_the_rows_exits_one(
        self, pipeline, tmp_path, caplog
    ):
        config = _copy(pipeline, tmp_path)
        path = config.parent / "work" / "embeddings.bin"
        line, data = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        header["dimension"] = 99999999999
        path.write_bytes(json.dumps(header).encode() + b"\n" + data)
        # embed's manifest records the edited file, so that the loader, not
        # staleness, is what rejects it.
        _record(config, "embed")
        error = _refused(config, "lexicon", caplog)
        expected = 8 * 99999999999 * len(header["words"])
        assert f"{path}: expected {expected} data bytes, found {len(data)}" in error

    def test_unusable_work_dir_exits_two(self, tmp_path):
        config = _write_config(tmp_path, "")
        (tmp_path / "work").write_text("not a directory\n")
        assert cli.main(["synth", "--config", str(config)]) == 2

    def test_unknown_stage_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["transmogrify", "--config", "x.ini"])
        assert err.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("newsmotion ")


class TestOverrides:
    def test_set_reaches_the_stage(self, tmp_path):
        config = _write_config(
            tmp_path,
            "[synth]\ngroup_count = 2\ngroup_size = 3\nactives_per_group = 2\n"
            "start = 2012-01-02\nend = 2012-03-30\nnews_start = 2012-02-01\n",
        )
        code = cli.main(["synth", "--config", str(config), "--set", "synth.tickers=6"])
        assert code == 0
        rows = [
            line
            for line in (tmp_path / "aliases.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        symbols = {line.split(",")[1] for line in rows}
        assert len(symbols) == 6
