"""End-to-end tests for the command line interface."""

from __future__ import annotations

import ast
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from newsmotion import cli, evaluation, mlp
from newsmotion.config import load_config
from newsmotion.errors import PipelineError
from newsmotion.evaluation import run_propagation_sweep
from newsmotion.features import load_feature_matrix
from newsmotion.graph import DNN, DOWN, PROPAGATED, UP, load_graph
from newsmotion.ingest import load_prices
from newsmotion.lexicon import load_keyword_lexicon
from newsmotion.manifest import (
    manifest_path,
    text_sha256,
    work_dir_lock,
    write_manifest,
)
from newsmotion.mlp import init, load_model, save_model
from newsmotion.sampling import POSITIVE, movement_label

from support import load_predictions

SMOKE_CONFIG = """\
[synth]
tickers = 20
group_count = 5
group_size = 3
actives_per_group = 2
start = 2012-01-02
end = 2012-12-31
news_start = 2012-02-01
samples_per_day = 4.0

[dates]
train_start = 2012-01-01
train_end = 2012-09-30
valid_end = 2012-11-15

[embedding]
dimension = 24
window = 3
epochs = 2
min_count = 3

[lexicon]
keywords = 120
category_words = 30

[training]
hidden = 32,16
epochs = 8
batch_size = 32

[graph]
min_overlap = 60
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

ARTIFACTS = (
    "samples_train.jsonl",
    "samples_valid.jsonl",
    "samples_test.jsonl",
    "corpus.txt",
    "embeddings.txt",
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
    config = load_config(config_path)
    spec = cli.UNITS[unit]
    write_manifest(
        config.paths.work_dir,
        unit,
        cli._files(config, spec.inputs),
        cli._files(config, spec.outputs),
        cli._stage_key(config, unit) if key is None else key,
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
    """Counts calls to ``mlp.train`` from the train stage and the ablation."""
    calls: list[int] = []

    def counting(*args, **kwargs):
        calls.append(1)
        return mlp.train(*args, **kwargs)

    monkeypatch.setattr(cli, "train", counting)
    monkeypatch.setattr(evaluation, "train", counting)
    return calls


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run every stage once on a small synthetic dataset."""
    root = tmp_path_factory.mktemp("cli")
    config = _write_config(root)
    for stage in STAGES:
        assert cli.main([stage, "--config", str(config)]) == 0, stage
    return root


class TestFullPipeline:
    def test_all_artifacts_written(self, pipeline):
        for name in ARTIFACTS:
            assert (pipeline / "work" / name).is_file(), name
        for name in ("articles.jsonl", "prices.csv", "aliases.csv"):
            assert (pipeline / name).is_file(), name

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
        config = load_config(config_path)
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
            assert set(recorder.read) - {None} == set(units), stage
            outside = recorder.read.get(None, set())
            assert all(field.startswith("paths.") for field in outside), stage
            for unit, declared in units.items():
                fields = {f for f in recorder.read[unit] if not f.startswith("paths.")}
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
        loaded = load_config(config)
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
        assert skipped == {"synth", "ingest", "graph"}

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
            (("ingest",), "dates.train_start=2012-02-01", {"ingest"}),
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
        key = text_sha256(repr(load_config(config).training))
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

    def test_config_paths_are_not_vouched_for(self, pipeline, tmp_path, caplog):
        config = _copy(pipeline, tmp_path)
        with (config.parent / "prices.csv").open("a") as fh:
            fh.write("2012-12-31,ZZZ0,10.0\n")
        with caplog.at_level(logging.INFO):
            assert cli.main(["graph", "--config", str(config)]) == 0
        assert "graph: artifacts up to date" not in caplog.text

    @pytest.mark.parametrize("force", [(), ("--force",)])
    @pytest.mark.parametrize(
        "override, stage, artifact, unit",
        [
            ("training.epochs=3", "predict", "model.bin", "train"),
            ("training.epochs=3", "evaluate", "model.bin", "train"),
            ("embedding.dimension=16", "lexicon", "embeddings.txt", "embed"),
            ("embedding.dimension=16", "predict", "model.bin", "embed"),
        ],
    )
    def test_a_stale_unit_upstream_stops_the_stage(
        self, pipeline, tmp_path, caplog, override, stage, artifact, unit, force
    ):
        config = _copy(pipeline, tmp_path)
        work = config.parent / "work"
        before = {path: path.read_bytes() for path in work.iterdir()}
        error = _refused(config, stage, caplog, "--set", override, *force)
        assert f"{artifact}: {unit} is not up to date; rerun {unit}" in error
        assert {path: path.read_bytes() for path in work.iterdir()} == before

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

        monkeypatch.setattr(cli, "write_predictions", failing)
        assert cli.main(["predict", "--config", str(config), "--force"]) == 2
        for path, content in kept.items():
            assert path.read_bytes() == content, path.name
        assert sorted(os.listdir(work)) == listing

    def test_failed_synth_leaves_no_scratch_behind(self, tmp_path, monkeypatch):
        config = _write_config(tmp_path)

        def failing(synth, out_dir):
            (Path(out_dir) / "articles.jsonl").write_text("{")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "generate_synthetic_fixture", failing)
        assert cli.main(["synth", "--config", str(config)]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pipeline.ini", "work"]


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


class TestTracingPlan:
    def test_traced_names_are_still_module_attributes(self):
        """perfbench/launch.py wraps these by name; a rename would zero its spans."""
        launch = Path(__file__).resolve().parent.parent / "perfbench" / "launch.py"
        tree = ast.parse(launch.read_text(encoding="utf-8"))
        (plan,) = (
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "plan" for t in node.targets)
        )
        names = [ast.literal_eval(key) for key in plan.keys]
        assert {"train", "run_ablation", "run_propagation_sweep"} <= set(names)
        missing = [
            n for n in names if not hasattr(cli, n) and not hasattr(evaluation, n)
        ]
        assert missing == []

    def test_unknown_names_are_not_module_attributes(self):
        assert not hasattr(cli, "no_such_stage_function")
        with pytest.raises(AttributeError, match="no_such_stage_function"):
            cli.no_such_stage_function

    def test_traced_stages_record_their_spans(self, pipeline, tmp_path):
        """The tracer's spans and FLOP counter still fire after signature changes."""
        repo = Path(__file__).resolve().parent.parent
        config = _copy(pipeline, tmp_path)
        path = os.environ.get("PYTHONPATH")
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(repo / "src"), path])),
            "OPENBLAS_NUM_THREADS": "1",
        }
        spans, flop = set(), 0.0
        # ingest skips; the stage modules load only for the others' bodies.
        runs = {"ingest": ()}
        runs.update({stage: ("--force",) for stage in ("train", "graph", "predict", "evaluate")})
        for stage, args in runs.items():
            trace = tmp_path / f"{stage}.trace.json"
            argv = [str(repo / "perfbench" / "launch.py"), str(trace), stage]
            done = subprocess.run(
                [sys.executable, *argv, "--config", str(config), *args],
                cwd=tmp_path,
                env=env,
                capture_output=True,
                text=True,
            )
            assert done.returncode == 0, (stage, done.stderr)
            recorded = json.loads(trace.read_text())
            assert recorded["exit_code"] == 0, stage
            names = [span[0] for span in recorded["spans"]]
            if stage == "ingest":
                assert "ingest: artifacts up to date, skipping" in done.stderr
                assert "manifest.check" in names
                assert "ingest.load_prices" not in names
            spans.update(names)
            flop += recorded["counts"].get("mlp.flop", 0.0)
        wanted = {
            "manifest.check",
            "ingest.load_prices",
            "graph.build",
            "mlp.train",
            "mlp.predict_batch",
            "graph.propagate",
            "evaluation.ablation",
            "evaluation.sweep",
        }
        assert wanted <= spans
        assert flop > 0


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

    def test_missing_input_file_exits_one(self, tmp_path, caplog):
        config = _write_config(tmp_path, "")
        with caplog.at_level(logging.ERROR):
            assert cli.main(["ingest", "--config", str(config)]) == 1
        assert "paths.articles" in caplog.text

    def test_missing_artifact_names_its_producer(self, tmp_path, caplog):
        config = _write_config(tmp_path, "")
        with caplog.at_level(logging.ERROR):
            assert cli.main(["train", "--config", str(config)]) == 1
        assert "run the 'featurize' stage first" in caplog.text

    def test_locked_work_dir_exits_two(self, tmp_path, caplog):
        config = _write_config(tmp_path, "")
        work = tmp_path / "work"
        work.mkdir()
        (work / ".lock").write_text(f"{os.getpid()}\n")
        with caplog.at_level(logging.ERROR):
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


class TestWorkDirLock:
    def test_lock_of_a_finished_process_is_reclaimed(self, tmp_path, caplog):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped, so its PID names no process
        (tmp_path / ".lock").write_text(f"{child.pid}\n")
        with caplog.at_level(logging.WARNING):
            with work_dir_lock(tmp_path):
                assert (tmp_path / ".lock").read_text() == f"{os.getpid()}\n"
        assert "reclaiming" in caplog.text
        assert not (tmp_path / ".lock").exists()

    def test_lock_of_a_live_process_is_kept(self, tmp_path):
        (tmp_path / ".lock").write_text(f"{os.getppid()}\n")
        with pytest.raises(PipelineError, match="locked by another run"):
            with work_dir_lock(tmp_path):
                pass
        assert (tmp_path / ".lock").read_text() == f"{os.getppid()}\n"

    @pytest.mark.parametrize("content", ["", "not a pid\n", "0\n", "-1\n"])
    def test_unreadable_lock_is_kept(self, tmp_path, content):
        (tmp_path / ".lock").write_text(content)
        with pytest.raises(PipelineError):
            with work_dir_lock(tmp_path):
                pass
