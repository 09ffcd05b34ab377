"""Tests for config loading, stage manifests, and the work-dir lock."""

from __future__ import annotations

import configparser
import json
import logging
import os
import signal
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

from newsmotion import cli
from newsmotion.config import SCHEMA, SECTIONS, load_config
from newsmotion.errors import ConfigError, PipelineError
from newsmotion.dates import DateRange
from newsmotion import manifest
from newsmotion.manifest import (
    Digests,
    file_sha256,
    manifest_path,
    text_sha256,
    up_to_date,
    work_dir_lock,
    write_manifest,
)

from support import child_env

README = Path(__file__).resolve().parent.parent / "README.md"
SHA_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def _write_config(tmp_path: Path, text: str = "") -> Path:
    path = tmp_path / "pipeline.ini"
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_empty_file_runs_on_defaults(self, tmp_path):
        config = load_config(_write_config(tmp_path))
        assert config.lexicon.keywords == 1000
        assert config.lexicon.category_words == 100
        assert config.training.hidden == (1024, 1024, 1024, 1024)
        assert config.sweep.taus == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        assert config.paths.articles == tmp_path / "articles.jsonl"
        assert config.paths.work_dir == tmp_path / "work"
        assert config.paths.category_seeds is None
        assert config.graph.window is None
        assert config.graph.clamp_observed is False
        assert config.pipeline.seed == 1
        assert config.embedding.seed == config.training.seed == 1

    def test_every_default_parses(self, tmp_path):
        # the schema itself must satisfy its own validation; every key of
        # every section comes out at its dataclass default
        config = load_config(_write_config(tmp_path))
        for section, keys in SCHEMA.items():
            assert isinstance(getattr(config, section), SECTIONS[section])
            for key in keys:
                value = getattr(getattr(config, section), key.name)
                if isinstance(value, Path):
                    assert value == tmp_path / key.default
                else:
                    assert value == key.default, f"{section}.{key.name}"

    def test_file_values_override_defaults(self, tmp_path):
        config = load_config(
            _write_config(
                tmp_path,
                "[lexicon]\nkeywords = 50\n\n[training]\nhidden = 32,16\n"
                "[graph]\nclamp_observed = yes\n",
            )
        )
        assert config.lexicon.keywords == 50
        assert config.training.hidden == (32, 16)
        assert config.graph.clamp_observed is True

    def test_flag_overrides_beat_the_file(self, tmp_path):
        path = _write_config(tmp_path, "[lexicon]\nkeywords = 50\n")
        config = load_config(path, overrides=["lexicon.keywords=75"])
        assert config.lexicon.keywords == 75

    def test_unknown_section_rejected(self, tmp_path):
        path = _write_config(tmp_path, "[mystery]\nkeywords = 50\n")
        with pytest.raises(ConfigError, match="mystery"):
            load_config(path)

    def test_bytes_that_are_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "pipeline.ini"
        path.write_bytes(b"[pipeline]\nseed = 9 \xff\n")
        with pytest.raises(ConfigError, match="not UTF-8") as caught:
            load_config(path)
        assert str(caught.value).startswith(f"{path}: ")

    def test_unknown_key_rejected(self, tmp_path):
        path = _write_config(tmp_path, "[lexicon]\nkeyword_count = 50\n")
        with pytest.raises(ConfigError, match="keyword_count"):
            load_config(path)

    def test_malformed_override_rejected(self, tmp_path):
        path = _write_config(tmp_path)
        with pytest.raises(ConfigError, match="section.key=value"):
            load_config(path, overrides=["keywords=50"])
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path, overrides=["lexicon.mystery=50"])

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.ini")

    def test_inline_comments_are_stripped(self, tmp_path):
        path = _write_config(tmp_path, "[lexicon]\nkeywords = 50   ; size K\n")
        assert load_config(path).lexicon.keywords == 50

    def test_ini_syntax_error_rejected(self, tmp_path):
        path = _write_config(tmp_path, "keywords = 50\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_relative_paths_resolve_against_the_config(self, tmp_path):
        nested = tmp_path / "conf"
        nested.mkdir()
        path = nested / "pipeline.ini"
        path.write_text("[paths]\narticles = ../data/articles.jsonl\n")
        config = load_config(path)
        assert config.paths.articles == nested / "../data/articles.jsonl"

    def test_absolute_paths_kept(self, tmp_path):
        path = _write_config(tmp_path, f"[paths]\nprices = {tmp_path}/p.csv\n")
        assert load_config(path).paths.prices == tmp_path / "p.csv"

    def test_graph_window_needs_both_ends(self, tmp_path):
        path = _write_config(tmp_path, "[graph]\nwindow_start = 2012-01-02\n")
        with pytest.raises(ConfigError, match="together"):
            load_config(path)

    def test_graph_window_parses_as_a_range(self, tmp_path):
        path = _write_config(
            tmp_path,
            "[graph]\nwindow_start = 2012-01-02\nwindow_end = 2012-06-29\n",
        )
        assert load_config(path).graph.window == DateRange(
            date(2012, 1, 2), date(2012, 6, 29)
        )

    def test_reversed_graph_window_rejected(self, tmp_path):
        path = _write_config(
            tmp_path,
            "[graph]\nwindow_start = 2012-06-29\nwindow_end = 2012-01-02\n",
        )
        with pytest.raises(ConfigError, match="graph window"):
            load_config(path)

    def test_date_ordering_validated(self, tmp_path):
        path = _write_config(
            tmp_path, "[dates]\ntrain_end = 2013-12-31\nvalid_end = 2013-06-15\n"
        )
        with pytest.raises(ConfigError, match="valid_end"):
            load_config(path)

    def test_value_ranges_validated(self, tmp_path):
        cases = [
            ("[lexicon]\nkeywords = 0\n", "keywords"),
            ("[training]\ndecay = 0\n", "decay"),
            ("[training]\nhidden = ,\n", "hidden"),
            ("[graph]\nthreshold = 1.5\n", "threshold"),
            ("[graph]\nmin_overlap = 1\n", "min_overlap"),
            ("[sweep]\ntaus = ,\n", "taus"),
            ("[sweep]\ntaus = -0.5\n", "taus"),
            ("[embedding]\nwindow = 0\n", "window"),
            ("[synth]\ntickers = 0\n", "tickers"),
        ]
        for text, needle in cases:
            with pytest.raises(ConfigError, match=needle):
                load_config(_write_config(tmp_path, text))

    def test_range_errors_name_the_section(self, tmp_path):
        for text, section in [
            ("[lexicon]\nkeywords = 0\n", "lexicon"),
            ("[training]\nhidden = ,\n", "training"),
            ("[synth]\ntickers = 0\n", "synth"),
        ]:
            with pytest.raises(ConfigError, match=rf"^\[{section}\] "):
                load_config(_write_config(tmp_path, text))

    def test_type_errors_name_the_key(self, tmp_path):
        with pytest.raises(ConfigError, match="lexicon.keywords"):
            load_config(_write_config(tmp_path, "[lexicon]\nkeywords = many\n"))
        with pytest.raises(ConfigError, match="clamp_observed"):
            load_config(_write_config(tmp_path, "[graph]\nclamp_observed = maybe\n"))
        with pytest.raises(ConfigError, match="synth.start"):
            load_config(_write_config(tmp_path, "[synth]\nstart = someday\n"))
        with pytest.raises(ConfigError, match="paths.prices"):
            load_config(_write_config(tmp_path, "[paths]\nprices =\n"))

    @pytest.mark.parametrize("text", ["20120102", "2012-W01-1"])
    def test_dates_are_yyyy_mm_dd_in_the_file_and_in_overrides(self, tmp_path, text):
        wanted = f"dates.train_end: expected a YYYY-MM-DD date, got {text!r}"
        path = _write_config(tmp_path, f"[dates]\ntrain_end = {text}\n")
        with pytest.raises(ConfigError) as caught:
            load_config(path)
        assert str(caught.value) == wanted
        with pytest.raises(ConfigError) as caught:
            load_config(_write_config(tmp_path), [f"dates.train_end={text}"])
        assert str(caught.value) == wanted

    @pytest.mark.parametrize(
        "override, wanted",
        [
            ("training.l2=nan", "training.l2: expected a finite number, got 'nan'"),
            (
                "embedding.learning_rate=nan",
                "embedding.learning_rate: expected a finite number, got 'nan'",
            ),
            (
                "sweep.taus=0.2,inf",
                "sweep.taus: expected comma-separated finite numbers, got '0.2,inf'",
            ),
        ],
    )
    def test_numbers_must_be_finite(self, tmp_path, override, wanted):
        with pytest.raises(ConfigError) as caught:
            load_config(_write_config(tmp_path), [override])
        assert str(caught.value) == wanted

    @pytest.mark.parametrize("section", ["pipeline", "synth"])
    def test_seeds_must_be_non_negative(self, tmp_path, section):
        path = _write_config(tmp_path)
        with pytest.raises(ConfigError) as caught:
            load_config(path, [f"{section}.seed=-3"])
        assert str(caught.value) == f"[{section}] seed must be non-negative"
        assert getattr(load_config(path, [f"{section}.seed=0"]), section).seed == 0

    def test_pipeline_seed_is_the_only_seed_key_of_its_sections(self, tmp_path):
        path = _write_config(tmp_path, "[pipeline]\nseed = 9\n")
        config = load_config(path)
        assert config.embedding.seed == config.training.seed == 9
        assert config.synth.seed == 7
        for key in ("embedding.seed=3", "training.seed=3"):
            with pytest.raises(ConfigError, match="unknown key"):
                load_config(path, overrides=[key])

    def test_stage_key_covers_only_the_declared_sections(self, tmp_path):
        config = load_config(_write_config(tmp_path))
        assert cli._stage_key(config, "lexicon") == text_sha256(repr(config.lexicon))
        assert cli._stage_key(config, "ablation") == text_sha256(
            f"{config.training!r}\nrevision 2"
        )
        dates, graph, sweep = config.dates, config.graph, config.sweep
        assert cli._stage_key(config, "ingest") == text_sha256(
            f"dates.train_end={dates.train_end!r}\n"
            f"dates.valid_end={dates.valid_end!r}\nrevision 2"
        )
        assert cli._stage_key(config, "graph") == text_sha256(
            f"graph.threshold={graph.threshold!r}\n"
            f"graph.min_overlap={graph.min_overlap!r}\n"
            "graph.window_start=None\ngraph.window_end=None"
        )
        assert cli._stage_key(config, "sweep") == text_sha256(
            f"graph.iterations={graph.iterations!r}\n"
            f"graph.clamp_observed={graph.clamp_observed!r}\n"
            f"sweep.taus={sweep.taus!r}"
        )

    def test_stage_key_ignores_unrelated_changes(self, tmp_path):
        path = _write_config(tmp_path)
        units = list(cli.UNITS)

        def changed(override):
            base, tweaked = load_config(path), load_config(path, [override])
            key = cli._stage_key
            return {u for u in units if key(base, u) != key(tweaked, u)}

        assert changed("training.epochs=5") == {"train", "ablation"}
        assert changed("lexicon.keywords=7") == {"lexicon"}
        assert changed("pipeline.seed=2") == {"embed", "train", "ablation"}
        assert changed("paths.work_dir=elsewhere") == set()
        assert changed("sweep.taus=0.5") == {"sweep"}
        assert changed("sweep.predict_tau=0.5") == {"predict"}
        assert changed("graph.threshold=0.7") == {"graph"}
        assert changed("graph.iterations=2") == {"predict", "sweep"}
        assert changed("dates.valid_end=2013-07-01") == {"ingest"}
        assert changed("dates.train_start=2000-01-01") == {"featurize"}
        assert changed("dates.train_end=2012-12-30") == {"ingest", "featurize"}


class TestReadme:
    def test_configuration_block_matches_the_schema(self, tmp_path):
        text = README.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1]
        block = text.split("```ini\n", 1)[1].split("```", 1)[0]
        parser = configparser.RawConfigParser(inline_comment_prefixes=(";",))
        parser.optionxform = str
        parser.read_string(block)
        listed = {section: set(parser[section]) for section in parser.sections()}
        assert listed == {s: {key.name for key in keys} for s, keys in SCHEMA.items()}
        # as written, comments and all, the block loads to exactly the defaults
        defaults = load_config(_write_config(tmp_path))
        assert load_config(_write_config(tmp_path, block)) == defaults


class TestHashes:
    def test_file_sha256_known_value(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"abc")
        assert file_sha256(path) == SHA_ABC

    def test_text_sha256_matches_file_hash(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"abc")
        assert text_sha256("abc") == file_sha256(path)


class TestManifest:
    def _stage_files(self, tmp_path):
        source = tmp_path / "input.txt"
        source.write_text("raw data\n")
        artifact = tmp_path / "work" / "artifact.txt"
        artifact.parent.mkdir(exist_ok=True)
        artifact.write_text("derived\n")
        return {"source": source}, {"artifact": artifact}

    def test_fresh_manifest_is_up_to_date(self, tmp_path):
        inputs, outputs = self._stage_files(tmp_path)
        work = tmp_path / "work"
        write_manifest(work, "stage", inputs, outputs, "cfg", Digests())
        assert manifest_path(work, "stage").is_file()
        assert up_to_date(work, "stage", inputs, outputs, "cfg", Digests())

    def test_changed_input_invalidates(self, tmp_path):
        inputs, outputs = self._stage_files(tmp_path)
        work = tmp_path / "work"
        write_manifest(work, "stage", inputs, outputs, "cfg", Digests())
        inputs["source"].write_text("different data\n")
        assert not up_to_date(work, "stage", inputs, outputs, "cfg", Digests())

    def test_changed_config_invalidates(self, tmp_path):
        inputs, outputs = self._stage_files(tmp_path)
        work = tmp_path / "work"
        write_manifest(work, "stage", inputs, outputs, "cfg", Digests())
        assert not up_to_date(work, "stage", inputs, outputs, "other", Digests())

    def test_dropped_or_added_input_invalidates(self, tmp_path):
        inputs, outputs = self._stage_files(tmp_path)
        work = tmp_path / "work"
        extra = tmp_path / "extra.txt"
        extra.write_text("optional input\n")
        extended = {**inputs, "extra": extra}
        write_manifest(work, "stage", extended, outputs, "cfg", Digests())
        assert up_to_date(work, "stage", extended, outputs, "cfg", Digests())
        assert not up_to_date(work, "stage", inputs, outputs, "cfg", Digests())
        write_manifest(work, "stage", inputs, outputs, "cfg", Digests())
        assert not up_to_date(work, "stage", extended, outputs, "cfg", Digests())

    def test_missing_or_modified_output_invalidates(self, tmp_path):
        inputs, outputs = self._stage_files(tmp_path)
        work = tmp_path / "work"
        write_manifest(work, "stage", inputs, outputs, "cfg", Digests())
        outputs["artifact"].write_text("tampered\n")
        assert not up_to_date(work, "stage", inputs, outputs, "cfg", Digests())
        outputs["artifact"].unlink()
        assert not up_to_date(work, "stage", inputs, outputs, "cfg", Digests())

    def test_renamed_output_set_invalidates(self, tmp_path):
        inputs, outputs = self._stage_files(tmp_path)
        work = tmp_path / "work"
        write_manifest(work, "stage", inputs, outputs, "cfg", Digests())
        renamed = {"other_name": outputs["artifact"]}
        assert not up_to_date(work, "stage", inputs, renamed, "cfg", Digests())

    def test_absent_or_corrupt_manifest_is_stale(self, tmp_path):
        inputs, outputs = self._stage_files(tmp_path)
        work = tmp_path / "work"
        assert not up_to_date(work, "stage", inputs, outputs, "cfg", Digests())
        for text in ("{broken", "[]"):
            manifest_path(work, "stage").write_text(text)
            assert not up_to_date(work, "stage", inputs, outputs, "cfg", Digests())

    @pytest.mark.parametrize("kind", ["inputs", "outputs"])
    @pytest.mark.parametrize("shape", [None, 5, "names"])
    def test_malformed_file_table_is_stale(self, tmp_path, kind, shape):
        inputs, outputs = self._stage_files(tmp_path)
        work = tmp_path / "work"
        write_manifest(work, "stage", inputs, outputs, "cfg", Digests())
        path = manifest_path(work, "stage")
        record = json.loads(path.read_text())
        record[kind] = sorted(record[kind]) if shape == "names" else shape
        path.write_text(json.dumps(record))
        assert not up_to_date(work, "stage", inputs, outputs, "cfg", Digests())

    def test_version_change_invalidates(self, tmp_path):
        inputs, outputs = self._stage_files(tmp_path)
        work = tmp_path / "work"
        write_manifest(work, "stage", inputs, outputs, "cfg", Digests())
        path = manifest_path(work, "stage")
        record = json.loads(path.read_text())
        record["versions"]["package"] = "0.0.0-other"
        path.write_text(json.dumps(record))
        assert not up_to_date(work, "stage", inputs, outputs, "cfg", Digests())

    @pytest.mark.parametrize(
        "env, cpus, threads",
        [
            ({}, 2, 2),
            ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1),
            ({"OMP_NUM_THREADS": "1"}, 2, 1),
            ({"GOTO_NUM_THREADS": "1"}, 2, 1),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 2),
            ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, 1),
            ({"OPENBLAS_NUM_THREADS": "4"}, 2, 2),
            ({"OPENBLAS_NUM_THREADS": "0"}, 2, 2),
            ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 1),
            ({"OPENBLAS_NUM_THREADS": "2"}, 1, 1),
        ],
    )
    def test_recorded_blas_threads(self, monkeypatch, env, cpus, threads):
        """The first positive thread variable, capped at the usable CPUs."""
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        usable = set(range(cpus))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable, raising=False)
        assert manifest._versions()["blas_threads"] == str(threads)

    def test_recorded_numpy_version_is_the_imported_one(self):
        """The version is read from metadata; manifests must not change by it."""
        import numpy

        assert manifest._versions()["numpy"] == numpy.__version__


class TestWorkDirLock:
    def test_lock_file_lives_only_inside_the_context(self, tmp_path):
        work = tmp_path / "work"
        with work_dir_lock(work):
            assert (work / ".lock").is_file()
        with work_dir_lock(work):
            pass

    def test_concurrent_lock_refused(self, tmp_path):
        work = tmp_path / "work"
        with work_dir_lock(work):
            with pytest.raises(PipelineError, match="locked by another run"):
                with work_dir_lock(work):
                    pass
        with work_dir_lock(work):
            pass

    def test_lock_released_after_an_exception(self, tmp_path):
        work = tmp_path / "work"
        with pytest.raises(RuntimeError):
            with work_dir_lock(work):
                raise RuntimeError("boom")
        with work_dir_lock(work):
            pass

    def test_creates_missing_work_dir(self, tmp_path):
        work = tmp_path / "deep" / "nested" / "work"
        with work_dir_lock(work):
            assert work.is_dir()

    @pytest.mark.parametrize(
        "content",
        [
            "",
            "not a pid\n",
            "0\n",
            "-1\n",
            pytest.param(f"{os.getppid()}\n", id="live-pid"),
        ],
    )
    def test_lock_file_content_does_not_block(self, tmp_path, content):
        (tmp_path / ".lock").write_text(content)
        with work_dir_lock(tmp_path):
            with pytest.raises(PipelineError, match="locked by another run"):
                with work_dir_lock(tmp_path):
                    pass

    def test_lock_of_a_killed_run_is_free_without_a_warning(self, tmp_path, caplog):
        config = _write_config(
            tmp_path,
            "[synth]\ntickers = 6\ngroup_count = 2\ngroup_size = 3\n"
            "actives_per_group = 2\nstart = 2012-01-02\nend = 2012-03-30\n"
            "news_start = 2012-02-01\n",
        )
        holder = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; from newsmotion.manifest import work_dir_lock\n"
                "with work_dir_lock(sys.argv[1]):\n"
                "    print('locked', flush=True); sys.stdin.read()",
                str(tmp_path / "work"),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            text=True,
        )
        try:
            assert holder.stdout.readline() == "locked\n"
            with caplog.at_level(logging.ERROR):
                assert cli.main(["synth", "--config", str(config)]) == 2
            assert "locked by another run" in caplog.text
        finally:
            holder.kill()
            holder.communicate()
        assert holder.returncode == -signal.SIGKILL
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert cli.main(["synth", "--config", str(config)]) == 0
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
