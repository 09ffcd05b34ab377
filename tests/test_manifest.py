"""Tests for stage manifests, the store of past outputs, and the work-dir lock."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from newsmotion import cli
from newsmotion import manifest
from newsmotion.errors import PipelineError
from newsmotion.manifest import (
    Digests,
    file_sha256,
    manifest_path,
    prune,
    restore,
    store,
    text_sha256,
    up_to_date,
    work_dir_lock,
    write_manifest,
)

from support import SMOKE_CONFIG, child_env, smoke_digests, work_digests

SHA_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def _write_config(tmp_path: Path, text: str = "") -> Path:
    path = tmp_path / "pipeline.ini"
    path.write_text(text)
    return path


class TestHashes:
    def test_file_sha256_known_value(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"abc")
        assert file_sha256(path) == SHA_ABC

    @pytest.mark.parametrize(
        "size",
        [
            0,
            1,
            manifest._CHUNK - 1,
            manifest._CHUNK,
            manifest._CHUNK + 1,
            3 * manifest._CHUNK + 7,
        ],
    )
    def test_file_sha256_hashes_every_byte_across_buffer_edges(self, tmp_path, size):
        data = random.Random(size).randbytes(size)
        path = tmp_path / "blob"
        path.write_bytes(data)
        assert file_sha256(path) == hashlib.sha256(data).hexdigest()

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
        # pid 0 is this process; another pid's affinity is not ours
        affinity = {0: set(range(cpus)), 1: set(range(cpus + 1))}
        monkeypatch.setattr(os, "sched_getaffinity", affinity.get, raising=False)
        assert manifest._versions()["blas_threads"] == str(threads)

    @pytest.mark.parametrize("cpus, threads", [(3, 3), (None, 1)])
    def test_without_affinity_the_cpu_count_caps_the_threads(
        self, monkeypatch, cpus, threads
    ):
        """Where the OS reports no affinity; an unknown CPU count means one."""
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert manifest._versions()["blas_threads"] == str(threads)

    def test_recorded_numpy_version_is_the_imported_one(self):
        """The version is read from metadata; manifests must not change by it."""
        import numpy

        assert manifest._versions()["numpy"] == numpy.__version__

    def test_recorded_python_version_is_the_platform_one(self):
        """Read from sys.version, so that no stage imports platform."""
        import platform

        assert manifest._versions()["python"] == platform.python_version()

    @pytest.mark.parametrize(
        "spec",
        [None, SimpleNamespace(origin=None)],
        ids=["not-found", "no-origin"],
    )
    def test_a_numpy_without_a_located_package_reads_its_installed_version(
        self, monkeypatch, spec
    ):
        """With no package file to look beside, the version comes from
        importlib.metadata."""
        from importlib import metadata

        monkeypatch.setattr(manifest.util, "find_spec", lambda name: spec)
        manifest._numpy_version.cache_clear()
        try:
            assert manifest._numpy_version() == metadata.version("numpy")
        finally:
            manifest._numpy_version.cache_clear()

    def test_a_manifest_is_sorted_json_indented_by_two(self, tmp_path):
        """The bytes of a manifest are part of the work dir, which runs compare."""
        inputs, outputs = self._stage_files(tmp_path)
        work = tmp_path / "work"
        write_manifest(work, "stage", inputs, outputs, "cfg", Digests())
        text = manifest_path(work, "stage").read_text()
        record = json.loads(text)
        assert list(record) == ["config", "inputs", "outputs", "stage", "versions"]
        assert text == json.dumps(record, indent=2, sort_keys=True) + "\n"
        assert '\n  "config": "cfg",\n' in text


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


class _Stage:
    """A stage that makes two outputs from one input file, in a work dir."""

    def __init__(self, root: Path):
        self.work = root / "work"
        self.inputs = {"source": root / "input.txt"}
        self.outputs = {name: self.work / name for name in ("a.txt", "b.txt")}
        self.work.mkdir(parents=True, exist_ok=True)

    def make(self, text: str, key: str = "cfg", entries: int = 4) -> None:
        """Run the stage on ``text``: write its outputs and manifest, and store them."""
        self.inputs["source"].write_text(text)
        for name, path in self.outputs.items():
            path.write_text(f"{name} made from {text}\n")
        write_manifest(self.work, "stage", self.inputs, self.outputs, key, Digests())
        store(self.work, "stage", self.outputs, entries)

    def restore(self, text: str, key: str = "cfg", digests=None) -> bool:
        self.inputs["source"].write_text(text)
        digests = Digests() if digests is None else digests
        return restore(self.work, "stage", self.inputs, self.outputs, key, digests)

    def tree(self) -> dict[str, bytes]:
        """The work dir's files outside the store, by name."""
        return {p.name: p.read_bytes() for p in self.work.iterdir() if p.is_file()}

    def entries(self) -> list[Path]:
        return sorted((self.work / ".store" / "stage").iterdir())

    def entry(self, text: str) -> Path:
        """The store entry whose a.txt was made from ``text``."""
        made = f"a.txt made from {text}\n"
        (found,) = [e for e in self.entries() if (e / "a.txt").read_text() == made]
        return found


class TestStore:
    def test_a_stored_trace_comes_back_with_its_manifest(self, tmp_path):
        stage = _Stage(tmp_path)
        stage.make("one")
        made = stage.tree()
        stage.make("two")
        assert stage.tree() != made
        digests = Digests()
        assert stage.restore("one", digests=digests)
        assert stage.tree() == made
        for path in stage.outputs.values():
            assert digests[path] == file_sha256(path)
        assert up_to_date(
            stage.work, "stage", stage.inputs, stage.outputs, "cfg", Digests()
        )

    def test_an_entry_holds_the_outputs_and_their_manifest(self, tmp_path):
        stage = _Stage(tmp_path)
        stage.make("one")
        (entry,) = stage.entries()
        assert sorted(p.name for p in entry.iterdir()) == [
            "a.txt",
            "b.txt",
            "stage.manifest.json",
        ]
        assert {p.name: p.read_bytes() for p in entry.iterdir()} == stage.tree()
        trace = json.loads(manifest_path(stage.work, "stage").read_text())
        del trace["outputs"]
        assert entry.name == text_sha256(json.dumps(trace, sort_keys=True))

    @pytest.mark.parametrize("text, key", [("two", "cfg"), ("one", "other")])
    def test_another_input_or_config_is_a_miss(self, tmp_path, text, key):
        stage = _Stage(tmp_path)
        stage.make("one")
        made = stage.tree()
        assert not stage.restore(text, key)
        assert stage.tree() == made

    def test_another_version_is_a_miss(self, tmp_path, monkeypatch):
        stage = _Stage(tmp_path)
        stage.make("one")
        stage.make("two")
        versions = manifest._versions()
        monkeypatch.setattr(manifest, "_versions", lambda: {**versions, "numpy": "0"})
        assert not stage.restore("one")

    @pytest.mark.parametrize("name", ["a.txt", "b.txt"])
    def test_a_stored_file_with_a_flipped_byte_is_a_miss(self, tmp_path, name):
        stage = _Stage(tmp_path)
        stage.make("one")
        stage.make("two")
        made = stage.tree()
        path = stage.entry("one") / name
        data = bytearray(path.read_bytes())
        data[0] ^= 1
        path.write_bytes(bytes(data))
        assert not stage.restore("one")
        assert stage.tree() == made
        # the next run of the body stores its outputs in the entry's place
        stage.make("one")
        assert stage.entry("one").joinpath(name).read_bytes() == stage.tree()[name]

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda entry: (entry / "b.txt").unlink(),
            lambda entry: (entry / "stage.manifest.json").unlink(),
            lambda entry: (entry / "stage.manifest.json").write_text("{broken"),
            lambda entry: (entry / "stage.manifest.json").write_text("[]"),
            lambda entry: _edit(entry, lambda r: r.pop("outputs")),
            lambda entry: _edit(entry, lambda r: r.update(outputs=None)),
            lambda entry: _edit(entry, lambda r: r.update(outputs=list(r["outputs"]))),
            lambda entry: _edit(entry, lambda r: r["outputs"].pop("b.txt")),
            lambda entry: _edit(entry, lambda r: r.update(config="other")),
        ],
        ids=[
            "output-gone",
            "manifest-gone",
            "manifest-not-json",
            "manifest-a-list",
            "no-outputs",
            "outputs-null",
            "outputs-a-list",
            "an-output-unlisted",
            "another-config",
        ],
    )
    def test_a_spoilt_entry_is_a_miss(self, tmp_path, spoil):
        stage = _Stage(tmp_path)
        stage.make("one")
        stage.make("two")
        made = stage.tree()
        spoil(stage.entry("one"))
        assert not stage.restore("one")
        assert stage.tree() == made

    def test_each_stage_keeps_its_most_recently_used_entries(self, tmp_path):
        stage = _Stage(tmp_path)
        stage.make("one", entries=2)
        stage.make("two", entries=2)
        assert len(stage.entries()) == 2
        # a restore counts as a use, so "two" is now the least recently used
        assert stage.restore("one")
        stage.make("three", entries=2)
        assert len(stage.entries()) == 2
        assert not stage.restore("two")
        assert stage.restore("one")
        assert stage.restore("three")

    def test_a_lower_cap_evicts_the_least_recently_used_first(self, tmp_path):
        stage = _Stage(tmp_path)
        for text in ("one", "two", "three"):
            stage.make(text)
        assert stage.restore("one")
        prune(stage.work, "stage", 2)
        assert [stage.restore(text) for text in ("two", "three", "one")] == [
            False,
            True,
            True,
        ]
        prune(stage.work, "stage", 0)
        assert stage.entries() == []

    def test_prune_makes_no_store(self, tmp_path):
        stage = _Stage(tmp_path)
        prune(stage.work, "stage", 4)
        assert not (stage.work / ".store").exists()

    def test_prune_deletes_what_a_killed_store_left(self, tmp_path):
        stage = _Stage(tmp_path)
        stage.make("one")
        (entry,) = stage.entries()
        leftover = entry.with_name(f".{entry.name}.12345.tmp")
        leftover.mkdir()
        (leftover / "a.txt").write_text("half")
        prune(stage.work, "stage", 4)
        assert stage.entries() == [entry]


def _edit(entry: Path, change) -> None:
    """Apply ``change`` to the entry's stored manifest record."""
    path = entry / "stage.manifest.json"
    record = json.loads(path.read_text())
    change(record)
    path.write_text(json.dumps(record))


# The default graph.threshold of the smoke config, and another setting.
AT_DEFAULT: tuple[str, ...] = ()
RETUNED = ("graph.threshold=0.7",)
TUNED = ("graph", "predict", "evaluate")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The smoke pipeline, run once at its defaults, and its work-dir digests."""
    root = tmp_path_factory.mktemp("smoke")
    return root, smoke_digests(root)


def _copy(smoke, tmp_path) -> Path:
    """A private copy of the smoke run; returns its config."""
    root = tmp_path / "copy"
    shutil.copytree(smoke[0], root)
    return root / "pipeline.ini"


def _run(config: Path, overrides, stages=TUNED, *args: str) -> None:
    sets = [arg for item in overrides for arg in ("--set", item)]
    for stage in stages:
        assert cli.main([stage, "--config", str(config), *sets, *args]) == 0, stage


def _counting_graph_builds(monkeypatch) -> list[int]:
    calls, build = [], cli.build_graph

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "build_graph", counting)
    return calls


class TestRestore:
    """The store on the smoke pipeline, retuned the way the benchmark retunes it."""

    def test_every_unit_but_synth_keeps_one_entry_of_a_cold_run(self, smoke):
        """synth writes the user's files, which the store does not hold."""
        store_dir = smoke[0] / "work" / ".store"
        stored = {p.name: len(list(p.iterdir())) for p in store_dir.iterdir()}
        assert stored == {unit: 1 for unit in cli.UNITS if unit != "synth"}

    def test_returning_to_a_setting_restores_it_byte_for_byte(
        self, smoke, tmp_path, monkeypatch, caplog
    ):
        config = _copy(smoke, tmp_path)
        work = config.parent / "work"
        _run(config, RETUNED)
        retuned = work_digests(work)
        assert retuned["graph.csv"] != smoke[1]["graph.csv"]

        def failing(config, inputs, outputs):
            raise AssertionError("a restoring unit ran its body")

        for unit in ("graph", "predict", "sweep"):
            monkeypatch.setitem(cli.UNITS, unit, cli.UNITS[unit]._replace(body=failing))
        with caplog.at_level(logging.INFO):
            _run(config, AT_DEFAULT)
        for unit in ("graph", "predict", "sweep"):
            assert f"{unit}: restored from the store" in caplog.text
        assert "ablation: artifacts up to date, skipping" in caplog.text
        assert work_digests(work) == smoke[1]
        caplog.clear()
        with caplog.at_level(logging.INFO):
            _run(config, RETUNED)
        assert caplog.text.count("restored from the store") == 3
        assert work_digests(work) == retuned

    def test_a_restoring_unit_deletes_the_file_it_retired(
        self, smoke, tmp_path, caplog
    ):
        """The sweep restores; evaluate's manifest of an older format goes."""
        config = _copy(smoke, tmp_path)
        work = config.parent / "work"
        _run(config, RETUNED)
        (work / "evaluate.manifest.json").write_text("{}\n")
        with caplog.at_level(logging.INFO):
            _run(config, AT_DEFAULT)
        assert "sweep: restored from the store" in caplog.text
        assert work_digests(work) == smoke[1]

    def test_a_flipped_stored_byte_reruns_the_unit_and_replaces_its_entry(
        self, smoke, tmp_path, monkeypatch, caplog
    ):
        config = _copy(smoke, tmp_path)
        work = config.parent / "work"
        _run(config, RETUNED, ("graph",))
        made = smoke[1]["graph.csv"]
        (stored,) = [
            path
            for path in (work / ".store" / "graph").glob("*/graph.csv")
            if file_sha256(path) == made
        ]
        data = bytearray(stored.read_bytes())
        data[len(data) // 2] ^= 1
        stored.write_bytes(bytes(data))
        builds = _counting_graph_builds(monkeypatch)
        with caplog.at_level(logging.INFO):
            _run(config, AT_DEFAULT, ("graph",))
        assert builds == [1]
        assert "restored" not in caplog.text
        assert file_sha256(work / "graph.csv") == made
        assert file_sha256(stored) == made

    def test_force_runs_the_body_of_a_stored_trace(
        self, smoke, tmp_path, monkeypatch, caplog
    ):
        config = _copy(smoke, tmp_path)
        _run(config, RETUNED, ("graph",))
        builds = _counting_graph_builds(monkeypatch)
        with caplog.at_level(logging.INFO):
            _run(config, AT_DEFAULT, ("graph",), "--force")
        assert builds == [1]
        assert "restored" not in caplog.text
        assert work_digests(config.parent / "work") == smoke[1]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_restore_killed_at_each_rename_vouches_for_no_mix(
        self, smoke, tmp_path, caplog, n
    ):
        """evaluate restores the sweep: sweep.csv, sweep.txt, then its manifest."""
        config = _copy(smoke, tmp_path)
        work = config.parent / "work"
        _run(config, RETUNED)
        names = ("sweep.csv", "sweep.txt")
        retuned = {name: file_sha256(work / name) for name in names}
        _run(config, AT_DEFAULT, ("graph", "predict"))
        killed = subprocess.run(
            [sys.executable, "-c", _KILL_AT_REPLACE, str(n), "evaluate"]
            + ["--config", str(config)],
            cwd=tmp_path,
            env=child_env(),
            capture_output=True,
            text=True,
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert list(work.glob(".*.tmp")), "the kill left no temporary file"
        recorded = json.loads(manifest_path(work, "sweep").read_text())["outputs"]
        now = {name: file_sha256(work / name) for name in names}
        restored = {name: smoke[1][name] for name in names}
        assert recorded != now or now in (retuned, restored)
        with caplog.at_level(logging.WARNING):
            _run(config, AT_DEFAULT, ("evaluate",))
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert list(work.rglob(".*.tmp")) == []
        assert work_digests(work) == smoke[1]

    def test_a_restoring_stage_imports_no_numpy(self, smoke, tmp_path):
        config = _copy(smoke, tmp_path)
        _run(config, RETUNED)
        stderr = _lean_run(config, TUNED)
        for unit in ("graph", "predict", "sweep"):
            assert f"{unit}: restored from the store" in stderr

    def test_a_skipping_stage_imports_no_numpy(self, smoke, tmp_path):
        config = _copy(smoke, tmp_path)
        stages = ("ingest", "embed", "lexicon", "featurize", "train", *TUNED)
        stderr = _lean_run(config, stages)
        for unit in cli.UNITS.keys() - {"synth"}:
            assert f"{unit}: artifacts up to date, skipping" in stderr

    def test_no_store_is_kept_at_zero_entries(self, smoke, tmp_path, monkeypatch):
        config = _write_config(tmp_path, SMOKE_CONFIG)
        off = ("pipeline.store_entries=0",)
        _run(config, off, ("synth", "ingest"))
        assert not (tmp_path / "work" / ".store").exists()
        # an existing store is emptied, and nothing is restored from it
        config = _copy(smoke, tmp_path)
        _run(config, (*RETUNED, *off), ("graph",))
        assert list((config.parent / "work" / ".store" / "graph").iterdir()) == []
        builds = _counting_graph_builds(monkeypatch)
        _run(config, off, ("graph",))
        assert builds == [1]


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

# Runs the stages named after the config in one process, then checks
# that none of the heavy or unneeded modules was loaded from the package's
# import on: one that a site hook loaded before it does not count.
_LEAN = """\
import sys
preloaded = set(sys.modules)
from newsmotion import cli
for stage in sys.argv[2:]:
    assert cli.main([stage, "--config", sys.argv[1]]) == 0, stage
unneeded = (
    "numpy", "importlib.metadata", "platform", "newsmotion.tokens",
    "dataclasses", "inspect",
)
for name in unneeded:
    assert name in preloaded or name not in sys.modules, f"{name} imported"
"""


def _lean_run(config: Path, stages) -> str:
    """Runs ``stages`` by ``_LEAN`` in a fresh process; returns its log."""
    done = subprocess.run(
        [sys.executable, "-c", _LEAN, str(config), *stages],
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stderr
