"""Stage manifests for artifact caching, the store of past outputs, and
the work-dir lock.

Each pipeline stage records the content hashes of its inputs and outputs,
the hash of the config sections and fields it reads (the seed among
them), and tool versions. A stage is skippable when its manifest still
matches all of those, which lets expensive stages cache their artifacts
across reruns. The CLI reads an artifact only while its producer, and
every stage above that one, is up to date in this sense. Artifacts and
manifests are written to a temporary file and renamed into place.

The store, ``.store/<stage>/<trace>/`` in the work dir, keeps the last
few outputs of each stage, each with its manifest. The trace names what
the outputs are a function of: the config hash, the input hashes by name
and the tool versions (the "constructive trace" of Mokhov, Mitchell and
Peyton Jones, "Build Systems a la Carte", ICFP 2018). A stale stage
whose trace is stored gets its outputs back by a copy.
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import glob
import hashlib
import json
import os
import platform
import shutil
import time
from importlib import util
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from . import __version__
from .errors import PipelineError

_CHUNK = 1 << 20


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        while True:
            chunk = fh.read(_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.cache
def _numpy_version() -> str:
    # Read from numpy's metadata, so that a stage that only checks its
    # manifest never imports numpy. The dist-info next to the package
    # is read directly: importing importlib.metadata costs 20-30 ms.
    spec = util.find_spec("numpy")
    site = Path(spec.origin).parent.parent if spec and spec.origin else None
    infos = list(site.glob("numpy-*.dist-info")) if site else []
    if len(infos) == 1:
        with contextlib.suppress(OSError):
            text = (infos[0] / "METADATA").read_text(encoding="utf-8")
            for line in text.splitlines():
                if line.startswith("Version:"):
                    return line.split(":", 1)[1].strip()
    from importlib import metadata

    return metadata.version("numpy")


def _blas_threads() -> int:
    """The thread count OpenBLAS starts with, read without importing numpy.

    Matrix products can round differently at another thread count, so
    bytes made at one count are not reused at another. OpenBLAS takes the
    first positive value of these variables, capped at the CPUs this
    process may run on; with none set, it uses all of those CPUs.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return min(threads, cpus)
    return cpus


def _versions() -> dict[str, str]:
    return {
        "package": __version__,
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "blas_threads": str(_blas_threads()),
    }


def manifest_path(work_dir: str | Path, stage: str) -> Path:
    return Path(work_dir) / f"{stage}.manifest.json"


class Digests(dict):
    """SHA-256 of each file, keyed by path, hashed on its first lookup only.

    One run shares one instance, so a file that several manifest checks
    compare, and that the unit's new manifest then records, is read once.
    """

    def __missing__(self, path: Path) -> str:
        digest = self[path] = file_sha256(path)
        return digest


@contextlib.contextmanager
def replacing(files: Mapping[str, Path]) -> Iterator[dict[str, Path]]:
    """Temporary paths for ``files``, renamed over them when the block succeeds.

    Each temporary file sits in its destination's own directory, so the
    rename is atomic. If the block raises, the temporary files are removed
    and every destination keeps its old bytes.
    """
    temporary = {
        name: path.with_name(f".{path.name}.{os.getpid()}.tmp")
        for name, path in files.items()
    }
    try:
        for path in files.values():
            path.parent.mkdir(parents=True, exist_ok=True)
        yield temporary
        for name, path in files.items():
            os.replace(temporary[name], path)
    finally:
        for path in temporary.values():
            with contextlib.suppress(FileNotFoundError):
                path.unlink()


def remove_leftovers(files: Iterable[Path]) -> None:
    """Delete the temporary files a killed ``replacing`` left beside ``files``.

    Call it only where no other run can be writing them, under the
    work-dir lock.
    """
    for path in files:
        for leftover in path.parent.glob(f".{glob.escape(path.name)}.*.tmp"):
            leftover.unlink(missing_ok=True)


def _trace(
    stage: str, inputs: Mapping[str, Path], config_hash: str, digests: Digests
) -> dict:
    """A manifest but for its outputs: everything the outputs are a function of."""
    return {
        "stage": stage,
        "config": config_hash,
        "inputs": {name: digests[path] for name, path in sorted(inputs.items())},
        "versions": _versions(),
    }


def write_manifest(
    work_dir: str | Path,
    stage: str,
    inputs: Mapping[str, Path],
    outputs: Mapping[str, Path],
    config_hash: str,
    digests: Digests,
) -> None:
    """Record the stage's input and output hashes after a successful run.

    The outputs are hashed afresh, as the stage has just rewritten them.
    """
    for path in outputs.values():
        digests.pop(path, None)
    record = _trace(stage, inputs, config_hash, digests)
    record["outputs"] = {name: digests[path] for name, path in sorted(outputs.items())}
    with replacing({stage: manifest_path(work_dir, stage)}) as temporary:
        temporary[stage].write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def up_to_date(
    work_dir: str | Path,
    stage: str,
    inputs: Mapping[str, Path],
    outputs: Mapping[str, Path],
    config_hash: str,
    digests: Digests,
) -> bool:
    """Whether the stage's manifest still matches its inputs and outputs."""
    try:
        record = json.loads(manifest_path(work_dir, stage).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return False
    if not isinstance(record, dict) or record.get("config") != config_hash:
        return False
    if record.get("versions") != _versions():
        return False
    # The recorded names must match too: an input or output the stage
    # no longer passes (say, a config path now left blank) makes it stale.
    for kind, files in (("inputs", inputs), ("outputs", outputs)):
        recorded = record.get(kind, {})
        if not isinstance(recorded, dict) or set(recorded) != set(files):
            return False
        for name, file in sorted(files.items()):
            if not Path(file).is_file() or recorded[name] != digests[file]:
                return False
    return True


def _entry(work_dir: str | Path, trace: dict) -> Path:
    """The store directory of a trace."""
    name = text_sha256(json.dumps(trace, sort_keys=True))
    return Path(work_dir) / ".store" / trace["stage"] / name


def _use(entry: Path) -> None:
    """Mark a store entry as the stage's most recently used one."""
    now = time.time_ns()
    os.utime(entry, ns=(now, now))


def restore(
    work_dir: str | Path,
    stage: str,
    inputs: Mapping[str, Path],
    outputs: Mapping[str, Path],
    config_hash: str,
    digests: Digests,
) -> bool:
    """Put back the stored outputs of the stage's current trace, and their manifest.

    Returns False, and changes nothing, when the store holds no entry for
    the trace or one of its files no longer hashes to the digest its
    manifest records. The copies go through ``replacing``, the manifest
    renamed last, so a run killed midway leaves the old manifest, which
    vouches for no mix of old and new outputs.
    """
    trace = _trace(stage, inputs, config_hash, digests)
    entry = _entry(work_dir, trace)
    manifest = manifest_path(work_dir, stage)
    try:
        record = json.loads((entry / manifest.name).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False
    stored = record.pop("outputs", None) if isinstance(record, dict) else None
    if record != trace or not isinstance(stored, dict) or set(stored) != set(outputs):
        return False
    try:
        if any(file_sha256(entry / p.name) != stored[n] for n, p in outputs.items()):
            return False
    except OSError:
        return False
    files = {**outputs, manifest.name: manifest}
    with replacing(files) as temporary:
        for name, path in files.items():
            shutil.copyfile(entry / path.name, temporary[name])
    for name, path in outputs.items():
        digests[path] = stored[name]
    _use(entry)
    return True


def store(
    work_dir: str | Path, stage: str, outputs: Mapping[str, Path], entries: int
) -> None:
    """Keep copies of the stage's outputs and of the manifest just written for them.

    The copies are made in a temporary directory, which one rename then
    publishes as the trace's entry. The stage keeps its ``entries`` most
    recently used entries.
    """
    manifest = manifest_path(work_dir, stage)
    trace = json.loads(manifest.read_text(encoding="utf-8"))
    del trace["outputs"]
    entry = _entry(work_dir, trace)
    temporary = entry.with_name(f".{entry.name}.{os.getpid()}.tmp")
    temporary.mkdir(parents=True)
    for path in (*outputs.values(), manifest):
        shutil.copyfile(path, temporary / path.name)
    shutil.rmtree(entry, ignore_errors=True)
    os.replace(temporary, entry)
    _use(entry)
    prune(work_dir, stage, entries)


def prune(work_dir: str | Path, stage: str, entries: int) -> None:
    """Delete the stage's store entries past its ``entries`` most recently
    used, and what a killed ``store`` left.

    Call it only where no other run can be writing them, under the
    work-dir lock.
    """
    root = Path(work_dir) / ".store" / stage
    if not root.is_dir():
        return
    kept = []
    for path in root.iterdir():
        if path.name.startswith("."):
            shutil.rmtree(path)
        else:
            kept.append((path.stat().st_mtime_ns, path.name))
    for _, name in sorted(kept, reverse=True)[entries:]:
        shutil.rmtree(root / name)


@contextlib.contextmanager
def work_dir_lock(work_dir: str | Path) -> Iterator[None]:
    """Exclusive lock on the work dir; concurrent runs against it refuse to start.

    The kernel holds an ``flock`` on the open ``.lock`` file and drops it
    when the holder ends, however it ends, so a killed run never leaves
    the work dir locked. The file holds nothing and is never removed:
    after an unlink, a run that had opened the old file could lock it
    while a third run locks a new one, and both would go ahead.
    """
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    with (work_dir / ".lock").open("ab") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise PipelineError(
                f"work dir {work_dir} is locked by another run"
            ) from None
        yield
