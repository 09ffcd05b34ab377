"""Stage manifests for artifact caching, plus the work-dir lock.

Each pipeline stage records the content hashes of its inputs and outputs,
the hash of the config sections and fields it reads (the seed among
them), and tool versions. A stage is skippable when its manifest still
matches all of those, which lets expensive stages cache their artifacts
across reruns. The CLI reads an artifact only while its producer, and
every stage above that one, is up to date in this sense. Artifacts and
manifests are written to a temporary file and renamed into place.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import logging
import os
import platform
from importlib import metadata
from pathlib import Path
from typing import Iterator, Mapping

from . import __version__
from .errors import PipelineError

logger = logging.getLogger(__name__)

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
    # manifest never imports numpy.
    return metadata.version("numpy")


def _versions() -> dict[str, str]:
    return {
        "package": __version__,
        "python": platform.python_version(),
        "numpy": _numpy_version(),
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


def write_manifest(
    work_dir: str | Path,
    stage: str,
    inputs: Mapping[str, Path],
    outputs: Mapping[str, Path],
    config_hash: str,
    digests: Digests | None = None,
) -> None:
    """Record the stage's input and output hashes after a successful run.

    The outputs are hashed afresh, as the stage has just rewritten them.
    """
    digests = Digests() if digests is None else digests
    for path in outputs.values():
        digests.pop(path, None)
    record = {
        "stage": stage,
        "config": config_hash,
        "inputs": {name: digests[path] for name, path in sorted(inputs.items())},
        "outputs": {name: digests[path] for name, path in sorted(outputs.items())},
        "versions": _versions(),
    }
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
    digests: Digests | None = None,
) -> bool:
    """Whether the stage's manifest still matches its inputs and outputs."""
    digests = Digests() if digests is None else digests
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
        if set(recorded) != set(files):
            return False
        for name, file in sorted(files.items()):
            if not Path(file).is_file() or recorded[name] != digests[file]:
                return False
    return True


def _lock_holder_gone(lock: Path) -> bool:
    """Whether the PID recorded in the lock file names no running process.

    An unreadable or malformed lock file counts as held: its writer may be
    between creating the file and writing its PID.
    """
    try:
        pid = int(lock.read_text(encoding="utf-8").strip())
    except (OSError, ValueError):
        return False
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # alive, owned by another user
        return False
    return False


@contextlib.contextmanager
def work_dir_lock(work_dir: str | Path) -> Iterator[None]:
    """Exclusive lock on the work dir; concurrent runs against it refuse to start.

    A lock left behind by a process that no longer exists (a killed run)
    is reclaimed.
    """
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    lock = work_dir / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        fd = None
        if _lock_holder_gone(lock):
            logger.warning("reclaiming %s: the run that held it is gone", lock)
            with contextlib.suppress(FileNotFoundError):
                lock.unlink()
            with contextlib.suppress(FileExistsError):
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        if fd is None:
            raise PipelineError(
                f"work dir {work_dir} is locked by another run; "
                f"remove {lock} if that run is gone"
            ) from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(OSError):
            lock.unlink()
