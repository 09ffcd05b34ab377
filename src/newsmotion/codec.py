"""The three artifact encodings, written and read in one place.

A table is leading ``# key=value`` lines, one exact header line, then
comma-separated rows; JSON lines hold one object per line; a blob is a
JSON header line, then each array's little-endian values. float32 and
uint8 arrays are stored as ``<f4`` and ``|u1``, any other as ``<f8``;
the header's ``dtypes`` names each array's stored dtype, and a header
without it holds ``<f8`` arrays only. Consecutive arrays of one dtype
load into one array that the decoder's arrays view (`unpack`), so a load
holds its data once: values are read straight into it, in their stored
dtype.
Text is written as UTF-8 with ``"\n"`` line ends. Whatever a caller's
decoder raises comes back as a `ParseError` naming the file and line,
and so does a text file that is not UTF-8 (`utf8_text`).
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from itertools import groupby
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .errors import ParseError, ValidationError

T = TypeVar("T")

_DECODE_ERRORS = (
    KeyError, TypeError, ValueError, OverflowError, ParseError, ValidationError
)


@contextmanager
def decoding(where: str | Path, missing: str = "field") -> Iterator[None]:
    """Re-raise a decoder's error as a ParseError naming ``where`` (and a key)."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{where}: missing {missing} {exc}") from exc
    except _DECODE_ERRORS as exc:
        raise ParseError(f"{where}: {exc}") from exc


@contextmanager
def utf8_text(path: str | Path) -> Iterator[None]:
    """Re-raise a UnicodeDecodeError from reading ``path`` as a ParseError.

    The message names the line of the first byte that is not UTF-8, found
    by reading the file again as bytes.
    """
    try:
        yield
    except UnicodeDecodeError as exc:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as bad:
            head = data[: bad.start]
            line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            where = f"{path}:{line}: not UTF-8 text (byte 0x{data[bad.start]:02x})"
        else:
            where = f"{path}: not UTF-8 text"
        raise ParseError(where) from exc


def write_table(
    path: str | Path,
    header: str,
    rows: Iterable[Iterable[str]],
    meta: Mapping[str, str] = {},
) -> None:
    """Write ``# key=value`` per meta item, the header, then each row's fields."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {key}={value}\n" for key, value in meta.items())
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def read_table(
    path: str | Path, header: str, row: Callable[[list[str]], T]
) -> tuple[dict[str, str], list[T]]:
    """The leading ``# key=value`` metadata and ``row(parts)`` per data row.

    Each row must have as many fields as the header names.
    """
    fields = header.count(",") + 1
    meta: dict[str, str] = {}
    rows = []
    with utf8_text(path), open(path, encoding="utf-8") as fh:
        lines = enumerate((line.rstrip("\n") for line in fh), start=1)
        lineno, line = next(lines, (1, ""))
        while line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if not sep:
                raise ParseError(f"{path}:{lineno}: bad metadata line {line!r}")
            meta[key.strip()] = value.strip()
            lineno, line = next(lines, (lineno + 1, ""))
        if line != header:
            raise ParseError(f"{path}:{lineno}: unexpected header {line!r}")
        for lineno, line in lines:
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != fields:
                raise ParseError(f"{path}:{lineno}: expected {fields} fields")
            with decoding(f"{path}:{lineno}"):
                rows.append(row(parts))
    return meta, rows


def write_records(path: str | Path, records: Iterable[dict]) -> None:
    """Write each record as one JSON line, non-ASCII text kept as is."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(json.dumps(r, ensure_ascii=False) + "\n" for r in records)


def read_records(path: str | Path, decode: Callable[[dict], T]) -> Iterator[T]:
    """Stream ``decode(obj)`` for each JSON object line, in file order."""
    with utf8_text(path), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ParseError(f"{path}:{lineno}: expected an object")
            with decoding(f"{path}:{lineno}"):
                value = decode(record)
            yield value


# The dtypes a blob stores arrays as, by the tag its header names them by.
_STORED = {"<f8": np.dtype("<f8"), "<f4": np.dtype("<f4"), "|u1": np.dtype("|u1")}


def _stored(a: np.ndarray) -> str:
    """The tag ``a`` is stored as: its own for float32 and uint8, else ``<f8``."""
    dtype = np.asarray(a).dtype
    return {np.float32: "<f4", np.uint8: "|u1"}.get(dtype.type, "<f8")


def write_blob(path: str | Path, header: dict, arrays: Sequence[np.ndarray]) -> None:
    """Write the header as one JSON line, then each array's values.

    Each array is stored as `_stored` says; when one is not ``<f8`` the
    header's ``dtypes`` lists every array's tag. An array that is
    already C-ordered in its stored dtype is written from its own buffer;
    any other is converted first.
    """
    tags = [_stored(a) for a in arrays]
    if any(tag != "<f8" for tag in tags):
        header = {**header, "dtypes": tags}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":"), sort_keys=True).encode())
        fh.write(b"\n")
        for a, tag in zip(arrays, tags):
            fh.write(memoryview(np.ascontiguousarray(a, dtype=tag)))


def read_blob(path: str | Path, decode: Callable[[dict, BinaryIO], T]) -> T:
    """``decode(header, data)`` for a blob.

    ``data`` is the open file, just after the header line; the decoder
    reads the values with `unpack`.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line)
        except ValueError as exc:
            raise ParseError(f"{path}: bad header: {exc}") from exc
        if not isinstance(header, dict):
            raise ParseError(f"{path}: bad header: expected a JSON object")
        with decoding(path, "header field"):
            return decode(header, fh)


def unpack(
    data: BinaryIO, header: dict, shapes: Sequence[tuple[int, ...]]
) -> list[np.ndarray]:
    """The rest of a blob as arrays of the given shapes, in order.

    Each array has the stored dtype the header names (`write_blob`). The
    tags and the byte count are checked first. Then each run of
    consecutive arrays of one dtype is read into one array, and the
    arrays returned are views of it.
    """
    tags = header.get("dtypes", ["<f8"] * len(shapes))
    if not isinstance(tags, list) or len(tags) != len(shapes):
        raise ValueError(f"expected {len(shapes)} dtype tags, got {tags!r}")
    for tag in tags:
        if not isinstance(tag, str) or tag not in _STORED:
            raise ValueError(f"unknown dtype tag {tag!r}")
    sizes = [math.prod(shape) for shape in shapes]
    if any(n < 0 for shape in shapes for n in shape):
        raise ValueError(f"negative array shape in {list(shapes)}")
    stored = [_STORED[tag] for tag in tags]
    expected = sum(n * s.itemsize for n, s in zip(sizes, stored))
    found = os.fstat(data.fileno()).st_size - data.tell()
    if found != expected:
        raise ValueError(f"expected {expected} data bytes, found {found}")
    arrays: list[np.ndarray] = []
    found = 0
    for dtype, run in groupby(zip(shapes, sizes, stored), key=lambda array: array[2]):
        run_shapes, run_sizes, _ = zip(*run)
        values = np.empty(sum(run_sizes), dtype=dtype)
        read = data.readinto(values.view(np.uint8))
        found += read
        if read != values.nbytes:
            raise ValueError(f"expected {expected} data bytes, found {found}")
        chunks = np.split(values, np.cumsum(run_sizes)[:-1])
        arrays.extend(v.reshape(shape) for v, shape in zip(chunks, run_shapes))
    return arrays
