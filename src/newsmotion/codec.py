"""The three artifact encodings, written and read in one place.

A table is leading ``# key=value`` lines, one exact header line, then
comma-separated rows; JSON lines hold one object per line; a blob is a
JSON header line, then little-endian float64 values, which load into
one array that the decoder's arrays view (`unpack`), so a load holds its
data once: float64 values are read straight into it, and a load as
another dtype casts them in as it reads them, a bounded chunk at a time,
so it holds no float64 copy of its data either. Text is written as
UTF-8 with ``"\n"`` line ends. Whatever a caller's decoder raises comes
back as a `ParseError` naming the file and line, and so does a text file
that is not UTF-8 (`utf8_text`).
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .errors import ParseError, ValidationError

T = TypeVar("T")

_DECODE_ERRORS = (KeyError, TypeError, ValueError, ParseError, ValidationError)


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


def write_blob(path: str | Path, header: dict, arrays: Sequence[np.ndarray]) -> None:
    """Write the header as one JSON line, then each array as ``<f8`` values.

    An array that is already C-ordered ``<f8`` is written from its own
    buffer; any other is converted first.
    """
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":"), sort_keys=True).encode())
        fh.write(b"\n")
        for a in arrays:
            fh.write(memoryview(np.ascontiguousarray(a, dtype="<f8")))


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


# A load as another dtype reads this many float64 values at a time.
_CHUNK = 1 << 15


def unpack(
    data: BinaryIO, shapes: Sequence[tuple[int, ...]], dtype="<f8"
) -> list[np.ndarray]:
    """The rest of a blob as arrays of ``dtype`` and the given shapes, in order.

    The byte count is checked first. The values are then read into one
    array of ``dtype``, and the arrays returned are views of it.
    """
    sizes = [math.prod(shape) for shape in shapes]
    expected = 8 * sum(sizes)
    found = os.fstat(data.fileno()).st_size - data.tell()
    if found == expected:
        values = np.empty(sum(sizes), dtype=dtype)
        found = _read_values(data, values)
    if found != expected:
        raise ValueError(f"expected {expected} data bytes, found {found}")
    chunks = np.split(values, np.cumsum(sizes)[:-1])
    return [v.reshape(shape) for v, shape in zip(chunks, shapes)]


def _read_values(data: BinaryIO, values: np.ndarray) -> int:
    """Reads ``<f8`` values into ``values``, cast to its dtype; the bytes read.

    ``<f8`` values are read straight into it; for any other dtype each
    chunk of at most `_CHUNK` values is read into one float64 buffer and
    cast in from there.
    """
    if values.dtype == np.dtype("<f8"):
        return data.readinto(values.view(np.uint8))
    buffer = np.empty(min(values.size, _CHUNK), dtype="<f8")
    found = 0
    for at in range(0, values.size, _CHUNK):
        chunk = buffer[: values.size - at]
        read = data.readinto(chunk.view(np.uint8))
        found += read
        if read != chunk.nbytes:
            break
        values[at : at + chunk.size] = chunk
    return found
