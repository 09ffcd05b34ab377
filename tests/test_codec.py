"""The artifact encodings: tables, JSON lines and blobs, and the word
vectors' blob."""

from __future__ import annotations

import json

import numpy as np
import pytest

from newsmotion.codec import (
    read_blob,
    read_records,
    read_table,
    unpack,
    write_blob,
    write_records,
    write_table,
)
from newsmotion.embedding import EmbeddingTable, load_embeddings, save_embeddings
from newsmotion.errors import ParseError

from support import traced_peak

HEADER = "name,count"


def _row(parts: list[str]) -> tuple[str, int]:
    name, count = parts
    return name, int(count)


def _refused(call, message: str) -> None:
    """``call()`` raises a ParseError whose message is exactly ``message``."""
    with pytest.raises(ParseError) as caught:
        call()
    assert str(caught.value) == message


class TestTable:
    def test_round_trip_writes_meta_header_and_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, HEADER, [("a", "1"), ("é", "2")], {"seed": "3"})
        assert path.read_bytes() == "# seed=3\nname,count\na,1\né,2\n".encode()
        assert read_table(path, HEADER, _row) == ({"seed": "3"}, [("a", 1), ("é", 2)])

    def test_meta_without_a_space_and_blank_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("#k=v\n#  other = x=y \nname,count\n\na,1\n\n")
        meta, rows = read_table(path, HEADER, _row)
        assert (meta, rows) == ({"k": "v", "other": "x=y"}, [("a", 1)])

    def test_a_meta_line_without_equals_names_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# k=v\n# bad\nname,count\n")
        _refused(
            lambda: read_table(path, HEADER, _row),
            f"{path}:2: bad metadata line '# bad'",
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", ":1: unexpected header ''"),
            ("# k=v\n", ":2: unexpected header ''"),
            ("# k=v\n# j=w\nname\n", ":3: unexpected header 'name'"),
            ("name,count\na,1\nb\n", ":3: expected 2 fields"),
            ("name,count\na,1,2\n", ":2: expected 2 fields"),
            (
                "name,count\na,1\n\nb,x\n",
                ":4: invalid literal for int() with base 10: 'x'",
            ),
        ],
    )
    def test_a_bad_line_is_named(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        _refused(lambda: read_table(path, HEADER, _row), f"{path}{message}")

    @pytest.mark.parametrize(
        "head, line",
        [(b"", 3), (b"x\n", 4), (b"x\r\n", 4), (b"x\ry\r", 5)],
        ids=["lf", "lf-more", "crlf", "cr"],
    )
    def test_bytes_that_are_not_utf8_name_the_line(self, tmp_path, head, line):
        path = tmp_path / "t.csv"
        path.write_bytes(b"name,count\na,1\n" + head + b"b\xff,2\n")
        _refused(
            lambda: read_table(path, HEADER, _row),
            f"{path}:{line}: not UTF-8 text (byte 0xff)",
        )


class TestRecords:
    def test_round_trip_keeps_non_ascii_text(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_records(path, [{"a": "é"}, {"a": "b"}])
        assert path.read_bytes() == '{"a": "é"}\n{"a": "b"}\n'.encode()
        assert list(read_records(path, lambda r: r["a"])) == ["é", "b"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"a": 1}\n\n[1]\n', ":3: expected an object"),
            ('{"a": 1}\n{"b": 1}\n', ":2: missing field 'a'"),
        ],
    )
    def test_a_bad_line_is_named(self, tmp_path, text, message):
        path = tmp_path / "r.jsonl"
        path.write_text(text)
        _refused(lambda: list(read_records(path, lambda r: r["a"])), f"{path}{message}")

    def test_invalid_json_names_its_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n{"a":\n')
        with pytest.raises(ParseError, match=rf"^{path}:2: invalid JSON"):
            list(read_records(path, lambda r: r["a"]))


def _arrays(header: dict, data) -> list[np.ndarray]:
    """Three arrays: float64 (2, 3), float64 (4,) and float32 (2,)."""
    return unpack(data, header, [(2, 3), (4,), (2,)])


class TestBlob:
    def _written(self, tmp_path):
        path = tmp_path / "b.bin"
        arrays = [
            np.arange(6.0).reshape(2, 3) / 7,
            np.array([1, 2, 3, 4]),
            np.array([0.1, 0.2], dtype=np.float32),
        ]
        write_blob(path, {"n": 1}, arrays)
        return path, arrays

    def _edited(self, tmp_path, **fields):
        """The written blob with its header fields replaced; None drops one."""
        path, _ = self._written(tmp_path)
        line, data = path.read_bytes().split(b"\n", 1)
        header = {**json.loads(line), **fields}
        header = {k: v for k, v in header.items() if v is not None}
        path.write_bytes(json.dumps(header).encode() + b"\n" + data)
        return path

    def test_round_trip_is_bit_exact_and_views_one_array_per_dtype(self, tmp_path):
        path, arrays = self._written(tmp_path)
        line = path.read_bytes().split(b"\n", 1)[0]
        assert json.loads(line) == {"n": 1, "dtypes": ["<f8", "<f8", "<f4"]}
        loaded = read_blob(path, _arrays)
        assert [a.dtype for a in loaded] == [np.float64, np.float64, np.float32]
        for got, want in zip(loaded, arrays):
            assert got.shape == want.shape
            assert got.tobytes() == want.astype(got.dtype).tobytes()
        assert loaded[0].base is loaded[1].base
        assert loaded[2].base is not loaded[0].base

    def test_a_blob_of_float64_arrays_names_its_dtypes(self, tmp_path):
        path = tmp_path / "b.bin"
        write_blob(path, {}, [np.zeros(2)])
        assert path.read_bytes() == b'{"dtypes":["<f8"]}\n' + bytes(16)

    def test_arrays_of_no_values_round_trip(self, tmp_path):
        path = tmp_path / "b.bin"
        write_blob(path, {}, [np.zeros((0, 3)), np.zeros(0), np.ones(1)])
        shapes = [(0, 3), (0,), (1,)]
        loaded = read_blob(path, lambda h, data: unpack(data, h, shapes))
        assert [a.shape for a in loaded] == shapes
        assert loaded[2].tolist() == [1.0]

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"dtypes": None}, "missing header field 'dtypes'"),
            ({"dtypes": ["<f8", "<f2", "<f4"]}, "unknown dtype tag '<f2'"),
            ({"dtypes": ["<f8", 8, "<f4"]}, "unknown dtype tag 8"),
            ({"dtypes": ["<f8", ["<f8"], "<f4"]}, "unknown dtype tag ['<f8']"),
            ({"dtypes": ["<f8", "<f8"]}, "expected 3 dtype tags, got ['<f8', '<f8']"),
            ({"dtypes": "<f8"}, "expected 3 dtype tags, got '<f8'"),
        ],
    )
    def test_bad_dtypes_name_the_file(self, tmp_path, fields, message):
        path = self._edited(tmp_path, **fields)
        _refused(lambda: read_blob(path, _arrays), f"{path}: {message}")

    @pytest.mark.parametrize(
        "extra", [-8, -1, 1, 8], ids=["short", "byte-short", "byte-long", "long"]
    )
    def test_a_byte_count_off_names_both_counts(self, tmp_path, extra):
        path, _ = self._written(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:extra] if extra < 0 else data + bytes(extra))
        _refused(
            lambda: read_blob(path, _arrays),
            f"{path}: expected 88 data bytes, found {88 + extra}",
        )

    def test_a_read_that_ends_early_is_refused(self, tmp_path):
        path, _ = self._written(tmp_path)

        class Short:
            """The open blob, but each read fills one byte less than asked."""

            def __init__(self, fh):
                self.fh = fh

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def readinto(self, buffer):
                return self.fh.readinto(memoryview(buffer)[:-1])

        _refused(
            lambda: read_blob(path, lambda h, data: _arrays(h, Short(data))),
            f"{path}: expected 88 data bytes, found fewer",
        )

    def test_a_negative_shape_is_refused(self, tmp_path):
        path = tmp_path / "b.bin"
        write_blob(path, {}, [np.zeros(0)])
        _refused(
            lambda: read_blob(path, lambda h, data: unpack(data, h, [(-1, 0)])),
            f"{path}: negative array shape in [(-1, 0)]",
        )

    @pytest.mark.parametrize(
        "line, message",
        [
            (b"[1, 2]", "bad header: expected a JSON object"),
            (b'"dtypes"', "bad header: expected a JSON object"),
            (b"not json", "bad header: Expecting value: line 1 column 1 (char 0)"),
        ],
    )
    def test_a_header_that_is_not_an_object_names_the_file(
        self, tmp_path, line, message
    ):
        path, _ = self._written(tmp_path)
        data = path.read_bytes().split(b"\n", 1)[1]
        path.write_bytes(line + b"\n" + data)
        _refused(lambda: read_blob(path, _arrays), f"{path}: {message}")

    def test_a_header_that_is_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "b.bin"
        path.write_bytes(b'{"n": "\xff"}\n')
        with pytest.raises(ParseError, match=rf"^{path}: bad header: .*0xff"):
            read_blob(path, _arrays)


_NOT_POSITIVE = "dimension must be a positive int, got"


def _table(words: list[str], vectors) -> EmbeddingTable:
    return EmbeddingTable(words=words, vectors=np.asarray(vectors, dtype=np.float64))


class TestEmbeddingsBlob:
    """embeddings.bin: the words and dimension in the header, then (V, d) <f8."""

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        table = _table(["alpha", "beta", "gamma dé"], rng.normal(size=(3, 5)) / 3)
        path = tmp_path / "embeddings.bin"
        save_embeddings(table, path)
        line, data = path.read_bytes().split(b"\n", 1)
        assert json.loads(line) == {
            "dimension": 5,
            "dtypes": ["<f8"],
            "words": ["alpha", "beta", "gamma dé"],
        }
        assert data == table.vectors.astype("<f8").tobytes()
        again = load_embeddings(path)
        assert again.words == table.words
        assert again.vectors.dtype == np.float64
        assert again.vectors.tobytes() == table.vectors.tobytes()
        assert again.index == table.index

    def test_one_dimension_loads(self, tmp_path):
        path = tmp_path / "embeddings.bin"
        save_embeddings(_table(["up", "down"], [[1.0], [-2.0]]), path)
        assert load_embeddings(path).vectors.tolist() == [[1.0], [-2.0]]

    def test_zero_words_load_as_an_empty_table(self, tmp_path):
        path = tmp_path / "embeddings.bin"
        save_embeddings(_table([], np.zeros((0, 3))), path)
        table = load_embeddings(path)
        assert len(table) == 0 and table.dimension == 3

    @pytest.mark.parametrize(
        "row, value",
        [(0, np.nan), (2, np.inf), (2, -np.inf)],
        ids=["nan", "inf", "-inf"],
    )
    def test_a_non_finite_component_names_the_file_and_word(self, tmp_path, row, value):
        # Such a vector would silently drop out of every similarity ranking.
        words = ["up", "flat", "down"]
        vectors = np.full((3, 2), 0.5)
        vectors[row, 1] = value
        path = tmp_path / "embeddings.bin"
        write_blob(path, {"words": words, "dimension": 2}, [vectors])
        _refused(
            lambda: load_embeddings(path),
            f"{path}: word {words[row]!r} has a non-finite component",
        )

    @pytest.mark.parametrize(
        "header, message",
        [
            ({"dimension": 2}, "missing header field 'words'"),
            ({"words": ["up", "down"]}, "missing header field 'dimension'"),
            ({"words": "up down", "dimension": 2}, "words must be a list of strings"),
            ({"words": ["up", 3], "dimension": 2}, "words must be a list of strings"),
            ({"words": ["up", "up"], "dimension": 2}, "duplicate words in vocabulary"),
            ({"words": ["up", "down"], "dimension": 0}, f"{_NOT_POSITIVE} 0"),
            ({"words": ["up", "down"], "dimension": -2}, f"{_NOT_POSITIVE} -2"),
            ({"words": ["up", "down"], "dimension": 2.0}, f"{_NOT_POSITIVE} 2.0"),
            ({"words": ["up", "down"], "dimension": True}, f"{_NOT_POSITIVE} True"),
            ({"words": ["up"], "dimension": 2}, "expected 16 data bytes, found 32"),
            ({"words": ["up", "down"], "dimension": 1}, "expected 16 data bytes, found 32"),
        ],
    )
    def test_a_bad_header_names_the_file(self, tmp_path, header, message):
        path = tmp_path / "embeddings.bin"
        write_blob(path, header, [np.ones((2, 2))])
        _refused(lambda: load_embeddings(path), f"{path}: {message}")

    def test_vectors_stored_as_float32_are_refused(self, tmp_path):
        path = tmp_path / "embeddings.bin"
        vectors = np.ones((1, 2), np.float32)
        write_blob(path, {"words": ["up"], "dimension": 2}, [vectors])
        _refused(
            lambda: load_embeddings(path), f"{path}: vectors must be stored as <f8"
        )

    def test_a_header_beyond_the_data_is_never_allocated(self, tmp_path):
        path = tmp_path / "embeddings.bin"
        words = [f"w{i}" for i in range(2)]
        write_blob(path, {"words": words, "dimension": 10**11}, [np.ones((2, 48))])

        def load():
            with pytest.raises(ParseError, match=r"expected 1600000000000 data bytes"):
                load_embeddings(path)

        _, peak = traced_peak(load)
        assert peak < 1 << 20
