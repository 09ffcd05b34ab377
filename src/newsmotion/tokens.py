r"""Word tokenization shared by the embedding, lexicon, and feature stages.

Rule: split on whitespace, lowercase, drop punctuation except hyphens that
join two alphanumeric characters. Chunks that clean down to nothing are
dropped.

`_DROP` is that rule as one pattern over the lowercased chunk: it removes
every character that is neither a word character nor a hyphen, the
underscore, and any hyphen without an alphanumeric character on both
sides. `[^\W_]` matches exactly the characters `str.isalnum` accepts, so
a chunk that is all alphanumeric is kept whole without the pattern.
"""

from __future__ import annotations

import re

_CHUNK = re.compile(r"\S+")
_DROP = re.compile(r"[^\w-]|_|(?<![^\W_])-|-(?![^\W_])")


def _clean(chunk: str) -> str:
    chunk = chunk.lower()
    return chunk if chunk.isalnum() else _DROP.sub("", chunk)


def tokenize_with_offsets(text: str) -> list[tuple[str, int]]:
    """Tokens plus the character offset of the whitespace chunk each came from."""
    result = []
    for m in _CHUNK.finditer(text):
        token = _clean(m.group())
        if token:
            result.append((token, m.start()))
    return result


def tokenize(text: str) -> list[str]:
    return [tok for tok, _ in tokenize_with_offsets(text)]
