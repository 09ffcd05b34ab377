"""Tokenizer rules: whitespace chunks, lowercasing, hyphen handling."""

from __future__ import annotations

import numpy as np

from newsmotion.tokens import tokenize, tokenize_with_offsets


class TestTokenize:
    def test_lowercases_and_drops_punctuation(self):
        assert tokenize("Apple surged, rising 5%.") == ["apple", "surged", "rising", "5"]

    def test_inner_hyphen_survives(self):
        assert tokenize("a price-up day") == ["a", "price-up", "day"]

    def test_edge_hyphens_dropped(self):
        assert tokenize("-flag well- x-") == ["flag", "well", "x"]

    def test_hyphen_needs_alnum_on_both_sides(self):
        assert tokenize("price--up") == ["priceup"]

    def test_punctuation_only_chunks_vanish(self):
        assert tokenize("... !!! ???") == []

    def test_empty_text(self):
        assert tokenize("") == []

    def test_underscore_is_dropped(self):
        assert tokenize("net_income") == ["netincome"]
        assert tokenize("a-_b") == ["ab"]

    def test_non_ascii_alphanumerics_survive(self):
        assert tokenize("Café²") == ["café²"]

    def test_every_bmp_code_point_follows_the_rule(self):
        # One character: keep what str.isalnum accepts of its lowercase form.
        for code in range(0x10000):
            c = chr(code)
            kept = "".join(ch for ch in c.lower() if ch.isalnum())
            assert tokenize(c) == ([kept] if kept else []), hex(code)


class TestOffsets:
    def test_offsets_mark_chunk_starts(self):
        text = "  Shares of U.S. firms fell."
        pairs = tokenize_with_offsets(text)
        assert [t for t, _ in pairs] == ["shares", "of", "us", "firms", "fell"]
        for _, offset in pairs:
            assert offset == 0 or text[offset - 1].isspace()
            assert not text[offset].isspace()

    def test_token_characters_come_from_their_chunk(self):
        rng = np.random.default_rng(11)
        alphabet = list("abcXYZ123.,-! ")
        for _ in range(200):
            size = int(rng.integers(0, 40))
            text = "".join(rng.choice(alphabet, size=size))
            for token, offset in tokenize_with_offsets(text):
                end = offset
                while end < len(text) and not text[end].isspace():
                    end += 1
                chunk = text[offset:end].lower()
                assert all(ch in chunk for ch in token)
