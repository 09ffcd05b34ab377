"""Every listed equivalent mutant is one, and only one, the mutation probe
still makes.

A rewrite can leave an entry of ``mutants_equivalent.json`` that matches
no mutant any more; such an entry would silently skip nothing, or later
skip a mutant it was never meant for. An entry that matches two mutants
with the same line text and change would skip both, though only one was
shown to be equivalent. No mutant is run here.
"""

from __future__ import annotations

import json
from functools import cache

import pytest

import mutants

ENTRIES = json.loads(mutants.EQUIVALENT.read_text(encoding="utf-8"))


@cache
def _made(module: str) -> tuple[mutants.Mutant, ...]:
    """Every mutant the probe makes of a module."""
    path = mutants.ROOT / "src" / "newsmotion" / f"{module}.py"
    assert path.is_file(), f"no module {module!r}"
    return tuple(mutants.mutants(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[f"{e['module']}-{i}" for i, e in enumerate(ENTRIES)]
)
def test_each_entry_names_one_mutant_of_its_module(entry):
    assert {"module", "line", "change", "reason"} <= set(entry)
    assert set(entry) <= {"module", "line", "change", "occurrence", "reason"}
    named = [m for m in _made(entry["module"]) if m.listed(entry["module"], entry)]
    assert len(named) == 1, [f"line {m.line} #{m.occurrence}" for m in named]
    assert entry["reason"].strip()


def test_a_shared_line_text_and_change_are_told_apart_by_occurrence():
    text = "def f(a):\n    total = 0\n    total += a\n    total = 0\n    return total\n"
    made = [m for m in mutants.mutants(text) if m.change == "0 -> 1"]
    assert [(m.line, m.text, m.occurrence) for m in made] == [
        (2, "total = 0", 0),
        (4, "total = 0", 1),
    ]
    entry = {"module": "m", "line": "total = 0", "change": "0 -> 1"}
    assert [m.listed("m", entry) for m in made] == [True, True]
    assert [m.listed("m", {**entry, "occurrence": 1}) for m in made] == [False, True]
    assert not made[0].listed("other", entry)
