"""Every listed equivalent mutant is one the mutation probe still makes.

A rewrite can leave an entry of ``mutants_equivalent.json`` that matches
no mutant any more; such an entry would silently skip nothing, or later
skip a mutant it was never meant for. No mutant is run here.
"""

from __future__ import annotations

import json
from functools import cache

import pytest

import mutants

ENTRIES = json.loads(mutants.EQUIVALENT.read_text(encoding="utf-8"))


@cache
def _made(module: str) -> frozenset[tuple[str, str]]:
    """The (line text, change) of every mutant the probe makes of a module."""
    path = mutants.ROOT / "src" / "newsmotion" / f"{module}.py"
    assert path.is_file(), f"no module {module!r}"
    made = mutants.mutants(path.read_text(encoding="utf-8"))
    return frozenset((m.text, m.change) for m in made)


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[f"{e['module']}-{i}" for i, e in enumerate(ENTRIES)]
)
def test_each_entry_names_a_mutant_of_its_module(entry):
    assert set(entry) == {"module", "line", "change", "reason"}
    assert (entry["line"], entry["change"]) in _made(entry["module"])
    assert entry["reason"].strip()
