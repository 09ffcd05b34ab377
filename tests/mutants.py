"""Mutation probe: does some test fail when one operator of a module changes?

Usage, from the repository root:

    python3 tests/mutants.py --module mlp [--sample 60] [--seed 1]

The script makes every one-node mutant of ``src/newsmotion/<module>.py``:
a comparison flipped (``<`` to ``<=``, ``==`` to ``!=``, ``in`` to
``not in``, ...), ``+`` and ``-`` swapped, ``*`` and ``/`` swapped (in
augmented assignments too), an int constant plus one, ``and`` and ``or``
swapped, or a ``not`` dropped. ``--sample N`` keeps N of them, drawn with
``--seed``. Each mutant is written into a copy of the tree, never into
this one, and runs against the module's own test file; a mutant that
survives it, or a mutant of a module with no such file, runs against
every test. A run that fails or times out kills the mutant.

Mutants that no test can kill, because the program computes the same
with them, are listed in ``mutants_equivalent.json`` next to this script,
each with a one-line reason, and are not run. Every other survivor is
printed with its line; the exit status is 1 if there is one.

A mutant is named by its line's text, its change and its occurrence: the
index, in source order, among the module's mutants with the same text
and change (``#0`` for the first). An entry of the equivalents list gives
the occurrence only where the text and change are not enough to tell the
mutant apart, as for the two ``total = 0`` lines of ``mlp.train_each``.

pytest does not collect this file: its name does not start with
``test_``.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = Path(__file__).resolve().parent / "mutants_equivalent.json"

COMPARE = {
    ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="),
    ast.NotEq: ("!=", "=="),
    ast.Is: ("is", "is not"),
    ast.IsNot: ("is not", "is"),
    ast.In: ("in", "not in"),
    ast.NotIn: ("not in", "in"),
}
ARITHMETIC = {
    ast.Add: ("+", "-"),
    ast.Sub: ("-", "+"),
    ast.Mult: ("*", "/"),
    ast.Div: ("/", "*"),
}
BOOLEAN = {ast.And: ("and", "or"), ast.Or: ("or", "and")}


@dataclass(frozen=True)
class Mutant:
    line: int  # 1-based
    start: int  # character offsets into the source
    stop: int
    old: str
    new: str
    text: str  # the stripped source line
    occurrence: int = 0  # among the mutants with the same text and change

    @property
    def change(self) -> str:
        return f"{self.old.strip()} -> {self.new.strip()}"

    def listed(self, module: str, entry: dict) -> bool:
        """Whether an equivalents entry names this mutant of ``module``."""
        return (entry["module"], entry["line"], entry["change"]) == (
            module,
            self.text,
            self.change,
        ) and entry.get("occurrence", self.occurrence) == self.occurrence


class _Source:
    """A module's text, its tokens and a map from AST positions to offsets."""

    def __init__(self, text: str):
        self.lines = text.splitlines(keepends=True)
        self.starts = [0]
        for line in self.lines:
            self.starts.append(self.starts[-1] + len(line))
        self.tokens = [
            tok
            for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type in (tokenize.OP, tokenize.NAME)
        ]

    def offset(self, line: int, col: int) -> int:
        """The character offset of a tokenize (line, column) position."""
        return self.starts[line - 1] + col

    def node_offset(self, line: int, byte_col: int) -> int:
        """The character offset of an AST (line, UTF-8 byte column) position."""
        prefix = self.lines[line - 1].encode("utf-8")[:byte_col]
        return self.offset(line, len(prefix.decode("utf-8")))

    def start(self, node: ast.AST) -> int:
        return self.node_offset(node.lineno, node.col_offset)

    def stop(self, node: ast.AST) -> int:
        return self.node_offset(node.end_lineno, node.end_col_offset)

    def words(self, start: int, stop: int) -> list[tuple[int, int, str]]:
        """The operator and name tokens between two offsets, each with its
        start and stop offsets."""
        found = []
        for tok in self.tokens:
            at = self.offset(*tok.start)
            if start <= at and self.offset(*tok.end) <= stop:
                found.append((at, self.offset(*tok.end), tok.string))
        return found

    def operator(self, start: int, stop: int, old: str) -> tuple[int, int]:
        """Where the operator ``old`` (one or two tokens) sits in a gap."""
        words = self.words(start, stop)
        parts = old.split()
        for i in range(len(words) - len(parts) + 1):
            if [w[2] for w in words[i : i + len(parts)]] == parts:
                return words[i][0], words[i + len(parts) - 1][1]
        raise ValueError(f"no {old!r} between offsets {start} and {stop}")


def mutants(text: str) -> list[Mutant]:
    """Every one-node mutant of the module source ``text``, in source order."""
    source = _Source(text)
    found: list[Mutant] = []

    def add(line: int, start: int, stop: int, old: str, new: str) -> None:
        found.append(Mutant(line, start, stop, old, new, source.lines[line - 1].strip()))

    def swap(node, left, right, table) -> None:
        old, new = table[type(node.op)]
        start, stop = source.operator(source.stop(left), source.start(right), old)
        add(node.lineno, start, stop, old, new)

    tree = ast.parse(text)
    # the parts of an f-string are one token, so they are left alone
    inside = {
        id(part)
        for string in ast.walk(tree)
        if isinstance(string, ast.JoinedStr)
        for part in ast.walk(string)
    }
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in ARITHMETIC:
            swap(node, node.left, node.right, ARITHMETIC)
        elif isinstance(node, ast.AugAssign) and type(node.op) in ARITHMETIC:
            old, new = ARITHMETIC[type(node.op)]
            gap = source.stop(node.target), source.start(node.value)
            start, stop = source.operator(*gap, old + "=")
            add(node.lineno, start, stop, old + "=", new + "=")
        elif isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                old, new = COMPARE[type(op)]
                start, stop = source.operator(source.stop(left), source.start(right), old)
                add(right.lineno, start, stop, old, new)
                left = right
        elif isinstance(node, ast.BoolOp):
            # one node: every connective of it changes at once
            old, new = BOOLEAN[type(node.op)]
            spans = [
                source.operator(source.stop(a), source.start(b), old)
                for a, b in zip(node.values, node.values[1:])
            ]
            segment = text[spans[0][0] : spans[-1][1]]
            pieces, at = [], spans[0][0]
            for start, stop in spans:
                pieces.append(text[at:start] + new)
                at = stop
            add(node.lineno, spans[0][0], spans[-1][1], segment, "".join(pieces))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            start = source.start(node)
            stop = start + len("not")
            while text[stop] in " \t":
                stop += 1
            add(node.lineno, start, stop, text[start:stop], "")
        elif (
            isinstance(node, ast.Constant)
            and type(node.value) is int
            and node.lineno == node.end_lineno
        ):
            start, stop = source.start(node), source.stop(node)
            add(node.lineno, start, stop, text[start:stop], str(node.value + 1))
    found.sort(key=lambda m: (m.start, m.stop, m.new))
    seen: dict[tuple[str, str], int] = {}
    for i, m in enumerate(found):
        occurrence = seen[m.text, m.change] = seen.get((m.text, m.change), -1) + 1
        found[i] = replace(m, occurrence=occurrence)
    return found


def apply(text: str, mutant: Mutant) -> str:
    assert text[mutant.start : mutant.stop] == mutant.old, mutant
    return text[: mutant.start] + mutant.new + text[mutant.stop :]


def load_equivalent() -> list[dict]:
    """The entries of the mutants listed as equivalent.

    An entry names a mutant by its line's text and its change, and its
    occurrence where those are shared, not by its line number, so that
    edits elsewhere in the module do not move it.
    """
    return json.loads(EQUIVALENT.read_text(encoding="utf-8"))


def _copy_tree(into: Path) -> Path:
    """A copy of the repository's files that the tests read, without caches."""
    skip = shutil.ignore_patterns(
        ".git", ".bench_work", "__pycache__", ".pytest_cache", "*.pyc"
    )
    shutil.copytree(ROOT, into, ignore=skip)
    return into


def _passes(tree: Path, tests: list[str], timeout: float) -> bool:
    """Whether pytest passes on ``tests`` in ``tree``, within ``timeout`` s."""
    env = {
        **os.environ,
        "PYTHONPATH": str(tree / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    try:
        run = subprocess.run(
            command + tests,
            cwd=tree,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def _timed(tree: Path, tests: list[str]) -> float:
    """Seconds the unmutated tree takes to pass ``tests``; exits if it fails."""
    began = time.perf_counter()
    if not _passes(tree, tests, timeout=3600):
        sys.exit(f"the unmutated tree fails {' '.join(tests) or 'Tier-1'}")
    return time.perf_counter() - began


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", required=True, help="e.g. mlp")
    parser.add_argument("--sample", type=int, default=0, help="mutants to run; 0 = all")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    path = Path("src") / "newsmotion" / f"{args.module}.py"
    own = Path("tests") / f"test_{args.module}.py"
    # the module's own tests first, when it has a file of them, then all
    runs = [[str(own)], []] if (ROOT / own).exists() else [[]]
    text = (ROOT / path).read_text(encoding="utf-8")
    made = mutants(text)
    chosen = made
    if args.sample and args.sample < len(made):
        picked = random.Random(args.seed).sample(range(len(made)), args.sample)
        chosen = [made[i] for i in sorted(picked)]
    equivalent = load_equivalent()
    print(f"{path}: {len(made)} mutants, running {len(chosen)}", flush=True)

    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = _copy_tree(Path(scratch) / "tree")
        target = tree / path
        # a mutant whose tests run five times as long as the unmutated
        # tree's is taken to hang
        limits = [5 * _timed(tree, tests) for tests in runs]
        survivors, listed, killed = [], 0, 0
        for mutant in chosen:
            where = (
                f"{path}:{mutant.line}: {mutant.text}"
                f"  [{mutant.change}] #{mutant.occurrence}"
            )
            if any(mutant.listed(args.module, entry) for entry in equivalent):
                listed += 1
                continue
            target.write_text(apply(text, mutant), encoding="utf-8")
            alive = all(_passes(tree, tests, t) for tests, t in zip(runs, limits))
            if alive:
                survivors.append(where)
                print(f"SURVIVED {where}", flush=True)
            else:
                killed += 1
    print(
        f"{args.module}: {killed} killed, {listed} listed as equivalent, "
        f"{len(survivors)} survived, of {len(chosen)}"
    )
    for where in survivors:
        print(f"  {where}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
