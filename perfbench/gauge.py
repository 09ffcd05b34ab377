"""Speedometer for the CPU the stages run on.

Usage (started by ``run.py``; pinned to the stages' CPU, at a lower priority)::

    python perfbench/gauge.py COUNTER_FILE

On a shared host the speed a vCPU gives changes from second to second:
a fixed loop pinned to one vCPU takes 0.13 s in one second and 0.22 s in
the next, while the guest sees its full time as its own CPU time. The
gauge repeats a fixed chunk of work that mixes the pipeline's kinds of
work (interpreter bytecode, numpy calls on 48-wide vectors as in the
skip-gram loop, a small matrix product as in the MLP). After each chunk
it stores, in COUNTER_FILE, the chunks done and its own CPU seconds.
Sharing the CPU with a stage, at a lower priority, it runs in short
slices all through the stage, so its CPU seconds per chunk over the
stage follow the speed the stage got. ``run.py`` stops the gauge between
stages and reads the counters while it is stopped.
"""

from __future__ import annotations

import mmap
import struct
import sys
import time

import numpy as np

COUNTER = struct.Struct("<dd")  # chunks done, CPU seconds at the last chunk's end
# CPU seconds of one chunk on an unloaded 2-vCPU VM (Xeon, 2.1 GHz,
# numpy 2.4 with scipy-openblas 0.3.31, one BLAS thread).
NOMINAL_CHUNK_S = 0.001

_RNG = np.random.default_rng(0)
_VECS = _RNG.standard_normal((256, 48))
_MAT = _RNG.standard_normal((48, 48))


def chunk(acc: np.ndarray, start: int) -> int:
    """One fixed piece of work; about NOMINAL_CHUNK_S of CPU."""
    total = 0
    for i in range(start, start + 6_000):
        total += (i * i) % 7
    for i in range(start, start + 180):
        u = _VECS[i & 255]
        acc += float(u @ _VECS[(i * 7) & 255]) * 1e-6 * u
    acc += (_MAT @ _MAT[:, start & 47]) * 1e-9
    return total


def main(path: str) -> int:
    with open(path, "r+b") as fh:
        counter = mmap.mmap(fh.fileno(), COUNTER.size)
    acc = np.zeros(48)
    done = 0
    while True:
        chunk(acc, done)
        done += 1
        COUNTER.pack_into(counter, 0, float(done), time.process_time())


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
