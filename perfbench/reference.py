"""A fixed reference computation that tells how fast the machine runs now.

The shared host this benchmark was built on switches its speed by up to
two times, in spells from a tenth of a second to minutes, and every
froblab task slows down with it.  Medians over a run do not average
that away.  The reference is a fixed piece of work of the same kind as
froblab's (a small matrix over F_p reduced row by row in Python with
numpy, tuple hashing, integer arithmetic), about 0.15 ms long.  It lives in
the benchmark, so no change to froblab changes it.

A measured run times a block of `PIECES` pieces right after each task and,
from a timer signal, one piece every `SAMPLE_EVERY_S` seconds while the
task runs; the time spent in those samples is taken off the task's time.
The mean piece time over the samples inside a task and the blocks on
either side says how fast the machine ran during the task, and the task's
time is scaled to a machine on which one piece takes `NOMINAL_S`.  A
change to froblab changes the task times and not the pieces, so it shows
in the scaled times in full.
"""
from __future__ import annotations

import contextlib
import random
import signal
import time

import numpy as np

NOMINAL_S = 0.0001  # one piece on the reference machine
PIECES = 8  # pieces in a block
SAMPLE_EVERY_S = 0.01
P = 251


def _rank(m: np.ndarray) -> int:
    """Rank over F_P by row reduction."""
    m = m.copy()
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        hit = np.nonzero(m[r:, c])[0]
        if hit.size == 0:
            continue
        k = r + int(hit[0])
        if k != r:
            m[[r, k]] = m[[k, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, P)) % P
        col = m[:, c].copy()
        col[r] = 0
        m = (m - np.outer(col, m[r])) % P
        r += 1
        if r == rows:
            break
    return r


class Reference:
    """Times pieces of fixed work.  `last_s` is the mean piece time of the
    latest block; `samples` holds the pieces timed from the timer signal."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.mats = [rng.integers(0, P, (10, 10), dtype=np.int64) for _ in range(PIECES)]
        self.words = [tuple(random.Random(i).randrange(P) for _ in range(10)) for i in range(PIECES)]
        self.values = [self._piece(k) for k in range(PIECES)]  # each piece must repeat its value
        self.samples: list[float] = []
        self.paused_s = 0.0  # time spent taking samples
        self._next = 0
        self._busy = False
        self.last_s = self.block()

    def _piece(self, k: int) -> int:
        m, w = self.mats[k], self.words[k]
        total = _rank(m) + int(((m @ m) % P)[0, 0])
        table: dict[tuple, int] = {}
        for i in range(len(w)):
            key = w[i:] + w[:i]
            table[key] = table.get(key, 0) + sum(w[i:]) % P
        return total + len(table) + sum(table.values())

    def _timed_piece(self, k: int) -> float:
        start = time.perf_counter()
        value = self._piece(k)
        elapsed = time.perf_counter() - start
        if value != self.values[k]:
            raise RuntimeError("a reference piece gave another value")
        return elapsed

    def block(self) -> float:
        """Run every piece once; return (and keep) the mean piece time."""
        self._busy = True
        try:
            self.last_s = sum(self._timed_piece(k) for k in range(PIECES)) / PIECES
        finally:
            self._busy = False
        return self.last_s

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        start = time.perf_counter()
        self.samples.append(self._timed_piece(self._next))
        self._next = (self._next + 1) % PIECES
        self.paused_s += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample every `SAMPLE_EVERY_S` seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.paused_s

    def since(self, mark: tuple[int, float]) -> tuple[list[float], float]:
        """The samples taken since `mark`, and the time they took."""
        return self.samples[mark[0]:], self.paused_s - mark[1]


class Stopwatch:
    """Times set-up in laps, with one reference block after each lap.  A
    lap is scaled by the mean of the blocks on either side of it (the
    first lap by the block after it)."""

    def __init__(self, reference: Reference, start: float):
        self.reference = reference
        self.mark = start
        self.before = 0.0
        self.wall_s = 0.0
        self.scaled_s = 0.0

    def lap(self, end: float | None = None) -> None:
        """End the current lap at `end` (default now) and start the next
        one after its reference block."""
        lap_s = (time.perf_counter() if end is None else end) - self.mark
        after = self.reference.block()
        ref_s = (self.before + after) / 2 if self.before else after
        self.wall_s += lap_s
        self.scaled_s += lap_s * NOMINAL_S / ref_s
        self.before = after
        self.mark = time.perf_counter()
