"""A fixed control workload that measures how fast the host runs right now.

The end-to-end times are divided by the time of this workload, measured
just before and just after each command sequence, so that host slowdowns
which last seconds to minutes cancel out (see bench/README.md, "Machine
and noise"). The work is shaped like pinasr's own: per-frame numpy calls,
a dict-keyed prefix beam with log-adds in Python, n-gram dict lookups and
a float text round trip. It imports nothing from pinasr, so a change to the
program cannot change the control.
"""

from __future__ import annotations

import math
import time

import numpy as np

NEG_INF = float("-inf")
LN10 = math.log(10.0)
REPS = 4                  # work() calls per measurement, about 1 s in all


def log10addexp(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(10.0 ** (b - a)) / LN10


def work(frames: int = 400, classes: int = 24, width: int = 8) -> tuple[int, ...]:
    """Beam-search fixed random emissions; returns the best prefix."""
    rng = np.random.default_rng(7)
    logits = rng.normal(0.0, 2.5, size=(frames, classes))
    log_probs = (logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))) / LN10
    text = "\n".join(" ".join(repr(float(v)) for v in row) for row in log_probs)
    log_probs = np.array([[float(v) for v in line.split()] for line in text.splitlines()])
    bigram = {(a, b): -0.1 * ((a * 31 + b * 17) % 23) for a in range(classes) for b in range(classes)}
    beam: dict[tuple[int, ...], list[float]] = {(): [0.0, NEG_INF]}
    for row in log_probs:
        active = [int(c) for c in np.nonzero(row > -3.0)[0]]
        next_beam: dict[tuple[int, ...], list[float]] = {}
        for prefix, (p_b, p_nb) in beam.items():
            total = log10addexp(p_b, p_nb)
            for c in active:
                score = float(row[c])
                if c == 0:
                    key, slot, value = prefix, 0, total + score
                elif prefix and prefix[-1] == c:
                    key, slot, value = prefix, 1, p_nb + score
                else:
                    lm = bigram[(prefix[-1] if prefix else 0, c)]
                    key, slot, value = prefix + (c,), 1, total + score + 0.3 * lm
                masses = next_beam.get(key)
                if masses is None:
                    masses = next_beam[key] = [NEG_INF, NEG_INF]
                masses[slot] = log10addexp(masses[slot], value)
        ranked = sorted(next_beam.items(), key=lambda item: (-log10addexp(*item[1]), item[0]))
        beam = dict(ranked[:width])
    return max(beam, key=lambda prefix: (log10addexp(*beam[prefix]), prefix))


def measure() -> tuple[float, tuple[int, ...]]:
    """Wall time of REPS calls of work(), and the result of the last."""
    start = time.perf_counter()
    for _ in range(REPS):
        best = work()
    return time.perf_counter() - start, best
