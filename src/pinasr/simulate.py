"""Synthetic emission matrices standing in for an acoustic model.

Each input unit occupies ``frames_per_unit`` frames of mass concentrated on
its own class, followed by a blank-dominant release frame (so repeated
units always stay CTC-separable). Every leak weight scales with
``confusion_temperature``, so at 0 each drops out, every frame is exactly
one-hot and the whole pipeline is lossless by construction; raising the
temperature leaks mass onto phonologically confusable classes:

    tone-neighbor   same segment, different tone (tonal alphabets only)
    final-neighbor  same final (and tone, if tonal), different initial
    uniform         every other unit

Randomness is confined to per-frame leak jitter, drawn from a pure-Python
reimplementation of numpy's seeded PCG64 generator, so a (sequence, config,
alphabet) triple always produces the identical emissions. Each row is
summed with ``math.fsum``, which is correctly rounded on IEEE-754 hosts and
independent of the order of its terms, so every probability is its weight
divided by the correctly rounded row total; only the final ``log10`` is the
C library's (``math.log10``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .ctc import NEG_INF, EmissionMatrix
from .pinyin import InvalidSyllable, split_unit

POLICIES = ("tone-neighbor", "final-neighbor", "uniform")

_CONFUSION_LEAK = 0.5   # total unnormalized confusable mass at temperature 1
_BLANK_LEAK = 0.15      # unnormalized blank mass inside unit frames at temperature 1
_JITTER = (0.5, 1.5)    # per-entry multiplicative jitter range

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645   # PCG's default 128-bit LCG multiplier


@dataclass(frozen=True)
class SimConfig:
    frames_per_unit: int = 3
    blank_fill: float = 0.9
    confusion_temperature: float = 0.0
    confusion_policy: str = "tone-neighbor"
    seed: int = 0

    def __post_init__(self):
        if self.frames_per_unit < 2:
            raise ValueError(f"frames_per_unit must be >= 2, got {self.frames_per_unit}")
        if not 0.0 < self.blank_fill <= 1.0:
            raise ValueError(f"blank_fill must be in (0, 1], got {self.blank_fill}")
        if not 0.0 <= self.confusion_temperature < math.inf:   # NaN fails both comparisons
            raise ValueError(f"confusion_temperature must be finite and >= 0, got {self.confusion_temperature}")
        if self.confusion_policy not in POLICIES:
            raise ValueError(f"unknown confusion_policy {self.confusion_policy!r}, want one of {POLICIES}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@lru_cache(maxsize=8)
def confusion_map(alphabet: tuple[str, ...], policy: str) -> dict[str, tuple[int, ...]]:
    """Unit label -> ascending alphabet indexes of its confusable units."""
    if policy == "uniform":
        return {label: tuple(i for i, other in enumerate(alphabet) if other != label) for label in alphabet}
    parts = [split_unit(label) for label in alphabet]
    # Neighbours share a bucket: (initial, final) for tone-neighbor,
    # (final, tone) for final-neighbor. Buckets fill in index order.
    if policy == "tone-neighbor":
        bucket_of = [(initial, final) for initial, final, _ in parts]
    else:  # final-neighbor
        bucket_of = [(final, tone) for _, final, tone in parts]
    buckets: dict[tuple[str, str], list[int]] = {}
    for i, bucket in enumerate(bucket_of):
        buckets.setdefault(bucket, []).append(i)
    out: dict[str, tuple[int, ...]] = {}
    for label, (initial, _, tone), bucket in zip(alphabet, parts, bucket_of):
        if policy == "tone-neighbor":
            confusable = [i for i in buckets[bucket] if alphabet[i] != label] if tone else []
        else:
            confusable = [i for i in buckets[bucket] if parts[i][0] != initial]
        out[label] = tuple(confusable)
    return out


@lru_cache(maxsize=8)
def _alphabet_index(alphabet: tuple[str, ...]) -> dict[str, int]:
    """Label -> class index, shared by every call (read only); EmissionMatrix rejects a repeated label."""
    return {label: i for i, label in enumerate(alphabet)}


def _seed_words(seed: int) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(4, numpy.uint64)``: the
    seed's 32-bit words, low first, hashed into a pool of four and mixed,
    then eight 32-bit outputs of the pool paired low word first."""
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[2 * i] | words[2 * i + 1] << 32 for i in range(4)]


def _uniform_stream(seed: int, low: float, high: float):
    """``draw(k)``, the next k floats of ``numpy.random.default_rng(seed).uniform(low,
    high)``, bit for bit. The generator is PCG64 (O'Neill 2014): a 128-bit LCG
    stepped before each output, which is the XSL-RR 64-bit permutation of its
    state; an output's top 53 bits make a double in [0, 1)."""
    words = _seed_words(seed)
    # pcg64_set_seed: words 0-1 are the initial state, words 2-3 the stream.
    increment = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
    state = ((increment + (words[0] << 64 | words[1])) * _PCG_MULT + increment) & _MASK128
    span = high - low

    def draw(k: int) -> list[float]:
        nonlocal state
        s, out = state, []
        for _ in range(k):
            s = (s * _PCG_MULT + increment) & _MASK128
            x = (s >> 64 ^ s) & _MASK64
            rot = s >> 122
            out.append(low + span * ((((x >> rot | x << 64 - rot) & _MASK64) >> 11) * 2.0 ** -53))
        state = s
        return out

    return draw


def _log_shares(columns, values: list[float]) -> list[tuple[int, float]]:
    """``(column, log10 of its weight's share of the row)`` for each nonzero
    weight; a zero leak (blank_fill 1) drops out. The row total is
    ``math.fsum``, correctly rounded whatever the order. Finite weights whose
    exact sum is past the float range total inf, so every share is -inf and
    EmissionMatrix names the frame; an inf weight leaves NaN."""
    try:
        total = math.fsum(values)
    except OverflowError:
        total = math.inf
    return [(c, math.log10(share) if (share := w / total) else NEG_INF) for c, w in zip(columns, values) if w]


def synth_emissions(
    pinyin: Sequence[str],
    alphabet: Sequence[str],
    config: SimConfig,
) -> EmissionMatrix:
    """Render a unit sequence as emissions over the V+1 classes of
    ``alphabet`` (blank is the last class)."""
    labels = tuple(pinyin)
    alphabet = tuple(alphabet)
    index = _alphabet_index(alphabet)
    for label in labels:
        if label not in index:
            raise InvalidSyllable(f"unit {label!r} not in the emission alphabet")

    blank = len(alphabet)
    tau = config.confusion_temperature
    draw = _uniform_stream(config.seed, *_JITTER)
    neighbors = confusion_map(alphabet, config.confusion_policy) if tau > 0 else {}

    frames = []
    if not labels:
        frames.append([(blank, 0.0)])
    for pos, label in enumerate(labels):
        unit_index = index[label]
        confusable = neighbors.get(label, ())
        split = bisect_left(confusable, unit_index)
        columns = (*confusable[:split], unit_index, *confusable[split:], blank)
        share = tau * _CONFUSION_LEAK / len(confusable) if confusable else 0.0
        for _ in range(config.frames_per_unit):
            # One call draws every jitter of the frame: each neighbour's in
            # ascending order, then the blank's.
            draws = draw(len(confusable) + 1)
            values = [share * d for d in draws[:-1]]
            values.insert(split, 1.0)
            values.append(tau * _BLANK_LEAK * draws[-1])
            frames.append(_log_shares(columns, values))
        # The release frame: blank-dominant, leaking onto both neighbours.
        next_index = index[labels[pos + 1]] if pos + 1 < len(labels) else None
        leak = tau * (1.0 - config.blank_fill) * 0.5
        draws = draw(1 if next_index is None else 2)
        weights = {blank: config.blank_fill, unit_index: leak * draws[0]}
        if next_index is not None:
            weights[next_index] = weights.get(next_index, 0.0) + leak * draws[1]
        columns = sorted(weights)
        frames.append(_log_shares(columns, [weights[c] for c in columns]))
    return EmissionMatrix(frames, unit_labels=alphabet, blank_index=blank)
