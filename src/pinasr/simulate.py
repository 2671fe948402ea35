"""Synthetic emission matrices standing in for an acoustic model.

Each input unit occupies ``frames_per_unit`` frames of mass concentrated on
its own class, followed by a blank-dominant release frame (so repeated
units always stay CTC-separable). At ``confusion_temperature`` 0 every
frame is exactly one-hot and the whole pipeline is lossless by
construction; raising the temperature leaks mass onto phonologically
confusable classes:

    tone-neighbor   same segment, different tone (tonal alphabets only)
    final-neighbor  same final (and tone, if tonal), different initial
    uniform         every other unit

Randomness is confined to per-frame leak jitter drawn from numpy's seeded
PCG64 generator, so a (sequence, config, alphabet) triple always produces
the identical emissions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .ctc import EmissionMatrix
from .pinyin import InvalidSyllable, split_unit

POLICIES = ("tone-neighbor", "final-neighbor", "uniform")

_CONFUSION_LEAK = 0.5   # total unnormalized confusable mass at temperature 1
_BLANK_LEAK = 0.15      # unnormalized blank mass inside unit frames at temperature 1
_JITTER = (0.5, 1.5)    # per-entry multiplicative jitter range


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

    V = len(alphabet)
    blank = V
    tau = config.confusion_temperature
    rng = np.random.default_rng(config.seed)
    neighbors = confusion_map(alphabet, config.confusion_policy) if tau > 0 else {}

    # Position p owns grid rows p*span to (p+1)*span-1, the last its release
    # frame. A row holds its frame's weights; its nonzero entries are the frame.
    span = config.frames_per_unit + 1
    grid = np.zeros((max(1, len(labels) * span), V + 1))
    if not labels:
        grid[0, blank] = 1.0
    for pos, label in enumerate(labels):
        unit_index = index[label]
        confusable = neighbors.get(label, ())
        for weights in grid[pos * span:(pos + 1) * span - 1]:
            weights[unit_index] = 1.0
            if tau > 0:
                # One call draws every jitter of the frame: each neighbour's
                # in ascending order, then the blank's. Vector draws take the
                # same stream as one scalar draw each.
                draws = rng.uniform(*_JITTER, size=len(confusable) + 1)
                if confusable:
                    share = tau * _CONFUSION_LEAK / len(confusable)
                    weights[list(confusable)] = share * draws[:-1]
                weights[blank] = tau * _BLANK_LEAK * draws[-1]
        # The release frame: blank-dominant, leaking onto both neighbours.
        next_index = index[labels[pos + 1]] if pos + 1 < len(labels) else None
        weights = grid[(pos + 1) * span - 1]
        weights[blank] = config.blank_fill
        if tau > 0:
            leak = tau * (1.0 - config.blank_fill) * 0.5
            draws = rng.uniform(*_JITTER, size=1 if next_index is None else 2)
            weights[unit_index] += leak * draws[0]
            if next_index is not None:
                weights[next_index] += leak * draws[1]

    # Search only the columns a frame can set, ascending to keep class order;
    # a zero leak (blank_fill 1) drops out. The denominators sum full rows: a
    # narrower row would round differently.
    touched = {blank}
    for label in set(labels):
        touched.update((index[label], *neighbors.get(label, ())))
    columns = np.array(sorted(touched))
    rows, at = np.nonzero(grid[:, columns])
    cols = columns[at]
    log_probs = np.log10(grid[rows, cols] / grid.sum(axis=1)[rows])
    pairs = list(zip(cols.tolist(), log_probs.tolist()))
    bounds = np.searchsorted(rows, np.arange(len(grid) + 1)).tolist()
    frames = [pairs[start:end] for start, end in zip(bounds, bounds[1:])]
    return EmissionMatrix(frames, unit_labels=alphabet, blank_index=blank)
