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
the identical matrix.
"""

from __future__ import annotations

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
        if self.confusion_temperature < 0.0:
            raise ValueError(f"confusion_temperature must be >= 0, got {self.confusion_temperature}")
        if self.confusion_policy not in POLICIES:
            raise ValueError(f"unknown confusion_policy {self.confusion_policy!r}, want one of {POLICIES}")


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


def synth_emissions(
    pinyin: Sequence[str],
    alphabet: Sequence[str],
    config: SimConfig,
) -> EmissionMatrix:
    """Render a unit sequence as a T x (V+1) emission matrix over
    ``alphabet`` (blank is the last class)."""
    labels = tuple(pinyin)
    alphabet = tuple(alphabet)
    index = {label: i for i, label in enumerate(alphabet)}
    if len(index) != len(alphabet):
        raise ValueError("alphabet contains duplicate labels")
    for label in labels:
        if label not in index:
            raise InvalidSyllable(f"unit {label!r} not in the emission alphabet")

    V = len(alphabet)
    blank = V
    tau = config.confusion_temperature
    rng = np.random.default_rng(config.seed)
    neighbors = confusion_map(alphabet, config.confusion_policy) if tau > 0 else {}

    rows: list[np.ndarray] = []

    def unit_frame(unit_index: int, label: str) -> None:
        weights = np.zeros(V + 1)
        weights[unit_index] = 1.0
        if tau > 0:
            confusable = neighbors[label]
            # One call draws every jitter of the frame: each neighbour's in
            # ascending order, then the blank's. Vector draws take the same
            # stream as one scalar draw each.
            draws = rng.uniform(*_JITTER, size=len(confusable) + 1)
            if confusable:
                share = tau * _CONFUSION_LEAK / len(confusable)
                weights[list(confusable)] = share * draws[:-1]
            weights[blank] = tau * _BLANK_LEAK * draws[-1]
        rows.append(weights / weights.sum())

    def release_frame(prev_index: int, next_index: int | None) -> None:
        weights = np.zeros(V + 1)
        weights[blank] = config.blank_fill
        if tau > 0:
            leak = tau * (1.0 - config.blank_fill) * 0.5
            draws = rng.uniform(*_JITTER, size=1 if next_index is None else 2)
            weights[prev_index] += leak * draws[0]
            if next_index is not None:
                weights[next_index] += leak * draws[1]
        rows.append(weights / weights.sum())

    if not labels:
        weights = np.zeros(V + 1)
        weights[blank] = 1.0
        rows.append(weights)
    for pos, label in enumerate(labels):
        unit_index = index[label]
        for _ in range(config.frames_per_unit):
            unit_frame(unit_index, label)
        next_index = index[labels[pos + 1]] if pos + 1 < len(labels) else None
        release_frame(unit_index, next_index)

    with np.errstate(divide="ignore"):
        log_probs = np.log10(np.vstack(rows))
    return EmissionMatrix(log_probs=log_probs, unit_labels=alphabet, blank_index=blank)
