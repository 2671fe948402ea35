"""Lexicon-free CTC decoding over unit emissions.

Greedy decode, prefix beam search with shallow n-gram LM fusion, and the
``.em`` emission files (the forward algorithm and the brute-force oracle
for small instances are in tests/reference_impls.py).
Every modeling unit is its own decoding token (the "dummy lexicon" view),
so no word lexicon is involved anywhere.

All scores are log10, matching the emission file format and the language
model. Fusion follows the usual shallow form: the ranking score of a
hypothesis is

    log10 P_ctc(prefix) + lm_weight * log10 P_lm(prefix) + insertion_bonus * len(prefix)

where the LM term conditions on the sentence-begin marker but never scores
sentence end (the frame loop, not the LM, decides when the utterance is
over). With an exhaustive beam and no pruning the search is exact.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ngram_lm import BOS, NGramModel

NEG_INF = float("-inf")

_LN10 = math.log(10.0)


class VocabularyMismatch(ValueError):
    """The fusion LM does not cover the emission unit alphabet."""


def log10addexp(a: float, b: float) -> float:
    """log10(10**a + 10**b), stable for the -inf cases."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(10.0 ** (b - a)) / _LN10


@dataclass(frozen=True)
class EmissionMatrix:
    """T x (V+1) grid of per-frame log10 class posteriors.

    Column ``blank_index`` is the CTC blank; the remaining V columns map to
    ``unit_labels`` in order (label j sits at column j when j < blank_index,
    else at column j+1). Labels are unique, and every entry is finite or
    -inf (probability zero).
    """

    log_probs: np.ndarray
    unit_labels: tuple[str, ...]
    blank_index: int

    def __post_init__(self):
        lp = np.asarray(self.log_probs, dtype=np.float64)
        object.__setattr__(self, "log_probs", lp)
        object.__setattr__(self, "unit_labels", tuple(self.unit_labels))
        if lp.ndim != 2 or lp.shape[0] < 1:
            raise ValueError(f"need a T x (V+1) matrix with T >= 1, got shape {lp.shape}")
        num_units = len(self.unit_labels)
        if num_units < 1:
            raise ValueError("need at least one unit label")
        if lp.shape[1] != num_units + 1:
            raise ValueError(f"{num_units} unit labels require {num_units + 1} columns, got {lp.shape[1]}")
        if not 0 <= self.blank_index <= num_units:
            raise ValueError(f"blank_index {self.blank_index} out of range")
        if len(set(self.unit_labels)) != num_units:
            labels = self.unit_labels
            duplicate = next(u for i, u in enumerate(labels) if u in labels[:i])
            raise ValueError(f"duplicate unit label {duplicate!r}")
        # One pass screens for NaN and +inf: either makes the total NaN or +inf.
        with np.errstate(invalid="ignore"):
            total = lp.sum()
        if not total < np.inf:
            bad = np.argwhere(np.isnan(lp) | (lp == np.inf))
            if bad.size:
                t, c = bad[0]
                raise ValueError(f"frame {t} class {c} is {lp[t, c]}, not a finite log10 probability or -inf")
        # Only finite entries carry mass; 10**-inf would add nothing but time.
        rows, cols = np.nonzero(lp > NEG_INF)
        row_sums = np.bincount(rows, weights=np.power(10.0, lp[rows, cols]), minlength=lp.shape[0])
        bad = np.nonzero(np.abs(row_sums - 1.0) > 1e-5)[0]
        if bad.size:
            raise ValueError(f"row {bad[0]} sums to {row_sums[bad[0]]:.8f}, not 1")

    @property
    def num_frames(self) -> int:
        return self.log_probs.shape[0]

    @property
    def num_units(self) -> int:
        return len(self.unit_labels)

    def unit_of_class(self, class_index: int) -> int:
        """Unit index for a non-blank class column."""
        if class_index == self.blank_index:
            raise ValueError("blank class has no unit")
        return class_index if class_index < self.blank_index else class_index - 1


def _entries_by_frame(
    log_probs: np.ndarray, floor: float, relabel: np.ndarray | None = None
) -> list[list[tuple[int, float]]]:
    """Per frame, the ``(class, log10 prob)`` pairs strictly above ``floor``,
    in ascending class order, as Python ints and floats. ``relabel`` maps
    each class index to the int reported in its place."""
    rows, cols = np.nonzero(log_probs > floor)
    keys = (cols if relabel is None else relabel[cols]).tolist()
    pairs = list(zip(keys, log_probs[rows, cols].tolist()))
    bounds = np.searchsorted(rows, np.arange(log_probs.shape[0] + 1)).tolist()
    return [pairs[start:end] for start, end in zip(bounds, bounds[1:])]


def collapse_alignment(frames: Sequence[int], blank: int) -> list[int]:
    """Standard CTC collapse: merge adjacent repeats, then delete blanks."""
    out: list[int] = []
    previous = None
    for label in frames:
        if label != previous:
            if label != blank:
                out.append(label)
            previous = label
    return out


def greedy_decode(emissions: EmissionMatrix) -> list[str]:
    """Per-frame argmax (ties go to the lower class index) then collapse."""
    frames = np.argmax(emissions.log_probs, axis=1)
    collapsed = collapse_alignment(frames.tolist(), emissions.blank_index)
    return [emissions.unit_labels[emissions.unit_of_class(c)] for c in collapsed]


@dataclass(frozen=True)
class DecoderConfig:
    """Beam search knobs. ``prune_threshold`` is a per-frame log10 floor;
    classes at or below it are not extended (the default skips only
    zero-probability classes)."""

    beam_width: int = 8
    lm_weight: float = 0.5
    insertion_bonus: float = 0.0
    prune_threshold: float = NEG_INF

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.lm_weight < 0:
            raise ValueError(f"lm_weight must be >= 0, got {self.lm_weight}")


def prefix_beam_search(
    emissions: EmissionMatrix,
    lm: NGramModel | None,
    config: DecoderConfig = DecoderConfig(),
) -> list[tuple[tuple[str, ...], float]]:
    """CTC prefix beam search with optional shallow LM fusion.

    Returns up to ``beam_width`` (unit sequence, fused score) pairs, best
    first; ties sort by the unit strings so output is deterministic. Each
    prefix tracks separate blank/non-blank ending masses, and extension by a
    unit adds its fused LM/bonus contribution exactly once.
    """
    if lm is not None:
        missing = [u for u in emissions.unit_labels if u not in lm.vocabulary]
        if missing:
            raise VocabularyMismatch(f"units absent from LM vocabulary: {missing[:5]}")

    alpha = config.lm_weight if lm is not None else 0.0
    beta = config.insertion_bonus
    order = lm.order if lm is not None else 1

    # Units are renumbered by sorted label, so prefix tuples of unit numbers
    # sort exactly like their label strings (labels are unique); -1 is blank.
    by_label = sorted(range(emissions.num_units), key=emissions.unit_labels.__getitem__)
    labels = [emissions.unit_labels[u] for u in by_label]
    unit_number = np.empty(emissions.num_units, dtype=np.int64)
    unit_number[by_label] = np.arange(emissions.num_units)
    unit_of_class = np.insert(unit_number, emissions.blank_index, -1)
    frames = _entries_by_frame(emissions.log_probs, config.prune_threshold, unit_of_class)

    # Beam entries: (-fused score, prefix, p_blank, p_nonblank, total mass),
    # best first; prefixes are tuples of unit numbers.
    beam: list[tuple[float, tuple[int, ...], float, float, float]] = [(0.0, (), 0.0, NEG_INF, 0.0)]
    # prefix -> (cumulative lm log10, lm context tuple); grows append-only,
    # and only when there is an LM.
    lm_cache: dict[tuple[int, ...], tuple[float, tuple[str, ...]]] = {(): (0.0, (BOS,))}

    for active in frames:
        # prefix -> [p_blank, p_nonblank]; a new entry takes its first mass
        # as is, since log10addexp(-inf, x) is x.
        next_beam: dict[tuple[int, ...], list[float]] = {}
        get = next_beam.get
        for _, prefix, p_b, p_nb, total in beam:
            last = prefix[-1] if prefix else None
            for unit, score in active:
                if unit < 0 or unit == last:
                    masses = get(prefix)
                    if masses is None:
                        masses = next_beam[prefix] = [NEG_INF, NEG_INF]
                    if unit < 0:
                        # Slot 0 takes one mass per frame: the prefix's own blank.
                        masses[0] = total + score
                        continue
                    # Repeat merges unless a blank separated it.
                    masses[1] = log10addexp(masses[1], p_nb + score)
                    if p_b == NEG_INF:
                        continue
                    value = p_b + score
                else:
                    value = total + score
                child = prefix + (unit,)
                masses = get(child)
                if masses is not None:
                    masses[1] = log10addexp(masses[1], value)
                    continue
                next_beam[child] = [NEG_INF, value]
                if lm is not None and child not in lm_cache:
                    cum, ctx = lm_cache[prefix]
                    token = labels[unit]
                    next_ctx = (ctx + (token,))[-(order - 1):] if order > 1 else ()
                    lm_cache[child] = (cum + lm.score_token(ctx, token), next_ctx)

        candidates = []
        for prefix, (p_b, p_nb) in next_beam.items():
            # log10addexp(p_b, p_nb), with its -inf cases taken first.
            total = p_nb if p_b == NEG_INF else p_b if p_nb == NEG_INF else log10addexp(p_b, p_nb)
            cum = lm_cache[prefix][0] if lm is not None else 0.0
            candidates.append((-(total + alpha * cum + beta * len(prefix)), prefix, p_b, p_nb, total))
        # Prefixes are unique, so ties on the score break by prefix alone.
        beam = heapq.nsmallest(config.beam_width, candidates)

    return [(tuple(labels[u] for u in prefix), -key) for key, prefix, *_ in beam]


def write_emissions(emissions: EmissionMatrix, sink) -> None:
    """Text form: ``T V blank_index`` header, the unit-label line, then one
    row per frame listing its finite entries as space-separated
    ``class:log10prob`` pairs in ascending class order. Every entry left
    out is -inf."""
    for label in emissions.unit_labels:
        if label.split() != [label]:
            raise ValueError(f"unit label {label!r} is empty or contains whitespace")
    sink.write(f"{emissions.num_frames} {emissions.num_units} {emissions.blank_index}\n")
    sink.write(" ".join(emissions.unit_labels) + "\n")
    for entries in _entries_by_frame(emissions.log_probs, NEG_INF):
        sink.write(" ".join(f"{c}:{v!r}" for c, v in entries) + "\n")


def read_emissions(source) -> EmissionMatrix:
    """Parse the text form written by ``write_emissions`` from the file
    object ``source``. Raises ValueError naming the line for rows past the
    declared frame count, for an entry that is not ``class:value`` (a dense
    row from an earlier version included), for a class out of range,
    repeated or out of ascending order, and for a value that is not finite."""
    lines = source.read().splitlines()
    if len(lines) < 2:
        raise ValueError("emission file needs a header line and a label line")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"bad header {lines[0]!r}, expected 'T V blank_index'")
    T, V, blank_index = (int(x) for x in header)
    unit_labels = tuple(lines[1].split())
    if len(unit_labels) != V:
        raise ValueError(f"header declares {V} units, label line has {len(unit_labels)}")
    if len(lines) < 2 + T:
        raise ValueError(f"header declares {T} frames, file has {len(lines) - 2} rows")
    if len(lines) > 2 + T:
        raise ValueError(f"line {3 + T}: row past the {T} frames the header declares")
    log_probs = np.full((T, V + 1), NEG_INF)
    for t in range(T):
        line_no = 3 + t
        previous = -1
        for entry in lines[2 + t].split():
            class_text, _, value_text = entry.partition(":")
            try:  # without a colon, value_text is "" and float() fails
                c, value = int(class_text), float(value_text)
            except ValueError:
                raise ValueError(f"line {line_no}: malformed entry {entry!r}, expected class:log10prob") from None
            if not 0 <= c <= V:
                raise ValueError(f"line {line_no}: class {c} out of range [0, {V}]")
            if c <= previous:
                problem = "repeated" if c == previous else "not in ascending order"
                raise ValueError(f"line {line_no}: class {c} {problem}")
            if not math.isfinite(value):
                raise ValueError(f"line {line_no}: class {c} value {value_text!r} is not finite")
            log_probs[t, c] = value
            previous = c
    return EmissionMatrix(log_probs=log_probs, unit_labels=unit_labels, blank_index=blank_index)
