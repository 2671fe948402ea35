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

The beam never builds a child that cannot reach a frame's k-th best: a
child outside the beam takes one mass, so before any LM query its fused
score is bounded by that mass plus ``lm_weight * (the parent's LM score +
NGramModel.max_score)`` plus the bonus. The bound is
computed with the same rounded operations as the score it bounds, ties are
kept, and the masses that do land on kept prefixes are added in an order
that cannot change their bits, so the pruning changes no result
(``prefix_beam_search`` has the argument).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .ngram_lm import BOS, NGramModel

NEG_INF = float("-inf")

_LN10 = math.log(10.0)


class VocabularyMismatch(ValueError):
    """The fusion LM does not cover the emission unit alphabet."""


class InvalidEmissions(ValueError):
    """An emission matrix fails a check. ``line`` is where the fault sits in
    the ``.em`` text form: 1 the header, 2 the label line, 3+t frame t;
    ``detail`` is the message without the ``frame t`` an entry's fault starts with."""

    def __init__(self, detail: str, line: int, frame: int | None = None):
        super().__init__(detail if frame is None else f"frame {frame} {detail}")
        self.detail = detail
        self.line = line


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
    """Per-frame log10 class posteriors over V+1 classes, kept sparse.

    ``frames[t]`` lists frame t's ``(class, log10 prob)`` pairs, Python ints
    and floats, in strictly ascending class order; every class left out has
    probability zero. Class ``blank_index`` is the CTC blank; the remaining V
    classes map to ``unit_labels`` in order (label j is class j when
    j < blank_index, else class j+1). Labels are unique, every listed value
    is finite and each frame's probabilities sum to 1.
    """

    frames: tuple[tuple[tuple[int, float], ...], ...]
    unit_labels: tuple[str, ...]
    blank_index: int

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(map(tuple, self.frames)))
        object.__setattr__(self, "unit_labels", tuple(self.unit_labels))
        if not self.frames:
            raise InvalidEmissions("need at least one frame", 1)
        num_units = len(self.unit_labels)
        if num_units < 1:
            raise InvalidEmissions("need at least one unit label", 1)
        if not 0 <= self.blank_index <= num_units:
            raise InvalidEmissions(f"blank_index {self.blank_index} out of range [0, {num_units}]", 1)
        if len(set(self.unit_labels)) != num_units:
            labels = self.unit_labels
            duplicate = next(u for i, u in enumerate(labels) if u in labels[:i])
            raise InvalidEmissions(f"duplicate unit label {duplicate!r}", 2)
        for t, entries in enumerate(self.frames):
            previous, mass = -1, 0.0
            for c, value in entries:
                if not previous < c <= num_units:
                    problem = (f"out of range [0, {num_units}]" if not 0 <= c <= num_units
                               else "repeated" if c == previous else "not in ascending order")
                    raise InvalidEmissions(f"class {c} {problem}", 3 + t, t)
                if not NEG_INF < value < math.inf:   # NaN fails both comparisons
                    raise InvalidEmissions(f"class {c} value {value!r} is not finite", 3 + t, t)
                mass += 10.0 ** value if value < 308 else math.inf   # 10.0 ** 309 overflows
                previous = c
            if abs(mass - 1.0) > 1e-5:
                raise InvalidEmissions(f"row {t} sums to {mass:.8f}, not 1", 3 + t)

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def num_units(self) -> int:
        return len(self.unit_labels)

    @property
    def log_probs(self) -> "numpy.ndarray":
        """The dense T x (V+1) view, -inf where a class is not listed; built on
        each read. It needs numpy, which nothing else in the package imports:
        only the tests and ``bench/trace_child.py`` read it."""
        import numpy as np

        grid = np.full((self.num_frames, self.num_units + 1), NEG_INF)
        for t, entries in enumerate(self.frames):
            grid[t, [c for c, _ in entries]] = [value for _, value in entries]
        return grid


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
    # max keeps the first of equal maxima, and entries ascend by class.
    frames = [max(entries, key=itemgetter(1))[0] for entries in emissions.frames]
    blank = emissions.blank_index
    return [emissions.unit_labels[c if c < blank else c - 1] for c in collapse_alignment(frames, blank)]


@dataclass(frozen=True)
class DecoderConfig:
    """Beam search knobs. ``prune_threshold`` is a per-frame log10 floor;
    classes at or below it are not extended (the default skips only
    zero-probability classes). The weights are finite, so fused scores are
    ordered and the beam's bound holds."""

    beam_width: int = 8
    lm_weight: float = 0.5
    insertion_bonus: float = 0.0
    prune_threshold: float = NEG_INF

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {self.beam_width}")
        if not 0 <= self.lm_weight < math.inf:   # NaN fails both comparisons
            raise ValueError(f"lm_weight must be finite and >= 0, got {self.lm_weight}")
        if not math.isfinite(self.insertion_bonus):
            raise ValueError(f"insertion_bonus must be finite, got {self.insertion_bonus}")
        if not self.prune_threshold < math.inf:   # NaN fails too; -inf prunes nothing
            raise ValueError(f"prune_threshold must be below +inf, got {self.prune_threshold}")


@functools.lru_cache(maxsize=8)
def _alphabet_tables(unit_labels: tuple[str, ...], blank_index: int, lm: NGramModel | None):
    """The labels sorted, each class's unit number in that order (-1 for the
    blank) and each unit number's LM word; VocabularyMismatch for a
    unit the LM lacks. Prefixes of unit numbers then sort like their labels."""
    if lm is not None and (missing := [u for u in unit_labels if u not in lm.vocabulary]):
        raise VocabularyMismatch(f"units absent from LM vocabulary: {missing[:5]}")
    by_label = sorted(range(len(unit_labels)), key=unit_labels.__getitem__)
    labels = tuple(unit_labels[u] for u in by_label)
    unit_of_class = sorted(range(len(unit_labels)), key=by_label.__getitem__)   # the inverse of by_label
    unit_of_class.insert(blank_index, -1)
    return labels, tuple(unit_of_class), None if lm is None else tuple(map(lm.word, labels))


def prefix_beam_search(
    emissions: EmissionMatrix,
    lm: NGramModel | None,
    config: DecoderConfig = DecoderConfig(),
) -> list[tuple[tuple[str, ...], float]]:
    """CTC prefix beam search with optional shallow LM fusion.

    Returns up to ``beam_width`` (unit sequence, fused score) pairs, best
    first; ties sort by the unit strings so output is deterministic. Each
    prefix tracks separate blank/non-blank ending masses, and extension by a
    unit adds its fused LM/bonus contribution exactly once, by one
    ``lm.score_token`` query from the prefix's LM state. Raises ValueError
    naming the frame when no class of a frame is above ``prune_threshold``,
    or when a kept fused score is NaN or +-inf (an overflowing ``lm_weight``
    or ``insertion_bonus``) but for the -inf of a prefix of zero mass.

    Each frame runs in two passes. The first gives every kept prefix the
    masses that land on it: its own blank, its own repeat, and its parent's
    extension when the parent is kept too. With ``beam_width`` of them, the
    worst of their fused scores is a floor for the frame's k-th best. A
    child outside the beam takes exactly one mass, so its fused score is at
    most ``value + lm_weight * (cum_parent + lm.max_score) + insertion_bonus
    * (len + 1)``, and the second pass skips it before it is built when that
    bound is below the floor. Skipping changes no result, bit for bit: the
    bound is the child's own rounded sum with ``lm.max_score`` (at least every
    ``score_token`` value as a float) for its LM term, and rounded + and * are
    monotone; a tie is not skipped, so the label-order tie-break holds; and a
    kept prefix's non-blank slot takes at most two masses, so the symmetric
    ``log10addexp`` gives the same bits in either order.
    """
    labels, unit_of_class, words = _alphabet_tables(emissions.unit_labels, emissions.blank_index, lm)
    alpha = config.lm_weight if lm is not None else 0.0
    beta = config.insertion_bonus
    prune_threshold = config.prune_threshold
    width = config.beam_width
    max_lm = lm.max_score if lm is not None else 0.0

    # Beam entries: (-fused score, prefix, p_blank, p_nonblank, total mass),
    # best first; prefixes are tuples of unit numbers.
    beam: list[tuple[float, tuple[int, ...], float, float, float]] = [(0.0, (), 0.0, NEG_INF, 0.0)]
    # prefix -> (cumulative lm log10, lm state); grows append-only, and only
    # when there is an LM.
    lm_cache: dict[tuple[int, ...], tuple[float, int]] = {(): (0.0, lm.state((BOS,)))} if lm is not None else {}

    for t, entries in enumerate(emissions.frames):
        live = {unit_of_class[c]: score for c, score in entries if score > prune_threshold}
        if not live:
            raise ValueError(f"frame {t}: no class above prune_threshold {prune_threshold}")
        blank = live.pop(-1, None)
        # The live units, best first: a parent's extensions fall in this order.
        ranked = sorted(live.items(), key=itemgetter(1), reverse=True)

        # Pass 1: the kept prefixes, each with every mass that lands on it.
        # A prefix gets a candidate whenever its blank or its last unit is live.
        kept = {prefix: (p_b, total) for _, prefix, p_b, _, total in beam}
        candidates = []
        for _, prefix, p_b, p_nb, total in beam:
            score = live.get(prefix[-1]) if prefix else None
            if blank is None and score is None:
                continue
            new_b = NEG_INF if blank is None else total + blank
            new_nb = NEG_INF
            if score is not None:
                new_nb = p_nb + score   # the repeat merges unless a blank separated it
                if (parent := kept.get(prefix[:-1])) is not None:
                    q_b, q_total = parent
                    if len(prefix) < 2 or prefix[-2] != prefix[-1]:
                        new_nb = log10addexp(new_nb, q_total + score)
                    elif q_b != NEG_INF:
                        new_nb = log10addexp(new_nb, q_b + score)
            # log10addexp(new_b, new_nb), with its -inf cases taken first.
            new_total = (new_nb if new_b == NEG_INF else new_b if new_nb == NEG_INF
                         else log10addexp(new_b, new_nb))
            cum = lm_cache[prefix][0] if lm is not None else 0.0
            candidates.append((-(new_total + alpha * cum + beta * len(prefix)), prefix, new_b, new_nb, new_total))
        # Kept prefixes are at most beam_width, so with that many the worst is the floor.
        least = -max(candidates)[0] if len(candidates) == width else NEG_INF

        # Pass 2: children outside the beam, one mass each, skipped below the floor.
        for _, prefix, p_b, _, total in beam:
            last = prefix[-1] if prefix else None
            cum, state = lm_cache[prefix] if lm is not None else (0.0, 0)
            reach = alpha * (cum + max_lm)
            bonus = beta * (len(prefix) + 1)
            for unit, score in ranked:
                if unit != last:
                    value = total + score
                    if value + reach + bonus < least:
                        break   # the rest score lower, and a repeat's bound is no higher
                elif p_b == NEG_INF:
                    continue   # only the mass that ended in a blank extends into a repeat
                else:
                    value = p_b + score
                    if value + reach + bonus < least:
                        continue
                child = prefix + (unit,)
                if child in kept:
                    continue   # pass 1 gave it this mass
                if lm is not None:
                    if (cached := lm_cache.get(child)) is None:
                        logp, following = lm.score_token(state, words[unit])
                        cached = lm_cache[child] = (cum + logp, following)
                    child_cum = cached[0]
                else:
                    child_cum = 0.0
                candidates.append((-(value + alpha * child_cum + bonus), child, NEG_INF, value, value))
        # Prefixes are unique, so ties on the score break by prefix alone.
        candidates.sort()
        beam = candidates[:width]
        # Every kept fused score is finite, or -inf for a prefix of zero mass;
        # the sum of the keys is finite in the common case.
        if not math.isfinite(sum(map(itemgetter(0), beam))):
            for key, *_, total in beam:
                if not (-math.inf < key < math.inf or key == math.inf and total == NEG_INF):
                    raise ValueError(f"frame {t}: fused score is not finite; lm_weight or insertion_bonus overflows")

    return [(tuple(labels[u] for u in prefix), -key) for key, prefix, *_ in beam]


@functools.lru_cache(maxsize=8)
def _check_labels(unit_labels: tuple[str, ...]) -> None:
    """ValueError unless every label is one word; lru_cache keeps no exception."""
    for label in unit_labels:
        if label.split() != [label]:
            raise ValueError(f"unit label {label!r} is empty or contains whitespace")


def write_emissions(emissions: EmissionMatrix, sink) -> None:
    """Text form: ``T V blank_index`` header, the unit-label line, then one
    row per frame listing its entries as space-separated ``class:log10prob``
    pairs in ascending class order. Every entry left out is -inf."""
    _check_labels(emissions.unit_labels)
    sink.write(f"{emissions.num_frames} {emissions.num_units} {emissions.blank_index}\n")
    sink.write(" ".join(emissions.unit_labels) + "\n")
    for entries in emissions.frames:
        sink.write(" ".join(f"{c}:{v!r}" for c, v in entries) + "\n")


def read_emissions(source) -> EmissionMatrix:
    """Parse the text form written by ``write_emissions`` from the file
    object ``source``. Raises ValueError naming the line for a bad header or
    label line, too few or too many rows, an entry that is not ``class:value``
    (a dense row from an earlier version included) or a failed matrix check."""
    lines = source.read().splitlines()
    if len(lines) < 2:
        raise ValueError(f"line {len(lines) + 1}: emission file needs a header line and a label line")
    try:
        T, V, blank_index = (int(x) for x in lines[0].split())
    except ValueError:   # not three fields, or one is not an integer
        raise ValueError(f"line 1: bad header {lines[0]!r}, expected integers 'T V blank_index'") from None
    if T < 1:
        raise ValueError(f"line 1: header declares {T} frames, need at least 1")
    unit_labels = tuple(lines[1].split())
    if len(unit_labels) != V:
        raise ValueError(f"line 2: header declares {V} units, label line has {len(unit_labels)}")
    if len(lines) < 2 + T:
        raise ValueError(f"line 1: header declares {T} frames, file has {len(lines) - 2} rows")
    if len(lines) > 2 + T:
        raise ValueError(f"line {3 + T}: row past the {T} frames the header declares")
    frames = []
    for line_no, row in enumerate(lines[2:], 3):
        entries = []
        for entry in row.split():
            class_text, _, value_text = entry.partition(":")
            try:  # without a colon, value_text is "" and float() fails
                entries.append((int(class_text), float(value_text)))
            except ValueError:
                raise ValueError(f"line {line_no}: malformed entry {entry!r}, expected class:log10prob") from None
        frames.append(entries)
    try:
        return EmissionMatrix(frames, unit_labels, blank_index)
    except InvalidEmissions as exc:
        raise ValueError(f"line {exc.line}: {exc.detail}") from None
