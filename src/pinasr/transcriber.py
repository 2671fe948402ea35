"""Pinyin-to-Hanzi transcription via homophone lattices and a character LM.

Each input unit selects the lexicon characters that can sound like it; the
decoder then finds the character path maximizing

    log10 P_lm(path) + channel_weight * sum(log10 P(unit | char))

with the LM scored like a sentence (begin and end markers included).
``beam_transcribe`` keeps at most ``beam_width`` search states per position
and returns the best reading; with ``beam_width=None`` it keeps all and is
the exact Viterbi search. Its
state is the char LM's integer state, from ``NGramModel.start`` on: the
longest suffix of the last order-1 characters, out-of-vocabulary ones
mapped to ``<unk>``, that the LM stores. That is all the LM can see, and
paths the LM cannot tell apart share one state; ``score_token`` gives the
next one.

Ties anywhere break toward the lexicographically smaller character
sequence, so results are deterministic and enumeration-checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .ngram_lm import EOS, NGramModel
from .pinyin import PronunciationLexicon, strip_tone

import math


class NoCandidate(ValueError):
    """A unit matched no lexicon character."""

    def __init__(self, unit: str, position: int):
        super().__init__(f"no homophone candidates for {unit!r} at position {position}")
        self.unit = unit
        self.position = position


@dataclass(frozen=True)
class HomophoneLattice:
    """Per-position candidate sets of (character, log10 channel weight).

    ``fallbacks`` lists, ascending, the positions whose unit matched no
    lexicon reading and took fallback candidates instead.
    """

    units: tuple[str, ...]
    positions: tuple[tuple[tuple[str, float], ...], ...]
    fallbacks: tuple[int, ...] = ()

    def check_exact(self) -> None:
        """Raise NoCandidate for the first position that fell back."""
        if self.fallbacks:
            index = self.fallbacks[0]
            raise NoCandidate(self.units[index], index)


@dataclass(frozen=True)
class TranscriptionResult:
    hanzi: str
    total_score: float


# Named "lenient" until bench/trace_child.py, which wraps it by this name, follows a rename.
def build_lattice_lenient(
    pinyin: Sequence[str],
    lexicon: PronunciationLexicon,
    tonal: bool = True,
) -> HomophoneLattice:
    """Match each unit against the lexicon's (tonal or tone-stripped)
    readings. A unit with none falls back, and its position goes into
    ``fallbacks``: a tonal unit to its toneless candidates (the tone was
    probably misrecognized), a unit whose segment is unknown to the
    lexicon's most frequent character with a flat penalty. Length is always
    preserved; only an empty lexicon, with nothing to fall back to, raises
    NoCandidate."""
    units = tuple(pinyin)
    fallback_char: str | None = None
    positions, fallbacks = [], []
    for index, unit in enumerate(units):
        matches = lexicon.homophones(unit, tonal=tonal)
        if not matches:
            fallbacks.append(index)
            if tonal and unit[-1:].isdigit():
                matches = lexicon.homophones(strip_tone(unit), tonal=False)
        if matches:
            positions.append(tuple((char, math.log10(p)) for char, p in matches))
            continue
        if fallback_char is None:
            if not len(lexicon):
                raise NoCandidate(unit, index)
            fallback_char = max(
                lexicon.characters,
                key=lambda c: (sum(w for _, w in lexicon.readings(c)), c),
            )
        positions.append(((fallback_char, -3.0),))
    return HomophoneLattice(units=units, positions=tuple(positions), fallbacks=tuple(fallbacks))


def beam_transcribe(
    lattice: HomophoneLattice,
    char_lm: NGramModel,
    channel_weight: float = 1.0,
    beam_width: int | None = 16,
) -> TranscriptionResult:
    """The best lattice path: a DP over lattice paths whose state is the
    minimized LM state of the path so far.

    Keeping, per state, the single best (score, lexicographically smallest)
    prefix is exact because any two paths meeting in a state share their
    future scores. At most ``beam_width`` states survive each position;
    ``beam_width=None`` prunes none, so the result is the exact Viterbi argmax.
    Only that exact search is bound to find what a search keyed by the raw
    last order-1 characters finds: a pruned beam keeps ``beam_width``
    distinct LM states, so other paths may survive than in the raw one.
    Raises ValueError naming the first position, or the sentence end, where
    no kept score is finite (an overflowing ``channel_weight``).
    """
    if beam_width is not None and beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    # state -> (score, prefix)
    states: dict[int, tuple[float, tuple[str, ...]]] = {char_lm.start: (0.0, ())}
    kept = []   # each position's states, read only when the result is not finite
    for candidates in lattice.positions:
        scored = [(char, char_lm.word(char), channel_weight * weight) for char, weight in candidates]
        new_states: dict[int, tuple[float, tuple[str, ...]]] = {}
        for state, (score, prefix) in states.items():
            for char, word, channel in scored:
                logp, new_state = char_lm.score_token(state, word)
                entry = (score + (logp + channel), prefix + (char,))
                held = new_states.get(new_state)
                if held is None or entry[0] > held[0] or (entry[0] == held[0] and entry[1] < held[1]):
                    new_states[new_state] = entry
        if beam_width is not None and len(new_states) > beam_width:
            ranked = sorted(new_states.items(), key=lambda item: (-item[1][0], item[1][1]))
            new_states = dict(ranked[:beam_width])
        states = new_states
        kept.append(states)
    end = char_lm.word(EOS)
    finals = ((score + char_lm.score_token(state, end)[0], prefix) for state, (score, prefix) in states.items())
    score, prefix = min(finals, key=lambda item: (-item[0], item[1]))
    if not -math.inf < score < math.inf:   # NaN fails both comparisons
        where = next((f"position {i}" for i, held in enumerate(kept)
                      if not any(-math.inf < s < math.inf for s, _ in held.values())), "sentence end")
        raise ValueError(f"{where}: transcription score is not finite; channel_weight overflows")
    return TranscriptionResult(hanzi="".join(prefix), total_score=score)
