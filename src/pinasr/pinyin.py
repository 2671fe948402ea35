"""Pinyin syllable alphabet: parsing, tone stripping, Hanzi conversion.

A tonal unit is written as lowercase romanization plus one tone digit,
e.g. ``zhong1``. Tone 5 is the neutral tone, and ``v`` stands in for
u-umlaut (``lv4``), so every unit is plain ASCII. A toneless unit is the
same string without the digit (``zhong``).

Units are plain strings everywhere, and only :func:`strip_tone` and
:func:`split_unit` take one apart. Which units exist is not hardcoded: a
:class:`SyllableInventory` is loaded from a data file and defines validity.
``split_unit`` finds the initial by longest-prefix matching against the
fixed onset list below; ``y`` and ``w`` are treated as onsets, pure-vowel
syllables (``e``, ``ai``) have an empty onset.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


class InvalidSyllable(ValueError):
    """The text does not name a unit of the inventory."""


class InvalidTone(ValueError):
    """Tone digit missing or outside 1-5."""


class UnknownCharacter(ValueError):
    """A Hanzi character has no lexicon entry."""

    def __init__(self, char: str, position: int):
        super().__init__(f"no lexicon entry for {char!r} at position {position}")
        self.char = char
        self.position = position


# Onsets, two-letter ones first so longest-prefix matching works.
ONSETS = (
    "zh", "ch", "sh",
    "b", "p", "m", "f", "d", "t", "n", "l",
    "g", "k", "h", "j", "q", "x", "r",
    "z", "c", "s", "y", "w",
)

_TONAL_RE = re.compile(r"^[a-z]+[1-5]$")


def _numbered_lines(path):
    """(line number, line) of the UTF-8 file ``path``; text that is not UTF-8 raises ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, 1)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def strip_tone(unit: str) -> str:
    """The toneless unit: ``unit`` without its tone digit, if it has one."""
    return unit[:-1] if unit[-1:].isdigit() else unit


def split_unit(unit: str) -> tuple[str, str, str]:
    """(initial, final, tone) of a tonal or toneless unit, by longest onset
    prefix; the initial is '' for a pure-vowel unit, the tone '' for a
    toneless one."""
    segment = strip_tone(unit)
    tone = unit[len(segment):]
    for onset in ONSETS:
        if segment.startswith(onset) and len(segment) > len(onset):
            return onset, segment[len(onset):], tone
    return "", segment, tone


@dataclass(frozen=True)
class SyllableInventory:
    """The set of valid units, tonal and (derived) toneless.

    ``toneless_units`` is the image of ``tonal_units`` under tone stripping.
    """

    tonal_units: frozenset[str]
    version: str

    @cached_property
    def toneless_units(self) -> frozenset[str]:
        return frozenset(map(strip_tone, self.tonal_units))

    @classmethod
    def from_file(cls, path) -> "SyllableInventory":
        """Load from a text file: one tonal unit per line, '#' comments."""
        version = str(path)
        units = []
        for lineno, raw in _numbered_lines(path):
            line = raw.strip()
            if line.startswith("#"):
                m = re.match(r"#\s*version:\s*(\S+)", line)
                if m:
                    version = m.group(1)
                continue
            if not line:
                continue
            if not _TONAL_RE.match(line):
                raise InvalidSyllable(f"{path}:{lineno}: malformed tonal unit {line!r}")
            units.append(line)
        return cls(tonal_units=frozenset(units), version=version)


def parse_syllable(text: str, inventory: SyllableInventory) -> str:
    """Normalize a tonal unit like ``ZHONG1`` to its lowercase form ``zhong1``.

    Raises InvalidTone when the trailing tone digit is missing or not 1-5,
    InvalidSyllable when the unit is not in the inventory.
    """
    if not text or not text.isascii():
        raise InvalidSyllable(f"not an ASCII pinyin unit: {text!r}")
    text = text.lower()
    if not text[-1].isdigit():
        raise InvalidTone(f"missing tone digit in {text!r}")
    if text[-1] not in "12345":
        raise InvalidTone(f"tone digit out of range in {text!r}")
    if text not in inventory.tonal_units:
        raise InvalidSyllable(f"not in inventory ({inventory.version}): {text!r}")
    return text


class PronunciationLexicon:
    """Hanzi -> weighted tonal readings, with homophone lookup indexes.

    Readings per character are kept in descending weight order (ties broken
    by the canonical unit string), so ``readings(char)[0]`` is the default
    reading used by :func:`hanzi_to_pinyin`. Instances are immutable after
    construction and safe to share across threads.
    """

    def __init__(self, entries: dict[str, Sequence[tuple[str, float]]]):
        """``entries`` maps each character to its readings, each with a
        positive finite weight; :meth:`from_file` checks a file's."""
        self._entries: dict[str, tuple[tuple[str, float], ...]] = {
            char: tuple(sorted(readings, key=lambda rw: (-rw[1], rw[0]))) for char, readings in entries.items()
        }
        # Homophone indexes: unit string -> list of (char, P(reading | char)).
        tonal_index: dict[str, list[tuple[str, float]]] = {}
        toneless_index: dict[str, list[tuple[str, float]]] = {}
        for char, readings in self._entries.items():
            total = sum(w for _, w in readings)
            toneless_mass: dict[str, float] = {}
            for unit, weight in readings:
                tonal_index.setdefault(unit, []).append((char, weight / total))
                seg = strip_tone(unit)
                toneless_mass[seg] = toneless_mass.get(seg, 0.0) + weight / total
            for seg, mass in toneless_mass.items():
                toneless_index.setdefault(seg, []).append((char, mass))
        self._tonal_index = {k: tuple(sorted(v)) for k, v in tonal_index.items()}
        self._toneless_index = {k: tuple(sorted(v)) for k, v in toneless_index.items()}

    @classmethod
    def from_file(cls, path, inventory: SyllableInventory) -> "PronunciationLexicon":
        """Load a TSV of ``character<TAB>unit<TAB>weight`` rows."""
        entries: dict[str, list[tuple[str, float]]] = {}
        for lineno, raw in _numbered_lines(path):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            char, unit, weight_text = fields
            if len(char) != 1:
                raise ValueError(f"{path}:{lineno}: key must be a single character, got {char!r}")
            try:
                weight = float(weight_text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad weight {weight_text!r}") from exc
            if not 0 < weight < math.inf:   # NaN fails both comparisons
                raise ValueError(f"{path}:{lineno}: weight must be {'positive' if weight <= 0 else 'finite'}")
            try:
                unit = parse_syllable(unit, inventory)
            except (InvalidSyllable, InvalidTone) as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from None
            entries.setdefault(char, []).append((unit, weight))
        return cls(entries)

    def __contains__(self, char: str) -> bool:
        return char in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def characters(self) -> Iterable[str]:
        return self._entries.keys()

    def readings(self, char: str) -> tuple[tuple[str, float], ...]:
        return self._entries[char]

    def homophones(self, unit: str, tonal: bool = True) -> tuple[tuple[str, float], ...]:
        """Characters whose (tonal or toneless) reading matches ``unit``.

        Each entry is (char, P(reading | char)); empty tuple when no
        character matches.
        """
        index = self._tonal_index if tonal else self._toneless_index
        return index.get(unit, ())

    def all_units(self) -> frozenset[str]:
        """Every tonal unit used by some reading."""
        return frozenset(self._tonal_index.keys())


def hanzi_to_pinyin(sentence: str, lexicon: PronunciationLexicon) -> list[str]:
    """Convert a Hanzi sentence to one tonal unit per character.

    Heteronyms take their highest-weight reading. Raises UnknownCharacter
    (with the character and its position) on the first uncovered character.
    """
    out = []
    for position, char in enumerate(sentence):
        if char not in lexicon:
            raise UnknownCharacter(char, position)
        out.append(lexicon.readings(char)[0][0])
    return out
