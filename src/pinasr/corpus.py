"""Text-corpus ingestion: length filtering and Hanzi-pinyin pairing."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .pinyin import (
    InvalidSyllable,
    InvalidTone,
    PronunciationLexicon,
    SyllableInventory,
    UnknownCharacter,
    hanzi_to_pinyin,
    parse_syllable,
)


class EmptyCorpus(ValueError):
    """An operation that needs data was given none."""


_HANZI_RE = re.compile(r"[一-鿿]+")


def normalize_hanzi(line: str) -> str:
    """Keep only CJK unified ideographs; whitespace and punctuation drop out."""
    return "".join(_HANZI_RE.findall(line))


@dataclass
class FilterResult:
    sentences: list[str]
    malformed: int = 0
    out_of_bounds: int = 0
    duplicates: int = 0


def check_length_bounds(min_len: int, max_len: int) -> None:
    """Raise ValueError unless 1 <= min_len <= max_len."""
    if min_len < 1:
        raise ValueError(f"min_len must be >= 1, got {min_len}")
    if max_len < min_len:
        raise ValueError(f"max_len {max_len} < min_len {min_len}")


def filter_sentences(
    lines: Iterable[str],
    min_len: int,
    max_len: int,
) -> FilterResult:
    """Keep normalized sentences with length in [min_len, max_len].

    Exact repeats are dropped; lines that normalize to nothing count as
    malformed. Input order is preserved.
    """
    check_length_bounds(min_len, max_len)
    result = FilterResult(sentences=[])
    seen: set[str] = set()
    for line in lines:
        sentence = normalize_hanzi(line)
        if not sentence:
            result.malformed += 1
            continue
        if not (min_len <= len(sentence) <= max_len):
            result.out_of_bounds += 1
            continue
        if sentence in seen:
            result.duplicates += 1
            continue
        seen.add(sentence)
        result.sentences.append(sentence)
    return result


@dataclass
class ParallelCorpus:
    """Sentence-aligned (Hanzi, tonal pinyin) pairs; pinyin length always
    equals the character count."""

    pairs: list[tuple[str, tuple[str, ...]]]
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.pairs)


def build_parallel(
    sentences: Sequence[str],
    lexicon: PronunciationLexicon,
) -> ParallelCorpus:
    """Pair each sentence with its pinyin; uncovered sentences are skipped
    and counted, never partially converted."""
    pairs: list[tuple[str, tuple[str, ...]]] = []
    skipped = 0
    for sentence in sentences:
        try:
            pinyin = tuple(hanzi_to_pinyin(sentence, lexicon))
        except UnknownCharacter:
            skipped += 1
            continue
        pairs.append((sentence, pinyin))
    return ParallelCorpus(pairs=pairs, skipped=skipped)


def read_parallel_tsv(source, inventory: SyllableInventory) -> ParallelCorpus:
    """Read ``hanzi<TAB>space-joined-pinyin`` lines; validates unit
    membership and the length-equality invariant. Every error names its line
    and is a ValueError (InvalidSyllable or InvalidTone for a bad unit)."""
    pairs: list[tuple[str, tuple[str, ...]]] = []
    for lineno, raw in enumerate(source, 1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 2 tab-separated fields")
        hanzi, pinyin_text = fields
        try:
            pinyin = tuple(parse_syllable(tok, inventory) for tok in pinyin_text.split())
        except (InvalidSyllable, InvalidTone) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        if len(pinyin) != len(hanzi):
            raise ValueError(
                f"line {lineno}: {len(pinyin)} pinyin units vs {len(hanzi)} characters"
            )
        pairs.append((hanzi, pinyin))
    return ParallelCorpus(pairs=pairs)
