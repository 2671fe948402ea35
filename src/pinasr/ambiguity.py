"""Homophone-ambiguity statistics: how many distinct Hanzi realizations a
pinyin n-gram has in a parallel corpus.

Keys are counted at the type level (each distinct pinyin n-gram once,
however often it occurs) and windows never cross sentence boundaries.
Columns mirror the usual presentation: average and maximum realization
counts plus the percentage of n-grams with a single realization, tonal
first and toneless in parentheses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import EmptyCorpus, ParallelCorpus
from .pinyin import strip_tone


@dataclass(frozen=True)
class MappingStats:
    n: int
    num_keys: int
    average: float
    maximum: int
    pct_unique: float


def mapping_stats(corpus: ParallelCorpus, n: int, tonal: bool = True) -> MappingStats:
    """Group aligned Hanzi n-grams by their pinyin n-gram key and summarize
    the distinct-realization counts."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    realizations: dict[tuple[str, ...], set[str]] = {}
    for hanzi, pinyin in corpus.pairs:
        units = pinyin if tonal else [strip_tone(u) for u in pinyin]
        for i in range(len(hanzi) - n + 1):
            key = tuple(units[i:i + n])
            realizations.setdefault(key, set()).add(hanzi[i:i + n])
    if not realizations:
        raise EmptyCorpus(f"no length-{n} windows in corpus")
    sizes = [len(v) for v in realizations.values()]
    return MappingStats(
        n=n,
        num_keys=len(sizes),
        average=sum(sizes) / len(sizes),
        maximum=max(sizes),
        pct_unique=100.0 * sum(1 for s in sizes if s == 1) / len(sizes),
    )


Rows = tuple[tuple[MappingStats, MappingStats], ...]


def stats_report(corpus: ParallelCorpus, n_max: int) -> Rows:
    """The (tonal, toneless) stats of each n from 1 to ``n_max``."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return tuple(
        (mapping_stats(corpus, n, tonal=True), mapping_stats(corpus, n, tonal=False))
        for n in range(1, n_max + 1)
    )


TSV_HEADER = "n\tavg_tonal\tmax_tonal\tpct_unique_tonal\tavg_toneless\tmax_toneless\tpct_unique_toneless"


def render_tsv(rows: Rows) -> str:
    lines = [TSV_HEADER]
    for tonal, toneless in rows:
        lines.append(
            f"{tonal.n}\t{tonal.average:.6f}\t{tonal.maximum}\t{tonal.pct_unique:.4f}"
            f"\t{toneless.average:.6f}\t{toneless.maximum}\t{toneless.pct_unique:.4f}"
        )
    return "\n".join(lines) + "\n"


def render_table(rows: Rows) -> str:
    """Human-readable table; toneless values sit in parentheses."""
    lines = [f"{'N-gram':<8}{'Average':>18}{'Maximum':>16}{'Unique':>20}"]
    for tonal, toneless in rows:
        lines.append(
            f"{str(tonal.n) + '-gram':<8}"
            f"{f'{tonal.average:.2f} ({toneless.average:.2f})':>18}"
            f"{f'{tonal.maximum} ({toneless.maximum})':>16}"
            f"{f'{tonal.pct_unique:.1f}% ({toneless.pct_unique:.1f}%)':>20}"
        )
    return "\n".join(lines) + "\n"
