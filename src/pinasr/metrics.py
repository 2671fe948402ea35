"""Error-rate scoring: Levenshtein alignment, CER/UER, tone-stripped rescoring."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .pinyin import SyllableInventory, parse_syllable, strip_tone


class LengthMismatch(ValueError):
    """Reference and hypothesis lists differ in length."""


class EditCounts(NamedTuple):
    distance: int
    substitutions: int
    insertions: int
    deletions: int


def edit_distance(ref: Sequence, hyp: Sequence) -> EditCounts:
    """Unit-cost Levenshtein distance with a deterministic traceback.

    Ties in the traceback prefer substitution over insertion over deletion,
    so the (S, I, D) split is reproducible; distance == S + I + D.
    """
    n, m = len(ref), len(hyp)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dp[i][0] = i
    for j in range(1, m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        ri = ref[i - 1]
        row, prev = dp[i], dp[i - 1]
        for j in range(1, m + 1):
            cost = 0 if ri == hyp[j - 1] else 1
            row[j] = min(prev[j - 1] + cost, row[j - 1] + 1, prev[j] + 1)
    subs = ins = dels = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dp[i][j] == dp[i - 1][j - 1] + (0 if ref[i - 1] == hyp[j - 1] else 1):
            if ref[i - 1] != hyp[j - 1]:
                subs += 1
            i, j = i - 1, j - 1
        elif j > 0 and dp[i][j] == dp[i][j - 1] + 1:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    return EditCounts(dp[n][m], subs, ins, dels)


@dataclass(frozen=True)
class UtteranceScore:
    index: int
    ref_len: int
    distance: int
    substitutions: int
    insertions: int
    deletions: int


@dataclass(frozen=True)
class ScoreReport:
    """Pooled edit counts over a corpus: rate = (S+I+D) / total ref length.
    The totals sum ``per_utterance``; an all-empty reference corpus is ``degenerate``."""

    per_utterance: tuple[UtteranceScore, ...]

    substitutions = property(lambda self: sum(u.substitutions for u in self.per_utterance))
    insertions = property(lambda self: sum(u.insertions for u in self.per_utterance))
    deletions = property(lambda self: sum(u.deletions for u in self.per_utterance))
    ref_len = property(lambda self: sum(u.ref_len for u in self.per_utterance))
    degenerate = property(lambda self: self.ref_len == 0)

    @property
    def errors(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def error_rate(self) -> float:
        if self.ref_len == 0:
            return 0.0
        return self.errors / self.ref_len


def error_rate(refs: Sequence[Sequence], hyps: Sequence[Sequence]) -> ScoreReport:
    """Corpus-level error rate from pooled counts, with per-utterance detail.

    An all-empty reference corpus reports 0% and is ``degenerate`` rather
    than dividing by zero.
    """
    if len(refs) != len(hyps):
        raise LengthMismatch(f"{len(refs)} references vs {len(hyps)} hypotheses")
    return ScoreReport(tuple(
        UtteranceScore(index=index, ref_len=len(ref), **edit_distance(ref, hyp)._asdict())
        for index, (ref, hyp) in enumerate(zip(refs, hyps))
    ))


def tone_stripped_rescore(
    refs: Sequence[Sequence[str]],
    hyps: Sequence[Sequence[str]],
    inventory: SyllableInventory,
) -> ScoreReport:
    """Strip tones from both sides (every token must parse as a tonal unit),
    then score as usual."""
    stripped_refs = [[strip_tone(parse_syllable(t, inventory)) for t in ref] for ref in refs]
    stripped_hyps = [[strip_tone(parse_syllable(t, inventory)) for t in hyp] for hyp in hyps]
    return error_rate(stripped_refs, stripped_hyps)


def write_report_tsv(report: ScoreReport, sink, label: str = "error_rate") -> None:
    sink.write(f"metric\t{label}\n")
    sink.write(f"substitutions\t{report.substitutions}\n")
    sink.write(f"insertions\t{report.insertions}\n")
    sink.write(f"deletions\t{report.deletions}\n")
    sink.write(f"ref_len\t{report.ref_len}\n")
    sink.write(f"rate\t{report.error_rate:.6f}\n")
    if report.degenerate:
        sink.write("warning\tempty-reference corpus\n")


def write_report_jsonl(report: ScoreReport, sink) -> None:
    """One JSON object per utterance, for downstream error analysis."""
    for utt in report.per_utterance:
        sink.write(json.dumps(utt.__dict__, ensure_ascii=False, sort_keys=True) + "\n")
