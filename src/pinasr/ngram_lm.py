"""Backoff n-gram language model with interpolated Kneser-Ney smoothing.

All probabilities live in log10 (the ARPA convention). The smoothing uses a
single absolute discount D per order, written in backoff form:

    P(w | h) = max(c(h,w) - D, 0) / c(h)  +  bow(h) * P(w | h')
    bow(h)   = D * N1+(h, *) / c(h)

where c() is the raw count at the highest order and the continuation count
(number of distinct preceding tokens) at lower orders, except that n-grams
starting with the sentence-begin marker keep raw counts (nothing can precede
them). Stored n-gram probabilities include the interpolation term, so for a
stored context the conditional distribution over the prediction vocabulary
sums to exactly 1.

Vocabulary handling: ``<s>`` is context-only and never predicted (its
unigram line carries the conventional -99 score). ``</s>`` and ``<unk>``
are always predictable, so the prediction vocabulary is
``vocabulary - {<s>}``. Tokens below ``min_count`` (or outside an explicit
closed vocabulary) are mapped to ``<unk>`` before counting.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .corpus import EmptyCorpus

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

BOS_LOG10 = -99.0  # conventional placeholder score for the begin marker

MAX_ORDER = 6


class InvalidDiscount(ValueError):
    """Discount must lie strictly inside (0, 1)."""


class MalformedArpa(ValueError):
    """ARPA text violated the expected layout."""


class OutOfVocabulary(ValueError):
    """A token outside the vocabulary, scored by a model that has no ``<unk>``."""


@dataclass
class CountTable:
    """Raw and continuation-adjusted n-gram counts, one dict per order.

    ``raw[k-1]`` maps k-gram tuples to occurrence counts over the padded
    corpus. ``adjusted[k-1]`` holds the counts the smoothing actually uses:
    raw counts at the top order and for ``<s>``-initial n-grams, distinct
    predecessor counts everywhere else.
    """

    order: int
    raw: list[dict[tuple[str, ...], int]] = field(default_factory=list)
    adjusted: list[dict[tuple[str, ...], int]] = field(default_factory=list)


def _count_ngrams(sentences: Sequence[Sequence[str]], order: int) -> CountTable:
    table = CountTable(order=order, raw=[{} for _ in range(order)], adjusted=[{} for _ in range(order)])
    for sentence in sentences:
        padded = [BOS, *sentence, EOS]
        for k in range(1, order + 1):
            counts = table.raw[k - 1]
            for i in range(len(padded) - k + 1):
                gram = tuple(padded[i:i + k])
                counts[gram] = counts.get(gram, 0) + 1
    top = order - 1
    table.adjusted[top] = dict(table.raw[top])
    for k in range(top - 1, -1, -1):
        adj = table.adjusted[k]
        # Distinct-predecessor counts come from presence one order up; the
        # suffix of a (k+2)-gram can never start with <s>.
        for gram in table.raw[k + 1]:
            suffix = gram[1:]
            adj[suffix] = adj.get(suffix, 0) + 1
        for gram, count in table.raw[k].items():
            if gram[0] == BOS:
                adj[gram] = count
    return table


@dataclass
class NGramModel:
    """A trained (or ARPA-loaded) backoff model; immutable in practice and
    safe for concurrent scoring."""

    order: int
    vocabulary: frozenset[str]
    prob_table: dict[tuple[str, ...], float]
    backoff_table: dict[tuple[str, ...], float]

    @property
    def prediction_vocabulary(self) -> frozenset[str]:
        return self.vocabulary - {BOS}

    def _map(self, token: str) -> str:
        """``token`` if in the vocabulary, else ``<unk>``; a model without
        ``<unk>`` raises OutOfVocabulary naming the token."""
        if token in self.vocabulary:
            return token
        if UNK in self.vocabulary:
            return UNK
        raise OutOfVocabulary(f"token {token!r} is not in the LM vocabulary, which has no {UNK}")

    def score_token(self, context: Sequence[str], token: str) -> float:
        """log10 P(token | context) by longest-match backoff.

        Context longer than order-1 is truncated to its most recent tokens;
        out-of-vocabulary tokens (in either position) map to ``<unk>``, or
        raise OutOfVocabulary in a model without ``<unk>``.
        """
        word = self._map(token)
        ctx = tuple(self._map(t) for t in context[max(0, len(context) - self.order + 1):])
        prob = self.prob_table
        backoff = self.backoff_table
        penalty = 0.0
        while True:
            hit = prob.get(ctx + (word,))
            if hit is not None:
                return penalty + hit
            if not ctx:
                # Trained and ARPA-read models have a unigram for every
                # vocabulary token; a hand-built one may omit the begin marker's.
                return penalty + BOS_LOG10
            penalty += backoff.get(ctx, 0.0)
            ctx = ctx[1:]

    def score_sequence(self, tokens: Sequence[str], include_eos: bool = True) -> float:
        """Sum of token scores with begin padding, optionally ending in </s>."""
        context: tuple[str, ...] = (BOS,)
        total = 0.0
        for token in tokens:
            total += self.score_token(context, token)
            context = (context + (self._map(token),))[-(self.order - 1):] if self.order > 1 else ()
        if include_eos:
            total += self.score_token(context, EOS)
        return total

    def perplexity(self, corpus: Sequence[Sequence[str]]) -> float:
        """10^(-average log10 prob per token); end markers count toward the
        denominator, begin markers do not."""
        if not corpus:
            raise EmptyCorpus("perplexity of an empty corpus")
        total = 0.0
        denom = 0
        for sentence in corpus:
            total += self.score_sequence(sentence, include_eos=True)
            denom += len(sentence) + 1
        return 10.0 ** (-total / denom)


def train(
    corpus: Sequence[Sequence[str]],
    order: int,
    discount: float = 0.5,
    min_count: int = 1,
    vocabulary: Iterable[str] | None = None,
) -> NGramModel:
    """Train an interpolated Kneser-Ney model with one fixed discount.

    ``corpus`` is a list of token sequences. With ``vocabulary`` given the
    model is closed over that set (useful for a finite unit alphabet, where
    unseen units must still receive mass); otherwise tokens seen fewer than
    ``min_count`` times become ``<unk>``.
    """
    if not corpus:
        raise EmptyCorpus("cannot train on an empty corpus")
    if not 0.0 < discount < 1.0:
        raise InvalidDiscount(f"discount must be in (0, 1), got {discount}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")

    if vocabulary is not None:
        vocab = set(vocabulary) - {BOS, EOS, UNK}
    else:
        freq: dict[str, int] = {}
        for sentence in corpus:
            for token in sentence:
                freq[token] = freq.get(token, 0) + 1
        vocab = {t for t, c in freq.items() if c >= min_count}
    mapped = [[t if t in vocab else UNK for t in sentence] for sentence in corpus]

    pred_vocab = sorted(vocab | {EOS, UNK})
    uniform = 1.0 / len(pred_vocab)

    table = _count_ngrams(mapped, order)
    prob: dict[tuple[str, ...], float] = {}
    backoff: dict[tuple[str, ...], float] = {}

    def backed_off_prob(context: tuple[str, ...], token: str) -> float:
        # Linear-probability backoff walk over the tables built so far.
        weight = 1.0
        while True:
            hit = prob.get(context + (token,))
            if hit is not None:
                return weight * 10.0 ** hit
            if not context:
                return weight * uniform
            bow = backoff.get(context)
            if bow is not None:
                weight *= 10.0 ** bow
            context = context[1:]

    for k in range(1, order + 1):
        counts = table.adjusted[k - 1]
        by_context: dict[tuple[str, ...], dict[str, int]] = {}
        for gram, count in counts.items():
            if k == 1 and gram[0] == BOS:
                continue  # begin marker is context-only
            by_context.setdefault(gram[:-1], {})[gram[-1]] = count
        if k == 1:
            # Zero-count vocabulary entries still get interpolation mass.
            followers = by_context.setdefault((), {})
            for token in pred_vocab:
                followers.setdefault(token, 0)
        for context, followers in sorted(by_context.items()):
            denom = sum(followers.values())
            types = sum(1 for c in followers.values() if c > 0)
            if denom == 0 or types == 0:
                raise AssertionError(f"empty context {context} reached the smoother")
            gamma = discount * types / denom
            if len(context) > 0:
                backoff[context] = math.log10(gamma)
            for token, count in sorted(followers.items()):
                # At the unigram level the fallback is the uniform base
                # distribution, never the (partially built) table itself.
                lower = uniform if k == 1 else backed_off_prob(context[1:], token)
                p = max(count - discount, 0.0) / denom + gamma * lower
                prob[context + (token,)] = math.log10(p)

    prob[(BOS,)] = BOS_LOG10
    return NGramModel(
        order=order,
        vocabulary=frozenset(pred_vocab) | {BOS},
        prob_table=prob,
        backoff_table=backoff,
    )


_NGRAM_HEADER_RE = re.compile(r"^ngram (\d+)=(\d+)$")
_SECTION_RE = re.compile(r"^\\(\d+)-grams:$")


def write_arpa(model: NGramModel, sink) -> None:
    """Serialize in standard ARPA layout; floats are written with repr so a
    round-trip reproduces every score bit-for-bit."""
    per_order: list[list[tuple[tuple[str, ...], float]]] = [[] for _ in range(model.order)]
    for gram, logprob in model.prob_table.items():
        per_order[len(gram) - 1].append((gram, logprob))
    for entries in per_order:
        entries.sort(key=lambda item: item[0])
    sink.write("\\data\\\n")
    for k, entries in enumerate(per_order, 1):
        sink.write(f"ngram {k}={len(entries)}\n")
    sink.write("\n")
    for k, entries in enumerate(per_order, 1):
        sink.write(f"\\{k}-grams:\n")
        for gram, logprob in entries:
            line = f"{logprob!r}\t{' '.join(gram)}"
            bow = model.backoff_table.get(gram)
            if bow is not None:
                line += f"\t{bow!r}"
            sink.write(line + "\n")
        sink.write("\n")
    sink.write("\\end\\\n")


def read_arpa(source) -> NGramModel:
    """Parse ARPA text from the file object ``source`` back into a model;
    raises MalformedArpa with a line diagnostic on layout violations, on a
    log10 probability that is NaN, infinite or above 0, and on a backoff
    weight that is not finite."""
    lines = source.read().splitlines()
    it = iter(enumerate(lines, 1))

    def fail(lineno: int, message: str):
        raise MalformedArpa(f"line {lineno}: {message}")

    declared: dict[int, int] = {}
    for lineno, line in it:
        if line.strip() == "\\data\\":
            break
        if line.strip():
            fail(lineno, f"expected \\data\\, got {line!r}")
    else:
        raise MalformedArpa("missing \\data\\ section")
    for lineno, line in it:
        line = line.strip()
        if not line:
            break
        m = _NGRAM_HEADER_RE.match(line)
        if not m:
            fail(lineno, f"bad ngram count line {line!r}")
        declared[int(m.group(1))] = int(m.group(2))
    if not declared or sorted(declared) != list(range(1, max(declared) + 1)):
        raise MalformedArpa(f"incomplete ngram count declarations: {sorted(declared)}")

    order = max(declared)
    prob: dict[tuple[str, ...], float] = {}
    backoff: dict[tuple[str, ...], float] = {}
    seen_per_order = {k: 0 for k in declared}
    current = None
    ended = False
    for lineno, line in it:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped == "\\end\\":
            ended = True
            break
        m = _SECTION_RE.match(stripped)
        if m:
            current = int(m.group(1))
            if current not in declared:
                fail(lineno, f"section \\{current}-grams: was not declared")
            continue
        if current is None:
            fail(lineno, f"entry outside any section: {line!r}")
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            fail(lineno, f"expected 2 or 3 tab-separated fields, got {len(fields)}")
        try:
            logprob = float(fields[0])
        except ValueError:
            fail(lineno, f"bad log probability {fields[0]!r}")
        if not -math.inf < logprob <= 0.0:  # NaN fails too
            fail(lineno, f"log probability {fields[0]!r} is not a finite log10 value <= 0")
        gram = tuple(fields[1].split(" "))
        if len(gram) != current:
            fail(lineno, f"{len(gram)}-gram in \\{current}-grams: section")
        if gram in prob:
            fail(lineno, f"duplicate n-gram {fields[1]!r}")
        prob[gram] = logprob
        seen_per_order[current] += 1
        if len(fields) == 3:
            try:
                backoff[gram] = float(fields[2])
            except ValueError:
                fail(lineno, f"bad backoff weight {fields[2]!r}")
            if not math.isfinite(backoff[gram]):
                fail(lineno, f"backoff weight {fields[2]!r} is not finite")
    if not ended:
        raise MalformedArpa("missing \\end\\ marker")
    for k, expected in declared.items():
        if seen_per_order[k] != expected:
            raise MalformedArpa(
                f"\\{k}-grams: declares {expected} entries but {seen_per_order[k]} were read"
            )
    vocabulary = frozenset(g[0] for g in prob if len(g) == 1)
    return NGramModel(order=order, vocabulary=vocabulary, prob_table=prob, backoff_table=backoff)
