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

import functools
import math
import re
from collections import Counter
from itertools import chain
from typing import Iterable, Sequence

from .corpus import EmptyCorpus

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

BOS_LOG10 = -99.0  # conventional placeholder score for the begin marker

MAX_ORDER = 6

# How far a context's probabilities may sum from 1, as an emission row's may:
# ARPA files print 6-7 significant digits, so real LMs miss 1 by about 1e-6.
MASS_TOLERANCE = 1e-5


class InvalidDiscount(ValueError):
    """Discount must lie strictly inside (0, 1)."""


class MalformedArpa(ValueError):
    """ARPA text violated the expected layout."""


class OutOfVocabulary(ValueError):
    """A token outside the vocabulary, scored by a model that has no ``<unk>``."""


class NotNormalized(ValueError):
    """A context's probabilities do not sum to 1."""


def _count_ngrams(sentences: Sequence[Sequence[str]], order: int) -> list[dict[tuple[str, ...], int]]:
    """The counts the smoothing uses, one dict of k-gram tuples per order k:
    raw occurrence counts over the padded corpus at the top order and for
    ``<s>``-initial n-grams, distinct predecessor counts everywhere else."""
    raw: list[dict[tuple[str, ...], int]] = [{} for _ in range(order)]
    for sentence in sentences:
        padded = [BOS, *sentence, EOS]
        for k in range(1, order + 1):
            counts = raw[k - 1]
            for i in range(len(padded) - k + 1):
                gram = tuple(padded[i:i + k])
                counts[gram] = counts.get(gram, 0) + 1
    adjusted = [{} for _ in range(order - 1)] + [raw[-1]]
    for k in range(order - 2, -1, -1):
        adj = adjusted[k]
        # Distinct-predecessor counts come from presence one order up; the
        # suffix of a (k+2)-gram can never start with <s>.
        for gram in raw[k + 1]:
            suffix = gram[1:]
            adj[suffix] = adj.get(suffix, 0) + 1
        for gram, count in raw[k].items():
            if gram[0] == BOS:
                adj[gram] = count
    return adjusted


class NGramModel:
    """A trained (or ARPA-loaded) backoff model, compiled on construction to
    integer tables; immutable and safe for concurrent scoring.

    The vocabulary is the unigrams' tokens, and every token of an n-gram has
    a unigram. ``word`` numbers the tokens, and states number the contexts
    the tables store: every backoff key and n-gram history shorter than
    ``order``, closed under prefixes, with ``()`` as state 0. ``start`` is
    the state after ``<s>``, so a model of order 2 or more with neither
    ``<s>`` nor ``<unk>`` raises OutOfVocabulary on construction. A state
    keeps its backoff weight and its parent, the longest stored proper
    suffix; ``score_token`` is the one query and gives the next state, and
    no probability it returns from state s exceeds ``bounds[s]``. A
    top-order n-gram's backoff weight weighs on no query and is not kept.
    """

    def __init__(self, order: int, prob_table: dict[tuple[str, ...], float],
                 backoff_table: dict[tuple[str, ...], float]):
        self.order = order
        self._words = words = {token: i for i, token in enumerate(sorted(g[0] for g in prob_table if len(g) == 1))}
        self.vocabulary = words.keys()
        self._num_words = size = len(words)
        contexts = dict.fromkeys([(), *(key for key in backoff_table if len(key) < order)])
        for gram in chain(list(contexts), prob_table):
            prefix = gram[:-1]
            while prefix not in contexts:
                contexts[prefix] = None
                prefix = prefix[:-1]
        # Shorter first (a state's prefix and parent get smaller ids), else in table order.
        ordered = sorted(contexts, key=len)
        ids = {ctx: i for i, ctx in enumerate(ordered)}
        self._backoff = [backoff_table.get(ctx) for ctx in ordered]   # None weighs 0
        self._parent = []
        for ctx in ordered:
            suffix = ctx[1:]
            while suffix not in ids:
                suffix = suffix[1:]
            self._parent.append(ids[suffix])
        self._prob = {ids[gram[:-1]] * size + words[gram[-1]]: p for gram, p in prob_table.items()}
        # Each state, keyed by its prefix state and last word.
        self._next = {ids[ctx[:-1]] * size + words[ctx[-1]]: i for i, ctx in enumerate(ordered) if ctx}
        # The state after <s>, where both searches start; an order-1 model keeps no context.
        self.start = self._next.get(self.word(BOS), 0) if order > 1 else 0

    @functools.cached_property
    def bounds(self) -> list[float]:
        """Per state, at least every probability ``score_token`` gives from it:
        the largest, over the levels of its backoff walk, of the penalty summed as
        ``score_token`` sums it (rounded + is monotone) plus the largest stored there."""
        size, backoff, parent = self._num_words, self._backoff, self._parent
        top = [-math.inf] * len(parent)
        for key, p in self._prob.items():
            if p > top[key // size]:
                top[key // size] = p
        bounds = []
        for state in range(len(parent)):
            at, penalty, bound = state, 0.0, top[state]
            while at:
                penalty += backoff[at] or 0.0
                at = parent[at]
                if penalty + top[at] > bound:
                    bound = penalty + top[at]
            bounds.append(bound)
        return bounds

    def check_normalized(self) -> None:
        """NotNormalized naming the first context whose probabilities, over every
        word but ``<s>`` (never predicted), sum to more than MASS_TOLERANCE from 1.

        A state's mass is what it stores, plus 10**bow times what its parent gives
        the words it does not store: the parent's mass less what the parent gives
        the words it does (the backoff identity; Katz 1987). States ascend, so a
        parent's mass is known first: one ``score_token`` query per stored n-gram."""
        size, parent, bos = self._num_words, self._parent, self._words.get(BOS)
        stored, lower = [[] for _ in parent], [[] for _ in parent]
        for key, p in self._prob.items():
            state, word = divmod(key, size)
            if word != bos:
                stored[state].append(10.0 ** p)
                if state:
                    lower[state].append(10.0 ** self.score_token(parent[state], word)[0])
        masses = []
        for state, bow in enumerate(self._backoff):
            mass = math.fsum(stored[state])
            if state:
                bow = bow or 0.0
                mass += (10.0 ** bow if bow < 308 else math.inf) * (masses[parent[state]] - math.fsum(lower[state]))
            if not abs(mass - 1.0) <= MASS_TOLERANCE:   # NaN fails too
                context = self.state_contexts()[state]
                where = f"context {' '.join(context)!r}" if context else "unigrams"
                raise NotNormalized(f"{where}: probabilities sum to {mass!r}, not 1 within {MASS_TOLERANCE}")
            masses.append(mass)

    def word(self, token: str) -> int:
        """The word id of ``token``, or of ``<unk>`` for a token outside the
        vocabulary; a model without ``<unk>`` raises OutOfVocabulary."""
        if (word := self._words.get(token, self._words.get(UNK))) is None:
            raise OutOfVocabulary(f"token {token!r} is not in the LM vocabulary, which has no {UNK}")
        return word

    def score_token(self, state: int, word: int) -> tuple[float, int]:
        """``(log10 P(word | state), the state after word)``.

        The probability is longest-match backoff: from ``state`` through its
        parents, adding each backoff weight passed, to the first that stores
        an n-gram ending in ``word``. The next state is ``state``'s tokens
        plus ``word``, stripped to their longest stored suffix: through the
        parents to the first with a transition on ``word``, else state 0.
        """
        size, prob, follow, backoff, parent = self._num_words, self._prob, self._next, self._backoff, self._parent
        at, penalty = state, 0.0
        while (hit := prob.get(at * size + word)) is None:   # every word has a unigram at state 0
            penalty += backoff[at] or 0.0
            at = parent[at]
        while (following := follow.get(state * size + word)) is None and state:
            state = parent[state]
        return penalty + hit, following or 0

    def state_contexts(self) -> list[tuple[str, ...]]:
        """Each state's tokens, by state id, rebuilt from the transitions."""
        tokens = list(self._words)
        contexts = [()] * len(self._parent)
        for key, state in self._next.items():   # ascending states: a prefix comes first
            prefix, word = divmod(key, self._num_words)
            contexts[state] = contexts[prefix] + (tokens[word],)
        return contexts

    @property
    def prob_table(self) -> dict[tuple[str, ...], float]:
        """The stored n-gram log10 probabilities, rebuilt on each access."""
        contexts, tokens = self.state_contexts(), list(self._words)
        return {contexts[key // self._num_words] + (tokens[key % self._num_words],): p
                for key, p in self._prob.items()}

    @property
    def backoff_table(self) -> dict[tuple[str, ...], float]:
        """The stored backoff weights, rebuilt on each access."""
        return {ctx: bow for ctx, bow in zip(self.state_contexts(), self._backoff) if bow is not None}


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
        vocab = {t for t, c in Counter(chain.from_iterable(corpus)).items() if c >= min_count}
    mapped = [[t if t in vocab else UNK for t in sentence] for sentence in corpus]

    pred_vocab = sorted(vocab | {EOS, UNK})
    uniform = 1.0 / len(pred_vocab)

    adjusted = _count_ngrams(mapped, order)
    prob: dict[tuple[str, ...], float] = {}
    backoff: dict[tuple[str, ...], float] = {}

    for k in range(1, order + 1):
        counts = adjusted[k - 1]
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
                # At k >= 2, (context, token) was counted as a k-gram, so its suffix
                # was counted at order k-1 and its probability stored one pass earlier.
                lower = uniform if k == 1 else 10.0 ** prob[context[1:] + (token,)]
                p = max(count - discount, 0.0) / denom + gamma * lower
                prob[context + (token,)] = math.log10(p)

    prob[(BOS,)] = BOS_LOG10
    return NGramModel(order, prob, backoff)


_NGRAM_HEADER_RE = re.compile(r"^ngram (\d+)=(\d+)$")
_SECTION_RE = re.compile(r"^\\(\d+)-grams:$")


def write_arpa(model: NGramModel, sink) -> list[int]:
    """Serialize in standard ARPA layout; floats are written with repr so a
    round-trip reproduces every score bit-for-bit. Returns the n-gram count
    of each order, unigrams first."""
    per_order: list[list[tuple[tuple[str, ...], float]]] = [[] for _ in range(model.order)]
    backoff = model.backoff_table
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
            bow = backoff.get(gram)
            if bow is not None:
                line += f"\t{bow!r}"
            sink.write(line + "\n")
        sink.write("\n")
    sink.write("\\end\\\n")
    return [len(entries) for entries in per_order]


def read_arpa(source) -> NGramModel:
    """Parse ARPA text from the file object ``source`` back into a model;
    raises MalformedArpa naming a line (past the last for a missing part) on
    layout violations, on a log10 probability that is NaN, infinite or above
    0, on a backoff weight that is not finite, and on an n-gram token with
    no unigram. A count mismatch names the section header or count line."""
    lines = source.read().splitlines()
    it = iter(enumerate(lines, 1))

    def fail(lineno: int, message: str):
        raise MalformedArpa(f"line {lineno}: {message}")

    declared: dict[int, int] = {}
    where: dict[int, int] = {}   # each order's count line, then its section header line
    for lineno, line in it:
        if line.strip() == "\\data\\":
            break
        if line.strip():
            fail(lineno, f"expected \\data\\, got {line!r}")
    else:
        fail(len(lines) + 1, "missing \\data\\ section")
    for lineno, line in it:
        line = line.strip()
        if not line:
            break
        m = _NGRAM_HEADER_RE.match(line)
        if not m:
            fail(lineno, f"bad ngram count line {line!r}")
        declared[int(m.group(1))] = int(m.group(2))
        where[int(m.group(1))] = lineno
    if not declared or sorted(declared) != list(range(1, max(declared) + 1)):
        fail(lineno, f"incomplete ngram count declarations: {sorted(declared)}")

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
            where[current] = lineno
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
        fail(len(lines) + 1, "missing \\end\\ marker")
    for k, expected in declared.items():
        if seen_per_order[k] != expected:
            fail(where[k], f"\\{k}-grams: declares {expected} entries but {seen_per_order[k]} were read")
    vocabulary = {g[0] for g in prob if len(g) == 1}
    for gram in prob:
        for token in gram:
            if token not in vocabulary:
                text = " ".join(gram)
                lineno = next(n for n, line in enumerate(lines, 1) if line.split("\t")[1:2] == [text])
                fail(lineno, f"n-gram {text!r} has token {token!r}, which has no unigram")
    return NGramModel(order, prob, backoff)
