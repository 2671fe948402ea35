"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the definitions, not the
library code: different data structures, different recursion shapes. When
a library path and its oracle agree, each vouches for the other.
"""

import heapq
import math
import weakref
from functools import lru_cache
from itertools import product

import numpy as np
from hypothesis import strategies as st

from pinasr.ctc import (
    NEG_INF,
    DecoderConfig,
    EmissionMatrix,
    VocabularyMismatch,
    log10addexp,
)
from pinasr.corpus import EmptyCorpus
from pinasr.ngram_lm import BOS, BOS_LOG10, EOS, UNK, NGramModel, OutOfVocabulary
from pinasr.pinyin import InvalidSyllable, split_unit
from pinasr.simulate import _BLANK_LEAK, _CONFUSION_LEAK, _JITTER, confusion_map
from pinasr.transcriber import TranscriptionResult


def dense_emissions(log_probs, unit_labels, blank_index) -> EmissionMatrix:
    """An ``EmissionMatrix`` from a dense T x (V+1) grid of log10
    probabilities. Every entry that is not -inf is listed, NaN and +inf
    included, so the matrix's own checks see them."""
    grid = np.asarray(log_probs, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError(f"need a T x (V+1) matrix, got shape {grid.shape}")
    if grid.shape[1] != len(unit_labels) + 1:
        raise ValueError(f"{len(unit_labels)} unit labels require {len(unit_labels) + 1} columns, got {grid.shape[1]}")
    frames = [[(c, row[c]) for c in range(len(row)) if row[c] != NEG_INF] for row in grid.tolist()]
    return EmissionMatrix(frames, unit_labels, blank_index)


def recursive_edit_distance(ref, hyp) -> int:
    """Plain memoized Levenshtein recursion (distance only)."""
    ref, hyp = tuple(ref), tuple(hyp)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        sub = go(i - 1, j - 1) + (0 if ref[i - 1] == hyp[j - 1] else 1)
        return min(sub, go(i, j - 1) + 1, go(i - 1, j) + 1)

    return go(len(ref), len(hyp))


def naive_mapping_recount(pairs, n, tonal):
    """Brute-force ambiguity stats: collect every (pinyin n-gram, hanzi
    n-gram) occurrence, then aggregate per key with list scans."""
    occurrences = []
    for hanzi, pinyin in pairs:
        units = [unit if tonal else "".join(split_unit(unit)[:2]) for unit in pinyin]
        for i in range(0, len(hanzi) - n + 1):
            occurrences.append((" ".join(units[i:i + n]), hanzi[i:i + n]))
    keys = sorted({key for key, _ in occurrences})
    sizes = []
    for key in keys:
        realized = sorted({h for k, h in occurrences if k == key})
        sizes.append(len(realized))
    assert sizes, "no windows"
    return {
        "num_keys": len(sizes),
        "average": sum(sizes) / len(sizes),
        "maximum": max(sizes),
        "pct_unique": 100.0 * sizes.count(1) / len(sizes),
    }


def all_pairs_confusion_map(alphabet, policy):
    """Confusable units by comparing every pair of labels: unit label ->
    ascending alphabet indexes of the units it may be confused with."""
    parts = {label: split_unit(label) for label in alphabet}

    out = {}
    for label in alphabet:
        initial, final, tone = parts[label]
        confusable = []
        for i, other in enumerate(alphabet):
            o_initial, o_final, o_tone = parts[other]
            if other == label:
                continue
            if (
                policy == "uniform"
                or (policy == "tone-neighbor" and tone and (o_initial, o_final) == (initial, final))
                or (policy == "final-neighbor" and (o_final, o_tone) == (final, tone) and o_initial != initial)
            ):
                confusable.append(i)
        out[label] = tuple(confusable)
    return out


def enumerate_ctc_distribution(emissions):
    """All (V+1)^T alignment paths, grouped by their collapsed sequence.

    Returns {label tuple: linear probability}; values sum to 1.
    """
    probs = [[10.0 ** v for v in row] for row in emissions.log_probs.tolist()]
    T = emissions.num_frames
    blank = emissions.blank_index
    out = {}
    for path in product(range(emissions.num_units + 1), repeat=T):
        p = 1.0
        for t, c in enumerate(path):
            p *= probs[t][c]
        if p == 0.0:
            continue
        collapsed = []
        previous = None
        for c in path:
            if c != previous and c != blank:
                collapsed.append(c)
            previous = c
        key = tuple(emissions.unit_labels[c if c < blank else c - 1] for c in collapsed)
        out[key] = out.get(key, 0.0) + p
    return out


# Each model's string tables, rebuilt once from its compiled form.
_STRING_TABLES = weakref.WeakKeyDictionary()


def map_token(model: NGramModel, token: str) -> str:
    """``token`` if in the vocabulary, else ``<unk>``; a model without
    ``<unk>`` raises OutOfVocabulary naming the token."""
    if token in model.vocabulary:
        return token
    if UNK in model.vocabulary:
        return UNK
    raise OutOfVocabulary(f"token {token!r} is not in the LM vocabulary, which has no {UNK}")


def reference_score(model: NGramModel, context, token: str) -> float:
    """log10 P(token | context) by longest-match backoff over string
    tuples, as the library scored before it compiled its models to integer
    states. Context longer than order-1 is truncated to its most recent
    tokens; tokens in either position are mapped by ``map_token``."""
    if model not in _STRING_TABLES:
        _STRING_TABLES[model] = (model.prob_table, model.backoff_table)
    prob, backoff = _STRING_TABLES[model]
    word = map_token(model, token)
    ctx = tuple(map_token(model, t) for t in context[max(0, len(context) - model.order + 1):])
    penalty = 0.0
    while True:
        hit = prob.get(ctx + (word,))
        if hit is not None:
            return penalty + hit
        if not ctx:
            return penalty + BOS_LOG10
        penalty += backoff.get(ctx, 0.0)
        ctx = ctx[1:]


def enumerate_lattice_best(lattice, model, channel_weight):
    """Exhaustive path enumeration over a homophone lattice, scored with
    begin/end markers exactly as the decoder defines the objective."""
    best_score, best_chars = None, None
    for combo in product(*[range(len(p)) for p in lattice.positions]):
        chars = tuple(lattice.positions[i][j][0] for i, j in enumerate(combo))
        score = 0.0
        ctx = ("<s>",) if model.order > 1 else ()
        for i, j in enumerate(combo):
            char, weight = lattice.positions[i][j]
            score += reference_score(model, ctx, char) + channel_weight * weight
            if model.order > 1:
                ctx = (ctx + (char,))[-(model.order - 1):]
        score += reference_score(model, ctx, "</s>")
        if best_score is None or score > best_score or (score == best_score and chars < best_chars):
            best_score, best_chars = score, chars
    return best_chars, best_score


def raw_state_beam_transcribe(lattice, char_lm, channel_weight=1.0):
    """The exact transcriber search keyed by the raw last order-1
    characters instead of the minimized LM state: the same DP, more
    states, none pruned."""
    ctx_len = char_lm.order - 1
    # state -> (score, prefix)
    initial = (BOS,) if ctx_len else ()
    states = {initial: (0.0, ())}
    for candidates in lattice.positions:
        new_states = {}
        for ctx, (score, prefix) in states.items():
            for char, weight in candidates:
                gained = reference_score(char_lm, ctx, char) + channel_weight * weight
                entry = (score + gained, prefix + (char,))
                new_ctx = (ctx + (char,))[-ctx_len:] if ctx_len else ()
                held = new_states.get(new_ctx)
                if held is None or entry[0] > held[0] or (entry[0] == held[0] and entry[1] < held[1]):
                    new_states[new_ctx] = entry
        states = new_states
    finals = [(score + reference_score(char_lm, ctx, EOS), prefix) for ctx, (score, prefix) in states.items()]
    finals.sort(key=lambda item: (-item[0], item[1]))
    return [TranscriptionResult(hanzi="".join(prefix), total_score=score) for score, prefix in finals]


def parse_arpa_text(text):
    """Minimal standalone ARPA parser: {gram tuple: (logprob, bow|None)}."""
    entries = {}
    section = None
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped in ("\\data\\", "\\end\\") or stripped.startswith("ngram "):
            continue
        if stripped.endswith("-grams:"):
            section = int(stripped[1:].split("-")[0])
            continue
        fields = line.split("\t")
        gram = tuple(fields[1].split(" "))
        assert len(gram) == section
        entries[gram] = (float(fields[0]), float(fields[2]) if len(fields) == 3 else None)
    return entries


def arpa_score(entries, order, context, token):
    """Textbook backoff recursion straight off the ARPA tables."""
    context = tuple(context)[max(0, len(context) - order + 1):]
    hit = entries.get(context + (token,))
    if hit is not None:
        return hit[0]
    if not context:
        raise KeyError(token)
    held = entries.get(context)
    bow = held[1] if held is not None and held[1] is not None else 0.0
    return bow + arpa_score(entries, order, context[1:], token)


def arpa_perplexity(text, order, corpus):
    entries = parse_arpa_text(text)
    total, denom = 0.0, 0
    for sentence in corpus:
        context = ("<s>",)
        for token in sentence + ["</s>"]:
            mapped = token if (token,) in entries else "<unk>"
            total += arpa_score(entries, order, context, mapped)
            context = context + (mapped,)
        denom += len(sentence) + 1
    return 10.0 ** (-total / denom)


class InfeasibleLength(ValueError):
    """The label sequence cannot be emitted in the given number of frames."""


def min_frames_required(labels) -> int:
    """Frames a label sequence needs: one per label plus a blank between
    adjacent repeats."""
    repeats = sum(1 for i in range(1, len(labels)) if labels[i] == labels[i - 1])
    return len(labels) + repeats


def sequence_logprob(emissions: EmissionMatrix, labels) -> float:
    """log10 of the total probability mass of alignments collapsing to
    ``labels`` (the CTC forward algorithm)."""
    label_to_unit = {u: i for i, u in enumerate(emissions.unit_labels)}
    try:
        units = [label_to_unit[lab] for lab in labels]
    except KeyError as exc:
        raise VocabularyMismatch(f"label {exc.args[0]!r} is not an emission unit") from None
    T = emissions.num_frames
    if min_frames_required(units) > T:
        raise InfeasibleLength(f"{len(units)} labels need {min_frames_required(units)} frames, have {T}")

    blank = emissions.blank_index
    # Expanded state sequence: blank, l1, blank, l2, ..., blank.
    expanded = [blank]
    for u in units:
        expanded.append(u if u < blank else u + 1)  # the unit's class column
        expanded.append(blank)
    S = len(expanded)
    rows = emissions.log_probs.tolist()

    alpha = [NEG_INF] * S
    alpha[0] = rows[0][expanded[0]]
    if S > 1:
        alpha[1] = rows[0][expanded[1]]
    for t in range(1, T):
        row = rows[t]
        new = [NEG_INF] * S
        for s in range(S):
            best = alpha[s]
            if s >= 1:
                best = log10addexp(best, alpha[s - 1])
            # Skip a blank only between distinct labels.
            if s >= 2 and expanded[s] != blank and expanded[s] != expanded[s - 2]:
                best = log10addexp(best, alpha[s - 2])
            if best != NEG_INF:
                new[s] = best + row[expanded[s]]
        alpha = new
    total = alpha[S - 1]
    if S > 1:
        total = log10addexp(total, alpha[S - 2])
    return total


class InstanceTooLarge(ValueError):
    """Brute-force enumeration guard: the instance exceeds desk scale."""


def brute_force_decode(
    emissions: EmissionMatrix,
    lm: NGramModel | None = None,
    lm_weight: float = 0.5,
    insertion_bonus: float = 0.0,
) -> tuple[tuple[str, ...], float]:
    """Exact argmax of the fused score over every feasible label sequence.

    Test oracle only: enumerates all sequences up to length T, so the
    instance must satisfy T <= 8 and V <= 5.
    """
    T, V = emissions.num_frames, emissions.num_units
    if T > 8 or V > 5:
        raise InstanceTooLarge(f"T={T}, V={V} exceeds the T<=8, V<=5 oracle guard")
    alpha = lm_weight if lm is not None else 0.0
    beta = insertion_bonus

    best_labels: tuple[str, ...] | None = None
    best_score = NEG_INF
    for length in range(0, T + 1):
        for combo in product(range(V), repeat=length):
            if min_frames_required(combo) > T:
                continue
            labels = tuple(emissions.unit_labels[u] for u in combo)
            score = sequence_logprob(emissions, labels)
            if alpha != 0.0:
                score += alpha * score_sequence(lm, labels, include_eos=False)
            score += beta * length
            if best_labels is None or score > best_score or (score == best_score and labels < best_labels):
                best_labels = labels
                best_score = score
    assert best_labels is not None
    return best_labels, best_score


def parse_toneless(text, inventory):
    """Validate a toneless unit like ``zhong``; returns the canonical string."""
    if not text or not text.isascii():
        raise InvalidSyllable(f"not an ASCII pinyin unit: {text!r}")
    text = text.lower()
    if text[-1].isdigit():
        raise InvalidSyllable(f"tone digit present in toneless unit {text!r}")
    if text not in inventory.toneless_units:
        raise InvalidSyllable(f"not in inventory ({inventory.version}): {text!r}")
    return text


def closure_prefix_beam_search(emissions, lm, config=DecoderConfig()):
    """Prefix beam search as the library wrote it before its one-pass frame
    step: every mass goes through a ``bump`` closure and ``log10addexp``,
    the LM bookkeeping runs with or without an LM, and the ranking key
    recomputes each candidate's fused score, and every child is built.
    Same contract and output as ``pinasr.ctc.prefix_beam_search``, which must
    match it exactly, except that a frame with no class above the threshold
    empties the beam here (the result is ``[]``) where the library raises."""
    if lm is not None:
        missing = [u for u in emissions.unit_labels if u not in lm.vocabulary]
        if missing:
            raise VocabularyMismatch(f"units absent from LM vocabulary: {missing[:5]}")

    alpha = config.lm_weight if lm is not None else 0.0
    beta = config.insertion_bonus
    order = lm.order if lm is not None else 1

    by_label = sorted(range(emissions.num_units), key=emissions.unit_labels.__getitem__)
    labels = [emissions.unit_labels[u] for u in by_label]
    unit_number = np.empty(emissions.num_units, dtype=np.int64)
    unit_number[by_label] = np.arange(emissions.num_units)
    unit_of_class = np.insert(unit_number, emissions.blank_index, -1).tolist()
    frames = []
    for row in emissions.log_probs:
        classes = np.nonzero(row > config.prune_threshold)[0].tolist()
        frames.append([(unit_of_class[c], float(row[c])) for c in classes])

    beam = {(): [0.0, NEG_INF]}
    lm_cache = {(): (0.0, (BOS,))}

    def fused(prefix, masses):
        total = log10addexp(masses[0], masses[1])
        return total + alpha * lm_cache[prefix][0] + beta * len(prefix)

    def rank_key(item):
        return -fused(*item), item[0]

    def extend_meta(prefix, unit):
        child = prefix + (unit,)
        if child in lm_cache:
            return
        cum, ctx = lm_cache[prefix]
        token = labels[unit]
        if lm is not None:
            cum = cum + reference_score(lm, ctx, token)
            ctx = (ctx + (token,))[-(order - 1):] if order > 1 else ()
        lm_cache[child] = (cum, ctx)

    for active in frames:
        next_beam = {}

        def bump(prefix, slot, value):
            masses = next_beam.get(prefix)
            if masses is None:
                masses = [NEG_INF, NEG_INF]
                next_beam[prefix] = masses
            masses[slot] = log10addexp(masses[slot], value)

        for prefix, (p_b, p_nb) in beam.items():
            total = log10addexp(p_b, p_nb)
            last = prefix[-1] if prefix else None
            for unit, score in active:
                if unit < 0:
                    bump(prefix, 0, total + score)
                elif unit == last:
                    bump(prefix, 1, p_nb + score)
                    if p_b != NEG_INF:
                        extend_meta(prefix, unit)
                        bump(prefix + (unit,), 1, p_b + score)
                else:
                    extend_meta(prefix, unit)
                    bump(prefix + (unit,), 1, total + score)

        beam = dict(heapq.nsmallest(config.beam_width, next_beam.items(), key=rank_key))

    return [(tuple(labels[u] for u in prefix), fused(prefix, masses)) for prefix, masses in beam.items()]


def scalar_draw_synth_emissions(pinyin, alphabet, config):
    """Emission synthesis as the library wrote it before it drew each
    frame's jitter in one vector call: one scalar ``rng.uniform`` per
    neighbour, blank and release leak, in that order. Same contract and
    output as ``pinasr.simulate.synth_emissions``, which must match it
    exactly."""
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

    def jitter():
        return float(rng.uniform(*_JITTER))

    rows = []

    def unit_frame(unit_index, label):
        weights = np.zeros(V + 1)
        weights[unit_index] = 1.0
        if tau > 0:
            confusable = neighbors[label]
            if confusable:
                share = tau * _CONFUSION_LEAK / len(confusable)
                for c in confusable:
                    weights[c] = share * jitter()
            weights[blank] = tau * _BLANK_LEAK * jitter()
        rows.append(weights / weights.sum())

    def release_frame(prev_index, next_index):
        weights = np.zeros(V + 1)
        weights[blank] = config.blank_fill
        if tau > 0:
            leak = tau * (1.0 - config.blank_fill) * 0.5
            weights[prev_index] += leak * jitter()
            if next_index is not None:
                weights[next_index] += leak * jitter()
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

    log_probs = [[math.log10(p) if p else NEG_INF for p in row.tolist()] for row in rows]
    return dense_emissions(log_probs, unit_labels=alphabet, blank_index=blank)


# Helpers only the tests use.


def prediction_vocabulary(model: NGramModel) -> frozenset[str]:
    """The tokens the model predicts: its vocabulary without the begin marker."""
    return model.vocabulary - {BOS}


def score_sequence(model: NGramModel, tokens, include_eos: bool = True) -> float:
    """Sum of token scores with begin padding, optionally ending in </s>."""
    context = (BOS,)
    total = 0.0
    for token in tokens:
        total += reference_score(model, context, token)
        context = (context + (map_token(model, token),))[-(model.order - 1):] if model.order > 1 else ()
    if include_eos:
        total += reference_score(model, context, EOS)
    return total


def perplexity(model: NGramModel, corpus) -> float:
    """10^(-average log10 prob per token); end markers count toward the
    denominator, begin markers do not."""
    if not corpus:
        raise EmptyCorpus("perplexity of an empty corpus")
    total = 0.0
    denom = 0
    for sentence in corpus:
        total += score_sequence(model, sentence, include_eos=True)
        denom += len(sentence) + 1
    return 10.0 ** (-total / denom)


def write_parallel_tsv(corpus, sink) -> None:
    """Write ``hanzi<TAB>space-joined-pinyin`` lines."""
    for hanzi, pinyin in corpus.pairs:
        sink.write(hanzi + "\t" + " ".join(pinyin) + "\n")


def garbled_text(lines: list[str]):
    """Strategy for reader tests: arbitrary text, or the valid file ``lines``
    with up to four lines inserted, deleted, replaced (by arbitrary text or
    another of its lines) or spliced with arbitrary text."""
    fresh = st.one_of(st.sampled_from(lines), st.text(max_size=12))

    @st.composite
    def garble(draw):
        out = list(lines)
        for _ in range(draw(st.integers(0, 4))):
            i = draw(st.integers(0, len(out)))
            op = draw(st.sampled_from(("insert", "delete", "replace", "splice")))
            if op == "insert" or i == len(out):
                out.insert(i, draw(fresh))
            elif op == "delete":
                del out[i]
            elif op == "replace":
                out[i] = draw(fresh)
            else:
                at = draw(st.integers(0, len(out[i])))
                out[i] = out[i][:at] + draw(st.text(max_size=4)) + out[i][at + draw(st.integers(0, 3)):]
        return "\n".join(out)

    return st.one_of(st.text(max_size=60), garble())

