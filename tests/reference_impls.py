"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the definitions, not the
library code: different data structures, different recursion shapes. When
a library path and its oracle agree, each vouches for the other.
"""

from functools import lru_cache
from itertools import product

from pinasr.pinyin import split_segment


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
        units = [str(s) if tonal else s.segment for s in pinyin]
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
    parts = {}
    for label in alphabet:
        tone = label[-1] if label[-1].isdigit() else ""
        parts[label] = (*split_segment(label[:-1] if tone else label), tone)

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
            score += model.score_token(ctx, char) + channel_weight * weight
            if model.order > 1:
                ctx = (ctx + (char,))[-(model.order - 1):]
        score += model.score_token(ctx, "</s>")
        if best_score is None or score > best_score or (score == best_score and chars < best_chars):
            best_score, best_chars = score, chars
    return best_chars, best_score


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
