import io
import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pinasr import assets
from pinasr.ngram_lm import UNK, NGramModel, OutOfVocabulary, read_arpa, train
from pinasr.pinyin import PronunciationLexicon
from pinasr.transcriber import (
    HomophoneLattice,
    NoCandidate,
    beam_transcribe,
    build_lattice_lenient,
)
from reference_impls import (
    enumerate_lattice_best,
    lattice_path_score,
    raw_state_beam_transcribe,
    reference_score,
)
from test_ngram_lm import BIGRAM_ARPA, LM_MODELS, outcome

ALPHABET = list("ABCDEFGHIJ")


def random_lattice(rng, max_positions=8, max_candidates=10, path_budget=20000):
    while True:
        n = int(rng.integers(1, max_positions + 1))
        sizes = [int(rng.integers(1, max_candidates + 1)) for _ in range(n)]
        budget = 1
        for s in sizes:
            budget *= s
        if budget <= path_budget:
            break
    positions = []
    for size in sizes:
        chars = rng.choice(ALPHABET, size=size, replace=False)
        positions.append(
            tuple(sorted((str(c), float(np.log10(rng.uniform(0.05, 1.0)))) for c in chars))
        )
    return HomophoneLattice(units=tuple(f"u{i}" for i in range(n)), positions=tuple(positions))


def random_lm(rng, order):
    sentences = [
        [str(c) for c in rng.choice(ALPHABET, size=int(rng.integers(1, 6)))]
        for _ in range(int(rng.integers(3, 12)))
    ]
    return train(sentences, order=order, discount=0.55, vocabulary=ALPHABET)


@pytest.fixture(scope="module")
def lexicon():
    return assets.default_lexicon()


def test_build_lattice_single_and_missing(lexicon):
    lattice = build_lattice_lenient(["zhong1", "guo2"], lexicon, tonal=True)
    assert len(lattice.positions) == 2
    assert all(lattice.positions)
    lattice.check_exact()
    with pytest.raises(NoCandidate) as err:
        build_lattice_lenient(["zhong1", "zhong2"], lexicon, tonal=True).check_exact()  # no char reads zhong2
    assert err.value.position == 1


def test_toneless_candidates_are_supersets(lexicon):
    tonal = build_lattice_lenient(["zhong1", "shi4"], lexicon, tonal=True)
    toneless = build_lattice_lenient(["zhong", "shi"], lexicon, tonal=False)
    tonal.check_exact()
    toneless.check_exact()
    for pos_t, pos_tl in zip(tonal.positions, toneless.positions):
        assert {c for c, _ in pos_t} <= {c for c, _ in pos_tl}


def test_forced_path_when_single_candidates():
    lm = train([["X"]], order=1, discount=0.5, vocabulary=["X", "Y"])
    lattice = HomophoneLattice(
        units=("u0", "u1"),
        positions=((("X", math.log10(0.5)),), (("Y", math.log10(0.25)),)),
    )
    result = beam_transcribe(lattice, lm, channel_weight=2.0, beam_width=None)
    assert result.hanzi == "XY"
    want = (
        reference_score(lm, ["<s>"], "X") + 2.0 * math.log10(0.5)
        + reference_score(lm, ["X"], "Y") + 2.0 * math.log10(0.25)
        + reference_score(lm, ["Y"], "</s>")
    )
    assert result.total_score == pytest.approx(want, abs=1e-12)


def test_bigram_preference_on_toy_lm():
    # Hand-built 4-entry toy: the LM likes the pair (P, Q) ten times more
    # than (P, R); channel weights are equal, so the decoder must pick Q.
    prob = {
        ("P",): math.log10(0.2),
        ("Q",): math.log10(0.2),
        ("R",): math.log10(0.2),
        ("</s>",): math.log10(0.2),
        ("<unk>",): math.log10(0.2),
        ("P", "Q"): math.log10(0.5),
        ("P", "R"): math.log10(0.05),
    }
    lm = NGramModel(order=2, prob_table=prob, backoff_table={})
    lattice = HomophoneLattice(
        units=("u0", "u1"),
        positions=((("P", -0.1),), (("Q", -0.3), ("R", -0.3))),
    )
    assert beam_transcribe(lattice, lm, beam_width=None).hanzi == "PQ"


def test_viterbi_equals_enumeration_seeded():
    rng = np.random.default_rng(21)
    for trial in range(60):
        lm = random_lm(rng, order=int(rng.integers(1, 4)))
        lattice = random_lattice(rng)
        weight = float(rng.uniform(0.2, 2.0))
        got = beam_transcribe(lattice, lm, weight, beam_width=None)
        want_chars, want_score = enumerate_lattice_best(lattice, lm, weight)
        assert got.hanzi == "".join(want_chars), trial
        assert got.total_score == pytest.approx(want_score, abs=1e-9)
        assert len(got.hanzi) == len(lattice.positions)


def test_exhaustive_beam_equals_viterbi():
    rng = np.random.default_rng(22)
    for _ in range(25):
        lm = random_lm(rng, order=2)
        lattice = random_lattice(rng, max_positions=6, max_candidates=6)
        exact = beam_transcribe(lattice, lm, 1.0, beam_width=None)
        wide = beam_transcribe(lattice, lm, 1.0, beam_width=10**6)
        assert wide.hanzi == exact.hanzi
        assert wide.total_score == pytest.approx(exact.total_score, abs=1e-12)


@st.composite
def models_and_lattices(draw):
    """A test model and a lattice over its tokens and two characters no
    model knows ("y", "z"; ``<unk>`` in the model is written "z"). One path
    spells a stored n-gram, at no channel cost, so the search meets the
    model's stored contexts and the prefixes between them."""
    model = draw(LM_MODELS)
    stems = sorted(g for g in chain(model.prob_table, model.backoff_table)
                   if len(g) > 1 and set(g) <= {"a", "b", "c", UNK})
    stem = ["z" if t == UNK else t for t in draw(st.sampled_from(stems))] if stems else []
    lead = draw(st.lists(st.sampled_from("abcyz"), max_size=2))
    tail = draw(st.lists(st.sampled_from("abcyz"), max_size=1))
    positions = []
    for char in (*lead, *stem, *tail) or "a":
        others = draw(st.lists(st.sampled_from("abcyz"), max_size=3, unique=True))
        weights = {c: draw(st.floats(-2.0, 0.0)) for c in others if c != char}
        positions.append(tuple(sorted({char: 0.0, **weights}.items())))
    lattice = HomophoneLattice(units=tuple(f"u{i}" for i in range(len(positions))), positions=tuple(positions))
    return model, lattice


# Both characters reach state 0, where the minimized search keeps b, since
# 0.0 > -3.87e-186. The end's -1.0 absorbs that difference, so the raw-state
# search meets a tie at -1.0 and returns a by label order.
ABSORBED_TIE = (
    NGramModel(2, {("a",): -3.87e-186, ("b",): 0.0, ("c",): 0.0, ("<s>",): 0.0, ("</s>",): -1.0}, {}),
    HomophoneLattice(units=("u0",), positions=((("a", 0.0), ("b", 0.0)),)),
)


@given(models_and_lattices(), st.floats(0.2, 2.0))
@example(ABSORBED_TIE, 1.0)
@settings(max_examples=200, deadline=None)
def test_minimized_state_search_equals_raw_state_search(model_and_lattice, weight):
    # Paths the LM cannot tell apart share one state, so the exact search
    # finds the raw-state search's best score. The Hanzi may differ: two
    # pasts that meet in one state can differ by less than a later rounded +
    # keeps, and then only the raw-state search sees a tie (ABSORBED_TIE).
    # So the returned Hanzi, scored left to right, must give that score.
    model, lattice = model_and_lattice
    got = outcome(lambda: beam_transcribe(lattice, model, weight, beam_width=None))
    want = outcome(lambda: raw_state_beam_transcribe(lattice, model, weight)[0])
    if OutOfVocabulary in (got, want):
        assert got == want
        return
    assert got.total_score == want.total_score
    assert lattice_path_score(lattice, model, weight, tuple(got.hanzi)) == got.total_score


def test_unknown_character_without_unk_raises():
    # The minimized state maps characters as score_token does, so a model
    # without <unk> still refuses a character outside its vocabulary.
    text = BIGRAM_ARPA.replace("-0.4\t<unk>\n", "").replace("ngram 1=4", "ngram 1=3")
    model = read_arpa(io.StringIO(text))
    lattice = HomophoneLattice(units=("u0", "u1"), positions=((("a", 0.0),), (("a", 0.0), ("zz", 0.0))))
    with pytest.raises(OutOfVocabulary, match="'zz'"):
        beam_transcribe(lattice, model, 1.0, beam_width=None)
    with pytest.raises(OutOfVocabulary, match="'zz'"):
        raw_state_beam_transcribe(lattice, model, 1.0)


def test_beam_width_one_is_greedy_chain():
    rng = np.random.default_rng(23)
    lm = random_lm(rng, order=2)
    lattice = random_lattice(rng, max_positions=5, max_candidates=4)
    result = beam_transcribe(lattice, lm, 1.0, beam_width=1)
    # greedy chain: extend the single surviving context per position
    context, chars, score = ("<s>",), [], 0.0
    for candidates in lattice.positions:
        best = max(
            candidates,
            key=lambda cw: (reference_score(lm, context, cw[0]) + cw[1], [-ord(x) for x in cw[0]]),
        )
        score += reference_score(lm, context, best[0]) + best[1]
        context = (context + (best[0],))[-1:]
        chars.append(best[0])
    assert result.hanzi == "".join(chars)


def test_beam_width_zero_is_rejected():
    rng = np.random.default_rng(24)
    lm = random_lm(rng, order=2)
    lattice = random_lattice(rng, max_positions=4, max_candidates=4)
    with pytest.raises(ValueError):
        beam_transcribe(lattice, lm, 1.0, beam_width=0)


def test_lenient_lattice_falls_back(lexicon):
    # zhong2 matches no character tonally; lenient mode degrades to the
    # toneless candidate set instead of failing.
    strict_fail = ["zhong1", "zhong2"]
    lattice = build_lattice_lenient(strict_fail, lexicon, tonal=True)
    assert len(lattice.positions) == 2
    assert lattice.fallbacks == (1,)
    toneless = {c for c, _ in lexicon.homophones("zhong", tonal=False)}
    assert {c for c, _ in lattice.positions[1]} == toneless


def test_lenient_lattice_last_resort(lexicon):
    # A segment with no lexicon characters at all still yields a candidate.
    lattice = build_lattice_lenient(["zhuai1"], lexicon, tonal=True)
    assert len(lattice.positions[0]) == 1
    assert lattice.fallbacks == (0,)


@pytest.mark.parametrize("tonal", [True, False], ids=["tonal", "toneless"])
def test_fallbacks_are_the_units_without_homophones(lexicon, tonal):
    # Strict transcription refuses exactly the positions the lattice falls back on.
    inventory = assets.default_inventory()
    units = sorted(inventory.tonal_units if tonal else inventory.toneless_units) + ["", "x9"]
    lattice = build_lattice_lenient(units, lexicon, tonal=tonal)
    assert len(lattice.positions) == len(units)
    want = tuple(i for i, unit in enumerate(units) if not lexicon.homophones(unit, tonal=tonal))
    assert want and lattice.fallbacks == want
    with pytest.raises(NoCandidate) as err:
        lattice.check_exact()
    assert (err.value.unit, err.value.position) == (units[want[0]], want[0])


def test_empty_lexicon_has_no_fallback():
    empty = PronunciationLexicon({})
    with pytest.raises(NoCandidate, match="'zhong1' at position 0"):
        build_lattice_lenient(["zhong1"], empty, tonal=True)
