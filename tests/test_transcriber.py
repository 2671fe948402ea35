import math

import numpy as np
import pytest

from pinasr import assets
from pinasr.ngram_lm import NGramModel, train
from pinasr.pinyin import PronunciationLexicon
from pinasr.transcriber import (
    HomophoneLattice,
    NoCandidate,
    beam_transcribe,
    build_lattice_lenient,
)
from reference_impls import enumerate_lattice_best

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
    assert len(lattice) == 2
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
    result = beam_transcribe(lattice, lm, channel_weight=2.0, beam_width=None)[0]
    assert result.hanzi == "XY"
    want = (
        lm.score_token(["<s>"], "X") + 2.0 * math.log10(0.5)
        + lm.score_token(["X"], "Y") + 2.0 * math.log10(0.25)
        + lm.score_token(["Y"], "</s>")
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
    lm = NGramModel(order=2, vocabulary=frozenset("PQR") | {"</s>", "<unk>", "<s>"},
                    prob_table=prob, backoff_table={})
    lattice = HomophoneLattice(
        units=("u0", "u1"),
        positions=((("P", -0.1),), (("Q", -0.3), ("R", -0.3))),
    )
    assert beam_transcribe(lattice, lm, beam_width=None)[0].hanzi == "PQ"


def test_viterbi_equals_enumeration_seeded():
    rng = np.random.default_rng(21)
    for trial in range(60):
        lm = random_lm(rng, order=int(rng.integers(1, 4)))
        lattice = random_lattice(rng)
        weight = float(rng.uniform(0.2, 2.0))
        got = beam_transcribe(lattice, lm, weight, beam_width=None)[0]
        want_chars, want_score = enumerate_lattice_best(lattice, lm, weight)
        assert got.hanzi == "".join(want_chars), trial
        assert got.total_score == pytest.approx(want_score, abs=1e-9)
        assert len(got.hanzi) == len(lattice)


def test_exhaustive_beam_equals_viterbi():
    rng = np.random.default_rng(22)
    for _ in range(25):
        lm = random_lm(rng, order=2)
        lattice = random_lattice(rng, max_positions=6, max_candidates=6)
        exact = beam_transcribe(lattice, lm, 1.0, beam_width=None)[0]
        ranked = beam_transcribe(lattice, lm, 1.0, beam_width=10**6)
        assert ranked[0].hanzi == exact.hanzi
        assert ranked[0].total_score == pytest.approx(exact.total_score, abs=1e-12)
        scores = [r.total_score for r in ranked]
        assert scores == sorted(scores, reverse=True)


def test_beam_width_one_is_greedy_chain():
    rng = np.random.default_rng(23)
    lm = random_lm(rng, order=2)
    lattice = random_lattice(rng, max_positions=5, max_candidates=4)
    results = beam_transcribe(lattice, lm, 1.0, beam_width=1)
    assert len(results) == 1
    # greedy chain: extend the single surviving context per position
    context, chars, score = ("<s>",), [], 0.0
    for candidates in lattice.positions:
        best = max(
            candidates,
            key=lambda cw: (lm.score_token(context, cw[0]) + cw[1], [-ord(x) for x in cw[0]]),
        )
        score += lm.score_token(context, best[0]) + best[1]
        context = (context + (best[0],))[-1:]
        chars.append(best[0])
    assert results[0].hanzi == "".join(chars)


def test_nbest_list_bounded_by_beam_width():
    rng = np.random.default_rng(24)
    lm = random_lm(rng, order=2)
    lattice = random_lattice(rng, max_positions=4, max_candidates=4)
    ranked = beam_transcribe(lattice, lm, 1.0, beam_width=5)
    assert 1 <= len(ranked) <= 5
    with pytest.raises(ValueError):
        beam_transcribe(lattice, lm, 1.0, beam_width=0)


def test_lenient_lattice_falls_back(lexicon):
    # zhong2 matches no character tonally; lenient mode degrades to the
    # toneless candidate set instead of failing.
    strict_fail = ["zhong1", "zhong2"]
    lattice = build_lattice_lenient(strict_fail, lexicon, tonal=True)
    assert len(lattice) == 2
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
    assert len(lattice) == len(units)
    want = tuple(i for i, unit in enumerate(units) if not lexicon.homophones(unit, tonal=tonal))
    assert want and lattice.fallbacks == want
    with pytest.raises(NoCandidate) as err:
        lattice.check_exact()
    assert (err.value.unit, err.value.position) == (units[want[0]], want[0])


def test_empty_lexicon_has_no_fallback():
    empty = PronunciationLexicon({})
    with pytest.raises(NoCandidate, match="'zhong1' at position 0"):
        build_lattice_lenient(["zhong1"], empty, tonal=True)
