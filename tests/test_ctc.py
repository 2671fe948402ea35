import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinasr.ctc import (
    DecoderConfig,
    EmissionMatrix,
    InvalidEmissions,
    VocabularyMismatch,
    log10addexp,
    prefix_beam_search,
    read_emissions,
    write_emissions,
)
from pinasr.ngram_lm import NGramModel, train
from test_ngram_lm import arpa_model, arpa_tables
from reference_impls import (
    garbled_text,
    InfeasibleLength,
    InstanceTooLarge,
    brute_force_decode,
    closure_prefix_beam_search,
    collapse_alignment,
    dense_emissions,
    enumerate_ctc_distribution,
    greedy_decode,
    min_frames_required,
    reference_score,
    sequence_logprob,
)

NEG_INF = float("-inf")


def random_emissions(rng, T, V, labels="abcde"):
    probs = rng.dirichlet(np.ones(V + 1), size=T)
    return dense_emissions(np.log10(probs), tuple(labels[:V]), blank_index=V)


def one_hot_emissions(classes, V, labels="abcde"):
    grid = np.full((len(classes), V + 1), NEG_INF)
    for t, c in enumerate(classes):
        grid[t, c] = 0.0
    return dense_emissions(grid, tuple(labels[:V]), blank_index=V)


@pytest.fixture(scope="module")
def fusion_lm():
    corpus = [["a", "b"], ["b", "a"], ["a", "b", "a"], ["c"]]
    return train(corpus, order=2, discount=0.6, vocabulary=list("abcde"))


def test_collapse_rules():
    assert collapse_alignment([0, 0, 2, 1], blank=2) == [0, 1]
    assert collapse_alignment([2, 2], blank=2) == []
    assert collapse_alignment([0, 2, 0], blank=2) == [0, 0]
    assert collapse_alignment([], blank=0) == []


def test_log10addexp():
    assert log10addexp(NEG_INF, NEG_INF) == NEG_INF
    assert log10addexp(0.0, NEG_INF) == 0.0
    assert log10addexp(math.log10(0.25), math.log10(0.75)) == pytest.approx(0.0, abs=1e-12)


def test_emission_matrix_validation():
    with pytest.raises(ValueError, match="sums to"):
        dense_emissions(np.log10([[0.6, 0.6]]), ("a",), blank_index=1)
    with pytest.raises(ValueError, match="blank_index"):
        dense_emissions(np.log10([[0.5, 0.5]]), ("a",), blank_index=2)
    with pytest.raises(ValueError, match="columns"):
        dense_emissions(np.log10([[0.5, 0.5]]), ("a", "b"), blank_index=1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_emission_matrix_rejects_non_finite(bad):
    grid = np.array([[0.0, NEG_INF], [math.log10(0.5), math.log10(0.5)]])
    grid[1, 0] = bad
    with pytest.raises(ValueError, match="frame 1 class 0"):
        dense_emissions(grid, ("a",), blank_index=1)


def test_emission_matrix_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate unit label 'a'"):
        dense_emissions(np.log10([[0.25, 0.25, 0.5]]), ("a", "a"), blank_index=2)


NAN, INF, H = float("nan"), float("inf"), math.log10(0.5)


@pytest.mark.parametrize("frames, t", [
    ([[(1, 0.0)], [(0, NAN), (1, 0.0)]], 1),
    ([[(0, INF)]], 0),
    ([[(1, 0.0)], [(1, 0.0)], [(0, NEG_INF), (1, 0.0)]], 2),
    ([[(0, H), (2, H)]], 0),
    ([[(1, 0.0)], [(-1, H), (1, H)]], 1),
    ([[(1, 0.0)], [(0, H), (0, H)]], 1),
    ([[(1, H), (0, H)]], 0),
    ([[(1, 0.0)], [(1, 0.0)], [(0, -1.0)]], 2),
], ids=["nan", "inf", "listed-neg-inf", "class-above-range", "class-below-range", "repeated-class",
        "descending-classes", "row-sum"])
def test_emission_matrix_names_the_line_of_a_bad_frame(frames, t):
    with pytest.raises(InvalidEmissions) as info:
        EmissionMatrix(frames, ("a",), blank_index=1)
    assert info.value.line == 3 + t
    assert str(info.value).startswith((f"frame {t} class ", f"row {t} sums to "))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_greedy_is_argmax_of_the_dense_view(data):
    # Few distinct weights, so frames often tie; np.argmax takes the first.
    T, V = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 5))
    row = st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=V + 1, max_size=V + 1).filter(any)
    weights = np.array(data.draw(st.lists(row, min_size=T, max_size=T)))
    with np.errstate(divide="ignore"):
        grid = np.log10(weights / weights.sum(axis=1, keepdims=True))
    labels = tuple(data.draw(st.permutations("abcde"))[:V])
    blank = data.draw(st.integers(0, V))
    e = dense_emissions(grid, labels, blank_index=blank)
    collapsed = collapse_alignment(np.argmax(e.log_probs, axis=1).tolist(), blank)
    assert greedy_decode(e) == [labels[c if c < blank else c - 1] for c in collapsed]


def test_greedy_one_hot():
    e = one_hot_emissions([0, 0, 2, 1], V=2)
    assert greedy_decode(e) == ["a", "b"]
    assert greedy_decode(one_hot_emissions([2, 2], V=2)) == []
    assert greedy_decode(one_hot_emissions([0], V=2)) == ["a"]


def test_greedy_tie_breaks_low_class():
    e = dense_emissions(np.log10([[0.4, 0.4, 0.2]]), ("a", "b"), blank_index=2)
    assert greedy_decode(e) == ["a"]


def test_sequence_logprob_single_frame_uniform():
    e = dense_emissions(np.log10([[0.5, 0.5]]), ("a",), blank_index=1)
    assert sequence_logprob(e, ["a"]) == pytest.approx(math.log10(0.5), abs=1e-12)
    assert sequence_logprob(e, []) == pytest.approx(math.log10(0.5), abs=1e-12)


def test_sequence_logprob_infeasible():
    e = dense_emissions(np.log10([[0.5, 0.5], [0.5, 0.5]]), ("a",), blank_index=1)
    with pytest.raises(InfeasibleLength):
        sequence_logprob(e, ["a", "a", "a"])
    # repeated labels need a separating blank frame
    with pytest.raises(InfeasibleLength):
        sequence_logprob(e, ["a", "a"])
    with pytest.raises(VocabularyMismatch):
        sequence_logprob(e, ["zz"])


def test_min_frames_required():
    assert min_frames_required([]) == 0
    assert min_frames_required(["a", "b"]) == 2
    assert min_frames_required(["a", "a", "b"]) == 4


def test_forward_matches_path_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(12):
        T, V = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        e = random_emissions(rng, T, V)
        table = enumerate_ctc_distribution(e)
        for labels, want in table.items():
            assert 10.0 ** sequence_logprob(e, list(labels)) == pytest.approx(want, abs=1e-12)


def test_total_probability_is_one():
    rng = np.random.default_rng(6)
    for _ in range(12):
        T, V = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        e = random_emissions(rng, T, V)
        total = sum(enumerate_ctc_distribution(e).values())
        assert total == pytest.approx(1.0, abs=1e-9)


def test_beam_spells_clean_sequence(fusion_lm):
    e = one_hot_emissions([0, 2, 1, 2, 0], V=2)
    for lm, alpha in ((None, 0.0), (fusion_lm, 0.8)):
        top = prefix_beam_search(e, lm, DecoderConfig(beam_width=4, lm_weight=alpha))
        assert top[0][0] == ("a", "b", "a")


def test_exhaustive_beam_matches_brute_force(fusion_lm):
    rng = np.random.default_rng(7)
    for trial in range(40):
        T, V = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        e = random_emissions(rng, T, V)
        for lm, alpha, beta in ((None, 0.0, 0.0), (fusion_lm, 0.6, 0.2)):
            config = DecoderConfig(beam_width=10**6, lm_weight=alpha, insertion_bonus=beta)
            got = prefix_beam_search(e, lm, config)[0]
            want_labels, want_score = brute_force_decode(e, lm, alpha, beta)
            assert got[0] == want_labels, trial
            assert got[1] == pytest.approx(want_score, abs=1e-9)


def test_beam_monotone_in_width(fusion_lm):
    rng = np.random.default_rng(8)
    e = random_emissions(rng, 6, 4)
    previous = NEG_INF
    for width in (1, 2, 4, 8, 32, 10**6):
        config = DecoderConfig(beam_width=width, lm_weight=0.4)
        score = prefix_beam_search(e, fusion_lm, config)[0][1]
        assert score >= previous - 1e-12
        previous = score


def test_lm_off_reduction(fusion_lm):
    rng = np.random.default_rng(9)
    e = random_emissions(rng, 5, 3)
    other = train([["c", "c"]], order=1, discount=0.4, vocabulary=list("abcde"))
    config = DecoderConfig(beam_width=6, lm_weight=0.0, insertion_bonus=0.0)
    assert prefix_beam_search(e, fusion_lm, config) == prefix_beam_search(e, other, config)


def test_lm_weight_flips_ranking_at_threshold():
    # Frame 1 fixes 'a'; frame 2 splits 0.4/0.6 between 'b' and 'c'. The LM
    # prefers "a b", so rank 1 flips from (a,c) to (a,b) once the fusion
    # weight crosses the closed-form break-even point.
    grid = np.full((2, 4), NEG_INF)
    grid[0, 0] = 0.0
    grid[1, 1] = math.log10(0.4)
    grid[1, 2] = math.log10(0.6)
    e = dense_emissions(grid, ("a", "b", "c"), blank_index=3)
    lm = train([["a", "b"]] * 9 + [["a", "c"]], order=2, discount=0.5, vocabulary=list("abc"))
    delta_acoustic = math.log10(0.6) - math.log10(0.4)
    delta_lm = reference_score(lm, ["a"], "b") - reference_score(lm, ["a"], "c")
    assert delta_lm > 0
    threshold = delta_acoustic / delta_lm
    config = DecoderConfig(beam_width=16, lm_weight=threshold * 0.9)
    assert prefix_beam_search(e, lm, config)[0][0] == ("a", "c")
    config = DecoderConfig(beam_width=16, lm_weight=threshold * 1.1)
    assert prefix_beam_search(e, lm, config)[0][0] == ("a", "b")


@pytest.mark.parametrize("width", [1, 3, 10**6])
def test_beam_ties_follow_label_order_not_class_order(width):
    # Class order (c, a, b) differs from label order, so ties must still
    # break by the label strings, as the brute-force oracle does.
    labels = ("c", "a", "b")
    lm = train([["a", "b"], ["c"], ["b", "c", "a"]], order=2, discount=0.5, vocabulary=labels)
    uniform = [dense_emissions(np.full((T, 4), math.log10(0.25)), labels, blank_index=3) for T in (1, 2, 3, 4)]
    one_hot = [one_hot_emissions(frames, V=3, labels=labels) for frames in ([0, 3, 1], [2, 0, 3, 0], [3, 1, 2])]
    for e in uniform + one_hot:
        for model, alpha, beta in ((None, 0.0, 0.0), (None, 0.0, 0.3), (lm, 0.5, 0.1)):
            config = DecoderConfig(beam_width=width, lm_weight=alpha, insertion_bonus=beta)
            got = prefix_beam_search(e, model, config)
            assert [score for _, score in got] == sorted((score for _, score in got), reverse=True)
            if width < 10**6:
                continue
            want_labels, want_score = brute_force_decode(e, model, alpha, beta)
            assert got[0][0] == want_labels
            assert got[0][1] == pytest.approx(want_score, abs=1e-9)
    top = prefix_beam_search(uniform[0], None, DecoderConfig(beam_width=width))
    assert [units for units, _ in top] == [(), ("a",), ("b",), ("c",)][:width]


TRIGRAM_LM = train([["a", "b", "a"], ["c", "b"], ["b", "a", "e", "a"], ["d"]], order=3, discount=0.7,
                   vocabulary=list("abcde"))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_beam_matches_closure_reference(fusion_lm, data):
    # The two-pass frame step, which skips children that cannot reach the
    # k-th best, must reproduce the closure-based search that builds every
    # child, bit for bit: same prefixes, same order, same float scores. Long
    # utterances and wide beams keep the bound active; weights from a few
    # levels make fused scores tie; read ARPA models have positive backoff
    # weights, and some lack <unk>.
    T, V = data.draw(st.integers(1, 14)), data.draw(st.integers(1, 5))
    level = data.draw(st.sampled_from([st.floats(1e-6, 1.0), st.sampled_from([1.0, 2.0, 4.0])]))
    row = st.lists(st.just(0.0) | level, min_size=V + 1, max_size=V + 1).filter(lambda w: sum(w) > 0)
    weights = np.array(data.draw(st.lists(row, min_size=T, max_size=T)))
    with np.errstate(divide="ignore"):
        grid = np.log10(weights / weights.sum(axis=1, keepdims=True))
    labels = tuple(data.draw(st.permutations("abcde"))[:V])  # class order differs from label order
    e = dense_emissions(grid, labels, blank_index=data.draw(st.integers(0, V)))
    lm = data.draw(st.sampled_from([None, fusion_lm, TRIGRAM_LM]) | arpa_tables(tuple("abcde")).map(arpa_model))
    config = DecoderConfig(
        beam_width=data.draw(st.integers(1, 6)),
        lm_weight=data.draw(st.sampled_from([0.0, 0.3, 1.7])),
        insertion_bonus=data.draw(st.sampled_from([0.0, 0.25, -0.6])),
        prune_threshold=data.draw(st.sampled_from([NEG_INF, -3.0, -1.0, -0.4])),
    )
    want = closure_prefix_beam_search(e, lm, config)
    if want:
        assert prefix_beam_search(e, lm, config) == want
    else:   # the reference empties its beam at a frame with no class above the threshold
        with pytest.raises(ValueError, match="no class above prune_threshold"):
            prefix_beam_search(e, lm, config)


def test_beam_keeps_children_that_tie_the_floor():
    # Two frames split evenly between a and b, with no blank: the kept (a)
    # and (b) and the new (a, b) and (b, a) all score log10(0.25) exactly,
    # so the new children tie the floor, and (a, b) wins second place by
    # label order. Skipping ties would return (b) there.
    half = math.log10(0.5)
    e = dense_emissions([[half, half, NEG_INF]] * 2, ("a", "b"), blank_index=2)
    config = DecoderConfig(beam_width=2)
    assert prefix_beam_search(e, None, config) == [(("a",), 2 * half), (("a", "b"), 2 * half)]
    assert prefix_beam_search(e, None, config) == closure_prefix_beam_search(e, None, config)


def test_beam_keeps_a_child_that_ties_a_floor_set_in_pass_2():
    # One frame split evenly between b and a, in that class order, with no
    # blank: pass 1 has no candidate, so (b), the first child of pass 2,
    # fills the one place and sets the floor. (a) ties it, by its bound (the
    # unigram LM's bound is its score) and by its exact score, and wins by
    # label order. Skipping a tie at either check would return (b).
    half = math.log10(0.5)
    e = dense_emissions([[half, half, NEG_INF]], ("b", "a"), blank_index=2)
    lm = NGramModel(1, {("a",): half, ("b",): half}, {})
    config = DecoderConfig(beam_width=1, lm_weight=1.0)
    assert prefix_beam_search(e, lm, config) == [(("a",), 2 * half)]
    assert prefix_beam_search(e, lm, config) == closure_prefix_beam_search(e, lm, config)


@pytest.mark.parametrize("field, value", [
    ("lm_weight", math.nan), ("lm_weight", math.inf), ("insertion_bonus", math.nan),
    ("insertion_bonus", math.inf), ("insertion_bonus", -math.inf), ("prune_threshold", math.nan),
])
def test_decoder_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        DecoderConfig(**{field: value})


def test_frame_with_no_live_class_raises_naming_the_frame():
    # Frame 1 splits its mass evenly, so a floor of -0.1 leaves it no class.
    grid = np.full((3, 3), NEG_INF)
    grid[0, 0] = grid[2, 2] = 0.0
    grid[1, 0] = grid[1, 1] = math.log10(0.5)
    e = dense_emissions(grid, ("a", "b"), blank_index=2)
    with pytest.raises(ValueError, match=r"^frame 1: no class above prune_threshold -0\.1$"):
        prefix_beam_search(e, None, DecoderConfig(prune_threshold=-0.1))


@pytest.mark.parametrize("lm_weight, insertion_bonus", [(1e308, 0.0), (0.3, 1e308), (1e308, 1e308)])
def test_overflowing_fused_score_raises_naming_the_frame(fusion_lm, lm_weight, insertion_bonus):
    # Frame 2 extends ("d",) to ("d", "d"), whose fused score overflows to
    # -inf, +inf or NaN (-inf + inf).
    e = one_hot_emissions([3, 5, 3], V=5)
    config = DecoderConfig(beam_width=4, lm_weight=lm_weight, insertion_bonus=insertion_bonus)
    with pytest.raises(ValueError, match=r"^frame 2: fused score is not finite; lm_weight or insertion_bonus overflows$"):
        prefix_beam_search(e, fusion_lm, config)


def test_vocabulary_mismatch_raised(fusion_lm):
    e = one_hot_emissions([0], V=2, labels=("a", "zz"))
    with pytest.raises(VocabularyMismatch):
        prefix_beam_search(e, fusion_lm, DecoderConfig(beam_width=2))


def test_alphabet_tables_are_kept_per_labels_blank_and_model(fusion_lm):
    # The beam builds its per-alphabet tables once per (labels, blank index,
    # LM). Each call below would meet a table cached for another key if the
    # key lacked one part, and skip the vocabulary check or take the wrong blank.
    wide = train([["a", "b", "z"]], order=2, discount=0.6, vocabulary=list("abz"))   # fusion_lm lacks "z"
    config = DecoderConfig(beam_width=4, lm_weight=0.5)
    rng = np.random.default_rng(5)
    em = random_emissions(rng, 5, 3, labels=("a", "b", "z"))   # blank last
    blank_first = dense_emissions(em.log_probs[:, [3, 0, 1, 2]], em.unit_labels, blank_index=0)
    assert prefix_beam_search(em, wide, config) == closure_prefix_beam_search(em, wide, config)
    for _ in range(2):   # a failed check leaves nothing cached
        with pytest.raises(VocabularyMismatch, match="'z'"):   # other blank index and model
            prefix_beam_search(blank_first, fusion_lm, config)
        with pytest.raises(VocabularyMismatch, match="'z'"):   # a second model
            prefix_beam_search(em, fusion_lm, config)
        with pytest.raises(VocabularyMismatch, match="'y'"):   # a unit the LM lacks
            prefix_beam_search(random_emissions(rng, 5, 3, labels=("a", "b", "y")), wide, config)
    assert prefix_beam_search(blank_first, wide, config) == closure_prefix_beam_search(blank_first, wide, config)


def test_emission_files_read_back_decode_like_their_matrices():
    # Each file read back has its own label tuple, equal to the cached one.
    rng = np.random.default_rng(6)
    config = DecoderConfig(beam_width=4, lm_weight=0.5)
    for lm in (None, TRIGRAM_LM):
        for _ in range(4):
            em = random_emissions(rng, 6, 5)
            buf = io.StringIO()
            write_emissions(em, buf)
            back = read_emissions(io.StringIO(buf.getvalue()))
            assert back.unit_labels == em.unit_labels and back.unit_labels is not em.unit_labels
            assert prefix_beam_search(back, lm, config) == closure_prefix_beam_search(em, lm, config)


def test_brute_force_guard():
    rng = np.random.default_rng(10)
    with pytest.raises(InstanceTooLarge):
        brute_force_decode(random_emissions(rng, 9, 2))
    with pytest.raises(InstanceTooLarge):
        brute_force_decode(dense_emissions(
            np.log10(rng.dirichlet(np.ones(7), size=2)), tuple("abcdef"), blank_index=6
        ))


def test_brute_force_agrees_with_greedy_on_one_hot():
    e = one_hot_emissions([0, 2, 1], V=2)
    labels, score = brute_force_decode(e)
    assert list(labels) == greedy_decode(e)
    assert score == pytest.approx(0.0, abs=1e-12)


def test_decoder_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(beam_width=0)
    with pytest.raises(ValueError):
        DecoderConfig(lm_weight=-0.1)


def test_emission_file_round_trip():
    rng = np.random.default_rng(11)
    e = random_emissions(rng, 4, 3)
    buf = io.StringIO()
    write_emissions(e, buf)
    back = read_emissions(io.StringIO(buf.getvalue()))
    assert back.unit_labels == e.unit_labels
    assert back.blank_index == e.blank_index
    assert np.array_equal(back.log_probs, e.log_probs)
    header = buf.getvalue().splitlines()[0]
    assert header == f"{e.num_frames} {e.num_units} {e.blank_index}"


def test_emission_file_handles_neg_inf():
    e = one_hot_emissions([0, 2], V=2)
    buf = io.StringIO()
    write_emissions(e, buf)
    back = read_emissions(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.log_probs, e.log_probs)


def test_emission_file_rejects_bad_header():
    for text in ("1 2\nx y\n0 0 0\n", "1 x 1\na\n0:0.0\n"):   # too few fields; not an integer
        with pytest.raises(ValueError, match=r"^line 1: bad header"):
            read_emissions(io.StringIO(text))


@pytest.mark.parametrize("label", ["a b", ""])
def test_write_emissions_rejects_a_label_with_whitespace_on_every_write(label):
    # The label check is cached per label tuple; a failed check caches nothing.
    e = EmissionMatrix([[(1, 0.0)]], (label,), blank_index=1)
    for _ in range(2):
        with pytest.raises(ValueError, match="empty or contains whitespace"):
            write_emissions(e, io.StringIO())


HALF = repr(math.log10(0.5))


def em_text(*rows):
    return "\n".join(["1 1 1", "a", *rows]) + "\n"


def test_emission_file_is_sparse():
    e = one_hot_emissions([0, 2], V=2)
    buf = io.StringIO()
    write_emissions(e, buf)
    assert buf.getvalue() == "2 2 2\na b\n0:0.0\n2:0.0\n"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_emission_file_round_trip_property(data):
    T, V = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 8))
    weight = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    row = st.lists(weight, min_size=V + 1, max_size=V + 1).filter(lambda w: sum(w) > 0)
    weights = np.array(data.draw(st.lists(row, min_size=T, max_size=T)))
    with np.errstate(divide="ignore"):
        grid = np.log10(weights / weights.sum(axis=1, keepdims=True))
    labels = data.draw(st.lists(
        st.text("abz019:", min_size=1, max_size=3), min_size=V, max_size=V, unique=True
    ))
    e = dense_emissions(grid, tuple(labels), blank_index=data.draw(st.integers(0, V)))
    first = io.StringIO()
    write_emissions(e, first)
    back = read_emissions(io.StringIO(first.getvalue()))
    assert np.array_equal(back.log_probs, e.log_probs)
    assert (back.unit_labels, back.blank_index) == (e.unit_labels, e.blank_index)
    second = io.StringIO()
    write_emissions(back, second)
    assert second.getvalue() == first.getvalue()


@settings(max_examples=300, deadline=None)
@given(garbled_text(["2 2 1", "a b", f"0:{HALF} 2:{HALF}", "1:0.0"]))
def test_emission_file_garbage_raises_only_value_errors(text):
    try:
        read_emissions(io.StringIO(text))
    except ValueError as exc:
        lineno = re.match(r"line (\d+): ", str(exc))
        assert lineno and 1 <= int(lineno[1]) <= len(text.splitlines()) + 1, exc


@pytest.mark.parametrize("text, message", [
    ("", "line 1: emission file needs"),
    ("1 1 1\n", "line 2: emission file needs"),
    ("1 1 1\na\n", "line 1: header declares 1 frames, file has 0 rows"),
    ("3 1 1\na\n1:0.0\n", "line 1: header declares 3 frames, file has 1 rows"),
    ("0 1 1\na\n", "line 1: header declares 0 frames, need at least 1"),
    ("-2 1 1\na\n1:0.0\n", "line 1: header declares -2 frames"),
], ids=["empty", "no-labels", "no-rows", "short", "zero-frames", "negative-frames"])
def test_read_emissions_names_the_header_line_for_missing_parts(text, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        read_emissions(io.StringIO(text))


@pytest.mark.parametrize("text, message", [
    ("1 1 5\na\n0:0.0\n", "line 1: blank_index 5 out of range [0, 1]"),
    ("1 0 0\n\n0:0.0\n", "line 1: need at least one unit label"),
    ("1 2 2\na a\n0:0.0\n", "line 2: duplicate unit label 'a'"),
    ("2 1 1\na\n1:0.0\n0:-1.0\n", "line 4: row 1 sums to 0.10000000, not 1"),
], ids=["blank-index", "no-units", "duplicate-label", "row-sum"])
def test_read_emissions_names_the_line_of_matrix_checks(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_emissions(io.StringIO(text))


def test_read_emissions_rejects_rows_past_declared_frames():
    with pytest.raises(ValueError, match="line 4: .*1 frames"):
        read_emissions(io.StringIO(em_text(f"0:{HALF} 1:{HALF}", "1:0.0")))


@pytest.mark.parametrize("row", [
    f"0{HALF} 1:{HALF}",
    f"zero:{HALF} 1:{HALF}",
    f"0:{HALF} 1:half",
    f"{HALF} {HALF}",  # a dense row from an earlier version
])
def test_read_emissions_rejects_malformed_entry(row):
    with pytest.raises(ValueError, match="line 3: malformed entry"):
        read_emissions(io.StringIO(em_text(row)))


@pytest.mark.parametrize("row", [f"0:{HALF} 2:{HALF}", f"-1:{HALF} 1:{HALF}"])
def test_read_emissions_rejects_class_out_of_range(row):
    with pytest.raises(ValueError, match="line 3: class -?[12] out of range"):
        read_emissions(io.StringIO(em_text(row)))


def test_read_emissions_rejects_repeated_class():
    with pytest.raises(ValueError, match="line 3: class 0 repeated"):
        read_emissions(io.StringIO(em_text(f"0:{HALF} 0:{HALF}")))


def test_read_emissions_rejects_descending_classes():
    with pytest.raises(ValueError, match="line 3: class 0 .*ascending"):
        read_emissions(io.StringIO(em_text(f"1:{HALF} 0:{HALF}")))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_read_emissions_rejects_non_finite_value(value):
    with pytest.raises(ValueError, match="line 3: class 0 value"):
        read_emissions(io.StringIO(em_text(f"0:{value} 1:0.0")))
