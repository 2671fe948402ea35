import io
import json
import math
import re
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pinasr.corpus import EmptyCorpus
from pinasr.ngram_lm import (
    BOS,
    EOS,
    UNK,
    MASS_TOLERANCE,
    InvalidDiscount,
    MalformedArpa,
    NGramModel,
    NotNormalized,
    OutOfVocabulary,
    _count_ngrams,
    read_arpa,
    train,
    write_arpa,
)
from reference_impls import (
    arpa_perplexity,
    garbled_text,
    lm_state,
    perplexity,
    prediction_vocabulary,
    reference_score,
)

PINNED = json.loads((Path(__file__).parent / "fixtures" / "pinned.json").read_text())

SENTENCES = st.lists(
    st.lists(st.sampled_from("abcd"), min_size=0, max_size=6), min_size=1, max_size=8
)


@pytest.fixture(scope="module")
def hand_model():
    fx = PINNED["kn_bigram"]
    return train(fx["corpus"], order=fx["order"], discount=fx["discount"])


def linear(model, context, token):
    return 10.0 ** reference_score(model, context, token)


def test_hand_worked_unigrams(hand_model):
    for token, want in PINNED["kn_bigram"]["unigrams"].items():
        assert linear(hand_model, [], token) == pytest.approx(want, abs=1e-12)


def test_hand_worked_bigrams(hand_model):
    for gram, want in PINNED["kn_bigram"]["bigrams"].items():
        context, token = gram.split(" ")
        assert linear(hand_model, [context], token) == pytest.approx(want, abs=1e-12)


def test_hand_worked_backoffs(hand_model):
    for context, want in PINNED["kn_bigram"]["backoffs"].items():
        got = 10.0 ** hand_model.backoff_table[(context,)]
        assert got == pytest.approx(want, abs=1e-12)


def test_stored_probabilities_nonpositive(hand_model):
    assert all(v <= 0.0 for v in hand_model.prob_table.values())


def test_unigram_normalization_single_sentence():
    model = train([["a"]], order=1, discount=0.5)
    total = sum(linear(model, [], t) for t in prediction_vocabulary(model))
    assert total == pytest.approx(1.0, abs=1e-12)
    assert prediction_vocabulary(model) == {"a", EOS, UNK}


@given(SENTENCES, st.integers(1, 4), st.floats(0.1, 0.9))
@settings(max_examples=40, deadline=None)
def test_every_stored_context_normalizes(corpus, order, discount):
    model = train(corpus, order=order, discount=discount)
    contexts = [()] + sorted(model.backoff_table)
    for context in contexts:
        total = sum(linear(model, context, t) for t in prediction_vocabulary(model))
        assert total == pytest.approx(1.0, abs=1e-6), context


def test_unseen_context_backs_off_to_unigram(hand_model):
    # context never stored: backoff weight absent, plain unigram score.
    assert reference_score(hand_model, ["zz"], "a") == reference_score(hand_model, [], "a")
    # stored context, unseen continuation: bow(context) + unigram.
    want = hand_model.backoff_table[("a",)] + reference_score(hand_model, [], "a")
    assert reference_score(hand_model, ["a"], "a") == pytest.approx(want, abs=1e-12)


def test_context_truncated_to_order(hand_model):
    long_context = ["c", "b", "a"]
    assert reference_score(hand_model, long_context, "b") == reference_score(hand_model, ["a"], "b")


def test_unknown_tokens_map_to_unk(hand_model):
    assert reference_score(hand_model, [], "zz") == reference_score(hand_model, [], UNK)


def test_closed_vocabulary_gives_unseen_tokens_mass():
    model = train([["a", "b"]], order=2, discount=0.5, vocabulary=["a", "b", "c"])
    assert linear(model, [], "c") > 0
    total = sum(linear(model, [], t) for t in prediction_vocabulary(model))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_min_count_maps_rare_tokens():
    model = train([["a", "a", "b"]], order=1, discount=0.5, min_count=2)
    assert "b" not in model.vocabulary
    assert reference_score(model, [], "b") == reference_score(model, [], UNK)


def test_train_validations():
    with pytest.raises(EmptyCorpus):
        train([], order=2)
    with pytest.raises(InvalidDiscount):
        train([["a"]], order=1, discount=1.0)
    with pytest.raises(InvalidDiscount):
        train([["a"]], order=1, discount=0.0)
    with pytest.raises(ValueError):
        train([["a"]], order=7)
    with pytest.raises(ValueError):
        train([["a"]], order=0)


def test_count_table_prefix_closure():
    adjusted = _count_ngrams([["a", "b", "a"], ["b", "a"]], 3)
    assert len(adjusted) == 3 and all(len(gram) == k for k, level in enumerate(adjusted, 1) for gram in level)
    for k in (2, 3):
        for gram in adjusted[k - 1]:
            assert gram[:-1] in adjusted[k - 2]
    for level in adjusted:
        assert all(c > 0 for c in level.values())


@given(SENTENCES, st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_count_table_suffix_closure(corpus, order):
    # train interpolates each k-gram (k >= 2) with its suffix's stored probability.
    adjusted = _count_ngrams(corpus, order)
    for k in range(2, order + 1):
        for gram in adjusted[k - 1]:
            assert gram[1:] in adjusted[k - 2], gram


def test_perplexity_bounds_and_fixture():
    model = train([["a"]], order=1, discount=0.5)
    assert perplexity(model, [["a"]]) <= len(prediction_vocabulary(model))

    fx = PINNED["perplexity"]
    model = train(fx["train"], order=fx["order"], discount=fx["discount"])
    got = perplexity(model, fx["eval"])
    assert got == pytest.approx(fx["value"], abs=1e-9)
    # independent check straight off the ARPA text
    buf = io.StringIO()
    write_arpa(model, buf)
    independent = arpa_perplexity(buf.getvalue(), model.order, fx["eval"])
    assert got == pytest.approx(independent, abs=1e-9)
    with pytest.raises(EmptyCorpus):
        perplexity(model, [])


def test_uniform_model_perplexity_is_vocab_size():
    tokens = ("a", "b", "c", EOS)
    prob = {(t,): math.log10(1 / len(tokens)) for t in tokens}
    prob[(BOS,)] = -99.0
    model = NGramModel(order=1, prob_table=prob, backoff_table={})
    assert perplexity(model, [["a", "b"], ["c"]]) == pytest.approx(len(tokens), abs=1e-9)


def test_perplexity_improves_as_data_doubles():
    # Held-out perplexity is non-increasing along the 25/50/100/200 ladder
    # of bundled training sentences (fixed split, order 3).
    from pinasr import assets
    from pinasr.corpus import build_parallel

    lexicon = assets.default_lexicon()
    vocabulary = sorted(assets.default_inventory().tonal_units)
    heldout = build_parallel(assets.read_sentences("corpus_heldout.txt"), lexicon)
    heldout_tokens = [list(py) for _, py in heldout.pairs]
    sentences = assets.read_sentences("corpus_train.txt")
    perplexities = []
    for size in (25, 50, 100, 200):
        pairs = build_parallel(sentences[:size], lexicon)
        corpus = [list(py) for _, py in pairs.pairs]
        model = train(corpus, order=3, discount=0.6, vocabulary=vocabulary)
        perplexities.append(perplexity(model, heldout_tokens))
    assert all(b <= a + 1e-9 for a, b in zip(perplexities, perplexities[1:])), perplexities


def test_arpa_round_trip_exact():
    corpus = [["a", "b", "a"], ["b", "b"], ["a", "c", "b", "a"]]
    model = train(corpus, order=3, discount=0.7)
    buf = io.StringIO()
    write_arpa(model, buf)
    back = read_arpa(io.StringIO(buf.getvalue()))
    assert back.order == model.order
    assert back.prob_table == model.prob_table
    assert back.backoff_table == model.backoff_table
    queries = [((), "a"), (("a",), "b"), (("a", "b"), "a"), (("zz", "a"), "c"), ((BOS,), "a")]
    for context, token in queries:
        assert reference_score(back, context, token) == reference_score(model, context, token)


def test_arpa_counts_match_sections():
    model = train([["a", "b"], ["b", "a"]], order=2, discount=0.5)
    text = io.StringIO()
    write_arpa(model, text)
    lines = text.getvalue().splitlines()
    declared = {int(l.split()[1].split("=")[0]): int(l.split("=")[1]) for l in lines if l.startswith("ngram")}
    for k, want in declared.items():
        start = lines.index(f"\\{k}-grams:") + 1
        count = 0
        while lines[start + count].strip():
            count += 1
        assert count == want


def test_arpa_deterministic_bytes():
    corpus = [["b", "a"], ["a", "c"], ["a", "b", "c"]]
    one, two = io.StringIO(), io.StringIO()
    write_arpa(train(corpus, order=2, discount=0.6), one)
    write_arpa(train(corpus, order=2, discount=0.6), two)
    assert one.getvalue() == two.getvalue()


def test_arpa_missing_end_marker():
    model = train([["a"]], order=1, discount=0.5)
    buf = io.StringIO()
    write_arpa(model, buf)
    broken = buf.getvalue().replace("\\end\\", "")
    with pytest.raises(MalformedArpa, match=f"^line {len(broken.splitlines()) + 1}: missing .*end"):
        read_arpa(io.StringIO(broken))


def test_arpa_rejects_garbage():
    with pytest.raises(MalformedArpa):
        read_arpa(io.StringIO("not arpa at all\n"))
    with pytest.raises(MalformedArpa, match="^line 4: .*declares 2 entries but 1 were read"):
        read_arpa(io.StringIO("\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\ta\n\n\\end\\\n"))
    # A declared order with no section: the count line.
    with pytest.raises(MalformedArpa, match="^line 3: .*2-grams: declares 1 entries but 0 were read"):
        read_arpa(io.StringIO("\\data\\\nngram 1=1\nngram 2=1\n\n\\1-grams:\n-0.5\ta\n\n\\end\\\n"))
    with pytest.raises(MalformedArpa, match="^line 1: .*missing .*data"):
        read_arpa(io.StringIO(""))
    with pytest.raises(MalformedArpa, match="^line 4: incomplete"):
        read_arpa(io.StringIO("\n\\data\\\nngram 2=1\n\n\\end\\\n"))
    with pytest.raises(MalformedArpa, match="bad log probability"):
        read_arpa(io.StringIO("\\data\\\nngram 1=1\n\n\\1-grams:\nxx\ta\n\n\\end\\\n"))


BIGRAM_ARPA = (
    "\\data\\\nngram 1=4\nngram 2=2\n\n"
    "\\1-grams:\n-0.5\t</s>\n-99.0\t<s>\t-0.3\n-0.4\t<unk>\n-0.3\ta\t-0.2\n\n"
    "\\2-grams:\n-0.1\t<s> a\n-0.2\ta </s>\n\n\\end\\\n"
)


def test_bigram_arpa_fixture_reads():
    model = read_arpa(io.StringIO(BIGRAM_ARPA))
    assert model.prob_table[(BOS,)] == -99.0  # the begin-marker placeholder stays legal
    assert reference_score(model, [BOS], "a") == -0.1


@pytest.mark.parametrize("old, new, line", [
    ("-0.3\ta\t", "nan\ta\t", 9),
    ("-0.3\ta\t", "inf\ta\t", 9),
    ("-0.3\ta\t", "-inf\ta\t", 9),
    ("-0.3\ta\t", "0.25\ta\t", 9),
    ("-0.1\t<s> a", "nan\t<s> a", 12),
    ("-0.2\ta </s>", "1e-9\ta </s>", 13),
], ids=["nan", "inf", "-inf", "positive", "nan-bigram", "positive-bigram"])
def test_read_arpa_rejects_bad_log_probability(old, new, line):
    text = BIGRAM_ARPA.replace(old, new)
    assert text != BIGRAM_ARPA
    with pytest.raises(MalformedArpa, match=f"^line {line}: .*log probability"):
        read_arpa(io.StringIO(text))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_read_arpa_rejects_non_finite_backoff(bad):
    text = BIGRAM_ARPA.replace("\ta\t-0.2", f"\ta\t{bad}")
    assert text != BIGRAM_ARPA
    with pytest.raises(MalformedArpa, match="^line 9: .*backoff weight"):
        read_arpa(io.StringIO(text))


def test_out_of_vocabulary_token_without_unk_raises():
    text = BIGRAM_ARPA.replace("-0.4\t<unk>\n", "").replace("ngram 1=4", "ngram 1=3")
    model = read_arpa(io.StringIO(text))
    assert UNK not in model.vocabulary
    assert reference_score(model, [BOS], "a") == -0.1
    with pytest.raises(OutOfVocabulary, match="'zz'"):
        reference_score(model, [BOS], "zz")
    with pytest.raises(OutOfVocabulary, match="'zz'"):
        reference_score(model, [], "zz")
    with pytest.raises(OutOfVocabulary, match="'zz'"):
        reference_score(model, ["zz"], "a")
    assert issubclass(OutOfVocabulary, ValueError)


@pytest.mark.parametrize("old, new, line, token", [
    ("-0.2\ta </s>", "-0.2\ta zz", 13, "zz"),
    ("-0.1\t<s> a", "-0.1\tzz a", 12, "zz"),
], ids=["last-token", "context-token"])
def test_read_arpa_rejects_ngram_token_without_unigram(old, new, line, token):
    # No query reaches such an n-gram: its token would map to <unk> or raise.
    text = BIGRAM_ARPA.replace(old, new)
    assert text != BIGRAM_ARPA
    with pytest.raises(MalformedArpa, match=f"^line {line}: .*{token!r}.*no unigram"):
        read_arpa(io.StringIO(text))


# The compiled LM (NGramModel.state, word, score_token): random models,
# trained and read from ARPA text, with and without <unk>, and contexts with
# unknown tokens, checked against the string walk reference_score.

MODEL_TOKENS = ("a", "b", "c")
QUERY_TOKENS = (*MODEL_TOKENS, "z", BOS, EOS, UNK)   # "z" is out of every model's vocabulary


@st.composite
def trained_models(draw):
    """Trained models of order 1-4, open or closed over "abc", some with
    every n-gram that holds <unk> (and <unk> itself) taken out."""
    corpus = draw(st.lists(st.lists(st.sampled_from("abcz"), max_size=6), min_size=1, max_size=6))
    order = draw(st.integers(1, 4))
    closed = draw(st.booleans())
    model = train(corpus, order=order, discount=draw(st.floats(0.1, 0.9)),
                  min_count=draw(st.integers(1, 2)), vocabulary=MODEL_TOKENS if closed else None)
    if draw(st.booleans()):
        return model
    return NGramModel(order, {gram: p for gram, p in model.prob_table.items() if UNK not in gram},
                      {gram: b for gram, b in model.backoff_table.items() if UNK not in gram})


@st.composite
def arpa_tables(draw, tokens=MODEL_TOKENS):
    """(order, n-gram log10 probabilities, backoff weights) over a vocabulary
    of unigrams, ``tokens`` and the markers, with arbitrary n-grams and
    weights (positive backoff weights too), so histories may lack their
    prefixes and stored contexts their backoff weights."""
    order = draw(st.integers(1, 4))
    vocabulary = [*tokens, BOS, EOS] + ([UNK] if draw(st.booleans()) else [])
    grams = [(t,) for t in vocabulary]
    if order > 1:
        grams += draw(st.lists(
            st.lists(st.sampled_from(vocabulary), min_size=order, max_size=order).map(tuple)
            | st.lists(st.sampled_from(vocabulary), min_size=2, max_size=order).map(tuple),
            unique=True, max_size=12,
        ))
    logprob = st.floats(-3.0, 0.0)
    prob = {gram: draw(logprob) for gram in grams}
    backoff = {gram: draw(st.floats(-2.0, 1.0)) for gram in grams if draw(st.booleans())}
    return order, prob, backoff


def arpa_model(tables):
    buf = io.StringIO()
    write_arpa(NGramModel(*tables), buf)
    return read_arpa(io.StringIO(buf.getvalue()))


LM_MODELS = st.one_of(trained_models(), arpa_tables().map(arpa_model))


def outcome(call):
    """The call's value, or the exception type it raised for an unknown token."""
    try:
        return call()
    except OutOfVocabulary:
        return OutOfVocabulary


def check_state(model, contexts, context, token):
    """One query: the compiled ``score_token(lm_state(h), word(w))`` against
    the string walk; ``contexts`` is ``model.state_contexts()``."""
    full = outcome(lambda: reference_score(model, context, token))
    state = outcome(lambda: lm_state(model, context))
    word = outcome(lambda: model.word(token))
    seen = [*context[max(0, len(context) - model.order + 1):], token]
    if UNK not in model.vocabulary and any(t not in model.vocabulary for t in seen):
        assert full is OutOfVocabulary
    if OutOfVocabulary in (state, word):
        assert full is OutOfVocabulary
        return
    assert model.score_token(state, word) == (full, lm_state(model, (*context, token)))
    # The state's own tokens are a context with that state and those scores.
    assert lm_state(model, contexts[state]) == state
    assert reference_score(model, contexts[state], token) == full


@given(LM_MODELS, st.lists(st.sampled_from(QUERY_TOKENS), max_size=3))
@settings(max_examples=150, deadline=None)
def test_state_scores_like_the_full_context(model, lead):
    # Each context ends in part of a stored n-gram, so the checks reach the
    # stored contexts and the prefixes between them.
    assert model.start == lm_state(model, (BOS,))
    contexts = model.state_contexts()
    for stem in chain(model.prob_table, model.backoff_table):
        for cut in range(len(stem)):
            for token in (stem[cut], *QUERY_TOKENS):
                check_state(model, contexts, [*lead, *stem[:cut]], token)


@given(arpa_tables())
@settings(max_examples=100, deadline=None)
def test_compiled_tables_give_back_the_stored_ones(tables):
    # Only a backoff weight on a top-order n-gram, which no query reaches, is dropped.
    order, prob, backoff = tables
    model = NGramModel(*tables)
    assert set(model.vocabulary) == {gram[0] for gram in prob if len(gram) == 1}
    assert list(arpa_model(tables).vocabulary) == list(model.vocabulary)
    assert model.prob_table == prob
    assert model.backoff_table == {gram: bow for gram, bow in backoff.items() if len(gram) < order}


@given(st.lists(st.lists(st.sampled_from("abcz"), max_size=6), min_size=1, max_size=6),
       st.integers(1, 4), st.integers(1, 2), st.booleans())
@settings(max_examples=60, deadline=None)
def test_vocabulary_is_the_unigram_tokens(corpus, order, min_count, closed):
    # train stores a unigram for every token it can predict and for <s>, so
    # the words are those of the vocabulary it was given or kept, and an
    # ARPA round trip gives back the same words.
    model = train(corpus, order=order, discount=0.5, min_count=min_count, vocabulary=MODEL_TOKENS if closed else None)
    kept = set(MODEL_TOKENS) if closed else {t for t, c in Counter(chain(*corpus)).items() if c >= min_count}
    unigrams = {gram[0] for gram in model.prob_table if len(gram) == 1}
    assert set(model.vocabulary) == kept | {BOS, EOS, UNK} == unigrams
    back = read_arpa(io.StringIO("\n".join(arpa_lines(model))))
    assert list(back.vocabulary) == list(model.vocabulary)


@given(LM_MODELS)
@settings(max_examples=60, deadline=None)
def test_write_arpa_returns_the_count_of_each_order(model):
    buf = io.StringIO()
    counts = write_arpa(model, buf)
    grams = model.prob_table
    assert counts == [sum(len(gram) == k for gram in grams) for k in range(1, model.order + 1)]
    assert buf.getvalue().splitlines()[1:model.order + 1] == [f"ngram {k}={n}" for k, n in enumerate(counts, 1)]


@given(LM_MODELS)
@settings(max_examples=150, deadline=None)
def test_bounds_hold_every_query_from_their_state(model):
    # The beam's pruning bound rests on this, as floats, positive backoff weights included.
    words = range(len(model.vocabulary))
    for state in range(len(model.state_contexts())):
        for word in words:
            assert model.score_token(state, word)[0] <= model.bounds[state]


@given(LM_MODELS)
@settings(max_examples=150, deadline=None)
def test_mass_check_agrees_with_summing_every_word(model):
    # The backoff identity against the plain sum of score_token over every
    # predicted word, state by state; trained models pass, most drawn tables do not.
    words = [model.word(token) for token in model.vocabulary if token != BOS]
    off = max(abs(math.fsum(10.0 ** model.score_token(state, word)[0] for word in words) - 1.0)
              for state in range(len(model.state_contexts())))
    if off <= MASS_TOLERANCE / 2:
        model.check_normalized()
    elif off > 2 * MASS_TOLERANCE:
        with pytest.raises(NotNormalized):
            model.check_normalized()


def exact_log10(x: float) -> float:
    """A float p with 10.0 ** p == x exactly."""
    p = math.log10(x)
    while (value := 10.0 ** p) != x:
        p = math.nextafter(p, math.inf if value < x else -math.inf)
    return p


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_mass_tolerance_holds_to_the_ulp(side):
    # Two unigrams, 0.5 and m - 0.5, whose mass m is the last float within
    # MASS_TOLERANCE of 1 on one side, and then the next float out.
    edge = 1.0 + side * MASS_TOLERANCE
    while abs(edge - 1.0) > MASS_TOLERANCE:
        edge = math.nextafter(edge, 1.0)
    beyond = math.nextafter(edge, 1.0 + side)
    assert abs(beyond - 1.0) > MASS_TOLERANCE
    for mass in (edge, beyond):
        text = f"\\data\\\nngram 1=3\n\n\\1-grams:\n{exact_log10(0.5)!r}\t</s>\n-99.0\t<s>\n" \
               f"{exact_log10(mass - 0.5)!r}\ta\n\n\\end\\\n"
        model = read_arpa(io.StringIO(text))   # a parser only: it reads either
        if mass == edge:
            model.check_normalized()
        else:
            with pytest.raises(NotNormalized, match=f"^unigrams: probabilities sum to {mass!r}, not 1 within 1e-05$"):
                model.check_normalized()


def test_state_closes_missing_prefixes():
    # The trigram a b c is stored without a bigram or backoff weight for
    # "a b", and nothing is stored after "a": the state after "x a" must
    # still be ("a",) so that "b" can reach the trigram's history.
    text = (
        "\\data\\\nngram 1=6\nngram 2=0\nngram 3=1\n\n"
        "\\1-grams:\n-0.7\t</s>\n-99.0\t<s>\n-0.6\t<unk>\n-0.5\ta\n-0.5\tb\n-0.5\tc\n\n"
        "\\2-grams:\n\n\\3-grams:\n-0.1\ta b c\n\n\\end\\\n"
    )
    model = read_arpa(io.StringIO(text))
    contexts = model.state_contexts()
    assert sorted(contexts) == [(), ("a",), ("a", "b")]
    assert contexts[lm_state(model, ["x", "a"])] == ("a",)
    assert contexts[lm_state(model, ["x", "a", "b"])] == ("a", "b")
    assert lm_state(model, ["a", "b", "b"]) == 0 and contexts[0] == ()
    b, c = model.word("b"), model.word("c")
    assert model.score_token(lm_state(model, ["x", "a"]), b)[1] == lm_state(model, ["x", "a", "b"])
    assert model.score_token(lm_state(model, ["a", "b"]), b)[1] == 0
    assert model.score_token(lm_state(model, ["x", "a", "b"]), c)[0] == -0.1
    unigram = train([["a"]], order=1)
    assert lm_state(unigram, ["a", "zz"]) == 0
    assert unigram.score_token(0, unigram.word("zz"))[1] == 0


def test_trained_model_contexts_are_its_backoff_keys():
    # A trained model is already prefix-closed: its states are its backoff
    # keys and (), each once, and compiling keeps no tuple-keyed table.
    model = train([["a", "b", "c", "a"], ["b", "a"]], order=4, discount=0.6)
    contexts = model.state_contexts()
    assert sorted(contexts) == sorted(set(model.backoff_table) | {()})
    assert [lm_state(model, ctx) for ctx in contexts] == list(range(len(contexts)))
    tables = [value for value in vars(model).values() if isinstance(value, (dict, set))]
    assert tables and not any(isinstance(key, tuple) for table in tables for key in table)


def arpa_lines(model):
    buf = io.StringIO()
    write_arpa(model, buf)
    return buf.getvalue().splitlines()


@settings(max_examples=300, deadline=None)
@given(garbled_text(arpa_lines(train([["a", "b"], ["b", "a", "c"]], order=2, discount=0.5))))
def test_read_arpa_garbage_raises_only_value_errors(text):
    try:
        read_arpa(io.StringIO(text))
    except MalformedArpa as exc:
        lineno = re.match(r"line (\d+): ", str(exc))
        assert lineno and 1 <= int(lineno[1]) <= len(text.splitlines()) + 1, exc
