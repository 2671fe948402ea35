import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pinasr.corpus import EmptyCorpus
from pinasr.ngram_lm import (
    BOS,
    EOS,
    UNK,
    InvalidDiscount,
    MalformedArpa,
    OutOfVocabulary,
    _count_ngrams,
    read_arpa,
    train,
    write_arpa,
)
from reference_impls import arpa_perplexity

PINNED = json.loads((Path(__file__).parent / "fixtures" / "pinned.json").read_text())

SENTENCES = st.lists(
    st.lists(st.sampled_from("abcd"), min_size=0, max_size=6), min_size=1, max_size=8
)


@pytest.fixture(scope="module")
def hand_model():
    fx = PINNED["kn_bigram"]
    return train(fx["corpus"], order=fx["order"], discount=fx["discount"])


def linear(model, context, token):
    return 10.0 ** model.score_token(context, token)


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
    total = sum(linear(model, [], t) for t in model.prediction_vocabulary)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert model.prediction_vocabulary == {"a", EOS, UNK}


@given(SENTENCES, st.integers(1, 4), st.floats(0.1, 0.9))
@settings(max_examples=40, deadline=None)
def test_every_stored_context_normalizes(corpus, order, discount):
    model = train(corpus, order=order, discount=discount)
    contexts = [()] + sorted(model.backoff_table)
    for context in contexts:
        total = sum(linear(model, context, t) for t in model.prediction_vocabulary)
        assert total == pytest.approx(1.0, abs=1e-6), context


def test_unseen_context_backs_off_to_unigram(hand_model):
    # context never stored: backoff weight absent, plain unigram score.
    assert hand_model.score_token(["zz"], "a") == hand_model.score_token([], "a")
    # stored context, unseen continuation: bow(context) + unigram.
    want = hand_model.backoff_table[("a",)] + hand_model.score_token([], "a")
    assert hand_model.score_token(["a"], "a") == pytest.approx(want, abs=1e-12)


def test_context_truncated_to_order(hand_model):
    long_context = ["c", "b", "a"]
    assert hand_model.score_token(long_context, "b") == hand_model.score_token(["a"], "b")


def test_unknown_tokens_map_to_unk(hand_model):
    assert hand_model.score_token([], "zz") == hand_model.score_token([], UNK)


def test_closed_vocabulary_gives_unseen_tokens_mass():
    model = train([["a", "b"]], order=2, discount=0.5, vocabulary=["a", "b", "c"])
    assert linear(model, [], "c") > 0
    total = sum(linear(model, [], t) for t in model.prediction_vocabulary)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_min_count_maps_rare_tokens():
    model = train([["a", "a", "b"]], order=1, discount=0.5, min_count=2)
    assert "b" not in model.vocabulary
    assert model.score_token([], "b") == model.score_token([], UNK)


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
    table = _count_ngrams([["a", "b", "a"], ["b", "a"]], 3)
    for k in (2, 3):
        for gram in table.adjusted[k - 1]:
            assert gram[:-1] in table.adjusted[k - 2]
    for level in table.raw + table.adjusted:
        assert all(c > 0 for c in level.values())


def test_perplexity_bounds_and_fixture():
    model = train([["a"]], order=1, discount=0.5)
    assert model.perplexity([["a"]]) <= len(model.prediction_vocabulary)

    fx = PINNED["perplexity"]
    model = train(fx["train"], order=fx["order"], discount=fx["discount"])
    got = model.perplexity(fx["eval"])
    assert got == pytest.approx(fx["value"], abs=1e-9)
    # independent check straight off the ARPA text
    buf = io.StringIO()
    write_arpa(model, buf)
    independent = arpa_perplexity(buf.getvalue(), model.order, fx["eval"])
    assert got == pytest.approx(independent, abs=1e-9)
    with pytest.raises(EmptyCorpus):
        model.perplexity([])


def test_uniform_model_perplexity_is_vocab_size():
    from pinasr.ngram_lm import NGramModel

    tokens = ("a", "b", "c", EOS)
    prob = {(t,): math.log10(1 / len(tokens)) for t in tokens}
    prob[(BOS,)] = -99.0
    model = NGramModel(
        order=1, vocabulary=frozenset(tokens) | {BOS}, prob_table=prob, backoff_table={}
    )
    assert model.perplexity([["a", "b"], ["c"]]) == pytest.approx(len(tokens), abs=1e-9)


def test_perplexity_improves_as_data_doubles():
    # Held-out perplexity is non-increasing along the 25/50/100/200 ladder
    # of bundled training sentences (fixed split, order 3).
    from pinasr import assets
    from pinasr.corpus import build_parallel

    lexicon = assets.default_lexicon()
    vocabulary = sorted(assets.default_inventory().tonal_units)
    heldout = build_parallel(assets.read_sentences("corpus_heldout.txt"), lexicon, "h")
    heldout_tokens = [[str(s) for s in py] for _, py in heldout.pairs]
    sentences = assets.read_sentences("corpus_train.txt")
    perplexities = []
    for size in (25, 50, 100, 200):
        pairs = build_parallel(sentences[:size], lexicon, "t")
        corpus = [[str(s) for s in py] for _, py in pairs.pairs]
        model = train(corpus, order=3, discount=0.6, vocabulary=vocabulary)
        perplexities.append(model.perplexity(heldout_tokens))
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
        assert back.score_token(context, token) == model.score_token(context, token)


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
    with pytest.raises(MalformedArpa, match="end"):
        read_arpa(io.StringIO(broken))


def test_arpa_rejects_garbage():
    with pytest.raises(MalformedArpa):
        read_arpa(io.StringIO("not arpa at all\n"))
    with pytest.raises(MalformedArpa, match="declares"):
        read_arpa(io.StringIO("\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\ta\n\n\\end\\\n"))
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
    assert model.score_token([BOS], "a") == -0.1


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
    assert model.score_token([BOS], "a") == -0.1
    with pytest.raises(OutOfVocabulary, match="'zz'"):
        model.score_token([BOS], "zz")
    with pytest.raises(OutOfVocabulary, match="'zz'"):
        model.score_token([], "zz")
    with pytest.raises(OutOfVocabulary, match="'zz'"):
        model.score_token(["zz"], "a")
    assert issubclass(OutOfVocabulary, ValueError)
