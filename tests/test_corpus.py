import io

import pytest
from hypothesis import given, strategies as st

from pinasr import assets
from pinasr.pinyin import InvalidSyllable, InvalidTone
from pinasr.corpus import (
    ParallelCorpus,
    build_parallel,
    filter_sentences,
    normalize_hanzi,
    read_parallel_tsv,
)
from reference_impls import garbled_text, write_parallel_tsv


@pytest.fixture(scope="module")
def lexicon():
    return assets.default_lexicon()


def test_boundary_inclusion():
    lines = ["一二三", "一二三四五", "一" * 40, "一" * 41]
    result = filter_sentences(lines, 5, 40)
    assert result.sentences == ["一二三四五", "一" * 40]
    assert result.out_of_bounds == 2


def test_duplicates_kept_once():
    result = filter_sentences(["我们去公园玩", "我们去公园玩"], 5, 40)
    assert result.sentences == ["我们去公园玩"]
    assert result.duplicates == 1


def test_malformed_counted():
    result = filter_sentences(["hello world", "", "！？"], 5, 40)
    assert result.sentences == [] and result.malformed == 3


def test_normalization_strips_punct_and_ascii():
    assert normalize_hanzi("今天，天气很好！(nice)") == "今天天气很好"


def test_bounds_validated():
    with pytest.raises(ValueError):
        filter_sentences([], 0, 5)
    with pytest.raises(ValueError):
        filter_sentences([], 6, 5)


@given(st.lists(st.text(alphabet="一二三四五六七八九十。，ab ", max_size=12), max_size=30))
def test_filter_idempotent(lines):
    first = filter_sentences(lines, 2, 8)
    second = filter_sentences(first.sentences, 2, 8)
    assert second.sentences == first.sentences
    assert second.malformed == second.out_of_bounds == second.duplicates == 0


def test_build_parallel_fixture(lexicon):
    corpus = build_parallel(["中国"], lexicon)
    assert len(corpus) == 1
    hanzi, pinyin = corpus.pairs[0]
    assert hanzi == "中国"
    assert pinyin == ("zhong1", "guo2")


def test_build_parallel_empty(lexicon):
    assert len(build_parallel([], lexicon)) == 0


def test_build_parallel_skips_uncovered(lexicon):
    corpus = build_parallel(["中国", "中X国"], lexicon)
    assert len(corpus) == 1 and corpus.skipped == 1


def test_length_equality_invariant(lexicon):
    sentences = assets.read_sentences("corpus_train.txt")[:50]
    corpus = build_parallel(sentences, lexicon)
    for hanzi, pinyin in corpus.pairs:
        assert len(pinyin) == len(hanzi)


def test_parallel_tsv_round_trip(lexicon):
    corpus = build_parallel(["中国", "他说明天早上要去学校"], lexicon)
    buf = io.StringIO()
    write_parallel_tsv(corpus, buf)
    back = read_parallel_tsv(io.StringIO(buf.getvalue()), assets.default_inventory())
    assert back.pairs == corpus.pairs


def test_parallel_tsv_rejects_length_mismatch():
    with pytest.raises(ValueError, match="line 1"):
        read_parallel_tsv(io.StringIO("中国\tzhong1\n"), assets.default_inventory())


def test_parallel_tsv_bad_unit_names_line_and_keeps_type():
    with pytest.raises(InvalidTone, match=r"^line 2: tone digit out of range in 'zz9'$"):
        read_parallel_tsv(io.StringIO("中\tzhong1\n中\tzz9\n"), assets.default_inventory())
    with pytest.raises(InvalidSyllable, match=r"^line 1: not in inventory"):
        read_parallel_tsv(io.StringIO("中\tzz1\n"), assets.default_inventory())


@given(garbled_text(["中国\tzhong1 guo2", "", "我们\two3 men5", "中\tzhong4"]))
def test_parallel_tsv_garbage_raises_only_value_errors_naming_the_line(text):
    try:
        read_parallel_tsv(io.StringIO(text), assets.default_inventory())
    except ValueError as exc:
        assert str(exc).startswith("line "), exc
