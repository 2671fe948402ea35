import json
import random
from pathlib import Path

import pytest

from pinasr import assets
from pinasr.ambiguity import TSV_HEADER, mapping_stats, render_table, render_tsv, stats_report
from pinasr.corpus import EmptyCorpus, ParallelCorpus, build_parallel
from reference_impls import naive_mapping_recount

PINNED = json.loads((Path(__file__).parent / "fixtures" / "pinned.json").read_text())


@pytest.fixture(scope="module")
def toy20():
    return build_parallel(assets.read_sentences("corpus_toy20.txt"), assets.default_lexicon())


def random_corpus(rng, lexicon, max_sentences=40):
    chars = sorted(lexicon.characters)
    sentences = [
        "".join(rng.choice(chars) for _ in range(rng.randint(1, 12)))
        for _ in range(rng.randint(1, max_sentences))
    ]
    return build_parallel(sentences, lexicon)


def test_single_sentence_all_unique():
    lexicon = assets.default_lexicon()
    corpus = build_parallel(["他说明天早上要去学校"], lexicon)
    for n in (1, 2, 3):
        stats = mapping_stats(corpus, n, tonal=True)
        assert stats.average == 1.0
        assert stats.pct_unique == 100.0


def test_empty_corpus_errors():
    with pytest.raises(EmptyCorpus):
        mapping_stats(ParallelCorpus(pairs=[]), 1)


def test_window_longer_than_sentences_errors():
    lexicon = assets.default_lexicon()
    corpus = build_parallel(["中国人"], lexicon)
    with pytest.raises(EmptyCorpus):
        mapping_stats(corpus, 4)


def test_n_validated(toy20):
    with pytest.raises(ValueError):
        mapping_stats(toy20, 0)
    with pytest.raises(ValueError):
        stats_report(toy20, 0)


def test_toy20_matches_naive_recount_and_fixture(toy20):
    for n in (1, 2, 3):
        for tonal in (True, False):
            stats = mapping_stats(toy20, n, tonal=tonal)
            want = naive_mapping_recount(toy20.pairs, n, tonal)
            assert stats.num_keys == want["num_keys"]
            assert stats.average == pytest.approx(want["average"], abs=1e-12)
            assert stats.maximum == want["maximum"]
            assert stats.pct_unique == pytest.approx(want["pct_unique"], abs=1e-12)
            frozen = PINNED["toy20_stats"][f"n{n}_{'tonal' if tonal else 'toneless'}"]
            assert stats.num_keys == frozen["num_keys"]
            assert stats.average == pytest.approx(frozen["average"], abs=1e-9)
            assert stats.maximum == frozen["maximum"]
            assert stats.pct_unique == pytest.approx(frozen["pct_unique"], abs=1e-9)


def test_windowed_equals_naive_on_seeded_corpora():
    rng = random.Random(31)
    lexicon = assets.default_lexicon()
    for _ in range(10):
        corpus = random_corpus(rng, lexicon)
        n = rng.randint(1, 3)
        for tonal in (True, False):
            try:
                stats = mapping_stats(corpus, n, tonal=tonal)
            except EmptyCorpus:
                continue
            want = naive_mapping_recount(corpus.pairs, n, tonal)
            assert stats.average == pytest.approx(want["average"], abs=1e-12)
            assert stats.maximum == want["maximum"]
            assert stats.pct_unique == pytest.approx(want["pct_unique"], abs=1e-12)


def test_merge_monotonicity_on_deterministic_corpora():
    # Corpora produced by a deterministic character->unit map: tone
    # stripping only merges keys, so the average and maximum cannot drop.
    rng = random.Random(32)
    lexicon = assets.default_lexicon()
    for _ in range(15):
        corpus = random_corpus(rng, lexicon)
        n = rng.randint(1, 3)
        try:
            tonal = mapping_stats(corpus, n, tonal=True)
            toneless = mapping_stats(corpus, n, tonal=False)
        except EmptyCorpus:
            continue
        assert toneless.average >= tonal.average - 1e-12
        assert toneless.maximum >= tonal.maximum
        assert toneless.num_keys <= tonal.num_keys


def test_report_rows_and_determinism(toy20):
    report = stats_report(toy20, 3)
    assert len(report) == 3
    assert render_tsv(report) == render_tsv(stats_report(toy20, 3))
    assert render_table(report) == render_table(stats_report(toy20, 3))


def test_tsv_layout(toy20):
    text = render_tsv(stats_report(toy20, 2))
    lines = text.splitlines()
    assert lines[0] == TSV_HEADER
    assert len(lines) == 3
    first = lines[1].split("\t")
    assert first[0] == "1" and len(first) == 7


def test_table_has_parenthesized_toneless(toy20):
    table = render_table(stats_report(toy20, 1))
    assert "(" in table and "%" in table
