"""Acceptance suite: one test per criterion, each printing a PASS line.

Oracle-based and directional checks over the whole toolkit; the noisy-suite
thresholds were established once by scripts/noise_sweep.py and are pinned
in fixtures/pinned.json.
"""

import io
import json
import random
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from pinasr import assets
from pinasr.ambiguity import mapping_stats
from pinasr.cli import PipelineConfig, cmd_pipeline
from pinasr.corpus import build_parallel
from pinasr.ctc import DecoderConfig, EmissionMatrix, prefix_beam_search
from pinasr.metrics import edit_distance
from pinasr.ngram_lm import read_arpa, train, write_arpa
from pinasr.pinyin import parse_syllable, strip_tone
from pinasr.transcriber import beam_transcribe
from reference_impls import (
    brute_force_decode,
    enumerate_lattice_best,
    min_frames_required,
    recursive_edit_distance,
    sequence_logprob,
)
from test_transcriber import random_lattice, random_lm

PINNED = json.loads((Path(__file__).parent / "fixtures" / "pinned.json").read_text())


def report_pass(number: int, message: str) -> None:
    print(f"[acceptance] criterion {number}: {message}: PASS", flush=True)


def random_emissions(rng, T, V):
    probs = rng.dirichlet(np.ones(V + 1), size=T)
    return EmissionMatrix(np.log10(probs), tuple("abcd"[:V]), blank_index=V)


def test_criterion_1_ctc_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    fusion = train(
        [["a", "b"], ["b", "a"], ["a", "b", "a"], ["c", "d"]],
        order=2, discount=0.6, vocabulary=list("abcd"),
    )
    instances = 0
    while instances < 200:
        T = int(rng.integers(1, 7))
        V = int(rng.integers(1, 5))
        emissions = random_emissions(rng, T, V)
        lm, alpha, beta = ((None, 0.0, 0.0), (fusion, 0.5, 0.1))[instances % 2]
        config = DecoderConfig(beam_width=10**9, lm_weight=alpha, insertion_bonus=beta)
        got_labels, got_score = prefix_beam_search(emissions, lm, config)[0]
        want_labels, want_score = brute_force_decode(emissions, lm, alpha, beta)
        assert got_labels == want_labels, (instances, got_labels, want_labels)
        assert abs(got_score - want_score) <= 1e-9
        instances += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    report_pass(1, f"exhaustive beam == brute force on {instances} instances in {elapsed:.1f}s")


def test_criterion_2_ctc_normalization():
    rng = np.random.default_rng(1002)
    checked = 0
    for T in range(1, 5):
        for V in range(1, 4):
            for _ in range(5):
                emissions = random_emissions(rng, T, V)
                total = 0.0
                for length in range(T + 1):
                    for combo in product(range(V), repeat=length):
                        if min_frames_required(combo) > T:
                            continue
                        labels = [emissions.unit_labels[u] for u in combo]
                        total += 10.0 ** sequence_logprob(emissions, labels)
                assert abs(total - 1.0) <= 1e-6, (T, V, total)
                checked += 1
    report_pass(2, f"collapsed-sequence mass sums to 1 on {checked} instances (T<=4, V<=3)")


def test_criterion_3_lm_well_formedness():
    rng = random.Random(1003)
    corpora = [
        [["a", "b"], ["a", "c"]],
        [["a"], ["b", "b", "a"], ["c", "a", "b"]],
        [[rng.choice("abcd") for _ in range(rng.randint(1, 6))] for _ in range(10)],
    ]
    contexts_checked = 0
    for corpus in corpora:
        for order in (1, 2, 3, 4):
            model = train(corpus, order=order, discount=0.55)
            for context in [()] + sorted(model.backoff_table):
                total = sum(
                    10.0 ** model.score_token(context, token)
                    for token in model.prediction_vocabulary
                )
                assert abs(total - 1.0) <= 1e-6, (order, context, total)
                contexts_checked += 1
            buf = io.StringIO()
            write_arpa(model, buf)
            reloaded = read_arpa(io.StringIO(buf.getvalue()))
            assert reloaded.prob_table.keys() == model.prob_table.keys()
            for gram, value in model.prob_table.items():
                assert abs(reloaded.prob_table[gram] - value) <= 1e-9
            for gram, value in model.backoff_table.items():
                assert abs(reloaded.backoff_table[gram] - value) <= 1e-9
    report_pass(3, f"{contexts_checked} contexts normalize; ARPA round-trips within 1e-9")


def test_criterion_4_transcriber_oracle_equivalence():
    rng = np.random.default_rng(1004)
    for case in range(100):
        lm = random_lm(rng, order=int(rng.integers(1, 4)))
        lattice = random_lattice(rng, max_positions=8, max_candidates=10)
        weight = float(rng.uniform(0.2, 2.0))
        got = beam_transcribe(lattice, lm, weight, beam_width=None)[0]
        want_chars, want_score = enumerate_lattice_best(lattice, lm, weight)
        assert got.hanzi == "".join(want_chars), case
        assert got.total_score == pytest.approx(want_score, abs=1e-9)
    report_pass(4, "Viterbi == exhaustive enumeration on 100 lattices (<=8 pos, <=10 cands)")


def test_criterion_5_tone_strip_homomorphism():
    inventory = assets.default_inventory()
    units = sorted(assets.default_lexicon().all_units())
    rng = random.Random(1005)
    pairs = 0
    for _ in range(500):
        ref = [rng.choice(units) for _ in range(rng.randint(0, 10))]
        if rng.random() < 0.5:
            hyp = list(ref)
            for _ in range(rng.randint(0, 3)):  # local edits keep pairs related
                if hyp and rng.random() < 0.6:
                    hyp[rng.randrange(len(hyp))] = rng.choice(units)
                else:
                    hyp.insert(rng.randint(0, len(hyp)), rng.choice(units))
        else:
            hyp = [rng.choice(units) for _ in range(rng.randint(0, 10))]
        tonal = edit_distance(ref, hyp).distance
        stripped = edit_distance(
            [strip_tone(parse_syllable(u, inventory)) for u in ref],
            [strip_tone(parse_syllable(u, inventory)) for u in hyp],
        ).distance
        assert stripped <= tonal, (ref, hyp)
        pairs += 1
    report_pass(5, f"tone-stripped distance <= tonal distance on {pairs} pairs")


def test_criterion_6_ambiguity_stats_oracle():
    from reference_impls import naive_mapping_recount

    toy = build_parallel(
        assets.read_sentences("corpus_toy20.txt"), assets.default_lexicon(), "toy20"
    )
    for n in range(1, 7):
        tonal = mapping_stats(toy, n, tonal=True)
        toneless = mapping_stats(toy, n, tonal=False)
        for stats, flag in ((tonal, True), (toneless, False)):
            want = naive_mapping_recount(toy.pairs, n, flag)
            assert stats.num_keys == want["num_keys"]
            assert stats.average == want["average"]
            assert stats.maximum == want["maximum"]
            assert stats.pct_unique == want["pct_unique"]
        assert toneless.pct_unique <= tonal.pct_unique, n
    report_pass(6, "windowed stats == naive recount for n in 1..6; uniqueness monotone")


def test_criterion_7_end_to_end_losslessness(tmp_path):
    config = PipelineConfig(
        eval_corpus="",  # bundled held-out set is replaced below by train
        temperature=0.0,
        seed=2024,
        out_dir=str(tmp_path / "clean"),
    )
    config.eval_corpus = str(assets.data_path("corpus_train.txt"))
    assert cmd_pipeline(config) == 0
    report = dict(
        line.split("\t")
        for line in (tmp_path / "clean" / "report.tsv").read_text().splitlines()
    )
    assert float(report["uer"]) == 0.0
    assert float(report["uer_tone_stripped"]) == 0.0
    assert float(report["cer"]) == 0.0
    assert int(report["utterances"]) == 200
    report_pass(7, "temperature-0 pipeline: UER 0%, CER 0% over 200 utterances")


def test_criterion_8_directional_lm_benefit(tmp_path):
    pins = PINNED["noisy_suite"]
    results = {}
    for tag, mode, policy, use_lm in (
        ("tonal_lm", "tonal", "tone-neighbor", True),
        ("tonal_nolm", "tonal", "tone-neighbor", False),
        ("toneless_lm", "toneless", "final-neighbor", True),
    ):
        config = PipelineConfig(
            unit_mode=mode,
            confusion_policy=policy,
            temperature=pins["temperature"],
            lm_weight=pins["lm_weight"],
            use_pinyin_lm=use_lm,
            seed=pins["seed"],
            out_dir=str(tmp_path / tag),
        )
        assert cmd_pipeline(config) == 0
        report = dict(
            line.split("\t")
            for line in (tmp_path / tag / "report.tsv").read_text().splitlines()
        )
        assert int(report["utterances"]) >= 200
        results[tag] = {k: float(v) for k, v in report.items() if k in ("uer", "cer")}

    assert results["tonal_lm"]["cer"] <= results["tonal_nolm"]["cer"]
    assert results["tonal_lm"]["cer"] <= results["toneless_lm"]["cer"]
    for tag, values in results.items():
        for key, value in values.items():
            assert value == pytest.approx(pins["pipeline"][tag][key], abs=0.02), (tag, key)
    report_pass(
        8,
        "noisy suite: LM-fused CER {:.4f} <= no-LM {:.4f}; tonal {:.4f} <= toneless {:.4f}".format(
            results["tonal_lm"]["cer"],
            results["tonal_nolm"]["cer"],
            results["tonal_lm"]["cer"],
            results["toneless_lm"]["cer"],
        ),
    )


def test_criterion_9_metric_axioms():
    rng = random.Random(1009)
    token_pool = "abcdef"
    for _ in range(1000):
        a = [rng.choice(token_pool) for _ in range(rng.randint(0, 8))]
        b = [rng.choice(token_pool) for _ in range(rng.randint(0, 8))]
        c = [rng.choice(token_pool) for _ in range(rng.randint(0, 8))]
        dab = edit_distance(a, b).distance
        dba = edit_distance(b, a).distance
        dac = edit_distance(a, c).distance
        dcb = edit_distance(c, b).distance
        assert (dab == 0) == (a == b)
        assert dab == dba
        assert dab <= dac + dcb
        assert dab == recursive_edit_distance(a, b)
    report_pass(9, "identity/symmetry/triangle + quadratic cross-check on 1000 triples")
