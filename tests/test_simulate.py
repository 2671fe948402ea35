import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pinasr import assets
from pinasr.cli import Pipeline, PipelineConfig
from pinasr.corpus import build_parallel
from pinasr.ctc import greedy_decode
from pinasr.pinyin import InvalidSyllable, strip_tone
from pinasr.simulate import POLICIES, SimConfig, _add, _sum_tree, _uniform_stream, confusion_map, synth_emissions
from reference_impls import all_pairs_confusion_map, scalar_draw_synth_emissions, sequence_logprob

PINNED = json.loads((Path(__file__).parent / "fixtures" / "pinned.json").read_text())

ALPHA = ("ma1", "ma2", "ma3", "ma4", "ma5", "gu1", "gu3", "zhong1", "zhong4", "chong2", "e4")


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(frames_per_unit=1)
    with pytest.raises(ValueError):
        SimConfig(blank_fill=0.0)
    with pytest.raises(ValueError):
        SimConfig(confusion_temperature=-0.1)
    with pytest.raises(ValueError):
        SimConfig(confusion_policy="nope")


def test_temperature_zero_is_lossless():
    config = SimConfig(frames_per_unit=2, confusion_temperature=0.0, seed=1)
    sequence = ["ma1", "ma1", "zhong1"]  # repeated unit exercises the release frame
    emissions = synth_emissions(sequence, ALPHA, config)
    assert greedy_decode(emissions) == sequence
    assert sequence_logprob(emissions, sequence) == 0.0


def test_temperature_zero_rows_one_hot():
    emissions = synth_emissions(["gu3"], ALPHA, SimConfig(confusion_temperature=0.0))
    probs = np.power(10.0, emissions.log_probs)
    assert np.all(np.isin(probs, (0.0, 1.0)))


def test_fixed_seed_reproducible():
    config = SimConfig(confusion_temperature=1.3, confusion_policy="tone-neighbor", seed=77)
    a = synth_emissions(["zhong1", "chong2"], ALPHA, config)
    b = synth_emissions(["zhong1", "chong2"], ALPHA, config)
    assert np.array_equal(a.log_probs, b.log_probs)
    c = synth_emissions(["zhong1", "chong2"], ALPHA, SimConfig(
        confusion_temperature=1.3, confusion_policy="tone-neighbor", seed=78))
    assert not np.array_equal(a.log_probs, c.log_probs)


@given(st.floats(0.0, 4.0), st.sampled_from(POLICIES))
@settings(max_examples=25, deadline=None)
def test_rows_normalize_at_any_temperature(temperature, policy):
    config = SimConfig(confusion_temperature=temperature, confusion_policy=policy, seed=5)
    emissions = synth_emissions(["ma3", "zhong1", "e4"], ALPHA, config)
    sums = np.power(10.0, emissions.log_probs).sum(axis=1)
    assert np.all(np.abs(sums - 1.0) < 1e-6)


def test_frame_layout():
    config = SimConfig(frames_per_unit=3, confusion_temperature=0.0)
    emissions = synth_emissions(["ma1", "gu3"], ALPHA, config)
    assert emissions.num_frames == 2 * (3 + 1)
    empty = synth_emissions([], ALPHA, config)
    assert empty.num_frames == 1 and greedy_decode(empty) == []


def test_unknown_unit_rejected():
    with pytest.raises(InvalidSyllable):
        synth_emissions(["xx9"], ALPHA, SimConfig())


def test_duplicate_alphabet_label_rejected_on_every_call():
    # EmissionMatrix rejects the repeated label, before and after the label index is cached.
    for _ in range(2):
        with pytest.raises(ValueError, match="duplicate"):
            synth_emissions(["ma1"], ("ma1", "gu1", "ma1"), SimConfig())


@pytest.mark.parametrize("policy", POLICIES)
def test_zero_release_leak_lists_no_entry(policy):
    # blank_fill 1 leaves the release leak at 0: the neighbour is not listed,
    # as log10(0) = -inf was not.
    config = SimConfig(blank_fill=1.0, confusion_temperature=2.5, confusion_policy=policy, seed=4)
    units = ["zhong1", "ma3", "ma3"]
    got = synth_emissions(units, ALPHA, config)
    assert got.frames == scalar_draw_synth_emissions(units, ALPHA, config).frames
    assert all(frame == ((len(ALPHA), 0.0),) for frame in got.frames[3::4])


def test_tone_neighbor_leak_stays_in_segment():
    config = SimConfig(confusion_temperature=2.0, confusion_policy="tone-neighbor", seed=3)
    emissions = synth_emissions(["zhong1"], ALPHA, config)
    probs = np.power(10.0, emissions.log_probs[0])
    active = {i for i in np.nonzero(probs > 0)[0]}
    allowed = {ALPHA.index("zhong1"), ALPHA.index("zhong4"), len(ALPHA)}
    assert active <= allowed


def test_confusion_map_policies():
    tone = confusion_map(ALPHA, "tone-neighbor")
    assert {ALPHA[i] for i in tone["ma1"]} == {"ma2", "ma3", "ma4", "ma5"}
    final = confusion_map(ALPHA, "final-neighbor")
    assert {ALPHA[i] for i in final["zhong1"]} == set()  # no other *ong1 units here
    assert {ALPHA[i] for i in final["gu3"]} == set()
    uniform = confusion_map(ALPHA, "uniform")
    assert len(uniform["ma1"]) == len(ALPHA) - 1
    toneless = confusion_map(("ma", "gu", "zhong", "chong"), "final-neighbor")
    assert toneless["zhong"] == (3,)  # chong shares the final
    assert confusion_map(("ma", "gu"), "tone-neighbor")["ma"] == ()


@pytest.mark.parametrize("tonal", [True, False])
def test_confusion_map_matches_all_pairs_definition(tonal):
    inventory = assets.default_inventory()
    alphabet = tuple(sorted(inventory.tonal_units if tonal else inventory.toneless_units))
    for policy in POLICIES:
        assert confusion_map(alphabet, policy) == all_pairs_confusion_map(alphabet, policy), policy


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("tonal", [True, False])
def test_synth_matches_scalar_draw_reference(tonal, policy):
    # Drawing a frame's jitter in one vector call must give the matrices
    # one scalar draw per entry gave, bit for bit, entry for entry.
    inventory = assets.default_inventory()
    alphabet = tuple(sorted(inventory.tonal_units if tonal else inventory.toneless_units))
    sequences = [["zhong1", "guo2", "guo2", "ren2", "e4"], ["ma3"], []]
    if not tonal:
        sequences = [[strip_tone(unit) for unit in units] for units in sequences]
    for temperature in (0.0, 0.5, 2.5):
        for seed in (0, 7, 12345):
            for frames_per_unit, blank_fill in ((3, 0.9), (2, 0.6), (3, 1.0)):
                config = SimConfig(frames_per_unit=frames_per_unit, blank_fill=blank_fill,
                                   confusion_temperature=temperature, confusion_policy=policy, seed=seed)
                for units in sequences:
                    got = synth_emissions(units, alphabet, config)
                    want = scalar_draw_synth_emissions(units, alphabet, config)
                    assert got.frames == want.frames, (temperature, seed, blank_fill, units)
                    assert np.array_equal(got.log_probs, want.log_probs), (temperature, seed, blank_fill, units)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**128), sizes=st.lists(st.integers(0, 10), max_size=5))
@example(seed=0, sizes=[50])
@example(seed=2**32 - 1, sizes=[7, 0, 10])
@example(seed=2**32, sizes=[1, 10, 10])   # 2**32 and up take two or more 32-bit words of entropy
@example(seed=2**64 + 3, sizes=[10, 10, 10, 10, 10])
@example(seed=2**128, sizes=[0, 3])
def test_uniform_stream_matches_numpy(seed, sizes):
    draw = _uniform_stream(seed, 0.5, 1.5)
    got = [x for size in sizes for x in draw(size)]
    assert got == np.random.default_rng(seed).uniform(0.5, 1.5, size=sum(sizes)).tolist()


def _sparse_sum(n, entries):
    """numpy's sum of a zero row of n with ``entries`` added in, and the sparse sum of the same row."""
    dense, weights = np.zeros(n), {}
    with np.errstate(over="ignore"):   # an overflowing row sums to inf both ways
        for c, w in entries:
            dense[c] += w
            weights[c] = weights.get(c, 0.0) + w
        want = float(dense.sum())
    columns = tuple(sorted(weights))
    return want, _add(_sum_tree(n, columns), [weights[c] for c in columns])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sparse_row_sum_matches_numpy(data):
    # Rows under 8 are one run added onto 0.0, rows of 8 to 128 one run of
    # eight accumulators, longer rows split; repeated columns merge as += does.
    n = data.draw(st.one_of(st.integers(1, 130), st.integers(1, 2000)))
    weight = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    entries = data.draw(st.lists(st.tuples(st.integers(0, n - 1), weight), max_size=n))
    want, got = _sparse_sum(n, entries)
    assert got == want


@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 127, 128, 129, 136, 257, 411, 1651, 2000])
def test_full_half_and_strided_rows_sum_as_numpy(n):
    # One column in eight fills a single accumulator, so its order of
    # additions decides the total.
    rng = np.random.default_rng(n)
    for columns in (range(n), np.flatnonzero(rng.random(n) < 0.5).tolist(), range(3 % n, n, 8)):
        for spread in (0, 6):
            values = rng.uniform(0.5, 1.5, size=len(columns)) * 10.0 ** rng.integers(-spread, spread + 1, size=len(columns))
            want, got = _sparse_sum(n, zip(columns, values.tolist()))
            assert got == want, (columns, spread)

def test_greedy_exact_below_pinned_temperature():
    # Established by scripts/noise_sweep.py and pinned: at this temperature
    # greedy decoding reproduces the whole bundled held-out suite.
    tau = PINNED["greedy_exact_temperature"]
    inventory = assets.default_inventory()
    alphabet = tuple(sorted(inventory.tonal_units))
    pairs = build_parallel(
        assets.read_sentences("corpus_heldout.txt"), assets.default_lexicon()
    )
    for index, (_, pinyin) in enumerate(pairs.pairs):
        units = list(pinyin)
        config = SimConfig(
            frames_per_unit=3,
            confusion_temperature=tau,
            confusion_policy="tone-neighbor",
            seed=PINNED["noisy_suite"]["seed"] + index,
        )
        assert greedy_decode(synth_emissions(units, alphabet, config)) == units


def test_greedy_pin_is_what_the_noise_sweep_finds():
    # The pin is the sweep's answer: the largest grid temperature at which
    # greedy decoding reproduces every held-out utterance, run through the
    # script's own code and config.
    path = Path(__file__).parent.parent / "scripts" / "noise_sweep.py"
    spec = importlib.util.spec_from_file_location("noise_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.SEED == PINNED["noisy_suite"]["seed"]
    heldout = Pipeline(PipelineConfig()).utterances("", "corpus_heldout.txt", "heldout")
    assert len(heldout) == 220
    tau = PINNED["greedy_exact_temperature"]
    grid = [float(t) for t in sweep.GREEDY_GRID.split(",")]
    assert tau in grid
    wrong = sweep.greedy_exactness([t for t in grid if t >= tau])
    assert wrong[tau] == 0
    assert all(wrong[t] > 0 for t in grid if t > tau)
