#!/usr/bin/env python3
"""Establish the pinned noise-suite numbers.

Two sweeps over the bundled held-out corpus:

1. Greedy recoverability: the largest grid temperature at which plain
   greedy decoding still reproduces every utterance exactly (no LM).
2. Pipeline operating point: UER/CER for the tonal and toneless pipelines
   with the unit LM on and off, at the pinned seed and temperature.

The printed values are frozen into tests/fixtures/pinned.json; the
acceptance suite then asserts the directional relationships and checks the
frozen values still reproduce.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pinasr.cli import Pipeline, PipelineConfig, run_pipeline
from reference_impls import greedy_decode

SEED = 12345
TEMPERATURE = 2.5
LM_WEIGHT = 0.3
GREEDY_GRID = "0.2,0.4,0.6,0.8,1.0,1.2,1.4,1.6"


def greedy_exactness(temperatures):
    pipe = Pipeline(PipelineConfig())
    utterances = [units for _, units in pipe.utterances("", "corpus_heldout.txt", "heldout")]
    results = {}
    for tau in temperatures:
        noisy = Pipeline(PipelineConfig(temperature=tau, seed=SEED))
        wrong = sum(greedy_decode(noisy.synthesize(units, i)) != units for i, units in enumerate(utterances))
        results[tau] = wrong
        print(f"greedy tau={tau}: {wrong}/{len(utterances)} utterances wrong")
    exact = [t for t, w in results.items() if w == 0]
    print(f"greedy exact up to tau={max(exact) if exact else None}")
    return results


def pipeline_point():
    rows = {}
    for mode, policy in (("tonal", "tone-neighbor"), ("toneless", "final-neighbor")):
        for use_lm in (True, False):
            tag = f"{mode}_{'lm' if use_lm else 'nolm'}"
            result = run_pipeline(PipelineConfig(
                unit_mode=mode, confusion_policy=policy, temperature=TEMPERATURE,
                lm_weight=LM_WEIGHT, use_pinyin_lm=use_lm, seed=SEED,
            ))
            # Rounded as report.tsv prints them, to the precision pinned.json holds.
            rows[tag] = {name: round(report.error_rate, 6) for name, report in result.scores.items()}
            print(tag, rows[tag])
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--greedy-grid", default=GREEDY_GRID,
        help="comma-separated temperatures for the greedy sweep",
    )
    args = parser.parse_args()
    greedy = greedy_exactness([float(t) for t in args.greedy_grid.split(",")])
    rows = pipeline_point()
    pinned = {
        "seed": SEED,
        "temperature": TEMPERATURE,
        "lm_weight": LM_WEIGHT,
        "greedy_exact_temperature": max(t for t, w in greedy.items() if w == 0),
        "pipeline": rows,
    }
    print("\npinned values:")
    print(json.dumps(pinned, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
