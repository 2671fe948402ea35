"""Run one ``pinasr`` command in this process with each layer's public
functions wrapped, then write per-layer times and counts as JSON.

    python3 bench/trace_child.py STATS.json pipeline --unit-mode tonal ...

The arguments after STATS.json are passed unchanged to ``pinasr.cli.main``,
and the exit code is its return value. Nothing under ``src/`` changes: the
wrappers are installed from here, on the names the callers look up (``cli``
imports several functions by name, so those are patched on ``pinasr.cli``).
A missing name raises AttributeError before the command starts.

Every wrapped call is a span. Spans are kept as a stack; a span's self time
is its duration minus the durations of the spans opened inside it, and the
time spent in the counting hooks below is charged to no layer. LM queries
are counted by the layer whose span is innermost when they are made.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# Per command: the span that starts an utterance and the span that ends it.
UTTERANCE_SPANS = {
    "pipeline": ("simulate.synth", "transcriber.search"),
    "synth": ("simulate.synth", "ctc.em_write"),
    "decode": ("ctc.em_read", "ctc.beam"),
}


class Tracer:
    def __init__(self, command: str):
        self.stack: list[list] = []  # [span name, time covered by child spans]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.utt_ms: list[float] = []
        self.utt_start: float | None = None
        self.utt_first, self.utt_last = UTTERANCE_SPANS.get(command, (None, None))

    def wrap(self, owner, attr: str, name: str, hook=None, count_caller: bool = False) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        ``hook(bound_arguments, result)`` runs after the span closes, to
        count work; ``count_caller`` counts calls by the calling layer.
        """
        fn = getattr(owner, attr)
        signature = inspect.signature(fn) if hook else None
        stack, calls, total_s, self_s = self.stack, self.calls, self.total_s, self.self_s

        def wrapper(*args, **kwargs):
            if count_caller:
                caller = stack[-1][0].split(".")[0] if stack else "none"
                self.counts[f"{name.split('.')[0]}.queries.{caller}"] += 1
            if name == self.utt_first:
                self.utt_start = perf_counter()
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if name == self.utt_last and self.utt_start is not None:
                self.utt_ms.append((end - self.utt_start) * 1e3)
                self.utt_start = None
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result)
                if stack:
                    stack[-1][1] += perf_counter() - end
            return result

        setattr(owner, attr, wrapper)

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"calls": n, "total_s": self.total_s[name], "self_s": self.self_s[name]}
                for name, n in sorted(self.calls.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "utt_ms": self.utt_ms,
        }


def install(tracer: Tracer) -> None:
    from pinasr import assets, cli, ctc, metrics, ngram_lm, simulate, transcriber

    counts = tracer.counts

    def count_frames(arguments, emissions):
        counts["simulate.frames"] += emissions.num_frames

    def count_beam(arguments, result):
        log_probs = arguments["emissions"].log_probs
        counts["ctc.beam_frames"] += log_probs.shape[0]
        counts["ctc.active"] += int((log_probs > arguments["config"].prune_threshold).sum())

    def count_written(arguments, result):
        counts["ctc.em_bytes_written"] += arguments["sink"].tell()

    def count_read(arguments, result):
        counts["ctc.em_bytes_read"] += os.fstat(arguments["source"].fileno()).st_size

    def count_lattice(arguments, lattice):
        lexicon, tonal = arguments["lexicon"], arguments.get("tonal", True)
        counts["transcriber.positions"] += len(lattice.positions)
        counts["transcriber.candidates"] += sum(len(p) for p in lattice.positions)
        counts["transcriber.fallbacks"] += sum(
            1 for unit in lattice.units if not lexicon.homophones(unit, tonal=tonal)
        )

    tracer.wrap(cli, "main", "cli")
    for attr in ("default_inventory", "default_lexicon", "read_sentences"):
        tracer.wrap(assets, attr, "assets.load")
    for attr in ("build_parallel", "filter_sentences"):
        tracer.wrap(cli, attr, "corpus.build")
    tracer.wrap(ngram_lm, "train", "ngram_lm.train")
    tracer.wrap(ngram_lm.NGramModel, "score_token", "ngram_lm.query", count_caller=True)
    tracer.wrap(cli, "synth_emissions", "simulate.synth", hook=count_frames)
    tracer.wrap(simulate, "confusion_map", "simulate.confusion_map")
    tracer.wrap(ctc.EmissionMatrix, "__post_init__", "ctc.emission_check")
    tracer.wrap(cli, "prefix_beam_search", "ctc.beam", hook=count_beam)
    tracer.wrap(cli, "write_emissions", "ctc.em_write", hook=count_written)
    tracer.wrap(cli, "read_emissions", "ctc.em_read", hook=count_read)
    tracer.wrap(transcriber, "build_lattice_lenient", "transcriber.lattice", hook=count_lattice)
    tracer.wrap(transcriber, "beam_transcribe", "transcriber.search")
    for attr in ("error_rate", "tone_stripped_rescore"):
        tracer.wrap(metrics, attr, "metrics.score")


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: trace_child.py STATS.json PINASR-ARGS...", file=sys.stderr)
        return 2
    stats_path, command = argv[0], argv[1:]
    tracer = Tracer(command[0])
    install(tracer)
    from pinasr import cli

    code = cli.main(command)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
