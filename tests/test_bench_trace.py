"""The benchmark's layer tracer, bench/trace_child.py, wraps functions by
name on pinasr's modules. A rename there breaks only the traced benchmark
run, so these tests run the tracer on a small corpus and check that every
layer the benchmark reports was entered."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pinasr import assets

ROOT = Path(__file__).resolve().parent.parent
FLAGS = ["--seed", "12345", "--temperature", "2.5"]


@pytest.fixture()
def small_corpus(tmp_path):
    path = tmp_path / "small.txt"
    path.write_text("\n".join(assets.read_sentences("corpus_train.txt")[:12]) + "\n", encoding="utf-8")
    return path


def trace(tmp_path, *argv) -> dict:
    """Run one pinasr command under the tracer; returns its stats: spans
    and counts by name."""
    stats = tmp_path / f"{argv[0]}.json"
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "trace_child.py"), str(stats), *argv],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(stats.read_text(encoding="utf-8"))


def unseen(spans: dict, names) -> list[str]:
    return [name for name in names if spans.get(name, {}).get("calls", 0) == 0]


def test_tracer_sees_every_pipeline_layer(tmp_path, small_corpus):
    spans = trace(tmp_path, "pipeline", "--eval-corpus", str(small_corpus), *FLAGS, "--out-dir", "out")["spans"]
    assert unseen(spans, (
        "cli", "assets.load", "corpus.build", "simulate.synth", "ctc.emission_check", "ctc.beam",
        "ngram_lm.train", "ngram_lm.query", "transcriber.lattice", "transcriber.search", "metrics.score",
    )) == []


def test_tracer_sees_every_emission_file_layer(tmp_path, small_corpus):
    spans = trace(tmp_path, "synth", "--eval-corpus", str(small_corpus), *FLAGS, "--out-dir", "em")["spans"]
    assert unseen(spans, (
        "cli", "assets.load", "corpus.build", "simulate.synth", "ctc.emission_check", "ctc.em_write",
    )) == []
    spans = trace(tmp_path, "decode", "--emissions", "em")["spans"]
    assert unseen(spans, ("cli", "ctc.em_read", "ctc.emission_check", "ctc.beam")) == []
    assert "assets.load" not in spans and "corpus.build" not in spans   # decode loads no assets or corpus


def test_tracer_counts_lm_queries_of_both_searches_only(tmp_path, small_corpus):
    # The tracer counts NGramModel.score_token calls by the innermost span:
    # both searches query the LM, and nothing else does.
    counts = trace(tmp_path, "pipeline", "--use-pinyin-lm", "--eval-corpus", str(small_corpus), *FLAGS,
                   "--out-dir", "out")["counts"]
    queries = {name: n for name, n in counts.items() if name.startswith("ngram_lm.queries.")}
    assert set(queries) == {"ngram_lm.queries.ctc", "ngram_lm.queries.transcriber"}
    assert all(n > 0 for n in queries.values()), queries
