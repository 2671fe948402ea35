#!/usr/bin/env python3
"""pinasr benchmark: end-to-end times of the real commands, and a traced run
for per-layer times and counts.

    python3 bench/run.py --workload tonal-lm --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout. Each command runs as a fresh child
process (``python -m pinasr`` with ``src`` on the path), one at a time, from
this single process. Every output is checked against references recorded
in ``bench/refs/``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the details (all samples, UER/CER, output digests).
End-to-end times are scaled by a control workload timed between runs
(``bench/control.py``), which cancels slow and fast periods of the host.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced runs with runs under ``bench/trace_child.py`` and reports the
per-layer metrics. ``--record-refs`` rewrites the references for every
workload and seed slot; run it only on a commit whose outputs are known good.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

import control

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
REFS = BENCH / "refs"
WORK = ROOT / ".bench_work"
SRC = ROOT / "src"
PINNED = ROOT / "tests" / "fixtures" / "pinned.json"

PINNED_SEED = 12345       # the seed of tests/fixtures/pinned.json
SEED_SLOTS = 16           # --seed n runs pinasr seed PINNED_SEED + SEED_STRIDE * (n % SEED_SLOTS)
SEED_STRIDE = 1000        # > utterance count, so no two slots share a per-utterance seed
SETUP_MIN = 5             # set-up runs per measuring run, at least
CONTROL_REF_S = 1.0       # reported times are seconds of a host that runs the control in this time

SIM_FLAGS = [
    "--temperature", "2.5", "--frames-per-unit", "3", "--blank-fill", "0.9",
    "--min-len", "5", "--max-len", "40",
]
DECODER_FLAGS = [
    "--beam-width", "8", "--lm-weight", "0.3", "--insertion-bonus", "0.0",
    "--prune-threshold", "-13.0",
]
LM_FLAGS = [
    "--pinyin-lm-order", "4", "--char-lm-order", "5", "--lm-discount", "0.6",
    "--min-count", "1", "--channel-weight", "1.0", "--transcriber-beam", "32",
]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                       # "pipeline" or "em"
    flags: tuple[str, ...]          # unit mode, LM switch, confusion policy
    pinned: str                     # key of the noisy_suite pins this seed must match
    # Span calls and counts the traced run must see as nonzero.
    expect: tuple[str, ...]

    def commands(self, seed: int, eval_corpus: str | None) -> list[list[str]]:
        corpus = ["--eval-corpus", eval_corpus] if eval_corpus else []
        seeded = [*self.flags, *SIM_FLAGS, "--seed", str(seed), *corpus]
        if self.kind == "pipeline":
            return [["pipeline", *seeded, *DECODER_FLAGS, *LM_FLAGS, "--out-dir", "out"]]
        return [
            ["synth", *seeded, "--out-dir", "em"],
            ["decode", "--emissions", "em", *DECODER_FLAGS],
        ]


_COMMON_SPANS = ("cli", "assets.load", "corpus.build", "simulate.synth", "simulate.confusion_map",
                 "ctc.emission_check", "ctc.beam", "simulate.frames", "ctc.beam_frames", "ctc.active")
_PIPELINE_SPANS = ("ngram_lm.train", "ngram_lm.query", "ngram_lm.queries.transcriber",
                   "transcriber.lattice", "transcriber.search", "transcriber.positions",
                   "metrics.score")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tonal-lm", "pipeline",
            ("--unit-mode", "tonal", "--use-pinyin-lm", "--confusion-policy", "tone-neighbor"),
            "tonal_lm", _COMMON_SPANS + _PIPELINE_SPANS + ("ngram_lm.queries.ctc",),
        ),
        Workload(
            "toneless-nolm", "pipeline",
            ("--unit-mode", "toneless", "--no-use-pinyin-lm", "--confusion-policy", "final-neighbor"),
            "toneless_nolm", _COMMON_SPANS + _PIPELINE_SPANS,
        ),
        Workload(
            "em-roundtrip", "em",
            ("--unit-mode", "tonal", "--confusion-policy", "tone-neighbor"),
            "tonal_nolm", _COMMON_SPANS + ("ctc.em_write", "ctc.em_read", "ctc.em_bytes_read"),
        ),
    )
}


class BenchError(RuntimeError):
    """The benchmark cannot run here, or a traced run broke an expectation."""


@dataclass
class Suite:
    """One run of a workload's command sequence."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool                        # every command exited 0
    lines: list[str]                # one output line per utterance
    report: dict[str, str]          # scores the commands reported
    digest: str                     # sha256 over every file and stdout written
    em_bytes: int
    stats: list[dict] = field(default_factory=list)  # traced runs: one per command
    log: str = ""


def utterance_lines(workload: Workload, tmp: Path, stdout: list[bytes]) -> list[str]:
    """One line per utterance: units and Hanzi for the pipeline; decoded
    units and the reference line for the emission round trip."""
    if workload.kind == "pipeline":
        units = (tmp / "out" / "units.tsv").read_text(encoding="utf-8").splitlines()
        hyps = (tmp / "out" / "hyps.tsv").read_text(encoding="utf-8").splitlines()
        if len(units) != len(hyps):
            return []
        return [f"{u}\t{h}" for u, h in zip(units, hyps)]
    decoded = stdout[1].decode("utf-8").splitlines()
    refs = (tmp / "em" / "refs.tsv").read_text(encoding="utf-8").splitlines()
    if len(decoded) != len(refs):
        return []
    return [f"{d}\t{r}" for d, r in zip(decoded, refs)]


def edit_distance(ref: list[str], hyp: list[str]) -> int:
    row = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        prev, row[0] = row[0], i
        for j, h in enumerate(hyp, 1):
            prev, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, prev + (r != h))
    return row[-1]


def scores(workload: Workload, tmp: Path, lines: list[str]) -> dict[str, str]:
    """The pipeline's report.tsv without its config hash; for the round
    trip, the unit error rate of the decodes against synth's refs.tsv."""
    if workload.kind == "pipeline":
        report = dict(
            line.split("\t", 1)
            for line in (tmp / "out" / "report.tsv").read_text(encoding="utf-8").splitlines()
        )
        report.pop("config_hash", None)
        return report
    errors = ref_len = 0
    for line in lines:
        _, hyp, _, _, _, ref = line.split("\t")
        errors += edit_distance(ref.split(), hyp.split())
        ref_len += len(ref.split())
    return {"utterances": str(len(lines)), "uer": f"{errors / max(ref_len, 1):.6f}"}


def digest_tree(tmp: Path, stdout: list[bytes]) -> tuple[str, int]:
    """sha256 over stdout and every file the commands wrote (by relative
    path), and the bytes of .em files among them."""
    h = hashlib.sha256()
    for out in stdout:
        h.update(hashlib.sha256(out).digest())
    em_bytes = 0
    for path in sorted(p for p in tmp.rglob("*") if p.is_file()):
        rel = path.relative_to(tmp).as_posix()
        if not rel.startswith(("out/", "em/")):
            continue
        data = path.read_bytes()
        if path.suffix == ".em":
            em_bytes += len(data)
        h.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest(), em_bytes


def run_suite(workload: Workload, seed: int, eval_sentence: str | None, traced: bool) -> Suite:
    """Run the command sequence in a fresh directory under WORK, measure it,
    read back its outputs and delete the directory."""
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        corpus = None
        if eval_sentence is not None:
            (tmp / "eval.txt").write_text(eval_sentence + "\n", encoding="utf-8")
            corpus = "eval.txt"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        stdout, stats, log = [], [], []
        cpu = rss = 0.0
        ok = True
        start = time.perf_counter()
        for k, argv in enumerate(workload.commands(seed, corpus)):
            if traced:
                cmd = [sys.executable, str(BENCH / "trace_child.py"), f"stats{k}.json", *argv]
            else:
                cmd = [sys.executable, "-m", "pinasr", *argv]
            with open(tmp / f"stdout{k}", "wb") as out, open(tmp / f"stderr{k}", "wb") as err:
                proc = subprocess.Popen(cmd, cwd=tmp, env=env, stdout=out, stderr=err)
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:  # interrupted or terminated: leave no child behind
                    proc.kill()
                    proc.wait()
                    raise
                proc.returncode = os.waitstatus_to_exitcode(status)
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss / 1024.0)
            if proc.returncode != 0:
                ok = False
                log.append(f"{argv[0]} exited {proc.returncode}: "
                           + (tmp / f"stderr{k}").read_text(errors="replace")[-2000:])
                break
            stdout.append((tmp / f"stdout{k}").read_bytes())
        wall = time.perf_counter() - start
        lines, report, digest, em_bytes = [], {}, "", 0
        if ok:
            lines = utterance_lines(workload, tmp, stdout)
            report = scores(workload, tmp, lines)
            digest, em_bytes = digest_tree(tmp, stdout)
            if traced:
                stats = [json.loads((tmp / f"stats{k}.json").read_text()) for k in range(len(stdout))]
        return Suite(wall, cpu, rss, ok, lines, report, digest, em_bytes, stats, "\n".join(log))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def pinasr_seed(seed: int) -> int:
    return PINNED_SEED + SEED_STRIDE * (seed % SEED_SLOTS)


def ref_form(seed: int, line: str) -> str:
    """How a reference line is stored: in full for the pinned seed, as a
    16-hex sha256 prefix for the other seed slots."""
    return line if seed == PINNED_SEED else hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def load_refs(workload: Workload) -> dict:
    path = REFS / f"{workload.name}.json"
    if not path.is_file():
        raise BenchError(f"missing references {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def check_program() -> None:
    if not (SRC / "pinasr" / "cli.py").is_file():
        raise BenchError(f"no pinasr sources under {SRC}; run from the root of a checkout")
    if not PINNED.is_file():
        raise BenchError(f"missing {PINNED}")


class Checker:
    """Counts utterances whose output differs from the reference, and every
    other way a run can be wrong."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        ref = load_refs(workload)[str(seed)]
        self.ref_lines: list[str] = ref["utterances"]
        self.ref_report: dict[str, str] = ref["report"]
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def check(self, suite: Suite, expected: list[str], what: str) -> None:
        self.attempted += len(expected)
        if not suite.ok:
            self.failed += len(expected)
            self.problems.append(f"{what}: {suite.log}")
            return
        bad = sum(1 for i, line in enumerate(expected)
                  if i >= len(suite.lines) or ref_form(self.seed, suite.lines[i]) != line)
        bad += max(0, len(suite.lines) - len(expected))
        if bad:
            self.failed += min(bad, len(expected))
            self.problems.append(f"{what}: {bad} utterance lines differ from the references")

    def check_full(self, suite: Suite, what: str) -> None:
        self.check(suite, self.ref_lines, what)
        if suite.ok:
            self.digests.add(suite.digest)
            if suite.report != self.ref_report:
                self.problems.append(f"{what}: reported {suite.report}, references say {self.ref_report}")
            if self.seed == PINNED_SEED:
                self.problems += [f"{what}: {p}" for p in pinned_mismatches(self.workload, suite.report)]
        if len(self.digests) > 1:
            self.problems.append(f"{what}: outputs differ between repeats of one seed")

    def check_setup(self, suite: Suite) -> None:
        self.check(suite, self.ref_lines[:1], "set-up run")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def pinned_mismatches(workload: Workload, report: dict[str, str]) -> list[str]:
    suite = json.loads(PINNED.read_text(encoding="utf-8"))["noisy_suite"]
    if suite["seed"] != PINNED_SEED or suite["temperature"] != 2.5 or suite["lm_weight"] != 0.3:
        return [f"{PINNED} pins another noisy-suite configuration than this benchmark runs"]
    pins = suite["pipeline"][workload.pinned]
    keys = ("uer",) if workload.kind == "em" else tuple(pins)
    return [
        f"{key} {report.get(key)} differs from pinned {pins[key]:.6f}"
        for key in keys
        if report.get(key) != f"{pins[key]:.6f}"
    ]


def result_line(correct: bool, attempted: int, failed: int, kind: str, values: dict) -> str:
    """The result JSON, with the metrics and units BENCHMARK.json declares
    under ``kind``; a metric computed but not declared, or the reverse, is
    an error."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(values):
        raise BenchError(f"metrics {sorted(values)} differ from BENCHMARK.json {kind} {sorted(units)}")
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    })


def run_setup(checker: Checker, sentence: str) -> float:
    suite = run_suite(checker.workload, checker.seed, sentence, traced=False)
    checker.check_setup(suite)
    return suite.wall_s


class Control:
    """Times the control workload (bench/control.py) between runs; each run
    is scaled by CONTROL_REF_S over the mean of the control times just
    before and just after it."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.samples: list[float] = []
        self.best: tuple[int, ...] | None = None

    def measure(self) -> None:
        seconds, best = control.measure()
        if self.best is None:
            self.best = best
        elif best != self.best:
            self.checker.problems.append("the control workload's result changed between calls")
        self.samples.append(seconds)

    def scale(self, i: int) -> float:
        """Factor for the i-th run, which ran between samples i and i + 1."""
        return CONTROL_REF_S / ((self.samples[i] + self.samples[i + 1]) / 2)


def run_untraced(workload: Workload, seed: int, seconds: float) -> tuple[dict, str]:
    checker = Checker(workload, seed)
    sentence = first_eval_sentence()
    ctl = Control(checker)
    # Unmeasured warm-up: the first child in a fresh checkout compiles bytecode.
    run_setup(checker, sentence)
    control.work()
    # Cycles of set-up run, full run, control, so every run has a control
    # sample on either side and set-up runs sample the host over the whole
    # measuring time; short runs top the set-up runs up afterwards.
    deadline = time.perf_counter() + seconds
    ctl.measure()
    setups: list[float] = []
    suites: list[Suite] = []
    cycles: list[float] = []
    while not cycles or time.perf_counter() + median(cycles) <= deadline:
        start = time.perf_counter()
        setups.append(run_setup(checker, sentence))
        suite = run_suite(workload, seed, None, traced=False)
        checker.check_full(suite, f"run {len(suites)}")
        suites.append(suite)
        ctl.measure()
        cycles.append(time.perf_counter() - start)
        if not suite.ok:
            break
    while len(setups) < SETUP_MIN:
        setups.append(run_setup(checker, sentence))
        ctl.measure()
    details = {
        "workload": workload.name,
        "pinasr_seed": seed,
        "commands": [" ".join(c) for c in workload.commands(seed, None)],
        "suite_s_samples": [s.wall_s for s in suites],
        "setup_s_samples": setups,
        "control_s_samples": ctl.samples,
        "suite_s_unscaled": median(s.wall_s for s in suites),
        "setup_s_unscaled": median(setups),
        "cpu_s_samples": [s.cpu_s for s in suites],
        "peak_rss_mb_samples": [s.peak_rss_mb for s in suites],
        "report": suites[0].report,
        "em_disk_mb": suites[0].em_bytes / 1e6,
        "outputs_sha256": sorted(checker.digests),
        "problems": checker.problems,
    }
    metrics = {
        "suite_s": median(s.wall_s * ctl.scale(i) for i, s in enumerate(suites)),
        "setup_s": median(t * ctl.scale(i) for i, t in enumerate(setups)),
        "peak_rss_mb": median(s.peak_rss_mb for s in suites),
    }
    return details, result_line(checker.correct, checker.attempted, checker.failed, "end_to_end", metrics)


def layer_metrics(workload: Workload, stats: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced suite, from its commands' stats."""
    spans: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for command in stats:
        for name, span in command["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in span.items():
                into[key] += value
        for name, value in command["counts"].items():
            counts[name] = counts.get(name, 0) + value
    seen = {name for name, span in spans.items() if span["calls"]} | {n for n, v in counts.items() if v}
    missing = [name for name in workload.expect if name not in seen]
    if missing:
        raise BenchError(f"{workload.name}: traced run saw no calls of {missing}")
    unattributed = {n: v for n, v in counts.items()
                    if n.startswith("ngram_lm.queries.") and n.split(".")[-1] not in ("ctc", "transcriber")}
    if unattributed:
        raise BenchError(f"LM queries from an unexpected layer: {unattributed}")
    utt_ms = [sum(parts) for parts in zip(*(c["utt_ms"] for c in stats))]
    if any(len(c["utt_ms"]) != len(utt_ms) for c in stats) or len(utt_ms) < 20:
        raise BenchError(f"{workload.name}: per-utterance spans did not pair up")

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    count = counts.get
    return {
        "simulate.synth_s": self_s("simulate.synth"),
        "simulate.confusion_map_s": self_s("simulate.confusion_map"),
        "simulate.frames": count("simulate.frames", 0),
        "ctc.beam_s": self_s("ctc.beam"),
        "ctc.beam_frames_per_s": ratio(count("ctc.beam_frames", 0), spans["ctc.beam"]["total_s"]),
        "ctc.active_per_frame": ratio(count("ctc.active", 0), count("ctc.beam_frames", 0)),
        "ctc.em_write_s": self_s("ctc.em_write"),
        "ctc.em_read_s": self_s("ctc.em_read"),
        "ctc.em_read_mb_per_s": ratio(count("ctc.em_bytes_read", 0) / 1e6, self_s("ctc.em_read")),
        "ctc.em_disk_mb": count("ctc.em_bytes_written", 0) / 1e6,
        "ctc.emission_check_s": self_s("ctc.emission_check"),
        "ngram_lm.queries.ctc": count("ngram_lm.queries.ctc", 0),
        "ngram_lm.queries.transcriber": count("ngram_lm.queries.transcriber", 0),
        "ngram_lm.query_s": self_s("ngram_lm.query"),
        "ngram_lm.train_s": self_s("ngram_lm.train"),
        "transcriber.search_s": self_s("transcriber.search"),
        "transcriber.lattice_s": self_s("transcriber.lattice"),
        "transcriber.lattice_width": ratio(count("transcriber.candidates", 0),
                                           count("transcriber.positions", 0)),
        "transcriber.fallbacks": count("transcriber.fallbacks", 0),
        "metrics.score_s": self_s("metrics.score"),
        "assets.load_s": self_s("assets.load"),
        "corpus.build_s": self_s("corpus.build"),
        "cli.utt_ms_p50": median(utt_ms),
        "cli.utt_ms_p95": quantiles(utt_ms, n=20)[-1],
        "cli.self_s": self_s("cli"),
    }


# Per-layer counts; they are exact and repeat run to run.
EXACT = ("simulate.frames", "ctc.active_per_frame", "ctc.em_disk_mb", "ngram_lm.queries.ctc",
         "ngram_lm.queries.transcriber", "transcriber.lattice_width", "transcriber.fallbacks")


def run_traced(workload: Workload, seed: int, seconds: float) -> tuple[dict, str]:
    """Alternate an untraced and a traced run of the full suite until the
    time is up; per-layer metrics are medians over the traced runs."""
    checker = Checker(workload, seed)
    deadline = time.perf_counter() + seconds
    plain: list[Suite] = []
    traced: list[Suite] = []
    per_run: list[dict[str, float]] = []
    while not per_run or time.perf_counter() + median(
        a.wall_s + b.wall_s for a, b in zip(plain, traced)
    ) <= deadline:
        for suites, is_traced in ((plain, False), (traced, True)):
            suite = run_suite(workload, seed, None, traced=is_traced)
            checker.check_full(suite, f"{'traced' if is_traced else 'untraced'} run {len(suites)}")
            suites.append(suite)
        if not (plain[-1].ok and traced[-1].ok):
            break
        per_run.append(layer_metrics(workload, traced[-1].stats))
    if not per_run:
        raise BenchError(f"{workload.name}: no traced run completed: {checker.problems}")
    for name in EXACT:
        if len({run[name] for run in per_run}) != 1:
            checker.problems.append(f"count {name} differs between traced runs")
    metrics = {
        name: per_run[0][name] if name in EXACT else median(run[name] for run in per_run)
        for name in per_run[0]
    }
    metrics["cli.cpu_s"] = median(s.cpu_s for s in plain)
    overhead = median(s.wall_s for s in traced) - median(s.wall_s for s in plain)
    metrics["trace.overhead_s"] = overhead
    details = {
        "workload": workload.name,
        "pinasr_seed": seed,
        "untraced_suite_s_samples": [s.wall_s for s in plain],
        "traced_suite_s_samples": [s.wall_s for s in traced],
        "trace_overhead_share": overhead / median(s.wall_s for s in plain),
        "outputs_sha256": sorted(checker.digests),
        "problems": checker.problems,
    }
    return details, result_line(checker.correct, checker.attempted, checker.failed, "per_layer", metrics)


def first_eval_sentence() -> str:
    """The first held-out sentence, the one-utterance corpus of set-up runs."""
    path = SRC / "pinasr" / "data" / "corpus_heldout.txt"
    return next(line for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def record_refs() -> None:
    """Write bench/refs/<workload>.json: per seed slot, the reported scores
    and utterance lines (see ref_form) of one run, after checking the pinned
    seed against tests/fixtures/pinned.json."""
    REFS.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        refs = {}
        for slot in range(SEED_SLOTS):
            seed = pinasr_seed(slot)
            suite = run_suite(workload, seed, None, traced=False)
            if not suite.ok:
                raise BenchError(f"{workload.name} seed {seed}: {suite.log}")
            if seed == PINNED_SEED and pinned_mismatches(workload, suite.report):
                raise BenchError(f"{workload.name}: {pinned_mismatches(workload, suite.report)}")
            lines = [ref_form(seed, line) for line in suite.lines]
            refs[str(seed)] = {"report": suite.report, "utterances": lines}
            print(f"{workload.name} seed {seed}: {suite.report}", flush=True)
        text = json.dumps(refs, ensure_ascii=False, indent=0, sort_keys=True)
        (REFS / f"{workload.name}.json").write_text(text + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help=f"workload seed; pinasr runs seed {PINNED_SEED} + "
                             f"{SEED_STRIDE} * (seed mod {SEED_SLOTS}), so 0 is the pinned seed")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-refs", action="store_true",
                        help="rewrite bench/refs/ from this commit's outputs")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        check_program()
        if args.record_refs:
            record_refs()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        run = run_traced if args.trace else run_untraced
        details, result = run(WORKLOADS[args.workload], pinasr_seed(args.seed), args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(details, ensure_ascii=False))
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
