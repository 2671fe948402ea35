#!/usr/bin/env python3
"""Benchmark a change against its parent, in pairs, and keep every run.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --seeds 5 --out BENCH.json

PARENT_DIR and CHANGE_DIR are two git checkouts. For every workload and seed,
``bench/run.py --trace 0`` runs once in each, one after the other; the side
that goes first alternates from seed to seed, so a slow or fast period of
the host falls on both sides alike. Then ``--trace 1`` runs in pairs the
same way at seeds 1-5 for the per-layer figures. The benchmark fixes each
run's length. Every run's details and result lines go into the output JSON,
under each side's git commit, with a per-workload summary of every metric:
end-to-end ones from the untraced pairs, per-layer ones from the traced
pairs. A timing gets the medians of both sides, the quartiles of the
parent's runs, how many pairs the change won and whether that shows a gain:
at least ten pairs, at least nine tenths of them won, and the medians apart,
in the better direction, by more than the distance between the parent's
quartiles. An end-to-end metric also gets whether the change's median is
within its ``bound`` in BENCHMARK.json of the parent's. A count is
deterministic, so it gets each side's value at every seed and whether they
are equal.
Each pair also records whether both sides' ``outputs_sha256`` are equal,
so a change that must not move any output shows that it did not. Each
side's environment is recorded before its first run: the Python that runs
the benchmark, ``PYTHONDONTWRITEBYTECODE``, ``PYTHONHASHSEED``, whether
``src/pinasr/__pycache__`` exists and that ``src/`` was then compiled, so two
files' baselines can be told apart. Each checkout's ``src/`` is compiled to
bytecode (``python3 -m compileall -q src``) before its first run, as an
installed package has it: with ``PYTHONDONTWRITEBYTECODE`` set, every run
would otherwise compile pinasr again.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

WORKLOADS = ("tonal-lm", "toneless-nolm", "em-roundtrip")
TRACE_SEEDS = range(1, 6)   # the workload seeds of the traced pairs


def commit(checkout: Path) -> str:
    """The checkout's git commit, abbreviated."""
    return subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()


def environment(checkout: Path) -> dict:
    """What sets a side's baseline apart beyond its commit."""
    version = subprocess.run(["python3", "-c", "import sys; print(sys.version)"],
                             capture_output=True, text=True, check=True).stdout.strip()
    return {"python": version,
            **{name: os.environ.get(name) for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED")},
            "pycache": (checkout / "src" / "pinasr" / "__pycache__").is_dir()}


def bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``bench/run.py`` run; its details and result lines, parsed."""
    argv = ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    run = {"workload": workload, "seed": seed, "trace": trace, "returncode": proc.returncode}
    lines = proc.stdout.splitlines()
    if proc.returncode == 0 and len(lines) >= 2:
        run["details"], run["result"] = json.loads(lines[-2]), json.loads(lines[-1])
    else:
        run["stderr"] = proc.stderr[-2000:]
    return run


def summarize(runs: list[dict], metrics: list[dict], trace: int) -> dict:
    """Per workload, over the pairs (same seed) run at ``trace``: by seed,
    whether both sides' output digests are equal; per metric, both sides'
    medians, the parent's quartiles, the pairs in which the change was
    better, whether a gain is shown and, for a metric with a ``bound``,
    whether the change's median is within it; or for a count both sides'
    values by seed."""
    summary = {}
    for workload in WORKLOADS:
        by_side = {side: {r["seed"]: r for r in runs
                          if r["side"] == side and r["workload"] == workload and r["trace"] == trace and "result" in r}
                   for side in ("parent", "change")}
        seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
        if not seeds:
            continue
        parent_runs = [by_side["parent"][s] for s in seeds]
        change_runs = [by_side["change"][s] for s in seeds]
        entry = {"pairs": len(seeds),
                 "outputs_equal": {s: p["details"]["outputs_sha256"] == c["details"]["outputs_sha256"]
                                   for s, p, c in zip(seeds, parent_runs, change_runs)}}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = [r["result"]["metrics"][name]["value"] for r in parent_runs]
            change = [r["result"]["metrics"][name]["value"] for r in change_runs]
            if metric["unit"] == "count":
                entry[name] = {"parent": dict(zip(seeds, parent)), "change": dict(zip(seeds, change)),
                               "equal": parent == change}
                continue
            won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            q1, q3 = quantiles(parent, n=4)[::2] if len(parent) > 1 else parent * 2
            gain = median(parent) - median(change) if lower else median(change) - median(parent)
            entry[name] = {
                "parent_median": median(parent),
                "parent_quartiles": [q1, q3],
                "change_median": median(change),
                "relative_change": median(change) / median(parent) - 1.0 if median(parent) else None,
                "pairs_won": won,
                "gain_shown": len(seeds) >= 10 and 10 * won >= 9 * len(seeds) and gain > q3 - q1,
            }
            if "bound" in metric:
                entry[name]["within_bound"] = (median(change) <= median(parent) * (1 + metric["bound"]) if lower
                                               else median(change) >= median(parent) * (1 - metric["bound"]))
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--seeds", type=int, default=5, help="workload seeds 1..N per workload")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"{side}: no bench/run.py under {checkout}")

    record = {side: commit(checkout) for side, checkout in checkouts.items()}
    record["environment"] = {side: environment(checkout) for side, checkout in checkouts.items()}
    for side, checkout in checkouts.items():   # the runs read this bytecode; compileall writes it despite the variable
        subprocess.run(["python3", "-m", "compileall", "-q", "src"], cwd=checkout, check=True)
        record["environment"][side]["compiled"] = True
    record["runs"] = []

    def keep(side: str, run: dict) -> None:
        run["side"] = side
        record["runs"].append(run)
        args.out.write_text(json.dumps(record, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")
        status = "ok" if "result" in run and run["result"]["correct"] else "FAILED"
        print(f"{run['workload']} seed {run['seed']} trace {run['trace']} {side}: {status}", flush=True)

    for trace, seeds in ((0, range(1, args.seeds + 1)), (1, TRACE_SEEDS)):
        for workload in WORKLOADS:
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    keep(side, bench(checkouts[side], workload, seed, trace))

    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    record["summary"] = {"end_to_end": summarize(record["runs"], spec["end_to_end"], 0),
                         "per_layer": summarize(record["runs"], spec["per_layer"], 1)}
    args.out.write_text(json.dumps(record, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")
    failed = [r for r in record["runs"] if "result" not in r or not r["result"]["correct"]]
    print(json.dumps(record["summary"], indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
