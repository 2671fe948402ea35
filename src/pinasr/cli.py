"""Command-line front end: the full recognition→transcription pipeline and
each stage as its own subcommand.

Every stage-running command goes through one core: :class:`Pipeline` checks the
config, loads assets and fixes the unit alphabet once; :func:`run_pipeline` runs the stages.

Configuration is a flat ``key=value`` text file; every key can also be set
on the command line (``--beam-width 16`` overrides ``beam_width=8``). All
randomness derives from the single ``seed`` key. Exit codes: 0 success,
1 runtime or data error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from . import ambiguity, assets, metrics, ngram_lm, transcriber
from .corpus import EmptyCorpus, build_parallel, filter_sentences, read_parallel_tsv
from .ctc import DecoderConfig, EmissionMatrix, prefix_beam_search, read_emissions, write_emissions
from .ngram_lm import NGramModel
from .pinyin import PronunciationLexicon, SyllableInventory
from .simulate import POLICIES, SimConfig, synth_emissions


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    inventory: str = ""          # empty -> bundled data file
    lexicon: str = ""
    train_corpus: str = ""       # sentences for LM training
    eval_corpus: str = ""        # sentences to decode and score
    emissions_dir: str = ""      # ingest *.em files instead of synthesizing
    out_dir: str = "pinasr_report"
    unit_mode: str = "tonal"     # tonal | toneless
    use_pinyin_lm: bool = True
    pinyin_lm: str = ""          # optional ARPA path (else trained in-run)
    char_lm: str = ""            # optional ARPA path (else trained in-run)
    pinyin_lm_order: int = 4
    char_lm_order: int = 5
    lm_discount: float = 0.6
    min_count: int = 1
    beam_width: int = 8
    lm_weight: float = 0.3
    insertion_bonus: float = 0.0
    prune_threshold: float = -13.0
    channel_weight: float = 1.0
    transcriber_beam: int = 32
    frames_per_unit: int = 3
    blank_fill: float = 0.9
    temperature: float = 0.0
    confusion_policy: str = "tone-neighbor"
    min_len: int = 5
    max_len: int = 40
    seed: int = 0


def parse_config_file(path: str) -> dict:
    values = {}
    fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in fields:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(fields[key].type, value, f"{path}:{lineno}")
    return values


def _coerce(field_type: str, value: str, where: str):
    if field_type == "bool":
        lowered = value.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{where}: bad boolean {value!r}")
    try:
        if field_type == "int":
            return int(value)
        if field_type == "float":
            return float(value)
    except ValueError:
        raise ConfigError(f"{where}: bad {field_type} {value!r}") from None
    return value


def config_hash(config: PipelineConfig) -> str:
    canonical = "\n".join(f"{k}={v}" for k, v in sorted(dataclasses.asdict(config).items()))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@contextmanager
def atomic_open(path: Path):
    """Write ``path`` through a temporary file, so no reader sees it half-written."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        yield fh
    os.replace(tmp, path)


def _existing(path: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"no such file: {p}")
    return p


def _read_lines(path: str, default_sentences: str = "") -> list[str]:
    """The non-blank lines of ``path``, or with no path of bundled ``default_sentences``."""
    if default_sentences and not path:
        return assets.read_sentences(default_sentences)
    return [line for line in _existing(path).read_text(encoding="utf-8").splitlines() if line.strip()]


def _read_arpa(path: str) -> NGramModel:
    with open(_existing(path), encoding="utf-8") as fh:
        return ngram_lm.read_arpa(fh)


def decoder_config(config: PipelineConfig) -> DecoderConfig:
    """The beam settings: the config keys named like DecoderConfig's fields."""
    return DecoderConfig(**{f.name: getattr(config, f.name) for f in dataclasses.fields(DecoderConfig)})


def _ref_lines(utterances) -> list[str]:
    """The lines of the refs.tsv that synth writes beside its emission files."""
    return [f"utt_{i:04d}\t{hanzi}\t{' '.join(units)}" for i, (hanzi, units) in enumerate(utterances)]


class Pipeline:
    """One configuration's stages: the config is checked, the assets loaded
    and the unit alphabet fixed once, then used for every utterance."""

    def __init__(self, config: PipelineConfig):
        if config.unit_mode not in ("tonal", "toneless"):
            raise ConfigError(f"unit_mode must be tonal or toneless, got {config.unit_mode!r}")
        if config.confusion_policy not in POLICIES:
            raise ConfigError(f"confusion_policy must be one of {POLICIES}")
        self.config = config
        self.tonal = config.unit_mode == "tonal"
        self.inventory = (SyllableInventory.from_file(_existing(config.inventory)) if config.inventory
                          else assets.default_inventory())
        self.lexicon = (PronunciationLexicon.from_file(_existing(config.lexicon), self.inventory) if config.lexicon
                        else assets.default_lexicon())
        self.alphabet = tuple(sorted(self.inventory.tonal_units if self.tonal else self.inventory.toneless_units))

    def units(self, pinyin) -> list[str]:
        """The unit labels of a syllable sequence: tonal syllables or their segments."""
        return [str(s) if self.tonal else s.segment for s in pinyin]

    def utterances(self, path: str, default_name: str, name: str) -> list[tuple[str, list[str]]]:
        """(Hanzi, units) of each sentence within the length bounds in a
        sentence file; an empty path reads the bundled ``default_name``."""
        c = self.config
        sentences = filter_sentences(_read_lines(path, default_name), c.min_len, c.max_len)
        return [(h, self.units(p)) for h, p in build_parallel(sentences.sentences, self.lexicon, name).pairs]

    def synthesize(self, units: list[str], index: int) -> EmissionMatrix:
        """The emissions of utterance ``index``, seeded by ``seed + index``."""
        c = self.config
        sim = SimConfig(frames_per_unit=c.frames_per_unit, blank_fill=c.blank_fill,
                        confusion_temperature=c.temperature, confusion_policy=c.confusion_policy,
                        seed=c.seed + index)
        return synth_emissions(units, self.alphabet, sim)

    def lm(self, path: str, corpus, order: int, vocabulary=None) -> NGramModel:
        """The ARPA model at ``path``; with no path, one trained on ``corpus``."""
        if path:
            return _read_arpa(path)
        return ngram_lm.train(corpus, order, self.config.lm_discount, self.config.min_count, vocabulary)

    def transcribe(self, units: list[str], char_lm: NGramModel, lenient: bool = True):
        """The best Hanzi reading; without ``lenient``, a lattice fallback
        raises NoCandidate before any search (see HomophoneLattice.check_exact)."""
        lattice = transcriber.build_lattice_lenient(units, self.lexicon, tonal=self.tonal)
        if not lenient:
            lattice.check_exact()
        c = self.config
        return transcriber.beam_transcribe(lattice, char_lm, c.channel_weight, c.transcriber_beam)[0]


@dataclass
class PipelineResult:
    """Hypotheses and scores of a pipeline run, in eval-corpus order."""

    unit_lm_on: bool   # a unit LM was fused into the beam
    hyp_units: list[list[str]]
    transcripts: list[tuple[str, float]]   # (Hanzi, total score) of the best reading
    scores: dict[str, metrics.ScoreReport]   # uer, uer_tone_stripped (tonal units only), cer


def _check_refs(path: Path, utterances) -> None:
    """Fail unless synth's refs.tsv lists exactly these utterances, in order,
    so ingested emissions are scored against their own references."""
    if not path.exists():
        raise ValueError(f"{path}: not found; --emissions-dir needs the refs.tsv that synth writes")
    lines = path.read_text(encoding="utf-8").splitlines()
    want = _ref_lines(utterances)
    for lineno, (line, ref) in enumerate(zip(lines, want), 1):
        if line != ref:
            raise ValueError(f"{path}:{lineno}: {line!r} does not match eval utterance {ref!r}")
    if len(lines) != len(want):
        raise ValueError(f"{path}: {len(lines)} references for {len(want)} eval utterances")


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Synthesize (or ingest), decode, transcribe and score every eval
    utterance. A failing utterance raises ValueError naming its stage."""
    pipe = Pipeline(config)
    train = pipe.utterances(config.train_corpus, "corpus_train.txt", "train")
    evals = pipe.utterances(config.eval_corpus, "corpus_heldout.txt", "eval")
    if not evals:
        raise ConfigError("evaluation corpus is empty after filtering")
    if config.emissions_dir:
        _check_refs(Path(config.emissions_dir) / "refs.tsv", evals)
    unit_lm = None
    if config.use_pinyin_lm:
        unit_lm = pipe.lm(config.pinyin_lm, [u for _, u in train], config.pinyin_lm_order, pipe.alphabet)
    char_lm = pipe.lm(config.char_lm, [list(h) for h, _ in train], config.char_lm_order)

    decoder = decoder_config(config)
    hyp_units, transcripts = [], []
    for index, (_, units) in enumerate(evals):
        stage = "synthesize"
        try:
            if config.emissions_dir:
                with open(Path(config.emissions_dir) / f"utt_{index:04d}.em", encoding="utf-8") as fh:
                    emissions = read_emissions(fh)
            else:
                emissions = pipe.synthesize(units, index)
            stage = "decode"
            hyp = list(prefix_beam_search(emissions, unit_lm, decoder)[0][0])
            stage = "transcribe"
            best = pipe.transcribe(hyp, char_lm)
        except (ValueError, OSError) as exc:
            raise ValueError(f"stage={stage} utt={index}: {exc}") from exc
        hyp_units.append(hyp)
        transcripts.append((best.hanzi, best.total_score))   # its n-best list, kept per utterance, costs memory

    ref_units = [units for _, units in evals]
    scores = {"uer": metrics.error_rate(ref_units, hyp_units)}
    if pipe.tonal:
        scores["uer_tone_stripped"] = metrics.tone_stripped_rescore(ref_units, hyp_units, pipe.inventory)
    scores["cer"] = metrics.error_rate([list(h) for h, _ in evals], [list(hanzi) for hanzi, _ in transcripts])
    return PipelineResult(unit_lm is not None, hyp_units, transcripts, scores)


def write_report(config: PipelineConfig, result: PipelineResult) -> list[str]:
    """Write report.tsv, hyps.tsv, units.tsv and detail.jsonl into
    ``config.out_dir``; returns the lines of report.tsv."""
    lines = [
        f"config_hash\t{config_hash(config)}",
        f"utterances\t{len(result.transcripts)}",
        f"unit_mode\t{config.unit_mode}",
        f"pinyin_lm\t{'on' if result.unit_lm_on else 'off'}",
    ] + [f"{name}\t{report.error_rate:.6f}" for name, report in result.scores.items()]
    detail = [
        json.dumps({"utt": u.index, "uer": u.__dict__, "cer": c.__dict__}, ensure_ascii=False, sort_keys=True)
        for u, c in zip(result.scores["uer"].per_utterance, result.scores["cer"].per_utterance)
    ]
    files = {
        "report.tsv": "\n".join(lines) + "\n",
        "hyps.tsv": "".join(f"{hanzi}\t{score:.6f}\n" for hanzi, score in result.transcripts),
        "units.tsv": "".join(f"utt_{i:04d}\t{' '.join(h)}\n" for i, h in enumerate(result.hyp_units)),
        "detail.jsonl": "\n".join(detail) + "\n",
    }
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        with atomic_open(out_dir / name) as fh:
            fh.write(text)
    return lines


def cmd_pipeline(config: PipelineConfig) -> int:
    for line in write_report(config, run_pipeline(config)):
        print(line.replace("\t", "  "))
    return 0


def cmd_synth(args, config: PipelineConfig) -> int:
    pipe = Pipeline(config)
    utterances = pipe.utterances(config.eval_corpus, "corpus_heldout.txt", "synth")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, (_, units) in enumerate(utterances):
        # Bound to a name, so the previous matrix is freed only after this one is
        # built: freeing it first made synth about a quarter slower (pages re-faulted).
        emissions = pipe.synthesize(units, index)
        with atomic_open(out_dir / f"utt_{index:04d}.em") as fh:
            write_emissions(emissions, fh)
    with atomic_open(out_dir / "refs.tsv") as fh:
        fh.write("\n".join(_ref_lines(utterances)) + "\n")
    print(f"wrote {len(utterances)} emission files to {out_dir}")
    return 0


def cmd_train_lm(args, config: PipelineConfig) -> int:
    if not 1 <= args.order <= ngram_lm.MAX_ORDER:
        raise ConfigError(f"order must be in [1, {ngram_lm.MAX_ORDER}], got {args.order}")
    if not 0.0 < args.discount < 1.0:
        raise ConfigError(f"discount must be in (0, 1), got {args.discount}")
    sentences = _read_lines(args.corpus)
    corpus, vocabulary = [list(s) for s in sentences], None
    if args.unit != "char":
        pipe = Pipeline(dataclasses.replace(config, unit_mode="tonal" if args.unit == "pinyin" else "toneless"))
        pairs = build_parallel(sentences, pipe.lexicon, "train-lm").pairs
        corpus, vocabulary = [pipe.units(pinyin) for _, pinyin in pairs], pipe.alphabet
    model = ngram_lm.train(corpus, args.order, args.discount, config.min_count, vocabulary=vocabulary)
    with atomic_open(Path(args.out)) as fh:
        ngram_lm.write_arpa(model, fh)
    per_order = [0] * model.order
    for gram in model.prob_table:
        per_order[len(gram) - 1] += 1
    print(f"vocabulary\t{len(model.vocabulary)}")
    for k, n in enumerate(per_order, 1):
        print(f"ngram_{k}\t{n}")
    return 0


def cmd_decode(args, config: PipelineConfig) -> int:
    lm = _read_arpa(args.lm) if args.lm else None
    decoder = decoder_config(config)
    source = Path(args.emissions)
    files = sorted(source.glob("*.em")) if source.is_dir() else [_existing(args.emissions)]
    if not files:
        print(f"no *.em files under {source}", file=sys.stderr)
        return 1
    for path in files:
        with open(path, encoding="utf-8") as fh:
            emissions = read_emissions(fh)
        units, score = prefix_beam_search(emissions, lm, decoder)[0]
        print(f"{path.stem}\t{' '.join(units)}\t{score:.6f}")
    return 0


def cmd_transcribe(args, config: PipelineConfig) -> int:
    pipe = Pipeline(config)
    if not config.char_lm:
        raise ConfigError("transcribe needs --char-lm (an ARPA character LM)")
    char_lm = _read_arpa(config.char_lm)
    for line in _read_lines(args.input):
        best = pipe.transcribe(line.split(), char_lm, lenient=False)
        print(f"{best.hanzi}\t{best.total_score:.6f}")
    return 0


def cmd_stats(args, config: PipelineConfig) -> int:
    pipe = Pipeline(config)
    if args.parallel:
        with open(_existing(args.parallel), encoding="utf-8") as fh:
            corpus = read_parallel_tsv(fh, pipe.inventory)
    else:
        corpus = build_parallel(_read_lines(args.corpus, "corpus_toy20.txt"), pipe.lexicon, "stats")
    report = ambiguity.stats_report(corpus, args.n_max)
    print(ambiguity.render_tsv(report), end="")
    print()
    print(ambiguity.render_table(report), end="")
    return 0


def cmd_score(args, config: PipelineConfig) -> int:
    def read_tokens(path):
        lines = _existing(path).read_text(encoding="utf-8").splitlines()
        return [list(l) if args.chars else l.split() for l in lines]

    # The config is checked before anything is printed.
    inventory = Pipeline(config).inventory if args.tone_stripped else None
    refs, hyps = read_tokens(args.refs), read_tokens(args.hyps)
    report = metrics.error_rate(refs, hyps)
    metrics.write_report_tsv(report, sys.stdout)
    if args.tone_stripped:
        stripped = metrics.tone_stripped_rescore(refs, hyps, inventory)
        metrics.write_report_tsv(stripped, sys.stdout, label="tone_stripped")
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as fh:
            metrics.write_report_jsonl(report, fh)
    return 0


def cmd_validate_assets() -> int:
    report = assets.validate_assets()
    print(report.render(), end="")
    return 0 if report.ok else 1


COMMANDS = {
    "synth": cmd_synth, "train-lm": cmd_train_lm, "decode": cmd_decode,
    "transcribe": cmd_transcribe, "stats": cmd_stats, "score": cmd_score,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinasr",
        description="Factored Mandarin ASR decoding toolkit: pinyin recognition "
        "(CTC beam search + n-gram LM) and pinyin-to-Hanzi transcription.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="key=value config file")
        for f in dataclasses.fields(PipelineConfig):
            flag = "--" + f.name.replace("_", "-")
            if f.type == "bool":
                p.add_argument(flag, dest=f.name, action=argparse.BooleanOptionalAction,
                               default=argparse.SUPPRESS, help=f"override {f.name}")
            else:
                p.add_argument(flag, dest=f.name, type={"int": int, "float": float}.get(f.type, str),
                               default=argparse.SUPPRESS, help=f"override {f.name} (default {f.default!r})")

    p = sub.add_parser("pipeline", help="run synth/ingest -> decode -> transcribe -> score")
    add_config_args(p)

    p = sub.add_parser("synth", help="write emission files for an evaluation corpus")
    add_config_args(p)

    p = sub.add_parser("train-lm", help="train an n-gram LM and write ARPA")
    p.add_argument("--corpus", required=True, help="sentence file, one per line")
    p.add_argument("--unit", choices=("char", "pinyin", "pinyin-toneless"), default="char")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--discount", type=float, default=0.6)
    p.add_argument("--out", required=True, help="output ARPA path")
    add_config_args(p)

    p = sub.add_parser("decode", help="beam-search decode emission files")
    p.add_argument("--emissions", required=True, help="*.em file or directory")
    p.add_argument("--lm", help="ARPA LM for shallow fusion")
    add_config_args(p)

    p = sub.add_parser("transcribe", help="convert pinyin lines to Hanzi")
    p.add_argument("--input", required=True, help="file of space-joined pinyin units")
    add_config_args(p)  # --char-lm (ARPA path) is required here

    p = sub.add_parser("stats", help="pinyin n-gram to Hanzi ambiguity table")
    p.add_argument("--corpus", default="", help="Hanzi sentence file (default: bundled toy corpus)")
    p.add_argument("--parallel", default="", help="parallel TSV instead of sentences")
    p.add_argument("--n-max", type=int, default=6)
    add_config_args(p)

    p = sub.add_parser("score", help="error rate between reference and hypothesis files")
    p.add_argument("--refs", required=True)
    p.add_argument("--hyps", required=True)
    p.add_argument("--chars", action="store_true", help="split lines into characters, not whitespace tokens")
    p.add_argument("--tone-stripped", action="store_true", help="also score after tone stripping")
    p.add_argument("--jsonl", help="write per-utterance detail to this path")
    add_config_args(p)

    sub.add_parser("validate-assets", help="check bundled data against the manifest")
    return parser


def make_config(args) -> PipelineConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(_existing(args.config)))
    for f in dataclasses.fields(PipelineConfig):
        if hasattr(args, f.name):
            values[f.name] = getattr(args, f.name)
    return PipelineConfig(**values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate-assets":
            return cmd_validate_assets()
        config = make_config(args)
        if args.command == "pipeline":
            return cmd_pipeline(config)
        return COMMANDS[args.command](args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EmptyCorpus, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
