"""Command-line front end: the full recognition→transcription pipeline and
each stage as its own subcommand.

Every stage-running command goes through one core: :class:`PipelineConfig` checks itself,
:class:`Pipeline` loads assets and fixes the unit alphabet once; :func:`run_pipeline` runs the stages.

Configuration is a flat ``key=value`` text file; every key can also be set
on the command line (``--beam-width 16`` overrides ``beam_width=8``). All
randomness derives from the single ``seed`` key. Exit codes: 0 success,
1 runtime or data error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from . import ambiguity, assets, metrics, ngram_lm, transcriber
from .corpus import FilterResult, build_parallel, check_length_bounds, filter_sentences, read_parallel_tsv
from .ctc import DecoderConfig, EmissionMatrix, check_alphabet, prefix_beam_search, read_emissions, write_emissions
from .ngram_lm import NGramModel
from .pinyin import PronunciationLexicon, SyllableInventory, parse_syllable, strip_tone
from .simulate import SimConfig, synth_emissions


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
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

    def __post_init__(self):
        """Raise ConfigError for a ``unit_mode`` outside its choices, an LM order outside [1, MAX_ORDER], an
        ``lm_discount`` outside (0, 1), a ``transcriber_beam`` below 1, a ``channel_weight`` not finite and >= 0,
        or a setting that DecoderConfig, SimConfig (``confusion_policy`` and ``seed`` among them) or
        ``check_length_bounds`` (``min_len``, ``max_len``) rejects, so every command has a checked config
        before it loads or writes anything."""
        if self.unit_mode not in ("tonal", "toneless"):
            raise ConfigError(f"unit_mode must be tonal or toneless, got {self.unit_mode!r}")
        for key in ("pinyin_lm_order", "char_lm_order"):
            if not 1 <= getattr(self, key) <= ngram_lm.MAX_ORDER:
                raise ConfigError(f"{key} must be in [1, {ngram_lm.MAX_ORDER}], got {getattr(self, key)}")
        if not 0.0 < self.lm_discount < 1.0:
            raise ConfigError(f"lm_discount must be in (0, 1), got {self.lm_discount}")
        if self.transcriber_beam < 1:
            raise ConfigError(f"transcriber_beam must be >= 1, got {self.transcriber_beam}")
        if not 0 <= self.channel_weight < math.inf:   # NaN fails both comparisons
            raise ConfigError(f"channel_weight must be finite and >= 0, got {self.channel_weight}")
        try:
            decoder_config(self)
            sim_config(self)
            check_length_bounds(self.min_len, self.max_len)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def parse_config_file(path: str) -> dict:
    values = {}
    fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
    for lineno, raw in enumerate(_read(path), 1):
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
    """A hash of every key but ``out_dir``: one config hashes alike wherever it writes."""
    canonical = "\n".join(f"{k}={v}" for k, v in sorted(dataclasses.asdict(config).items()) if k != "out_dir")
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@contextmanager
def _naming(where):
    """Put ``where`` (a file, or file:line) first in a ValueError raised inside."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


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


def _read(path, parse=lambda fh: fh.read().splitlines(), *args):
    """``parse(fh, *args)`` of the UTF-8 file ``path``, by default its lines: a ConfigError if it is missing,
    a ValueError naming it if it is not UTF-8 or ``parse`` fails."""
    p = _existing(path)
    with open(p, encoding="utf-8") as fh, _naming(p):
        return parse(fh, *args)


def _read_lines(path: str, bundled: str) -> list[str]:
    """The non-blank lines of ``path``, or with no path of the bundled file ``bundled``."""
    if not path:
        return assets.read_sentences(bundled)
    return [line for line in _read(path) if line.strip()]


def _read_lm(path: str, needs) -> NGramModel:
    """The LM at ``path``, refused as it loads, naming the file, unless it parses, is normalized and has every
    token of ``needs``: the alphabet of a unit LM, ``</s>`` of a char LM (stage 2 scores each sentence's end)."""
    def parse(fh) -> NGramModel:
        model = ngram_lm.read_arpa(fh)
        model.check_normalized()
        check_alphabet(needs, model)
        return model

    return _read(path, parse)


def _report_dropped(name: str, source, lines: list[str], sentences, corpus) -> None:
    """Count on stderr, in one line, the ``lines`` of ``source`` that did not reach
    ``corpus``, by the FilterResult ``sentences`` and ParallelCorpus ``corpus``."""
    if dropped := len(lines) - len(corpus):
        print(f"{name} corpus {source}: dropped {dropped} of {len(lines)} sentences: "
              f"{sentences.malformed} without Hanzi, {sentences.out_of_bounds} outside the length bounds, "
              f"{sentences.duplicates} repeated, {corpus.skipped} with a character the lexicon lacks",
              file=sys.stderr)


def decoder_config(config: PipelineConfig) -> DecoderConfig:
    """The beam settings: the config keys named like DecoderConfig's fields."""
    return DecoderConfig(**{f.name: getattr(config, f.name) for f in dataclasses.fields(DecoderConfig)})


def _ref_lines(utterances) -> list[str]:
    """The lines of the refs.tsv that synth writes beside its emission files."""
    return [f"utt_{i:04d}\t{hanzi}\t{' '.join(units)}" for i, (hanzi, units) in enumerate(utterances)]


def sim_config(config: PipelineConfig, index: int = 0) -> SimConfig:
    """The synthesis settings of utterance ``index``, seeded by ``seed + index``."""
    return SimConfig(frames_per_unit=config.frames_per_unit, blank_fill=config.blank_fill,
                     confusion_temperature=config.temperature, confusion_policy=config.confusion_policy,
                     seed=config.seed + index)


class Pipeline:
    """One configuration's stages: the assets are loaded and the unit alphabet
    fixed once, then used for every utterance."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.tonal = config.unit_mode == "tonal"
        self.inventory = (SyllableInventory.from_file(_existing(config.inventory)) if config.inventory
                          else assets.default_inventory())
        # A configured inventory checks the bundled lexicon too.
        lexicon = _existing(config.lexicon) if config.lexicon else assets.data_path("lexicon.tsv")
        self.lexicon = (PronunciationLexicon.from_file(lexicon, self.inventory) if config.lexicon or config.inventory
                        else assets.default_lexicon())
        self.alphabet = tuple(sorted(self.inventory.tonal_units if self.tonal else self.inventory.toneless_units))

    def utterances(self, path: str, default_name: str, name: str) -> list[tuple[str, list[str]]]:
        """(Hanzi, units) of each sentence within the length bounds in a
        sentence file; an empty path reads the bundled ``default_name``.
        Sentences dropped on the way are counted in one line on stderr."""
        c = self.config
        lines = _read_lines(path, default_name)
        sentences = filter_sentences(lines, c.min_len, c.max_len)
        corpus = build_parallel(sentences.sentences, self.lexicon)
        _report_dropped(name, path or default_name, lines, sentences, corpus)
        return [(h, list(p) if self.tonal else [strip_tone(u) for u in p]) for h, p in corpus.pairs]

    def synthesize(self, units: list[str], index: int) -> EmissionMatrix:
        """The emissions of utterance ``index``, seeded by ``seed + index``."""
        return synth_emissions(units, self.alphabet, sim_config(self.config, index))

    def lms(self) -> tuple[NGramModel | None, NGramModel]:
        """The unit LM (None with ``use_pinyin_lm`` off) and the char LM, each
        read from its ARPA path or else trained on the train corpus's
        utterances (read only if a model is trained). Each read LM is refused as
        it loads (see _read_lm); a trained unit LM is closed over the alphabet."""
        c = self.config
        train_needed = not c.char_lm or (c.use_pinyin_lm and not c.pinyin_lm)
        train = self.utterances(c.train_corpus, "corpus_train.txt", "train") if train_needed else []

        def lm(path: str, needs, corpus, order: int, vocabulary=None) -> NGramModel:
            if path:
                return _read_lm(path, needs)
            return ngram_lm.train(corpus, order, c.lm_discount, c.min_count, vocabulary)

        unit_lm = (lm(c.pinyin_lm, self.alphabet, [u for _, u in train], c.pinyin_lm_order, self.alphabet)
                   if c.use_pinyin_lm else None)
        char_lm = lm(c.char_lm, (ngram_lm.EOS,), [list(h) for h, _ in train], c.char_lm_order)
        return unit_lm, char_lm

    def transcribe(self, units: list[str], char_lm: NGramModel, lenient: bool = True):
        """The best Hanzi reading; without ``lenient``, a lattice fallback
        raises NoCandidate before any search (see HomophoneLattice.check_exact)."""
        lattice = transcriber.build_lattice_lenient(units, self.lexicon, tonal=self.tonal)
        if not lenient:
            lattice.check_exact()
        c = self.config
        return transcriber.beam_transcribe(lattice, char_lm, c.channel_weight, c.transcriber_beam)


@dataclass
class PipelineResult:
    """Hypotheses and scores of a pipeline run, in eval-corpus order."""

    hyp_units: list[list[str]]
    transcripts: list[tuple[str, float]]   # (Hanzi, total score) of the best reading
    scores: dict[str, metrics.ScoreReport]   # uer, uer_tone_stripped (tonal units only), cer


def _check_refs(path: Path, lines: list[str], utterances) -> None:
    """Fail unless ``lines``, those of synth's refs.tsv at ``path``, list exactly
    these utterances, in order, so ingested emissions are scored against their own references."""
    want = _ref_lines(utterances)
    for lineno, (line, ref) in enumerate(zip(lines, want), 1):
        if line != ref:
            raise ValueError(f"{path}:{lineno}: {line!r} does not match eval utterance {ref!r}")
    if len(lines) != len(want):
        raise ValueError(f"{path}: {len(lines)} references for {len(want)} eval utterances")


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Synthesize (or ingest), decode, transcribe and score every eval
    utterance. A failing utterance raises ValueError naming its stage."""
    refs = Path(config.emissions_dir) / "refs.tsv"
    ref_lines = _read(refs) if config.emissions_dir else []   # missing: ConfigError, before any work
    pipe = Pipeline(config)
    evals = pipe.utterances(config.eval_corpus, "corpus_heldout.txt", "eval")
    if not evals:
        raise ConfigError("evaluation corpus is empty after filtering")
    if config.emissions_dir:
        _check_refs(refs, ref_lines, evals)
    unit_lm, char_lm = pipe.lms()

    decoder = decoder_config(config)
    hyp_units, transcripts = [], []
    for index, (_, units) in enumerate(evals):
        stage = "ingest" if config.emissions_dir else "synthesize"
        try:
            if config.emissions_dir:
                emissions = _read(Path(config.emissions_dir) / f"utt_{index:04d}.em", read_emissions)
            else:
                emissions = pipe.synthesize(units, index)
            stage = "decode"
            hyp = list(prefix_beam_search(emissions, unit_lm, decoder)[0][0])
            stage = "transcribe"
            best = pipe.transcribe(hyp, char_lm)
        except (ValueError, OSError) as exc:
            raise ValueError(f"stage={stage} utt={index}: {exc}") from exc
        hyp_units.append(hyp)
        transcripts.append((best.hanzi, best.total_score))

    ref_units = [units for _, units in evals]
    scores = {"uer": metrics.error_rate(ref_units, hyp_units)}
    if pipe.tonal:
        scores["uer_tone_stripped"] = metrics.tone_stripped_rescore(ref_units, hyp_units, pipe.inventory)
    scores["cer"] = metrics.error_rate([list(h) for h, _ in evals], [list(hanzi) for hanzi, _ in transcripts])
    return PipelineResult(hyp_units, transcripts, scores)


def write_report(config: PipelineConfig, result: PipelineResult) -> list[str]:
    """Write report.tsv, hyps.tsv, units.tsv and detail.jsonl into
    ``config.out_dir``; returns the lines of report.tsv."""
    lines = [
        f"config_hash\t{config_hash(config)}",
        f"utterances\t{len(result.transcripts)}",
        f"unit_mode\t{config.unit_mode}",
        f"pinyin_lm\t{'on' if config.use_pinyin_lm else 'off'}",
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


def cmd_pipeline(args, config: PipelineConfig) -> int:
    for line in write_report(config, run_pipeline(config)):
        print(line.replace("\t", "  "))
    return 0


def cmd_synth(args, config: PipelineConfig) -> int:
    pipe = Pipeline(config)
    utterances = pipe.utterances(config.eval_corpus, "corpus_heldout.txt", "synth")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, (_, units) in enumerate(utterances):
        emissions = pipe.synthesize(units, index)
        with atomic_open(out_dir / f"utt_{index:04d}.em") as fh:
            write_emissions(emissions, fh)
    with atomic_open(out_dir / "refs.tsv") as fh:
        fh.write("\n".join(_ref_lines(utterances)) + "\n")
    print(f"wrote {len(utterances)} emission files to {out_dir}")
    return 0


def cmd_train_lm(args, config: PipelineConfig) -> int:
    out_dir = Path(config.out_dir)
    unit_lm, char_lm = Pipeline(config).lms()
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, model in (("char.arpa", char_lm), ("units.arpa", unit_lm)):
        if model is None:
            continue
        with atomic_open(out_dir / name) as fh:
            counts = ngram_lm.write_arpa(model, fh)
        print(f"{out_dir / name}\tvocabulary\t{len(model.vocabulary)}")
        for k, count in enumerate(counts, 1):
            print(f"{out_dir / name}\tngram_{k}\t{count}")
    return 0


def cmd_decode(args, config: PipelineConfig) -> int:
    # The alphabet comes from each .em header, so it is checked per file.
    lm = _read_lm(config.pinyin_lm, ()) if config.pinyin_lm and config.use_pinyin_lm else None
    decoder = decoder_config(config)
    source = Path(args.emissions)
    files = sorted(source.glob("*.em")) if source.is_dir() else [_existing(args.emissions)]
    if not files:
        raise ConfigError(f"no *.em files under {source}")
    for path in files:
        emissions = _read(path, read_emissions)
        with _naming(path):   # the LM may lack units of this file
            units, score = prefix_beam_search(emissions, lm, decoder)[0]
        print(f"{path.stem}\t{' '.join(units)}\t{score:.6f}")
    return 0


def cmd_transcribe(args, config: PipelineConfig) -> int:
    if not config.char_lm:
        raise ConfigError("transcribe needs --char-lm (an ARPA character LM)")
    pipe = Pipeline(config)
    char_lm = _read_lm(config.char_lm, (ngram_lm.EOS,))
    for lineno, line in enumerate(_read(args.input), 1):
        if not line.strip():
            continue
        with _naming(f"{args.input}:{lineno}"):   # NoCandidate, or OutOfVocabulary without <unk>
            best = pipe.transcribe(line.split(), char_lm, lenient=False)
        print(f"{best.hanzi}\t{best.total_score:.6f}")
    return 0


def cmd_stats(args, config: PipelineConfig) -> int:
    if args.n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {args.n_max}")
    pipe = Pipeline(config)
    source = args.parallel or args.corpus
    name = Path(source) if source else "corpus_toy20.txt"   # named as _read names it
    if args.parallel:
        corpus = _read(args.parallel, read_parallel_tsv, pipe.inventory)
    else:
        lines = _read_lines(args.corpus, "corpus_toy20.txt")   # names its file
        corpus = build_parallel(lines, pipe.lexicon)
        _report_dropped("stats", name, lines, FilterResult(lines), corpus)   # stats filters nothing
    with _naming(name):
        rows = ambiguity.stats_report(corpus, args.n_max)
    print(ambiguity.render_tsv(rows), end="")
    print()
    print(ambiguity.render_table(rows), end="")
    return 0


def cmd_score(args, config: PipelineConfig) -> int:
    inventory = Pipeline(config).inventory if args.tone_stripped else None

    def read_tokens(path):
        return [list(l) if args.chars else l.split() for l in _read(path)]

    def stripped(path, rows):   # every unit must parse as a tonal unit
        for lineno, tokens in enumerate(rows, 1):
            with _naming(f"{path}:{lineno}"):
                yield [strip_tone(parse_syllable(t, inventory)) for t in tokens]

    refs, hyps = read_tokens(args.refs), read_tokens(args.hyps)
    if len(refs) != len(hyps):
        raise ValueError(f"{len(refs)} references in {args.refs} vs {len(hyps)} hypotheses in {args.hyps}")
    reports = {"error_rate": metrics.error_rate(refs, hyps)}
    if args.tone_stripped:   # checked and scored before anything is written
        reports["tone_stripped"] = metrics.error_rate([*stripped(args.refs, refs)], [*stripped(args.hyps, hyps)])
    if args.jsonl:
        with atomic_open(Path(args.jsonl)) as fh:
            metrics.write_report_jsonl(reports["error_rate"], fh)
    for label, report in reports.items():
        metrics.write_report_tsv(report, sys.stdout, label=label)
    return 0


def cmd_validate_assets(args, config: PipelineConfig) -> int:
    report = assets.validate_assets()
    print(report.render(), end="")
    return 0 if report.ok else 1


COMMANDS = {
    "pipeline": cmd_pipeline, "synth": cmd_synth, "train-lm": cmd_train_lm, "decode": cmd_decode,
    "transcribe": cmd_transcribe, "stats": cmd_stats, "score": cmd_score, "validate-assets": cmd_validate_assets,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinasr",
        description="Factored Mandarin ASR decoding toolkit: pinyin recognition "
        "(CTC beam search + n-gram LM) and pinyin-to-Hanzi transcription.",
    )
    # No abbreviated flags: a removed flag such as train-lm's old --out must not pass as a prefix of --out-dir.
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=functools.partial(argparse.ArgumentParser, allow_abbrev=False))

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

    for name, help_text in (("pipeline", "run synth/ingest -> decode -> transcribe -> score"),
                            ("synth", "write emission files for an evaluation corpus"),
                            ("train-lm", "train the pipeline's LMs; write OUT_DIR/char.arpa (and units.arpa)")):
        add_config_args(sub.add_parser(name, help=help_text))

    p = sub.add_parser("decode", help="beam-search decode emission files (fusing --pinyin-lm, if given)")
    p.add_argument("--emissions", required=True, help="*.em file or directory")
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
        values.update(parse_config_file(args.config))
    for f in dataclasses.fields(PipelineConfig):
        if hasattr(args, f.name):
            values[f.name] = getattr(args, f.name)
    return PipelineConfig(**values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = make_config(args)
        return COMMANDS[args.command](args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
