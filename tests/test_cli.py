import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pinasr import assets
from pinasr.cli import ConfigError, PipelineConfig, build_parser, config_hash, main, parse_config_file

SUBCOMMANDS = ("pipeline", "train-lm", "decode", "transcribe", "stats", "score", "synth")


@pytest.fixture()
def small_corpus(tmp_path):
    sentences = assets.read_sentences("corpus_train.txt")[:12]
    path = tmp_path / "small.txt"
    path.write_text("\n".join(sentences) + "\n", encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    for name in SUBCOMMANDS:
        assert name in text


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exit_info:
        main(["frobnicate"])
    assert exit_info.value.code == 2


def test_config_file_parsing(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("seed=7\nbeam_width = 4\nuse_pinyin_lm=false\n# comment\n", encoding="utf-8")
    values = parse_config_file(config)
    assert values == {"seed": 7, "beam_width": 4, "use_pinyin_lm": False}


def test_config_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("not_a_key=1\n", encoding="utf-8")
    code, _, err = run(capsys, "pipeline", "--config", str(config))
    assert code == 2 and "unknown key" in err


def test_cli_flag_overrides_config(tmp_path, small_corpus, capsys):
    config = tmp_path / "run.conf"
    config.write_text("temperature=9.9\nseed=3\n", encoding="utf-8")
    out_dir = tmp_path / "rep"
    code, out, _ = run(
        capsys, "pipeline", "--config", str(config), "--temperature", "0",
        "--eval-corpus", str(small_corpus), "--out-dir", str(out_dir),
    )
    assert code == 0
    assert "cer  0.000000" in out


def test_missing_lexicon_exits_2(capsys):
    code, _, err = run(capsys, "pipeline", "--lexicon", "/nonexistent/lex.tsv")
    assert code == 2 and "/nonexistent/lex.tsv" in err


def test_pipeline_clean_suite_and_reports(tmp_path, small_corpus, capsys):
    out_dir = tmp_path / "report"
    code, out, _ = run(
        capsys, "pipeline", "--temperature", "0", "--eval-corpus", str(small_corpus),
        "--out-dir", str(out_dir), "--seed", "1",
    )
    assert code == 0
    report = dict(
        line.split("\t") for line in (out_dir / "report.tsv").read_text().splitlines()
    )
    assert float(report["uer"]) == 0.0
    assert float(report["cer"]) == 0.0
    assert report["config_hash"]
    hyps = (out_dir / "hyps.tsv").read_text(encoding="utf-8").splitlines()
    assert len(hyps) == 12
    assert (out_dir / "detail.jsonl").exists()
    detail = [json.loads(l) for l in (out_dir / "detail.jsonl").read_text().splitlines()]
    assert len(detail) == 12


def test_config_hash_is_stable_and_sensitive():
    a = PipelineConfig(seed=1)
    b = PipelineConfig(seed=1)
    c = PipelineConfig(seed=2)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    # Where a run writes is not part of what it runs.
    assert config_hash(PipelineConfig(seed=1, out_dir="x")) == config_hash(PipelineConfig(seed=1, out_dir="y/z"))
    assert config_hash(PipelineConfig(seed=1, lexicon="lex.tsv")) != config_hash(a)


def test_train_lm_round_trip_and_determinism(tmp_path, small_corpus, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    flags = ["--train-corpus", str(small_corpus), "--pinyin-lm-order", "2", "--char-lm-order", "3"]
    code, out, _ = run(capsys, "train-lm", *flags, "--out-dir", str(out1))
    assert code == 0 and f"{out1 / 'units.arpa'}\tvocabulary\t" in out
    code, _, _ = run(capsys, "train-lm", *flags, "--out-dir", str(out2))
    assert code == 0

    from pinasr.ngram_lm import read_arpa
    for name, order in (("units.arpa", 2), ("char.arpa", 3)):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        with open(out1 / name, encoding="utf-8") as fh:
            model = read_arpa(fh)
        assert model.order == order
        assert f"{out1 / name}\tngram_{order}\t" in out

    code, out, _ = run(capsys, "train-lm", *flags, "--no-use-pinyin-lm", "--out-dir", str(tmp_path / "c"))
    assert code == 0 and sorted(p.name for p in (tmp_path / "c").iterdir()) == ["char.arpa"]


def test_train_lm_bad_order_exits_2(tmp_path, small_corpus, capsys):
    code, _, err = run(capsys, "train-lm", "--train-corpus", str(small_corpus), "--pinyin-lm-order", "7",
                       "--out-dir", str(tmp_path / "lms"))
    assert code == 2 and "pinyin_lm_order" in err
    assert not (tmp_path / "lms").exists()


def test_synth_decode_score_chain(tmp_path, small_corpus, capsys):
    em_dir = tmp_path / "emissions"
    code, _, _ = run(capsys, "synth", "--eval-corpus", str(small_corpus),
                     "--out-dir", str(em_dir), "--temperature", "0")
    assert code == 0
    refs = (em_dir / "refs.tsv").read_text(encoding="utf-8").splitlines()
    assert len(refs) == 12
    assert len(list(em_dir.glob("*.em"))) == 12

    code, out, _ = run(capsys, "decode", "--emissions", str(em_dir))
    assert code == 0
    decoded_lines = out.strip().splitlines()
    assert len(decoded_lines) == 12
    ref_units = {l.split("\t")[0]: l.split("\t")[2] for l in refs}
    for line in decoded_lines:
        utt, units, score = line.split("\t")
        assert units == ref_units[utt]

    hyp_file = tmp_path / "hyp.txt"
    ref_file = tmp_path / "ref.txt"
    hyp_file.write_text("\n".join(l.split("\t")[1] for l in decoded_lines) + "\n", encoding="utf-8")
    ref_file.write_text("\n".join(ref_units[f"utt_{i:04d}"] for i in range(12)) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "score", "--refs", str(ref_file), "--hyps", str(hyp_file),
                       "--tone-stripped")
    assert code == 0
    assert "rate\t0.000000" in out


def test_transcribe_command(tmp_path, capsys):
    lm_path = tmp_path / "char.arpa"
    corpus = tmp_path / "c.txt"
    corpus.write_text("\n".join(assets.read_sentences("corpus_train.txt")[:20]) + "\n", encoding="utf-8")
    code, _, _ = run(capsys, "train-lm", "--train-corpus", str(corpus), "--char-lm-order", "3",
                     "--out-dir", str(tmp_path))
    assert code == 0
    pinyin_file = tmp_path / "p.txt"
    pinyin_file.write_text("zhong1 guo2\n", encoding="utf-8")
    code, out, _ = run(capsys, "transcribe", "--input", str(pinyin_file), "--char-lm", str(lm_path))
    assert code == 0
    hanzi, score = out.strip().split("\t")
    assert len(hanzi) == 2
    assert hanzi == "中国"

    # Strict: a unit no character reads stops the run, after the lines before
    # it, naming its input line (blank lines counted).
    pinyin_file.write_text("zhong1 guo2\n\nzhong1 zhong2\n", encoding="utf-8")
    code, strict_out, err = run(capsys, "transcribe", "--input", str(pinyin_file), "--char-lm", str(lm_path))
    assert code == 1
    assert err == f"error: {pinyin_file}:3: no homophone candidates for 'zhong2' at position 1\n"
    assert strict_out == out

    # A char LM without <unk> refuses a character it lacks, naming the line too.
    (tmp_path / "no_unk.arpa").write_text(
        "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.30103\t</s>\n-99.0\t<s>\n-0.30103\t中\n\n\\end\\\n", encoding="utf-8")
    pinyin_file.write_text("\nzhong1 guo2\n", encoding="utf-8")
    code, out, err = run(capsys, "transcribe", "--input", str(pinyin_file), "--char-lm", str(tmp_path / "no_unk.arpa"))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {pinyin_file}:2: token ") and "which has no <unk>" in err


def test_transcribe_requires_char_lm(tmp_path, capsys):
    pinyin_file = tmp_path / "p.txt"
    pinyin_file.write_text("zhong1\n", encoding="utf-8")
    code, _, err = run(capsys, "transcribe", "--input", str(pinyin_file))
    assert code == 2 and "char-lm" in err


def test_transcribe_without_char_lm_exits_2_before_loading_the_lexicon(tmp_path, capsys):
    pinyin_file, lexicon = tmp_path / "p.txt", tmp_path / "lexicon.tsv"
    pinyin_file.write_text("zhong1\n", encoding="utf-8")
    lexicon.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "transcribe", "--input", str(pinyin_file), "--lexicon", str(lexicon))
    assert (code, out, err) == (2, "", "config error: transcribe needs --char-lm (an ARPA character LM)\n")


GOOD_ARPA = "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.30103\t</s>\n-0.30103\ta\n\n\\end\\\n"   # 0.5 each
BAD_ARPA = GOOD_ARPA.replace("-0.30103", "x", 1)   # line 5: bad log probability 'x'


@pytest.mark.parametrize("bad", ["char_lm", "pinyin_lm"])
def test_malformed_lm_error_names_its_file(tmp_path, small_corpus, capsys, bad):
    paths = {"char_lm": tmp_path / "char.arpa", "pinyin_lm": tmp_path / "units.arpa"}
    for key, path in paths.items():
        path.write_text(BAD_ARPA if key == bad else GOOD_ARPA, encoding="utf-8")
    want = f"error: {paths[bad]}: line 5: bad log probability 'x'\n"
    # GOOD_ARPA lacks the unit alphabet, so the char LM's case reads no unit LM.
    unit_lm = ["--pinyin-lm", str(paths["pinyin_lm"])] if bad == "pinyin_lm" else ["--no-use-pinyin-lm"]
    code, out, err = run(capsys, "pipeline", "--eval-corpus", str(small_corpus), "--char-lm", str(paths["char_lm"]),
                         *unit_lm, "--out-dir", str(tmp_path / "out"))
    assert (code, out, err) == (1, "", want)
    if bad == "char_lm":
        pinyin_file = write_sentences(tmp_path / "p.txt", ["zhong1 guo2"])
        assert run(capsys, "transcribe", "--input", str(pinyin_file), "--char-lm", str(paths[bad])) == (1, "", want)
    else:
        em_dir = tmp_path / "em"
        em_dir.mkdir()
        (em_dir / "utt_0000.em").write_text("1 1 1\na\n0:0.0\n", encoding="utf-8")
        assert run(capsys, "decode", "--emissions", str(em_dir), "--pinyin-lm", str(paths[bad])) == (1, "", want)


def test_each_read_lm_is_refused_as_it_loads(tmp_path, small_corpus, capsys):
    # The unit LM, read first, lacks units of the alphabet; it is refused
    # before the malformed char LM is read.
    unit_lm, char_lm = tmp_path / "units.arpa", tmp_path / "char.arpa"
    unit_lm.write_text(GOOD_ARPA, encoding="utf-8")
    char_lm.write_text(BAD_ARPA, encoding="utf-8")
    assert run(capsys, "pipeline", "--eval-corpus", str(small_corpus), "--char-lm", str(char_lm),
               "--pinyin-lm", str(unit_lm), "--out-dir", str(tmp_path / "out")) == (
        1, "", f"error: {unit_lm}: tokens absent from LM vocabulary: ['a1', 'a2', 'a3', 'a4', 'a5']\n")
    assert not (tmp_path / "out").exists()


NO_START_ARPA = ("\\data\\\nngram 1=2\nngram 2=1\n\n\\1-grams:\n-0.3\t</s>\n-0.3\ta\n\n"
                 "\\2-grams:\n-0.1\ta </s>\n\n\\end\\\n")


def test_lm_without_a_start_state_is_refused_naming_its_file(tmp_path, small_corpus, capsys):
    # A bigram LM with neither <s> nor <unk> has no state after <s> to start
    # a search from. It is refused as it loads, naming its ARPA file, not
    # the emission file, utterance or input line that would first query it.
    lm = tmp_path / "no_start.arpa"
    lm.write_text(NO_START_ARPA, encoding="utf-8")
    (tmp_path / "char.arpa").write_text(GOOD_ARPA, encoding="utf-8")
    want = (1, "", f"error: {lm}: token '<s>' is not in the LM vocabulary, which has no <unk>\n")
    em_dir = tmp_path / "em"
    em_dir.mkdir()
    (em_dir / "utt_0000.em").write_text("1 1 1\na\n0:0.0\n", encoding="utf-8")
    assert run(capsys, "decode", "--emissions", str(em_dir), "--pinyin-lm", str(lm)) == want
    assert run(capsys, "pipeline", "--eval-corpus", str(small_corpus), "--char-lm", str(tmp_path / "char.arpa"),
               "--pinyin-lm", str(lm), "--out-dir", str(tmp_path / "out")) == want
    pinyin_file = write_sentences(tmp_path / "p.txt", ["zhong1 guo2"])
    assert run(capsys, "transcribe", "--input", str(pinyin_file), "--char-lm", str(lm)) == want


def test_emission_file_error_names_its_file(tmp_path, small_corpus, capsys):
    em_dir = tmp_path / "em"
    em_dir.mkdir()
    (em_dir / "utt_0000.em").write_text("1 1 1\na\n0:0.0\n", encoding="utf-8")
    (em_dir / "utt_0001.em").write_text("2 1 1\na\n0:0.0\n", encoding="utf-8")
    code, out, err = run(capsys, "decode", "--emissions", str(em_dir))
    assert code == 1 and out.startswith("utt_0000\ta\t")
    assert err == f"error: {em_dir / 'utt_0001.em'}: line 1: header declares 2 frames, file has 1 rows\n"
    # A fusion LM that lacks a file's units: the file is named too.
    (em_dir / "utt_0001.em").write_text("1 1 1\nb\n0:0.0\n", encoding="utf-8")
    (tmp_path / "units.arpa").write_text(GOOD_ARPA, encoding="utf-8")
    code, out, err = run(capsys, "decode", "--emissions", str(em_dir), "--pinyin-lm", str(tmp_path / "units.arpa"))
    assert code == 1 and out.startswith("utt_0000\ta\t")
    assert err == f"error: {em_dir / 'utt_0001.em'}: tokens absent from LM vocabulary: ['b']\n"
    # pipeline --emissions-dir blames the ingest stage and names the file too.
    synth_dir = tmp_path / "synth"
    assert run(capsys, "synth", "--eval-corpus", str(small_corpus), "--out-dir", str(synth_dir))[0] == 0
    bad = synth_dir / "utt_0000.em"
    lines = bad.read_text(encoding="utf-8").splitlines()
    bad.write_text("\n".join([*lines[:2], "0:zz", *lines[3:]]) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "pipeline", "--emissions-dir", str(synth_dir), "--eval-corpus", str(small_corpus),
                         "--out-dir", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert err == f"error: stage=ingest utt=0: {bad}: line 3: malformed entry '0:zz', expected class:log10prob\n"


def test_stats_command_default_corpus(capsys):
    code, out, _ = run(capsys, "stats", "--n-max", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n\tavg_tonal")
    assert len([l for l in lines if l and l[0].isdigit() and "\t" in l]) == 2


def test_stats_monotone_columns(capsys):
    code, out, _ = run(capsys, "stats", "--n-max", "3")
    assert code == 0
    for line in out.splitlines()[1:4]:
        fields = line.split("\t")
        assert float(fields[4]) >= float(fields[1])   # toneless avg >= tonal avg
        assert int(fields[5]) >= int(fields[2])       # toneless max >= tonal max
        assert float(fields[6]) <= float(fields[3])   # toneless unique <= tonal


def test_stats_parallel_error_names_its_file(tmp_path, capsys):
    bad = write_sentences(tmp_path / "bad.tsv", ["中国\tzhong1"])
    assert run(capsys, "stats", "--parallel", str(bad)) == (
        1, "", f"error: {bad}: line 1: 1 pinyin units vs 2 characters\n")


def test_stats_no_windows_error_names_its_file(tmp_path, capsys):
    short = write_sentences(tmp_path / "short.txt", ["中国", "你好"])
    assert run(capsys, "stats", "--corpus", str(short), "--n-max", "3") == (
        1, "", f"error: {short}: no length-3 windows in corpus\n")


def test_stats_reports_dropped_sentences_on_stderr(tmp_path, capsys):
    three = write_sentences(tmp_path / "three.txt", ["你好世界", "龘龘龘", "中国人民"])
    two = write_sentences(tmp_path / "two.txt", ["你好世界", "中国人民"])
    code, out, err = run(capsys, "stats", "--corpus", str(three), "--n-max", "2")
    assert code == 0
    assert err == (f"stats corpus {three}: dropped 1 of 3 sentences: 0 without Hanzi, 0 outside the length bounds, "
                   "0 repeated, 1 with a character the lexicon lacks\n")
    assert run(capsys, "stats", "--corpus", str(two), "--n-max", "2") == (0, out, "")


def test_validate_assets_command(capsys):
    code, out, _ = run(capsys, "validate-assets")
    assert code == 0
    assert "[ok]" in out and "FAIL" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "--unit-mode", "Tonal"),
        ("synth", "--confusion-policy", "bogus"),
        ("pipeline", "--unit-mode", "Tonal"),
        ("transcribe", "--unit-mode", "Tonal", "--char-lm", "char.arpa"),
        ("stats", "--unit-mode", "Tonal"),
        ("score", "--confusion-policy", "bogus", "--tone-stripped"),
        ("decode", "--unit-mode", "Tonal"),
        ("score", "--confusion-policy", "bogus"),
        ("train-lm", "--unit-mode", "Tonal"),
        ("pipeline", "--char-lm-order", "0"),
        ("pipeline", "--lm-discount", "1.5"),
        ("train-lm", "--char-lm-order", "0"),
        ("train-lm", "--lm-discount", "1.5"),
        ("decode", "--lm-discount", "0"),
        ("pipeline", "--beam-width", "0"),
        ("pipeline", "--lm-weight", "-1"),
        ("pipeline", "--transcriber-beam", "0"),
        ("pipeline", "--frames-per-unit", "1"),
        ("pipeline", "--blank-fill", "0"),
        ("pipeline", "--min-len", "0"),
        ("pipeline", "--lm-weight", "nan"),
        ("pipeline", "--lm-weight", "inf"),
        ("pipeline", "--insertion-bonus", "inf"),
        ("decode", "--insertion-bonus", "nan"),
        ("pipeline", "--prune-threshold", "nan"),
        ("stats", "--n-max", "0"),
    ],
    ids=["synth-unit-mode", "synth-confusion-policy", "pipeline-unit-mode", "transcribe-unit-mode",
         "stats-unit-mode", "score-confusion-policy", "decode-unit-mode", "score-plain-confusion-policy",
         "train-lm-unit-mode", "pipeline-char-lm-order", "pipeline-lm-discount", "train-lm-char-lm-order",
         "train-lm-lm-discount", "decode-lm-discount", "pipeline-beam-width", "pipeline-lm-weight",
         "pipeline-transcriber-beam", "pipeline-frames-per-unit", "pipeline-blank-fill", "pipeline-min-len",
         "pipeline-lm-weight-nan", "pipeline-lm-weight-inf", "pipeline-insertion-bonus-inf",
         "decode-insertion-bonus-nan", "pipeline-prune-threshold-nan", "stats-n-max"],
)
def test_bad_unit_mode_or_confusion_policy_exits_2_and_writes_nothing(tmp_path, small_corpus, capsys, argv):
    extra = {
        "transcribe": ["--input", str(small_corpus)],
        "score": ["--refs", str(small_corpus), "--hyps", str(small_corpus)],
        "decode": ["--emissions", str(tmp_path / "em")],
        "train-lm": ["--train-corpus", str(small_corpus)],
    }.get(argv[0], ["--eval-corpus", str(small_corpus)])
    if argv[0] == "decode":
        # Real emission files, so only the config check can fail the decode.
        assert run(capsys, "synth", "--eval-corpus", str(small_corpus), "--out-dir", str(tmp_path / "em"))[0] == 0
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, *argv, *extra, "--out-dir", str(out_dir))
    assert code == 2
    assert argv[1][2:].replace("-", "_") in err
    assert out == "" and not out_dir.exists()


def write_sentences(path, sentences):
    path.write_text("\n".join(sentences) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("case", ["other-corpus", "other-unit-mode", "fewer-utterances", "missing-refs"])
def test_pipeline_ingest_checks_synth_refs(tmp_path, small_corpus, capsys, case):
    em_dir, out_dir = tmp_path / "em", tmp_path / "out"
    code, _, _ = run(capsys, "synth", "--eval-corpus", str(small_corpus), "--out-dir", str(em_dir))
    assert code == 0
    sentences = assets.read_sentences("corpus_train.txt")
    eval_corpus, flags, message = small_corpus, [], "refs.tsv:1: "
    if case == "other-corpus":
        eval_corpus = write_sentences(tmp_path / "other.txt", sentences[12:24])
    elif case == "other-unit-mode":
        flags = ["--unit-mode", "toneless", "--confusion-policy", "final-neighbor"]
    elif case == "fewer-utterances":
        eval_corpus = write_sentences(tmp_path / "fewer.txt", sentences[:10])
        message = "refs.tsv: 12 references for 10 eval utterances"
    else:
        (em_dir / "refs.tsv").unlink()
        message = f"config error: no such file: {em_dir / 'refs.tsv'}"
    code, out, err = run(capsys, "pipeline", "--emissions-dir", str(em_dir), "--eval-corpus", str(eval_corpus),
                         "--out-dir", str(out_dir), *flags)
    assert code == (2 if case == "missing-refs" else 1)
    assert message in err
    assert out == "" and not out_dir.exists()


def test_missing_refs_is_found_before_the_eval_corpus_is_read(tmp_path, small_corpus, capsys):
    em_dir, out_dir = tmp_path / "em", tmp_path / "out"
    assert run(capsys, "synth", "--eval-corpus", str(small_corpus), "--out-dir", str(em_dir))[0] == 0
    (em_dir / "refs.tsv").unlink()
    eval_corpus = tmp_path / "eval.txt"
    eval_corpus.write_bytes(b"\xff\xfe")   # read first, this would fail with exit 1
    code, out, err = run(capsys, "pipeline", "--emissions-dir", str(em_dir), "--eval-corpus", str(eval_corpus),
                         "--out-dir", str(out_dir))
    assert (code, out, err) == (2, "", f"config error: no such file: {em_dir / 'refs.tsv'}\n")
    assert not out_dir.exists()


def test_pipeline_ingest_matches_synthesized_run(tmp_path, small_corpus, capsys):
    common = ["--eval-corpus", str(small_corpus), "--seed", "12345", "--temperature", "2.5"]
    em_dir, plain, ingest = tmp_path / "em", tmp_path / "plain", tmp_path / "ingest"
    assert run(capsys, "synth", *common, "--out-dir", str(em_dir))[0] == 0
    assert run(capsys, "pipeline", *common, "--out-dir", str(plain))[0] == 0
    assert run(capsys, "pipeline", *common, "--emissions-dir", str(em_dir), "--out-dir", str(ingest))[0] == 0
    for name in ("hyps.tsv", "units.tsv", "detail.jsonl"):
        assert (ingest / name).read_bytes() == (plain / name).read_bytes(), name


def test_unit_lm_that_lacks_units_is_refused_naming_its_file(tmp_path, small_corpus, capsys):
    # A char LM passed as the unit LM, and a bigram unit LM over a alone,
    # lack units of the alphabet. Each is refused as it loads, naming its
    # ARPA file, before any utterance is synthesized.
    char_lm, unit_lm = tmp_path / "char.arpa", tmp_path / "units.arpa"
    code, _, _ = run(capsys, "train-lm", "--train-corpus", str(small_corpus), "--char-lm-order", "2",
                     "--out-dir", str(tmp_path))
    assert code == 0
    unit_lm.write_text("\\data\\\nngram 1=3\nngram 2=1\n\n\\1-grams:\n-0.30103\t</s>\n-99.0\t<s>\n-0.30103\ta\n\n"
                       "\\2-grams:\n-0.30103\t<s> a\n\n\\end\\\n", encoding="utf-8")
    for path in (char_lm, unit_lm):
        code, out, err = run(capsys, "pipeline", "--eval-corpus", str(small_corpus), "--pinyin-lm", str(path),
                             "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (1, "") and not (tmp_path / "out").exists()
        assert err == f"error: {path}: tokens absent from LM vocabulary: ['a1', 'a2', 'a3', 'a4', 'a5']\n"


def test_char_lm_without_end_marker_is_refused_naming_its_file(tmp_path, small_corpus, capsys):
    # Stage 2 scores each sentence's end, which a char LM without </s> would
    # score as <unk>. Both commands that read a char LM refuse it as it loads.
    lm = tmp_path / "no_end.arpa"
    lm.write_text("\\data\\\nngram 1=2\n\n\\1-grams:\n-99.0\t<s>\n0.0\t<unk>\n\n\\end\\\n", encoding="utf-8")
    want = (1, "", f"error: {lm}: tokens absent from LM vocabulary: ['</s>']\n")
    pinyin_file = write_sentences(tmp_path / "p.txt", ["zhong1"])
    assert run(capsys, "transcribe", "--input", str(pinyin_file), "--char-lm", str(lm)) == want
    assert run(capsys, "pipeline", "--eval-corpus", str(small_corpus), "--char-lm", str(lm),
               "--out-dir", str(tmp_path / "out")) == want
    assert not (tmp_path / "out").exists()


def test_lm_that_is_not_normalized_is_refused_naming_its_file(tmp_path, small_corpus, capsys):
    # Unigrams of mass 3 * 10**-0.01, and a <s> context that stores a at 0.5
    # but backs off by 10**-0.5 (0 would make it sum to 1).
    unigrams = tmp_path / "unigrams.arpa"
    unigrams.write_text("\\data\\\nngram 1=4\n\n\\1-grams:\n-0.01\t</s>\n-99.0\t<s>\n-0.01\t<unk>\n-0.01\t中\n\n"
                        "\\end\\\n", encoding="utf-8")
    pinyin_file = write_sentences(tmp_path / "p.txt", ["zhong1"])
    assert run(capsys, "transcribe", "--input", str(pinyin_file), "--char-lm", str(unigrams)) == (
        1, "", f"error: {unigrams}: unigrams: probabilities sum to {3 * 10 ** -0.01!r}, not 1 within 1e-05\n")
    backoff = tmp_path / "backoff.arpa"
    backoff.write_text("\\data\\\nngram 1=3\nngram 2=1\n\n\\1-grams:\n-0.30103\t</s>\n-99.0\t<s>\t-0.5\n"
                       "-0.30103\ta\n\n\\2-grams:\n-0.30103\t<s> a\n\n\\end\\\n", encoding="utf-8")
    em_dir = tmp_path / "em"
    em_dir.mkdir()
    (em_dir / "utt_0000.em").write_text("1 1 1\na\n0:0.0\n", encoding="utf-8")
    code, out, err = run(capsys, "decode", "--emissions", str(em_dir), "--pinyin-lm", str(backoff))
    assert (code, out) == (1, "") and err.startswith(f"error: {backoff}: context '<s>': probabilities sum to 0.658")
    assert run(capsys, "pipeline", "--eval-corpus", str(small_corpus), "--pinyin-lm", str(backoff),
               "--out-dir", str(tmp_path / "out")) == (code, out, err)


def test_frame_with_no_live_class_fails_naming_the_frame(tmp_path, small_corpus, capsys):
    # Every log10 probability is at most 0, so no class passes --prune-threshold 0.
    code, out, err = run(capsys, "pipeline", "--eval-corpus", str(small_corpus), "--prune-threshold", "0",
                         "--out-dir", str(tmp_path / "out"))
    assert (code, out) == (1, "") and not (tmp_path / "out").exists()
    assert err == "error: stage=decode utt=0: frame 0: no class above prune_threshold 0.0\n"
    em_dir = tmp_path / "em"
    assert run(capsys, "synth", "--eval-corpus", str(small_corpus), "--out-dir", str(em_dir))[0] == 0
    code, out, err = run(capsys, "decode", "--emissions", str(em_dir), "--prune-threshold", "0")
    assert (code, out) == (1, "")
    assert err == f"error: {em_dir / 'utt_0000.em'}: frame 0: no class above prune_threshold 0.0\n"


def test_overflowing_fused_score_stops_the_pipeline_naming_the_frame(tmp_path, small_corpus, capsys):
    # Frame 4 starts the second unit, whose prefix takes 2 * 1e308 of bonus.
    code, out, err = run(capsys, "pipeline", "--eval-corpus", str(small_corpus), "--no-use-pinyin-lm",
                         "--insertion-bonus", "1e308", "--out-dir", str(tmp_path / "out"))
    assert (code, out) == (1, "") and not (tmp_path / "out").exists()
    assert err == ("error: stage=decode utt=0: frame 4: fused score is not finite; "
                   "lm_weight or insertion_bonus overflows\n")


def test_release_row_whose_sum_overflows_fails_naming_the_frame(tmp_path, capsys):
    # Frame 7, the second release frame, leaks about 8.4e307 times a jitter
    # in [0.5, 1.5) onto each of two classes: finite weights whose exact sum
    # is past the float range. Its total is inf, so every share is -inf.
    corpus = tmp_path / "one.txt"
    write_sentences(corpus, assets.read_sentences("corpus_train.txt")[:1])
    code, out, err = run(capsys, "pipeline", "--eval-corpus", str(corpus), "--temperature", "1.7e308",
                         "--blank-fill", "0.01", "--out-dir", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert err == "error: stage=synthesize utt=0: frame 7 class 795 value -inf is not finite\n"


def test_pipeline_reports_dropped_sentences_on_stderr(tmp_path, capsys):
    # Three kept sentences, a repeat, one with a character the lexicon lacks
    # and one below min_len: the report covers the three, stderr counts the rest.
    kept = assets.read_sentences("corpus_heldout.txt")[:3]
    six = write_sentences(tmp_path / "six.txt", [*kept, kept[0], "龘" * 6, "短"])
    three = write_sentences(tmp_path / "three.txt", kept)
    code, out, err = run(capsys, "pipeline", "--eval-corpus", str(six), "--out-dir", str(tmp_path / "six"))
    assert code == 0 and "utterances  3\n" in out
    assert err == (f"eval corpus {six}: dropped 3 of 6 sentences: 0 without Hanzi, 1 outside the length bounds, "
                   "1 repeated, 1 with a character the lexicon lacks\n")
    code, _, err = run(capsys, "pipeline", "--eval-corpus", str(three), "--out-dir", str(tmp_path / "three"))
    assert (code, err) == (0, "")
    for name in ("hyps.tsv", "units.tsv", "detail.jsonl"):
        assert (tmp_path / "six" / name).read_bytes() == (tmp_path / "three" / name).read_bytes(), name


def test_train_lm_then_pipeline_and_decode_match_in_run_training(tmp_path, capsys):
    # Punctuated lines and one too short for min_len: train-lm must filter and
    # normalize its corpus exactly as pipeline's in-run training does.
    sentences = assets.read_sentences("corpus_train.txt")[:30]
    train = write_sentences(tmp_path / "train.txt", [s + "，" if i % 3 == 0 else s for i, s in enumerate(sentences)]
                            + ["我们"])
    evals = write_sentences(tmp_path / "eval.txt", assets.read_sentences("corpus_heldout.txt")[:12])
    common = ["--train-corpus", str(train), "--eval-corpus", str(evals), "--seed", "12345", "--temperature", "2.5"]
    lms, em_dir = tmp_path / "lms", tmp_path / "em"
    assert run(capsys, "train-lm", *common, "--out-dir", str(lms))[0] == 0
    loaded = ["--char-lm", str(lms / "char.arpa"), "--pinyin-lm", str(lms / "units.arpa")]
    in_run, from_arpa = tmp_path / "in-run", tmp_path / "from-arpa"
    assert run(capsys, "pipeline", *common, "--out-dir", str(in_run))[0] == 0
    assert run(capsys, "pipeline", *common, *loaded, "--out-dir", str(from_arpa))[0] == 0
    # With both models read, the train corpus is not needed (a later flag wins).
    no_train = tmp_path / "no-train"
    assert run(capsys, "pipeline", *common, *loaded, "--train-corpus", str(tmp_path / "absent.txt"),
               "--out-dir", str(no_train))[0] == 0
    for name in ("hyps.tsv", "units.tsv", "detail.jsonl"):
        assert (from_arpa / name).read_bytes() == (in_run / name).read_bytes() == (no_train / name).read_bytes(), name

    assert run(capsys, "synth", *common, "--out-dir", str(em_dir))[0] == 0
    code, decoded, _ = run(capsys, "decode", "--emissions", str(em_dir), "--pinyin-lm", str(lms / "units.arpa"))
    assert code == 0
    ingest = tmp_path / "ingest"
    assert run(capsys, "pipeline", *common, "--emissions-dir", str(em_dir), "--pinyin-lm", str(lms / "units.arpa"),
               "--out-dir", str(ingest))[0] == 0
    units = [line.rsplit("\t", 1)[0] for line in decoded.splitlines()]
    assert units == (ingest / "units.tsv").read_text(encoding="utf-8").splitlines() == \
        (in_run / "units.tsv").read_text(encoding="utf-8").splitlines()


def test_configured_inventory_checks_bundled_lexicon(tmp_path, small_corpus, capsys):
    lexicon_lines = assets.data_path("lexicon.tsv").read_text(encoding="utf-8").splitlines()
    lineno, unit = next((n, line.split("\t")[1]) for n, line in enumerate(lexicon_lines, 1)
                        if line.strip() and not line.startswith("#"))
    inventory = write_sentences(tmp_path / "inventory.txt",
                                sorted(u for u in assets.default_inventory().tonal_units if u != unit))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "pipeline", "--inventory", str(inventory), "--eval-corpus", str(small_corpus),
                         "--out-dir", str(out_dir))
    assert code == 1
    assert f"lexicon.tsv:{lineno}: not in inventory" in err and repr(unit) in err
    assert out == "" and not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["train-lm", "--corpus", "c.txt"], ["train-lm", "--unit", "char"], ["train-lm", "--order", "2"],
    ["train-lm", "--discount", "0.5"], ["train-lm", "--out", "lm.arpa"], ["decode", "--emissions", "em", "--lm", "x"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_removed_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in commands if argv[:1] == ["pinasr"]]
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: pinasr {shlex.join(argv)}")



def test_pipeline_config_checks_itself_on_construction_and_is_frozen():
    with pytest.raises(ConfigError, match="unit_mode must be tonal or toneless, got 'x'"):
        PipelineConfig(unit_mode="x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        PipelineConfig().seed = 1


@pytest.mark.parametrize("command", ["synth", "pipeline"])
def test_negative_seed_exits_2_before_anything_is_written(tmp_path, small_corpus, capsys, command):
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, command, "--seed", "-1", "--eval-corpus", str(small_corpus), "--out-dir", str(out_dir))
    assert (code, out, err) == (2, "", "config error: seed must be >= 0, got -1\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("bad", ["eval-corpus", "train-corpus", "config", "inventory", "lexicon", "transcribe-input",
                                 "score-refs", "score-hyps", "emissions-dir-refs"])
def test_input_that_is_not_utf8_exits_1_naming_its_file(tmp_path, small_corpus, capsys, bad):
    em_dir = tmp_path / "em"
    em_dir.mkdir()
    path = em_dir / "refs.tsv"   # every case reads this file; --emissions-dir finds it by this name
    path.write_bytes(b"\xff\xfe")
    (tmp_path / "char.arpa").write_text(GOOD_ARPA, encoding="utf-8")
    argv = {
        "eval-corpus": ["pipeline", "--eval-corpus", str(path)],
        "train-corpus": ["train-lm", "--train-corpus", str(path)],
        "config": ["pipeline", "--config", str(path)],
        "inventory": ["synth", "--inventory", str(path)],
        "lexicon": ["synth", "--lexicon", str(path)],
        "transcribe-input": ["transcribe", "--input", str(path), "--char-lm", str(tmp_path / "char.arpa")],
        "score-refs": ["score", "--refs", str(path), "--hyps", str(small_corpus)],
        "score-hyps": ["score", "--refs", str(small_corpus), "--hyps", str(path)],
        "emissions-dir-refs": ["pipeline", "--emissions-dir", str(em_dir), "--eval-corpus", str(small_corpus)],
    }[bad]
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out-dir", str(out_dir))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    assert not out_dir.exists()


def lexicon_with_first_entry(tmp_path, replace):
    """A copy of the bundled lexicon with its first entry's line passed through
    ``replace``, and that line's number."""
    lines = assets.data_path("lexicon.tsv").read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.strip() and not line.startswith("#"))
    lines[lineno - 1] = replace(lines[lineno - 1])
    path = tmp_path / "lexicon.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, lineno


@pytest.mark.parametrize("argv", [
    ("pipeline", "--channel-weight", "nan"),
    ("pipeline", "--channel-weight=-1e308"),
    ("transcribe", "--channel-weight", "inf"),
    ("pipeline", "--temperature", "nan"),
    ("pipeline", "--temperature", "inf"),
    ("synth", "--temperature", "nan"),
    ("pipeline", "--prune-threshold", "inf"),
    ("decode", "--prune-threshold", "inf"),
    ("synth", "lexicon-weight", "nan"),
    ("pipeline", "lexicon-weight", "inf"),
], ids=lambda argv: "_".join(argv))
def test_nan_and_inf_fail_each_numeric_domain(tmp_path, small_corpus, capsys, argv):
    command, *flag = argv
    if command == "decode":
        # Real emission files, so only the config check can fail the decode.
        assert run(capsys, "synth", "--eval-corpus", str(small_corpus), "--out-dir", str(tmp_path / "em"))[0] == 0
    extra = {
        "transcribe": ["--input", str(small_corpus), "--char-lm", str(tmp_path / "char.arpa")],
        "decode": ["--emissions", str(tmp_path / "em")],
    }.get(command, ["--eval-corpus", str(small_corpus)])
    out_dir = tmp_path / "out"
    if flag[0] == "lexicon-weight":   # a weight in the lexicon file, not a config key
        lexicon, lineno = lexicon_with_first_entry(tmp_path, lambda line: line.rsplit("\t", 1)[0] + "\t" + flag[1])
        code, out, err = run(capsys, command, "--lexicon", str(lexicon), *extra, "--out-dir", str(out_dir))
        assert (code, out, err) == (1, "", f"error: {lexicon}:{lineno}: weight must be finite\n")
    else:
        code, out, err = run(capsys, command, *flag, *extra, "--out-dir", str(out_dir))
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and flag[0][2:].split("=")[0].replace("-", "_") in err
    assert not out_dir.exists()


@pytest.mark.parametrize("text, message", [
    ("seed\n", "1: expected key=value, got 'seed'"),
    ("# comment\nuse_pinyin_lm = maybe\n", "2: bad boolean 'maybe'"),
    ("seed=1.5\n", "1: bad int '1.5'"),
    ("lm_weight=heavy\n", "1: bad float 'heavy'"),
])
def test_config_file_errors_name_the_line(tmp_path, capsys, text, message):
    config = tmp_path / "run.conf"
    config.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "pipeline", "--config", str(config), "--out-dir", str(tmp_path / "out"))
    assert (code, out, err) == (2, "", f"config error: {config}:{message}\n")
    assert not (tmp_path / "out").exists()


def test_config_file_accepts_booleans_and_strings(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("use_pinyin_lm = Yes\nunit_mode=toneless\nconfusion_policy = final-neighbor\n", encoding="utf-8")
    assert parse_config_file(config) == {"use_pinyin_lm": True, "unit_mode": "toneless",
                                         "confusion_policy": "final-neighbor"}
    config.write_text("use_pinyin_lm=OFF\nchar_lm=lm/char.arpa\n", encoding="utf-8")
    assert parse_config_file(config) == {"use_pinyin_lm": False, "char_lm": "lm/char.arpa"}


@pytest.mark.parametrize("line, message", [
    ("好\thao3", "expected 3 tab-separated fields"),
    ("好好\thao3\t1", "key must be a single character, got '好好'"),
    ("好\thao3\theavy", "bad weight 'heavy'"),
    ("好\thao3\t0", "weight must be positive"),
], ids=["fields", "key", "weight-text", "weight-zero"])
def test_lexicon_file_errors_name_the_line(tmp_path, small_corpus, capsys, line, message):
    lexicon, lineno = lexicon_with_first_entry(tmp_path, lambda _: line)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "synth", "--lexicon", str(lexicon), "--eval-corpus", str(small_corpus),
                         "--out-dir", str(out_dir))
    assert (code, out, err) == (1, "", f"error: {lexicon}:{lineno}: {message}\n")
    assert not out_dir.exists()


def test_decode_directory_without_emission_files_exits_2(tmp_path, capsys):
    assert run(capsys, "decode", "--emissions", str(tmp_path)) == (
        2, "", f"config error: no *.em files under {tmp_path}\n")


def test_score_writes_per_utterance_jsonl(tmp_path, capsys):
    refs, hyps, detail = tmp_path / "refs.txt", tmp_path / "hyps.txt", tmp_path / "detail.jsonl"
    refs.write_text("a b c\nd\n", encoding="utf-8")
    hyps.write_text("a x c e\nd\n", encoding="utf-8")
    code, out, err = run(capsys, "score", "--refs", str(refs), "--hyps", str(hyps), "--jsonl", str(detail))
    assert (code, err) == (0, "") and "rate\t0.500000\n" in out
    assert detail.read_text(encoding="utf-8") == (
        '{"deletions": 0, "distance": 2, "index": 0, "insertions": 1, "ref_len": 3, "substitutions": 1}\n'
        '{"deletions": 0, "distance": 0, "index": 1, "insertions": 0, "ref_len": 1, "substitutions": 0}\n')


@pytest.mark.parametrize("case", ["count", "unit"])
def test_score_checks_both_files_before_writing_anything(tmp_path, capsys, case):
    refs, hyps, detail = tmp_path / "refs.txt", tmp_path / "hyps.txt", tmp_path / "detail.jsonl"
    refs.write_text("zhong1 guo2\nni3\n", encoding="utf-8")
    if case == "count":
        hyps.write_text("zhong1 guo2\n", encoding="utf-8")
        want = f"error: 2 references in {refs} vs 1 hypotheses in {hyps}\n"
    else:
        hyps.write_text("zhong1 guo2\nxx9\n", encoding="utf-8")
        want = f"error: {hyps}:2: tone digit out of range in 'xx9'\n"
    assert run(capsys, "score", "--refs", str(refs), "--hyps", str(hyps), "--tone-stripped",
               "--jsonl", str(detail)) == (1, "", want)
    assert not detail.exists()


def test_score_all_empty_references_warns(tmp_path, capsys):
    refs, hyps = tmp_path / "refs.txt", tmp_path / "hyps.txt"
    refs.write_text("\n\n", encoding="utf-8")
    hyps.write_text("a\n\n", encoding="utf-8")
    code, out, err = run(capsys, "score", "--refs", str(refs), "--hyps", str(hyps))
    assert (code, err) == (0, "")
    assert out == ("metric\terror_rate\nsubstitutions\t0\ninsertions\t1\ndeletions\t0\nref_len\t0\n"
                   "rate\t0.000000\nwarning\tempty-reference corpus\n")


def test_eval_corpus_that_filters_to_nothing_exits_2(tmp_path, capsys):
    corpus = write_sentences(tmp_path / "short.txt", ["你好", "谢谢"])
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "pipeline", "--eval-corpus", str(corpus), "--out-dir", str(out_dir))
    assert (code, out) == (2, "")
    assert err == (f"eval corpus {corpus}: dropped 2 of 2 sentences: 0 without Hanzi, 2 outside the length bounds, "
                   "0 repeated, 0 with a character the lexicon lacks\n"
                   "config error: evaluation corpus is empty after filtering\n")
    assert not out_dir.exists()


def test_synth_decode_and_pipeline_load_no_numpy(tmp_path):
    # numpy is a test dependency: one stray import would cost every run its start-up.
    sentence = next(s for s in assets.read_sentences("corpus_heldout.txt") if 5 <= len(s) <= 40)
    corpus = tmp_path / "one.txt"
    corpus.write_text(sentence + "\n", encoding="utf-8")
    em, out = str(tmp_path / "em"), str(tmp_path / "out")
    common = ["--eval-corpus", str(corpus), "--temperature", "2.5"]
    script = (
        "import sys\n"
        "from pinasr.cli import main\n"
        f"assert main({['synth', *common, '--out-dir', em]!r}) == 0\n"
        f"assert main({['decode', '--emissions', em]!r}) == 0\n"
        f"assert main({['pipeline', *common, '--out-dir', out]!r}) == 0\n"
        "print('numpy loaded:', sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "numpy loaded: []"
