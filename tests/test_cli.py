import json
from pathlib import Path

import pytest

from pinasr import assets
from pinasr.cli import PipelineConfig, config_hash, main, parse_config_file

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


def test_train_lm_round_trip_and_determinism(tmp_path, small_corpus, capsys):
    out1, out2 = tmp_path / "a.arpa", tmp_path / "b.arpa"
    code, out, _ = run(capsys, "train-lm", "--corpus", str(small_corpus), "--unit", "pinyin",
                       "--order", "2", "--out", str(out1))
    assert code == 0 and "vocabulary" in out
    code, _, _ = run(capsys, "train-lm", "--corpus", str(small_corpus), "--unit", "pinyin",
                     "--order", "2", "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()

    from pinasr.ngram_lm import read_arpa
    with open(out1, encoding="utf-8") as fh:
        model = read_arpa(fh)
    assert model.order == 2


def test_train_lm_bad_order_exits_2(tmp_path, small_corpus, capsys):
    code, _, err = run(capsys, "train-lm", "--corpus", str(small_corpus), "--order", "0",
                       "--out", str(tmp_path / "x.arpa"))
    assert code == 2 and "order" in err


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
    code, _, _ = run(capsys, "train-lm", "--corpus", str(corpus), "--unit", "char",
                     "--order", "3", "--out", str(lm_path))
    assert code == 0
    pinyin_file = tmp_path / "p.txt"
    pinyin_file.write_text("zhong1 guo2\n", encoding="utf-8")
    code, out, _ = run(capsys, "transcribe", "--input", str(pinyin_file), "--char-lm", str(lm_path))
    assert code == 0
    hanzi, score = out.strip().split("\t")
    assert len(hanzi) == 2
    assert hanzi == "中国"

    # Strict: a unit no character reads stops the run, after the lines before it.
    pinyin_file.write_text("zhong1 guo2\nzhong1 zhong2\n", encoding="utf-8")
    code, strict_out, err = run(capsys, "transcribe", "--input", str(pinyin_file), "--char-lm", str(lm_path))
    assert code == 1
    assert err == "error: no homophone candidates for 'zhong2' at position 1\n"
    assert strict_out == out


def test_transcribe_requires_char_lm(tmp_path, capsys):
    pinyin_file = tmp_path / "p.txt"
    pinyin_file.write_text("zhong1\n", encoding="utf-8")
    code, _, err = run(capsys, "transcribe", "--input", str(pinyin_file))
    assert code == 2 and "char-lm" in err


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
    ],
    ids=["synth-unit-mode", "synth-confusion-policy", "pipeline-unit-mode", "transcribe-unit-mode",
         "stats-unit-mode", "score-confusion-policy"],
)
def test_bad_unit_mode_or_confusion_policy_exits_2_and_writes_nothing(tmp_path, small_corpus, capsys, argv):
    extra = {
        "transcribe": ["--input", str(small_corpus)],
        "score": ["--refs", str(small_corpus), "--hyps", str(small_corpus)],
    }.get(argv[0], ["--eval-corpus", str(small_corpus)])
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
        message = "refs.tsv: not found"
    code, out, err = run(capsys, "pipeline", "--emissions-dir", str(em_dir), "--eval-corpus", str(eval_corpus),
                         "--out-dir", str(out_dir), *flags)
    assert code == 1
    assert message in err
    assert out == "" and not out_dir.exists()


def test_pipeline_ingest_matches_synthesized_run(tmp_path, small_corpus, capsys):
    common = ["--eval-corpus", str(small_corpus), "--seed", "12345", "--temperature", "2.5"]
    em_dir, plain, ingest = tmp_path / "em", tmp_path / "plain", tmp_path / "ingest"
    assert run(capsys, "synth", *common, "--out-dir", str(em_dir))[0] == 0
    assert run(capsys, "pipeline", *common, "--out-dir", str(plain))[0] == 0
    assert run(capsys, "pipeline", *common, "--emissions-dir", str(em_dir), "--out-dir", str(ingest))[0] == 0
    for name in ("hyps.tsv", "units.tsv", "detail.jsonl"):
        assert (ingest / name).read_bytes() == (plain / name).read_bytes(), name


def test_pipeline_stage_error_names_stage_and_utterance(tmp_path, small_corpus, capsys):
    char_lm = tmp_path / "char.arpa"
    code, _, _ = run(capsys, "train-lm", "--corpus", str(small_corpus), "--unit", "char",
                     "--order", "2", "--out", str(char_lm))
    assert code == 0
    code, _, err = run(capsys, "pipeline", "--eval-corpus", str(small_corpus), "--pinyin-lm", str(char_lm),
                       "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert "stage=decode utt=0" in err
