import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pinasr import assets
from pinasr.cli import main
from pinasr.assets import (
    REFERENCE_COUNTS,
    read_manifest,
    validate_assets,
)


def test_pristine_checkout_validates():
    report = validate_assets()
    assert report.ok, report.render()


def test_manifest_entries_cover_all_data_files():
    names = {e.path for e in read_manifest()}
    data_dir = Path(assets.data_path("manifest.tsv")).parent
    on_disk = {p.name for p in data_dir.iterdir() if p.name != "manifest.tsv"}
    assert names == on_disk


def test_validation_report_mentions_reference_counts():
    text = validate_assets().render()
    assert str(REFERENCE_COUNTS["tonal_units"]) in text
    assert str(REFERENCE_COUNTS["toneless_units"]) in text


def test_corruption_is_detected(tmp_path, monkeypatch):
    data_dir = Path(assets.data_path("manifest.tsv")).parent
    workdir = tmp_path / "data"
    shutil.copytree(data_dir, workdir)
    lexicon = workdir / "lexicon.tsv"
    lexicon.write_text(
        lexicon.read_text(encoding="utf-8") + "妈\tma1\t7\n", encoding="utf-8"
    )

    def fake_data_path(name):
        path = workdir / name
        if not path.exists():
            raise FileNotFoundError(f"bundled data file missing: {path}")
        return path

    monkeypatch.setattr(assets, "data_path", fake_data_path)
    assets.default_inventory.cache_clear()
    assets.default_lexicon.cache_clear()
    try:
        report = validate_assets()
    finally:
        assets.default_inventory.cache_clear()
        assets.default_lexicon.cache_clear()
    failed = {c.name for c in report.checks if not c.ok}
    assert "hash:lexicon.tsv" in failed
    assert "count:lexicon.tsv" in failed


def test_missing_file_is_reported(tmp_path, monkeypatch):
    data_dir = Path(assets.data_path("manifest.tsv")).parent
    workdir = tmp_path / "data"
    shutil.copytree(data_dir, workdir)
    (workdir / "corpus_toy20.txt").unlink()

    def fake_data_path(name):
        path = workdir / name
        if not path.exists():
            raise FileNotFoundError(f"bundled data file missing: {path}")
        return path

    monkeypatch.setattr(assets, "data_path", fake_data_path)
    assets.default_inventory.cache_clear()
    assets.default_lexicon.cache_clear()
    try:
        report = validate_assets()
    finally:
        assets.default_inventory.cache_clear()
        assets.default_lexicon.cache_clear()
    assert not report.ok
    assert any(c.name == "present:corpus_toy20.txt" and not c.ok for c in report.checks)


def test_corpus_that_is_not_utf8_fails_its_checks(tmp_path, monkeypatch, capsys):
    data_dir = Path(assets.data_path("manifest.tsv")).parent
    workdir = tmp_path / "data"
    shutil.copytree(data_dir, workdir)
    corpus = workdir / "corpus_toy20.txt"
    corpus.write_bytes(corpus.read_bytes() + b"\xff\xfe")

    def fake_data_path(name):
        path = workdir / name
        if not path.exists():
            raise FileNotFoundError(f"bundled data file missing: {path}")
        return path

    monkeypatch.setattr(assets, "data_path", fake_data_path)
    assets.default_inventory.cache_clear()
    assets.default_lexicon.cache_clear()
    try:
        report = validate_assets()
        assert main(["validate-assets"]) == 1
    finally:
        assets.default_inventory.cache_clear()
        assets.default_lexicon.cache_clear()
    failed = {c.name: c.detail for c in report.checks if not c.ok}
    assert set(failed) == {"hash:corpus_toy20.txt", "count:corpus_toy20.txt"}
    assert failed["count:corpus_toy20.txt"].startswith("'utf-8' codec can't decode byte 0xff")
    assert "[FAIL] count:corpus_toy20.txt: 'utf-8' codec" in capsys.readouterr().out


def test_corpus_left_out_of_the_manifest_fails_coverage(tmp_path, monkeypatch):
    data_dir = Path(assets.data_path("manifest.tsv")).parent
    workdir = tmp_path / "data"
    shutil.copytree(data_dir, workdir)
    manifest = workdir / "manifest.tsv"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    manifest.write_text("\n".join(l for l in lines if not l.startswith("corpus_toy20.txt\t")) + "\n", encoding="utf-8")
    monkeypatch.setattr(assets, "data_path", lambda name: workdir / name)
    failed = {c.name: c.detail for c in validate_assets().checks if not c.ok}
    assert failed == {"coverage:corpus_toy20.txt": "not in manifest"}


def test_removed_tone_is_detected(tmp_path, monkeypatch):
    data_dir = Path(assets.data_path("manifest.tsv")).parent
    workdir = tmp_path / "data"
    shutil.copytree(data_dir, workdir)
    # A tone-1-4 unit that no lexicon entry reads, so the lexicon still loads.
    unread = sorted(assets.default_inventory().tonal_units - assets.default_lexicon().all_units())
    dropped = next(unit for unit in unread if not unit.endswith("5"))
    syllables = workdir / "syllables.txt"
    lines = syllables.read_text(encoding="utf-8").splitlines()
    syllables.write_text("\n".join(line for line in lines if line != dropped) + "\n", encoding="utf-8")

    def fake_data_path(name):
        path = workdir / name
        if not path.exists():
            raise FileNotFoundError(f"bundled data file missing: {path}")
        return path

    monkeypatch.setattr(assets, "data_path", fake_data_path)
    assets.default_inventory.cache_clear()
    assets.default_lexicon.cache_clear()
    try:
        report = validate_assets()
    finally:
        assets.default_inventory.cache_clear()
        assets.default_lexicon.cache_clear()
    check = next(c for c in report.checks if c.name == "tones-complete")
    assert not check.ok
    assert dropped in check.detail
    assert "load" not in {c.name for c in report.checks}   # the inventory and lexicon loaded


def test_lexicon_reading_outside_inventory_fails_load(tmp_path, monkeypatch):
    data_dir = Path(assets.data_path("manifest.tsv")).parent
    workdir = tmp_path / "data"
    shutil.copytree(data_dir, workdir)
    lexicon = workdir / "lexicon.tsv"
    lines = lexicon.read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.strip() and not line.startswith("#"))
    char, _, weight = lines[lineno - 1].split("\t")
    lines[lineno - 1] = f"{char}\tzzz1\t{weight}"
    lexicon.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def fake_data_path(name):
        path = workdir / name
        if not path.exists():
            raise FileNotFoundError(f"bundled data file missing: {path}")
        return path

    monkeypatch.setattr(assets, "data_path", fake_data_path)
    assets.default_inventory.cache_clear()
    assets.default_lexicon.cache_clear()
    try:
        report = validate_assets()
    finally:
        assets.default_inventory.cache_clear()
        assets.default_lexicon.cache_clear()
    assert not report.ok
    load = next(c for c in report.checks if c.name == "load")
    assert not load.ok
    assert f"lexicon.tsv:{lineno}: " in load.detail and "'zzz1'" in load.detail


def test_manifest_bad_count_names_its_line(tmp_path, monkeypatch, capsys):
    data_dir = Path(assets.data_path("manifest.tsv")).parent
    workdir = tmp_path / "data"
    shutil.copytree(data_dir, workdir)
    manifest = workdir / "manifest.tsv"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.strip() and not line.startswith("#"))
    lines[lineno - 1] = lines[lineno - 1].rsplit("\t", 1)[0] + "\tx"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(assets, "data_path", lambda name: workdir / name)
    assert main(["validate-assets"]) == 1
    assert capsys.readouterr().err == f"error: {manifest}:{lineno}: bad count 'x'\n"


def test_manifest_line_with_two_fields_names_its_line(tmp_path, monkeypatch, capsys):
    data_dir = Path(assets.data_path("manifest.tsv")).parent
    workdir = tmp_path / "data"
    shutil.copytree(data_dir, workdir)
    manifest = workdir / "manifest.tsv"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.strip() and not line.startswith("#"))
    lines[lineno - 1] = lines[lineno - 1].rsplit("\t", 1)[0]
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(assets, "data_path", lambda name: workdir / name)
    assert main(["validate-assets"]) == 1
    assert capsys.readouterr().err == f"error: {manifest}:{lineno}: expected 3 tab-separated fields\n"


def test_manifest_that_is_not_utf8_is_named(tmp_path, monkeypatch, capsys):
    data_dir = Path(assets.data_path("manifest.tsv")).parent
    workdir = tmp_path / "data"
    shutil.copytree(data_dir, workdir)
    manifest = workdir / "manifest.tsv"
    with manifest.open("ab") as fh:
        fh.write(b"\xff\n")
    monkeypatch.setattr(assets, "data_path", lambda name: workdir / name)
    assert main(["validate-assets"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: ") and "can't decode byte 0xff" in err


def test_importing_assets_loads_no_numpy_and_no_search_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, pinasr.assets; "
             "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'pinasr'))))")
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert loaded.split() == ["pinasr", "pinasr.assets", "pinasr.corpus", "pinasr.pinyin"]
