"""Bundled data files: accessors and manifest validation.

The manifest (``path<TAB>sha256<TAB>count``) pins each data file's content
hash and record count. ``validate_assets`` re-derives both, loads the
inventory and lexicon (a reading outside the inventory fails the load) and
checks the closure properties the rest of the toolkit relies on: every
segment of the inventory carries tones 1-4, every tone-5 unit is read by
some lexicon entry, and the toy corpora are fully covered by the lexicon.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .corpus import build_parallel
from .pinyin import PronunciationLexicon, SyllableInventory, _numbered_lines, split_unit

# Full-scale Mandarin references, for context in reports (a desk-scale
# bundle is intentionally smaller): 2020 tonal units, 408 toneless units.
REFERENCE_COUNTS = {"tonal_units": 2020, "toneless_units": 408}

CORPORA = ("corpus_train.txt", "corpus_heldout.txt", "corpus_toy20.txt")


def data_path(name: str) -> Path:
    path = Path(str(resources.files("pinasr") / "data" / name))
    if not path.exists():
        raise FileNotFoundError(f"bundled data file missing: {path}")
    return path


@lru_cache(maxsize=1)
def default_inventory() -> SyllableInventory:
    return SyllableInventory.from_file(data_path("syllables.txt"))


@lru_cache(maxsize=1)
def default_lexicon() -> PronunciationLexicon:
    return PronunciationLexicon.from_file(data_path("lexicon.tsv"), default_inventory())


def read_sentences(name: str) -> list[str]:
    return [line for line in data_path(name).read_text(encoding="utf-8").splitlines() if line.strip()]


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    sha256: str
    count: int


def read_manifest() -> list[ManifestEntry]:
    path = data_path("manifest.tsv")
    entries = []
    for lineno, raw in _numbered_lines(path):
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
        try:
            count = int(fields[2])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad count {fields[2]!r}") from None
        entries.append(ManifestEntry(path=fields[0], sha256=fields[1], count=count))
    return entries


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def render(self) -> str:
        lines = [f"[{'ok' if c.ok else 'FAIL'}] {c.name}: {c.detail}" for c in self.checks]
        return "\n".join(lines) + "\n"


def validate_assets() -> ValidationReport:
    checks: list[Check] = []
    entries = read_manifest()
    corpora: dict[str, list[str]] = {}   # corpus name -> its non-blank lines

    for entry in entries:
        try:
            path = data_path(entry.path)
        except FileNotFoundError:
            checks.append(Check(f"present:{entry.path}", False, "file missing"))
            continue
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        checks.append(
            Check(
                f"hash:{entry.path}",
                digest == entry.sha256,
                "matches manifest" if digest == entry.sha256 else f"got {digest[:12]}..., manifest {entry.sha256[:12]}...",
            )
        )
        try:
            lines = data.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            checks.append(Check(f"count:{entry.path}", False, str(exc)))
            continue
        count = sum(1 for line in lines if line.strip() and not line.startswith("#"))
        checks.append(
            Check(
                f"count:{entry.path}",
                count == entry.count,
                f"{count} records" if count == entry.count else f"{count} records, manifest says {entry.count}",
            )
        )
        if entry.path in CORPORA:
            corpora[entry.path] = [line for line in lines if line.strip()]

    try:
        inventory = default_inventory()
        lexicon = default_lexicon()
    except Exception as exc:  # parse failure is itself the diagnostic
        checks.append(Check("load", False, str(exc)))
        return ValidationReport(checks=tuple(checks))

    # syllables.txt holds every segment with tones 1-4, plus the tone-5 units the lexicon reads.
    missing = sorted({seg + tone for seg in inventory.toneless_units for tone in "1234"} - inventory.tonal_units)
    neutral = {unit for unit in inventory.tonal_units if split_unit(unit)[2] == "5"}
    unread = sorted(neutral - lexicon.all_units())
    complete = not missing and not unread
    checks.append(Check(
        "tones-complete", complete,
        f"{len(inventory.toneless_units)} segments x tones 1-4 + {len(neutral)} read tone-5 units"
        f" (full-scale reference: {REFERENCE_COUNTS['tonal_units']}/{REFERENCE_COUNTS['toneless_units']})"
        if complete else f"tones 1-4 missing: {missing[:5]}; tone-5 units no lexicon entry reads: {unread[:5]}"))

    for name in CORPORA:
        sentences = corpora.get(name)
        if sentences is None:   # a corpus missing or not UTF-8 failed above
            if all(entry.path != name for entry in entries):
                checks.append(Check(f"coverage:{name}", False, "not in manifest"))
            continue
        parallel = build_parallel(sentences, lexicon)
        checks.append(
            Check(
                f"coverage:{name}",
                parallel.skipped == 0,
                f"{len(parallel)} sentences fully covered"
                if parallel.skipped == 0
                else f"{parallel.skipped} of {len(sentences)} sentences have uncovered characters",
            )
        )
    return ValidationReport(checks=tuple(checks))
