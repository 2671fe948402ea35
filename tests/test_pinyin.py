import pytest
from hypothesis import given, strategies as st

from pinasr import assets
from pinasr.pinyin import (
    InvalidSyllable,
    InvalidTone,
    PronunciationLexicon,
    SyllableInventory,
    UnknownCharacter,
    hanzi_to_pinyin,
    parse_syllable,
    split_unit,
    strip_tone,
)
from reference_impls import parse_toneless


@pytest.fixture(scope="module")
def inventory():
    return assets.default_inventory()


@pytest.fixture(scope="module")
def lexicon():
    return assets.default_lexicon()


def test_parse_zhong1(inventory):
    assert parse_syllable("zhong1", inventory) == "zhong1"
    assert split_unit("zhong1") == ("zh", "ong", "1")


def test_parse_zero_onset(inventory):
    assert parse_syllable("e4", inventory) == "e4"
    assert split_unit("e4") == ("", "e", "4")


def test_parse_rejects_nonsense(inventory):
    with pytest.raises(InvalidSyllable):
        parse_syllable("xyz1", inventory)


def test_parse_rejects_bad_tone(inventory):
    with pytest.raises(InvalidTone):
        parse_syllable("zhong9", inventory)
    with pytest.raises(InvalidTone):
        parse_syllable("zhong", inventory)  # tonal parser needs a digit
    with pytest.raises(InvalidSyllable):
        parse_syllable("", inventory)
    with pytest.raises(InvalidSyllable):
        parse_syllable("zhōng1", inventory)  # non-ASCII


def test_parse_is_case_insensitive(inventory):
    assert parse_syllable("ZHONG1", inventory) == "zhong1"


def test_parse_toneless(inventory):
    assert parse_toneless("zhong", inventory) == "zhong"
    with pytest.raises(InvalidSyllable):
        parse_toneless("zhong1", inventory)
    with pytest.raises(InvalidSyllable):
        parse_toneless("xyz", inventory)


def test_strip_tone_basics(inventory):
    assert strip_tone(parse_syllable("zhong1", inventory)) == "zhong"
    assert strip_tone(parse_syllable("ma5", inventory)) == "ma"


def test_strip_preserves_length(inventory, lexicon):
    pinyin = hanzi_to_pinyin("中国人民", lexicon)
    assert len([strip_tone(s) for s in pinyin]) == len(pinyin)


def test_round_trip_whole_inventory(inventory):
    # Exhaustive: every unit parses to itself, and its parts join back to it.
    for unit in inventory.tonal_units:
        assert parse_syllable(unit, inventory) == unit
    for unit in inventory.tonal_units | inventory.toneless_units:
        assert "".join(split_unit(unit)) == unit


def test_inventory_is_every_segment_in_tones_1_to_4_plus_read_tone_5(inventory, lexicon):
    # The claim of the syllables.txt header (1649 = 409 x 4 + 13).
    four_tones = {seg + tone for seg in inventory.toneless_units for tone in "1234"}
    neutral = inventory.tonal_units - four_tones
    assert four_tones <= inventory.tonal_units
    assert {split_unit(unit)[2] for unit in neutral} == {"5"}
    assert neutral <= lexicon.all_units()


def test_toneless_units_are_the_stripped_tonal_units(tmp_path, inventory):
    path = tmp_path / "syllables.txt"
    path.write_text("# version: t1\nzhong1\nzhong4\n\nlv4\na1\n", encoding="utf-8")
    inline = SyllableInventory(frozenset(["zhong1", "zhong4", "guo2", "er5"]), "inline")
    for inv in (inline, SyllableInventory.from_file(path), inventory):
        assert inv.toneless_units == {strip_tone(unit) for unit in inv.tonal_units}
    assert inline.toneless_units == {"zhong", "guo", "er"}
    assert SyllableInventory.from_file(path).toneless_units == {"zhong", "lv", "a"}


def test_split_unit_prefers_long_onsets():
    assert split_unit("zhong") == ("zh", "ong", "")
    assert split_unit("zong") == ("z", "ong", "")
    assert split_unit("ai") == ("", "ai", "")
    assert split_unit("zhong4") == ("zh", "ong", "4")


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz12345", min_size=1, max_size=8))
def test_parser_never_crashes_on_ascii(inventory, text):
    try:
        unit = parse_syllable(text, inventory)
    except (InvalidSyllable, InvalidTone):
        return
    assert unit == text.lower()


def test_inventory_from_file_rejects_malformed(tmp_path):
    path = tmp_path / "syllables.txt"
    for unit in ("zhong", "zhong6"):   # no tone digit; tone out of range
        path.write_text(f"zhong1\n{unit}\n", encoding="utf-8")
        with pytest.raises(InvalidSyllable, match=f":2: malformed tonal unit '{unit}'"):
            SyllableInventory.from_file(path)


def test_hanzi_to_pinyin_fixture(lexicon):
    assert hanzi_to_pinyin("中国", lexicon) == ["zhong1", "guo2"]
    assert hanzi_to_pinyin("", lexicon) == []


def test_hanzi_to_pinyin_unknown_character(lexicon):
    with pytest.raises(UnknownCharacter) as err:
        hanzi_to_pinyin("中X国", lexicon)
    assert err.value.char == "X"
    assert err.value.position == 1


def test_hanzi_to_pinyin_length(lexicon):
    sentence = "他说明天早上要去学校"
    assert len(hanzi_to_pinyin(sentence, lexicon)) == len(sentence)


def test_heteronym_takes_highest_weight(lexicon):
    # 中 carries both zhong1 and zhong4; zhong1 is the dominant reading.
    readings = lexicon.readings("中")
    assert readings[0][0] == "zhong1"
    assert hanzi_to_pinyin("中", lexicon) == ["zhong1"]


def test_lexicon_readings_sorted_descending(lexicon):
    for char in lexicon.characters:
        weights = [w for _, w in lexicon.readings(char)]
        assert weights == sorted(weights, reverse=True)
        assert all(w > 0 for w in weights)


def test_lexicon_units_are_inventory_valid(inventory, lexicon):
    assert lexicon.all_units() <= inventory.tonal_units


def test_heteronym_tie_breaks_by_unit_string(inventory):
    lex = PronunciationLexicon(
        {"同": [(parse_syllable("tong2", inventory), 5.0), (parse_syllable("dong1", inventory), 5.0)]}
    )
    assert lex.readings("同")[0][0] == "dong1"  # equal weight, lexicographic order


def test_homophones_normalized_per_character(lexicon):
    for unit in ("shi4", "zhong1", "ma5"):
        for char, p in lexicon.homophones(unit, tonal=True):
            assert 0 < p <= 1
    # toneless candidates are a superset at every stripped key
    tonal = {c for c, _ in lexicon.homophones("zhong1", tonal=True)}
    toneless = {c for c, _ in lexicon.homophones("zhong", tonal=False)}
    assert tonal <= toneless
