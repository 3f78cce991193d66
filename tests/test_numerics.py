import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatqa_symbolic.numerics import (
    ParsedNumber,
    Scale,
    apply_scale,
    extract_numbers,
    parse_number,
    render_decimal,
    round_fraction,
)

from conftest import CORPUS_DOCS
from oracles import reference_extract_numbers, reference_parse_number


class TestParseNumber:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("125,843", 125843),
            ("(1,033)", -1033),
            ("-1,657", -1657),
            ("−5", -5),
            ("$38.1", Fraction("38.1")),
            ("$ -5.5", Fraction("-5.5")),
            ("€1,234", 1234),
            ("¥500", 500),
            ("£2.5", Fraction("2.5")),
            ("0.22", Fraction("0.22")),
            (".5", Fraction("0.5")),
            ("+12", 12),
            ("  7  ", 7),
        ],
    )
    def test_values(self, text, value):
        parsed = parse_number(text)
        assert parsed is not None
        assert parsed.value == Fraction(value)
        assert not parsed.had_percent_sign

    def test_percent_sign(self):
        parsed = parse_number("39%")
        assert parsed == ParsedNumber(Fraction(39), True, "39%")

    @pytest.mark.parametrize(
        "text", ["", "   ", "abc", "1,23", "3-4", "10 20", "()", "fiscal 2019"]
    )
    def test_rejects_non_numbers(self, text):
        assert parse_number(text) is None

    def test_source_text_preserved(self):
        assert parse_number(" (2,500) ").source_text == " (2,500) "


class TestApplyScale:
    def test_million(self):
        assert apply_scale(Fraction("0.22"), Scale.MILLION) == 220000

    def test_none_is_identity(self):
        assert apply_scale(Fraction(41, 7), Scale.NONE) == Fraction(41, 7)

    def test_percent(self):
        assert apply_scale(Fraction("9.98"), Scale.PERCENT) == Fraction("0.0998")

    def test_linearity(self):
        for scale in Scale:
            assert apply_scale(Fraction(3), scale) + apply_scale(Fraction(4), scale) == apply_scale(
                Fraction(7), scale
            )


class TestScale:
    def test_from_word_round_trip(self):
        for scale in Scale:
            assert Scale.from_word(scale.word) is scale

    def test_none_aliases(self):
        assert Scale.from_word("") is Scale.NONE
        assert Scale.from_word("None") is Scale.NONE

    def test_unknown_word(self):
        with pytest.raises(ValueError):
            Scale.from_word("gazillion")


class TestExtractNumbers:
    def test_derivation_operands_in_text(self):
        numbers = extract_numbers("increased from $10,353 to $11,386")
        assert [n.value for n, _ in numbers] == [10353, 11386]

    def test_empty(self):
        assert extract_numbers("") == []

    def test_year_and_percent(self):
        # cross-checked against a brute-force scan of the same text
        expected = [(Fraction(2019), False), (Fraction(14), True)]
        got = [(n.value, n.had_percent_sign) for n, _ in extract_numbers("fiscal 2019 grew 14%")]
        assert got == expected

    def test_hyphen_between_digits_is_a_range(self):
        values = [n.value for n, _ in extract_numbers("2018-2019")]
        assert values == [2018, 2019]

    def test_sign_after_space(self):
        values = [n.value for n, _ in extract_numbers("fell to -14 points")]
        assert values == [-14]

    def test_offsets_increasing_nonoverlapping(self):
        text = "a 1,200 b 3.5% c -7 d 2018-2019"
        offsets = [span for _, span in extract_numbers(text)]
        for (s1, e1), (s2, e2) in zip(offsets, offsets[1:]):
            assert e1 <= s2
        for (s, e), (n, _) in zip(offsets, extract_numbers(text)):
            assert s < e


def _render(value: Fraction, comma: bool, percent: bool, parens: bool) -> str:
    text = render_decimal(abs(value))
    if comma:
        int_part, dot, frac = text.partition(".")
        text = f"{int(int_part):,}{dot}{frac}"
    if percent:
        text += "%"
    if value < 0:
        text = f"({text})" if parens else f"-{text}"
    return text


@settings(max_examples=300, deadline=None)
@given(
    numerator=st.integers(min_value=-10**9, max_value=10**9),
    places=st.integers(min_value=0, max_value=6),
    comma=st.booleans(),
    percent=st.booleans(),
    parens=st.booleans(),
)
def test_parse_render_round_trip(numerator, places, comma, percent, parens):
    value = Fraction(numerator, 10**places)
    parsed = parse_number(_render(value, comma, percent, parens))
    assert parsed is not None
    assert parsed.value == value
    assert parsed.had_percent_sign == percent


def _fields(parsed):
    """A parsed number as plain fields; the reference copy has its own class."""
    if parsed is None:
        return None
    value = parsed.value
    return value.numerator, value.denominator, parsed.had_percent_sign, parsed.source_text


def _extracted(found):
    return [(_fields(parsed), span) for parsed, span in found]


class TestAgainstStringBuiltFractions:
    """Values built from integers equal the ``Fraction(str)`` values of the
    reference copies, with the same flags, source texts and offsets."""

    ALPHABET = "0123456789,.$-−()% "
    # digits and commas weigh more, so that many draws are numbers, some
    # comma-grouped, some with decimals, signs, parentheses or a leading ".5"
    WEIGHTS = [4] * 11 + [1] * 8

    def assert_same(self, texts):
        for text in texts:
            assert _fields(parse_number(text)) == _fields(reference_parse_number(text)), text
            assert _extracted(extract_numbers(text)) == _extracted(
                reference_extract_numbers(text)
            ), text

    def test_random_strings(self):
        rng = random.Random(20211)
        texts = [
            "".join(rng.choices(self.ALPHABET, self.WEIGHTS, k=rng.randint(1, 14)))
            for _ in range(20_000)
        ]
        self.assert_same(texts)
        # the draws reach every branch of the construction
        parsed = [p for p in map(parse_number, texts) if p is not None]
        assert sum(p.value.denominator > 1 for p in parsed) > 100
        assert sum("," in p.source_text for p in parsed) > 50
        assert sum(p.had_percent_sign for p in parsed) > 50
        assert sum(p.source_text.lstrip("(−-$ ").startswith(".") for p in parsed) > 50
        assert any("(" in p.source_text and p.value < 0 for p in parsed)
        assert any("−" in p.source_text and p.value < 0 for p in parsed)
        found = [n for text in texts for n, _ in extract_numbers(text)]
        assert sum("," in n.source_text and n.value.denominator > 1 for n in found) > 10
        assert sum(n.source_text.startswith("−") for n in found) > 100

    def test_fixture_cells_and_paragraphs(self):
        texts = [
            text
            for doc in CORPUS_DOCS
            for text in [
                *(cell for row in doc["table"]["table"] for cell in row),
                *(paragraph["text"] for paragraph in doc["paragraphs"]),
            ]
        ]
        assert sum(parse_number(text) is not None for text in texts) > 20
        self.assert_same(texts)


_NUMBER_ALPHABET = "0123456789,.()$£-−+%\t\u3000 aBkMx"
_SPACES = st.sampled_from(["", "", " ", "\t", "\u3000"])


@st.composite
def _number_texts(draw):
    """A cell's number, wrapped or not, with spaces at each joint and up
    to two stray characters of ``_NUMBER_ALPHABET`` anywhere."""
    opening, closing = draw(st.sampled_from(
        [("", ""), ("(", ")"), ("(", ")"), ("(", ""), ("", ")"), ("((", "))"), ("(", "))")]
    ))
    pieces = [[opening], ["", "$", "£"], ["", "-", "−", "+"], ["", "$"],
              ["5", "12", "1,033", "1,033.25", ".5", "1,23"], ["", "%"], [closing]]
    text = draw(_SPACES) + "".join(draw(st.sampled_from(p)) + draw(_SPACES) for p in pieces)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_NUMBER_ALPHABET)) + text[at:]
    return text


@settings(max_examples=1500, deadline=None)
@given(text=st.one_of(_number_texts(), st.text(alphabet=_NUMBER_ALPHABET, max_size=12)))
def test_parse_number_matches_the_reference(text):
    """One anchored match, with the parentheses as an optional group, reads
    what stripping and unwrapping did."""
    assert _fields(parse_number(text)) == _fields(reference_parse_number(text)), text


@pytest.mark.parametrize(
    "text",
    ["(5", "5)", "( $5 )", "-(5)", "(5))", "((5))", "(-5)", "(−5%)", "()", "(5)%",
     "\u3000(\t5 )\t", "(\u30005\u3000)", "( 1,033.5 % )", "$(5)", "+(5)"],
)
def test_parse_number_wrap_edges(text):
    assert _fields(parse_number(text)) == _fields(reference_parse_number(text))


class TestRounding:
    def test_round_half_even(self):
        assert round_fraction(Fraction("2.5"), 0) == 2
        assert round_fraction(Fraction("3.5"), 0) == 4
        assert round_fraction(Fraction("-2.5"), 0) == -2

    def test_change_ratio_rounds_to_gold(self):
        assert round_fraction(Fraction(1033, 10353), 4) == Fraction("0.0998")

    def test_render_exact(self):
        assert render_decimal(Fraction("1203.5")) == "1203.5"
        assert render_decimal(Fraction(-1657)) == "-1657"
        assert render_decimal(Fraction(0)) == "0"

    def test_render_repeating_is_rounded(self):
        text = render_decimal(Fraction(1, 3), max_places=6)
        assert text == "0.333333"
