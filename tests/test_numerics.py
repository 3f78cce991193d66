import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatqa_symbolic.errors import NumberTooLongError
from tatqa_symbolic.evaluation import numbers_match
from tatqa_symbolic.numerics import (
    _NUMBER_CORE,
    Scale,
    _exact,
    _round_half_even,
    extract_numbers,
    parse_number,
    render_decimal,
)

from conftest import CORPUS_DOCS
from oracles import (
    reference_extract_numbers,
    reference_numbers_match,
    reference_parse_number,
    reference_render_decimal,
    reference_round_fraction,
)


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
        assert type(parsed) is Fraction
        assert parsed == Fraction(value)

    def test_percent_sign(self):
        # the face value, not 0.39
        assert parse_number("39%") == Fraction(39)

    @pytest.mark.parametrize(
        "text", ["", "   ", "abc", "1,23", "3-4", "10 20", "()", "fiscal 2019"]
    )
    def test_rejects_non_numbers(self, text):
        assert parse_number(text) is None


class TestApplyScale:
    """A scale applies to a face value as a multiplication by its factor."""

    def test_million(self):
        assert Fraction("0.22") * Scale.MILLION.factor == 220000

    def test_none_is_identity(self):
        assert Fraction(41, 7) * Scale.NONE.factor == Fraction(41, 7)

    def test_percent(self):
        assert Fraction("9.98") * Scale.PERCENT.factor == Fraction("0.0998")

    def test_linearity(self):
        for scale in Scale:
            assert Fraction(3) * scale.factor + Fraction(4) * scale.factor == (
                Fraction(7) * scale.factor
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

    ALIASES = {
        "": Scale.NONE,
        "none": Scale.NONE,
        "-": Scale.NONE,
        "thousand": Scale.THOUSAND,
        "million": Scale.MILLION,
        "billion": Scale.BILLION,
        "percent": Scale.PERCENT,
    }

    @pytest.mark.parametrize("alias", sorted(ALIASES))
    def test_every_alias_in_any_case_and_padding(self, alias):
        alternating = "".join(ch.upper() if i % 2 else ch for i, ch in enumerate(alias))
        for cased in {alias, alias.upper(), alias.title(), alternating}:
            for padded in (cased, f" {cased}", f"{cased}\t", f"\n {cased} \u3000"):
                assert Scale.from_word(padded) is self.ALIASES[alias], padded

    @pytest.mark.parametrize(
        "word", ["zillion", " Zillion\t", "thousands", "%", "no ne", "--", "0", "\u3000x"]
    )
    def test_unknown_word_message(self, word):
        with pytest.raises(ValueError) as raised:
            Scale.from_word(word)
        assert str(raised.value) == f"unknown scale word: {word!r}"


class TestExtractNumbers:
    def test_derivation_operands_in_text(self):
        numbers = extract_numbers("increased from $10,353 to $11,386")
        assert [value for value, _ in numbers] == [10353, 11386]

    def test_empty(self):
        assert extract_numbers("") == []

    def test_year_and_percent(self):
        # cross-checked against a brute-force scan of the same text
        text = "fiscal 2019 grew 14%"
        expected = [(Fraction(2019), "2019"), (Fraction(14), "14%")]
        got = [(value, text[start:end]) for value, (start, end) in extract_numbers(text)]
        assert got == expected

    def test_hyphen_between_digits_is_a_range(self):
        values = [value for value, _ in extract_numbers("2018-2019")]
        assert values == [2018, 2019]

    def test_sign_after_space(self):
        values = [value for value, _ in extract_numbers("fell to -14 points")]
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
    assert parse_number(_render(value, comma, percent, parens)) == value


def _fields(value):
    """A value as (numerator, denominator), or None; a plain int would
    equal a Fraction, so this also tells the two apart."""
    if value is None:
        return None
    assert type(value) is Fraction
    return value.numerator, value.denominator


def _reference_fields(parsed):
    """``_fields`` of the reference copy's value, which it wraps in its own class."""
    return None if parsed is None else _fields(parsed.value)


def _extracted(found):
    return [(_fields(value), span) for value, span in found]


def _reference_extracted(found):
    return [(_reference_fields(parsed), span) for parsed, span in found]


class TestAgainstStringBuiltFractions:
    """Values built from integers equal the ``Fraction(str)`` values of the
    reference copies, with the same offsets."""

    ALPHABET = "0123456789,.$-−()% "
    # digits and commas weigh more, so that many draws are numbers, some
    # comma-grouped, some with decimals, signs, parentheses or a leading ".5"
    WEIGHTS = [4] * 11 + [1] * 8

    def assert_same(self, texts):
        for text in texts:
            assert _fields(parse_number(text)) == _reference_fields(
                reference_parse_number(text)
            ), text
            assert _extracted(extract_numbers(text)) == _reference_extracted(
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
        parsed = [(t, v) for t, v in zip(texts, map(parse_number, texts)) if v is not None]
        assert sum(v.denominator > 1 for _, v in parsed) > 100
        assert sum("," in t for t, _ in parsed) > 50
        assert sum("%" in t for t, _ in parsed) > 50
        assert sum(t.lstrip("(−-$ ").startswith(".") for t, _ in parsed) > 50
        assert any("(" in t and v < 0 for t, v in parsed)
        assert any("−" in t and v < 0 for t, v in parsed)
        found = [(text[start:end], value) for text in texts
                 for value, (start, end) in extract_numbers(text)]
        assert sum("," in t and v.denominator > 1 for t, v in found) > 10
        assert sum(t.startswith("−") for t, _ in found) > 100

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
    assert _fields(parse_number(text)) == _reference_fields(reference_parse_number(text)), text


@pytest.mark.parametrize(
    "text",
    ["(5", "5)", "( $5 )", "-(5)", "(5))", "((5))", "(-5)", "(−5%)", "()", "(5)%",
     "\u3000(\t5 )\t", "(\u30005\u3000)", "( 1,033.5 % )", "$(5)", "+(5)"],
)
def test_parse_number_wrap_edges(text):
    assert _fields(parse_number(text)) == _reference_fields(reference_parse_number(text))


# ASCII digits, then Arabic-Indic, Devanagari and fullwidth ones, which
# the number pattern's \d also matches
_DIGITS = ["0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
           "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f",
           "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19"]


def _random_core(rng: random.Random) -> str:
    """A text the number pattern reads as a core: a plain run (leading
    zeros allowed) or comma-grouped digits, with or without decimals, or
    a bare decimal part such as ".5"."""
    digits = rng.choice(_DIGITS) if rng.random() < 0.3 else _DIGITS[0]

    def run(n: int) -> str:
        return "".join(rng.choice(digits) for _ in range(n))

    shape = rng.randrange(5)
    decimals = "." + run(rng.randint(1, 6)) if rng.random() < 0.4 else ""
    if shape == 0:
        return "." + run(rng.randint(1, 6))
    if shape == 1:
        groups = "".join("," + run(3) for _ in range(rng.randint(1, 4)))
        return run(rng.randint(1, 3)) + groups + decimals
    return run(rng.randint(1, 12)) + decimals


class TestExact:
    """``_exact`` against ``Fraction`` of the core less its commas."""

    @pytest.mark.parametrize("core", ["0", "00", "007", "5", ".5", "0.5", "05.50", "1,033",
                                      "1,033.25", "\u0661\u0662", "\uff15,\uff10\uff10\uff10",
                                      "1" * 4300, "9" * 4299 + ".5", "1" * 2150 + "." + "1" * 2150])
    def test_fixed_cores(self, core):
        assert re.fullmatch(_NUMBER_CORE, core)
        value = _exact(core)
        assert type(value) is Fraction
        assert value == Fraction(core.replace(",", ""))

    def test_seeded_cores(self):
        rng = random.Random(4118)
        cores = [_random_core(rng) for _ in range(5_000)]
        for core in cores:
            assert re.fullmatch(_NUMBER_CORE, core), core
            assert _exact(core) == Fraction(core.replace(",", "")), core
        # the draws reach every shape of core
        assert sum("," not in core and "." not in core for core in cores) > 1_000
        assert sum(core.startswith(".") for core in cores) > 500
        assert sum("," in core for core in cores) > 500
        assert sum(core[0] == "0" and len(core) > 1 and "." not in core[:2] for core in cores) > 50
        assert sum(not core.replace(",", "").replace(".", "").isascii() for core in cores) > 500

    @pytest.mark.parametrize("core", ["1" * 4301, "1" * 4300 + ".5", "." + "1" * 4301,
                                      "1" + ",111" * 1434])
    def test_one_digit_past_the_limit(self, core):
        with pytest.raises(NumberTooLongError):
            _exact(core)


def _units(value, places: int) -> int:
    """``value`` in units of ``10**-places``, rounded half to even."""
    return _round_half_even(value.numerator, value.denominator, places)


class TestRounding:
    def test_round_half_even(self):
        assert _units(Fraction("2.5"), 0) == 2
        assert _units(Fraction("3.5"), 0) == 4
        assert _units(Fraction("-2.5"), 0) == -2

    def test_change_ratio_rounds_to_gold(self):
        assert _units(Fraction(1033, 10353), 4) == 998  # 0.0998

    def test_render_exact(self):
        assert render_decimal(Fraction("1203.5")) == "1203.5"
        assert render_decimal(Fraction(-1657)) == "-1657"
        assert render_decimal(Fraction(0)) == "0"

    def test_render_up_to_the_digit_limit(self):
        assert render_decimal(10**4300 - 1) == "9" * 4300
        assert render_decimal(Fraction(10**4300 - 1, 2)) == "4" + "9" * 4299 + ".5"
        with pytest.raises(NumberTooLongError, match="value has 4301 digits"):
            render_decimal(Fraction(10**4300) + Fraction(1, 3))

    def test_render_repeating_is_rounded(self):
        assert render_decimal(Fraction(1, 3)) == "0." + "3" * 17
        assert render_decimal(Fraction(2, 3)) == "0.66666666666666667"


def _sign(rng: random.Random) -> int:
    return rng.choice((1, -1))


def _any_ratio(rng: random.Random, places: int) -> Fraction:
    numerator = rng.randrange(10 ** rng.randint(1, 25))
    return Fraction(_sign(rng) * numerator, rng.randint(1, 10 ** rng.randint(1, 12)))


def _tie(rng: random.Random, places: int) -> Fraction:
    """Exactly half a unit of the last place past a whole number of units."""
    return Fraction(_sign(rng) * (2 * rng.randrange(10**6) + 1), 2 * 10**places)


def _near_tie(rng: random.Random, places: int) -> Fraction:
    off = Fraction(_sign(rng), rng.randint(10**20, 10**25))
    return _tie(rng, places) + off


def _negative_to_zero(rng: random.Random, places: int) -> Fraction:
    """A negative within half a unit of the last place of 0, the half included."""
    if rng.random() < 0.5:
        return Fraction(-rng.randint(1, 5), 10 * 10**places)
    return Fraction(-1, rng.randint(10 * 10**places, 10**40))


def _int(rng: random.Random, places: int) -> int:
    return _sign(rng) * rng.randrange(10 ** rng.randint(1, 30))


_DRAWS = {
    "any-ratio": _any_ratio,
    "tie": _tie,
    "near-tie": _near_tie,
    "negative-to-zero": _negative_to_zero,
    "int": _int,
}


def _outcome(function, *args):
    """What ``function(*args)`` returns, or the type and message it raises."""
    try:
        return function(*args)
    except NumberTooLongError as exc:
        return type(exc), str(exc)


class TestIntegerRoundingMatchesFractionRound:
    """``_round_half_even``, ``render_decimal`` and ``numbers_match`` round
    in integers; each gives what it gave when it rounded through
    ``round(Fraction, places)`` (``oracles.reference_*``)."""

    @pytest.mark.parametrize("draw", sorted(_DRAWS))
    def test_round_and_render(self, draw):
        rng = random.Random(f"2601-{draw}")
        for _ in range(400):
            places = rng.randint(0, 17)
            value = _DRAWS[draw](rng, places)
            units = _units(value, places)
            assert type(units) is int, value
            assert units == reference_round_fraction(value, places) * 10**places, (value, places)
            # rendering has one number of places, 17, so its value is drawn for it
            value = _DRAWS[draw](rng, 17)
            text = render_decimal(value)
            assert text == reference_render_decimal(value), value
            assert text != "-0"

    def test_negative_round_to_zero_renders_without_a_sign(self):
        assert render_decimal(Fraction(-1, 10**18)) == "0"
        assert render_decimal(Fraction(-5, 10**18)) == "0"  # a tie: 0 is even
        assert render_decimal(Fraction(-6, 10**18)) == "-0.00000000000000001"
        assert render_decimal(Fraction(-1, 3 * 10**17)) == "0"
        assert _units(Fraction(-1, 10**18), 17) == 0

    def test_at_the_digit_limit(self):
        values = [
            10**4300 - 1, -(10**4300 - 1), 10**4300, -(10**4300),
            Fraction(10**4300 - 1, 2), Fraction(10**4301 - 1, 10),
            Fraction(10**4300) + Fraction(1, 3), -Fraction(10**4300 * 2 - 1, 2),
        ]
        for value in values:
            assert _outcome(render_decimal, value) == _outcome(reference_render_decimal, value)
            for places in (0, 1, 17):
                rounded = reference_round_fraction(value, places)
                assert _units(value, places) == rounded * 10**places

    def test_at_the_digit_limit_raises_past_it(self):
        with pytest.raises(NumberTooLongError, match="value has 4301 digits"):
            render_decimal(-(10**4300))
        assert render_decimal(-(10**4300 - 1)) == "-" + "9" * 4300

    def test_negative_places(self):
        for value in (Fraction(1250), Fraction(1350), Fraction(-1250), 149, Fraction(1, 3)):
            for places in (-1, -2, -3):
                rounded = reference_round_fraction(value, places)
                assert _units(value, places) == rounded * 10**places

    @pytest.mark.parametrize("places", [0, 4])
    def test_numbers_match_every_scale_pair(self, places):
        rng = random.Random(2602 + places)
        outcomes = []
        for pred_scale in Scale:
            for gold_scale in Scale:
                for _ in range(120):
                    pred = _DRAWS[rng.choice(sorted(_DRAWS))](rng, places)
                    # a gold that matches the prediction, or misses it by a
                    # tie, a hair or anything
                    gold = pred * pred_scale.factor / gold_scale.factor
                    gold += rng.choice((
                        0, Fraction(1, 2 * 10**places), -Fraction(1, 2 * 10**places),
                        Fraction(1, 10**30), _any_ratio(rng, places),
                    )) / gold_scale.factor
                    if rng.random() < 0.2:
                        gold = _tie(rng, places)
                    if gold.denominator == 1 and rng.random() < 0.5:
                        gold = int(gold)
                    matched = numbers_match(pred, pred_scale, gold, gold_scale, places)
                    assert matched is reference_numbers_match(
                        pred, pred_scale, gold, gold_scale, places
                    ), (pred, pred_scale, gold, gold_scale)
                    outcomes.append(matched)
        # the draws reach both outcomes
        assert 500 < sum(outcomes) < len(outcomes) - 500
