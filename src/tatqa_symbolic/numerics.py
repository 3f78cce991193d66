"""Financial surface-number parsing and the answer-scale taxonomy.

Numbers in financial reports carry formatting (thousands separators,
currency symbols, accountant's parenthesized negatives, percent signs)
and an implicit magnitude that is usually stated once in a table header
or a nearby sentence rather than on the value itself.  This module owns
both concerns: exact parsing of surface numbers, and the five-way scale
taxonomy with its multiplicative factors.

A parsed number is its exact ``fractions.Fraction`` at face value ("39%"
is 39, not 0.39; a scale applies as a multiplication by ``Scale.factor``),
so downstream arithmetic is exact; binary floats never enter the pipeline.
Rounding to decimal places is half to even and done on the integer
numerator and denominator, so it builds no ``Fraction`` and takes no gcd.
"""

from __future__ import annotations

import re
from decimal import Decimal
from enum import Enum
from fractions import Fraction

from .errors import NumberTooLongError

class Scale(Enum):
    """Magnitude of a numeric answer: none, thousand, million, billion, percent."""

    NONE = ""
    THOUSAND = "thousand"
    MILLION = "million"
    BILLION = "billion"
    PERCENT = "percent"

    @property
    def factor(self) -> Fraction:
        return _SCALE_FACTORS[self]

    @property
    def word(self) -> str:
        """The scale word used in dataset files ("" for no scale)."""
        return self.value

    @property
    def label(self) -> str:
        """Human-readable name for report tables."""
        return "None" if self is Scale.NONE else self.value.capitalize()

    @classmethod
    def from_word(cls, word: str) -> "Scale":
        scale = _SCALES_BY_WORD.get(word.strip().lower())
        if scale is None:
            raise ValueError(f"unknown scale word: {word!r}")
        return scale


# every accepted scale word, lowercased and stripped
_SCALES_BY_WORD = {"none": Scale.NONE, "-": Scale.NONE, **{scale.value: scale for scale in Scale}}


_SCALE_WORD_RE = re.compile(
    r"(?P<thousand>thousands?\b|'000)|(?P<million>millions?\b)"
    r"|(?P<billion>billions?\b)|(?P<percent>percent\b|%)",
    re.I,
)


def scale_in_text(text: str) -> Scale | None:
    """The scale named by the first scale word in ``text``, if any."""
    match = _SCALE_WORD_RE.search(text)
    return None if match is None else Scale(match.lastgroup)


_SCALE_FACTORS = {
    Scale.NONE: Fraction(1),
    Scale.THOUSAND: Fraction(10**3),
    Scale.MILLION: Fraction(10**6),
    Scale.BILLION: Fraction(10**9),
    Scale.PERCENT: Fraction(1, 100),
}


_CURRENCY = "$£€¥"
# Either comma-grouped digits or a plain run, with an optional decimal part.
_NUMBER_CORE = r"(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?|\.\d+"

# A whole cell: an accountant's parentheses, when present, wrap the rest.
# Each inner run of spaces follows a token that must be present, so a
# run is matched one way only and a long one fails in linear time.
_FULL_NUMBER_RE = re.compile(
    rf"\s*(?:(?P<wrap>\()\s*)?(?:[{_CURRENCY}]\s*)?(?:(?P<sign>[+\-−])\s*)?"
    rf"(?:[{_CURRENCY}]\s*)?(?P<core>{_NUMBER_CORE})(?:\s*%)?(?(wrap)\s*\))\s*"
)

_SCAN_RE = re.compile(r"\d{1,3}(?:,\d{3})+(?:\.\d+)?|\d+(?:\.\d+)?")


def _exact(digits: str) -> Fraction:
    """The exact value of an unsigned decimal such as "1,033.25" or ".5".

    Built from integers: ``Fraction(str)`` gives the same reduced value
    but runs its own regex over the text first.  Every number read from
    text is built here, so this is where one too long to read exactly
    raises ``NumberTooLongError``.
    """
    whole, _, decimals = digits.replace(",", "").partition(".")
    if len(whole) + len(decimals) > NumberTooLongError.LIMIT:
        raise NumberTooLongError(len(whole) + len(decimals))
    if decimals:
        return Fraction(int(whole + decimals), 10 ** len(decimals))
    return Fraction(int(whole))


def parse_number(text: str) -> Fraction | None:
    """Parse a whole string as one financial number, or return None.

    Recognizes currency symbols, thousands separators, decimal points,
    leading minus (ASCII or U+2212), trailing percent signs (at face value:
    "39%" is 39), and accountant's parenthesized negatives like "(1,033)".
    """
    match = _FULL_NUMBER_RE.fullmatch(text)
    if match is None:
        return None
    wrap, sign, core = match.groups()
    value = _exact(core)
    if (sign in ("-", "−")) != (wrap is not None):
        return -value
    return value


def is_number(text: str) -> bool:
    """Whether ``parse_number(text)`` is a number, without building its value."""
    return _FULL_NUMBER_RE.fullmatch(text) is not None


def json_decimal(text: str) -> Decimal:
    """A JSON number with a fraction or exponent as an exact ``Decimal``
    (``json.load``'s ``parse_float``).

    Raises ``NumberTooLongError`` when the exact value would take more
    than 4,300 digits, the default limit of ``int()`` on a digit string
    and so on a JSON integer: "1e999999999" is refused, not expanded.
    """
    value = Decimal(text)
    _, digits, exponent = value.as_tuple()
    if len(digits) + abs(exponent) > NumberTooLongError.LIMIT:
        raise NumberTooLongError(len(digits) + abs(exponent))
    return value


def extract_numbers(text: str) -> list[tuple[Fraction, tuple[int, int]]]:
    """Find all numeric tokens in running text, left to right.

    Returns (value, (start, end)) pairs, ``text[start:end]`` being the number,
    with strictly increasing, non-overlapping offsets.  A hyphen directly
    between two digits ("2018-2019") is a range separator, not a minus sign.
    """
    found: list[tuple[Fraction, tuple[int, int]]] = []
    for match in _SCAN_RE.finditer(text):
        start, end = match.span()
        value = _exact(match.group())
        if start > 0 and text[start - 1] in "-−":
            before = text[start - 2] if start >= 2 else " "
            if not (before.isdigit() or before.isalpha()):
                start -= 1
                value = -value
        if end < len(text) and text[end] == "%":
            end += 1
        found.append((value, (start, end)))
    return found


def _decimal_places(denominator: int) -> int | None:
    """How many decimal places a reduced fraction over ``denominator``
    takes: the larger of the powers of 2 and 5 in it, or None when another
    prime divides it and the decimal does not terminate."""
    twos = (denominator & -denominator).bit_length() - 1
    rest, fives = denominator >> twos, 0
    while rest % 5 == 0:
        rest, fives = rest // 5, fives + 1
    return max(twos, fives) if rest == 1 else None


def _round_half_even(numerator: int, denominator: int, places: int) -> int:
    """``numerator * 10**places / denominator`` rounded half to even, for a
    positive ``denominator``: the value in units of ``10**-places``.

    One ``divmod`` and the tie rule of ``Fraction.__round__``, with no
    ``Fraction`` built and so no gcd taken.
    """
    if places >= 0:
        numerator *= 10**places
    else:
        denominator *= 10**-places
    quotient, remainder = divmod(numerator, denominator)
    doubled = remainder * 2
    if doubled > denominator or (doubled == denominator and quotient & 1):
        return quotient + 1
    return quotient


# the smallest whole part that ``str`` refuses to write: it has 4,301 digits
_UNWRITABLE = 10**NumberTooLongError.LIMIT


_RENDER_PLACES = 17  # the most decimal places ``render_decimal`` writes


def render_decimal(value: Fraction | int) -> str:
    """Render an exact value as a plain decimal string.

    Terminating decimals within ``_RENDER_PLACES`` (17) places render
    exactly; anything longer (repeating expansions) is rounded half to
    even, in integers, to 17 places.  Trailing zeros are stripped, and a
    value that rounds to zero renders as "0", never "-0".  A whole part of
    more than 4,300 digits raises ``NumberTooLongError``.
    """
    units = _round_half_even(value.numerator, value.denominator, _RENDER_PLACES)
    whole, places = divmod(abs(units), 10**_RENDER_PLACES)
    if whole >= _UNWRITABLE:
        raise NumberTooLongError(Decimal(whole).adjusted() + 1)
    sign = "-" if units < 0 else ""
    frac_part = str(places).rjust(_RENDER_PLACES, "0").rstrip("0")
    return f"{sign}{whole}.{frac_part}" if frac_part else f"{sign}{whole}"
