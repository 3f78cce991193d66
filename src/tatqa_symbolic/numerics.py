"""Financial surface-number parsing and the answer-scale taxonomy.

Numbers in financial reports carry formatting (thousands separators,
currency symbols, accountant's parenthesized negatives, percent signs)
and an implicit magnitude that is usually stated once in a table header
or a nearby sentence rather than on the value itself.  This module owns
both concerns: exact parsing of surface numbers, and the five-way scale
taxonomy with its multiplicative factors.

All parsed values are ``fractions.Fraction`` so that downstream
arithmetic is exact; binary floats never enter the pipeline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
        key = word.strip().lower()
        if key in ("", "none", "-"):
            return cls.NONE
        for member in cls:
            if member.value == key:
                return member
        raise ValueError(f"unknown scale word: {word!r}")


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


@dataclass(frozen=True)
class ParsedNumber:
    """An exact number recovered from a surface string.

    ``value`` is the face value: "39%" parses to 39 with
    ``had_percent_sign`` set, not to 0.39.  Scale application is a
    separate, explicit step (:func:`apply_scale`).
    """

    value: Fraction
    had_percent_sign: bool = False
    source_text: str = ""


_CURRENCY = "$£€¥"
# Either comma-grouped digits or a plain run, with an optional decimal part.
_NUMBER_CORE = r"(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?|\.\d+"

# A whole cell: an accountant's parentheses, when present, wrap the rest.
_FULL_NUMBER_RE = re.compile(
    rf"\s*(?P<wrap>\(\s*)?[{_CURRENCY}]?\s*(?P<sign>[+\-−])?\s*[{_CURRENCY}]?\s*"
    rf"(?P<core>{_NUMBER_CORE})\s*(?P<pct>%)?(?(wrap)\s*\))\s*"
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


def parse_number(text: str) -> ParsedNumber | None:
    """Parse a whole string as one financial number, or return None.

    Recognizes currency symbols, thousands separators, decimal points,
    leading minus (ASCII or U+2212), trailing percent signs, and
    accountant's parenthesized negatives like "(1,033)".
    """
    match = _FULL_NUMBER_RE.fullmatch(text)
    if match is None:
        return None
    wrap, sign, core, pct = match.group("wrap", "sign", "core", "pct")
    value = _exact(core)
    if (sign in ("-", "−")) != (wrap is not None):
        value = -value
    return ParsedNumber(value=value, had_percent_sign=pct is not None, source_text=text)


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


def apply_scale(value: Fraction, scale: Scale) -> Fraction:
    """Multiply a face value by its scale factor."""
    return value * scale.factor


def extract_numbers(text: str) -> list[tuple[ParsedNumber, tuple[int, int]]]:
    """Find all numeric tokens in running text, left to right.

    Returns (parsed number, (start, end)) pairs with strictly increasing,
    non-overlapping character offsets.  A hyphen directly between two
    digits ("2018-2019") is a range separator, not a minus sign.
    """
    found: list[tuple[ParsedNumber, tuple[int, int]]] = []
    for match in _SCAN_RE.finditer(text):
        start, end = match.span()
        value = _exact(match.group())
        if start > 0 and text[start - 1] in "-−":
            before = text[start - 2] if start >= 2 else " "
            if not (before.isdigit() or before.isalpha()):
                start -= 1
                value = -value
        had_percent = end < len(text) and text[end] == "%"
        if had_percent:
            end += 1
        found.append(
            (
                ParsedNumber(value, had_percent, text[start:end]),
                (start, end),
            )
        )
    return found


def round_fraction(value: Fraction, places: int) -> Fraction:
    """Round to ``places`` decimal places, ties to even."""
    q = 10**places
    scaled = value * q
    floor = scaled.numerator // scaled.denominator
    remainder_twice = 2 * (scaled.numerator - floor * scaled.denominator)
    if remainder_twice > scaled.denominator or (
        remainder_twice == scaled.denominator and floor % 2
    ):
        floor += 1
    return Fraction(floor, q)


def render_decimal(value: Fraction | int, max_places: int = 17) -> str:
    """Render an exact value as a plain decimal string.

    Terminating decimals within ``max_places`` render exactly; anything
    longer (repeating expansions) is rounded to ``max_places`` places.
    Trailing zeros are stripped.
    """
    f = Fraction(value)
    rounded = round_fraction(f, max_places)
    sign = "-" if rounded < 0 else ""
    scaled = abs(rounded) * 10**max_places
    digits = str(scaled.numerator // scaled.denominator).rjust(max_places + 1, "0")
    int_part, frac_part = digits[:-max_places], digits[-max_places:]
    frac_part = frac_part.rstrip("0")
    return f"{sign}{int_part}.{frac_part}" if frac_part else f"{sign}{int_part}"
