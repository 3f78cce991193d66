"""Parsing, execution, and operator classification of gold derivations.

A derivation is the annotated recipe for a generated answer: either an
arithmetic expression over surface numbers ("(11,386 - 10,353)/10,353")
or a "##"-separated item set whose count is the answer.  This module
turns derivation strings into small ASTs, evaluates them exactly, and
pattern-matches them onto the symbolic aggregation operators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .corpus import AnswerSource, AnswerType, Dataset, iter_questions, percent_tally
from .errors import DerivationParseError, ExecutionError, NumberTooLongError
from .numerics import _CURRENCY, _NUMBER_CORE, _exact


class Operator:
    """The ten aggregation operators plus the unsupported catch-all."""

    SPAN_IN_TEXT = "span-in-text"
    CELL_IN_TABLE = "cell-in-table"
    SPANS = "spans"
    SUM = "sum"
    COUNT = "count"
    AVERAGE = "average"
    MULTIPLICATION = "multiplication"
    DIVISION = "division"
    DIFFERENCE = "difference"
    CHANGE_RATIO = "change-ratio"
    OTHER = "other"

    # The cumulative-ablation order used in report grids.
    ALL = (
        SPAN_IN_TEXT,
        CELL_IN_TABLE,
        SPANS,
        SUM,
        COUNT,
        AVERAGE,
        MULTIPLICATION,
        DIVISION,
        DIFFERENCE,
        CHANGE_RATIO,
    )

    LABELS = {
        SPAN_IN_TEXT: "Span-in-text",
        CELL_IN_TABLE: "Cell-in-table",
        SPANS: "Spans",
        SUM: "Sum",
        COUNT: "Count",
        AVERAGE: "Average",
        MULTIPLICATION: "Multiplication",
        DIVISION: "Division",
        DIFFERENCE: "Difference",
        CHANGE_RATIO: "Change ratio",
        OTHER: "Other",
    }


ORDER_SENSITIVE = frozenset(
    (Operator.DIFFERENCE, Operator.DIVISION, Operator.CHANGE_RATIO)
)


@dataclass(frozen=True)
class NumberLeaf:
    """An operand's exact face value ("39%" is 39) and its derivation text."""

    value: Fraction
    source_text: str


@dataclass(frozen=True)
class UnaryNeg:
    child: "ExprNode"


@dataclass(frozen=True)
class BinaryOp:
    op: str  # one of + - * /
    left: "ExprNode"
    right: "ExprNode"


ExprNode = Union[NumberLeaf, UnaryNeg, BinaryOp]


@dataclass(frozen=True)
class ItemSet:
    items: tuple[str, ...]


DerivationAst = Union[NumberLeaf, UnaryNeg, BinaryOp, ItemSet]


# ---------------------------------------------------------------------------
# Lexing and parsing
# ---------------------------------------------------------------------------

_NUMBER_TOKEN_RE = re.compile(rf"[{_CURRENCY}]?\s*({_NUMBER_CORE})\s*(%)?")

# The token of each parenthesis and operator character.
_SYMBOLS = {
    "(": "(",
    ")": ")",
    "+": "+",
    "-": "-",
    "−": "-",  # minus sign
    "–": "-",  # en dash, seen in scraped financial text
    "*": "*",
    "×": "*",  # multiplication sign
    "x": "*",
    "/": "/",
    "÷": "/",  # division sign
}

# How tightly each binary operator binds, for parsing and rendering.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}

# (offset, token) pairs; a token is a NumberLeaf or one of ( ) + - * /
_Tokens = list[tuple[int, Union[NumberLeaf, str]]]


def _lex(text: str) -> _Tokens:
    tokens: _Tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        symbol = _SYMBOLS.get(ch.lower())
        if symbol:
            tokens.append((i, symbol))
            i += 1
            continue
        match = _NUMBER_TOKEN_RE.match(text, i)
        if match and match.group(1):
            leaf = NumberLeaf(_exact(match.group(1)), match.group(0).strip())
            tokens.append((i, leaf))
            i = match.end()
            continue
        raise DerivationParseError(f"unexpected character {ch!r}", text, i)
    return tokens


# The parser recurses at most three frames per pair of parentheses
# (``_operand`` for the pair, ``_level`` for a sum inside it and ``_level``
# again for a product on the sum's right) and one per unary minus, and the
# tree walks one frame per level of a tree no deeper than its token count,
# so this bound keeps both far inside the interpreter's recursion limit.
# Real derivations have a few dozen tokens.
MAX_TOKENS = 256


def _operand(text: str, tokens: _Tokens, pos: int) -> tuple[ExprNode, int]:
    """Read a number, a parenthesised expression or a negated operand at
    ``pos``; return it with the position after it."""
    if pos == len(tokens):
        raise DerivationParseError("expected a number or '('", text, len(text))
    offset, token = tokens[pos]
    if isinstance(token, NumberLeaf):
        return token, pos + 1
    if token == "(":
        node, pos = _level(text, tokens, *_operand(text, tokens, pos + 1), 1)
        offset, closing = tokens[pos] if pos < len(tokens) else (len(text), None)
        if closing != ")":
            raise DerivationParseError("expected ')'", text, offset)
        return node, pos + 1
    if token == "-":
        child, pos = _operand(text, tokens, pos + 1)
        if isinstance(child, NumberLeaf):
            # fold "-39" into a single negative operand
            return NumberLeaf(-child.value, f"-{child.source_text}"), pos
        return UnaryNeg(child), pos
    kind = "rparen" if token == ")" else "op"
    raise DerivationParseError(f"unexpected token {kind}", text, offset)


def _level(
    text: str, tokens: _Tokens, left: ExprNode, pos: int, min_prec: int
) -> tuple[ExprNode, int]:
    """Extend ``left`` by the operators from ``pos`` on that bind at least
    as tightly as ``min_prec``, left to right (precedence climbing);
    return the tree with the position after it."""
    while pos < len(tokens) and _PRECEDENCE.get(op := tokens[pos][1], 0) >= min_prec:
        prec = _PRECEDENCE[op]
        right, pos = _operand(text, tokens, pos + 1)
        while pos < len(tokens) and _PRECEDENCE.get(tokens[pos][1], 0) > prec:
            right, pos = _level(text, tokens, right, pos, prec + 1)
        left = BinaryOp(op, left, right)
    return left, pos


def parse_derivation(text: str, answer_type: str | None = None) -> DerivationAst:
    """Parse a derivation string into an AST.

    Counting derivations (and any text containing "##") parse as item
    sets; everything else parses as an arithmetic expression.  Percent
    signs on operands are kept as face values: "39%" is the number 39.
    An expression of more than ``MAX_TOKENS`` tokens does not parse.
    """
    if not text or not text.strip():
        raise DerivationParseError("empty derivation", text, 0)
    if answer_type == AnswerType.COUNTING or "##" in text:
        items = tuple(part.strip() for part in text.split("##") if part.strip())
        if not items:
            raise DerivationParseError("item set has no items", text, 0)
        return ItemSet(items)
    tokens = _lex(text)
    if len(tokens) > MAX_TOKENS:
        offset = tokens[MAX_TOKENS][0]
        raise DerivationParseError(f"more than {MAX_TOKENS} tokens", text, offset)
    node, pos = _level(text, tokens, *_operand(text, tokens, 0), 1)
    if pos != len(tokens):
        raise DerivationParseError("unexpected trailing input", text, tokens[pos][0])
    return node


_last_parse: tuple = (None, None)  # (question record, its AST or parse error)


def parsed_derivation(question) -> DerivationAst:
    """``parse_derivation`` of a question's gold derivation, memoised for
    the most recent question record.

    Supervision, the operator and order oracles and validation read the
    same question's derivation one after another; this parses it once.
    The slot is keyed on the record's identity (records are frozen, so
    that fixes its derivation and answer type) and holds one record, so
    memory stays bounded and a reloaded dataset parses afresh.  AST nodes
    are frozen, so sharing one is safe; a failed parse raises a fresh
    copy of its error on every call.
    """
    global _last_parse
    record, outcome = _last_parse
    if record is not question:
        try:
            outcome = parse_derivation(question.derivation, question.answer_type)
        except DerivationParseError as exc:
            outcome = exc.with_traceback(None)
        _last_parse = (question, outcome)
    if isinstance(outcome, DerivationParseError):
        raise DerivationParseError(outcome.message, outcome.text, outcome.offset)
    return outcome


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_derivation(ast: DerivationAst) -> Fraction | int:
    """Exact evaluation: a Fraction for expressions, a count for item sets."""
    if isinstance(ast, ItemSet):
        return len(ast.items)
    return _eval_expr(ast)


def _eval_expr(node: ExprNode) -> Fraction:
    if isinstance(node, NumberLeaf):
        return node.value
    if isinstance(node, UnaryNeg):
        return -_eval_expr(node.child)
    left = _eval_expr(node.left)
    right = _eval_expr(node.right)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if right == 0:
        raise ExecutionError(f"division by zero in {render_derivation(node)!r}")
    return left / right


def operand_sequence(ast: DerivationAst) -> list[NumberLeaf]:
    """Expression leaves in left-to-right derivation order."""
    if isinstance(ast, ItemSet):
        raise ValueError("item sets have no numeric operands")
    leaves: list[NumberLeaf] = []
    stack: list[ExprNode] = [ast]
    while stack:
        node = stack.pop()
        if isinstance(node, NumberLeaf):
            leaves.append(node)
        elif isinstance(node, UnaryNeg):
            stack.append(node.child)
        else:
            stack += (node.right, node.left)
    return leaves


def render_derivation(ast: DerivationAst) -> str:
    """Render an AST back to a minimal surface form that reparses identically."""
    if isinstance(ast, ItemSet):
        return " ## ".join(ast.items)
    return _render_expr(ast)


def _render_expr(node: ExprNode, parent_prec: int = 0, right_side: bool = False) -> str:
    if isinstance(node, NumberLeaf):
        return node.source_text
    if isinstance(node, UnaryNeg):
        return f"-({_render_expr(node.child)})"
    prec = _PRECEDENCE[node.op]
    text = (
        f"{_render_expr(node.left, prec, False)} {node.op} "
        f"{_render_expr(node.right, prec, True)}"
    )
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# Operator classification
# ---------------------------------------------------------------------------


def _is_leaf(node: ExprNode) -> bool:
    return isinstance(node, NumberLeaf)


def _chain_leaves(node: ExprNode, op: str) -> list[NumberLeaf] | None:
    """Leaves of a tree whose internal nodes are all ``op``, else None."""
    if isinstance(node, NumberLeaf):
        return [node]
    if isinstance(node, BinaryOp) and node.op == op:
        left = _chain_leaves(node.left, op)
        right = _chain_leaves(node.right, op)
        if left is not None and right is not None:
            return left + right
    return None


def classify_operator(
    ast: DerivationAst | None, answer_type: str, answer_source: str
) -> str:
    """Map a question's gold annotation onto its aggregation operator.

    Span-family questions are routed by answer type and source (a
    table-backed single span selects a cell, locate-in-table-first).
    Arithmetic derivations are matched structurally; anything that is
    not one of the recognized shapes falls into the Other class.
    """
    if answer_type == AnswerType.SPANS:
        return Operator.SPANS
    if answer_type == AnswerType.SPAN:
        if answer_source == AnswerSource.TEXT:
            return Operator.SPAN_IN_TEXT
        return Operator.CELL_IN_TABLE
    if answer_type == AnswerType.COUNTING:
        return Operator.COUNT
    if ast is None or isinstance(ast, ItemSet):
        return Operator.COUNT if isinstance(ast, ItemSet) else Operator.OTHER

    node = ast
    if isinstance(node, BinaryOp):
        if node.op == "-" and _is_leaf(node.left) and _is_leaf(node.right):
            return Operator.DIFFERENCE
        if node.op == "/":
            numerator, divisor = node.left, node.right
            if (
                isinstance(numerator, BinaryOp)
                and numerator.op == "-"
                and _is_leaf(numerator.left)
                and _is_leaf(numerator.right)
                and _is_leaf(divisor)
                and numerator.right.value == divisor.value
            ):
                return Operator.CHANGE_RATIO
            addends = _chain_leaves(numerator, "+")
            if (
                addends is not None
                and len(addends) >= 2
                and _is_leaf(divisor)
                and divisor.value == len(addends)
            ):
                return Operator.AVERAGE
            if _is_leaf(numerator) and _is_leaf(divisor):
                return Operator.DIVISION
            return Operator.OTHER
        if node.op == "+":
            addends = _chain_leaves(node, "+")
            if addends is not None and len(addends) >= 2:
                return Operator.SUM
            return Operator.OTHER
        if node.op == "*":
            factors = _chain_leaves(node, "*")
            if factors is not None and len(factors) >= 2:
                return Operator.MULTIPLICATION
            return Operator.OTHER
    return Operator.OTHER


def classify_question(question) -> str:
    """Classify one question record, treating unparseable derivations, and
    those holding a number too long to read, as Other."""
    ast = None
    if question.answer_type in (AnswerType.COUNTING, AnswerType.ARITHMETIC):
        try:
            ast = parsed_derivation(question)
        except (DerivationParseError, NumberTooLongError):
            ast = None
    return classify_operator(ast, question.answer_type, question.answer_source)


def operator_distribution(dataset: Dataset) -> dict[str, float]:
    """Proportion (in percent) of gold operators over a dataset."""
    return percent_tally(
        (*Operator.ALL, Operator.OTHER),
        (classify_question(question) for _, question in iter_questions(dataset)),
    )
