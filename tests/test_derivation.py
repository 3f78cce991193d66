import gc
import random
from fractions import Fraction

import pytest

from oracles import eval_rpn, random_expression, shunting_yard_rpn
from tatqa_symbolic.corpus import AnswerSource, AnswerType
from tatqa_symbolic.derivation import (
    BinaryOp,
    ItemSet,
    MAX_TOKENS,
    NumberLeaf,
    Operator,
    UnaryNeg,
    classify_operator,
    eval_derivation,
    operand_sequence,
    parse_derivation,
    render_derivation,
)
from tatqa_symbolic.errors import DerivationParseError, ExecutionError


# derivations for each place a parse can fail, with their full messages
PARSE_ERRORS = [
    ("1 2", "unexpected trailing input at offset 2 in '1 2'"),
    ("1 +", "expected a number or '(' at offset 3 in '1 +'"),
    ("-", "expected a number or '(' at offset 1 in '-'"),
    ("(1 + 2", "expected ')' at offset 6 in '(1 + 2'"),
    ("(1 2)", "expected ')' at offset 3 in '(1 2)'"),
    (")", "unexpected token rparen at offset 0 in ')'"),
    ("* 2", "unexpected token op at offset 0 in '* 2'"),
    (" ## ", "item set has no items at offset 0 in ' ## '"),
    ("   ", "empty derivation at offset 0 in '   '"),
    ("12 + ?", "unexpected character '?' at offset 5 in '12 + ?'"),
]


class TestParse:
    def test_change_ratio_expression(self):
        ast = parse_derivation("(11,386 - 10,353)/10,353", AnswerType.ARITHMETIC)
        assert isinstance(ast, BinaryOp)
        assert len(operand_sequence(ast)) == 3

    def test_item_set(self):
        ast = parse_derivation("device ## enterprise services", AnswerType.COUNTING)
        assert ast == ItemSet(("device", "enterprise services"))

    def test_plain_difference(self):
        ast = parse_derivation("110,360 - 5,134", AnswerType.ARITHMETIC)
        assert eval_derivation(ast) == 105226

    def test_single_item_counting(self):
        ast = parse_derivation("devices", AnswerType.COUNTING)
        assert ast == ItemSet(("devices",))

    def test_parse_error_carries_offset(self):
        with pytest.raises(DerivationParseError) as excinfo:
            parse_derivation("12 + ?", AnswerType.ARITHMETIC)
        assert excinfo.value.offset == 5

    def test_empty_derivation(self):
        with pytest.raises(DerivationParseError):
            parse_derivation("   ", AnswerType.ARITHMETIC)

    def test_unbalanced_parens(self):
        with pytest.raises(DerivationParseError):
            parse_derivation("(1 + 2", AnswerType.ARITHMETIC)

    @pytest.mark.parametrize("text, message", PARSE_ERRORS)
    def test_parse_error_message(self, text, message):
        with pytest.raises(DerivationParseError) as excinfo:
            parse_derivation(text, AnswerType.ARITHMETIC)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("text, offset", [
        (" + ".join(["1"] * 1501), 2 * MAX_TOKENS),
        ("(" * 400 + "1" + ")" * 400, MAX_TOKENS),
    ], ids=["chain", "nested"])
    def test_past_the_token_bound(self, text, offset):
        with pytest.raises(DerivationParseError) as excinfo:
            parse_derivation(text, AnswerType.ARITHMETIC)
        assert excinfo.value.offset == offset

    # as deep as the bound allows, so the parser and every tree walk
    # must stay inside the recursion limit
    CHAIN = MAX_TOKENS // 2
    NESTED = (MAX_TOKENS - 1) // 2
    NEGATED = (MAX_TOKENS - 3) // 3 // 2 * 2  # even, so "-(" ... "1 + 1" ... ")" is 2

    @pytest.mark.parametrize("text, n_operands, value, operator", [
        (" + ".join(["1"] * CHAIN), CHAIN, CHAIN, Operator.SUM),
        ("(" * NESTED + "1" + ")" * NESTED, 1, 1, Operator.OTHER),
        ("-(" * NEGATED + "1 + 1" + ")" * NEGATED, 2, 2, Operator.OTHER),
    ], ids=["chain", "nested", "negated"])
    def test_within_the_token_bound(self, text, n_operands, value, operator):
        ast = parse_derivation(text, AnswerType.ARITHMETIC)
        assert parse_derivation(render_derivation(ast), AnswerType.ARITHMETIC) == ast
        assert len(operand_sequence(ast)) == n_operands
        assert eval_derivation(ast) == value
        assert classify_operator(ast, AnswerType.ARITHMETIC, AnswerSource.TABLE) == operator

    def test_unicode_operators(self):
        ast = parse_derivation("6 × 7 − 2 ÷ 4", AnswerType.ARITHMETIC)
        assert eval_derivation(ast) == Fraction("41.5")


class TestEval:
    def test_change_ratio_value(self):
        # independent arithmetic: 11386 - 10353 = 1033, over 10353
        ast = parse_derivation("(11,386 - 10,353)/10,353", AnswerType.ARITHMETIC)
        assert eval_derivation(ast) == Fraction(1033, 10353)

    def test_item_count(self):
        assert eval_derivation(ItemSet(("a", "b"))) == 2

    def test_division_by_zero(self):
        ast = parse_derivation("375/0", AnswerType.ARITHMETIC)
        with pytest.raises(ExecutionError):
            eval_derivation(ast)

    def test_percent_operands_are_face_values(self):
        ast = parse_derivation("39% - 20%", AnswerType.ARITHMETIC)
        assert eval_derivation(ast) == 19


class TestOperandSequence:
    def test_left_to_right(self):
        ast = parse_derivation("(11,386 - 10,353)/10,353", AnswerType.ARITHMETIC)
        assert [n.value for n in operand_sequence(ast)] == [11386, 10353, 10353]

    def test_percent_difference(self):
        ast = parse_derivation("39% - 20%", AnswerType.ARITHMETIC)
        assert [n.value for n in operand_sequence(ast)] == [39, 20]

    def test_single_leaf(self):
        ast = parse_derivation("5,134", AnswerType.ARITHMETIC)
        assert [n.value for n in operand_sequence(ast)] == [5134]

    def test_item_set_rejected(self):
        with pytest.raises(ValueError):
            operand_sequence(ItemSet(("a",)))

    def test_leaves_no_cyclic_garbage(self):
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            operand_sequence(parse_derivation("(1 + 2) / 3"))
            assert gc.collect() == 0
            for text, _ in PARSE_ERRORS:
                try:
                    parse_derivation(text)
                except DerivationParseError:
                    pass
                assert gc.collect() == 0, text
        finally:
            if enabled:
                gc.enable()


ARITH = AnswerType.ARITHMETIC
TABLE = AnswerSource.TABLE


class TestClassify:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("(11,386 - 10,353)/10,353", Operator.CHANGE_RATIO),
            ("110,360 - 5,134", Operator.DIFFERENCE),
            ("38,100/125,843", Operator.DIVISION),
            ("375 + 2,032", Operator.SUM),
            ("1 + 2 + 3 + 4", Operator.SUM),
            ("(375 + 2,032)/2", Operator.AVERAGE),
            ("(1 + 2 + 3)/3", Operator.AVERAGE),
            ("1.5 * 200", Operator.MULTIPLICATION),
            ("(105,639 + 245,386)/19,133,139", Operator.OTHER),
            ("(1 + 2)/4", Operator.OTHER),
            ("1 - 2 - 3", Operator.OTHER),
            ("5,134", Operator.OTHER),
            ("(5 - 3)/2", Operator.OTHER),  # divisor matches neither b nor addend count
        ],
    )
    def test_arithmetic_patterns(self, text, expected):
        ast = parse_derivation(text, ARITH)
        assert classify_operator(ast, ARITH, TABLE) == expected

    def test_change_ratio_divisor_must_match(self):
        ast = parse_derivation("(5 - 3)/3", ARITH)
        assert classify_operator(ast, ARITH, TABLE) == Operator.CHANGE_RATIO

    def test_counting_maps_to_count(self):
        ast = parse_derivation("device ## enterprise services", AnswerType.COUNTING)
        assert classify_operator(ast, AnswerType.COUNTING, AnswerSource.TABLE_TEXT) == Operator.COUNT

    def test_span_family(self):
        assert classify_operator(None, AnswerType.SPAN, AnswerSource.TEXT) == Operator.SPAN_IN_TEXT
        assert classify_operator(None, AnswerType.SPAN, AnswerSource.TABLE) == Operator.CELL_IN_TABLE
        assert classify_operator(None, AnswerType.SPAN, AnswerSource.TABLE_TEXT) == Operator.CELL_IN_TABLE
        assert classify_operator(None, AnswerType.SPANS, AnswerSource.TEXT) == Operator.SPANS

    def test_change_ratio_eval_matches_direct_formula(self):
        ast = parse_derivation("(11,386 - 10,353)/10,353", ARITH)
        assert classify_operator(ast, ARITH, TABLE) == Operator.CHANGE_RATIO
        a, b = (n.value for n in operand_sequence(ast)[:2])
        assert eval_derivation(ast) == (a - b) / b


class TestRender:
    @pytest.mark.parametrize(
        "text",
        [
            "(11,386 - 10,353)/10,353",
            "110,360 - 5,134",
            "1 - (2 - 3)",
            "2 * (3 + 4)",
            "-(3 + 4) * 2",
            "device ## enterprise services",
        ],
    )
    def test_parse_render_parse_idempotent(self, text):
        first = parse_derivation(text, ARITH if "##" not in text else AnswerType.COUNTING)
        rendered = render_derivation(first)
        second = parse_derivation(rendered, ARITH if "##" not in text else AnswerType.COUNTING)
        assert first == second
        assert render_derivation(second) == rendered


def test_numeric_questions_never_classify_as_span_family(questions):
    from tatqa_symbolic.derivation import classify_question

    span_family = {Operator.SPAN_IN_TEXT, Operator.CELL_IN_TABLE, Operator.SPANS}
    for context, question in questions.values():
        if question.answer_type in (AnswerType.COUNTING, AnswerType.ARITHMETIC):
            assert classify_question(question) not in span_family


def _postorder(node) -> list:
    """Leaf values, ``u`` for a negation and the binary operators, each
    node after its children."""
    if isinstance(node, NumberLeaf):
        return [node.value]
    if isinstance(node, UnaryNeg):
        return _postorder(node.child) + ["u"]
    return _postorder(node.left) + _postorder(node.right) + [node.op]


def _folded(rpn: list) -> list:
    """Reverse Polish order with a number followed by ``u`` read as its
    negative, as the parser folds "-39" into one operand."""
    folded: list = []
    for token in rpn:
        if token == "u" and folded and isinstance(folded[-1], Fraction):
            folded[-1] = -folded[-1]
        else:
            folded.append(token)
    return folded


def test_evaluator_agrees_with_shunting_yard_oracle():
    # the tree's shape as well as its value: a right-leaning "1 + 2 + 3"
    # has the right value but not the reference's order
    rng = random.Random(20240811)
    checked = 0
    for _ in range(500):
        text = random_expression(rng)
        rpn = shunting_yard_rpn(text)
        ast = parse_derivation(text, ARITH)
        assert _postorder(ast) == _folded(rpn), text
        try:
            expected = eval_rpn(rpn)
        except ZeroDivisionError:
            with pytest.raises(ExecutionError):
                eval_derivation(ast)
            continue
        assert eval_derivation(ast) == expected
        checked += 1
    assert checked > 400
