"""Seeded synthetic corpora in the TAT-QA release format.

Every workload is generated from one integer seed with ``random.Random``,
so the same seed gives byte-identical files.  With each corpus the
generator returns what it planted: the outcome every question must have,
known from how the question was built and not from running the pipeline.

The generator never imports the package under test.  It keeps the
properties that make a planted outcome certain:

- every number in a context (table and text) has a distinct absolute
  value outside the year range, so value lookup finds exactly one place;
- a number in running text is a word of its own, followed by a space;
- every answer phrase occurs once, on word boundaries, in no table cell,
  and the phrases of one answer are never adjacent words.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

# Table shapes stay within the loader's ROW_BOUNDS (3, 30) and
# COL_BOUNDS (3, 6), so strict loading logs nothing.
# Shapes and scales are allocated in these proportions (see _stratified)
# rather than drawn one by one, so that a corpus of 130 contexts has the
# same means as one of thousands.  Most tables have 2-12 data rows (at
# least 4 are kept where questions need them); 7% have 16-26.
ROW_MIX = [(rows, 93 / 11) for rows in range(2, 13)] + [(rows, 7 / 4) for rows in (16, 19, 23, 26)]
COL_MIX = [(3, 30), (4, 45), (5, 15), (6, 10)]
SCALE_MIX = [("thousand", 55), ("million", 42), ("billion", 1), ("", 2)]

LABELS = """Revenue|Cost of sales|Gross profit|Research and development|Selling and
marketing|General and administrative|Operating income|Interest expense|Interest
income|Income tax expense|Net income|Depreciation and amortization|Accounts
receivable|Inventories|Prepaid expenses|Property and equipment|Goodwill|Intangible
assets|Accounts payable|Accrued liabilities|Deferred revenue|Long-term debt|Lease
liabilities|Share-based compensation|Restructuring charges|Capital
expenditures|Cash and cash equivalents|Short-term investments|Other current
assets|Total assets|Total liabilities|Retained earnings|Treasury stock|Dividends
paid|Free cash flow|Licensing fees|Subscription services|Hardware
sales|Professional services|Maintenance and support|Advertising|Royalties|Rental
income|Warranty reserve|Bad debt allowance|Pension obligations|Customer
deposits|Unbilled receivables|Contract assets|Contract liabilities|Foreign
exchange losses|Impairment charges|Acquisition costs|Legal settlements|Employee
benefits|Travel and entertainment|Facilities costs|Insurance premiums|Consulting
fees|Audit fees|Freight costs|Raw materials|Work in progress|Finished
goods|Deferred tax assets|Deferred tax liabilities|Minority interest|Commercial
paper|Revolving credit facility|Senior notes|Convertible notes|Capital
leases|Investor relations|Data center operations|Network
infrastructure|Marketing programs|Channel rebates|Sales commissions|Product
returns|Customer support""".replace("\n", " ").split("|")

PERCENT_LABELS = """Gross margin|Operating margin|Effective tax rate|Net
margin|Utilisation rate|Renewal rate|Attrition rate|Return on equity""".replace(
    "\n", " "
).split("|")

TEXT_METRICS = """commercial cloud revenue|subscription bookings|contracted
backlog|installed base revenue|platform licensing revenue|partner channel
revenue|managed services revenue|annual recurring revenue""".replace(
    "\n", " "
).split("|")

ENTITIES = """Singapore|Germany|Brazil|Canada|Mexico|India|France|Italy|Norway|Sweden|
Poland|Chile|Kenya|Egypt|Vietnam|Ireland|Belgium|Austria|Portugal|Denmark|Finland|
Morocco|Peru|Colombia|Argentina|Turkey|Greece|Hungary|Romania|Thailand""".replace(
    "\n", ""
).split("|")

PHRASE_ADJ = """higher|lower|stronger|weaker|favourable|unfavourable|accelerated|
sustained|broader|renewed""".replace("\n", "").split("|")
PHRASE_NOUN = """subscription renewals|enterprise demand|currency movements|pricing
discipline|channel inventory|contract wins|supplier terms|freight rates|hiring
activity|warranty claims""".replace("\n", " ").split("|")
PHRASE_TAIL = """in the americas|across emerging markets|within the consumer
segment|from strategic partners|among mid-market customers|at retail
locations""".replace("\n", " ").split("|")

FILLER_SUBJECTS = """Management|The board|The group|Our leadership team|The audit
committee|The company""".replace("\n", " ").split("|")
FILLER_VERBS = """continued to review|closely monitored|regularly assessed|further
strengthened|reported on|remained focused on""".replace("\n", " ").split("|")
FILLER_OBJECTS = """the allocation of capital between operating units|the controls over
financial reporting and disclosure|the long term outlook for each reporting
segment|the liquidity position and available credit lines|the progress of ongoing
integration programs|the exposure to interest rate and commodity
risk""".replace("\n", " ").split("|")
FILLER_TAILS = """during the year|throughout the period|as part of its normal
governance|in line with prior practice|with support from external
advisers""".replace("\n", " ").split("|")

SCALE_HEADERS = {
    "thousand": ["($ in thousands)", "(in thousands)", "$'000"],
    "million": ["(US$ million)", "($ in millions)", "(in millions)"],
    "billion": ["($ in billions)"],
    "": ["", "(actual amounts)"],
}
YEAR_LOW, YEAR_HIGH = 1990, 2030


# ---------------------------------------------------------------------------
# Exact number helpers
# ---------------------------------------------------------------------------


def round_half_even(value: Fraction, places: int) -> Fraction:
    """Round to ``places`` decimal places, ties to even."""
    scaled = value * 10**places
    floor = scaled.numerator // scaled.denominator
    twice = 2 * (scaled.numerator - floor * scaled.denominator)
    if twice > scaled.denominator or (twice == scaled.denominator and floor % 2):
        floor += 1
    return Fraction(floor, 10**places)


def decimal_text(value: Fraction) -> str:
    """Plain decimal rendering of a terminating fraction."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    places = 0
    while (value * 10**places).denominator != 1:
        places += 1
        if places > 30:
            raise ValueError(f"{value} has no terminating decimal form")
    digits = str(int(value * 10**places)).rjust(places + 1, "0")
    if not places:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def grouped(value: Fraction) -> str:
    """"1,234.5" style rendering of a non-negative terminating fraction."""
    return format(Decimal(decimal_text(value)), ",")


def json_number(value: Fraction):
    """An int, a float whose shortest repr is exact, or a decimal string."""
    if value.denominator == 1:
        return int(value)
    text = decimal_text(value)
    as_float = float(text)
    return as_float if Decimal(repr(as_float)) == Decimal(text) else text


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------


@dataclass
class Num:
    """A number placed in a context: its value, display text and the
    surface a derivation uses for it."""

    value: Fraction
    text: str
    surface: str


class Context:
    """One table plus the sentences its questions need.

    Questions are planned first; paragraphs are assembled at the end from
    the required sentences and neutral filler.
    """

    def __init__(self, rng: random.Random, uid: str, data_rows: int, n_cols: int, scale: str):
        self.rng = rng
        self.uid = uid
        self.used: set[Fraction] = set()  # absolute values of every number
        self.phrases: set[str] = set()
        self.sentences: list[str] = []
        self.scale = scale
        top_year = rng.randint(2016, 2021)
        self.years = [str(top_year - i) for i in range(n_cols - 1)]
        n_percent = sum(rng.random() < 0.12 for _ in range(data_rows))
        money_labels = rng.sample(LABELS, data_rows - min(n_percent, 3))
        percent_labels = rng.sample(PERCENT_LABELS, data_rows - len(money_labels))
        self.rows: list[tuple[str, str, list[Num]]] = []  # (label, kind, values)
        for label in money_labels:
            self.rows.append((label, "money", [self.money_cell() for _ in self.years]))
        for label in percent_labels:
            self.rows.append((label, "percent", [self.percent_cell() for _ in self.years]))
        rng.shuffle(self.rows)
        header = rng.choice(SCALE_HEADERS[self.scale])
        self.caption = None
        if rng.random() < 0.5:
            self.caption, header = f"Financial summary {header}".strip(), ""
        self.header = header

    # -- numbers ----------------------------------------------------------

    def fresh(self, low: int, high: int, decimals: int = 0) -> Fraction:
        while True:
            value = Fraction(self.rng.randint(low * 10**decimals, high * 10**decimals), 10**decimals)
            if value not in self.used and not (YEAR_LOW <= value <= YEAR_HIGH):
                self.used.add(value)
                return value

    def money_cell(self) -> Num:
        value = self.fresh(100, 999_999, 1 if self.rng.random() < 0.1 else 0)
        if self.rng.random() < 0.15:
            return Num(-value, f"({grouped(value)})", f"-{grouped(value)}")
        prefix = "$" if self.rng.random() < 0.1 else ""
        return Num(value, prefix + grouped(value), grouped(value))

    def percent_cell(self) -> Num:
        value = self.fresh(1, 99, 1)
        return Num(value, f"{decimal_text(value)}%", f"{decimal_text(value)}%")

    def text_number(self) -> Num:
        value = self.fresh(100, 99_999)
        return Num(value, "$" + grouped(value), grouped(value))

    # -- text -------------------------------------------------------------

    def phrase(self) -> str:
        while True:
            rng = self.rng
            text = f"{rng.choice(PHRASE_ADJ)} {rng.choice(PHRASE_NOUN)} {rng.choice(PHRASE_TAIL)}"
            if text not in self.phrases:
                self.phrases.add(text)
                return text

    def entities(self, n: int) -> list[str]:
        chosen = [e for e in self.rng.sample(ENTITIES, n + 3) if e not in self.phrases][:n]
        self.phrases.update(chosen)
        return chosen

    def filler(self) -> str:
        rng = self.rng
        return (
            f"{rng.choice(FILLER_SUBJECTS)} {rng.choice(FILLER_VERBS)} "
            f"{rng.choice(FILLER_OBJECTS)} {rng.choice(FILLER_TAILS)}."
        )

    def money_rows(self):
        return [row for row in self.rows if row[1] == "money"]

    def percent_rows(self):
        return [row for row in self.rows if row[1] == "percent"]

    def to_doc(self, questions: list[dict], n_paragraphs: int, words: int) -> dict:
        rng = self.rng
        table = [[self.header] + self.years]
        if self.caption is not None:
            table.append([self.caption] + [""] * len(self.years))
        table += [[label] + [num.text for num in values] for label, _, values in self.rows]
        paragraphs: list[list[str]] = [[] for _ in range(n_paragraphs)]
        for sentence in self.sentences:
            rng.choice(paragraphs).append(sentence)
        for sentences in paragraphs:
            target = max(12, int(rng.gauss(words, words / 3)))
            while sum(len(s.split()) for s in sentences) < target:
                sentences.insert(rng.randint(0, len(sentences)), self.filler())
        return {
            "table": {"uid": self.uid, "table": table},
            "paragraphs": [
                {"uid": f"{self.uid}-p{i + 1}", "order": i + 1, "text": " ".join(sentences)}
                for i, sentences in enumerate(paragraphs)
            ],
            "questions": questions,
        }


def _question(uid, text, answer, derivation, answer_type, answer_from, scale) -> dict:
    return {
        "uid": uid,
        "question": text,
        "answer": answer,
        "derivation": derivation,
        "answer_type": answer_type,
        "answer_from": answer_from,
        "scale": scale,
    }


def _stratified(rng: random.Random, mix, n: int) -> list:
    """``n`` values in the proportions of ``mix``, in random order."""
    values = _allocate(mix, n)
    rng.shuffle(values)
    return values


def _table_shapes(rng: random.Random, n: int) -> list[tuple[int, int, str]]:
    """(data rows, columns, scale) of ``n`` TAT-QA-like tables."""
    rows = [max(r, 4) for r in _stratified(rng, ROW_MIX, n)]
    return list(zip(rows, _stratified(rng, COL_MIX, n), _stratified(rng, SCALE_MIX, n)))


# ---------------------------------------------------------------------------
# Question builders.  Each returns (question dict, planted kind) and may
# add sentences to the context.
# ---------------------------------------------------------------------------


def _money_scale(ctx: Context, row) -> str:
    return "percent" if row[1] == "percent" else ctx.scale


def _two_cells(ctx: Context, rows):
    label, kind, values = ctx.rng.choice(rows)
    i, j = sorted(ctx.rng.sample(range(len(values)), 2))
    return (label, kind, values), i, j


def q_span_in_text(ctx: Context, uid: str):
    phrase = ctx.phrase()
    metric = ctx.rng.choice(TEXT_METRICS)
    year = ctx.rng.choice(ctx.years)
    ctx.sentences.append(f"The change in {metric} was mainly due to {phrase} in fiscal {year}.")
    text = f"What was the change in {metric} in fiscal {year} mainly due to?"
    return _question(uid, text, [phrase], "", "span", "text", ""), "answerable"


def q_cell_in_table(ctx: Context, uid: str):
    rng = ctx.rng
    source = rng.choice(["table", "table-text"])
    if rng.random() < 0.35:
        label, _, values = rng.choice(ctx.money_rows())
        year = rng.randrange(len(ctx.years))
        text = f"Which line item reported {values[year].text} in {ctx.years[year]}?"
        return _question(uid, text, [label], "", "span", source, ""), "answerable"
    row = rng.choice(ctx.rows)
    year = rng.randrange(len(ctx.years))
    text = f"What was the amount of {row[0]} reported for {ctx.years[year]}?"
    answer = [row[2][year].text]
    return _question(uid, text, answer, "", "span", source, _money_scale(ctx, row)), "answerable"


def q_spans(ctx: Context, uid: str):
    rng = ctx.rng
    pick = rng.random()
    if pick < 0.25:
        items = ctx.entities(rng.randint(2, 3))
        listed = " and ".join(items) if len(items) < 3 else f"{items[0]}, along with {items[1]} and {items[2]}"
        ctx.sentences.append(f"The company expanded its operations in {listed} this year.")
        text = "In which countries did the company expand its operations this year?"
        return _question(uid, text, items, "", "multi-span", "text", ""), "answerable"
    if pick < 0.6:
        pool = ctx.percent_rows() if len(ctx.percent_rows()) >= 2 and rng.random() < 0.2 else ctx.money_rows()
        rows = rng.sample(pool, min(len(pool), rng.randint(2, 3)))
        year = rng.randrange(len(ctx.years))
        text = f"What were the amounts of {' and '.join(r[0] for r in rows)} in {ctx.years[year]} respectively?"
        answer = [r[2][year].text for r in rows]
        return _question(uid, text, answer, "", "multi-span", "table", _money_scale(ctx, rows[0])), "answerable"
    rows = rng.sample(ctx.rows, min(len(ctx.rows), rng.randint(2, 3)))
    text = f"Which of these line items are disclosed: {', '.join(r[0] for r in rows)}?"
    return _question(uid, text, [r[0] for r in rows], "", "multi-span", "table-text", ""), "answerable"


def q_count(ctx: Context, uid: str):
    rng = ctx.rng
    rows = rng.sample(ctx.rows, min(len(ctx.rows), rng.randint(2, 4)))
    year = rng.choice(ctx.years)
    text = f"How many line items in {year} exceed the reporting threshold?"
    derivation = " ## ".join(r[0] for r in rows)
    source = rng.choice(["table", "table-text"])
    return _question(uid, text, len(rows), derivation, "count", source, ""), "answerable"


def _arith(uid, text, derivation, gold, scale, source, kind="answerable"):
    """An arithmetic question whose gold answer is ``gold``.

    Gold answers the oracle must match are exact results, or ratios
    rounded to 4 places (2 places in percentage points): both sides of an
    EM comparison are rounded to 4 places after the scale is applied, so
    only those forms compare equal to the exact pipeline result.
    """
    return _question(uid, text, json_number(gold), derivation, "arithmetic", source, scale), kind


def _arith_source(ctx: Context) -> str:
    # with q_table_text, this brings table-text near the release's share
    # of arithmetic questions (about 30%)
    return "table-text" if ctx.rng.random() < 0.2 else "table"


def _percent_of(ratio: Fraction) -> Fraction:
    return round_half_even(ratio * 100, 2)


def q_difference(ctx: Context, uid: str):
    rng = ctx.rng
    rows = ctx.percent_rows() if ctx.percent_rows() and rng.random() < 0.3 else ctx.money_rows()
    row, i, j = _two_cells(ctx, rows)
    a, b = row[2][i], row[2][j]
    if rng.random() < 0.2:
        a, b = b, a
    text = f"What was the change in {row[0]} from {ctx.years[j]} to {ctx.years[i]}?"
    derivation = f"{a.surface} - {_wrap(b.surface)}"
    return _arith(uid, text, derivation, a.value - b.value, _money_scale(ctx, row), _arith_source(ctx))


def _wrap(surface: str) -> str:
    return f"({surface})" if surface.startswith("-") else surface


def q_sum(ctx: Context, uid: str):
    row, i, j = _two_cells(ctx, ctx.money_rows())
    a, b = row[2][i], row[2][j]
    text = f"What was the total {row[0]} in {ctx.years[i]} and {ctx.years[j]} combined?"
    derivation = f"{a.surface} + {_wrap(b.surface)}"
    return _arith(uid, text, derivation, a.value + b.value, ctx.scale, _arith_source(ctx))


def q_average(ctx: Context, uid: str):
    rng = ctx.rng
    rows = ctx.percent_rows() if ctx.percent_rows() and rng.random() < 0.3 else ctx.money_rows()
    label, kind, values = rng.choice(rows)
    k = rng.randint(2, min(3, len(values))) if kind == "money" else 2
    cols = sorted(rng.sample(range(len(values)), k))
    nums = [values[c] for c in cols]
    if k == 3 and sum(n.value for n in nums) * 10 % 3:
        # keep the mean terminating, so the exact result is the gold answer
        k, cols, nums = 2, cols[:2], nums[:2]
    years = " and ".join(ctx.years[c] for c in cols)
    text = f"What was the average {label} for {years}?"
    derivation = f"({' + '.join(_wrap(n.surface) for n in nums)}) / {k}"
    result = sum((n.value for n in nums), Fraction(0)) / k
    return _arith(uid, text, derivation, result, _money_scale(ctx, (label, kind)), _arith_source(ctx))


def q_multiplication(ctx: Context, uid: str):
    row, i, j = _two_cells(ctx, ctx.money_rows())
    a, b = row[2][i], row[2][j]
    text = f"What is the product of {row[0]} in {ctx.years[i]} and {ctx.years[j]}?"
    derivation = f"{a.surface} * {_wrap(b.surface)}"
    return _arith(uid, text, derivation, a.value * b.value, "", _arith_source(ctx))


def q_division(ctx: Context, uid: str):
    rng = ctx.rng
    (la, _, va), (lb, _, vb) = rng.sample(ctx.money_rows(), 2)
    year = rng.randrange(len(ctx.years))
    a, b = va[year], vb[year]
    text = f"What proportion of {lb} does {la} represent in {ctx.years[year]}?"
    derivation = f"{a.surface} / {_wrap(b.surface)}"
    ratio = a.value / b.value
    if rng.random() < 0.7:
        return _arith(uid, text, derivation, _percent_of(ratio), "percent", _arith_source(ctx))
    return _arith(uid, text, derivation, round_half_even(ratio, 4), "", _arith_source(ctx))


def q_change_ratio(ctx: Context, uid: str):
    rng = ctx.rng
    if rng.random() < 0.1:
        old, new = ctx.text_number(), ctx.text_number()
        metric = rng.choice(TEXT_METRICS)
        ctx.sentences.append(
            f"Our {metric} grew from {old.text} million in the prior year to {new.text} million this year."
        )
        text = f"What was the percentage change in {metric} this year?"
        source = "text"
    else:
        row, i, j = _two_cells(ctx, ctx.money_rows())
        new, old = row[2][i], row[2][j]
        text = f"What was the percentage change in {row[0]} from {ctx.years[j]} to {ctx.years[i]}?"
        source = "table"
    derivation = f"({new.surface} - {_wrap(old.surface)}) / {_wrap(old.surface)}"
    ratio = (new.value - old.value) / old.value
    return _arith(uid, text, derivation, _percent_of(ratio), "percent", source)


def q_table_text(ctx: Context, uid: str):
    """Arithmetic with one operand in the table and one in the text."""
    rng = ctx.rng
    label, _, values = rng.choice(ctx.money_rows())
    year = rng.randrange(len(ctx.years))
    cell = values[year]
    extra = ctx.text_number()
    metric = rng.choice(TEXT_METRICS)
    unit = {"thousand": " thousand", "million": " million", "billion": " billion"}.get(ctx.scale, "")
    ctx.sentences.append(f"In {ctx.years[year]} the {metric} amounted to {extra.text}{unit} for the year.")
    text = f"What was the difference between {metric} and {label} in {ctx.years[year]}?"
    derivation = f"{extra.surface} - {_wrap(cell.surface)}"
    return _arith(uid, text, derivation, extra.value - cell.value, ctx.scale, "table-text")


def q_other(ctx: Context, uid: str):
    rng = ctx.rng
    rows = ctx.money_rows()
    (la, _, va), (lb, _, vb) = rng.sample(rows, 2)
    i, j = rng.sample(range(len(va)), 2)
    a, b, c = va[i], va[j], vb[i]
    text = f"What is the sum of {la} in {ctx.years[i]} and {ctx.years[j]} as a share of {lb}?"
    derivation = f"({a.surface} + {_wrap(b.surface)}) / {_wrap(c.surface)}"
    if rng.random() < 0.5:
        text = f"What remains of {la} in {ctx.years[i]} after {ctx.years[j]} and {lb}?"
        derivation = f"{a.surface} - {_wrap(b.surface)} - {_wrap(c.surface)}"
        result = a.value - b.value - c.value
    else:
        result = round_half_even((a.value + b.value) / c.value, 4)
    return _arith(uid, text, derivation, result, "", "table", kind="other")


def q_unlocatable(ctx: Context, uid: str):
    """A difference whose second operand appears nowhere in the context."""
    row, i, _ = _two_cells(ctx, ctx.money_rows())
    a = row[2][i]
    missing = ctx.fresh(100, 999_999)
    text = f"How far was {row[0]} in {ctx.years[i]} from the budgeted amount?"
    derivation = f"{a.surface} - {grouped(missing)}"
    return _arith(uid, text, derivation, a.value - missing, ctx.scale, "table", kind="unlocatable")


# Operator mix near the published dev-split proportions (reference.py),
# with table-text arithmetic and unlocatable questions taking part of the
# difference share.
DENSE_MIX = [
    (q_span_in_text, 20.9),
    (q_cell_in_table, 21.1),
    (q_spans, 13.0),
    (q_sum, 3.4),
    (q_count, 1.9),
    (q_average, 8.5),
    (q_multiplication, 0.2),
    (q_division, 1.0),
    (q_difference, 7.6),
    (q_table_text, 4.5),
    (q_change_ratio, 9.3),
    (q_other, 6.6),
    (q_unlocatable, 2.0),
]


def _allocate(mix, n: int) -> list:
    """``n`` items in the proportions of ``mix``, by largest remainder."""
    total = sum(weight for _, weight in mix)
    quotas = [n * weight / total for _, weight in mix]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(mix)), key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return [fn for (fn, _), count in zip(mix, counts) for _ in range(count)]


def _corpus(name: str, seed: int, n_contexts: int, mix, shape, min_money: int, words: int):
    """Documents and planted kinds for ``n_contexts`` contexts.

    Context shapes and the question mix are the same multiset for every
    seed, drawn from a fixed generator; the seed orders them and draws
    all content.  Corpus size and operator mix therefore do not change
    with the seed, which keeps run-to-run spread down to content.
    """
    shape_rng = random.Random(f"{name}-shapes")
    shapes = shape(shape_rng, n_contexts)
    rng = random.Random(f"{name}-{seed}")
    rng.shuffle(shapes)
    builders = _allocate(mix, sum(s[3] for s in shapes))
    rng.shuffle(builders)
    docs, kinds = [], {}
    for c, (data_rows, n_cols, scale, n_questions, n_paragraphs) in enumerate(shapes):
        uid = f"{name[0]}{seed}-c{c}"
        ctx = Context(rng, uid, data_rows, n_cols, scale)
        while len(ctx.money_rows()) < min_money:
            ctx = Context(rng, uid, data_rows, n_cols, scale)
        questions = []
        for q_index in range(n_questions):
            qid = f"{uid}-q{q_index + 1}"
            question, kinds[qid] = builders.pop()(ctx, qid)
            questions.append(question)
        docs.append(ctx.to_doc(questions, n_paragraphs, words))
    return docs, kinds


def _paragraph_count(rng: random.Random) -> int:
    return rng.choice([2, 3, 3, 4, 4, 5, 5, 6, 6, 6, 7, 8])


def _dense_shapes(rng: random.Random, n: int):
    return [(*table, rng.choice([3, 4, 5, 6, 6, 7, 8, 9]), _paragraph_count(rng))
            for table in _table_shapes(rng, n)]


def dense_corpus(seed: int, n_contexts: int):
    """TAT-QA-shaped corpus: ~6 questions per context, operator and scale
    mix near the published dev split, with planted Other-class and
    unlocatable questions.  Returns (documents, {qid: planted kind})."""
    return _corpus("dense", seed, n_contexts, DENSE_MIX, _dense_shapes, 3, 38)


# ---------------------------------------------------------------------------
# validate-sparse: one checkable question per context
# ---------------------------------------------------------------------------


def q_mismatch(ctx: Context, uid: str):
    question, _ = q_difference(ctx, uid)
    question["answer"] = json_number(Fraction(Decimal(str(question["answer"]))) + 7)
    return question, "mismatch"


def q_zero_divisor(ctx: Context, uid: str):
    label, _, values = ctx.rng.choice(ctx.money_rows())
    values[-1] = Num(Fraction(0), "0", "0")
    a = values[0]
    text = f"What is {label} in {ctx.years[0]} relative to {ctx.years[-1]}?"
    derivation = f"{a.surface} / 0"
    return _question(uid, text, 0, derivation, "arithmetic", "table", ""), "execution_error"


def q_parse_error(ctx: Context, uid: str):
    row, i, j = _two_cells(ctx, ctx.money_rows())
    a, b = row[2][i], row[2][j]
    text = f"What was the change in {row[0]} from {ctx.years[j]} to {ctx.years[i]}?"
    derivation = f"{a.surface} -* {_wrap(b.surface)}"
    return _question(uid, text, json_number(a.value - b.value), derivation, "arithmetic", "table", ctx.scale), "parse_error"


SPARSE_MIX = [
    (q_difference, 26),
    (q_change_ratio, 14),
    (q_average, 12),
    (q_sum, 8),
    (q_division, 6),
    (q_table_text, 8),
    (q_count, 10),
    (q_cell_in_table, 4),
    (q_mismatch, 4),
    (q_zero_divisor, 2),
    (q_parse_error, 2),
    (q_unlocatable, 4),
]


def _sparse_shapes(rng: random.Random, n: int):
    return [(*table, 1, _paragraph_count(rng)) for table in _table_shapes(rng, n)]


def sparse_corpus(seed: int, n_contexts: int):
    """One question per context, mostly arithmetic and count.  Returns
    (documents, {qid: planted kind}); kinds other than "answerable" name
    the planted finding."""
    return _corpus("sparse", seed, n_contexts, SPARSE_MIX, _sparse_shapes, 3, 38)


# ---------------------------------------------------------------------------
# eval-multispan: span-heavy gold plus a perturbed predictions file
# ---------------------------------------------------------------------------

SPAN_MIX = [(q_spans, 55), (q_cell_in_table, 30), (q_span_in_text, 15)]


def _perturb(rng: random.Random, answer, scale: str):
    """(predicted answer, predicted scale, expected EM, expected F1 class)."""
    spans = list(answer)
    numeric = [s for s in spans if s.lstrip("$").replace(",", "").replace(".", "").isdigit()]
    options = ["exact"] * 4
    if len(spans) > 1:
        options += ["reorder", "drop", "extra"]
    long_words = [s for s in spans if len(s.split()) >= 3 and s not in numeric]
    if long_words:
        options.append("trim")
    if numeric and any("," in s for s in numeric):
        options.append("render")
    if len(spans) == 1 and numeric:
        options.append("sign")
    if scale in ("thousand", "million") and len(spans) == 1 and numeric:
        options.append("scale")
    kind = rng.choice(options)
    single = spans[0] if len(spans) == 1 else spans
    if kind == "exact":
        return single, scale, 1, "one", kind
    if kind == "reorder":
        return spans[::-1], scale, 1, "one", kind
    if kind == "drop":
        return spans[:-1] if len(spans) > 2 else spans[:1], scale, 0, "partial", kind
    if kind == "extra":
        return spans + ["unrelated disclosure item"], scale, 0, "partial", kind
    if kind == "trim":
        # a partial bag overlap, where F1 differs from precision and recall
        out = [s.rsplit(" ", 1)[0] if s == long_words[0] else s for s in spans]
        return (out[0] if len(out) == 1 else out), scale, 0, "partial", kind
    if kind == "render":
        out = [s.replace(",", "") if s in numeric else s for s in spans]
        return (out[0] if len(out) == 1 else out), scale, 1, "one", kind
    if kind == "sign":
        return "-" + single, scale, 0, "zero", kind
    other = "million" if scale == "thousand" else "thousand"
    return single, other, 0, "zero", kind


def _multispan_shapes(rng: random.Random, n: int):
    return [(rng.randint(3, 5), rng.choice([3, 4]), scale, rng.randint(6, 10), rng.choice([2, 3]))
            for scale in _stratified(rng, SCALE_MIX, n)]


def multispan_corpus(seed: int, n_contexts: int):
    """Span and multi-span gold over small tables, and predictions with
    planted perturbations.  Returns (documents, predictions,
    {qid: (expected EM, F1 class, perturbation)})."""
    docs, _ = _corpus("multispan", seed, n_contexts, SPAN_MIX, _multispan_shapes, 2, 30)
    rng = random.Random(f"perturb-{seed}")
    preds, expect = {}, {}
    for doc in docs:
        for question in doc["questions"]:
            value, scale, em, f1, kind = _perturb(rng, question["answer"], question["scale"])
            preds[question["uid"]] = [value, scale]
            expect[question["uid"]] = (em, f1, kind)
    return docs, preds, expect


def dumps(payload) -> str:
    return json.dumps(payload, indent=1)
