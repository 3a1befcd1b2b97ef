"""The fast routes and their references.

``parse_in`` reads an integer polynomial in the scan grammar straight into
packed monomials (``symexpr._scan``) and sends every other text to the
recursive descent ``_Parser``; a metric's curvature record takes K w_ij with
no cancel where K's coprimality carries over (``curvature._coprime_products``).
Both routes must give what the reference gives, and both must stay in use:
the counts below fail when a refactor silently drops a route.
"""

import json
import random
from pathlib import Path

import pytest

from vessiot import symexpr
from vessiot.curvature import Metric2D, _coprime_products
from vessiot.errors import InputTooLarge
from vessiot.lieops import parse_section_text
from vessiot.symexpr import Context, _Parser, _scan, parse_in

ROOT = Path(__file__).resolve().parent.parent
POOL = ROOT / "perfbench" / "corpus" / "pool.json"
CTX = Context(2, ["a"])
NINES = "9" * symexpr.MAX_LITERAL_DIGITS


def outcome(parse, text: str):
    """The canonical pair and factorization of a parse, or its error's type
    and message."""
    try:
        x = parse(text, CTX)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return x.num.terms, x.den.terms, x.factors


def descent(text: str, context: Context):
    return _Parser(text, context).parse()


def assert_parity(text: str) -> None:
    assert outcome(parse_in, text) == outcome(descent, text)


class CountingParser(_Parser):
    built = 0

    def __init__(self, text, context):
        CountingParser.built += 1
        super().__init__(text, context)


@pytest.fixture
def constructions(monkeypatch):
    """A function returning how many ``_Parser`` objects were built so far."""
    monkeypatch.setattr(CountingParser, "built", 0)
    monkeypatch.setattr(symexpr, "_Parser", CountingParser)
    return lambda: CountingParser.built


def component_texts(section: str) -> list:
    """The component values of a section's text, header lines left out."""
    values = []
    for line in section.splitlines():
        line = line.split("#", 1)[0]
        if "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in ("kind", "n", "params"):
                values.append(value)
    return values


def pool_entries(*families: str) -> list:
    entries = json.loads(POOL.read_text(encoding="utf-8"))["sections"]
    return [e for e in entries if e["family"] in families]


class TestBudgetParity:
    """Scan-shaped texts at and just past each budget: the same value, or
    the same exception type and message, as the descent."""

    @pytest.mark.parametrize("text", [
        NINES + "*x1",
        NINES + "9*x1",
        "x1^100",
        "x1^101",
        "x1^1001",
        f"{NINES}*{NINES}*0 + x1",  # the product is past the budget before the 0
        f"{NINES} + {NINES}",  # a sum past 10^1000
        f"{NINES} + {NINES} - {NINES}",  # a sum is held to its value
        "x" * 100_000,
        "٣*x1",  # a non-ASCII digit reads as its value
        "x1^" + "0" * 1000 + "5",
        "-x1 - -x2",
        "x1^2^3",
        "2^3*x1",
        "2 x1",
        "+x1",
        "x1 +",
        "",
    ], ids=lambda text: text if len(text) < 30 else f"{text[:8]}...{text[-8:]}")
    def test_same_outcome_as_the_descent(self, text):
        assert_parity(text)

    def test_degree_budget_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(symexpr, "MAX_TOTAL_DEGREE", 150)
        for text in ("x1^100*x1^100", "x1^100*x1^50", "0*x1^100*x1^100"):
            assert_parity(text)
        with pytest.raises(InputTooLarge, match="total degree 200"):
            parse_in("x1^100*x1^100", CTX)

    def test_scan_declines_every_budget(self):
        for text in (NINES + "9", f"{NINES}*{NINES}*0", f"{NINES} + {NINES}", "x1^101"):
            assert _scan(text, CTX) is None
        assert _scan(f"{NINES} + {NINES} - {NINES}", CTX) is not None


class TestScanAgainstDescent:
    TOKENS = "x1 x2 a 0 1 2 12 + - * ^ ^0 ^2 ( ) / b x3".split()

    def test_random_token_strings(self):
        rng = random.Random(35)
        scanned = 0
        for _ in range(3000):
            sep = rng.choice(["", " "])
            text = sep.join(rng.choice(self.TOKENS) for _ in range(rng.randint(1, 9)))
            scanned += _scan(text, CTX) is not None  # the scan never raises
            assert_parity(text)
        assert scanned > 100


class TestRoutesInUse:
    def test_bundled_sections(self, constructions):
        slashed = 0
        for path in sorted((ROOT / "sections").glob("*.section")):
            text = path.read_text(encoding="utf-8")
            slashed += sum("/" in value for value in component_texts(text))
            parse_section_text(text)
        # the descent only for a component with "/"
        assert slashed and constructions() == slashed

    def test_polynomial_pool_metrics(self, constructions):
        entries = pool_entries("dense_d1", "dense_d2", "dense_d3", "constant_metric")
        assert len(entries) >= 60
        for entry in entries:
            parse_section_text(entry["text"])
        assert constructions() == 0

    @pytest.mark.parametrize("text", [
        "1/x2^2", "(-3/2)/x2^2", "1/(x2 + 5)", "-x1 - -x2", "x1^2^3", "2^3*x1",
    ])
    def test_other_texts_take_the_descent(self, constructions, text):
        parse_in(text, CTX)
        assert constructions() == 1

    def test_metric_products_skip_the_cancel(self):
        for entry in pool_entries("dense_d1", "dense_d2", "dense_d3"):
            assert _coprime_products(Metric2D.from_section(parse_section_text(entry["text"])[0]))
        for entry in pool_entries("half_plane"):
            metric = Metric2D.from_section(parse_section_text(entry["text"])[0])
            assert _coprime_products(metric) is None
