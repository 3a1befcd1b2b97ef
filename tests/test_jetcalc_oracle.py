"""Differential tests of the row jet calculus (``prolong``, ``symbol_dimension``) against sympy.

Small random systems in two coordinates have rational-function coefficients
from ``helpers.random_expression`` on first- and zeroth-order jet variables,
often with one equation whose top-order part combines two others, so that the
symbols lose rank.
Each row that ``prolong`` derives is compared, coefficient by coefficient,
with d_mu(den*E) formed in sympy from the source equation E, and its top-order
part with den times that of ``formal_derivative_multi(E, mu)``.  The generic
symbol dimension of orders 1 and 2 is compared with the rank that sympy gives
(``Matrix.to_DM().rank()``, exact over the rational-function field) to the
top-order parts of the exact ``Expression`` derivatives.  Systems are built
from a seed that hypothesis draws with a fixed derivation (``derandomize``);
without sympy or hypothesis the module is skipped.
"""

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

import random  # noqa: E402

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import bumped, jet_order, random_expression  # noqa: E402
from oracle_support import expr_sympy, oracle_settings, poly_sympy  # noqa: E402
from vessiot.jetcalc import (  # noqa: E402
    JetVariable,
    LinearJetEquation,
    formal_derivative_multi,
    multi_indices,
    prolong,
    symbol_dimension,
)
from vessiot.symexpr import Context  # noqa: E402

CTX = Context(2)
SYMS = sympy.symbols(" ".join(CTX.names))

ORACLE = oracle_settings(30)

seeds = st.integers(0, 2**32)
MUS = [mu for order in (1, 2) for mu in multi_indices(2, order)]
VARIABLES = [JetVariable(k, mu) for k in (1, 2) for order in (0, 1)
             for mu in multi_indices(2, order)]


def random_equation(rng: random.Random) -> LinearJetEquation:
    """A nonzero first-order equation with a few random coefficients."""
    chosen = rng.sample(VARIABLES, rng.randint(1, 4))
    terms = {jv: random_expression(CTX, rng, depth=2) for jv in chosen}
    terms[JetVariable(rng.randint(1, 2), rng.choice(MUS[:2]))] = random_expression(CTX, rng, 1)
    eq = LinearJetEquation(terms)
    return eq if eq.order == 1 else LinearJetEquation({JetVariable(1, (1, 0)): CTX.one()})


def random_system(seed: int) -> list:
    """One to four random equations; often one more whose top-order part is a
    combination f*E1 + g*E2 of the first two, so that the symbols lose rank."""
    rng = random.Random(seed)
    system = [random_equation(rng) for _ in range(rng.randint(1, 4))]
    if len(system) >= 2 and rng.random() < 0.6:
        f, g = (random_expression(CTX, rng, depth=1) for _ in range(2))
        terms = {JetVariable(rng.randint(1, 2), (0, 0)): random_expression(CTX, rng, depth=1)}
        for factor, eq in ((f, system[0]), (g, system[1])):
            for jv, c in eq.terms.items():
                if jet_order(jv, 2) == 1:
                    terms[jv] = terms.get(jv, CTX.zero()) + factor * c
        combined = LinearJetEquation(terms)
        if combined.order == 1:
            system.append(combined)
    return system


def sympy_derivative(terms: dict, mu) -> dict:
    """d_mu of an equation given as {jet variable: sympy coefficient}."""
    for i, e in enumerate(mu, start=1):
        for _ in range(e):
            out: dict = {}
            for jv, c in terms.items():
                out[jv] = out.get(jv, 0) + sympy.diff(c, SYMS[i - 1])
                up = bumped(jv, 2, i)
                out[up] = out.get(up, 0) + c
            terms = out
    return terms


def top_part(eq: LinearJetEquation) -> dict:
    return {jv: c for jv, c in eq.terms.items() if jet_order(jv, 2) == eq.order}


class TestDerivedRows:
    @ORACLE
    @given(seeds)
    def test_rows_are_derivatives_of_the_cleared_equation(self, seed):
        for eq in random_system(seed):
            den = poly_sympy(eq.den, SYMS)
            cleared = {jv: den * expr_sympy(c) for jv, c in eq.terms.items()}
            prolonged = prolong([eq], 2)
            assert prolonged[0] is eq and len(prolonged) == 1 + len(MUS)
            for mu in MUS:
                exact = formal_derivative_multi(eq, mu)
                top = top_part(exact)
                # the top-order support of d_mu E tells which derived row it is
                (row,) = [d for d in prolonged[1:] if top_part(d).keys() == top.keys()]
                assert row.den == eq.den and row.order == exact.order
                wanted = sympy_derivative(cleared, mu)
                assert set(row.row) <= set(wanted)
                for jv, c in wanted.items():
                    got = poly_sympy(row.row[jv], SYMS) if jv in row.row else 0
                    assert sympy.cancel(got - c) == 0
                for jv, c in top.items():
                    assert sympy.cancel(poly_sympy(row.row[jv], SYMS) - den * expr_sympy(c)) == 0


class TestGenericSymbolDimension:
    @ORACLE
    @given(seeds, st.sampled_from([1, 2]))
    def test_matches_rank_of_exact_derivatives(self, seed, q):
        system = random_system(seed)
        prolonged = prolong(system, q - 1)
        at_q = [eq for eq in prolonged if eq.order == q]
        got = symbol_dimension(at_q, q, generic=True)
        columns = [JetVariable(k, mu) for k in (1, 2) for mu in multi_indices(2, q)]
        mus = multi_indices(2, q - 1)
        rows = [formal_derivative_multi(eq, mu) for eq in system for mu in mus]
        matrix = sympy.Matrix(
            [[expr_sympy(d.terms[jv]) if jv in d.terms else 0 for jv in columns] for d in rows]
        )
        expected = len(columns) - matrix.to_DM().rank()
        assert got == expected
