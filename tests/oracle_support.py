"""Scaffolding shared by the sympy oracle tests.

Only the ``test_*_oracle`` modules import it, after their ``importorskip``
of sympy and hypothesis; each keeps its own ``max_examples``.
"""

import sympy
from hypothesis import Phase, settings

from helpers import unpacked


def oracle_settings(max_examples: int) -> settings:
    """Derandomized settings that never shrink: a failing example reports at
    once instead of after minutes of sympy calls on ever smaller candidates."""
    return settings(
        max_examples=max_examples, derandomize=True, database=None, deadline=None,
        phases=(Phase.explicit, Phase.generate),
    )


def poly_sympy(p, syms):
    """A kernel polynomial as a sympy expression, one symbol per slot."""
    return sympy.Add(
        *(c * sympy.Mul(*(s**e for s, e in zip(syms, m))) for m, c in unpacked(p, len(syms)))
    )


def expr_sympy(e):
    """An Expression as a sympy quotient in the symbols of its context."""
    syms = sympy.symbols(e.context.names)
    return poly_sympy(e.num, syms) / poly_sympy(e.den, syms)
