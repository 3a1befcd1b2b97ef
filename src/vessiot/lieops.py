"""Geometric object kinds, their sections, and Medolaghi-form Lie equations.

The catalog is closed: each kind carries a hard-coded first-order (or, for
connection objects, second-order) coefficient template, so the infinitesimal
equations of a section depend only on the section components and their first
derivatives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import DegenerateSection, InputFormatError, KindMismatch
from .jetcalc import JetVariable, LinearJetEquation, mi_bump, mi_zero
from .symexpr import Context, Expression, parse_in


class ObjectKind(enum.Enum):
    ONE_FORM_1D = "ONE_FORM_1D"
    CHRISTOFFEL_1D = "CHRISTOFFEL_1D"
    METRIC_2D = "METRIC_2D"
    PRODUCT_TRIPLE_2D = "PRODUCT_TRIPLE_2D"
    CHRISTOFFEL_2D = "CHRISTOFFEL_2D"
    CONTACT_PAIR_3D = "CONTACT_PAIR_3D"

    @property
    def spec(self) -> "KindSpec":
        return _SPECS[self]


@dataclass(frozen=True)
class KindSpec:
    """Everything the engine knows about one structure kind.

    ``witness`` maps (components, context) to the nondegeneracy witness; None
    means the kind has no nondegeneracy condition.  ``scaled_constant`` names
    the structure constant that rescales as c/a under the kind's one-parameter
    rescaling (None: no scaling law, no equivalence gate); ``sign_test`` asks
    the gate to compare the witness signs at a sample point.
    """

    dim: int
    keys: Tuple[str, ...]
    labels: Tuple[str, ...]
    template: Callable[["GeometricSection"], List[LinearJetEquation]]
    witness: Optional[Callable[[Tuple[Expression, ...], Context], Expression]] = None
    extras: Tuple[str, ...] = ()  # extra named expressions a section file may carry
    scaled_constant: Optional[str] = None
    sign_test: bool = False


@dataclass(frozen=True)
class GeometricSection:
    """A named structure kind plus its component expressions."""

    kind: ObjectKind
    components: Tuple[Expression, ...]
    n: int

    def __post_init__(self):
        spec = self.kind.spec
        if self.n != spec.dim:
            raise ValueError(f"{self.kind.value} lives in dimension {spec.dim}, got n={self.n}")
        if len(self.components) != len(spec.keys):
            raise ValueError(
                f"{self.kind.value} needs {len(spec.keys)} components, got {len(self.components)}"
            )
        ctx = self.components[0].context
        if ctx.n != self.n or any(c.context != ctx for c in self.components):
            raise ValueError("component expressions disagree on context")

    @property
    def context(self) -> Context:
        return self.components[0].context

    def component(self, key: str) -> Expression:
        return self.components[self.kind.spec.keys.index(key)]


def section(kind: ObjectKind, components: Sequence[Expression]) -> GeometricSection:
    return GeometricSection(kind, tuple(components), kind.spec.dim)


def nondegeneracy(sec: GeometricSection) -> Expression:
    """The kind's nondegeneracy witness (not checked for vanishing here)."""
    witness = sec.kind.spec.witness
    if witness is None:
        return sec.context.one()
    return witness(sec.components, sec.context)


def _require_nondegenerate(sec: GeometricSection) -> None:
    if nondegeneracy(sec).is_zero():
        raise DegenerateSection(
            f"nondegeneracy witness of a {sec.kind.value} section is identically zero"
        )


def medolaghi_equations(sec: GeometricSection) -> List[LinearJetEquation]:
    """The infinitesimal Lie equations of the section, one per component label.

    First order for tensorial kinds, second order for connection kinds; the
    coefficients depend only on the section and its first derivatives.
    """
    _require_nondegenerate(sec)
    return sec.kind.spec.template(sec)


def labeled_medolaghi(sec: GeometricSection) -> Dict[str, LinearJetEquation]:
    return dict(zip(sec.kind.spec.labels, medolaghi_equations(sec)))


def _jv(k: int, n: int, *coords: int) -> JetVariable:
    mu = mi_zero(n)
    for i in coords:
        mu = mi_bump(mu, i)
    return JetVariable(k, mu)


def _add(terms: dict, jv: JetVariable, coeff: Expression) -> None:
    if jv in terms:
        terms[jv] = terms[jv] + coeff
    else:
        terms[jv] = coeff


def _one_form_1d(sec: GeometricSection) -> List[LinearJetEquation]:
    alpha = sec.components[0]
    terms: dict = {}
    _add(terms, _jv(1, 1, 1), alpha)
    _add(terms, _jv(1, 1), alpha.diff(1))
    return [LinearJetEquation(terms)]


def _christoffel_1d(sec: GeometricSection) -> List[LinearJetEquation]:
    gamma = sec.components[0]
    ctx = sec.context
    terms: dict = {}
    _add(terms, _jv(1, 1, 1, 1), ctx.one())
    _add(terms, _jv(1, 1, 1), gamma)
    _add(terms, _jv(1, 1), gamma.diff(1))
    return [LinearJetEquation(terms)]


def _metric_2d(sec: GeometricSection) -> List[LinearJetEquation]:
    w = {
        (1, 1): sec.components[0],
        (2, 2): sec.components[1],
        (1, 2): sec.components[2],
        (2, 1): sec.components[2],
    }
    out = []
    for i, j in ((1, 1), (2, 2), (1, 2)):
        terms: dict = {}
        for r in (1, 2):
            _add(terms, _jv(r, 2, i), w[(r, j)])
            _add(terms, _jv(r, 2, j), w[(i, r)])
            _add(terms, _jv(r, 2), w[(i, j)].diff(r))
        out.append(LinearJetEquation(terms))
    return out


def _product_triple_2d(sec: GeometricSection) -> List[LinearJetEquation]:
    w1, w2, w3 = sec.components
    ctx = sec.context
    one = ctx.one()

    t1: dict = {}
    _add(t1, _jv(1, 2, 2), one)
    _add(t1, _jv(2, 2, 2), w1)
    _add(t1, _jv(1, 2, 1), -w1)
    _add(t1, _jv(2, 2, 1), -(w1 * w1))
    _add(t1, _jv(1, 2), w1.diff(1))
    _add(t1, _jv(2, 2), w1.diff(2))

    t2: dict = {}
    _add(t2, _jv(2, 2, 1), one)
    _add(t2, _jv(1, 2, 1), w2)
    _add(t2, _jv(2, 2, 2), -w2)
    _add(t2, _jv(1, 2, 2), -(w2 * w2))
    _add(t2, _jv(1, 2), w2.diff(1))
    _add(t2, _jv(2, 2), w2.diff(2))

    t3: dict = {}
    _add(t3, _jv(1, 2, 1), w3)
    _add(t3, _jv(2, 2, 2), w3)
    _add(t3, _jv(2, 2, 1), w1 * w3)
    _add(t3, _jv(1, 2, 2), w2 * w3)
    _add(t3, _jv(1, 2), w3.diff(1))
    _add(t3, _jv(2, 2), w3.diff(2))

    return [LinearJetEquation(t1), LinearJetEquation(t2), LinearJetEquation(t3)]


# (k, i, j) of gamma^k_ij for each CHRISTOFFEL_2D component, in key order
CHRISTOFFEL_2D_INDICES = ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 1), (2, 1, 2), (2, 2, 2))


def _christoffel_2d(sec: GeometricSection) -> List[LinearJetEquation]:
    g = dict(zip(CHRISTOFFEL_2D_INDICES, sec.components))
    g.update({(k, j, i): v for (k, i, j), v in g.items() if i != j})
    ctx = sec.context
    out = []
    for k in (1, 2):
        for i, j in ((1, 1), (1, 2), (2, 2)):
            terms: dict = {}
            _add(terms, _jv(k, 2, i, j), ctx.one())
            for r in (1, 2):
                _add(terms, _jv(r, 2, i), g[(k, r, j)])
                _add(terms, _jv(r, 2, j), g[(k, i, r)])
                _add(terms, _jv(k, 2, r), -g[(r, i, j)])
                _add(terms, _jv(r, 2), g[(k, i, j)].diff(r))
            out.append(LinearJetEquation(terms))
    return out


def _contact_pair_3d(sec: GeometricSection) -> List[LinearJetEquation]:
    a = {1: sec.components[0], 2: sec.components[1], 3: sec.components[2]}
    b23, b31, b12 = sec.components[3:]
    zero = sec.context.zero()
    b = {
        (2, 3): b23,
        (3, 1): b31,
        (1, 2): b12,
        (3, 2): -b23,
        (1, 3): -b31,
        (2, 1): -b12,
        (1, 1): zero,
        (2, 2): zero,
        (3, 3): zero,
    }
    out = []
    for i in (1, 2, 3):
        terms: dict = {}
        for r in (1, 2, 3):
            _add(terms, _jv(r, 3, i), a[r])
            _add(terms, _jv(r, 3), a[i].diff(r))
        out.append(LinearJetEquation(terms))
    for i, j in ((2, 3), (3, 1), (1, 2)):
        terms = {}
        for r in (1, 2, 3):
            _add(terms, _jv(r, 3, i), b[(r, j)])
            _add(terms, _jv(r, 3, j), b[(i, r)])
            _add(terms, _jv(r, 3), b[(i, j)].diff(r))
        out.append(LinearJetEquation(terms))
    return out


_SPECS = {
    ObjectKind.ONE_FORM_1D: KindSpec(
        1, ("alpha",), ("1",), _one_form_1d,
        witness=lambda c, ctx: c[0],
        extras=("gamma",),
    ),
    ObjectKind.CHRISTOFFEL_1D: KindSpec(
        1, ("gamma",), ("1",), _christoffel_1d,
        extras=("nu",),
    ),
    ObjectKind.METRIC_2D: KindSpec(
        2, ("w11", "w22", "w12"), ("11", "22", "12"), _metric_2d,
        witness=lambda c, ctx: c[0] * c[1] - c[2] * c[2],
        scaled_constant="c1",
        sign_test=True,
    ),
    ObjectKind.PRODUCT_TRIPLE_2D: KindSpec(
        2, ("w1", "w2", "w3"), ("1", "2", "3"), _product_triple_2d,
        witness=lambda c, ctx: c[2] * (ctx.one() - c[0] * c[1]),
        scaled_constant="c",
    ),
    ObjectKind.CHRISTOFFEL_2D: KindSpec(
        2,
        ("g1_11", "g1_12", "g1_22", "g2_11", "g2_12", "g2_22"),
        ("1_11", "1_12", "1_22", "2_11", "2_12", "2_22"),
        _christoffel_2d,
    ),
    ObjectKind.CONTACT_PAIR_3D: KindSpec(
        3,
        ("a1", "a2", "a3", "b23", "b31", "b12"),
        ("a1", "a2", "a3", "b23", "b31", "b12"),
        _contact_pair_3d,
        witness=lambda c, ctx: c[0] * c[3] + c[1] * c[4] + c[2] * c[5],
    ),
}


def same_equations(a: GeometricSection, b: GeometricSection) -> bool:
    """True iff the two Medolaghi systems agree after per-equation normalization."""
    if a.kind is not b.kind or a.n != b.n:
        raise KindMismatch(f"cannot compare {a.kind.value} with {b.kind.value}")
    sys_a = {eq.normalized().canonical_key() for eq in medolaghi_equations(a)}
    sys_b = {eq.normalized().canonical_key() for eq in medolaghi_equations(b)}
    return sys_a == sys_b


# ----------------------------------------------------------------------
# section files
# ----------------------------------------------------------------------


def parse_section_text(text: str) -> Tuple[GeometricSection, Dict[str, Expression]]:
    """Parse a section file: header lines (kind, n, params) plus component lines.

    Returns the section and any extra named expressions the kind admits
    (gamma for a 1D 1-form, nu for a 1D connection).
    """
    entries: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputFormatError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key in entries:
            raise InputFormatError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value

    kind_name = entries.pop("kind", None)
    if kind_name is None:
        raise InputFormatError("missing 'kind' header")
    try:
        kind = ObjectKind(kind_name)
    except ValueError as exc:
        known = ", ".join(k.value for k in ObjectKind)
        raise InputFormatError(f"unknown kind {kind_name!r} (known: {known})") from exc

    spec = kind.spec
    n_text = entries.pop("n", str(spec.dim))
    try:
        n = int(n_text)
    except ValueError as exc:
        raise InputFormatError(f"n must be an integer, got {n_text!r}") from exc
    if n != spec.dim:
        raise InputFormatError(f"{kind.value} requires n = {spec.dim}, file says {n}")

    params_text = entries.pop("params", "")
    params = tuple(p.strip() for p in params_text.split(",") if p.strip())
    context = Context(n, params)

    components = []
    for key in spec.keys:
        if key not in entries:
            raise InputFormatError(f"{kind.value} section is missing component {key!r}")
        components.append(parse_in(entries.pop(key), context))

    extras: Dict[str, Expression] = {}
    for key in spec.extras:
        if key in entries:
            extras[key] = parse_in(entries.pop(key), context)
    if entries:
        raise InputFormatError(f"unexpected keys in section file: {sorted(entries)}")
    return GeometricSection(kind, tuple(components), n), extras


def load_section(path) -> Tuple[GeometricSection, Dict[str, Expression]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_section_text(fh.read())
