"""Geometric object kinds, their sections, and Medolaghi-form Lie equations.

The catalog is closed.  The infinitesimal equations L(xi)omega = 0 of a
section follow from the object's type alone: one Lie-derivative rule for
covariant tensors (first order) and one for connections (second order), read
off each kind's index layout.  They depend only on the section components and
their first derivatives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import DegenerateSection, InputFormatError, KindMismatch
from .jetcalc import JetVariable, LinearJetEquation, add_term, proportional
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

    ``template`` builds the Medolaghi equations: ``_tensor`` for covariant
    tensors, ``_connection`` for connections, or a kind's own rule.
    ``witness`` maps (components, context) to the nondegeneracy witness; None
    means the kind has no nondegeneracy condition.  ``scaled_constant`` names
    the structure constant that rescales as c/a under the kind's one-parameter
    rescaling (None: no scaling law, no equivalence gate); ``sign_test`` asks
    the gate to compare the witnesses' fixed signs.  ``indices`` is the tensor
    index of each key: (i,) for w_i, (i, j) for w_ij, (k, i, j) for gamma^k_ij.
    Swapping the last two entries of an index keeps the component, or negates
    it when ``antisymmetric``.
    """

    dim: int
    keys: Tuple[str, ...]
    labels: Tuple[str, ...]
    template: Callable[["GeometricSection"], List[LinearJetEquation]]
    witness: Optional[Callable[[Tuple[Expression, ...], Context], Expression]] = None
    extras: Tuple[str, ...] = ()  # extra named expressions a section file may carry
    scaled_constant: Optional[str] = None
    sign_test: bool = False
    indices: Tuple[Tuple[int, ...], ...] = ()
    antisymmetric: bool = False


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
    """The jet variable d xi^k / d x_coords."""
    return JetVariable(k, tuple(coords.count(i) for i in range(1, n + 1)))


def _component_map(sec: GeometricSection) -> Dict[Tuple[int, ...], Expression]:
    """Each component by tensor index, also under its last two entries swapped."""
    spec = sec.kind.spec
    out = dict(zip(spec.indices, sec.components))
    for idx, c in list(out.items()):
        if len(idx) >= 2 and idx[-1] != idx[-2]:
            out[idx[:-2] + (idx[-1], idx[-2])] = -c if spec.antisymmetric else c
    return out


def _tensor(sec: GeometricSection) -> List[LinearJetEquation]:
    """L(xi)w = 0 for a covariant tensor w, one equation per component w_I:
    xi^r d_r w_I + sum_a w_(I with i_a -> r) d_(i_a) xi^r.  An index the
    layout leaves out (the diagonal of a 2-form) reads 0."""
    n = sec.n
    w = _component_map(sec)
    zero = sec.context.zero()
    out = []
    for idx in sec.kind.spec.indices:
        terms: dict = {}
        for r in range(1, n + 1):
            for a, i in enumerate(idx):
                add_term(terms, _jv(r, n, i), w.get(idx[:a] + (r,) + idx[a + 1 :], zero))
            add_term(terms, _jv(r, n), w[idx].diff(r))
        out.append(LinearJetEquation(terms))
    return out


def _connection(sec: GeometricSection) -> List[LinearJetEquation]:
    """L(xi)gamma = 0 for a symmetric connection, one equation per gamma^k_ij:
    xi^k_ij + gamma^k_rj xi^r_i + gamma^k_ir xi^r_j - gamma^r_ij xi^k_r
    + xi^r d_r gamma^k_ij."""
    n = sec.n
    g = _component_map(sec)
    one = sec.context.one()
    out = []
    for k, i, j in sec.kind.spec.indices:
        terms: dict = {}
        add_term(terms, _jv(k, n, i, j), one)
        for r in range(1, n + 1):
            add_term(terms, _jv(r, n, i), g[(k, r, j)])
            add_term(terms, _jv(r, n, j), g[(k, i, r)])
            add_term(terms, _jv(k, n, r), -g[(r, i, j)])
            add_term(terms, _jv(r, n), g[(k, i, j)].diff(r))
        out.append(LinearJetEquation(terms))
    return out


def _product_triple_2d(sec: GeometricSection) -> List[LinearJetEquation]:
    w1, w2, w3 = sec.components
    ctx = sec.context
    one = ctx.one()

    t1: dict = {}
    add_term(t1, _jv(1, 2, 2), one)
    add_term(t1, _jv(2, 2, 2), w1)
    add_term(t1, _jv(1, 2, 1), -w1)
    add_term(t1, _jv(2, 2, 1), -(w1 * w1))
    add_term(t1, _jv(1, 2), w1.diff(1))
    add_term(t1, _jv(2, 2), w1.diff(2))

    t2: dict = {}
    add_term(t2, _jv(2, 2, 1), one)
    add_term(t2, _jv(1, 2, 1), w2)
    add_term(t2, _jv(2, 2, 2), -w2)
    add_term(t2, _jv(1, 2, 2), -(w2 * w2))
    add_term(t2, _jv(1, 2), w2.diff(1))
    add_term(t2, _jv(2, 2), w2.diff(2))

    t3: dict = {}
    add_term(t3, _jv(1, 2, 1), w3)
    add_term(t3, _jv(2, 2, 2), w3)
    add_term(t3, _jv(2, 2, 1), w1 * w3)
    add_term(t3, _jv(1, 2, 2), w2 * w3)
    add_term(t3, _jv(1, 2), w3.diff(1))
    add_term(t3, _jv(2, 2), w3.diff(2))

    return [LinearJetEquation(t1), LinearJetEquation(t2), LinearJetEquation(t3)]


_SPECS = {
    ObjectKind.ONE_FORM_1D: KindSpec(
        1, ("alpha",), ("1",), _tensor,
        witness=lambda c, ctx: c[0],
        extras=("gamma",),
        indices=((1,),),
    ),
    ObjectKind.CHRISTOFFEL_1D: KindSpec(
        1, ("gamma",), ("1",), _connection,
        extras=("nu",),
        indices=((1, 1, 1),),
    ),
    ObjectKind.METRIC_2D: KindSpec(
        2, ("w11", "w22", "w12"), ("11", "22", "12"), _tensor,
        witness=lambda c, ctx: c[0] * c[1] - c[2] * c[2],
        scaled_constant="c1",
        sign_test=True,
        indices=((1, 1), (2, 2), (1, 2)),
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
        _connection,
        indices=((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 1), (2, 1, 2), (2, 2, 2)),
    ),
    ObjectKind.CONTACT_PAIR_3D: KindSpec(
        3,
        ("a1", "a2", "a3", "b23", "b31", "b12"),
        ("a1", "a2", "a3", "b23", "b31", "b12"),
        _tensor,
        witness=lambda c, ctx: c[0] * c[3] + c[1] * c[4] + c[2] * c[5],
        indices=((1,), (2,), (3,), (2, 3), (3, 1), (1, 2)),
        antisymmetric=True,
    ),
}


def same_equations(a: GeometricSection, b: GeometricSection) -> bool:
    """True iff each Medolaghi equation of either section is proportional to
    one of the other's, compared in one context holding both parameter sets."""
    if a.kind is not b.kind or a.n != b.n:
        raise KindMismatch(f"cannot compare {a.kind.value} with {b.kind.value}")
    context = Context(a.n, a.context.params + b.context.params)
    sys_a, sys_b = (
        [
            LinearJetEquation({jv: c.in_context(context) for jv, c in eq.terms.items()})
            for eq in medolaghi_equations(sec)
        ]
        for sec in (a, b)
    )

    def covered(xs, ys) -> bool:
        return all(any(proportional(x, y) for y in ys) for x in xs)

    return covered(sys_a, sys_b) and covered(sys_b, sys_a)


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
    try:
        context = Context(n, params)
    except ValueError as exc:
        raise InputFormatError(f"bad params header: {exc}") from exc

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
