"""Riemannian chain for 2-dimensional charts.

Christoffel symbols, Riemann and Ricci tensors, the antisymmetric/symmetric
Ricci split specific to n = 2, the constant-curvature structure report, and
the flatness residual for standalone symmetric connections.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

from .errors import DegenerateMetric, NotProportional
from .lieops import GeometricSection, ObjectKind
from .reports import StructureReport
from .symexpr import Context, Expression

IJ = ((1, 1), (2, 2), (1, 2))


@dataclass(frozen=True)
class Metric2D:
    """Symmetric 2x2 metric with exact rational-function components."""

    w11: Expression
    w22: Expression
    w12: Expression

    @classmethod
    def from_section(cls, sec: GeometricSection) -> "Metric2D":
        if sec.kind is not ObjectKind.METRIC_2D:
            raise ValueError("expected a METRIC_2D section")
        return cls(*sec.components)

    @property
    def context(self) -> Context:
        return self.w11.context

    def component(self, i: int, j: int) -> Expression:
        if i == j:
            return self.w11 if i == 1 else self.w22
        return self.w12

    def det(self) -> Expression:
        """det(w), computed once per metric."""
        return self._det

    @cached_property
    def _det(self) -> Expression:
        return self.w11 * self.w22 - self.w12 * self.w12

    def inverse_component(self, i: int, j: int) -> Expression:
        det = self.det()
        if det.is_zero():
            raise DegenerateMetric("det(w) is identically zero")
        if i == j:
            return (self.w22 if i == 1 else self.w11) / det
        return -self.w12 / det

    def scaled(self, factor: Expression) -> "Metric2D":
        return Metric2D(self.w11 * factor, self.w22 * factor, self.w12 * factor)


@dataclass(frozen=True)
class Connection2D:
    """Symmetric connection gamma^k_ij on a 2-dimensional chart (6 components)."""

    components: Dict[Tuple[int, int, int], Expression]

    def __post_init__(self):
        for k in (1, 2):
            for i, j in IJ:
                if (k, i, j) not in self.components:
                    raise ValueError(f"missing connection component ({k},{i},{j})")

    @classmethod
    def from_section(cls, sec: GeometricSection) -> "Connection2D":
        if sec.kind is not ObjectKind.CHRISTOFFEL_2D:
            raise ValueError("expected a CHRISTOFFEL_2D section")
        c = sec.components
        return cls(
            {
                (1, 1, 1): c[0],
                (1, 1, 2): c[1],
                (1, 2, 2): c[2],
                (2, 1, 1): c[3],
                (2, 1, 2): c[4],
                (2, 2, 2): c[5],
            }
        )

    @property
    def context(self) -> Context:
        return self.components[(1, 1, 1)].context

    def gamma(self, k: int, i: int, j: int) -> Expression:
        if (k, i, j) in self.components:
            return self.components[(k, i, j)]
        return self.components[(k, j, i)]


@dataclass(frozen=True)
class CurvatureData:
    """Riemann components rho^k_{l,ij}, Ricci, and its antisymmetric/symmetric split."""

    riemann: Dict[Tuple[int, int, int, int], Expression]  # (k, l, i, j), i < j stored
    ricci: Dict[Tuple[int, int], Expression]
    phi_12: Expression
    sym: Dict[Tuple[int, int], Expression]

    def riemann_component(self, k: int, l: int, i: int, j: int) -> Expression:
        if i == j:
            return self.phi_12.context.zero()
        if i < j:
            return self.riemann[(k, l, i, j)]
        return -self.riemann[(k, l, j, i)]

    def is_flat(self) -> bool:
        return all(c.is_zero() for c in self.riemann.values())

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "riemann": {
                f"r{k}_{l},{i}{j}": str(c)
                for (k, l, i, j), c in sorted(self.riemann.items())
            },
            "ricci": {f"r{i}{j}": str(c) for (i, j), c in sorted(self.ricci.items())},
            "phi_12": str(self.phi_12),
            "sym": {f"s{i}{j}": str(c) for (i, j), c in sorted(self.sym.items())},
        }


def christoffel(metric: Metric2D) -> Connection2D:
    """Levi-Civita connection gamma^k_ij = (1/2) w^{kr} (d_i w_rj + d_j w_ir - d_r w_ij)."""
    det = metric.det()
    if det.is_zero():
        raise DegenerateMetric("det(w) is identically zero")
    ctx = metric.context
    half = ctx.rational("1/2")
    out: Dict[Tuple[int, int, int], Expression] = {}
    for k in (1, 2):
        for i, j in IJ:
            total = ctx.zero()
            for r in (1, 2):
                inner = (
                    metric.component(r, j).diff(i)
                    + metric.component(i, r).diff(j)
                    - metric.component(i, j).diff(r)
                )
                total = total + metric.inverse_component(k, r) * inner
            out[(k, i, j)] = half * total
    return Connection2D(out)


def riemann(conn: Connection2D) -> CurvatureData:
    """Curvature of a symmetric connection.

    rho^k_{l,ij} = d_i g^k_lj - d_j g^k_li + g^r_lj g^k_ri - g^r_li g^k_rj,
    Ricci rho_ij = rho^r_{i,rj}, and the n = 2 split (phi, sym) of Ricci.
    """
    ctx = conn.context

    def rho(k: int, l: int, i: int, j: int) -> Expression:
        total = conn.gamma(k, l, j).diff(i) - conn.gamma(k, l, i).diff(j)
        for r in (1, 2):
            total = total + conn.gamma(r, l, j) * conn.gamma(k, r, i)
            total = total - conn.gamma(r, l, i) * conn.gamma(k, r, j)
        return total

    riem = {(k, l, 1, 2): rho(k, l, 1, 2) for k in (1, 2) for l in (1, 2)}

    def rho_any(k, l, i, j):
        if i == j:
            return ctx.zero()
        return riem[(k, l, 1, 2)] if (i, j) == (1, 2) else -riem[(k, l, 1, 2)]

    ricci = {
        (i, j): rho_any(1, i, 1, j) + rho_any(2, i, 2, j)
        for i in (1, 2)
        for j in (1, 2)
    }
    phi_12 = ricci[(1, 2)] - ricci[(2, 1)]
    half = ctx.rational("1/2")
    sym = {
        (1, 1): ricci[(1, 1)],
        (2, 2): ricci[(2, 2)],
        (1, 2): half * (ricci[(1, 2)] + ricci[(2, 1)]),
    }
    return CurvatureData(riemann=riem, ricci=ricci, phi_12=phi_12, sym=sym)


def metric_constants(metric: Metric2D) -> StructureReport:
    """Structure report of a 2D metric through the Levi-Civita chain.

    c1 is the constant-curvature quotient sym(Ricci) = c1 * w; c2 multiplies
    det(w)^(1/2) against phi_12/2 and is forced to 0 because the Levi-Civita
    connection makes phi vanish identically (checked, not assumed).
    """
    det = metric.det()
    if det.is_zero():
        raise DegenerateMetric("det(w) is identically zero")
    ctx = metric.context
    data = riemann(christoffel(metric))

    quotient: Optional[Expression] = None
    for i, j in IJ:
        w = metric.component(i, j)
        if not w.is_zero():
            quotient = data.sym[(i, j)] / w
            break
    if quotient is None:
        raise DegenerateMetric("metric has no nonzero component")
    for i, j in IJ:
        if not (data.sym[(i, j)] - quotient * metric.component(i, j)).is_zero():
            raise NotProportional(
                "symmetric Ricci part is not a multiple of the metric"
            )

    if not data.phi_12.is_zero():
        # unreachable through the Levi-Civita pipeline; kept as a hard check
        raise NotProportional("antisymmetric Ricci part does not vanish")

    if quotient.is_constant():
        return StructureReport(
            kind=ObjectKind.METRIC_2D.value,
            constants={"c1": quotient, "c2": ctx.zero()},
            jacobi_residuals=[],
            integrable=True,
        )
    return StructureReport(
        kind=ObjectKind.METRIC_2D.value,
        constants={},
        jacobi_residuals=[],
        integrable=False,
        residual=quotient,
    )


def affine_flatness(conn: Connection2D) -> CurvatureData:
    """Curvature residual of a standalone connection.

    The connection admits local affine coordinates iff every component is
    zero; these are the structure equations of the affine pseudogroup, which
    carry no constants.
    """
    return riemann(conn)


def antisymmetric_constant_squared(conn: Connection2D, metric: Metric2D) -> Expression:
    """c2^2 for a connection taken independently of the metric, radical-free.

    From phi_12/2 = c2 * det(w)^(1/2): returns phi_12^2 / (4 det(w)), which
    equals c2^2 whenever it is constant.  Identically zero for Levi-Civita
    connections.
    """
    det = metric.det()
    if det.is_zero():
        raise DegenerateMetric("det(w) is identically zero")
    phi = riemann(conn).phi_12
    four = metric.context.rational(4)
    return (phi * phi) / (four * det)
