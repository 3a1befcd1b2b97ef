"""Riemannian chain for 2-dimensional charts.

Christoffel symbols, Riemann and Ricci tensors, the antisymmetric/symmetric
Ricci split specific to n = 2, the constant-curvature structure report, and
the flatness residual for standalone symmetric connections.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .errors import DegenerateMetric, NotProportional
from .lieops import GeometricSection, ObjectKind
from .reports import StructureReport
from .symexpr import Context, Expression, common_denominator

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

    def curvature(self) -> "CurvatureData":
        """Curvature of the Levi-Civita connection, computed once per metric."""
        return self._curvature

    @cached_property
    def _curvature(self) -> "CurvatureData":
        return riemann(christoffel(self))

    def inverse_component(self, i: int, j: int) -> Expression:
        det = self.det()
        if det.is_zero():
            raise DegenerateMetric("det(w) is identically zero")
        if i == j:
            return (self.w22 if i == 1 else self.w11) / det
        return -self.w12 / det


class Connection2D:
    """Symmetric connection gamma^k_ij on a 2-dimensional chart (6 components).

    Given by its components, or (``christoffel``) by ``over`` = (E, G), kernel
    polynomials G^k_ij over one denominator E; either is built from the other
    when first read, so the six quotients G/E are reduced only on demand."""

    def __init__(self, components=None, *, context: Optional[Context] = None, over=None):
        if over is not None:
            self.context, self.over = context, over
            return
        for k in (1, 2):
            for i, j in IJ:
                if (k, i, j) not in components:
                    raise ValueError(f"missing connection component ({k},{i},{j})")
        self.components = components
        self.context = components[(1, 1, 1)].context

    @classmethod
    def from_section(cls, sec: GeometricSection) -> "Connection2D":
        if sec.kind is not ObjectKind.CHRISTOFFEL_2D:
            raise ValueError("expected a CHRISTOFFEL_2D section")
        return cls(dict(zip(ObjectKind.CHRISTOFFEL_2D.spec.indices, sec.components)))

    @cached_property
    def components(self) -> Dict[Tuple[int, int, int], Expression]:
        e, numer = self.over
        return {key: Expression(self.context, g, e) for key, g in numer.items()}

    @cached_property
    def over(self) -> tuple:
        e, scaled = common_denominator(self.components.values())
        return e, dict(zip(self.components, scaled))

    def gamma(self, k: int, i: int, j: int) -> Expression:
        return self.components[(k, min(i, j), max(i, j))]


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

    def residual_lines(self) -> List[str]:
        """``rk_l,ij = value`` for each nonzero Riemann component, in key order."""
        return [
            f"r{k}_{l},{i}{j} = {c}"
            for (k, l, i, j), c in sorted(self.riemann.items())
            if not c.is_zero()
        ]

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
    """Levi-Civita connection gamma^k_ij = (1/2) w^{kr} (d_i w_rj + d_j w_ir - d_r w_ij).

    With the metric over its common denominator d, w = W/d, every component
    is G^k_ij / E over the one designed denominator E = 2 det(W) d, where
    G^k_ij = sum_r adj(W)^{kr} N_rij and
    N_rij = d (d_i W_rj + d_j W_ir - d_r W_ij) - (W_rj d_i d + W_ir d_j d - W_ij d_r d).
    All of it is polynomial arithmetic: no gcd and no division.
    """
    d, (w11, w22, w12) = common_denominator((metric.w11, metric.w22, metric.w12))
    det = w11 * w22 - w12 * w12
    if det.is_zero():
        raise DegenerateMetric("det(w) is identically zero")
    W = {(1, 1): w11, (2, 2): w22, (1, 2): w12, (2, 1): w12}
    dd = {i: d.diff(i - 1) for i in (1, 2)}
    numer = {
        (r, i, j): d * (W[r, j].diff(i - 1) + W[i, r].diff(j - 1) - W[i, j].diff(r - 1))
        - (W[r, j] * dd[i] + W[i, r] * dd[j] - W[i, j] * dd[r])
        for r in (1, 2)
        for i, j in IJ
    }
    adj = {(1, 1): w22, (2, 2): w11, (1, 2): -w12, (2, 1): -w12}
    e = det * d
    return Connection2D(context=metric.context, over=(e + e, {
        (k, i, j): adj[k, 1] * numer[1, i, j] + adj[k, 2] * numer[2, i, j]
        for k in (1, 2)
        for i, j in IJ
    }))


def riemann(conn: Connection2D) -> CurvatureData:
    """Curvature of a symmetric connection.

    rho^k_{l,ij} = d_i g^k_lj - d_j g^k_li + g^r_lj g^k_ri - g^r_li g^k_rj,
    Ricci rho_ij = rho^r_{i,rj}, and the n = 2 split (phi, sym) of Ricci.
    Over the connection's pair (e, G) = ``conn.over``, all polynomial,
    e^2 rho^k_{l,ij} = (d_i G^k_lj - d_j G^k_li) e - G^k_lj d_i e + G^k_li d_j e
    + G^r_lj G^k_ri - G^r_li G^k_rj, and only the division by e^2 reduces.
    """
    e, numer = conn.over
    de = {i: e.diff(i - 1) for i in (1, 2)}
    e2 = e * e
    G = {**numer, **{(k, j, i): g for (k, i, j), g in numer.items()}}

    def rho(k: int, l: int, i: int, j: int) -> Expression:
        a, b = G[k, l, j], G[k, l, i]
        total = (a.diff(i - 1) - b.diff(j - 1)) * e - a * de[i] + b * de[j]
        for r in (1, 2):
            total = total + G[r, l, j] * G[k, r, i] - G[r, l, i] * G[k, r, j]
        return Expression(conn.context, total, e2)

    riem = {(k, l, 1, 2): rho(k, l, 1, 2) for k in (1, 2) for l in (1, 2)}

    # rho^k_{l,ii} = 0, so each Ricci component is one stored component
    ricci = {
        (1, 1): -riem[(2, 1, 1, 2)],
        (1, 2): riem[(1, 1, 1, 2)],
        (2, 1): -riem[(2, 2, 1, 2)],
        (2, 2): riem[(1, 2, 1, 2)],
    }
    phi_12 = ricci[(1, 2)] - ricci[(2, 1)]
    half = conn.context.rational("1/2")
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
    ctx = metric.context
    data = metric.curvature()

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
