"""Riemannian chain for 2-dimensional charts.

Christoffel symbols, Riemann and Ricci tensors, the antisymmetric/symmetric
Ricci split specific to n = 2, and the constant-curvature structure report,
read off one Riemann component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Dict, List, Optional, Tuple

from .errors import DegenerateMetric
from .lieops import GeometricSection, ObjectKind
from .reports import StructureReport
from .symexpr import Context, Expression, common_denominator, curl_numerator

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

    @cached_property
    def levi_civita(self) -> "Connection2D":
        """The Levi-Civita connection, computed once per metric."""
        return christoffel(self)

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

    @cached_property
    def _riemann_numerators(self) -> tuple:
        """(e^2, rho): rho(k, l) is the kernel numerator of rho^k_{l,12} over e^2.

        Over the pair (e, G) = ``over``, e^2 rho^k_{l,12} is the curl of G^k_l2
        and G^k_l1 plus G^r_l2 G^k_r1 - G^r_l1 G^k_r2, all polynomial.  e^2,
        d e, G and each rho are formed at most once per connection, however
        many callers read them.
        """
        e, numer = self.over
        de = (e.diff(0), e.diff(1))
        G = {**numer, **{(k, j, i): g for (k, i, j), g in numer.items()}}

        @cache
        def rho(k: int, l: int):
            total = curl_numerator(e, de, G[k, l, 2], 0, G[k, l, 1], 1)
            for r in (1, 2):
                total = total + G[r, l, 2] * G[k, r, 1] - G[r, l, 1] * G[k, r, 2]
            return total

        return e * e, rho


@dataclass(frozen=True)
class CurvatureData:
    """Riemann components rho^k_{l,ij}, Ricci, and its antisymmetric/symmetric split."""

    riemann: Dict[Tuple[int, int, int, int], Expression]  # (k, l, i, j), i < j stored
    ricci: Dict[Tuple[int, int], Expression]
    phi_12: Expression
    sym: Dict[Tuple[int, int], Expression]

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
    Each stored rho^k_{l,12} is one kernel numerator over e^2, reduced once.
    """
    e2, rho = conn._riemann_numerators
    riem = {
        (k, l, 1, 2): Expression(conn.context, rho(k, l), e2) for k in (1, 2) for l in (1, 2)
    }

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

    In 2D the Levi-Civita curvature is rho^k_{l,ij} = K (delta^k_i w_lj -
    delta^k_j w_li) (Gauss), so rho^2_{1,12} = -K w11, rho^1_{2,12} = K w22
    and rho^1_{1,12} = K w12.  c1 = K is the quotient for the first nonzero
    w_ij in IJ order: one numerator over e^2 and one reduction.  c2 multiplies
    det(w)^(1/2) against phi_12/2, and phi_12 vanishes identically for the
    Levi-Civita connection, so c2 = 0.
    """
    ctx = metric.context
    # christoffel raises DegenerateMetric first, so some w_ij below is nonzero
    e2, rho = metric.levi_civita._riemann_numerators
    for (k, l), w in (((2, 1), -metric.w11), ((1, 2), metric.w22), ((1, 1), metric.w12)):
        if not w.is_zero():
            break
    quotient = Expression(ctx, rho(k, l) * w.den, e2 * w.num)

    integrable = quotient.is_constant()
    return StructureReport(
        kind=ObjectKind.METRIC_2D.value,
        constants={"c1": quotient, "c2": ctx.zero()} if integrable else {},
        integrable=integrable,
        residual=None if integrable else quotient,
    )
