"""Riemannian chain for 2-dimensional charts.

Christoffel symbols, Riemann and Ricci tensors, the antisymmetric/symmetric
Ricci split specific to n = 2, and the constant-curvature structure report.
A metric is cleared once (``Metric2D.cleared``); its Gauss curvature K, one
cancel on that data, fixes its structure report and its curvature record.
The Christoffel -> Riemann chain serves connections and checks the record.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import DegenerateMetric, KindMismatch
from .lieops import GeometricSection, ObjectKind
from .reports import StructureReport
from .symexpr import (
    Context, Expression, _cancel, _from_reduced, _is_unit_poly, _pconst, _Poly,
    common_denominator, curl_numerator,
)

IJ = ((1, 1), (2, 2), (1, 2))


class ClearedMetric(NamedTuple):
    """A metric w = W/d over the common denominator d of its components.

    ``N[p, i, j]`` = 2 d^2 Gamma_{p,ij}, the first-kind Christoffel symbols
    Gamma_{p,ij} = (1/2)(d_i w_pj + d_j w_ip - d_p w_ij) cleared of d^2:
    N_pij = d (d_i W_pj + d_j W_ip - d_p W_ij) - (W_pj d_i d + W_ip d_j d - W_ij d_p d).
    All kernel polynomials, formed with no gcd and no division.
    """

    d: _Poly
    dd: Tuple[_Poly, _Poly]  # (d_1 d, d_2 d)
    det: _Poly  # det(W)
    adj: Dict[Tuple[int, int], _Poly]  # adj(W), so w^{-1} = d adj(W) / det(W)
    N: Dict[Tuple[int, int, int], _Poly]  # (p, i, j), i <= j


class Metric2D:
    """Symmetric 2x2 metric with exact rational-function components."""

    def __init__(self, w11: Expression, w22: Expression, w12: Expression):
        self.w11, self.w22, self.w12 = w11, w22, w12

    @classmethod
    def from_section(cls, sec: GeometricSection) -> "Metric2D":
        if sec.kind is not ObjectKind.METRIC_2D:
            raise KindMismatch("expected a METRIC_2D section")
        return cls(*sec.components)

    @property
    def context(self) -> Context:
        return self.w11.context

    def component(self, i: int, j: int) -> Expression:
        if i == j:
            return self.w11 if i == 1 else self.w22
        return self.w12

    @cached_property
    def det(self) -> Expression:
        """det(w) = det(W) / d^2 from the cleared metric, formed once per
        metric with one cancel; DegenerateMetric where it vanishes."""
        cleared = self.cleared
        return Expression(self.context, cleared.det, cleared.d * cleared.d)

    @cached_property
    def cleared(self) -> ClearedMetric:
        """The metric over its common denominator, formed once per metric.
        Each W component is differentiated once per variable, and N reads
        its partials from that table."""
        d, (w11, w22, w12) = common_denominator((self.w11, self.w22, self.w12))
        det = w11 * w22 - w12 * w12
        if det.is_zero():
            raise DegenerateMetric("det(w) is identically zero")
        W = {(1, 1): w11, (2, 2): w22, (1, 2): w12, (2, 1): w12}
        dW = {ij: (W[ij].diff(0), W[ij].diff(1)) for ij in IJ}  # dW[i, j][s] = d_{s+1} W_ij
        dW[2, 1] = dW[1, 2]
        dd = (d.diff(0), d.diff(1))
        N = {
            (p, i, j): d * (dW[p, j][i - 1] + dW[i, p][j - 1] - dW[i, j][p - 1])
            - (W[p, j] * dd[i - 1] + W[i, p] * dd[j - 1] - W[i, j] * dd[p - 1])
            for p in (1, 2)
            for i, j in IJ
        }
        adj = {(1, 1): w22, (2, 2): w11, (1, 2): -w12, (2, 1): -w12}
        return ClearedMetric(d, dd, det, adj, N)

    @cached_property
    def gauss_curvature(self) -> Expression:
        """K = R_1212 / det(w), the Gauss curvature, formed once per metric.

        In first-kind symbols (Brioschi's formula),

            R_1212 = d_2 Gamma_{2,11} - d_1 Gamma_{2,12}
                     + w^{pq} (Gamma_{p,12} Gamma_{q,12} - Gamma_{p,11} Gamma_{q,22}).

        Over the cleared metric, Gamma = N / (2 d^2) and w^{-1} = d adj(W) / det(W),
        so K = P / (4 d det(W)^2) with

            P = 2 det(W) C + sum_{p,q} adj(W)^{pq} (N_p12 N_q12 - N_p11 N_q22),

        where C = 2 d^3 (d_2 Gamma_{2,11} - d_1 Gamma_{2,12}) is the curl of
        N_211 and N_212 over d, taken with d_s(d^2) = d (2 d_s d).  That is
        kernel arithmetic and one cancel; no connection is built.  Every
        irreducible factor of the denominator divides d det(W), so a nonzero
        P coprime to that smaller product is stored over 4 d det(W)^2 as it
        is; otherwise the pair is cancelled in full.
        """
        d, dd, det, adj, N = self.cleared
        curl = curl_numerator(d, (dd[0] + dd[0], dd[1] + dd[1]), N[2, 1, 1], 1, N[2, 1, 2], 0)
        # the sum over p, q, with adj(W) symmetric
        cross = N[1, 1, 2] * N[2, 1, 2]
        quadratic = (
            adj[1, 1] * (N[1, 1, 2] * N[1, 1, 2] - N[1, 1, 1] * N[1, 2, 2])
            + adj[2, 2] * (N[2, 1, 2] * N[2, 1, 2] - N[2, 1, 1] * N[2, 2, 2])
            + adj[1, 2] * (cross + cross - N[1, 1, 1] * N[2, 2, 2] - N[2, 1, 1] * N[1, 2, 2])
        )
        numerator, radical = (det + det) * curl + quadratic, d * det
        denominator = _pconst(4) * radical * det
        if numerator.terms and _is_unit_poly(_cancel(numerator, radical)[2]):
            return _from_reduced(self.context, numerator, denominator)
        return Expression(self.context, numerator, denominator)

    # no engine caller; it stays because perfbench/tracer.py wraps it (curvature.inverse_component)
    def inverse_component(self, i: int, j: int) -> Expression:
        det = self.det
        if i == j:
            return (self.w22 if i == 1 else self.w11) / det
        return -self.w12 / det


class Connection2D:
    """Symmetric connection gamma^k_ij on a 2-dimensional chart, given by its
    six components, keyed (k, i, j) with i <= j."""

    def __init__(self, components: Dict[Tuple[int, int, int], Expression]):
        for k in (1, 2):
            for i, j in IJ:
                if (k, i, j) not in components:
                    raise ValueError(f"missing connection component ({k},{i},{j})")
        self.components = components
        self.context = components[(1, 1, 1)].context

    @classmethod
    def from_section(cls, sec: GeometricSection) -> "Connection2D":
        if sec.kind is not ObjectKind.CHRISTOFFEL_2D:
            raise KindMismatch("expected a CHRISTOFFEL_2D section")
        return cls(dict(zip(ObjectKind.CHRISTOFFEL_2D.spec.indices, sec.components)))

    def gamma(self, k: int, i: int, j: int) -> Expression:
        return self.components[(k, min(i, j), max(i, j))]


class CurvatureData(NamedTuple):
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
        """The record as strings, each distinct Expression object rendered
        once and each distinct kernel polynomial printed once
        (``Expression.render``): a metric's Ricci and sym entries are its
        K w_ij products, which share K's denominator with their negations,
        and a connection's Ricci entries reuse its Riemann components."""
        rendered: Dict[int, str] = {}
        printed: Dict[int, str] = {}

        def text(c: Expression) -> str:
            s = rendered.get(id(c))
            if s is None:
                s = rendered[id(c)] = c.render(printed)
            return s

        return {
            "riemann": {
                f"r{k}_{l},{i}{j}": text(c)
                for (k, l, i, j), c in sorted(self.riemann.items())
            },
            "ricci": {f"r{i}{j}": text(c) for (i, j), c in sorted(self.ricci.items())},
            "phi_12": text(self.phi_12),
            "sym": {f"s{i}{j}": text(c) for (i, j), c in sorted(self.sym.items())},
        }


def christoffel(metric: Metric2D) -> Connection2D:
    """Levi-Civita connection gamma^k_ij = (1/2) w^{kr} (d_i w_rj + d_j w_ir - d_r w_ij).

    Over the cleared metric w = W/d (``Metric2D.cleared``), every component
    is G^k_ij / E with E = 2 det(W) d and G^k_ij = sum_r adj(W)^{kr} N_rij,
    both polynomial; each quotient G/E is reduced with one cancel.
    """
    d, _, det, adj, N = metric.cleared
    e = det * d
    e = e + e
    return Connection2D({
        (k, i, j): Expression(metric.context, adj[k, 1] * N[1, i, j] + adj[k, 2] * N[2, i, j], e)
        for k in (1, 2)
        for i, j in IJ
    })


def riemann(source: Connection2D | Metric2D) -> CurvatureData:
    """Curvature of a symmetric connection, or of a metric's Levi-Civita connection.

    rho^k_{l,ij} = d_i g^k_lj - d_j g^k_li + g^r_lj g^k_ri - g^r_li g^k_rj,
    Ricci rho_ij = rho^r_{i,rj}, and the n = 2 split (phi, sym) of Ricci.
    With every g^k_ij = G^k_ij / e over one common denominator e, formed
    once per call, e^2 rho^k_{l,12} is the curl of
    G^k_l2 and G^k_l1 plus G^r_l2 G^k_r1 - G^r_l1 G^k_r2, all polynomial, so
    each stored rho^k_{l,12} is one kernel numerator over e^2, reduced once.
    A metric builds no connection: by Gauss, rho^k_{l,ij} = K (delta^k_i w_lj -
    delta^k_j w_li), K = ``Metric2D.gauss_curvature``, so the three products
    K w11, K w22 and K w12, each formed once, make the whole record:
    rho^1_{1,12} = K w12, rho^1_{2,12} = K w22, rho^2_{1,12} = -K w11,
    rho^2_{2,12} = -K w12, Ricci rho_ij = K w_ij (rho_12 and rho_21 one
    object), phi_12 = 0 and sym = Ricci.  The products run no cancel when
    K's coprimality carries over to them (``_coprime_products``).
    """
    if isinstance(source, Metric2D):
        k = source.gauss_curvature
        kw11, kw22, kw12 = _coprime_products(source) or [
            k * w for w in (source.w11, source.w22, source.w12)
        ]
        riem = {(1, 1, 1, 2): kw12, (1, 2, 1, 2): kw22, (2, 1, 1, 2): -kw11, (2, 2, 1, 2): -kw12}
        ricci = {(1, 1): kw11, (1, 2): kw12, (2, 1): kw12, (2, 2): kw22}
        sym = {(1, 1): kw11, (2, 2): kw22, (1, 2): kw12}
        return CurvatureData(riemann=riem, ricci=ricci, phi_12=source.context.zero(), sym=sym)

    e, scaled = common_denominator(source.components.values())
    numer = dict(zip(source.components, scaled))
    de = (e.diff(0), e.diff(1))
    G = {**numer, **{(k, j, i): g for (k, i, j), g in numer.items()}}

    def rho(k: int, l: int):
        total = curl_numerator(e, de, G[k, l, 2], 0, G[k, l, 1], 1)
        for r in (1, 2):
            total = total + G[r, l, 2] * G[k, r, 1] - G[r, l, 1] * G[k, r, 2]
        return total

    e2 = e * e
    riem = {(k, l, 1, 2): Expression(source.context, rho(k, l), e2)
            for k in (1, 2) for l in (1, 2)}

    # rho^k_{l,ii} = 0, so each Ricci component is one stored component
    ricci = {
        (1, 1): -riem[(2, 1, 1, 2)],
        (1, 2): riem[(1, 1, 1, 2)],
        (2, 1): -riem[(2, 2, 1, 2)],
        (2, 2): riem[(1, 2, 1, 2)],
    }
    phi_12 = ricci[(1, 2)] - ricci[(2, 1)]
    # (rho_12 + rho_21)/2, written so that phi_12 = 0 (Levi-Civita) costs no gcd
    sym = {
        (1, 1): ricci[(1, 1)],
        (2, 2): ricci[(2, 2)],
        (1, 2): ricci[(2, 1)] + source.context.rational("1/2") * phi_12,
    }
    return CurvatureData(riemann=riem, ricci=ricci, phi_12=phi_12, sym=sym)


def _coprime_products(metric: Metric2D) -> Optional[List[Expression]]:
    """K w11, K w22 and K w12 formed with no cancel, when K's coprimality
    carries over to them; None otherwise.

    That is the case for a polynomial metric (d = 1) with gcd(W11, W12) =
    gcd(W22, W12) = 1.  Then each W_ij is coprime to det(W) = W11 W22 - W12^2:
    an irreducible factor of det(W) divides W11 or W22 only if it divides
    W12, and divides W12 only if it divides W11 or W22.  K's reduced
    denominator divides 4 det(W)^2 (``Metric2D.gauss_curvature``) and is
    coprime to K's numerator, so the pair (num(K) W_ij, den(K)) is reduced
    as it stands.  A rational metric, or a shared factor (w12 = 0 with a
    nonconstant w11 or w22 among them), declines.
    """
    k = metric.gauss_curvature
    w11, w22, w12 = metric.w11.num, metric.w22.num, metric.w12.num
    if not (_is_unit_poly(metric.cleared.d) and _is_unit_poly(_cancel(w11, w12)[2])
            and _is_unit_poly(_cancel(w22, w12)[2])):
        return None
    return [_from_reduced(metric.context, k.num * w, k.den) for w in (w11, w22, w12)]


def metric_constants(metric: Metric2D) -> StructureReport:
    """Structure report of a 2D metric: c1 = K, the Gauss curvature, and c2 = 0.

    In 2D the Levi-Civita curvature is rho^k_{l,ij} = K (delta^k_i w_lj -
    delta^k_j w_li) (Gauss), so R_1212 = w_1k rho^k_{2,12} = K det(w), and
    K is ``metric.gauss_curvature``.  c2 multiplies det(w)^(1/2) against
    phi_12/2, and phi_12 vanishes identically for the Levi-Civita
    connection, so c2 = 0.
    """
    k = metric.gauss_curvature
    return StructureReport.of(
        ObjectKind.METRIC_2D.value, {"c1": k}, shown={"c1": k, "c2": metric.context.zero()}
    )
