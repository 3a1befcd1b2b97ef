"""Result records produced by the structure-equation engine."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .symexpr import Expression

OBSTRUCTED = "Obstructed"
NECESSARY_PASS = "NecessaryConditionsPass"


class StructureReport:
    """Extracted structure constants, Jacobi residuals, and the integrability verdict.

    ``constants`` holds coordinate-constant expressions (exact rationals, or
    rational functions of the declared parameters).  A report is integrable
    exactly when it carries no ``residual``, the offending expression of a
    non-integrable section; ``of`` builds every engine report.
    """

    def __init__(
        self,
        kind: str,
        constants: Dict[str, Expression],
        jacobi_residuals: Optional[List[Expression]] = None,
        residual: Optional[Expression] = None,
    ):
        jacobi_residuals = [] if jacobi_residuals is None else jacobi_residuals
        if residual is None:
            for name, c in constants.items():
                if not c.is_constant():
                    raise ValueError(f"structure constant {name} = {c} is not constant")
            if not all(r.is_zero() for r in jacobi_residuals):
                raise ValueError("an integrable report has a nonzero Jacobi residual")
        self.kind, self.constants = kind, constants
        self.jacobi_residuals, self.residual = jacobi_residuals, residual

    @classmethod
    def of(
        cls, kind: str, constants: Dict[str, Expression], jacobi: Sequence[Expression] = (),
        shown: Optional[Dict[str, Expression]] = None,
    ) -> "StructureReport":
        """The one verdict rule.  The first would-be constant that is not
        constant becomes the residual, and no constant is reported.  Otherwise
        a nonzero Jacobi residual is an engine fault (RuntimeError).  Otherwise
        the report is integrable and lists ``shown`` (default: ``constants``)."""
        residual = next((c for c in constants.values() if not c.is_constant()), None)
        if residual is None and not all(r.is_zero() for r in jacobi):
            raise RuntimeError(f"Jacobi identity violated by {kind} constants")
        shown = constants if shown is None else shown
        return cls(kind, {} if residual is not None else shown, list(jacobi), residual)

    @property
    def integrable(self) -> bool:
        return self.residual is None

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "constants": {k: str(v) for k, v in sorted(self.constants.items())},
            "jacobi_residuals": [str(r) for r in self.jacobi_residuals],
            "integrable": self.integrable,
            "residual": None if self.residual is None else str(self.residual),
        }


class EquivalenceVerdict:
    """Outcome of the necessary-condition gate for an equivalence problem:
    Obstructed exactly when it gives a reason, NecessaryConditionsPass
    otherwise."""

    def __init__(
        self,
        *,
        reasons: Optional[List[str]] = None,
        sample_point: Optional[Tuple[Fraction, ...]] = None,
    ):
        self.reasons = [] if reasons is None else reasons
        self.sample_point = sample_point

    @property
    def obstructed(self) -> bool:
        return bool(self.reasons)

    @property
    def status(self) -> str:
        return OBSTRUCTED if self.reasons else NECESSARY_PASS

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "status": self.status,
            "reasons": list(self.reasons),
            "sample_point": None
            if self.sample_point is None
            else [str(v) for v in self.sample_point],
        }
