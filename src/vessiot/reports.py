"""Result records produced by the structure-equation engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .symexpr import Expression

OBSTRUCTED = "Obstructed"
NECESSARY_PASS = "NecessaryConditionsPass"


@dataclass(frozen=True)
class StructureReport:
    """Extracted structure constants, Jacobi residuals, and the integrability verdict.

    ``constants`` holds coordinate-constant expressions (exact rationals, or
    rational functions of the declared parameters).  When a would-be constant
    fails the constancy test, ``integrable`` is False and ``residual`` carries
    the offending expression instead.
    """

    kind: str
    constants: Dict[str, Expression]
    jacobi_residuals: List[Expression] = field(default_factory=list)
    integrable: bool = True
    residual: Optional[Expression] = None

    def __post_init__(self):
        if not self.integrable:
            return
        if self.residual is not None:
            raise ValueError("an integrable report carries no residual")
        for name, c in self.constants.items():
            if not c.is_constant():
                raise ValueError(f"structure constant {name} = {c} is not constant")
        if not all(r.is_zero() for r in self.jacobi_residuals):
            raise ValueError("an integrable report has a nonzero Jacobi residual")

    def constant(self, name: str) -> Expression:
        return self.constants[name]

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "constants": {k: str(v) for k, v in sorted(self.constants.items())},
            "jacobi_residuals": [str(r) for r in self.jacobi_residuals],
            "integrable": self.integrable,
            "residual": None if self.residual is None else str(self.residual),
        }


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of the necessary-condition gate for an equivalence problem."""

    status: str
    reasons: List[str] = field(default_factory=list)
    sample_point: Optional[Tuple[Fraction, ...]] = None

    def __post_init__(self):
        if self.status not in (OBSTRUCTED, NECESSARY_PASS):
            raise ValueError(f"unknown verdict status {self.status!r}")
        if self.status == OBSTRUCTED and not self.reasons:
            raise ValueError("an Obstructed verdict needs a reason")

    @property
    def obstructed(self) -> bool:
        return self.status == OBSTRUCTED

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "status": self.status,
            "reasons": list(self.reasons),
            "sample_point": None
            if self.sample_point is None
            else [str(v) for v in self.sample_point],
        }
