"""Batch driver: load section files, run a pipeline, emit deterministic reports.

Every command prints one report (JSON by default, sorted keys) and exits 0 on
an integrable/passing outcome, 1 on a computed obstruction or non-integrable
section, 2 on broken input or usage errors, and 3 when the engine itself fails
(a violated internal invariant: a bug, never a verdict on the input).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from . import curvature as curvature_mod
from . import jetcalc, lieops, structure
from .errors import InputFormatError, NotIntegrable, VessiotError
from .lieops import ObjectKind
from .symexpr import MAX_LITERAL_DIGITS

PASS_EXIT = 0
OBSTRUCTION_EXIT = 1
USAGE_EXIT = 2
INTERNAL_EXIT = 3


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="vessiot",
        description="Structure constants and equivalence obstructions of geometric structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("json", "text"),
            default="json",
            help="report format (default: json)",
        )

    p = sub.add_parser("compute", help="structure report of one section file")
    p.add_argument("--section", required=True, help="section file path")
    add_format(p)

    p = sub.add_parser("equivalence", help="necessary-condition gate between two sections")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument(
        "--sample-point",
        default=None,
        help="comma-separated rational coordinates for sign tests (default 2,3,...)",
    )
    add_format(p)

    p = sub.add_parser("dims", help="bundle dimension table")
    p.add_argument("--n", type=int, required=True, help="ambient dimension, 1 to 9")
    p.add_argument("--f1", type=int, default=None, help="dim F1 (default n(n+1)/2)")
    add_format(p)

    p = sub.add_parser("check-cc", help="verify a compatibility-condition combination")
    p.add_argument("--section", required=True)
    p.add_argument("--cc", required=True, help="e.g. d11O1,+d22O2,-d12O3")
    p.add_argument("--max-order", type=int, default=None, help="jet order ceiling")
    add_format(p)

    p = sub.add_parser("curvature", help="curvature data plus constants of a metric section")
    p.add_argument("--section", required=True)
    add_format(p)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code else PASS_EXIT
    handler = _HANDLERS[args.command]
    try:
        payload, code = handler(args)
        _emit(payload, args.format)
    except (VessiotError, OSError) as exc:
        print(f"vessiot: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except Exception as exc:
        print(f"vessiot: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    return code


def run(argv: Optional[List[str]] = None) -> None:
    sys.exit(main(argv))


# ----------------------------------------------------------------------
# command handlers
# ----------------------------------------------------------------------


def _cmd_compute(args) -> Tuple[dict, int]:
    sec, extras = lieops.load_section(args.section)
    report, residuals = structure.structure_report(sec, extras)
    payload = _payload(
        "compute",
        {"section": args.section},
        report.to_json_dict(),
        residuals,
        "integrable" if report.integrable else "non-integrable",
    )
    return payload, PASS_EXIT if report.integrable else OBSTRUCTION_EXIT


def _cmd_equivalence(args) -> Tuple[dict, int]:
    left, _ = lieops.load_section(args.left)
    right, _ = lieops.load_section(args.right)
    point = _parse_point(args.sample_point)
    inputs = {"left": args.left, "right": args.right}
    try:
        verdict = structure.equivalence_gate(left, right, sample_point=point)
    except NotIntegrable as exc:
        payload = _payload(
            "equivalence", inputs, {"status": "NotIntegrable", "reasons": [str(exc)]},
            [], "NotIntegrable",
        )
        return payload, OBSTRUCTION_EXIT
    payload = _payload(
        "equivalence", inputs, verdict.to_json_dict(), [], verdict.status
    )
    return payload, OBSTRUCTION_EXIT if verdict.obstructed else PASS_EXIT


def _cmd_dims(args) -> Tuple[dict, int]:
    if not 1 <= args.n <= 9:
        raise InputFormatError(f"--n must be at least 1 and at most 9, got {args.n}")
    if args.f1 is not None and not 0 <= args.f1 < 10**MAX_LITERAL_DIGITS:
        raise InputFormatError(f"--f1 must be at least 0 and below 10^{MAX_LITERAL_DIGITS}")
    table = jetcalc.dim_table(args.n, args.f1)
    payload = _payload(
        "dims", {"f1": table.f1, "n": args.n}, table.to_json_dict(), [], "ok"
    )
    return payload, PASS_EXIT


def _cmd_check_cc(args) -> Tuple[dict, int]:
    sec, _ = lieops.load_section(args.section)
    system = lieops.labeled_medolaghi(sec)
    cc = jetcalc.parse_cc_spec(args.cc, sec.n)
    residual = jetcalc.check_cc_identity(system, cc, max_order=args.max_order)
    zero = residual.is_zero()
    result = {
        "labels": list(sec.kind.spec.labels),
        "zero": zero,
        "residual_equation": str(residual),
    }
    residuals = [] if zero else [str(residual)]
    payload = _payload(
        "check-cc",
        {"cc": args.cc, "section": args.section},
        result,
        residuals,
        "identity" if zero else "nonzero-residual",
    )
    return payload, PASS_EXIT if zero else OBSTRUCTION_EXIT


def _cmd_curvature(args) -> Tuple[dict, int]:
    sec, _ = lieops.load_section(args.section)
    inputs = {"section": args.section}
    if sec.kind is ObjectKind.METRIC_2D:
        metric = curvature_mod.Metric2D.from_section(sec)
        report = curvature_mod.metric_constants(metric)
        result = {
            "curvature": curvature_mod.riemann(metric.levi_civita).to_json_dict(),
            "det": str(metric.det()),
            "report": report.to_json_dict(),
        }
        payload = _payload(
            "curvature", inputs, result, [],
            "integrable" if report.integrable else "non-integrable",
        )
        return payload, PASS_EXIT if report.integrable else OBSTRUCTION_EXIT
    if sec.kind is ObjectKind.CHRISTOFFEL_2D:
        data = curvature_mod.riemann(curvature_mod.Connection2D.from_section(sec))
        flat = data.is_flat()
        result = {"curvature": data.to_json_dict(), "flat": flat}
        payload = _payload(
            "curvature", inputs, result, data.residual_lines(), "flat" if flat else "nonflat"
        )
        return payload, PASS_EXIT if flat else OBSTRUCTION_EXIT
    raise VessiotError(
        f"curvature needs a METRIC_2D or CHRISTOFFEL_2D section, got {sec.kind.value}"
    )


_HANDLERS = {
    "compute": _cmd_compute,
    "equivalence": _cmd_equivalence,
    "dims": _cmd_dims,
    "check-cc": _cmd_check_cc,
    "curvature": _cmd_curvature,
}


# ----------------------------------------------------------------------
# report emission
# ----------------------------------------------------------------------


def _payload(command: str, inputs: dict, result: dict, residuals: List[str], verdict: str) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "result": result,
        "residuals": residuals,
        "verdict": verdict,
    }


def _parse_point(text: Optional[str]) -> Optional[Tuple[Fraction, ...]]:
    if text is None:
        return None
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise VessiotError(f"bad sample point {text!r}: {exc}") from exc


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        for line in _text_lines(payload, ""):
            sys.stdout.write(line + "\n")


def _text_lines(value, prefix: str) -> List[str]:
    if isinstance(value, dict):
        lines = []
        for key in sorted(value):
            sub = _text_lines(value[key], prefix + "  ")
            if len(sub) == 1 and not sub[0].startswith(prefix + "  "):
                lines.append(f"{prefix}{key}: {sub[0]}")
            else:
                lines.append(f"{prefix}{key}:")
                lines.extend(sub)
        return lines
    if isinstance(value, list):
        if not value:
            return ["[]"]
        lines = []
        for item in value:
            sub = _text_lines(item, prefix + "  ")
            if len(sub) == 1 and not sub[0].startswith(prefix + "  "):
                lines.append(f"{prefix}- {sub[0]}")
            else:
                lines.extend(sub)
        return lines
    if value is None:
        return ["none"]
    if isinstance(value, bool):
        return ["true" if value else "false"]
    return [str(value)]


if __name__ == "__main__":
    sys.exit(main())
