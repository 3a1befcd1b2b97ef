"""Batch driver: load section files, run a pipeline, emit deterministic reports.

Every command prints one report (JSON by default, sorted keys) and exits 0 on
an integrable/passing outcome, 1 on a computed obstruction or non-integrable
section, 2 on broken input or usage errors, and 3 when the engine itself fails
(a violated internal invariant, such as the product or contact Jacobi check:
a bug, never a verdict on the input).

Each command handler imports the engine modules it runs, and the engine
imports a module where its first use is, so one process loads only what its
command and section kind run (``symexpr`` and ``errors`` under all of them):

- a usage error or ``--help``: no engine module, nor ``json`` or ``fractions``;
- ``dims``: ``jetcalc``;
- ``check-cc``: ``lieops`` and ``jetcalc``;
- ``curvature``: ``lieops``, ``reports`` and ``curvature``;
- ``compute`` and ``equivalence``: ``lieops``, ``reports``, ``structure``,
  ``forms`` and ``linalg``, plus ``curvature`` on a METRIC_2D or
  CHRISTOFFEL_2D section.  ``structure`` imports ``forms`` and ``linalg`` up
  front, because the benchmark's tracer wraps ``structure.solve_square``,
  ``structure.exterior_derivative`` and ``structure.wedge`` there.
  ``jetcalc`` loads only with the Lie equations (``lieops.medolaghi_equations``,
  ``same_equations``), which neither command builds.

A handler returns the parts of its report and whether the outcome passed;
``main`` alone builds the report and maps the outcome to an exit code.
``run``, the ``vessiot`` command and ``python -m vessiot.cli``, calls ``main``
and then freezes the garbage collector before it exits, so interpreter
teardown does not traverse every object of the loaded engine once more.
"""

from __future__ import annotations

import argparse
import functools
import gc
import re
import sys

from .errors import InputFormatError, KindMismatch, NotIntegrable, VessiotError, quoted

PASS_EXIT = 0
OBSTRUCTION_EXIT = 1
USAGE_EXIT = 2
INTERNAL_EXIT = 3

# a repr'd value or a bare word of an argparse message, longer than quoted's cut
_LONG_TOKEN = r"'(?:[^'\\]|\\.){40,}'|\"(?:[^\"\\]|\\.){40,}\"|[^\s'\"]{42,}"


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors show each refused token through
    ``quoted``, so a message stays short whatever the command line holds.

    Options are matched by their full names only (its subcommand parsers are
    of this class too): an abbreviation is an unrecognized argument, quoted
    like any other, never argparse's "ambiguous option" message, which copies
    the whole argument.

    A word that starts with ``-`` and then a digit, ``.`` or ``/`` is a value,
    never an option name (no option name has that shape), so
    ``--sample-point -1/2,3`` passes ``-1/2,3`` on as ``--sample-point=-1/2,3``
    does: argparse's negative-number pattern, which alone takes only ``-1``
    and ``-1.5`` for values, is widened to that shape.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d./]")

    def parse_args(self, args=None, namespace=None):
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {quoted(' '.join(extras))}")
        return namespace

    def error(self, message: str):
        super().error(re.sub(_LONG_TOKEN, lambda m: quoted(m.group().strip("'\"")), message))


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = _Parser(
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
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("equivalence", help="necessary-condition gate between two sections")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument(
        "--sample-point",
        default=None,
        help="comma-separated rational coordinates for sign tests (default 2,3,...)",
    )
    add_format(p)
    p.set_defaults(handler=_cmd_equivalence)

    p = sub.add_parser("dims", help="bundle dimension table")
    p.add_argument("--n", type=int, required=True, help="ambient dimension, 1 to 9")
    p.add_argument("--f1", type=int, default=None, help="dim F1 (default n(n+1)/2)")
    add_format(p)
    p.set_defaults(handler=_cmd_dims)

    p = sub.add_parser("check-cc", help="verify a compatibility-condition combination")
    p.add_argument("--section", required=True)
    p.add_argument("--cc", required=True, help="e.g. d11O1,+d22O2,-d12O3")
    p.add_argument(
        "--max-order", type=int, default=4, help="jet order ceiling, 1 to 16 (default 4)"
    )
    add_format(p)
    p.set_defaults(handler=_cmd_check_cc)

    p = sub.add_parser("curvature", help="curvature data plus constants of a metric section")
    p.add_argument("--section", required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_curvature)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code else PASS_EXIT
    try:
        inputs, result, residuals, verdict, passed = args.handler(args)
        payload = {"command": args.command, "inputs": inputs, "result": result,
                   "residuals": residuals, "verdict": verdict}
        _emit(payload, args.format)
    except VessiotError as exc:
        print(f"vessiot: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except OSError as exc:  # the file name is quoted in part: a path may be any length
        named = "" if exc.filename is None else f": {quoted(exc.filename)}"
        print(f"vessiot: error: [Errno {exc.errno}] {exc.strerror}{named}", file=sys.stderr)
        return USAGE_EXIT
    except Exception as exc:
        print(f"vessiot: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    return PASS_EXIT if passed else OBSTRUCTION_EXIT


def run(argv: list[str] | None = None) -> None:
    """The ``vessiot`` command: ``main``, then exit with its code.

    ``gc.freeze()`` moves every live object to the permanent generation, which
    the collection at interpreter exit skips: the report is written by then,
    and finalization still flushes the standard streams and runs atexit
    handlers.  ``main`` itself leaves the collector as it found it.
    """
    code = main(argv)
    gc.freeze()
    sys.exit(code)


# ----------------------------------------------------------------------
# command handlers
# ----------------------------------------------------------------------


def _cmd_compute(args) -> tuple[dict, dict, list, str, bool]:
    from . import lieops, structure

    sec, extras = lieops.load_section(args.section)
    report, residuals = structure.structure_report(sec, extras)
    verdict = "integrable" if report.integrable else "non-integrable"
    return {"section": args.section}, report.to_json_dict(), residuals, verdict, report.integrable


def _cmd_equivalence(args) -> tuple[dict, dict, list, str, bool]:
    from . import lieops, structure

    left, _ = lieops.load_section(args.left)
    right, _ = lieops.load_section(args.right)
    point = _parse_point(args.sample_point)
    inputs = {"left": args.left, "right": args.right}
    try:
        verdict = structure.equivalence_gate(left, right, sample_point=point)
    except NotIntegrable as exc:
        result = {"status": "NotIntegrable", "reasons": [str(exc)]}
        return inputs, result, [], "NotIntegrable", False
    return inputs, verdict.to_json_dict(), [], verdict.status, not verdict.obstructed


def _cmd_dims(args) -> tuple[dict, dict, list, str, bool]:
    from . import jetcalc
    from .symexpr import MAX_LITERAL_DIGITS

    if not 1 <= args.n <= 9:
        raise InputFormatError(f"--n must be at least 1 and at most 9, got {quoted(args.n)}")
    if args.f1 is not None and not 0 <= args.f1 < 10**MAX_LITERAL_DIGITS:
        raise InputFormatError(f"--f1 must be at least 0 and below 10^{MAX_LITERAL_DIGITS}")
    table = jetcalc.dim_table(args.n, args.f1)
    return {"f1": table["dim_F1"], "n": args.n}, table, [], "ok", True


def _cmd_check_cc(args) -> tuple[dict, dict, list, str, bool]:
    from . import jetcalc, lieops

    if not 1 <= args.max_order <= jetcalc.MAX_ORDER_LIMIT:
        raise InputFormatError(
            f"--max-order must be at least 1 and at most {jetcalc.MAX_ORDER_LIMIT},"
            f" got {quoted(args.max_order)}"
        )
    sec, _ = lieops.load_section(args.section)
    system = lieops.labeled_medolaghi(sec)
    cc = jetcalc.parse_cc_spec(args.cc, sec.n)
    residual = jetcalc.check_cc_identity(system, cc, max_order=args.max_order)
    zero = residual.is_zero()
    result = {"labels": list(sec.kind.spec.labels), "zero": zero,
              "residual_equation": str(residual)}
    residuals = [] if zero else [str(residual)]
    inputs = {"cc": args.cc, "section": args.section}
    return inputs, result, residuals, "identity" if zero else "nonzero-residual", zero


def _cmd_curvature(args) -> tuple[dict, dict, list, str, bool]:
    from . import curvature, lieops

    sec, _ = lieops.load_section(args.section)
    inputs = {"section": args.section}
    if sec.kind is lieops.ObjectKind.METRIC_2D:
        metric = curvature.Metric2D.from_section(sec)
        report = curvature.metric_constants(metric)
        result = {
            "curvature": curvature.riemann(metric).to_json_dict(),
            "det": str(metric.det),
            "report": report.to_json_dict(),
        }
        verdict = "integrable" if report.integrable else "non-integrable"
        return inputs, result, [], verdict, report.integrable
    if sec.kind is lieops.ObjectKind.CHRISTOFFEL_2D:
        data = curvature.riemann(curvature.Connection2D.from_section(sec))
        flat = data.is_flat()
        result = {"curvature": data.to_json_dict(), "flat": flat}
        return inputs, result, data.residual_lines(), "flat" if flat else "nonflat", flat
    raise KindMismatch(
        f"curvature needs a METRIC_2D or CHRISTOFFEL_2D section, got {sec.kind.value}"
    )


# ----------------------------------------------------------------------
# report emission
# ----------------------------------------------------------------------


def _parse_point(text: str | None) -> tuple[Fraction, ...] | None:
    """The --sample-point coordinates.  Each is checked as text first:
    ``Fraction()`` would expand an exponent such as 1e100000000 in full."""
    from fractions import Fraction

    from .symexpr import MAX_LITERAL_DIGITS

    if text is None:
        return None
    point = []
    for k, part in enumerate((part.strip() for part in text.split(",")), start=1):
        where = f"bad sample point: coordinate {k} {quoted(part)}"
        if "e" in part.lower():
            raise VessiotError(f"{where}: exponents are not accepted")
        if any(sum(ch.isdigit() for ch in side) > MAX_LITERAL_DIGITS for side in part.split("/")):
            raise VessiotError(
                f"{where} has more than {MAX_LITERAL_DIGITS} digits above or below the line"
            )
        try:
            point.append(Fraction(part))
        except (ValueError, ZeroDivisionError) as exc:
            raise VessiotError(f"{where} is not a rational number") from exc
    return tuple(point)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        import json

        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        for line in _text_lines(payload, ""):
            sys.stdout.write(line + "\n")


def _text_lines(value, prefix: str) -> list[str]:
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
    run()
