"""Span tracer that wraps the engine's public functions from outside.

``Tracer.install()`` replaces each traced name where its caller looks it up
(``vessiot.structure.solve_square``, not only ``vessiot.linalg.solve_square``),
so nothing under ``src/`` changes.  Every call pushes a frame on a stack; on
exit the call's duration is charged to its name and to the enclosing frame's
child time, which gives self time = duration - time covered by child spans.
Layer-boundary calls are kept as spans (name, start, end, parent id, item id)
and written out at the end; the hot kernel operations (``Expression``
arithmetic, ``diff``, ``is_constant``, ...) run hundreds of thousands of times
per run and are aggregated instead of stored one by one.
"""

from __future__ import annotations

import contextlib
import json
import time

_ns = time.perf_counter_ns

# (metric group, module path, attribute, keep spans)
# Module attributes are patched in every module that imported the name.
FUNCTIONS = [
    ("cli.main", "vessiot.cli", "main", True),
    ("lieops.parse_section_text", "vessiot.lieops", "parse_section_text", True),
    ("lieops.medolaghi_equations", "vessiot.lieops", "medolaghi_equations", True),
    ("symexpr.parse_in", "vessiot.lieops", "parse_in", True),
    ("symexpr.parse_in", "vessiot.symexpr", "parse_in", True),
    ("linalg.solve_square", "vessiot.structure", "solve_square", True),
    ("linalg.solve_square", "vessiot.linalg", "solve_square", True),
    ("linalg.rank_rational", "vessiot.linalg", "rank_rational", True),
    ("curvature.christoffel", "vessiot.curvature", "christoffel", True),
    ("curvature.riemann", "vessiot.curvature", "riemann", True),
    ("curvature.metric_constants", "vessiot.curvature", "metric_constants", True),
    ("structure.solve_intermediate_product", "vessiot.structure",
     "solve_intermediate_product", True),
    ("structure.product_constants", "vessiot.structure", "product_constants", True),
    ("structure.equivalence_gate", "vessiot.structure", "equivalence_gate", True),
    ("structure.contact_constants", "vessiot.structure", "contact_constants", True),
    ("forms.exterior_derivative", "vessiot.structure", "exterior_derivative", True),
    ("forms.exterior_derivative", "vessiot.forms", "exterior_derivative", True),
    ("forms.wedge", "vessiot.structure", "wedge", True),
    ("forms.wedge", "vessiot.forms", "wedge", True),
    ("jetcalc.prolong", "vessiot.jetcalc", "prolong", True),
    ("jetcalc.symbol_dimension", "vessiot.jetcalc", "symbol_dimension", True),
    ("jetcalc.check_cc_identity", "vessiot.jetcalc", "check_cc_identity", True),
    ("jetcalc.formal_derivative", "vessiot.jetcalc", "formal_derivative", False),
]
# (metric group, module path, class, method, keep spans)
METHODS = [
    ("symexpr.arith", "vessiot.symexpr", "Expression", "__add__", False),
    ("symexpr.arith", "vessiot.symexpr", "Expression", "__sub__", False),
    ("symexpr.arith", "vessiot.symexpr", "Expression", "__mul__", False),
    ("symexpr.arith", "vessiot.symexpr", "Expression", "__truediv__", False),
    ("symexpr.diff", "vessiot.symexpr", "Expression", "diff", False),
    ("symexpr.is_constant", "vessiot.symexpr", "Expression", "is_constant", False),
    ("curvature.inverse_component", "vessiot.curvature", "Metric2D", "inverse_component",
     False),
    ("reports.to_json_dict", "vessiot.reports", "StructureReport", "to_json_dict", True),
    ("reports.to_json_dict", "vessiot.reports", "EquivalenceVerdict", "to_json_dict", True),
]


def _size(expr) -> tuple:
    """(terms in numerator + denominator, largest coefficient bit length)."""
    terms, bits = 0, 0
    for poly in (getattr(expr, "num", None), getattr(expr, "den", None)):
        coeffs = getattr(poly, "terms", None)
        if not isinstance(coeffs, dict):
            continue
        terms += len(coeffs)
        for c in coeffs.values():
            b = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
            if b > bits:
                bits = b
    return terms, bits


class Tracer:
    """Collects spans and per-name statistics for one process."""

    def __init__(self):
        self.item = -1
        self.stack = []          # frames: [span id, child ns]
        self.depth = {}          # name -> active calls (inclusive time counts the outermost)
        self.stats = {}          # name -> [calls, inclusive ns, self ns]
        self.spans = []          # (id, name, start, end, parent, item)
        self.terms_max = 0
        self.bits_max = 0
        self.prolong = [0, 0]    # equations kept, derivatives generated
        self._next_id = 1
        self._patched = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, keep, measure=False):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack, depth, spans = self.stack, self.depth, self.spans
        depth.setdefault(name, 0)
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [span_id, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            depth[name] += 1
            start = _ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _ns()
                stack.pop()
                depth[name] -= 1
                duration = end - start
                stats[0] += 1
                if depth[name] == 0:
                    stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep:
                    spans.append((span_id, name, start, end, parent, tracer.item))
            if measure:
                terms, bits = _size(result)
                if terms > tracer.terms_max:
                    tracer.terms_max = terms
                if bits > tracer.bits_max:
                    tracer.bits_max = bits
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_prolong(self, fn):
        counts = self.prolong
        stats = self.stats

        def prolong(system, r):
            before = stats.get("jetcalc.formal_derivative", [0])[0]
            out = fn(system, r)
            counts[0] += len(out) - len(system)
            counts[1] += stats.get("jetcalc.formal_derivative", [0])[0] - before
            return out

        return prolong

    def install(self) -> None:
        import importlib

        for name, module, attr, keep in FUNCTIONS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original, keep)
            if name == "jetcalc.prolong":
                wrapped = self._wrap_prolong(wrapped)
            self._patched.append((mod, attr, original))
            setattr(mod, attr, wrapped)
        for name, module, cls_name, attr, keep in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, keep,
                                          measure=name == "symexpr.arith"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        """Installed for the duration of a ``with`` block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        return {"stats": self.stats, "terms_max": self.terms_max,
                "bits_max": self.bits_max, "prolong": self.prolong,
                "spans": len(self.spans)}

    def write_spans(self, path: str, pid_tag: str = "") -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"id": f"{pid_tag}{span_id}", "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "parent": f"{pid_tag}{parent}" if parent else None,
                                     "item": item}) + "\n")


def merge(summaries) -> dict:
    """Sum the summaries of several traced processes."""
    out = {"stats": {}, "terms_max": 0, "bits_max": 0, "prolong": [0, 0], "spans": 0}
    for s in summaries:
        for name, (calls, incl, self_ns) in s["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_ns
        out["terms_max"] = max(out["terms_max"], s["terms_max"])
        out["bits_max"] = max(out["bits_max"], s["bits_max"])
        out["prolong"][0] += s["prolong"][0]
        out["prolong"][1] += s["prolong"][1]
        out["spans"] += s["spans"]
    return out


def layer_metrics(summary: dict, items: int) -> dict:
    """Per-layer metrics per traced item, named <module>.<function>.<stat>."""
    stats = summary["stats"]

    def per_item(name, field):
        value = stats.get(name, [0, 0, 0])[field]
        return value / items if field == 0 else value / items / 1e6

    out = {}
    inclusive = ["symexpr.parse_in", "symexpr.is_constant", "linalg.solve_square",
                 "linalg.rank_rational", "curvature.christoffel", "curvature.riemann",
                 "structure.contact_constants", "forms.exterior_derivative", "forms.wedge",
                 "jetcalc.prolong", "jetcalc.symbol_dimension", "jetcalc.check_cc_identity",
                 "lieops.medolaghi_equations", "lieops.parse_section_text",
                 "reports.to_json_dict"]
    for name in inclusive:
        out[f"{name}.ms"] = (per_item(name, 1), "ms/item")
    for name in ["symexpr.arith", "curvature.metric_constants",
                 "structure.solve_intermediate_product", "structure.product_constants",
                 "structure.equivalence_gate", "cli.main"]:
        out[f"{name}.self_ms"] = (per_item(name, 2), "ms/item")
    for name in ["symexpr.arith", "symexpr.diff", "curvature.inverse_component",
                 "jetcalc.formal_derivative"]:
        out[f"{name}.calls"] = (per_item(name, 0), "calls/item")
    out["symexpr.result_terms_max"] = (summary["terms_max"], "terms")
    out["symexpr.result_coeff_bits_max"] = (summary["bits_max"], "bits")
    kept, generated = summary["prolong"]
    out["jetcalc.prolong.kept_ratio"] = (kept / generated if generated else 0.0, "ratio")
    return out
