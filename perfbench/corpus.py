"""Seeded plans: which inputs each workload runs, in which order.

The pool in ``corpus/pool.json`` is generated once (``gen_corpus.py``) and
committed together with its expected answers.  A plan draws each run's inputs
from it with ``random.Random(seed)``, stratified so that every run has the
same mix of families, and writes the section texts into the work directory.
The program under test only ever receives those texts.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
POOL_PATH = os.path.join(HERE, "corpus", "pool.json")
DIGESTS_PATH = os.path.join(HERE, "corpus", "digests.json")
WORK = os.path.join(HERE, "work")
# report inputs carry the section path, so it is relative and fixed
SECTION_DIR = "perfbench/work/sections"

WORKLOADS = ("cli_corpus", "metric_ladder", "catalog_batch", "jet_systems")

CC_SPECS = {
    "PRODUCT_TRIPLE_2D": "d11O1,+d22O2,-d12O3",
    "METRIC_2D": "d11O22,+d22O11,-2d12O12",
    "CONTACT_PAIR_3D": "d1Ob23,+d2Ob31,+d3Ob12",
}

S = "sections/"

# cli_corpus: one process per call over the bundled sections, with the
# results the README states.  "exit" may list every acceptable code.
CLI_CALLS = [
    (["compute", "--section", S + "product_flat.section"],
     {"exit": 0, "constants": {"result.constants.c": "0"}}),
    (["compute", "--section", S + "product_projective.section"],
     {"exit": 0, "constants": {"result.constants.c": "-2"}}),
    (["compute", "--section", S + "metric_euclidean.section"],
     {"exit": 0, "constants": {"result.constants.c1": "0", "result.constants.c2": "0"}}),
    (["compute", "--section", S + "metric_half_plane.section"],
     {"exit": 0, "constants": {"result.constants.c1": "-1", "result.constants.c2": "0"}}),
    (["compute", "--section", S + "metric_indefinite.section"],
     {"exit": 0, "constants": {"result.constants.c1": "0"}}),
    (["compute", "--section", S + "one_form_dilatation.section"],
     {"exit": 0, "constants": {"result.constants.c": "-1"}}),
    (["compute", "--section", S + "contact_standard.section"],
     {"exit": 0, "constants": {"result.constants.c_prime": "1",
                               "result.constants.c_second": "0"}}),
    (["curvature", "--section", S + "metric_euclidean.section"],
     {"exit": 0, "constants": {"result.report.constants.c1": "0", "result.det": "1"}}),
    (["curvature", "--section", S + "metric_half_plane.section"],
     {"exit": 0, "constants": {"result.report.constants.c1": "-1"},
      "fields": {"result.curvature.ricci.r11": "-1/(x2^2)",
                 "result.curvature.phi_12": "0"}}),
    (["curvature", "--section", S + "metric_indefinite.section"],
     {"exit": 0, "constants": {"result.report.constants.c1": "0", "result.det": "-1"}}),
    (["equivalence", "--left", S + "product_flat.section",
      "--right", S + "product_projective.section"],
     {"exit": 1, "fields": {"result.status": "Obstructed"}, "reason": "constant c is 0"}),
    (["equivalence", "--left", S + "product_projective.section",
      "--right", S + "product_projective.section"],
     {"exit": 0, "fields": {"result.status": "NecessaryConditionsPass"}}),
    (["equivalence", "--left", S + "metric_euclidean.section",
      "--right", S + "metric_half_plane.section"],
     {"exit": 1, "fields": {"result.status": "Obstructed"}, "reason": "constant c1 is 0"}),
    (["equivalence", "--left", S + "metric_euclidean.section",
      "--right", S + "metric_indefinite.section"],
     {"exit": 1, "fields": {"result.status": "Obstructed"},
      "reason": "determinant signs differ"}),
    (["check-cc", "--section", S + "product_flat.section", "--cc", "d11O1,+d22O2,-d12O3"],
     {"exit": 0, "fields": {"result.zero": True, "verdict": "identity"}}),
    (["check-cc", "--section", S + "metric_euclidean.section",
      "--cc", "d11O22,+d22O11,-2d12O12"],
     {"exit": 0, "fields": {"result.zero": True, "verdict": "identity"}}),
    (["dims", "--n", "2"], {"exit": 0, "fields": {"result.dim_F2": 1}}),
    (["dims", "--n", "3"], {"exit": 0, "fields": {"result.dim_F2": 6}}),
    # usage errors and broken input: exit 2, no report
    (["compute"], {"exit": 2}),
    (["frobnicate"], {"exit": 2}),
    (["dims"], {"exit": 2}),
    (["compute", "--section", S + "no_such_file.section"], {"exit": 2}),
    (["curvature", "--section", S + "product_flat.section"], {"exit": 2}),
    (["check-cc", "--section", S + "product_flat.section", "--cc", "d13O1"], {"exit": 2}),
    (["equivalence", "--left", S + "product_flat.section",
      "--right", S + "metric_euclidean.section"], {"exit": 2}),
]

# Robustness defects recorded in ROADMAP.md (an unsound sign test and the
# exit-code contract), kept as expected-answer cases: each must exit 2 or
# give the right answer.  They fail at the commit that added
# the benchmark and are reported apart from the timed items.
DEFECT_SECTIONS = {
    "defect-flat-shifted": "kind = METRIC_2D\nn = 2\nw11 = x1 - 1\nw22 = 1\nw12 = 0\n",
    "defect-deep-parens": "kind = PRODUCT_TRIPLE_2D\nn = 2\nw1 = 0\nw2 = 0\nw3 = "
                          + "(" * 3000 + "1" + ")" * 3000 + "\n",
}
DEFECT_CALLS = [
    ("sample point (1, 3) obstructs two flat metrics",
     ["equivalence", "--left", f"{SECTION_DIR}/defect-flat-shifted.section",
      "--right", S + "metric_euclidean.section", "--sample-point", "1,3"],
     {"exit": [0, 2], "fields": {"result.status": "NecessaryConditionsPass"}}),
    ("sample point with three coordinates for n = 2",
     ["equivalence", "--left", S + "metric_euclidean.section",
      "--right", S + "metric_half_plane.section", "--sample-point", "1,2,3"],
     {"exit": 2}),
    ("3,000-deep parenthesised expression",
     ["compute", "--section", f"{SECTION_DIR}/defect-deep-parens.section"],
     {"exit": [0, 2], "constants": {"result.constants.c": "0"}}),
]


def load_pool() -> dict:
    with open(POOL_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_digests() -> dict:
    if not os.path.exists(DIGESTS_PATH):
        return {}
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def cli_key(argv) -> str:
    return "cli " + " ".join(argv)


def _section_item(op: str, entry: dict) -> dict:
    path = f"{SECTION_DIR}/{entry['id']}.section"
    return {"key": f"{op} {entry['id']}", "op": op, "sections": [entry["id"]],
            "argv": [op, "--section", path]}


def _equivalence_item(left: dict, right: dict) -> dict:
    return {"key": f"equivalence {left['id']} {right['id']}", "op": "equivalence",
            "sections": [left["id"], right["id"]],
            "argv": ["equivalence", "--left", f"{SECTION_DIR}/{left['id']}.section",
                     "--right", f"{SECTION_DIR}/{right['id']}.section"]}


def _jet_item(entry: dict) -> dict:
    return {"key": f"jet {entry['id']}", "op": "jet", "sections": [entry["id"]],
            "text": entry["text"], "cc": CC_SPECS[entry["kind"]]}


def _by_family(pool: dict, workload: str) -> dict:
    out = {}
    for entry in pool["sections"]:
        if entry["workload"] == workload:
            out.setdefault(entry["family"], []).append(entry)
    return out


def equivalence_pairs(fam: dict) -> list:
    """Fixed pairs of known-constant product sections: projective against
    constant (obstructed) and projective against projective (pass)."""
    proj, const = fam["product_projective"], fam["product_constant"]
    pairs = []
    for i in range(6):
        pairs.append((proj[i], const[i]))
        pairs.append((proj[i], proj[i + 1]))
    return pairs


def plan(workload: str, seed: int, pool: dict = None) -> list:
    """The seeded, ordered item list of one run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli_corpus":
        items = [{"key": cli_key(argv), "op": "cli", "argv": argv, "expect": expect}
                 for argv, expect in CLI_CALLS]
        rng.shuffle(items)
        return items
    pool = pool or load_pool()
    fam = _by_family(pool, workload)
    # The families whose sections differ most in cost run in full on every
    # seed; the seed orders them and draws the cheap, uniform families.
    if workload == "metric_ladder":
        strata = []
        for degree in (1, 2, 3):
            chosen = rng.sample(fam[f"dense_d{degree}"], 16)
            # few curvature items: the top decile then lies inside the degree-3
            # compute cluster rather than on its edge with degree-3 curvature
            ops = ["curvature"] * 2 + ["compute"] * 14
            rng.shuffle(ops)
            strata.append([_section_item(op, e) for op, e in zip(ops, chosen)])
        known = rng.sample(fam["constant_metric"], 2) + rng.sample(fam["half_plane"], 2)
        rng.shuffle(known)
        # round-robin over degrees, so any prefix of a cycle keeps the grading
        items = []
        for r in range(16):
            items.extend(stratum[r] for stratum in strata)
            if r % 4 == 3:
                items.append(_section_item(rng.choice(("compute", "curvature")), known[r // 4]))
        return items
    if workload == "catalog_batch":
        # random products are 60% of the items, so the median item is a
        # product section, not a cheap 1D or contact one
        counts = {"product_random": 40, "product_projective": 4, "product_constant": 3,
                  "contact": 4, "one_form_known": 1, "one_form_random": 1,
                  "projective_known": 1, "projective_random": 1, "connection_flat": 1,
                  "connection_linear": 2}
        items = [_section_item("compute", e)
                 for family, k in counts.items() for e in rng.sample(fam[family], k)]
        items += [_equivalence_item(a, b) for a, b in rng.sample(equivalence_pairs(fam), 5)]
        rng.shuffle(items)
        return items
    if workload == "jet_systems":
        counts = {"product_random": 10, "product_projective": 2, "product_flat": 1,
                  "dense_d1": 8, "constant_metric": 3, "half_plane": 1, "contact": 6}
        items = [_jet_item(e) for family, k in counts.items()
                 for e in rng.sample(fam[family], k)]
        rng.shuffle(items)
        return items
    raise ValueError(f"unknown workload {workload!r}")


def all_items(workload: str, pool: dict) -> list:
    """Every item any seed can draw for the workload (digest recording)."""
    if workload == "cli_corpus":
        return plan(workload, 0)
    fam = _by_family(pool, workload)
    entries = [e for family in sorted(fam) for e in fam[family]]
    if workload == "metric_ladder":
        return [_section_item(op, e) for e in entries for op in ("compute", "curvature")]
    if workload == "catalog_batch":
        return ([_section_item("compute", e) for e in entries]
                + [_equivalence_item(a, b) for a, b in equivalence_pairs(fam)])
    return [_jet_item(e) for e in entries]


def write_sections(pool: dict) -> None:
    """Write every pool section and defect section into the work directory."""
    target = os.path.join(ROOT, SECTION_DIR)
    os.makedirs(target, exist_ok=True)
    texts = {e["id"]: e["text"] for e in pool["sections"]}
    texts.update(DEFECT_SECTIONS)
    for name, text in texts.items():
        path = os.path.join(target, f"{name}.section")
        try:
            with open(path, encoding="utf-8") as fh:
                if fh.read() == text:
                    continue
        except FileNotFoundError:
            pass
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
