"""Correctness checks of CLI outputs against the reference outputs in reference/.

Every check returns None when the output is right and a one-line reason
when it is not. Integers, booleans and labels must equal the reference
exactly; a float may differ from its reference value r by at most
FLOAT_REL * max(1, |r|), a relative tolerance with a floor at unit scale
(character values, dimensions and codegrees are all of order 1 or more).
Keys that an output adds beyond its reference are ignored.
"""

from __future__ import annotations

import json
from pathlib import Path

FLOAT_REL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_analyze_reference(path: Path = REFERENCE_DIR / "analyze.jsonl") -> dict[str, dict]:
    """Ring name -> `analyze --format json` report of that catalog ring."""
    refs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            refs[row["name"]] = row["report"]
    return refs


def load_modular_reference(path: Path = REFERENCE_DIR / "modular.json") -> dict[str, dict]:
    """Ladder rung name -> canonical `modular --format json` report."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(ref, got, where: str = "$") -> str | None:
    """First difference between a reference JSON value and an output value."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return f"{where}: expected an object"
        for key, value in ref.items():
            if key not in got:
                return f"{where}: missing key {key!r}"
            problem = compare(value, got[key], f"{where}.{key}")
            if problem:
                return problem
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{where}: expected a list of {len(ref)}"
        for n, (r, g) in enumerate(zip(ref, got)):
            problem = compare(r, g, f"{where}[{n}]")
            if problem:
                return problem
        return None
    if isinstance(ref, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return f"{where}: expected a number"
        if abs(got - ref) > FLOAT_REL * max(1.0, abs(ref)):
            return f"{where}: {got!r} differs from {ref!r}"
        return None
    if type(got) is not type(ref) or got != ref:
        return f"{where}: {got!r} != {ref!r}"
    return None


def _parse(rc: int, stdout: str, ok_codes=(0,)):
    if rc not in ok_codes:
        return None, f"exit code {rc}"
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def check_analyze(ref: dict, rc: int, stdout: str) -> str | None:
    report, problem = _parse(rc, stdout)
    if problem:
        return problem
    checks = report.get("checks")
    if not checks or not all(c.get("passed") is True for c in checks):
        return "a theorem check did not pass"
    return compare(_without_check_details(ref), _without_check_details(report))


def _without_check_details(report: dict) -> dict:
    # check details carry floating residuals in free text; names and results are compared
    return {**report, "checks": [{"name": c["name"], "passed": c["passed"]}
                                 for c in report.get("checks", [])]}


def check_query(kind: str, label: str, ref: dict, rc: int, stdout: str) -> str | None:
    """Check a kernel, grading or brauer answer against the ring's analyze report."""
    answer, problem = _parse(rc, stdout)
    if problem:
        return problem
    simple = next(b for b in ref["simples"] if b["label"] == label)
    components = simple["grading_components"]
    grade_of = {lab: g for g, comp in enumerate(components) for lab in comp}
    if answer.get("label") != label:
        return f"label {answer.get('label')!r} != {label!r}"
    if kind == "kernel":
        if answer.get("kernel") != simple["kernel_characters"]:
            return f"kernel {answer.get('kernel')} != {simple['kernel_characters']}"
        if answer.get("center") != simple["center_characters"]:
            return f"center {answer.get('center')} != {simple['center_characters']}"
        return None
    if kind == "grading":
        g = answer.get("grading") or {}
        for key, expected in (("index", simple["index"]), ("order", simple["order"]),
                              ("components", components),
                              ("character_checked", simple["grading_character_checked"]),
                              ("grades", grade_of)):
            if g.get(key) != expected:
                return f"grading.{key} {g.get(key)!r} != {expected!r}"
        return None
    b = answer.get("brauer") or {}
    faithful = simple["faithful"]
    if b.get("faithful_expected") is not faithful or b.get("faithful_actual") is not faithful:
        return f"brauer faithful flags {b.get('faithful_expected')}/{b.get('faithful_actual')} != {faithful}"
    exponents = b.get("exponents") or {}
    # powers of a simple reach exactly the simples of the subcategory it generates,
    # first at exponents congruent to their grade modulo the index
    if set(exponents) != set(grade_of):
        return f"brauer coverage {sorted(exponents)} != {sorted(grade_of)}"
    if faithful != (len(exponents) == len(ref["ring"]["labels"])):
        return "brauer coverage disagrees with faithfulness"
    cap = b.get("cap_used")
    for lab, n in exponents.items():
        if not isinstance(n, int) or not 0 <= n <= cap or n % simple["index"] != grade_of[lab]:
            return f"brauer exponent of {lab} is {n!r} (cap {cap}, grade {grade_of[lab]})"
    return None


def canonical_modular(report: dict) -> dict:
    """Label-keyed form of a modular report, independent of the basis order."""
    ring = report["ring"]
    return {
        "ring": {**ring, "labels": sorted(ring["labels"])},
        "centralizers": {k: sorted(v) for k, v in report["centralizers"].items()},
        "projective_centralizers": {
            k: sorted(v) for k, v in report["projective_centralizers"].items()},
        "invertibles": sorted(report["invertibles"]),
        "verlinde_round_trip": report["verlinde_round_trip"],
    }


def check_modular(ref: dict, rc: int, stdout: str) -> str | None:
    report, problem = _parse(rc, stdout)
    if problem:
        return problem
    if report.get("verlinde_round_trip") is not True:
        return "Verlinde round trip failed"
    try:
        got = canonical_modular(report)
    except (KeyError, TypeError, AttributeError) as exc:
        return f"malformed modular report: {exc!r}"
    return compare(ref, got)
