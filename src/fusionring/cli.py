"""Command-line front end: analysis reports over catalog or file-supplied rings.

Exit codes: 0 success, 1 validation or theorem failure, 2 usage error.
All user-facing input and output uses labels, never basis indices; the
character rows are reported as value vectors named chi0, chi1, ...
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import catalog, grading, kernel, modular, spectral, subcat
from .errors import FusionRingError, NonCommutative, UnknownName, ValidationFailed
from .ring import FusionRing, ValidationReport


def _complex_json(z: complex):
    return [float(z.real), float(z.imag)]


def _load_ring_arg(arg: str) -> tuple[FusionRing, object]:
    """Resolve --ring as a file path or a builtin name; returns (ring, entry|None)."""
    path = Path(arg)
    if arg.endswith(".json") or path.is_file():
        return catalog.load_ring(path), None
    entry = catalog.builtin(arg)
    return entry.ring, entry


def _ring_block(ring: FusionRing, fp: spectral.FPData, commutative: bool) -> dict:
    return {
        "name": ring.name,
        "rank": ring.rank,
        "labels": list(ring.labels),
        "commutative": commutative,
        "fp_dims": {ring.labels[j]: float(fp.dims[j]) for j in range(ring.rank)},
        "global_dim": float(fp.global_dim),
    }


def _character_block(ring: FusionRing, table: spectral.CharacterTable) -> dict:
    return {
        "labels": list(ring.labels),
        "characters": {
            f"chi{t}": [_complex_json(z) for z in table.characters[t]]
            for t in range(table.count)
        },
        "codegrees": [float(f) for f in table.codegrees],
        "fp_character": "chi0",
    }


def _simple_block(ring, fp, table, i, eps, seed) -> dict:
    grad = grading.universal_grading(ring, i, fp, table, eps=eps, seed=seed)
    block: dict = {
        "label": ring.labels[i],
        "faithful": subcat.is_faithful(ring, i),
        "index": grad.index,
        "order": grad.order,
        "grading_components": [[ring.labels[m] for m in comp] for comp in grad.components],
        "grading_character_checked": grad.character_checked,
    }
    if table is not None:
        block["kernel_characters"], block["center_characters"] = _kernel_and_center(
            ring, fp, table, i, eps)
    return block


def _kernel_and_center(ring, fp, table, i, eps) -> list[list[str]]:
    """Names of the characters in the kernel and in the center of simple i."""
    e = ring.basis_vector(i)
    return [sorted(f"chi{t}" for t in of_class(ring, fp, table, e, eps=eps))
            for of_class in (kernel.kernel_of_class, kernel.center_of_class)]


def _power_sweep(ring: FusionRing, ind: list[int]):
    """Support sweep over the powers of each simple, exact as N >= 0.

    The support of the n-th power of e_i is followed up to n = 3 * rank * ind[i],
    or until it equals the support ind[i] steps earlier: from there on the
    supports cycle with period ind[i] through ones already seen, so neither a
    new residue clash nor a first unit return can appear. Returns the first
    (generator, simple, exponent, later exponent) whose exponents differ by a
    non-multiple of ind, or None, and per simple the least n >= 1 whose power
    holds the unit (0 if none).
    """
    edges, start = ring.N > 0, np.arange(ring.rank) == ring.unit
    clash, returns = None, np.zeros(ring.rank, dtype=np.int64)
    for i, p in enumerate(ind):
        supports, first = [start], np.where(start, 0, -1)
        for n in range(1, 3 * ring.rank * p + 1):
            supp = supports[-1] @ edges[i]  # boolean: some j in the support has an edge j -> k
            supports.append(supp)
            first[supp & (first < 0)] = n
            if returns[i] == 0 and supp[ring.unit]:
                returns[i] = n
            bad = np.flatnonzero(supp & ((n - first) % p != 0))
            if bad.size and (clash is None or n < clash[3]):
                clash = (i, int(bad[0]), int(first[bad[0]]), n)
            if n >= p and np.array_equal(supp, supports[n - p]):
                break
    return clash, returns


def _run_checks(ring, fp, table, eps, seed) -> list[dict]:
    """Theorem checks reported in analyze; one pass/fail entry each."""
    checks = []

    def record(name, fn):
        try:
            detail = fn()
            checks.append({"name": name, "passed": True, "detail": detail or "ok"})
        except (FusionRingError, AssertionError) as exc:
            checks.append({"name": name, "passed": False, "detail": str(exc)})

    def brauer_equivalence():
        for i in range(ring.rank):
            faithful = subcat.is_faithful(ring, i)
            indecomp = subcat.is_indecomposable_matrix(ring.fusion_matrix(i))
            assert faithful == indecomp, f"simple {ring.labels[i]}: faithful != indecomposable"
            if table is not None:
                kernel.verify_brauer(ring, fp, table, i, eps=eps)

    @functools.lru_cache(maxsize=None)
    def sweep():  # its own support sweep: the power checks test the profile, not reuse it
        ind = [grading.object_index(ring, i) for i in range(ring.rank)]
        return ind, *_power_sweep(ring, ind)

    def residue_classes():
        ind, clash, _ = sweep()
        if clash is not None:
            i, k, m, n = clash
            raise AssertionError(
                f"simple {ring.labels[k]} occurs in powers of {ring.labels[i]} at exponents "
                f"{m} and {n}, not congruent mod {ind[i]}")

    def index_divides_order():
        ind, _, returns = sweep()
        for i in range(ring.rank):
            order = grading.object_order(ring, i)
            assert returns[i] == order, (
                f"simple {ring.labels[i]}: unit first recurs in power {returns[i]}, "
                f"object_order says {order}")
            assert order % ind[i] == 0, (
                f"simple {ring.labels[i]}: order {order} not divisible by index {ind[i]}")

    def orthogonality():
        C = table.characters
        weights = 1.0 / table.codegrees
        gram = np.einsum("t,ti,tj->ij", weights, C, C.conj())
        residual = float(np.abs(gram - np.eye(ring.rank)).max())
        assert residual < spectral.AGGREGATE_EPS, f"orthogonality residual {residual:g}"
        return f"max residual {residual:.2e}"

    record("brauer_equivalence", brauer_equivalence)
    record("power_residue_classes", residue_classes)
    record("index_divides_order", index_divides_order)
    if table is not None:
        record("character_orthogonality", orthogonality)
    return checks


def _spectral_data(ring, eps, seed):
    """(fp, commutative, table) of a ring; table is None when it is noncommutative."""
    fp, commutative = spectral.fp_character(ring, eps=eps), spectral.is_commutative(ring)
    table = spectral.character_table(ring, eps=eps, seed=seed) if commutative else None
    return fp, commutative, table


def _analyze_report(ring, eps, seed, with_checks=True) -> dict:
    fp, commutative, table = _spectral_data(ring, eps, seed)
    report: dict = {"ring": _ring_block(ring, fp, commutative)}
    if table is not None:
        report["character_table"] = _character_block(ring, table)
    else:
        report["notice"] = "noncommutative Grothendieck ring: no character data"
    report["simples"] = [
        _simple_block(ring, fp, table, i, eps, seed) for i in range(ring.rank)]
    if with_checks:
        report["checks"] = _run_checks(ring, fp, table, eps, seed)
    return report


def _render_text(report: dict, out) -> None:
    def emit(line=""):
        print(line, file=out)

    if "validation" in report:
        v = report["validation"]
        emit(f"ring: {report.get('name', '')}")
        emit(f"valid: {v['valid']}")
        for name, witness in v["violations"]:
            emit(f"  violated {name} at ({', '.join(witness)})")
        return
    if "builtins" in report:
        for name in report["builtins"]:
            emit(name)
        return

    ring_info = report.get("ring")
    if ring_info:
        emit(f"ring: {ring_info['name'] or '(unnamed)'} "
             f"(rank {ring_info['rank']}, {'commutative' if ring_info['commutative'] else 'noncommutative'})")
        dims = ", ".join(f"{k} = {v:.12g}" for k, v in ring_info["fp_dims"].items())
        emit(f"FP dims: {dims}")
        emit(f"global dim: {ring_info['global_dim']:.12g}")
    if "notice" in report:
        emit(f"notice: {report['notice']}")
    ct = report.get("character_table")
    if ct:
        emit("characters (codegree | values on " + ", ".join(ct["labels"]) + "):")
        for t, name in enumerate(sorted(ct["characters"], key=lambda s: int(s[3:]))):
            values = ", ".join(
                f"{re:.10g}" if im == 0 else f"{re:.10g}{im:+.10g}i"
                for re, im in ct["characters"][name])
            emit(f"  {name}: {ct['codegrees'][t]:.10g} | {values}")
    for block in report.get("simples", []):
        emit(f"simple {block['label']}: faithful={block['faithful']} "
             f"ind={block['index']} order={block['order']}")
        comps = "; ".join(
            f"D{a}={{{', '.join(c)}}}" for a, c in enumerate(block["grading_components"]))
        emit(f"  grading: {comps}")
        if "kernel_characters" in block:
            emit(f"  kernel: {{{', '.join(block['kernel_characters'])}}} "
                 f"center: {{{', '.join(block['center_characters'])}}}")
    for extra in ("centralizers", "projective_centralizers"):
        if extra in report:
            emit(f"{extra.replace('_', ' ')}:")
            for label, members in report[extra].items():
                emit(f"  {label}: {{{', '.join(members)}}}")
    if "invertibles" in report:
        emit(f"invertibles: {{{', '.join(report['invertibles'])}}}")
    if "verlinde_round_trip" in report:
        emit(f"verlinde round trip: {'PASS' if report['verlinde_round_trip'] else 'FAIL'}")
    if "kernel" in report:
        emit(f"kernel characters: {{{', '.join(report['kernel'])}}}")
        emit(f"center characters: {{{', '.join(report['center'])}}}")
    if "grading" in report:
        g = report["grading"]
        emit(f"index: {g['index']}  order: {g['order']}")
        comps = "; ".join(f"D{a}={{{', '.join(c)}}}" for a, c in enumerate(g["components"]))
        emit(f"components: {comps}")
        emit(f"character cross-check: {'done' if g['character_checked'] else 'skipped'}")
    if "brauer" in report:
        b = report["brauer"]
        emit(f"faithful expected: {b['faithful_expected']} (cap {b['cap_used']})")
        for label, n in b["exponents"].items():
            emit(f"  {label}: first exponent {n}")
    for check in report.get("checks", []):
        emit(f"check {check['name']}: {'PASS' if check['passed'] else 'FAIL'} ({check['detail']})")


def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2), file=out)
    else:
        _render_text(report, out)


def _number(kind, ok, requirement):
    """argparse type: parse with kind and accept only values for which ok holds."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: ..."
    return parse


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--ring", required=True,
                   help="builtin name (see list-builtins) or path to a ring JSON file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--epsilon", default=spectral.DEFAULT_EPS,
                   type=_number(float, lambda x: 0 < x < math.inf, "a positive finite number"))
    p.add_argument("--seed", default=spectral.DEFAULT_SEED,
                   type=_number(int, lambda x: x >= 0, "a nonnegative integer"))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionring",
        description="Compute fusion ring invariants: FP dimensions, characters, "
                    "kernels, gradings, and S-matrix centralizers.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("validate", help="check the based-ring axioms"))
    p = sub.add_parser("analyze", help="full report with theorem checks")
    _add_common(p)
    p.add_argument("--no-verify", action="store_true", help="skip theorem checks")
    _add_common(sub.add_parser("characters", help="character table and codegrees"))
    p = sub.add_parser("kernel", help="kernel and center of one simple")
    _add_common(p)
    p.add_argument("--object", required=True, metavar="LABEL")
    p = sub.add_parser("grading", help="index, order and universal grading of one simple")
    _add_common(p)
    p.add_argument("--object", required=True, metavar="LABEL")
    p = sub.add_parser("brauer", help="tensor-power coverage of one simple")
    _add_common(p)
    p.add_argument("--object", required=True, metavar="LABEL")
    p.add_argument("--cap", default=None,
                   type=_number(int, lambda x: x >= 1, "a positive integer"))
    p = sub.add_parser("modular", help="centralizer tables from an S-matrix")
    _add_common(p)
    p.add_argument("--smatrix", default=None,
                   help="path to an S-matrix JSON file (defaults to builtin modular data)")
    p = sub.add_parser("list-builtins", help="list built-in ring names")
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _object_index(ring: FusionRing, label: str, parser) -> int:
    try:
        return ring.index_of(label)
    except KeyError:
        parser.error(f"ring has no simple labeled {label!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "list-builtins":
            _emit({"builtins": catalog.all_builtin_names()}, args.format, out)
            return 0

        try:
            ring, entry = _load_ring_arg(args.ring)
            verdict = ValidationReport(valid=True)  # the loader validated it
        except ValidationFailed as exc:
            # the validate subcommand still reports on a constructible-but-invalid ring
            if args.command != "validate" or exc.ring is None:
                raise
            ring, entry, verdict = exc.ring, None, exc.report
        eps, seed = args.epsilon, args.seed
        code = 0

        if args.command == "validate":
            report = {"name": ring.name,
                      "validation": {"valid": verdict.valid,
                                     "violations": [[n, [ring.labels[i] for i in w]]
                                                    for n, w in verdict.violations]}}
            code = 0 if verdict.valid else 1

        elif args.command == "analyze":
            report = _analyze_report(ring, eps, seed, with_checks=not args.no_verify)
            code = 1 if any(not c["passed"] for c in report.get("checks", [])) else 0

        elif args.command == "characters":
            table = spectral.character_table(ring, eps=eps, seed=seed)
            fp = spectral.fp_character(ring, eps=eps)
            report = {
                "ring": _ring_block(ring, fp, True),
                "character_table": _character_block(ring, table),
            }

        elif args.command in ("kernel", "grading", "brauer"):
            i = _object_index(ring, args.object, parser)
            fp, _, table = _spectral_data(ring, eps, seed)
            if args.command == "kernel":
                if table is None:
                    raise NonCommutative("kernel of a class requires a commutative ring")
                kern, center = _kernel_and_center(ring, fp, table, i, eps)
                report = {"label": args.object, "kernel": kern, "center": center}
            elif args.command == "grading":
                grad = grading.universal_grading(ring, i, fp, table, eps=eps, seed=seed)
                report = {"label": args.object,
                          "grading": {
                              "index": grad.index, "order": grad.order,
                              "components": [[ring.labels[m] for m in comp]
                                             for comp in grad.components],
                              "grades": {ring.labels[m]: g for m, g in sorted(grad.grades.items())},
                              "character_checked": grad.character_checked}}
            else:
                if table is None:
                    raise NonCommutative("the tensor-power check requires a commutative ring")
                rep = kernel.verify_brauer(ring, fp, table, i, cap=args.cap, eps=eps)
                report = {"label": args.object,
                          "brauer": {
                              "faithful_expected": rep.faithful_expected,
                              "faithful_actual": rep.faithful_actual,
                              "cap_used": rep.cap_used,
                              "exponents": {ring.labels[k]: n
                                            for k, n in sorted(rep.exponents.items())}}}

        elif args.command == "modular":
            if args.smatrix is not None:
                md = catalog.load_smatrix(args.smatrix, ring)
            elif entry is not None and entry.smatrix is not None:
                md = entry.smatrix
            else:
                parser.error("no built-in modular data for this ring; pass --smatrix")
            fp = spectral.fp_character(ring, eps=eps)
            inv = modular.invertibles(ring, fp, eps=eps)
            report = {
                "ring": _ring_block(ring, fp, spectral.is_commutative(ring)),
                "centralizers": {
                    ring.labels[i]: [ring.labels[m]
                                     for m in modular.centralizer(md, i, eps=eps).members]
                    for i in range(ring.rank)},
                "projective_centralizers": {
                    ring.labels[i]: sorted(ring.labels[m]
                                           for m in modular.projective_centralizer(md, i, eps=eps))
                    for i in range(ring.rank)},
                "invertibles": sorted(ring.labels[j] for j in inv),
                "verlinde_round_trip": True,  # modular_data raises unless it holds
            }

        else:
            parser.error(f"unknown command {args.command!r}")
        _emit(report, args.format, out)
        return code
    except UnknownName as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FusionRingError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
