"""Command-line front end: argv parsing and rendering of what the library returns.

The analyze and modular reports and their theorem checks come from fusionring.analysis.
Exit codes: 0 success, 1 validation or theorem failure, 2 usage error.
All user-facing input and output uses labels, never basis indices; the
character rows are reported as value vectors named chi0, chi1, ...
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from pathlib import Path

from . import analysis, catalog, grading, kernel, spectral
from .errors import FusionRingError, NonCommutative, UnknownName, ValidationFailed
from .ring import FusionRing, ValidationReport


def _load_ring_arg(arg: str) -> tuple[FusionRing, object]:
    """Resolve --ring as a file path or a builtin name; returns (ring, entry|None)."""
    path = Path(arg)
    if arg.endswith(".json") or path.is_file():
        return catalog.load_ring(path), None
    entry = catalog.builtin(arg)
    return entry.ring, entry


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


_ESCAPE = json.encoder.encode_basestring_ascii
_NUMBERS = {int, float}
_LITERALS = {True: "true", False: "false", None: "null"}


def _dumps(obj, indent: str = "\n") -> str:
    """json.dumps(obj, sort_keys=True, indent=2) for dicts with str keys, lists and JSON scalars.

    json.dumps runs its pure-Python encoder whenever indent is set, so this
    writes the same text with C-level joins instead: a list of str is one join,
    and a list of numbers, or of nonempty lists of numbers, one repr, which
    writes finite ints and floats as JSON does. A repr holding an "n" holds a
    nan or an inf, and such a list goes item by item, as does any other list.
    Scalars are dispatched by exact type; other types, empty lists and dicts
    and non-finite floats go to json.dumps without indent.
    """
    kind = type(obj)
    if kind is str:
        return _ESCAPE(obj)
    if kind is int or kind is float and math.isfinite(obj):
        return kind.__repr__(obj)
    if kind is bool or obj is None:
        return _LITERALS[obj]
    if kind is not dict and kind is not list or not obj:
        return json.dumps(obj)
    inner = indent + "  "
    sep = "," + inner
    if kind is dict:
        body = sep.join(f"{_ESCAPE(k)}: {_dumps(obj[k], inner)}" for k in sorted(obj))
        return "{" + inner + body + indent + "}"
    types = set(map(type, obj))
    if types == {str}:
        body = sep.join(map(_ESCAPE, obj))
    elif types <= _NUMBERS and "n" not in (text := repr(obj)):
        body = text[1:-1].replace(", ", sep)
    elif (types == {list} and all(map(len, obj))
          and set(map(type, itertools.chain.from_iterable(obj))) <= _NUMBERS
          and "n" not in (text := repr(obj))):
        body = text[2:-2].replace("], [", f"{inner}],{inner}[{inner}  ").replace(", ", sep + "  ")
        body = f"[{inner}  {body}{inner}]"
    else:
        body = sep.join(_dumps(x, inner) for x in obj)
    return "[" + inner + body + indent + "]"


def _emit(report: dict, fmt: str, out) -> None:
    """Print a report as text, or as JSON: json.dumps(report, sort_keys=True, indent=2), via _dumps."""
    if fmt == "json":
        print(_dumps(report), file=out)
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
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and the parser of each subcommand by name."""
    parser = argparse.ArgumentParser(
        prog="fusionring",
        description="Compute fusion ring invariants: FP dimensions, characters, "
                    "kernels, gradings, and S-matrix centralizers.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add(name, help):
        p = commands[name] = sub.add_parser(name, help=help)
        return p

    _add_common(add("validate", "check the based-ring axioms"))
    p = add("analyze", "full report with theorem checks")
    _add_common(p)
    p.add_argument("--no-verify", action="store_true", help="skip theorem checks")
    _add_common(add("characters", "character table and codegrees"))
    p = add("kernel", "kernel and center of one simple")
    _add_common(p)
    p.add_argument("--object", required=True, metavar="LABEL")
    p = add("grading", "index, order and universal grading of one simple")
    _add_common(p)
    p.add_argument("--object", required=True, metavar="LABEL")
    p = add("brauer", "tensor-power coverage of one simple")
    _add_common(p)
    p.add_argument("--object", required=True, metavar="LABEL")
    p.add_argument("--cap", default=None,
                   type=_number(int, lambda x: x >= 1, "a positive integer"))
    p = add("modular", "centralizer tables from an S-matrix")
    _add_common(p)
    p.add_argument("--smatrix", default=None,
                   help="path to an S-matrix JSON file (defaults to builtin modular data)")
    p = add("list-builtins", "list built-in ring names")
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser, commands


def _parse(argv: list[str]) -> argparse.Namespace:
    """parser.parse_args(argv), in one parse by the subcommand's parser where it can be.

    In nested mode argparse hands argv[1:] to the subcommand's parse_known_args and then
    reports whatever that leaves over, after classifying every argument at the top level
    first. So where argv[0] names a subcommand and its parser leaves nothing over, that
    one parse is the whole answer. Everything else (no arguments, help or an option before
    the command, an unknown command, leftovers) goes through parser.parse_args, which
    prints the usage, help or error text and exits as nested mode does.
    """
    parser, commands = _build_parser()
    if argv and (sub := commands.get(argv[0])) is not None:
        args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    parser = _build_parser()[0]
    args = _parse(sys.argv[1:] if argv is None else list(argv))
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
            report = analysis.analyze_report(ring, eps, seed, checks=not args.no_verify)
            code = 1 if any(not c["passed"] for c in report.get("checks", [])) else 0

        elif args.command == "characters":
            table = spectral.character_table(ring, eps=eps, seed=seed)
            fp = spectral.fp_character(ring)
            report = {"ring": analysis.ring_block(ring, fp, True),
                      "character_table": analysis.character_block(ring, table)}

        elif args.command in ("kernel", "grading", "brauer"):
            try:
                i = ring.index_of(args.object)
            except KeyError:
                parser.error(f"ring has no simple labeled {args.object!r}")
            fp, table = analysis.spectral_data(ring, eps, seed)
            if args.command == "kernel":
                if table is None:
                    raise NonCommutative("kernel of a class requires a commutative ring")
                e, names = ring.basis_vector(i), analysis.character_names
                report = {"label": args.object,
                          "kernel": names(kernel.kernel_of_class(ring, fp, table, e, eps)),
                          "center": names(kernel.center_of_class(ring, fp, table, e, eps))}
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
            report = analysis.modular_report(md, eps)
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
