"""Built-in example fusion rings with modular data, and ring/S-matrix files.

Every built-in ring comes from one of three array rules. A group table sets
N[i, j, table[i, j]] = 1: trivial, pointed_zn(n) (Z_n) and vec_s3 (S3, the
one noncommutative entry). The near-group rule K(G, k) adds to G one simple m
with g m = m g = m and m m = (sum of G) + k m: fibonacci = K(1, 1), ising =
K(Z2, 0), rep_s3 = K(Z2, 1) and rep_q8 = K(Z2 x Z2, 0), the character rings
of S3 and Q8, and tambara_yamagami_zn(n) = K(Z_n, 0), whose m has FP
dimension sqrt(n). The su(2) level-k Verlinde ring su2_k(k) is the truncated
Clebsch-Gordan mask. S-matrices come from exact expressions (sqrt, golden
ratio, sines of rational angles); pointed_zn's is the standard pairing
exp(2 pi i j k / n) / sqrt(n). builtin builds and validates each entry once
per process, on first use, and returns that entry after; each S-matrix, built
in or loaded, is checked once, by modular_data: a built-in one on first use of
entry.smatrix.

File formats (JSON, text):
  ring:     {"name": str, "rank": int, "labels": [str], "unit": int,
             "dual": [int] (optional), "N": [[[int]]]}
  S-matrix: {"ring": str, "S": [[[re, im], ...], ...]}
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from json.decoder import WHITESPACE, scanstring
from typing import Callable

import numpy as np

from .errors import (
    AmbiguousDual,
    DimensionMismatch,
    DualMismatch,
    NoDual,
    ParseError,
    UnknownName,
    ValidationFailed,
)
from .modular import ModularData, modular_data
from .ring import (FusionRing, ValidationReport, dual_from_structure, relabel, structure_constants,
                   validate)

@dataclass(frozen=True)
class CatalogEntry:
    """A built-in ring, and its modular data if it ships with an S-matrix.

    name is the canonical one, as list-builtins gives it. smatrix is built and
    checked by modular_data on first access, once per entry, with a read-only S,
    and is None for an entry without an S-matrix.
    """

    name: str
    ring: FusionRing
    make_smatrix: Callable[[], np.ndarray] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def smatrix(self) -> ModularData | None:
        if self.make_smatrix is None:
            return None
        md = modular_data(self.ring, self.make_smatrix())
        md.S.setflags(write=False)
        return md


def _group_ring(labels, table, name, k=None):
    """Group ring of e_i * e_j = e_table[i, j], unit 0; given k, the near-group ring K(G, k)
    with one more simple m (the last label): g * m = m * g = m, m * m = sum of G + k m."""
    n = len(table)
    r = n if k is None else n + 1
    N = np.zeros((r, r, r), dtype=np.int64)
    i, j = np.indices(table.shape)
    N[i, j, table] = 1
    if k is not None:
        N[:n, n, n] = N[n, :n, n] = N[n, n, :n] = 1
        N[n, n, n] = k
    return FusionRing(labels=tuple(labels), N=N, dual=dual_from_structure(N, 0),
                      unit=0, name=name)


def _zn_table(n):
    a = np.arange(n)
    return np.add.outer(a, a) % n


def _trivial():
    return _group_ring(["1"], _zn_table(1), "trivial")


def _pointed_zn(n):
    return _group_ring(["1"] + [f"g{a}" for a in range(1, n)], _zn_table(n), f"pointed_zn({n})")


def _vec_s3():
    # e_i * e_j is the permutation x -> P[i][P[j][x]], looked up among the rows of P
    P = np.array([(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1)])
    table = (P[:, P][:, :, None] == P).all(axis=-1).argmax(axis=-1)
    return _group_ring(["e", "r", "rr", "s", "rs", "rrs"], table, "vec_s3")


def _fibonacci():
    return _group_ring(("1", "tau"), _zn_table(1), "fibonacci", k=1)


def _ising():
    return _group_ring(("1", "psi", "sigma"), _zn_table(2), "ising", k=0)  # sigma*sigma = 1 + psi


def _rep_s3():
    return _group_ring(("1", "eps", "V"), _zn_table(2), "rep_s3", k=1)  # V*V = 1 + eps + V


def _rep_q8():
    # invertibles form Z2 x Z2 (xor of the indices); V*V is the sum of all invertibles
    a = np.arange(4)
    return _group_ring(("1", "a", "b", "ab", "V"), np.bitwise_xor.outer(a, a), "rep_q8", k=0)


def _tambara_yamagami_zn(n):
    # n invertibles a_0..a_{n-1} and one object m with m*m = sum of all a_i
    return _group_ring([f"a{i}" for i in range(n)] + ["m"], _zn_table(n),
                       f"tambara_yamagami_zn({n})", k=0)


def _su2_k(k):
    # truncated Clebsch-Gordan: l in i (x) j iff |i-j| <= l <= min(i+j, 2k-i-j),
    # l = i + j (mod 2); labels are twice the spin
    i, j, l = np.indices((k + 1,) * 3)
    N = (abs(i - j) <= l) & (l <= np.minimum(i + j, 2 * k - i - j)) & ((i + j + l) % 2 == 0)
    return FusionRing(labels=tuple(map(str, range(k + 1))), N=N.astype(np.int64),
                      dual=tuple(range(k + 1)), unit=0, name=f"su2_k({k})")


def _ising_smatrix():
    s = math.sqrt(2.0)
    return np.array([[1, 1, s], [1, 1, -s], [s, -s, 0]], dtype=complex) / 2.0


def _fibonacci_smatrix():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    return np.array([[1, phi], [phi, -1]], dtype=complex) / math.sqrt(2.0 + phi)


def _pointed_zn_smatrix(n):
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * j * k / n) / math.sqrt(n)


def _su2_k_smatrix(k):
    a, b = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
    return np.sqrt(2.0 / (k + 2)) * np.sin(np.pi * (a + 1) * (b + 1) / (k + 2)).astype(complex)


# family -> (ring, S-matrix or None, largest parameter or 0 if it takes none)
_CATALOG = {
    "trivial": (_trivial, None, 0),
    "fibonacci": (_fibonacci, _fibonacci_smatrix, 0),
    "ising": (_ising, _ising_smatrix, 0),
    "rep_s3": (_rep_s3, None, 0),
    "rep_q8": (_rep_q8, None, 0),
    "vec_s3": (_vec_s3, None, 0),
    "pointed_zn": (_pointed_zn, _pointed_zn_smatrix, 24),
    "tambara_yamagami_zn": (_tambara_yamagami_zn, None, 12),
    "su2_k": (_su2_k, _su2_k_smatrix, 10),
}

_NAME_RE = re.compile(r"^([a-z0-9_]+)\((\d+)\)$")

# (family, parameters) -> its entry, built on first use; at most one per all_builtin_names()
_ENTRIES: dict[tuple[str, tuple[int, ...]], CatalogEntry] = {}


def all_builtin_names() -> list[str]:
    return [f"{family}({n})" if top else family
            for family, (_, _, top) in _CATALOG.items() for n in range(1, max(top, 1) + 1)]


def builtin(name: str) -> CatalogEntry:
    """The named built-in entry; raises UnknownName otherwise.

    The name is parsed and range-checked on every call. The entry is built and
    validated on the first call for its (family, parameter), and that same
    entry is returned after, also for an alias such as pointed_zn(05).
    """
    m = _NAME_RE.match(name)
    family, args = (m.group(1), (int(m.group(2)),)) if m else (name, ())
    if family not in _CATALOG or bool(_CATALOG[family][2]) != bool(args):
        raise UnknownName(f"no built-in named {name!r}; see list-builtins")
    make_ring, make_s, top = _CATALOG[family]
    if args and not 1 <= args[0] <= top:
        raise UnknownName(f"{family} parameter must be in 1..{top}, got {args[0]}")
    entry = _ENTRIES.get((family, args))
    if entry is None:
        ring = make_ring(*args)
        report = validate(ring)
        if not report.valid:
            raise ValidationFailed(report)
        entry = _ENTRIES[family, args] = CatalogEntry(
            name=ring.name, ring=ring,
            make_smatrix=None if make_s is None else partial(make_s, *args))
    return entry


def _require(data: dict, key: str, kind, context: str):
    if key not in data:
        raise ParseError(f"{context}: missing field {key!r}")
    value = data[key]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ParseError(f"{context}: field {key!r} has the wrong type")
    return value


def _read_json(path) -> dict:
    """The JSON object in the file, as _ring_object walks it, else as json.loads decodes it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:  # missing, a directory, no permission
        raise ParseError(f"{path}: {exc.strerror}") from exc
    data = _ring_object(text)
    if data is None:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return data


def _ring_object(text: str) -> dict | None:
    """The JSON object that text holds, walked with json's own key and value decoders as
    json.loads walks it (a repeated key keeps its last value), with each "N" that _digit_cube
    takes as its cube. None, never an exception, for anything else: json.loads then decides the
    text and names what is wrong with it."""
    skip = WHITESPACE.match
    value_at = json.JSONDecoder().raw_decode
    data = {}
    try:
        pos = skip(text).end()
        if text[pos] != "{":
            return None
        pos = skip(text, pos + 1).end()
        if text[pos] != "}":
            while True:
                if text[pos] != '"':
                    return None
                key, pos = scanstring(text, pos + 1)
                pos = skip(text, pos).end()
                if text[pos] != ":":
                    return None
                pos = skip(text, pos + 1).end()
                digits = _digit_cube(text, pos) if key == "N" else None
                data[key], pos = value_at(text, pos) if digits is None else digits
                pos = skip(text, pos).end()
                if text[pos] != ",":
                    break
                pos = skip(text, pos + 1).end()
            if text[pos] != "}":
                return None
        return data if skip(text, pos + 1).end() == len(text) else None
    except (ValueError, IndexError, RecursionError):
        return None


_CHUNK = 2**20
_ZERO_DIGITS = bytes.maketrans(b"123456789", b"000000000")
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def _digit_cube(text: str, pos: int):
    """(cube, end) if the JSON value text[pos:end] is an r x r x r array of single decimal
    digits, else None; cube is the read-only uint8 array of their values.

    Decided in C-level passes over the text, with no Python int per entry: the value runs to
    the last "]" before the next quote; with JSON whitespace deleted, its digits each turned to
    0 must give the text of the all-zero cube of the rank its first row has. So every entry is
    one digit, and a sign, a point, an exponent, a leading zero, a literal, an empty slot or a
    space inside a number all fail. The whitespace is deleted a chunk at a time, so a long
    value is not copied whole.
    """
    stop = text.find('"', pos)
    end = text.rfind("]", pos, len(text) if stop < 0 else stop) + 1
    try:
        c = b"".join([text[i:min(i + _CHUNK, end)].encode("ascii").translate(None, b" \t\n\r")
                      for i in range(pos, end, _CHUNK)])
    except UnicodeEncodeError:
        return None
    r = c.count(b",", 0, c.find(b"]")) + 1
    # the cube's length, checked first so that its template is never built longer than c
    if not c.startswith(b"[[[") or len(c) != 2 * r**3 + 2 * r**2 + 2 * r + 1:
        return None
    row = b"[" + b"0," * (r - 1) + b"0]"
    plane = b"[" + b",".join([row] * r) + b"]"
    if c.translate(_ZERO_DIGITS) != b"[" + b",".join([plane] * r) + b"]":
        return None
    return np.frombuffer(c.translate(_DIGIT_VALUES, b"[],"), np.uint8).reshape(r, r, r), end


def load_ring(path) -> FusionRing:
    """Load, normalize (unit at 0, dual recomputed) and validate a ring file.
    The dual is recomputed at the file's own unit, so DualMismatch and a duality
    witness give indices in file order; relabel then moves the unit to index 0."""
    data = _read_json(path)
    ctx = str(path)
    rank = _require(data, "rank", int, ctx)
    labels = _require(data, "labels", list, ctx)
    unit = _require(data, "unit", int, ctx)
    N_raw = _require(data, "N", (list, np.ndarray), ctx)
    name = _require(data, "name", str, ctx) if "name" in data else ""
    if len(labels) != rank or not all(isinstance(s, str) for s in labels):
        raise ParseError(f"{ctx}: labels must be {rank} strings")
    if len(set(labels)) != rank:
        raise ParseError(f"{ctx}: labels must be distinct")
    if not 0 <= unit < rank:
        raise ParseError(f"{ctx}: unit index {unit} out of range")
    if isinstance(N_raw, list):  # as objects, so that a float or a boolean stays what it is
        try:
            N_raw = np.asarray(N_raw, dtype=object)
        except (ValueError, TypeError) as exc:
            raise ParseError(f"{ctx}: N is not a cubic integer array: {exc}") from exc
    if N_raw.shape != (rank, rank, rank):
        raise ParseError(f"{ctx}: N has shape {N_raw.shape}, expected cubic of rank {rank}")
    try:  # FusionRing below keeps the array this returns without a copy
        N = structure_constants(N_raw, rank)
    except ValueError as exc:
        raise ParseError(f"{ctx}: N entries must be nonnegative 64-bit integers") from exc
    del N_raw, data["N"]  # r^3 decoded values; validate below need not hold them
    declared = data.get("dual")
    if declared is not None:
        if (not isinstance(declared, list) or len(declared) != rank
                or not all(type(d) is int and 0 <= d < rank for d in declared)):
            raise ParseError(f"{ctx}: dual must be a permutation list of length {rank}")
    try:
        recomputed = dual_from_structure(N, unit)
    except (NoDual, AmbiguousDual) as exc:
        report = ValidationReport(valid=False,
                                  violations=[("duality", (getattr(exc, "index", 0),))])
        raise ValidationFailed(report) from exc
    if declared is not None and tuple(declared) != recomputed:
        raise DualMismatch(
            f"{ctx}: declared dual {declared} disagrees with structure dual {list(recomputed)}")
    ring = FusionRing(labels=tuple(labels), N=N, dual=recomputed, unit=unit, name=name)
    del N  # the ring holds it
    if unit != 0:
        ring = relabel(ring, [unit] + [i for i in range(rank) if i != unit], name=name)
    report = validate(ring)
    if not report.valid:
        raise ValidationFailed(report, ring=ring)
    return ring


def save_ring(ring: FusionRing, path) -> None:
    data = {
        "name": ring.name,
        "rank": ring.rank,
        "labels": list(ring.labels),
        "unit": ring.unit,
        "dual": list(ring.dual),
        "N": ring.N.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def load_smatrix(path, ring: FusionRing) -> ModularData:
    """Load an S-matrix file and validate it against the ring with modular_data.

    Rows and columns follow the ring as loaded: load_ring moves the unit to
    index 0, so S lists the unit first, then the other simples in file order.
    """
    data = _read_json(path)
    ctx = str(path)
    raw = _require(data, "S", list, ctx)
    r = ring.rank
    if len(raw) != r:
        raise DimensionMismatch(f"{ctx}: S has {len(raw)} rows, ring has rank {r}")
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != r:
            raise DimensionMismatch(f"{ctx}: S row {i} does not have {r} entries")
        if not _pairs(row):
            j = next(j for j, entry in enumerate(row) if not _pairs([entry]))
            raise ParseError(f"{ctx}: S[{i}][{j}] must be a [re, im] pair")
    try:  # (re, im) float64 pairs are the memory layout of complex128
        S = np.array(raw, dtype=np.float64).reshape(r, 2 * r).view(np.complex128)
    except OverflowError:  # a JSON integer that float() would round past the largest float64
        i, j = next((i, j) for i, row in enumerate(raw) for j, entry in enumerate(row)
                    if any(type(x) is int and abs(x) >= 2**1024 - 2**970 for x in entry))
        raise ParseError(f"{ctx}: S[{i}][{j}] is beyond the float64 range") from None
    return modular_data(ring, S)


def _pairs(row: list) -> bool:
    """Whether every entry of row is a [re, im] list of two JSON numbers, not booleans."""
    return (set(map(type, row)) <= {list} and set(map(len, row)) <= {2}
            and set(map(type, chain.from_iterable(row))) <= {int, float})


def save_smatrix(md: ModularData, path) -> None:
    data = {
        "ring": md.ring.name,
        "S": [[[float(z.real), float(z.imag)] for z in row] for row in md.S],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
