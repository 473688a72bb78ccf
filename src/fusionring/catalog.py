"""Built-in example fusion rings with modular data, and ring/S-matrix files.

Built-ins cover the standard small examples: group rings (pointed
categories), character rings of S3 and Q8, the Fibonacci and Ising rings,
Tambara-Yamagami rings over Z_n, and the su(2) level-k Verlinde rings.
Irrational constants are produced from exact expressions (sqrt, golden
ratio, sines of rational angles) at construction time. Each ring is validated
once; each S-matrix, built in or loaded, is checked once, by modular_data.

File formats (JSON, text):
  ring:     {"name": str, "rank": int, "labels": [str], "unit": int,
             "dual": [int] (optional), "N": [[[int]]]}
  S-matrix: {"ring": str, "S": [[[re, im], ...], ...]}
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import chain

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
from .ring import FusionRing, ValidationReport, dual_from_structure, validate

_POINTED_MAX = 24
_TY_MAX = 12
_SU2_MAX = 10


@dataclass
class CatalogEntry:
    name: str
    ring: FusionRing
    smatrix: ModularData | None
    notes: str


def _ring_from_table(labels, mult, name):
    """Group ring from a multiplication table mult(i, j) -> k."""
    r = len(labels)
    N = np.zeros((r, r, r), dtype=np.int64)
    for i in range(r):
        for j in range(r):
            N[i, j, mult(i, j)] = 1
    return FusionRing(labels=tuple(labels), N=N, dual=dual_from_structure(N, 0),
                      unit=0, name=name)


def _trivial():
    return _ring_from_table(["1"], lambda i, j: 0, "trivial")


def _pointed_zn(n):
    labels = [f"g{a}" for a in range(n)]
    labels[0] = "1"
    return _ring_from_table(labels, lambda i, j: (i + j) % n, f"pointed_zn({n})")


def _vec_s3():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1)]
    labels = ["e", "r", "rr", "s", "rs", "rrs"]
    compose = lambda p, q: tuple(p[q[x]] for x in range(3))
    index = {p: i for i, p in enumerate(perms)}
    return _ring_from_table(labels, lambda i, j: index[compose(perms[i], perms[j])], "vec_s3")


def _fibonacci():
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = 1
    N[1, 1, 0] = N[1, 1, 1] = 1
    return FusionRing(labels=("1", "tau"), N=N, dual=(0, 1), unit=0, name="fibonacci")


def _z2_plus_one(labels, m, name):
    # basis (1, a, X): a*a = 1, a*X = X*a = X, X*X = 1 + a + m X
    N = np.zeros((3, 3, 3), dtype=np.int64)
    for j in range(3):
        N[0, j, j] = 1
        N[j, 0, j] = 1
    N[1, 1, 0] = 1
    N[1, 2, 2] = N[2, 1, 2] = 1
    N[2, 2, 0] = N[2, 2, 1] = 1
    N[2, 2, 2] = m
    return FusionRing(labels=labels, N=N, dual=(0, 1, 2), unit=0, name=name)


def _ising():
    return _z2_plus_one(("1", "psi", "sigma"), 0, "ising")  # sigma*sigma = 1 + psi


def _rep_s3():
    return _z2_plus_one(("1", "eps", "V"), 1, "rep_s3")  # V*V = 1 + eps + V


def _rep_q8():
    # invertibles form Z2 x Z2; V*V is the sum of all invertibles
    labels = ("1", "a", "b", "ab", "V")
    N = np.zeros((5, 5, 5), dtype=np.int64)
    k4 = {(i, j): i ^ j for i in range(4) for j in range(4)}
    for i in range(4):
        for j in range(4):
            N[i, j, k4[(i, j)]] = 1
    for i in range(4):
        N[i, 4, 4] = N[4, i, 4] = 1
    for k in range(4):
        N[4, 4, k] = 1
    return FusionRing(labels=labels, N=N, dual=(0, 1, 2, 3, 4), unit=0, name="rep_q8")


def _tambara_yamagami_zn(n):
    # n invertibles a_0..a_{n-1} and one object m with m*m = sum of all a_i
    labels = tuple([f"a{i}" for i in range(n)] + ["m"])
    r = n + 1
    N = np.zeros((r, r, r), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            N[i, j, (i + j) % n] = 1
        N[i, n, n] = N[n, i, n] = 1
    for k in range(n):
        N[n, n, k] = 1
    return FusionRing(labels=labels, N=N, dual=dual_from_structure(N, 0), unit=0,
                      name=f"tambara_yamagami_zn({n})")


def _su2_k(k):
    # truncated Clebsch-Gordan: l in i (x) j iff |i-j| <= l <= min(i+j, 2k-i-j),
    # l = i + j (mod 2); labels are twice the spin
    r = k + 1
    N = np.zeros((r, r, r), dtype=np.int64)
    for i in range(r):
        for j in range(r):
            for l in range(abs(i - j), min(i + j, 2 * k - i - j) + 1, 2):
                N[i, j, l] = 1
    return FusionRing(labels=tuple(str(i) for i in range(r)), N=N,
                      dual=tuple(range(r)), unit=0, name=f"su2_k({k})")


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


_PLAIN = {
    "trivial": (_trivial, None, "one simple object; the unit ring"),
    "fibonacci": (_fibonacci, _fibonacci_smatrix, "tau * tau = 1 + tau (golden ratio object)"),
    "ising": (_ising, _ising_smatrix, "sigma * sigma = 1 + psi, psi * psi = 1"),
    "rep_s3": (_rep_s3, None, "character ring of the symmetric group S3"),
    "rep_q8": (_rep_q8, None, "character ring of the quaternion group Q8"),
    "vec_s3": (_vec_s3, None, "group ring of S3 (noncommutative)"),
}

_PARAMETRIC = {
    "pointed_zn": (_pointed_zn, _pointed_zn_smatrix, _POINTED_MAX,
                   "group ring of Z_n; S from the standard pairing"),
    "tambara_yamagami_zn": (_tambara_yamagami_zn, None, _TY_MAX,
                            "Z_n invertibles plus one object of dimension sqrt(n)"),
    "su2_k": (_su2_k, _su2_k_smatrix, _SU2_MAX,
              "su(2) level-k Verlinde ring, truncated Clebsch-Gordan rules"),
}

_NAME_RE = re.compile(r"^([a-z0-9_]+)\((\d+)\)$")


def all_builtin_names() -> list[str]:
    names = list(_PLAIN)
    for family, (_, _, top, _) in _PARAMETRIC.items():
        names.extend(f"{family}({n})" for n in range(1, top + 1))
    return names


def builtin(name: str) -> CatalogEntry:
    """Construct the named built-in entry; raises UnknownName otherwise."""
    if name in _PLAIN:
        make_ring, make_s, notes = _PLAIN[name]
        param = None
    else:
        m = _NAME_RE.match(name)
        if not m or m.group(1) not in _PARAMETRIC:
            raise UnknownName(f"no built-in named {name!r}; see list-builtins")
        family, param = m.group(1), int(m.group(2))
        make_ring, make_s, top, notes = _PARAMETRIC[family]
        if not 1 <= param <= top:
            raise UnknownName(f"{family} parameter must be in 1..{top}, got {param}")
    ring = make_ring() if param is None else make_ring(param)
    report = validate(ring)
    if not report.valid:
        raise ValidationFailed(report)
    md = None
    if make_s is not None:
        S = make_s() if param is None else make_s(param)
        md = modular_data(ring, S)
    return CatalogEntry(name=name, ring=ring, smatrix=md, notes=notes)


def _require(data: dict, key: str, kind, context: str):
    if key not in data:
        raise ParseError(f"{context}: missing field {key!r}")
    value = data[key]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ParseError(f"{context}: field {key!r} has the wrong type")
    return value


def _read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return data


def load_ring(path) -> FusionRing:
    """Load, normalize (unit at 0, dual recomputed) and validate a ring file."""
    data = _read_json(path)
    ctx = str(path)
    rank = _require(data, "rank", int, ctx)
    labels = _require(data, "labels", list, ctx)
    unit = _require(data, "unit", int, ctx)
    N_raw = _require(data, "N", list, ctx)
    name = _require(data, "name", str, ctx) if "name" in data else ""
    if len(labels) != rank or not all(isinstance(s, str) for s in labels):
        raise ParseError(f"{ctx}: labels must be {rank} strings")
    if len(set(labels)) != rank:
        raise ParseError(f"{ctx}: labels must be distinct")
    if not 0 <= unit < rank:
        raise ParseError(f"{ctx}: unit index {unit} out of range")
    try:
        N = np.asarray(N_raw, dtype=object)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{ctx}: N is not a cubic integer array: {exc}") from exc
    if N.shape != (rank, rank, rank):
        raise ParseError(f"{ctx}: N has shape {N.shape}, expected cubic of rank {rank}")
    # type() and not isinstance(): JSON true/false must not pass as 1/0
    integers = set(map(type, N.ravel())) <= {int}
    if integers:
        try:
            N = N.astype(np.int64)
        except OverflowError:  # a Python int outside int64
            integers = False
    if not integers or (N.size and N.min() < 0):
        raise ParseError(f"{ctx}: N entries must be nonnegative 64-bit integers")
    declared = data.get("dual")
    if declared is not None:
        if (not isinstance(declared, list) or len(declared) != rank
                or not all(type(d) is int and 0 <= d < rank for d in declared)):
            raise ParseError(f"{ctx}: dual must be a permutation list of length {rank}")

    if unit != 0:
        perm = [unit] + [i for i in range(rank) if i != unit]
        inv = {a: p for p, a in enumerate(perm)}
        idx = np.asarray(perm)
        N = N[np.ix_(idx, idx, idx)]
        labels = [labels[a] for a in perm]
        if declared is not None:
            declared = [inv[declared[a]] for a in perm]

    try:
        recomputed = dual_from_structure(N, 0)
    except (NoDual, AmbiguousDual) as exc:
        report = ValidationReport(valid=False,
                                  violations=[("duality", (getattr(exc, "index", 0),))])
        raise ValidationFailed(report) from exc
    if declared is not None and tuple(declared) != recomputed:
        raise DualMismatch(
            f"{ctx}: declared dual {declared} disagrees with structure dual {list(recomputed)}")
    ring = FusionRing(labels=tuple(labels), N=N, dual=recomputed, unit=0, name=name)
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
    # (re, im) float64 pairs are the memory layout of complex128
    S = np.array(raw, dtype=np.float64).reshape(r, 2 * r).view(np.complex128)
    return modular_data(ring, S)


def _pairs(row: list) -> bool:
    """Whether every entry of row is a [re, im] list of two JSON numbers, not booleans."""
    return (set(map(type, row)) <= {list} and set(map(len, row)) <= {2}
            and set(map(type, chain.from_iterable(row))) <= {int, float})


def save_smatrix(md: ModularData, path, ring_name: str = "") -> None:
    data = {
        "ring": ring_name or md.ring.name,
        "S": [[[float(z.real), float(z.imag)] for z in row] for row in md.S],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
