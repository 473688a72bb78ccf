"""Rings outside the catalog for the modular_large workload, from closed-form rules.

The rules are written out here rather than taken from the library, so that
the benchmark's inputs do not depend on the code it measures:

- su2_k(k): truncated Clebsch-Gordan rules, l in i x j iff |i-j| <= l <=
  min(i+j, 2k-i-j) and l = i+j mod 2; S[a][b] = sqrt(2/(k+2)) sin(pi(a+1)(b+1)/(k+2)).
- pointed_zn(n): addition in Z_n; S[j][k] = exp(2 pi i jk/n) / sqrt(n).

`write_rung` permutes the basis (the unit stays at index 0) and writes the
ring and S-matrix JSON files that `fusionring modular --ring F --smatrix G` reads.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

import numpy as np

_RUNG_RE = re.compile(r"^(su2_k|pointed_zn)\((\d+)\)$")


def su2_k(k: int):
    r = k + 1
    N = np.zeros((r, r, r), dtype=np.int64)
    for i in range(r):
        for j in range(r):
            for l in range(abs(i - j), min(i + j, 2 * k - i - j) + 1, 2):
                N[i, j, l] = 1
    a = np.arange(r)
    S = math.sqrt(2.0 / (k + 2)) * np.sin(np.pi * np.outer(a + 1, a + 1) / (k + 2))
    return [str(i) for i in range(r)], N, S.astype(complex)


def pointed_zn(n: int):
    a = np.arange(n)
    N = np.zeros((n, n, n), dtype=np.int64)
    N[a[:, None], a[None, :], (a[:, None] + a[None, :]) % n] = 1
    S = np.exp(2j * np.pi * np.outer(a, a) / n) / math.sqrt(n)
    return ["1"] + [f"g{i}" for i in range(1, n)], N, S


def rung(name: str):
    """(labels, N, S) of a ladder rung such as 'su2_k(40)' or 'pointed_zn(64)'."""
    m = _RUNG_RE.match(name)
    if not m:
        raise ValueError(f"unknown ladder rung {name!r}")
    make = su2_k if m.group(1) == "su2_k" else pointed_zn
    return make(int(m.group(2)))


def unit_fixing_permutation(rank: int, rng: random.Random) -> list[int]:
    """perm[a] is the original index of the simple placed at index a; perm[0] = 0."""
    rest = list(range(1, rank))
    rng.shuffle(rest)
    return [0] + rest


def write_rung(name: str, perm: list[int] | None, directory: Path) -> tuple[Path, Path]:
    """Write the rung's ring and S-matrix files in the basis order `perm`."""
    labels, N, S = rung(name)
    if perm is not None:
        idx = np.asarray(perm)
        N = N[np.ix_(idx, idx, idx)]
        S = S[np.ix_(idx, idx)]
        labels = [labels[a] for a in perm]
    stem = re.sub(r"[^a-z0-9]+", "_", name).strip("_")
    ring_path = directory / f"{stem}.ring.json"
    s_path = directory / f"{stem}.S.json"
    with open(ring_path, "w", encoding="utf-8") as fh:
        json.dump({"name": name, "rank": len(labels), "labels": labels, "unit": 0,
                   "N": N.tolist()}, fh)
    pairs = np.stack([S.real, S.imag], axis=-1).tolist()
    with open(s_path, "w", encoding="utf-8") as fh:
        json.dump({"ring": name, "S": pairs}, fh)
    return ring_path, s_path
