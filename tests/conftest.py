"""Shared catalog access for the test suite (cached: entries are immutable)."""

import sys
from functools import lru_cache

import numpy as np
import pytest

from fusionring import FusionRing, builtin, catalog, character_table, fp_character, is_commutative
from fusionring.catalog import all_builtin_names

ALL_NAMES = all_builtin_names()
COMMUTATIVE_NAMES = [n for n in ALL_NAMES if n != "vec_s3"]
MODULAR_NAMES = (["fibonacci", "ising"]
                 + [f"pointed_zn({n})" for n in range(1, 25)]
                 + [f"su2_k({k})" for k in range(1, 11)])
# a small cross-section used where a full sweep would only repeat itself
SAMPLE_NAMES = ["trivial", "fibonacci", "ising", "rep_s3", "rep_q8",
                "pointed_zn(5)", "pointed_zn(12)", "tambara_yamagami_zn(3)", "su2_k(4)"]


@lru_cache(maxsize=None)
def entry(name):
    return builtin(name)


def ring_of(name):
    return entry(name).ring


@lru_cache(maxsize=None)
def fp_of(name):
    return fp_character(ring_of(name))


@lru_cache(maxsize=None)
def table_of(name):
    return character_table(ring_of(name))


def commutative(name):
    return is_commutative(ring_of(name))


def wrap_ring():
    """Self-dual rank 3 ring, not associative; int64 sums of its products wrap around."""
    big = 2**32
    N = np.zeros((3, 3, 3), dtype=np.int64)
    N[0] = N[:, 0] = np.eye(3, dtype=np.int64)
    N[1, 1] = [1, 0, 1]
    N[1, 2] = N[2, 1] = [0, 1, big]
    N[2, 2] = [1, big, 0]
    return FusionRing(labels=("1", "a", "b"), N=N, dual=(0, 1, 2), name="wrap")


def count_calls(monkeypatch, fn):
    """Wrap fn at every binding in the fusionring modules; returns the list of calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "fusionring" or name.startswith("fusionring."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def fresh_catalog(monkeypatch):
    """An empty builtin cache for one test, restored after it: each builtin it asks for is built,
    validated and profiled anew, so a test counting that work sees it."""
    monkeypatch.setattr(catalog, "_ENTRIES", {})
