"""The analyze and modular reports, and the theorem checks that analyze runs.

Each check is a function that raises InternalInconsistency when its theorem
fails on the ring. The two power checks certify the breadth-first profiles
instead of reusing them: they verify the profile levels of every simple by
local conditions on the edges of its digraph (_certify_profiles). Levels that
meet them are the first exponents of the powers, whatever search produced
them, so the checks need no search of their own and share no code with the
one in subcat: a wrong level, index or order fails a check rather than
agreeing with itself. The report and the checks read the levels, indices,
orders and faithfulness of all simples from the ring's profile table
(subcat.profile_table) as whole arrays, with no lookup per simple.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import grading, kernel, modular, spectral, subcat
from .errors import FusionRingError, InternalInconsistency
from .ring import FusionRing, blocks


def ring_block(ring: FusionRing, fp: spectral.FPData, commutative: bool) -> dict:
    return {
        "name": ring.name,
        "rank": ring.rank,
        "labels": list(ring.labels),
        "commutative": commutative,
        "fp_dims": dict(zip(ring.labels, fp.dims.tolist())),
        "global_dim": float(fp.global_dim),
    }


def chi_names(count: int) -> list[str]:
    """The names chi0, chi1, ... of the characters of a table, in the table's order."""
    return [f"chi{t}" for t in range(count)]


def character_block(ring: FusionRing, table: spectral.CharacterTable) -> dict:
    values = np.stack((table.characters.real, table.characters.imag), axis=-1).tolist()
    return {
        "labels": list(ring.labels),
        "characters": dict(zip(chi_names(table.count), values)),
        "codegrees": table.codegrees.tolist(),
        "fp_character": "chi0",
    }


def character_names(characters) -> list[str]:
    return sorted(f"chi{t}" for t in characters)


def named_rows(mask: np.ndarray) -> list[list[str]]:
    """Per row of a (simples x characters) mask, character_names of its characters.

    The names are sorted once, and each row picks its own from them in that order.
    """
    names = chi_names(mask.shape[1])
    order = sorted(range(len(names)), key=names.__getitem__)
    ordered = [names[t] for t in order]
    return [list(itertools.compress(ordered, row)) for row in mask[:, order].tolist()]


def spectral_data(ring, eps, seed):
    """(fp, table) of a ring; table is None when it is noncommutative."""
    fp, commutative = spectral.fp_character(ring), spectral.is_commutative(ring)
    return fp, spectral.character_table(ring, eps=eps, seed=seed) if commutative else None


# the local conditions under which the profile levels are the first exponents, in check order
LEVEL_CONDITIONS = ("the unit is not at level 0",
                    "an edge out of a member leaves the members",
                    "an edge climbs more than one level",
                    "a member other than the unit has no in-edge from one level down")


def _certify_profiles(ring: FusionRing):
    """Verify the breadth-first levels of every simple against ring.edges by local conditions.

    In the digraph of e_i (an edge u -> v when e_v is in e_i * e_u) take the
    profile table's levels l of e_i, its members those with l >= 0. If l(unit) = 0,
    every edge u -> v out of a member lands on a member with l(v) <= l(u) + 1, and
    every member but the unit has an in-edge from a member one level down, then
    l is the first exponent: a walk of length n from the unit ends on a member
    of level at most n, and a chain of parents gives a walk of length l(v). The
    members are then C(e_i), the period of its digraph is the gcd of the gaps
    l(u) + 1 - l(v) over the edges, and the unit first recurs at 1 + the least
    level of a member with an edge into it. Returns broken[c, i], true when
    simple i breaks LEVEL_CONDITIONS[c], with per simple that gcd and that
    return (0 if none). The edges are listed for a block of simples at a time.
    """
    r, unit = ring.rank, ring.unit
    level = subcat.profile_table(ring).level
    member = level >= 0
    broken = np.zeros((len(LEVEL_CONDITIONS), r), dtype=bool)
    broken[0] = level[:, unit] != 0
    parent = np.zeros((r, r), dtype=bool)  # parent[i, v]: an in-edge from one level below v
    parent[:, unit] = True
    period = np.zeros(r, dtype=np.int64)
    for gs in blocks(r, r * r):  # the edges out of members, for a block of simples
        edge = np.flatnonzero(ring.edges[gs] & member[gs, :, None]) + gs.start * r * r
        gu, v = np.divmod(edge, r)  # gu = g * r + u, the entry of level.ravel() at (g, u)
        g = gu // r
        head = level[g, v]
        gap = level.ravel()[gu] + 1 - head
        broken[1, g[head < 0]] = True
        broken[2, g[gap < 0]] = True
        tight = gap == 0
        parent[g[tight], v[tight]] = True
        np.gcd.at(period, g, gap)
    broken[3] = (member & ~parent).any(axis=1)
    returns = level.min(axis=1, initial=r, where=member & ring.edges[:, :, unit]) + 1
    return broken, period, np.where(returns > r, 0, returns)


def _raise_first(ring, broken, wrong, explain) -> None:
    """InternalInconsistency for the first simple that breaks a level condition or whose
    claim is wrong, naming the condition, else explain(i)."""
    fails = broken.any(axis=0) | wrong
    if fails.any():
        i = int(fails.argmax())
        why = LEVEL_CONDITIONS[int(broken[:, i].argmax())] if broken[:, i].any() else explain(i)
        raise InternalInconsistency(f"simple {ring.labels[i]}: {why}")


def brauer_equivalence(ring, table, kernels, faithful) -> None:
    """Faithful iff indecomposable iff, with a table, trivial kernel iff the powers cover the
    basis. kernels[i, t] says whether character t is in the kernel of e_i. Simples fail in
    order: check_brauer covers those before the first mismatch. The fusion matrices are
    the transposed pattern of ring.edges, which has every entry the criterion reads."""
    indecomposable = subcat.is_indecomposable_matrix(ring.edges.transpose(0, 2, 1))
    mismatch = indecomposable != faithful
    split = int(mismatch.argmax()) if mismatch.any() else ring.rank
    if table is not None:
        ours = kernels[:split]
        trivial = ours[:, table.fp_index] & (np.count_nonzero(ours, axis=1) == 1)
        kernel.check_brauer(ring, range(split), trivial.tolist())
    if split < ring.rank:
        raise InternalInconsistency(f"simple {ring.labels[split]}: faithful != indecomposable")


def power_residue_classes(ring, ind, certificate) -> None:
    """The profile levels of e_i are its first exponents, and ind(e_i) is the gcd of their
    gaps over its edges: every simple of C(e_i) occurs only at exponents congruent mod ind."""
    broken, period, _ = certificate
    _raise_first(ring, broken, period != ind, lambda i: (
        f"level gaps over its edges have gcd {period[i]}, object_index says {ind[i]}"))


def index_divides_order(ring, ind, certificate) -> None:
    """The certified first return of the unit is the profile table's order, and ind divides it."""
    broken, _, returns = certificate
    order = subcat.profile_table(ring).order
    _raise_first(ring, broken, (returns != order) | (order % ind != 0), lambda i: (
        f"unit first recurs in power {returns[i]}, object_order says {order[i]}"
        if returns[i] != order[i] else f"order {order[i]} not divisible by index {ind[i]}"))


def character_orthogonality(ring, table) -> str:
    """sum_t chi_t(i) conj(chi_t(j)) / codegree_t is the identity."""
    C = table.characters
    gram = np.einsum("t,ti,tj->ij", 1.0 / table.codegrees, C, C.conj())
    residual = float(np.abs(gram - np.eye(ring.rank)).max())
    if not residual < spectral.AGGREGATE_EPS:  # a NaN residual fails too
        raise InternalInconsistency(f"orthogonality residual {residual:g}")
    return f"max residual {residual:.2e}"


def _run_checks(ring, table, kernels, faithful) -> list[dict]:
    """One pass/fail entry per theorem check, named after its function."""
    ind = subcat.profile_table(ring).index
    certificate = _certify_profiles(ring)
    checks = [(brauer_equivalence, ring, table, kernels, faithful),
              (power_residue_classes, ring, ind, certificate),
              (index_divides_order, ring, ind, certificate)]
    if table is not None:
        checks.append((character_orthogonality, ring, table))
    entries = []
    for check, *args in checks:
        try:
            entries.append({"name": check.__name__, "passed": True, "detail": check(*args) or "ok"})
        except FusionRingError as exc:
            entries.append({"name": check.__name__, "passed": False, "detail": str(exc)})
    return entries


def analyze_report(ring: FusionRing, eps: float = spectral.DEFAULT_EPS,
                   seed: int = spectral.DEFAULT_SEED, checks: bool = True) -> dict:
    """The report of `fusionring analyze`: ring data, characters, one block per simple,
    and, when checks is set, the theorem checks (without them, no "checks" key)."""
    fp, table = spectral_data(ring, eps, seed)
    report: dict = {"ring": ring_block(ring, fp, table is not None)}
    if table is None:
        report["notice"] = "noncommutative Grothendieck ring: no character data"
    graded = grading.grade_rows(ring, range(ring.rank), fp, table, eps=eps, seed=seed)
    faithful = (subcat.profile_table(ring).level >= 0).all(axis=1).tolist()
    report["simples"] = [
        {"label": label, "faithful": f, "index": index, "order": order,
         "grading_character_checked": checked, "grading_components": components}
        for label, f, index, order, checked, components in zip(
            ring.labels, faithful, graded.index.tolist(), graded.order.tolist(), graded.checked,
            graded.components(ring.labels))]
    kernels = None
    if table is not None:  # the kernels and the centers of the simples, as two masks
        report["character_table"] = character_block(ring, table)
        kernels = kernel.fpdim_mask(fp, table, eps=eps)
        names = named_rows(np.concatenate((kernels, kernel.fpdim_mask(fp, table, eps=eps,
                                                                      modulus=True))))
        for block, kern, center in zip(report["simples"], names, names[ring.rank:]):
            block["kernel_characters"] = kern
            block["center_characters"] = center
    if checks:
        report["checks"] = _run_checks(ring, table, kernels, faithful)
    return report


def modular_report(md: modular.ModularData, eps: float = spectral.DEFAULT_EPS) -> dict:
    """The report of `fusionring modular`: the centralizer and projective centralizer
    of each simple, and the invertible simples, from validated modular data."""
    ring, labels = md.ring, md.ring.labels
    fp = spectral.fp_character(ring)
    inv = modular.invertibles(ring, fp, eps=eps)
    simples = range(ring.rank)
    cent = modular.centralizers(md, simples, eps=eps)
    proj = modular.projective_centralizers(md, simples, eps=eps)
    return {
        "ring": ring_block(ring, fp, spectral.is_commutative(ring)),
        "centralizers": {labels[i]: [labels[m] for m in cent[i].members] for i in simples},
        "projective_centralizers": {labels[i]: sorted(labels[m] for m in proj[i])
                                    for i in simples},
        "invertibles": sorted(labels[j] for j in inv),
        "verlinde_round_trip": True,  # modular_data raises unless it holds
    }
