"""The analyze and modular reports, and the theorem checks that analyze runs.

Each check is a function that raises InternalInconsistency when its theorem
fails on the ring. The two power checks read a support sweep of their own
(_power_sweep), not the breadth-first profiles they verify, so they test
those profiles instead of reusing them.
"""

from __future__ import annotations

import numpy as np

from . import grading, kernel, modular, spectral, subcat
from .errors import FusionRingError, InternalInconsistency
from .ring import FusionRing


def ring_block(ring: FusionRing, fp: spectral.FPData, commutative: bool) -> dict:
    return {
        "name": ring.name,
        "rank": ring.rank,
        "labels": list(ring.labels),
        "commutative": commutative,
        "fp_dims": dict(zip(ring.labels, fp.dims.tolist())),
        "global_dim": float(fp.global_dim),
    }


def character_block(ring: FusionRing, table: spectral.CharacterTable) -> dict:
    values = np.stack((table.characters.real, table.characters.imag), axis=-1).tolist()
    return {
        "labels": list(ring.labels),
        "characters": {f"chi{t}": row for t, row in enumerate(values)},
        "codegrees": table.codegrees.tolist(),
        "fp_character": "chi0",
    }


def character_names(characters) -> list[str]:
    return sorted(f"chi{t}" for t in characters)


def spectral_data(ring, eps, seed):
    """(fp, table) of a ring; table is None when it is noncommutative."""
    fp, commutative = spectral.fp_character(ring), spectral.is_commutative(ring)
    return fp, spectral.character_table(ring, eps=eps, seed=seed) if commutative else None


def _power_sweep(ring: FusionRing, ind: list[int]):
    """Support sweep over the powers of all simples at once, exact as N >= 0.

    Step n takes, for every simple e_i still swept, the support of e_i^n from
    the one before: e_k is in it when N[i][j][k] > 0 for some j in that
    support, a gather of the rows of those (i, j) pairs, scattered into one
    boolean matrix. Simple i is swept until the first step whose support holds
    no simple absent from its earlier powers, at most rank steps: every later
    support lies in the simples seen, so every first exponent is known. The
    least residue clash is one step past the first exponent of some simple,
    and the first unit return one step past that of a simple with an edge to
    the unit, so both show by then. Returns the (generator, simple, exponent,
    later exponent) least in (later exponent, generator, simple) whose
    exponents differ by a non-multiple of ind, or None, and per simple the
    least n >= 1 whose power holds the unit (0 if none).
    """
    r, unit, p = ring.rank, ring.unit, np.asarray(ind, dtype=np.int64)
    edges = ring.edges  # the pattern the profiles search too; the stepping below is the sweep's own
    supp = np.zeros((r, r), dtype=bool)  # supp[row]: that of e_swept[row]^n
    supp[:, unit] = True
    first = np.full((r, r), -1)  # first[i, k]: least n with e_k in e_i^n
    first[:, unit] = 0
    clash, returns = None, np.zeros(r, dtype=np.int64)
    swept, n = np.arange(r), 0
    while swept.size:
        n += 1
        pos, j = supp.nonzero()
        pair, k = edges[swept[pos], j].nonzero()
        supp = np.zeros((swept.size, r), dtype=bool)
        supp[pos[pair], k] = True
        seen = first[swept]
        new = supp & (seen < 0)
        seen[new] = n
        first[swept] = seen
        returns[swept[(returns[swept] == 0) & supp[:, unit]]] = n
        if clash is None:
            bad = np.argwhere(supp & ((n - seen) % p[swept, None] != 0))
            if bad.size:
                row, k = bad[0].tolist()
                clash = (int(swept[row]), k, int(seen[row, k]), n)
        grew = new.any(axis=1)
        swept, supp = swept[grew], supp[grew]
    return clash, returns


def brauer_equivalence(ring, table, kernels, faithful) -> None:
    """Faithful iff indecomposable iff, with a table, trivial kernel iff the powers cover the
    basis. Simples fail in order: check_brauer covers those before the first mismatch."""
    indecomposable = subcat.is_indecomposable_matrix(ring.N.transpose(0, 2, 1))
    split = next((i for i in range(ring.rank) if faithful[i] != indecomposable[i]), ring.rank)
    if table is not None:
        kernel.check_brauer(ring, range(split), [k == {table.fp_index} for k in kernels[:split]])
    if split < ring.rank:
        raise InternalInconsistency(f"simple {ring.labels[split]}: faithful != indecomposable")


def power_residue_classes(ring, ind, clash) -> None:
    """Every simple in the powers of e_i occurs only at exponents congruent mod ind(e_i)."""
    if clash is not None:
        i, k, m, n = clash
        raise InternalInconsistency(
            f"simple {ring.labels[k]} occurs in powers of {ring.labels[i]} at exponents "
            f"{m} and {n}, not congruent mod {ind[i]}")


def index_divides_order(ring, ind, returns) -> None:
    """The sweep's first return of the unit is object_order, and ind divides it."""
    for i in range(ring.rank):
        order = grading.object_order(ring, i)
        if returns[i] != order:
            raise InternalInconsistency(
                f"simple {ring.labels[i]}: unit first recurs in power {returns[i]}, "
                f"object_order says {order}")
        if order % ind[i]:
            raise InternalInconsistency(
                f"simple {ring.labels[i]}: order {order} not divisible by index {ind[i]}")


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
    ind = [grading.object_index(ring, i) for i in range(ring.rank)]
    clash, returns = _power_sweep(ring, ind)
    checks = [(brauer_equivalence, ring, table, kernels, faithful),
              (power_residue_classes, ring, ind, clash),
              (index_divides_order, ring, ind, returns)]
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
    simples = range(ring.rank)
    gradings = grading.grade_simples(ring, simples, fp, table, eps=eps, seed=seed)
    faithful = [subcat.is_faithful(ring, i) for i in simples]
    report["simples"] = [
        {"label": ring.labels[i], "faithful": faithful[i], "index": grad.index,
         "order": grad.order, "grading_character_checked": grad.character_checked,
         "grading_components": [[ring.labels[m] for m in comp] for comp in grad.components]}
        for i, grad in enumerate(gradings)]
    kernels = None
    if table is not None:  # the support matrix of the simples is the identity
        report["character_table"] = character_block(ring, table)
        kernels, centers = (kernel.characters_at_fpdim(fp, table, np.eye(ring.rank), eps, modulus)
                            for modulus in (False, True))
        for block, kern, center in zip(report["simples"], kernels, centers):
            block["kernel_characters"] = character_names(kern)
            block["center_characters"] = character_names(center)
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
