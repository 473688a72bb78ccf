"""Workloads, timing and metrics of the fusionring benchmark (see README.md).

Every item is one in-process call of `fusionring.cli.main` with stdout
captured; its output is checked by `oracle` against the stored references.
An untraced run reports the end-to-end metrics; a traced run (trace=True)
reports per-layer metrics from `spans.Tracer`.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import os
import platform
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import ladder
import oracle
import spans

ROOT = Path(__file__).resolve().parent.parent

LADDER = ("su2_k(40)", "pointed_zn(48)", "pointed_zn(64)")
TINY_LADDER = ("su2_k(6)", "pointed_zn(8)")
TINY_CATALOG = ("fibonacci", "ising", "rep_s3", "vec_s3", "pointed_zn(4)", "su2_k(3)")
TINY_QUERIES = 12

#: set-up repetitions in one run; setup_s is their median
SETUP_REPEATS = 5
#: items needed before latency_p90_ms has ten samples beyond it
TAIL_ITEMS = 100
#: queries in the traced run of query_mix, a fixed prefix of the seeded stream
TRACED_QUERIES = 300


@dataclass
class Item:
    argv: list[str]
    check: Callable[[int, str], str | None]


@dataclass
class Inputs:
    """A workload's items; the run takes them cyclically, `chunk` at a time."""

    items: list[Item]
    chunk: int
    min_items: int
    traced: list[Item]


def _analyze_catalog(seed: int, tiny: bool, workdir: Path) -> Inputs:
    refs = oracle.load_analyze_reference()
    names = list(TINY_CATALOG if tiny else refs)
    random.Random(seed).shuffle(names)
    items = [Item(["analyze", "--ring", n, "--format", "json"],
                  lambda rc, out, ref=refs[n]: oracle.check_analyze(ref, rc, out))
             for n in names]
    # whole passes keep the mix of small and large rings the same in every run
    return Inputs(items, chunk=len(items), min_items=1 if tiny else TAIL_ITEMS, traced=items)


def _valid_queries(refs: dict[str, dict]) -> list[tuple[str, str, str]]:
    """(kind, ring, label) for every query the CLI answers on a catalog ring."""
    queries = []
    for name, report in refs.items():
        kinds = ("kernel", "grading", "brauer") if report["ring"]["commutative"] else ("grading",)
        queries.extend((kind, name, label)
                       for label in report["ring"]["labels"] for kind in kinds)
    return queries


def _query_mix(seed: int, tiny: bool, workdir: Path) -> Inputs:
    refs = oracle.load_analyze_reference()
    queries = _valid_queries(refs)
    random.Random(seed).shuffle(queries)
    if tiny:
        queries = queries[:TINY_QUERIES]
    items = [Item([kind, "--ring", ring, "--object", label, "--format", "json"],
                  lambda rc, out, k=kind, lab=label, ref=refs[ring]:
                  oracle.check_query(k, lab, ref, rc, out))
             for kind, ring, label in queries]
    return Inputs(items, chunk=1, min_items=1 if tiny else TAIL_ITEMS,
                  traced=items[:TRACED_QUERIES])


def _modular_large(seed: int, tiny: bool, workdir: Path) -> Inputs:
    refs = oracle.load_modular_reference()
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    items = []
    for name in TINY_LADDER if tiny else LADDER:
        rank = len(refs[name]["ring"]["labels"])
        ring_path, s_path = ladder.write_rung(
            name, ladder.unit_fixing_permutation(rank, rng), workdir)
        items.append(Item(["modular", "--ring", str(ring_path), "--smatrix", str(s_path),
                           "--format", "json"],
                          lambda rc, out, ref=refs[name]: oracle.check_modular(ref, rc, out)))
    return Inputs(items, chunk=len(items), min_items=1, traced=items)


INPUT_MAKERS = {
    "analyze_catalog": _analyze_catalog,
    "query_mix": _query_mix,
    "modular_large": _modular_large,
}
WORKLOADS = tuple(INPUT_MAKERS)


def _library_module_names() -> list[str]:
    return [m for m in sys.modules
            if m == spans.PACKAGE or m.startswith(spans.PACKAGE + ".")]


@contextlib.contextmanager
def rotating_cpu():
    """Yield a function that moves this thread to the next CPU it may use.

    Timed runs call it before every set-up and item. The CPUs of a shared
    virtual machine are slowed by other tenants independently of each other
    and for tens of seconds at a time, so a run that stays on one CPU takes
    that CPU's state for the whole run. Rotating averages over all of them,
    which narrows the spread between runs. The affinity is restored on exit.
    """
    cpus = sorted(os.sched_getaffinity(0))
    turn = itertools.cycle(cpus)
    try:
        yield lambda: os.sched_setaffinity(0, {next(turn)})
    finally:
        os.sched_setaffinity(0, cpus)


def setup(workload: str, seed: int, tiny: bool, workdir: Path, next_cpu: Callable[[], None]):
    """Import the library afresh and build the inputs, SETUP_REPEATS times.

    Returns (cli module, inputs, median seconds of one import plus build).
    """
    times = []
    for _ in range(SETUP_REPEATS):
        next_cpu()
        for name in _library_module_names():
            del sys.modules[name]
        t0 = perf_counter()
        cli = importlib.import_module(f"{spans.PACKAGE}.cli")
        inputs = INPUT_MAKERS[workload](seed, tiny, workdir)
        times.append(perf_counter() - t0)
    return cli, inputs, statistics.median(times)


def run_item(cli, item: Item) -> tuple[float, str | None]:
    """Seconds spent in `cli.main`, and why the output is wrong (None if right)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(item.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an item that raises is counted as failed; the run goes on
        return perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    problem = item.check(rc, out.getvalue())
    if problem and err.getvalue():
        problem += f" ({err.getvalue().strip().splitlines()[-1]})"
    return elapsed, problem


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def record(self, item: Item, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.problems.append(f"{' '.join(item.argv[:3])}: {problem}")


def measure(cli, inputs: Inputs, seconds: float, outcome: Outcome,
            next_cpu: Callable[[], None]) -> list[float]:
    """Run whole chunks of items until `seconds` have passed and min_items are done."""
    latencies: list[float] = []
    pos = 0
    t0 = perf_counter()
    while True:
        for _ in range(inputs.chunk):
            item = inputs.items[pos % len(inputs.items)]
            pos += 1
            next_cpu()
            dt, problem = run_item(cli, item)
            latencies.append(dt)
            outcome.record(item, problem)
        if len(latencies) >= inputs.min_items and perf_counter() - t0 >= seconds:
            return latencies


def end_to_end(cli, inputs: Inputs, seconds: float, setup_s: float, outcome: Outcome,
               next_cpu: Callable[[], None]) -> dict:
    latencies = measure(cli, inputs, seconds, outcome, next_cpu)
    p50, p90 = np.percentile(latencies, [50, 90])
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (float(p50) * 1e3, "ms"),
        "latency_p90_ms": (float(p90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (1.0 - len(outcome.problems) / outcome.attempted, "ratio"),
    }


def _units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def per_layer(cli, inputs: Inputs, outcome: Outcome, trace_path: Path | None, meta: dict) -> dict:
    """A traced pass over the traced items between two untraced ones; metrics from the spans.

    The tracing overhead is the traced pass's wall time minus the mean of the
    untraced passes, which brackets it so that warm-up and drift cancel.
    """

    def untraced_pass() -> float:
        t0 = perf_counter()
        for item in inputs.traced:
            outcome.record(item, run_item(cli, item)[1])
        return perf_counter() - t0

    before = untraced_pass()
    tracer = spans.Tracer()
    with tracer:
        t0 = perf_counter()
        for k, item in enumerate(inputs.traced):
            tracer.item_id = k
            outcome.record(item, run_item(cli, item)[1])
        traced = perf_counter() - t0
    after = untraced_pass()
    metrics = tracer.summary()
    metrics["trace.overhead_s"] = traced - (before + after) / 2
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.save(trace_path, meta)
    return {name: (value, _units(name)) for name, value in metrics.items()}


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path = ROOT) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / spans.PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(root),
        "src_sha256": digest.hexdigest(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
        workdir: Path | None = None, trace_dir: Path | None = None):
    """Set up and run one workload; returns (result object, environment, problems).

    The library modules imported afresh during set-up are removed again on
    return, so a caller that imported fusionring keeps its own modules.
    """
    workdir = workdir or ROOT / "perfbench" / "work"
    saved = {name: sys.modules[name] for name in _library_module_names()}
    env = environment()
    outcome = Outcome()
    try:
        # the traced run stays where the scheduler puts it; its spans are not bounded
        with contextlib.nullcontext(lambda: None) if trace else rotating_cpu() as next_cpu:
            cli, inputs, setup_s = setup(workload, seed, tiny, workdir, next_cpu)
            if trace:
                path = None if trace_dir is None else trace_dir / f"{workload}-seed{seed}.npz"
                metrics = per_layer(cli, inputs, outcome, path,
                                    {"workload": workload, "seed": seed, **env})
            else:
                metrics = end_to_end(cli, inputs, seconds, setup_s, outcome, next_cpu)
    finally:
        for name in _library_module_names():
            del sys.modules[name]
        sys.modules.update(saved)
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": len(outcome.problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, env, outcome.problems
