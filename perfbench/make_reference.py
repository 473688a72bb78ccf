"""Regenerate the reference outputs in perfbench/reference/ from the current library.

    python3 perfbench/make_reference.py

Writes reference/analyze.jsonl (one `analyze --format json` report per
catalog ring) and reference/modular.json (the canonical `modular` report of
each ladder rung, in the unpermuted basis). Run it only on a commit whose
outputs are trusted: the benchmark counts every difference from these files
as a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import ladder  # noqa: E402
import oracle  # noqa: E402
from fusionring import catalog, cli  # noqa: E402


def _json_output(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {rc}")
    return json.loads(out.getvalue())


def main() -> None:
    oracle.REFERENCE_DIR.mkdir(exist_ok=True)
    with open(oracle.REFERENCE_DIR / "analyze.jsonl", "w", encoding="utf-8") as fh:
        for name in catalog.all_builtin_names():
            report = _json_output(["analyze", "--ring", name, "--format", "json"])
            fh.write(json.dumps({"name": name, "report": report}, separators=(",", ":")) + "\n")
    workdir = HERE / "work"
    workdir.mkdir(exist_ok=True)
    modular = {}
    for name in bench.LADDER + bench.TINY_LADDER:
        ring_path, s_path = ladder.write_rung(name, None, workdir)
        report = _json_output(["modular", "--ring", str(ring_path), "--smatrix", str(s_path),
                               "--format", "json"])
        modular[name] = oracle.canonical_modular(report)
    with open(oracle.REFERENCE_DIR / "modular.json", "w", encoding="utf-8") as fh:
        json.dump(modular, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
