#!/usr/bin/env python3
"""Digest of the CLI's bytes on the benchmark's requests.

Every request of the three workloads of bench/workloads.py, at seeds 1-3, runs
through finitegap.cli.main in-process, and its exit code, stdout and stderr are
hashed: one sha256 per workload, so two source trees give the same digest
exactly when the CLI gives the same bytes on every request.  Run it against
each tree and compare the printed JSON:

    PYTHONPATH=src python3 scripts/cli_digest.py

The input files go to a temporary directory, whose name is masked in stderr,
and bench/workloads.py is imported without writing byte code next to it, so a
run leaves no file behind.  A request that raises is recorded by its exception,
as the benchmark records it, so failures are compared as well.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from finitegap import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDS = (1, 2, 3)


def _workloads():
    """bench/workloads.py as a module, imported without writing byte code."""
    sys.path.insert(0, str(BENCH))
    flag, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = flag
        sys.path.remove(str(BENCH))
    return workloads


def _run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def _digest(reqs, tmp):
    """sha256 over (exit code, stdout, stderr) of each request in turn, with the
    directory tmp of the input files masked."""
    h = hashlib.sha256()
    for req in reqs:
        code, out, err = _run(req.argv)
        h.update(json.dumps([code, out, err.replace(str(tmp), "<tmp>")]).encode() + b"\n")
    return h.hexdigest()


def main():
    workloads = _workloads()
    doc = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.BUILDERS:
            reqs = [r for seed in SEEDS
                    for r in workloads.build(name, seed, Path(tmp) / f"{name}-{seed}")]
            doc[name] = {"requests": len(reqs), "sha256": _digest(reqs, tmp)}
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
