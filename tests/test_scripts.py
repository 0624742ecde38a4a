"""Smoke tests of the experiment scripts, run in-process on the two-gap
fixture with small sizes."""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "src" / "finitegap" / "fixtures" / "n2_asymmetric.json"


def _run(script, args, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script, "--input", str(FIXTURE), *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
    assert exc.value.code == 0
    return capsys.readouterr().out.splitlines()


def test_almost_periodicity_scan(monkeypatch, capsys):
    lines = _run("almost_periodicity_scan.py",
                 ["--window", "20", "--length", "60", "--delta", "0.1"], monkeypatch, capsys)
    assert lines[0].startswith("frequencies: [")
    assert lines[1].split() == ["n", "torus_distance", "sup_discrepancy", "ratio"]
    rows = [line.split() for line in lines[2:]]
    assert rows, "expected a near-period below torus distance 0.1"
    dists = [float(r[1]) for r in rows]
    assert dists == sorted(dists) and dists[-1] < 0.1
    for n, dist, sup, _ in rows:
        assert 1 <= int(n) <= 40
        # the discrepancy tracks the torus distance (criterion 12)
        assert float(sup) <= 20.0 * float(dist)


def test_invariant_measure_compare(monkeypatch, capsys):
    lines = _run("invariant_measure_compare.py", ["--mc-samples", "2000", "--orbit-steps", "50"],
                 monkeypatch, capsys)
    values = {line.split(":")[0].strip(): line.split(":")[1].split() for line in lines}
    exact = float(values["determinant formula"][0])
    freq = float(values["orbit frequency"][0])
    assert 0.0 < exact < 1.0
    assert 0.0 <= freq <= 1.0
    assert float(values["mc deviation"][0]) < 5.0


def test_truncation_flow(monkeypatch, capsys):
    lines = _run("truncation_flow.py", ["--n-max", "32"], monkeypatch, capsys)
    assert lines[0].startswith("comb teeth (omega, h): [")
    delta0 = lines[1].split()[2]
    assert lines[2].split() == ["n", "teeth", "Delta_n(0)", "kernel", "k_n(0)"]
    rows = [line.split() for line in lines[3:]]
    assert [int(r[0]) for r in rows] == [2, 8, 32, 10**15]
    deltas = [float(r[2]) for r in rows]
    assert all(b <= a for a, b in zip(deltas, deltas[1:]))
    assert rows[-1][2] == delta0
    # eps = -1 at the critical points is the upper envelope k_n(0) = 1
    assert all(r[3] == "1.0000000000" for r in rows)


def test_output_digest_groups():
    # the digest script's four groups on one N = 2 set, so a signature change that
    # breaks it fails here as well as in its own full sweep
    digest = runpy.run_path(str(ROOT / "scripts" / "output_digest.py"), run_name="digest")
    gs = digest["_set"](np.random.default_rng([2, 0]), 2, 1.0, 0.0)
    geometry, divisors, windows, resolvents = [], [], [], []
    digest["_geometry"](gs, np.random.default_rng([2, 0, 1]), 1e-12, geometry)
    starts = digest["_starts"](gs, np.random.default_rng([2, 3]))
    assert digest["_divisors"](gs, starts, 128, divisors) == 40
    digest["_windows"](gs, starts, 128, windows)
    digest["_resolvents"](gs, starts, resolvents)
    # per start, T's four centred coefficients, p0^2 and q0
    assert len(resolvents) == 4 * 6
    for out in (geometry, divisors, windows, resolvents):
        assert out and not any(line.startswith("error:") for line in out)


def test_cli_digest_slice(tmp_path):
    # one request of each kind of each workload through the digest's in-process run: each
    # exits 0, and the digest repeats
    digest = runpy.run_path(str(ROOT / "scripts" / "cli_digest.py"), run_name="digest")
    workloads = digest["_workloads"]()
    for name in workloads.BUILDERS:
        kinds = {}
        for req in workloads.build(name, 1, tmp_path / name):
            kinds.setdefault(req.kind, req)
        reqs = list(kinds.values())
        assert [digest["_run"](req.argv)[0] for req in reqs] == [0] * len(reqs)
        first = digest["_digest"](reqs, tmp_path)
        assert len(first) == 64 and first == digest["_digest"](reqs, tmp_path)
