"""One measured run of one workload, in a fresh process started by run.py.

Builds the workload's request list from the seed, then drives the CLI
in-process (`finitegap.cli.main(argv)`, stdout captured) as a closed loop:
one client, one thread, the next request sent when the previous one has
returned.  The whole list is one pass.  Every pass starts with the
program's lru caches cleared, so each pass does the work of a fresh process.

The last request of each kind runs first, untimed, as a warm-up (lazy
imports, first calls, first large allocations).  Timed passes follow while
the next one is expected to end within --seconds of timed work, and at
least MIN_PASSES of them.  The outputs of the first timed pass are checked
by the per-request checks in workloads.py, outside the timed region; every
later pass must reproduce them exactly.  Host-speed probes (probe.py) run
between requests, inside the pass but outside every request's latency, and
each latency is reported with the scale factor of the probes around it.
Prints one JSON document on stdout.
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import time
from pathlib import Path

import numpy as np

import probe
import workloads

MAX_REASONS = 5
MIN_PASSES = 2
PROBE_EVERY_S = 0.05


def _program_caches():
    from finitegap import abel, quad, spectral_set

    return {"spectral_set._harmonic_poly_coeffs": spectral_set._harmonic_poly_coeffs,
            "abel._abel_series": abel._abel_series, "quad._leggauss": quad._leggauss}


def _run_pass(reqs, main, tracer):
    """Send every request once, with a host-speed probe before the first
    request and then after any request that ends PROBE_EVERY_S or more after
    the last probe.  Returns (wall, latencies, scale factors, exit codes,
    outputs); a request's scale factor comes from the probes on either side
    of it (probe.py)."""
    lat, scales, codes, texts = [], [], [], []
    start = time.perf_counter()
    probes = [probe.probe()]
    last_probe = time.perf_counter()
    pending = 0  # requests since the last probe
    for i, req in enumerate(reqs):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(req.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed request, not a dead run
                code = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        lat.append(t1 - t0)
        codes.append(code if code == 0 else f"exit {code}: {err.getvalue().strip()}")
        texts.append(out.getvalue())
        pending += 1
        if t1 - last_probe >= PROBE_EVERY_S or i == len(reqs) - 1:
            probes.append(probe.probe())
            last_probe = time.perf_counter()
            scales.extend([probe.scale(probes[-2], probes[-1])] * pending)
            pending = 0
    return time.perf_counter() - start, lat, scales, codes, texts


def _check_first_pass(reqs, codes, texts):
    """Per-request checks; returns failure reasons by request index, and the
    reasons some outputs could not be checked."""
    outs = [json.loads(t) if c == 0 else None for c, t in zip(codes, texts)]
    reasons, unchecked = {}, []
    for i, (req, code, out) in enumerate(zip(reqs, codes, outs)):
        if code != 0:
            reasons[i] = code
            continue
        try:
            why = workloads.CHECKS[req.kind](req, out, outs)
        except Exception as exc:  # a check that cannot run counts as failed
            why = f"check raised {type(exc).__name__}: {exc}"
        if isinstance(why, workloads.Unchecked):
            unchecked.append(f"{req.kind} request {i}: {why}")
        elif why is not None:
            reasons[i] = why
    return reasons, unchecked


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(workloads.BUILDERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()

    from finitegap import cli

    reqs = workloads.build(args.workload, args.seed, args.workdir / "inputs")
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer(args.workdir / "spans.tsv")
        tracer.install()
    caches = _program_caches()

    # warm-up: the last request of each kind, untimed (lazy imports, first
    # calls).  The lists end with their largest N, so this also allocates
    # the largest arrays once: until the first of those is freed, the C
    # allocator maps each large array afresh, and measure-mc requests in
    # the first timed pass ran about 20 % slower than in later ones.
    last = {r.kind: r for r in reqs}
    _run_pass(list(last.values()), cli.main, None)
    if tracer is not None:
        tracer.discard()

    walls, lats, scales, reasons, layer = [], [], [], [], []
    failed = attempted = 0
    first = None  # outputs of the first timed pass
    while len(walls) < MIN_PASSES or sum(walls) + np.median(walls) <= args.seconds:
        for cache in caches.values():
            cache.cache_clear()
        gc.collect()
        wall, lat, scale, codes, texts = _run_pass(reqs, cli.main, tracer)
        walls.append(wall)
        lats.extend(lat)
        scales.extend(scale)
        if tracer is not None:
            layer.append(tracer.end_pass({k: c.cache_info() for k, c in caches.items()}))
        if first is None:
            first_bad, unchecked = _check_first_pass(reqs, codes, texts)
            if tracer is not None:
                tracer.discard()  # the checks call traced functions too
            first = texts
            bad = first_bad
        else:
            bad = {i: c if c != 0 else "output differs from the first pass"
                   for i, (c, t) in enumerate(zip(codes, texts)) if c != 0 or t != first[i]}
            bad = {**first_bad, **bad}  # a wrong output repeated is still wrong
        attempted += len(reqs)
        failed += len(bad)
        reasons.extend(f"{reqs[i].kind} request {i}: {why}" for i, why in sorted(bad.items()))

    doc = {
        "requests_per_pass": len(reqs),
        "passes": len(walls),
        "pass_wall_s": walls,
        "latency_s": lats,  # pass after pass, in request order
        "scale": scales,  # each latency's host-speed factor (probe.py)
        "sites_per_pass": sum(r.sites for r in reqs),
        "bundles_per_pass": len({r.bundle for r in reqs if r.bundle >= 0}),
        "mc_samples": [r.mc_samples for r in reqs],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons[:MAX_REASONS],
        "unchecked": unchecked,
    }
    if tracer is not None:
        doc["layers"] = {k: float(np.median([p[k] for p in layer])) for k in layer[0]}
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
