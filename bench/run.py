#!/usr/bin/env python3
"""finitegap benchmark: three CLI workloads driven in-process.

    python3 bench/run.py --workload {coeffs,torus,geometry} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/` and the Stieltjes oracle from `tests/`, nothing is installed.  The
run first times fresh interpreters that import `finitegap.cli` (setup_s),
then starts the workload in a fresh worker process (bench/worker.py) with
BLAS pinned to one thread.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it runs the workload once untraced and once traced
(half of --seconds each, each in a fresh worker) and reports the per-layer
metrics and the tracing overhead.  Reported times are scaled to a
reference host speed: request times by the probe in bench/probe.py, setup_s
by spawns of a fixed reference import.  The summary also gives them
unscaled.  See bench/LAYERS.md for what each metric should move.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Lines before it are a readable summary that also gives failed_frac
and the workload-specific name of the throughput metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.stats.mstats import hdquantiles

import probe
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("coeffs", "torus", "geometry")
THROUGHPUT = {"coeffs": ("sites_per_s", "coefficient sites"),
              "torus": ("mc_samples_per_s", "Monte-Carlo characters over measure-mc requests"),
              "geometry": ("sets_per_s", "gap-system bundles")}
SETUP_SPAWNS = 7
# set-up is scaled to reference host speed by spawns of a fixed import: the
# probe (probe.py) tracks an import's time too loosely (LAYERS.md).
# REF_IMPORT_S is REF_IMPORT's median spawn time on the host the benchmark
# was sized on.
REF_IMPORT = "import numpy, mpmath"
REF_IMPORT_S = 0.165
DEADLINE_S = 170.0  # every run must end within 180 s


def _env():
    env = dict(os.environ)
    env.pop("WIDOMSPEC_PREC", None)  # the requests set --prec themselves
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn_seconds(env, code):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    return time.perf_counter() - t0


def _setup_seconds(env):
    """Fresh interpreters importing the CLI, each followed by one running
    REF_IMPORT, a fixed import the program cannot change.  Returns the CLI
    spawns' median scaled by REF_IMPORT_S / the reference spawns' median,
    and the unscaled median.  One warm-up pair runs first, so byte-code
    compilation is not counted."""
    cli, ref = [], []
    for i in range(SETUP_SPAWNS + 1):
        t_cli = _spawn_seconds(env, "import finitegap.cli")
        t_ref = _spawn_seconds(env, REF_IMPORT)
        if i:
            cli.append(t_cli)
            ref.append(t_ref)
    raw = statistics.median(cli)
    return raw * REF_IMPORT_S / statistics.median(ref), raw


def _worker(env, args, seconds, trace, workdir, deadline):
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _per_request(run, key="scaled"):
    """Each request's latency, as its median over the timed passes: scaled to
    reference host speed (probe.py), or raw."""
    lat = np.reshape(run["latency_s"], (run["passes"], -1))
    if key == "scaled":
        lat = lat * np.reshape(run["scale"], lat.shape)
    return np.median(lat, axis=0)


def _quantiles(values, probs=(0.5, 0.9)):
    """Harrell-Davis estimates of the quantiles: a weighted mean of all order
    statistics, with beta weights centred on each quantile.  The request
    list mixes requests whose costs differ in steps (by gap count and kind),
    and a single order statistic jumps from one step to the next when the
    seed moves a few requests across it; the weighted mean moves smoothly."""
    return [float(q) for q in hdquantiles(values, prob=list(probs))]


def _end_to_end(workload, setup_s, run):
    """wall_s is the pass that the per-request medians add up to."""
    lat = _per_request(run)
    wall = float(lat.sum())
    p50, p90 = _quantiles(1e3 * lat)
    if workload == "coeffs":
        work = run["sites_per_pass"] / wall
    elif workload == "torus":
        samples = np.asarray(run["mc_samples"])
        work = samples.sum() / lat[samples > 0].sum()
    else:
        work = run["bundles_per_pass"] / wall
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "req_p50_ms": (p50, "ms"),
        "req_p90_ms": (p90, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "work_per_s": (work, "1/s"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "finitegap" / "cli.py").is_file() or not (
            ROOT / "tests" / "oracle_stieltjes.py").is_file():
        sys.exit(f"no finitegap source tree (src/finitegap, tests/) under {ROOT}")

    deadline = time.monotonic() + DEADLINE_S
    env = _env()
    work_root = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}"
    if args.trace:
        plain = _worker(env, args, args.seconds / 2, 0, work_root / "plain", deadline)
        traced = _worker(env, args, args.seconds / 2, 1, work_root / "traced", deadline)
        runs = [plain, traced]
        overhead = _per_request(traced).sum() / _per_request(plain).sum() - 1.0
        metrics = {k: (v, tracer.unit(k)) for k, v in traced["layers"].items()}
        metrics["trace.overhead_frac"] = (overhead, "1")
    else:
        setup_s, setup_raw = _setup_seconds(env)
        runs = [_worker(env, args, args.seconds, 0, work_root / "plain", deadline)]
        metrics = _end_to_end(args.workload, setup_s, runs[0])
        raw = _per_request(runs[0], "raw")
        host = float(np.median(runs[0]["scale"]))

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    first = runs[0]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests/pass {first['requests_per_pass']}  passes {first['passes']}  "
          f"latency samples {first['requests_per_pass']} (each request's median over the passes)")
    if args.trace:
        print("  self times are unscaled; trace.overhead_frac compares scaled passes")
    else:
        print("  request times are scaled to reference host speed (bench/probe.py)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40s} {value:.6g} {unit}")
    if not args.trace:
        alias, what = THROUGHPUT[args.workload]
        print(f"  work_per_s is {alias}: {what} per second")
        print(f"  unscaled: setup_s {setup_raw:.6g} s, wall_s {raw.sum():.6g} s, "
              "req_p50_ms {:.6g} ms, req_p90_ms {:.6g} ms; ".format(*_quantiles(1e3 * raw))
              + f"median scale factor {host:.4g}")
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for r in runs:
        for reason in r["reasons"]:
            print(f"  failed: {reason}")
    for reason in dict.fromkeys(u for r in runs for u in r["unchecked"]):
        print(f"  unchecked: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
