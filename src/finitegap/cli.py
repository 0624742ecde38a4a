"""Command-line interface: one subcommand per operation, JSON in / JSON out.

Input is a single JSON document (--input FILE or standard input) that may
carry a gap system, a divisor, a character, a box, or a comb, as the
subcommand requires; `verify` reads none.  Output is a single JSON document
whose "meta" field echoes the run options: precision, qtol, seed, fmt and
base_point.  `coeffs --csv` writes its window as CSV instead.

Exit codes: 0 success, 1 verification failure, 2 malformed input,
3 numeric failure.
"""

import argparse
import json
import sys
from functools import lru_cache
from math import isfinite

import numpy as np

from . import abel, comb as comb_mod, jacobi_cf, quad
from .errors import SolverError, ValidationError
from .herglotz import Divisor, r00, reflectionless_residual, split_resolvents
from .spectral_set import (
    GapSystem,
    critical_points,
    dos_cdf,
    dos_density,
    frequencies,
    green,
    harmonic_measure,
)

_BASE_POINT_NOTE = "divisor base point {(a_k, +1)}; characters are relative to it"


def _check_options(args):
    if args.prec < 53:
        raise ValidationError("precision must be at least 53 bits")
    if not 0 < args.qtol < float("inf"):
        raise ValidationError("qtol must be positive and finite")
    if args.seed < 0:
        raise ValidationError("seed must be nonnegative")
    # islice takes a window or a step count up to sys.maxsize, truncate takes 1 / n,
    # and a sample count past it could never finish
    if max(abs(args.n0), abs(args.n1), abs(args.steps), abs(args.n or 0),
           abs(args.mc_samples)) > sys.maxsize:
        raise ValidationError(
            f"--from, --to, --steps, --n and --mc-samples must lie within +-{sys.maxsize}")


def _meta(args):
    """The run options, echoed in every output document."""
    return {"precision": args.prec, "qtol": args.qtol, "seed": args.seed,
            "fmt": "csv" if args.csv else "json", "base_point": _BASE_POINT_NOTE}


@lru_cache(maxsize=None)
def _parser():
    """The argument parser, built on first use and reused by every main call."""
    p = argparse.ArgumentParser(prog="finitegap", description=__doc__)
    p.add_argument("command", choices=list(_COMMANDS))
    p.add_argument("--input", help="input JSON file (default: standard input)")
    p.add_argument("--prec", type=int, default=jacobi_cf.DEFAULT_PREC,
                   help="working precision in bits")
    p.add_argument("--qtol", type=float, default=quad.DEFAULT_QTOL, help="quadrature tolerance")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--csv", action="store_true", help="CSV output for sequences")
    p.add_argument("--z", help="evaluation point RE,IM (IM optional)")
    p.add_argument("--k", type=int, default=1, help="gap index for harmonic measure")
    p.add_argument("--from", dest="n0", type=int, default=0, help="first index of a window")
    p.add_argument("--to", dest="n1", type=int, default=0, help="last index of a window")
    p.add_argument("--n", type=int, default=None, help="matrix index / truncation parameter")
    p.add_argument("--steps", type=int, default=1, help="shift steps for shift-check")
    p.add_argument("--mc-samples", dest="mc_samples", type=int, default=100_000)
    return p


def _load_doc(args):
    try:
        if args.input:
            with open(args.input, encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            doc = json.load(sys.stdin)
    except RecursionError:
        raise ValidationError("input document is nested too deeply")
    except ValueError as exc:  # not UTF-8, not JSON, or an integer past int()'s digit limit
        raise ValidationError(f"input is not a JSON document: {exc}")
    if not isinstance(doc, dict):
        raise ValidationError("input document must be a JSON object")
    return doc


def _parse_z(args, default=None):
    if args.z is None:
        if default is None:
            raise ValidationError("this command needs an evaluation point: --z RE[,IM]")
        return default
    parts = args.z.split(",")
    try:
        # RE alone has IM = 0; a third part fails the unpacking
        re, im = map(float, parts + ["0"] * (2 - len(parts)))
    except ValueError:
        raise ValidationError(f"cannot parse --z {args.z!r} as RE[,IM]")
    if not (isfinite(re) and isfinite(im)):
        raise ValidationError(f"--z {args.z!r} is not finite")
    return complex(re, im)


def _to_json(obj):
    """json.dumps hook: a complex number is [re, im]; numpy values become Python ones."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(doc, args):
    doc = dict(doc)
    doc["meta"] = _meta(args)
    sys.stdout.write(json.dumps(doc, default=_to_json) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_critical(args, doc):
    cp = critical_points(GapSystem.from_json(doc), args.qtol)
    return {"c": list(cp.c), "h": list(cp.h)}


def _cmd_green(args, doc):
    gs = GapSystem.from_json(doc)
    z = _parse_z(args)
    return {"z": z, "green": green(gs, z, args.qtol)}


def _cmd_harmonic(args, doc):
    gs = GapSystem.from_json(doc)
    z = _parse_z(args)
    if z.imag != 0.0:
        raise ValidationError("harmonic measure evaluation point must be real")
    return {"k": args.k, "x": z.real, "omega": harmonic_measure(gs, args.k, z.real, args.qtol)}


def _cmd_dos(args, doc):
    gs = GapSystem.from_json(doc)
    z = _parse_z(args)
    if z.imag != 0.0:
        raise ValidationError("density of states lives on the real line")
    out = {"x": z.real, "cdf": dos_cdf(gs, z.real, args.qtol),
           "frequencies": frequencies(gs, args.qtol)}
    kind = gs.locate(z.real)
    if kind[0] == "band":
        out["density"] = dos_density(gs, z.real, args.qtol)
    return out


def _cmd_resolvents(args, doc):
    gs = GapSystem.from_json(doc)
    d = Divisor.from_json(doc).validate(gs)
    pair = split_resolvents(gs, d)
    z = _parse_z(args, default=2j)
    return {
        "z": z,
        "u": complex(pair.u(z)),
        "v": complex(pair.v(z)),
        "r00": complex(r00(gs, d, z)),
        "p0sq": pair.p0sq,
        "q0": pair.q0,
        "t_centred": list(pair.t_centred),
        "frame": list(gs.frame),
    }


def _cmd_coeffs(args, doc):
    gs = GapSystem.from_json(doc)
    d = Divisor.from_json(doc).validate(gs)
    seg = jacobi_cf.coefficients(gs, d, args.n0, args.n1, prec=args.prec)
    if args.csv:
        sys.stdout.write(seg.to_csv())
        return None
    return seg.to_json()


def _cmd_transfer(args, doc):
    gs = GapSystem.from_json(doc)
    d = Divisor.from_json(doc).validate(gs)
    n = args.n if args.n is not None else 5
    seg = jacobi_cf.coefficients(gs, d, 0, n + 1, prec=args.prec)
    z = _parse_z(args, default=2j)
    a, rows = jacobi_cf._transfer(seg, z, n)
    out = {
        "z": z,
        "n": n,
        "matrix": [[complex(v) for v in row] for row in a],
        "det": complex(np.linalg.det(a)),
    }
    if z.imag > 0:
        out["cd_residual"] = jacobi_cf._cd(a, rows, z)
    else:
        # the j-form is read on the real line, at Re z
        out["j_unitarity_residual"] = jacobi_cf._j_unitarity(
            jacobi_cf.transfer_matrix(seg, z.real, n) if z.imag else a)
    return out


def _cmd_abel(args, doc):
    gs = GapSystem.from_json(doc)
    d = Divisor.from_json(doc).validate(gs)
    return abel.abel_map(gs, d, args.qtol).to_json()


def _cmd_invert(args, doc):
    gs = GapSystem.from_json(doc)
    alpha = abel.Character.from_json(doc)
    d = abel.invert_abel(gs, alpha)
    out = d.to_json()
    out["residual"] = abel.abel_map(gs, d, args.qtol).distance(alpha)
    return out


def _cmd_shift_check(args, doc):
    gs = GapSystem.from_json(doc)
    d = Divisor.from_json(doc).validate(gs)
    res = abel.shift_covariance_residual(gs, d, prec=args.prec, steps=args.steps, qtol=args.qtol)
    return {"steps": args.steps, "residual": res}


def _cmd_kernel0(args, doc):
    gs = GapSystem.from_json(doc)
    d = Divisor.from_json(doc).validate(gs)
    delta0 = abel.widom_delta(gs, args.qtol)
    return {"k0": abel.kernel_at_origin(gs, d, args.qtol),
            "delta0": delta0, "delta0_sq": delta0 ** 2}


def _cmd_measure(args, doc):
    gs = GapSystem.from_json(doc)
    box = doc.get("box", [])
    return {"measure": abel.measure_box(gs, box, args.qtol)}


def _cmd_measure_mc(args, doc):
    gs = GapSystem.from_json(doc)
    box = doc.get("box", [])
    est, se = abel.measure_mc(gs, box, samples=args.mc_samples, seed=args.seed)
    return {"estimate": est, "stderr": se, "samples": args.mc_samples, "seed": args.seed}


def _cmd_comb(args, doc):
    if "teeth" in doc:
        comb = comb_mod.CombData.from_json(doc)
        if "bracket" not in doc:
            raise ValidationError("inverse comb problem needs a 'bracket' gap system")
        bracket = GapSystem.from_json(doc["bracket"])
        gs = comb_mod.gaps_from_comb(comb, bracket)
        return gs.to_json()
    gs = GapSystem.from_json(doc)
    comb = comb_mod.comb_from_gaps(gs, qtol=args.qtol)
    out = comb.to_json()
    out["delta0"] = comb.delta0
    out["is_widom"] = comb.is_widom
    out["rational_relations"] = [list(r) for r in comb.rational_relation_report()]
    return out


def _cmd_truncate(args, doc):
    comb = comb_mod.CombData.from_json(doc)
    if args.n is None:
        raise ValidationError("truncate needs --n")
    trunc = comb_mod.truncate_comb(comb, args.n)
    out = trunc.to_json()
    out["delta_n0"] = trunc.delta0
    return out


# ---------------------------------------------------------------------------
# verify


def _fixture_docs():
    from importlib import resources

    docs = []
    root = resources.files("finitegap") / "fixtures"
    for name in sorted(p.name for p in root.iterdir() if p.name.endswith(".json")):
        docs.append((name, json.loads((root / name).read_text())))
    return docs


def _verify_instance(name, doc, args, rng):
    checks = []

    def record(check, value, threshold):
        checks.append({
            "fixture": name, "check": check, "value": float(value),
            "threshold": threshold, "pass": bool(value <= threshold),
        })

    gs = GapSystem.from_json(doc)
    d = Divisor.from_json(doc).validate(gs) if "divisor" in doc else Divisor(())
    pair = split_resolvents(gs, d)

    pts = []
    for lo, hi in gs.bands:
        w = hi - lo
        pts.extend(np.linspace(lo + 0.05 * w, hi - 0.05 * w, 8))
    record("reflectionless", max(reflectionless_residual(gs, pair, x) for x in pts), 1e-8)

    zs = rng.uniform(-3, 3, 10) + 1j * rng.uniform(0.2, 2.0, 10)
    alg = max(
        abs((-1.0 / r00(gs, d, z)) - (-1.0 / pair.r_plus(z) + pair.p0sq * pair.r_minus(z)))
        for z in zs
    )
    record("resolvent_algebra", alg, 1e-12)

    seg = jacobi_cf.coefficients(gs, d, -5, 12, prec=args.prec)
    if gs.n_gaps == 0:
        record("free_jacobi", max(max(abs(p - 1.0) for p in seg.p),
                                  max(abs(q) for q in seg.q)), 1e-12)
    z0 = 0.5 * (gs.b0 + gs.a0) + 0.9j
    record("transfer_det", abs(np.linalg.det(jacobi_cf.transfer_matrix(seg, z0, 8)) - 1.0), 1e-10)
    record("christoffel_darboux", jacobi_cf.cd_residual(seg, z0, 8), 1e-8)
    record("j_unitarity", jacobi_cf.j_unitarity_residual(seg, pts[0], 8), 1e-8)
    record("j_expanding", max(0.0, -jacobi_cf.j_expanding_min_eig(seg, z0, 8)), 1e-10)

    if gs.n_gaps:
        record("shift_covariance",
               abel.shift_covariance_residual(gs, d, prec=args.prec, qtol=args.qtol), 1e-6)
        delta0 = abel.widom_delta(gs, args.qtol)
        k0 = abel.kernel_at_origin(gs, d, args.qtol)
        record("kernel_bounds", max(0.0, k0 - 1.0, delta0 ** 2 - k0), 1e-12)
        alpha = abel.abel_map(gs, d, args.qtol)
        record("abel_roundtrip",
               abel.abel_map(gs, abel.invert_abel(gs, alpha), args.qtol).distance(alpha), 1e-9)
    if 1 <= gs.n_gaps <= 2:
        # start from a bracket with every gap widened: each interior endpoint
        # moves out of its gap by 5 % of the shorter neighbouring segment
        pts = np.asarray(gs.endpoints)
        room = np.minimum(np.diff(pts)[:-1], np.diff(pts)[1:])
        inner = pts[1:-1] - 0.05 * room * (-1.0) ** np.arange(room.size)
        bracket = GapSystem(gs.b0, gs.a0, tuple(zip(inner[::2], inner[1::2])))
        comb = comb_mod.comb_from_gaps(gs, args.qtol)
        rec = comb_mod.gaps_from_comb(comb, bracket)
        err = max(
            abs(np.asarray(rec.gaps).ravel() - np.asarray(gs.gaps).ravel()),
            default=0.0,
        ) / gs.diameter
        record("comb_roundtrip", err, 1e-6)
    return checks


def _cmd_verify(args, doc):
    rng = np.random.default_rng(args.seed)
    checks = []
    for name, fdoc in _fixture_docs():
        checks.extend(_verify_instance(name, fdoc, args, rng))
    ok = all(c["pass"] for c in checks)
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"[{status}] {c['fixture']:>10s} {c['check']:<20s} "
              f"value={c['value']:.3e} threshold={c['threshold']:.0e}", file=sys.stderr)
    return {"checks": checks, "all_pass": ok}


_COMMANDS = {
    "critical": _cmd_critical,
    "green": _cmd_green,
    "harmonic": _cmd_harmonic,
    "dos": _cmd_dos,
    "resolvents": _cmd_resolvents,
    "coeffs": _cmd_coeffs,
    "transfer": _cmd_transfer,
    "abel": _cmd_abel,
    "invert": _cmd_invert,
    "shift-check": _cmd_shift_check,
    "kernel0": _cmd_kernel0,
    "measure": _cmd_measure,
    "measure-mc": _cmd_measure_mc,
    "comb": _cmd_comb,
    "truncate": _cmd_truncate,
    "verify": _cmd_verify,
}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        _check_options(args)
        doc = {} if args.command == "verify" else _load_doc(args)
        result = _COMMANDS[args.command](args, doc)
    except (ValidationError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        detail = f" (residual {exc.residual:.3e})" if exc.residual is not None else ""
        print(f"numeric failure: {exc}{detail}", file=sys.stderr)
        return 3
    if result is not None:
        _emit(result, args)
    if args.command == "verify" and not result["all_pass"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
