"""Seeded request lists for the three benchmark workloads, and the output
check for every request.

A workload is a fixed list of CLI requests built from one seed.  Its
structure (which subcommands, gap counts N, window lengths, precisions and
sample counts) is the same for every seed; the seed draws only the geometry:
gap endpoints, divisors, characters, boxes and evaluation points.  That keeps
the amount of work per request nearly seed-independent, so runs with
different seeds measure the same thing.

Every input document is written to a file before the timed loop; the
program sees only those files and the argv built here.
"""

import json
from dataclasses import dataclass, field

import numpy as np

COEFFS_NS = (1, 2, 3, 4, 6, 8)
PRECS = (128, 256)
# per (N, prec): k 16-site windows and k transfer requests, with fewer at
# large N, where each costs more (a site costs about 12 times more at N = 8
# than at N = 1), so that no N dominates the pass.  Each N also gets one long
# two-sided window, at the precisions in turn, shrinking with N for the same
# reason.
SHORT_WINDOW = (-3, 12)
PER_COMBO = {1: 9, 2: 6, 3: 4, 4: 3, 6: 1, 8: 1}
# |det - 1| is an absolute check whose rounding error grows like |A|^2 ~
# exp(2 n G(z)), so transfer requests use verify's n = 8 at points a quarter
# band width above a band, where G(z) is small
TRANSFER_N = 8
LONG_WINDOW = {1: (-80, 79), 2: (-60, 59), 3: (-40, 39), 4: (-30, 29),
               6: (-20, 19), 8: (-16, 15)}

TORUS_NS = (1, 2, 3)
TORUS_SETS_PER_N = 3
TORUS_INVERT_PER_SET = 6
# each box is one `measure` and one `measure-mc` request.  The measure-mc
# requests are the slowest, in one group per N; 3/3/2 boxes put req_p90_ms
# inside the N = 2 group rather than on the edge between two groups
TORUS_BOXES_PER_SET = {1: 3, 2: 3, 3: 2}
TORUS_MC_SAMPLES = {1: 2000, 2: 1500, 3: 1000}

GEOMETRY_NS = (1, 2, 3, 4, 5, 6, 7, 8)
# the seed draws how costly each set's quadratures are, and the gap counts
# make request costs rise in steps; with 4 sets per N the p50 of ten seeds
# spread by 0.11 (IQR over median), so each N gets 8
GEOMETRY_BUNDLES_PER_N = 8
GEOMETRY_INVERSE_MAX_N = 3

MIN_SPACING = 0.02  # every band and gap spans at least this share of [b0, a0]
MOVED_SHARE = 0.5   # share of gap systems moved off [-2, 2] by a random affine map

# output-check bounds
ORACLE_SITES = 30
ORACLE_TOL = 1e-8       # acceptance criterion 4, per unit of diameter / 4
# an oracle's discrete measure must have mass 1; where it is off by more, the
# oracle itself is inaccurate (LAYERS.md) and its half-line is left unchecked
ORACLE_MASS_TOL = 1e-9
DET_TOL = 1e-10         # verify: transfer_det
CD_TOL = 1e-8           # verify: christoffel_darboux
INVERT_TOL = 1e-9       # verify: abel_roundtrip
SERIES_TOL = 1e-8       # Fourier-series Abel map against quadrature
KERNEL_TOL = 1e-12      # verify: kernel_bounds
MC_SIGMAS = 5.0
COMB_TOL = 1e-6         # verify: comb_roundtrip, per unit of diameter
DOS_TOL = 1e-10
RESOLVENT_TOL = 1e-10


class Unchecked(str):
    """Why a request's output could not be checked; counted, not failed."""


@dataclass
class Request:
    """One CLI call: argv (including --input) and what its check needs."""

    kind: str
    argv: list
    doc: dict
    sites: int = 0
    mc_samples: int = 0
    bundle: int = -1
    expect: dict = field(default_factory=dict)


def _gap_system(rng, n):
    """Random gap system with N gaps and a divisor with random signs.

    The 2N+1 bands and gaps get lengths MIN_SPACING + Dirichlet shares of the
    rest; MOVED_SHARE of the sets are then scaled by a factor in [1/4, 4] and
    translated by up to 90 % of their half-width, so that the origin stays
    inside [b0, a0] (LAYERS.md says why sets moved further are not run).
    """
    free = 1.0 - (2 * n + 1) * MIN_SPACING
    lengths = MIN_SPACING + free * rng.dirichlet(np.ones(2 * n + 1))
    cuts = -2.0 + 4.0 * np.cumsum(lengths)[:-1]
    scale, shift = 1.0, 0.0
    if rng.random() < MOVED_SHARE:
        scale = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
        shift = scale * float(rng.uniform(-1.8, 1.8))
    cuts = shift + scale * cuts
    gaps = [[float(cuts[2 * i]), float(cuts[2 * i + 1])] for i in range(n)]
    divisor = [{"x": a + (b - a) * float(rng.uniform(0.01, 0.99)),
                "eps": int(rng.choice([-1, 1]))} for a, b in gaps]
    return {"band": [shift - 2.0 * scale, shift + 2.0 * scale], "gaps": gaps,
            "divisor": divisor}


def _upper_point(rng, doc):
    """Point at height 0.45 half-widths above the middle half of [b0, a0]."""
    b0, a0 = doc["band"]
    mid, half = 0.5 * (a0 + b0), 0.5 * (a0 - b0)
    return complex(mid + half * rng.uniform(-0.5, 0.5), 0.45 * half)


def _endpoints(doc):
    """b0, a_1, b_1, ..., a_N, b_N, a0 of a gap-system document."""
    return [doc["band"][0]] + [v for g in doc["gaps"] for v in g] + [doc["band"][1]]


def _gap_point(rng, doc):
    """Point in the inner 90 % of a random gap."""
    a, b = doc["gaps"][int(rng.integers(len(doc["gaps"])))]
    return a + (b - a) * rng.uniform(0.05, 0.95)


def _band_point(rng, doc):
    """Point in the inner 90 % of a random band of E, and that band's width."""
    pts = _endpoints(doc)
    k = int(rng.integers(len(pts) // 2))
    lo, hi = pts[2 * k], pts[2 * k + 1]
    return lo + (hi - lo) * rng.uniform(0.05, 0.95), hi - lo


def _z_arg(z):
    # the '=' form keeps argparse from reading a negative value as an option
    return f"--z={z.real!r},{z.imag!r}"


def _box(rng, doc):
    """One arc per chosen gap, covering 40-80 % of it, with a random sheet."""
    n = len(doc["gaps"])
    chosen = sorted(rng.choice(n, size=int(rng.integers(1, min(n, 2) + 1)), replace=False))
    box = []
    for j in chosen:
        a, b = doc["gaps"][j]
        frac = rng.uniform(0.4, 0.8)
        lo = a + (b - a) * rng.uniform(0.0, 1.0 - frac)
        box.append({"gap": int(j) + 1, "a": lo, "b": lo + frac * (b - a),
                    "eps": int(rng.choice([-1, 1]))})
    return box


def _coeffs_requests(rng):
    reqs = []
    for i, n in enumerate(COEFFS_NS):
        for prec in PRECS:
            windows = [SHORT_WINDOW] * PER_COMBO[n]
            if prec == PRECS[i % len(PRECS)]:
                windows.append(LONG_WINDOW[n])
            for n0, n1 in windows:
                doc = _gap_system(rng, n)
                reqs.append(Request(
                    "coeffs-long" if (n0, n1) == LONG_WINDOW[n] else "coeffs-short",
                    ["coeffs", "--from", str(n0), "--to", str(n1), "--prec", str(prec)],
                    doc, sites=n1 - n0 + 1))
            for _ in range(PER_COMBO[n]):
                doc = _gap_system(rng, n)
                x, width = _band_point(rng, doc)
                reqs.append(Request(
                    "transfer",
                    ["transfer", "--n", str(TRANSFER_N), _z_arg(complex(x, 0.25 * width)),
                     "--prec", str(prec)],
                    doc, sites=TRANSFER_N + 2))
    return reqs


def _torus_requests(rng):
    reqs = []
    for n in TORUS_NS:
        for _ in range(TORUS_SETS_PER_N):
            doc = _gap_system(rng, n)
            scan = [Request("abel", ["abel"], doc), Request("kernel0", ["kernel0"], doc)]
            for _ in range(TORUS_INVERT_PER_SET):
                alpha = [float(a) for a in rng.random(n)]
                scan.append(Request("invert", ["invert"], dict(doc, alpha=alpha)))
            for _ in range(TORUS_BOXES_PER_SET[n]):
                bdoc = dict(doc, box=_box(rng, doc))
                samples = TORUS_MC_SAMPLES[n]
                scan.append(Request("measure", ["measure"], bdoc))
                scan.append(Request(
                    "measure-mc",
                    ["measure-mc", "--mc-samples", str(samples),
                     "--seed", str(int(rng.integers(2**31)))],
                    bdoc, mc_samples=samples))
            # a box's two requests check each other; point the MC one at its pair
            for i, r in enumerate(scan):
                if r.kind == "measure-mc":
                    r.expect["pair"] = len(reqs) + i - 1
            reqs.extend(scan)
    return reqs


def _perturbed_bracket(rng, doc):
    """The same outer band with every interior endpoint moved by up to 10 %
    of the shorter of its two neighbouring segments, so ordering is kept."""
    pts = _endpoints(doc)
    moved = list(pts)
    for i in range(1, len(pts) - 1):
        room = min(pts[i] - pts[i - 1], pts[i + 1] - pts[i])
        moved[i] = pts[i] + room * rng.uniform(-0.1, 0.1)
    inner = moved[1:-1]
    return {"band": doc["band"],
            "gaps": [[inner[2 * i], inner[2 * i + 1]] for i in range(len(inner) // 2)]}


def _geometry_requests(rng):
    from finitegap.comb import comb_from_gaps
    from finitegap.spectral_set import GapSystem

    reqs = []
    bundle = 0
    for n in GEOMETRY_NS:
        for _ in range(GEOMETRY_BUNDLES_PER_N):
            doc = _gap_system(rng, n)
            x_band, _ = _band_point(rng, doc)
            # the CDF at a0 is the total mass; `dos` at a0 itself exits 2 because
            # it also evaluates the density, which is singular at band edges
            x_right = doc["band"][1] + 0.01 * (doc["band"][1] - doc["band"][0])
            items = [
                Request("critical", ["critical"], doc),
                # G in a gap: off the real axis, and left of b0 or right of a0,
                # gl_quad can miss qtol and double its order towards 65536
                # nodes, whose rule alone needs tens of GB (LAYERS.md)
                Request("green", ["green", _z_arg(complex(_gap_point(rng, doc), 0.0))], doc),
                Request("harmonic", ["harmonic", "--k", str(int(rng.integers(n)) + 1),
                                     _z_arg(complex(_gap_point(rng, doc), 0.0))], doc),
                Request("dos", ["dos", _z_arg(complex(x_band, 0.0))], doc),
                Request("dos-total", ["dos", _z_arg(complex(x_right, 0.0))], doc),
                Request("resolvents", ["resolvents", _z_arg(_upper_point(rng, doc))], doc),
                Request("comb", ["comb"], doc, expect={"critical": len(reqs)}),
            ]
            if n <= GEOMETRY_INVERSE_MAX_N:
                # the teeth come from the program's own forward map, computed
                # here so that the input file holds them before the timed loop
                comb = comb_from_gaps(GapSystem.from_json(doc)).to_json()
                items.append(Request(
                    "comb-inverse", ["comb"],
                    dict(comb, bracket=_perturbed_bracket(rng, doc)),
                    expect={"truth": doc}))
            for r in items:
                r.bundle = bundle
            reqs.extend(items)
            bundle += 1
    return reqs


BUILDERS = {"coeffs": _coeffs_requests, "torus": _torus_requests,
            "geometry": _geometry_requests}


def build(workload, seed, workdir):
    """Request list of a workload; writes one input file per request."""
    rng = np.random.default_rng([seed % 2**64, list(BUILDERS).index(workload)])
    reqs = BUILDERS[workload](rng)
    workdir.mkdir(parents=True, exist_ok=True)
    for i, r in enumerate(reqs):
        path = workdir / f"req-{i:04d}.json"
        path.write_text(json.dumps(r.doc))
        r.argv = r.argv + ["--input", str(path)]
    return reqs


# ---------------------------------------------------------------------------
# output checks; each returns None, a one-line reason it failed, or Unchecked


def _gs_div(doc):
    from finitegap.herglotz import Divisor
    from finitegap.spectral_set import GapSystem

    gs = GapSystem.from_json(doc)
    return gs, Divisor.from_json(doc)


def _left_measure(gs, div, nodes_per_band=400):
    """Discretization (nodes, weights) of the spectral measure of r_minus, the
    left half-line resolvent from site -1, in the manner of the oracle's
    `halfline_measure`: the band density Im r_minus(x + i0) / pi, plus a point
    mass at each divisor point where sqrt(R) - T does not cancel the pole of
    r_minus = (sqrt(R) - T) / (2 p0^2 Pi).  It shares no code with
    `dual_state`, so it checks the negative sites independently."""
    from finitegap.herglotz import split_resolvents
    from finitegap.spectral_set import sqrt_R

    pair = split_resolvents(gs, div)
    t_nodes, t_weights = np.polynomial.legendre.leggauss(nodes_per_band)
    theta = 0.5 * np.pi * (t_nodes + 1.0)
    wth = 0.5 * np.pi * t_weights
    xs, ws = [], []
    for lo, hi in gs.bands:
        mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = mid + rad * np.cos(theta)
        xs.append(x)
        ws.append(np.imag(pair.r_minus(x + 0.0j)) / np.pi * rad * np.sin(theta) * wth)
    pts = pair.divisor.xs
    for j, xj in enumerate(pts):
        sr = float(np.real(sqrt_R(gs, xj)))
        num = sr - np.polynomial.polynomial.polyval(xj, pair.t_coeffs)
        if abs(num) <= abs(sr):  # T(x_j) = +sqrt(R)(x_j): the pole is cancelled
            continue
        dpi = np.prod([xj - xk for k, xk in enumerate(pts) if k != j])
        xs.append(np.array([xj]))
        ws.append(np.array([-num / (2.0 * pair.p0sq * dpi)]))
    return np.concatenate(xs), np.concatenate(ws)


def _oracle(xs, ws):
    """Oracle q_0.., p_1.. of a discrete measure, or Unchecked where the
    measure's total mass is off (the oracle itself is inaccurate there)."""
    from oracle_stieltjes import stieltjes_coefficients

    mass_err = abs(ws.sum() - 1.0)
    if not (mass_err <= ORACLE_MASS_TOL and np.all(ws > 0)):
        return Unchecked(f"Stieltjes oracle mass off by {mass_err:.1e}")
    return stieltjes_coefficients(xs, ws, ORACLE_SITES)


def _check_coeffs(req, out, outs):
    from oracle_stieltjes import halfline_measure

    gs, div = _gs_div(req.doc)
    n0, n1 = out["n0"], out["n1"]
    p, q = np.asarray(out["p"]), np.asarray(out["q"])
    if len(p) != req.sites or not np.all(np.isfinite(p)) or not np.all(p > 0):
        return "window has wrong length or a non-positive p"
    # the right measure gives q_0, p_1, q_1, ...; the left one, from site -1,
    # gives q_-1, p_-1, q_-2, p_-2, ...  Each side is checked where its own
    # oracle passes the mass test.
    top, bot = min(n1, ORACLE_SITES), min(-n0, ORACLE_SITES)
    sides = [("right", _oracle(*halfline_measure(gs, div)), q[-n0:], p[1 - n0:], top + 1, top)]
    if bot:
        sides.append(("left", _oracle(*_left_measure(gs, div)), q[-n0 - 1::-1],
                      p[-n0 - 1::-1], bot, bot))
    err, unchecked = 0.0, None
    for side, oracle, qs, ps, nq, npp in sides:
        if isinstance(oracle, Unchecked):
            unchecked = Unchecked(f"{side} half-line: {oracle}")
            continue
        qo, po = oracle
        err = max(err, np.max(np.abs(qs[:nq] - qo[:nq])), np.max(np.abs(ps[:npp] - po[:npp])))
    bound = ORACLE_TOL * max(1.0, gs.diameter / 4.0)
    if not err <= bound:
        return f"Stieltjes oracle error {err:.3e} > {bound:.0e}"
    return unchecked


def _check_transfer(req, out, outs):
    det = complex(*out["det"])
    if not abs(det - 1.0) <= DET_TOL:
        return f"|det - 1| = {abs(det - 1.0):.3e}"
    if not out["cd_residual"] <= CD_TOL:
        return f"Christoffel-Darboux residual {out['cd_residual']:.3e}"
    return None


def _check_abel(req, out, outs):
    from finitegap.abel import abel_map_angles, chart_from_divisor, torus_distance

    gs, div = _gs_div(req.doc)
    series = abel_map_angles(gs, np.asarray(chart_from_divisor(gs, div).angles))[0]
    dist = torus_distance(series, out["alpha"])
    if not dist <= SERIES_TOL:
        return f"quadrature and series Abel maps differ by {dist:.3e}"
    return None


def _check_kernel0(req, out, outs):
    slack = max(0.0, out["k0"] - 1.0, out["delta0_sq"] - out["k0"])
    if not slack <= KERNEL_TOL:
        return f"k0 outside [delta0^2, 1] by {slack:.3e}"
    return None


def _check_invert(req, out, outs):
    if not out["residual"] <= INVERT_TOL:
        return f"inversion residual {out['residual']:.3e}"
    return None


def _check_measure(req, out, outs):
    if not 0.0 < out["measure"] < 1.0:
        return f"box measure {out['measure']} outside (0, 1)"
    return None


def _check_measure_mc(req, out, outs):
    exact = outs[req.expect["pair"]]["measure"]
    dev = abs(out["estimate"] - exact)
    if not dev <= MC_SIGMAS * out["stderr"]:
        return f"MC estimate {dev / out['stderr']:.1f} stderr from the determinant"
    return None


def _check_critical(req, out, outs):
    if len(out["c"]) != len(req.doc["gaps"]):
        return "wrong number of critical points"
    for (a, b), c, h in zip(req.doc["gaps"], out["c"], out["h"]):
        if not (a < c < b and h > 0.0):
            return f"critical point {c} not inside gap ({a}, {b}) with h > 0"
    return None


def _check_green(req, out, outs):
    if not (np.isfinite(out["green"]) and out["green"] > 0.0):
        return f"G = {out['green']} off the set"
    return None


def _check_harmonic(req, out, outs):
    if not 0.0 < out["omega"] < 1.0:
        return f"harmonic measure {out['omega']} in a gap outside (0, 1)"
    return None


def _check_dos(req, out, outs):
    if not (0.0 < out["cdf"] < 1.0 and out["density"] > 0.0):
        return f"dos CDF {out['cdf']} or density {out['density']} wrong inside a band"
    return None


def _check_dos_total(req, out, outs):
    if not abs(out["cdf"] - 1.0) <= DOS_TOL:
        return f"dos CDF right of a0 is {out['cdf']!r}"
    om = np.asarray(out["frequencies"])
    if not (np.all(np.diff(om) < 0) and np.all((om > 0) & (om < 1))):
        return "frequencies not decreasing inside (0, 1)"
    return None


def _check_resolvents(req, out, outs):
    u, v, r = (complex(*out[k]) for k in ("u", "v", "r00"))
    res = abs(u + v + 1.0 / r) / max(1.0, abs(u) + abs(v))
    if not res <= RESOLVENT_TOL:
        return f"u + v + 1/R00 = {res:.3e}"
    return None


def _check_comb(req, out, outs):
    omegas = [t["omega"] for t in out["teeth"]]
    if len(omegas) != len(req.doc["gaps"]) or not np.all(np.diff(omegas) < 0):
        return "comb frequencies missing or not decreasing"
    heights = [t["h"] for t in out["teeth"]]
    if heights != outs[req.expect["critical"]]["h"]:
        return "comb heights differ from the critical-point heights"
    return None


def _check_comb_inverse(req, out, outs):
    truth = req.expect["truth"]
    diameter = truth["band"][1] - truth["band"][0]
    err = np.max(np.abs(np.asarray(out["gaps"]) - np.asarray(truth["gaps"]))) / diameter
    if not err <= COMB_TOL:
        return f"comb round trip error {err:.3e} of the diameter"
    return None


CHECKS = {
    "coeffs-short": _check_coeffs, "coeffs-long": _check_coeffs,
    "transfer": _check_transfer, "abel": _check_abel, "kernel0": _check_kernel0,
    "invert": _check_invert, "measure": _check_measure, "measure-mc": _check_measure_mc,
    "critical": _check_critical, "green": _check_green, "harmonic": _check_harmonic,
    "dos": _check_dos, "dos-total": _check_dos_total, "resolvents": _check_resolvents,
    "comb": _check_comb, "comb-inverse": _check_comb_inverse,
}
