#!/usr/bin/env python3
"""Digest of the library's float outputs, bit for bit, on a fixed sweep of sets.

Every value is written as float.hex and hashed per group, so two source trees
give the same digest exactly when they give the same bits.  Run it against each
tree and compare the printed JSON:

    PYTHONPATH=src python3 scripts/output_digest.py

The sweep (all seeded):
- geometry: spaced sets at N = 1..24, two per N, each in the frames x,
  1e-3 x - 7 and 250 x + 1e4, at qtol 1e-12 and 1e-10: the critical points
  (c, h, s) on a cold and on a warm harmonic-measure cache, G at one point per
  gap, omega_k at three points for every k, the frequencies, the dos CDF at one
  interior point per band, omega_k for every k at a0 + 1e3 diameters (a ray
  integral that doubles past 64 nodes), the Abel map and the kernel at the
  origin for one divisor, and at N <= 3 the comb round trip;
- divisors: N = 1..16, the same three frames, 128 and 256 bits, four divisors
  (random, on every a_j, on every b_j, and 1e-13 gap widths inside alternate
  ends), each read at sites 0..9 of the continued fraction: 3840 reads;
- windows: the same sets, precisions and divisors, the coefficients
  p_n, q_n for -8 <= n <= 8 of each, from jacobi_cf.coefficients;
- resolvents: the same sets and divisors, T's centred coefficients, p0^2
  and q0 of herglotz.split_resolvents.
A SolverError is recorded by its message, so failures are compared as well.
"""

import hashlib
import json

import numpy as np

from finitegap import abel, comb, jacobi_cf, spectral_set
from finitegap.errors import SolverError
from finitegap.herglotz import Divisor, split_resolvents
from finitegap.spectral_set import GapSystem

FRAMES = ((1.0, 0.0), (1e-3, -7.0), (250.0, 1e4))


def _set(rng, n, scale, shift):
    """N gaps on [shift - 2 scale, shift + 2 scale], every band and gap at least
    0.3 / (2N + 1) of the diameter."""
    share = 0.3 / (2 * n + 1)
    lengths = share + (1.0 - (2 * n + 1) * share) * rng.dirichlet(np.ones(2 * n + 1))
    cuts = shift + scale * (-2.0 + 4.0 * np.cumsum(lengths)[:-1])
    return GapSystem(shift - 2.0 * scale, shift + 2.0 * scale,
                     tuple((cuts[2 * i], cuts[2 * i + 1]) for i in range(n)))


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _record(out, fn):
    try:
        out.extend(fn())
    except SolverError as exc:
        out.append(f"error: {exc}")


def _geometry(gs, rng, qtol, out):
    spectral_set._harmonic_poly_coeffs.cache_clear()
    cold = spectral_set.critical_points(gs, qtol)
    k_points = [gs.gap(1)[0] - 0.3 * gs.diameter, 0.5 * sum(gs.gap(gs.n_gaps))]
    for k in range(1, gs.n_gaps + 1):
        a, b = gs.gap(k)
        pts = k_points + [a + 0.3 * (b - a)]
        _record(out, lambda: _hex([spectral_set.harmonic_measure(gs, k, x, qtol) for x in pts]))
    for c in (cold, spectral_set.critical_points(gs, qtol)):
        out.extend(_hex(c.c + c.h + c.s))
    xs = [a + rng.uniform(0.05, 0.95) * (b - a) for a, b in gs.gaps]
    divisor = Divisor(tuple((x, int(rng.choice([-1, 1]))) for x in xs))
    _record(out, lambda: _hex([spectral_set.green(gs, x, qtol) for x in xs]))
    _record(out, lambda: _hex(spectral_set.frequencies(gs, qtol)))
    _record(out, lambda: _hex([spectral_set.dos_cdf(gs, lo + 0.37 * (hi - lo), qtol)
                               for lo, hi in gs.bands]))
    far = gs.a0 + 1e3 * gs.diameter
    _record(out, lambda: _hex([spectral_set.harmonic_measure(gs, k, far, qtol)
                               for k in range(1, gs.n_gaps + 1)]))
    _record(out, lambda: _hex(abel.abel_map(gs, divisor, qtol).alpha))
    _record(out, lambda: _hex([abel.kernel_at_origin(gs, divisor, qtol)]))
    if gs.n_gaps <= 3 and qtol == 1e-12:
        width = min(b - a for a, b in gs.bands + gs.gaps)
        bracket = GapSystem(gs.b0, gs.a0, tuple((a + 0.1 * width, b - 0.1 * width) for a, b in gs.gaps))
        _record(out, lambda: _hex(comb.gaps_from_comb(comb.comb_from_gaps(gs), bracket).gaps))


def _starts(gs, rng):
    """Four divisors: random, on every a_j, on every b_j, and 1e-13 gap widths
    inside alternate ends."""
    a, b = np.array(gs.gaps).T
    inner = 1e-13 * (b - a)
    alt = np.where(np.arange(gs.n_gaps) % 2 == 0, a + inner, b - inner)
    signs = [int(rng.choice([-1, 1])) for _ in a]
    return [Divisor(tuple(zip(xs, signs))) for xs in (rng.uniform(a, b), a, b, alt)]


def _divisors(gs, starts, prec, out):
    """Appends the divisor reads of the orbits of starts to out; returns their number."""
    reads = 0
    for divisor in starts:
        state = jacobi_cf.initial_state(gs, divisor, prec)
        for site in range(10):
            try:
                out.extend(f"{x.hex()} {e}" for x, e in state.divisor.points)
                reads += 1
                if site < 9:
                    state = jacobi_cf.cf_step(state)[2]
            except SolverError as exc:
                out.append(f"error: {exc}")
                break
    return reads


def _windows(gs, starts, prec, out):
    """Appends p_n, q_n for -8 <= n <= 8 from each of starts to out."""
    for divisor in starts:
        def window():
            seg = jacobi_cf.coefficients(gs, divisor, -8, 8, prec)
            return _hex(seg.p + seg.q)

        _record(out, window)


def _resolvents(gs, starts, out):
    """Appends T's centred coefficients, p0^2 and q0 of the pair of each of starts to out."""
    for divisor in starts:
        def pair():
            res = split_resolvents(gs, divisor)
            return _hex(res.t_centred + (res.p0sq, res.q0))

        _record(out, pair)


def main():
    groups = {"geometry": [], "divisors": [], "windows": [], "resolvents": []}
    for n in range(1, 25):
        for seed in (0, 1):
            for scale, shift in FRAMES:
                rng = np.random.default_rng([n, seed])
                gs = _set(rng, n, scale, shift)
                for qtol in (1e-12, 1e-10):
                    _geometry(gs, np.random.default_rng([n, seed, 1]), qtol, groups["geometry"])
    reads = 0
    for n in range(1, 17):
        for scale, shift in FRAMES:
            gs = _set(np.random.default_rng([n, 2]), n, scale, shift)
            starts = _starts(gs, np.random.default_rng([n, 3]))
            _resolvents(gs, starts, groups["resolvents"])
            for prec in (128, 256):
                reads += _divisors(gs, starts, prec, groups["divisors"])
                _windows(gs, starts, prec, groups["windows"])
    doc = {name: {"values": len(vals), "sha256": hashlib.sha256("\n".join(vals).encode()).hexdigest()}
           for name, vals in groups.items()}
    doc["divisors"]["reads"] = reads
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
