#!/usr/bin/env python3
"""Compare three computations of the shift-invariant measure of a gap-arc box.

The shift on divisor space becomes a rotation in the Abel-map coordinates, so
the invariant measure of a product of gap arcs is a harmonic-measure
determinant.  This script evaluates that determinant, then checks it against

  1. Monte-Carlo sampling of uniform torus characters pushed through the
     inverse Abel map, and
  2. the empirical visit frequency of the coefficient-stripping orbit started
     at the input divisor (for irrational frequencies the orbit equidistributes).
"""

from __future__ import annotations

import argparse
import json

from finitegap import abel
from finitegap import jacobi_cf as jc
from finitegap.herglotz import Divisor
from finitegap.spectral_set import GapSystem


def orbit_frequency(gs, divisor, box_entries, steps):
    st = jc.initial_state(gs, divisor)
    hits = 0
    for _ in range(steps):
        _, _, st = jc.cf_step(st)
        d = st.divisor
        inside = True
        for j, a, b, e in box_entries:
            x, sign = d.points[j - 1]
            if not (a <= x <= b and sign == e):
                inside = False
                break
        hits += inside
    return hits / steps


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--input", required=True,
                   help="JSON file with band/gaps/divisor/box")
    p.add_argument("--mc-samples", type=int, default=100_000)
    p.add_argument("--orbit-steps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()

    with open(args.input) as fh:
        doc = json.load(fh)
    gs = GapSystem.from_json(doc)
    divisor = Divisor.from_json(doc).validate(gs)
    box = doc["box"]

    exact = abel.measure_box(gs, box)
    est, se = abel.measure_mc(gs, box, samples=args.mc_samples, seed=args.seed)
    freq = orbit_frequency(gs, divisor, abel._parse_box(gs, box), args.orbit_steps)

    print(f"determinant formula : {exact:.8f}")
    print(f"monte carlo         : {est:.8f} +/- {se:.8f}  ({args.mc_samples} samples)")
    print(f"orbit frequency     : {freq:.8f}  ({args.orbit_steps} shifts)")
    print(f"mc deviation        : {abs(est - exact) / se if se else 0.0:.2f} sigma")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
