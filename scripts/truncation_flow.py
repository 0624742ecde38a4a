#!/usr/bin/env python3
"""Finite-band truncation flow for a gap system.

Maps the gap system to its comb (frequencies and Green-function heights),
truncates the comb at each n in a geometric ladder — teeth with height above
1/n survive with height reduced by 1/n — and reports the truncated product
Delta_n(0) together with the reproducing-kernel value at the origin for a
divisor placed in the surviving gaps.  Delta_n(0) is non-increasing in n and
converges to Delta(0) = exp(-sum h_j).
"""

from __future__ import annotations

import argparse
import json

from finitegap import comb as cb
from finitegap.spectral_set import GapSystem


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--input", required=True, help="JSON file with band/gaps")
    p.add_argument("--n-max", type=int, default=10**6, help="largest truncation parameter")
    p.add_argument("--eps", type=int, default=-1, choices=(-1, 1),
                   help="divisor signs at the critical points (envelope cases)")
    args = p.parse_args()

    with open(args.input) as fh:
        doc = json.load(fh)
    gs = GapSystem.from_json(doc)
    comb = cb.comb_from_gaps(gs)
    delta0 = comb.delta0

    n_list = []
    n = 2
    while n <= args.n_max:
        n_list.append(n)
        n *= 4
    n_list.append(10**15)

    deltas = cb.widom_delta_report(comb, n_list)
    kernels = cb.kernel_truncation_report(gs, n_list, eps=args.eps)

    print(f"comb teeth (omega, h): {[(round(o, 6), round(h, 6)) for o, h in comb.teeth]}")
    print(f"Delta(0) = {delta0:.10f}   Delta(0)^2 = {delta0**2:.10f}")
    print(f"{'n':>16}  {'teeth':>5}  {'Delta_n(0)':>14}  {'kernel k_n(0)':>14}")
    for d, k in zip(deltas, kernels):
        print(f"{d['n']:>16}  {d['teeth']:>5}  {d['delta_n0']:>14.10f}  {k['k0']:>14.10f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
