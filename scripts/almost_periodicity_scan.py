#!/usr/bin/env python3
"""Scan a Jacobi coefficient sequence for almost-periods.

For a finite-gap reflectionless Jacobi matrix the coefficient sequence is
almost periodic: whenever the shift n brings the frequency vector n*omega
close to 0 on the torus, the coefficient window nearly repeats.  This script
computes a coefficient segment, finds every n whose torus distance is below
--delta, and prints the sup discrepancy of the shifted window against the
original together with the torus distance it should track.
"""

from __future__ import annotations

import argparse
import json

from finitegap import jacobi_cf as jc
from finitegap.herglotz import Divisor
from finitegap.spectral_set import GapSystem, frequencies


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--input", required=True, help="JSON file with band/gaps/divisor")
    p.add_argument("--delta", type=float, default=1e-2, help="torus distance threshold")
    p.add_argument("--window", type=int, default=500, help="comparison window length")
    p.add_argument("--length", type=int, default=None,
                   help="total segment length (default: window + 600)")
    return p


def main() -> int:
    args = build_parser().parse_args()
    with open(args.input) as fh:
        doc = json.load(fh)
    gs = GapSystem.from_json(doc)
    divisor = Divisor.from_json(doc).validate(gs)
    omega = frequencies(gs)

    length = args.length if args.length is not None else args.window + 600
    seg = jc.coefficients(gs, divisor, 0, length)
    report = jc.almost_periodicity_report(seg, omega, delta=args.delta, window=args.window)

    print(f"frequencies: {list(omega)}")
    print(f"{'n':>6}  {'torus_distance':>14}  {'sup_discrepancy':>15}  ratio")
    for entry in report:
        n, dist, sup = entry["n"], entry["torus_distance"], entry["sup_discrepancy"]
        ratio = sup / dist if dist > 0 else float("nan")
        print(f"{n:>6}  {dist:>14.6e}  {sup:>15.6e}  {ratio:8.3f}")
    if not report:
        print(f"no shift in 1..{length - args.window} has torus distance <= {args.delta}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
