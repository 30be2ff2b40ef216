#!/usr/bin/env python3
"""Spatial correlation profiles across the topological transition.

Produces the frequency-resolved plateau rows (fixed reference site, one
column per dissipation value) and the equal-time profiles together with the
universal Gaussian envelope, as CSV ready for plotting.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

import topocorr as tc
from topocorr.correlations import equal_time, freq_correlations
from topocorr.greensvd import svd_at
from topocorr.models import dynamical_matrix


def frequency_rows(n_sites, chains, reference, out_path):
    cols = {}
    for gamma, c in chains.items():
        fc = freq_correlations(svd_at(dynamical_matrix(c), 0.0), c)
        cols[gamma] = np.abs(fc.n_bar[reference])
        print(f"frequency-resolved row done for gamma={gamma}")
    with open(out_path, "w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(["site"] + [f"gamma_{g}" for g in chains])
        for j in range(n_sites):
            writer.writerow([j] + [f"{cols[g][j]:.8f}" for g in chains])


def equal_time_rows(n_sites, chains, reference, out_path):
    cols = {}
    for gamma, c in chains.items():
        et = equal_time(c)
        cols[gamma] = np.abs(et.n_bar[reference])
        print(f"equal-time row done for gamma={gamma} "
              f"({et.quadrature_report.panels} panels)")
    with open(out_path, "w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(["site", "gaussian_envelope"] + [f"gamma_{g}" for g in chains])
        for j in range(n_sites):
            envelope = tc.gaussian_prediction(reference, j) if j >= 1 else ""
            writer.writerow([j, envelope] + [f"{cols[g][j]:.8f}" for g in chains])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/profiles")
    parser.add_argument("--n-sites", type=int, default=50)
    parser.add_argument("--reference", type=int, default=24)
    parser.add_argument("--gammas", type=float, nargs="+",
                        default=[3.0, 4.0, 5.0, 7.0])
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stable = {}
    for gamma in args.gammas:
        c = tc.build_model_i(tc.ModelIParams(n_sites=args.n_sites, gamma=gamma))
        if c.stability.stable:
            stable[gamma] = c
        else:
            print(f"skipped gamma={gamma}: no steady state ({c.stability.route} verdict)")
    frequency_rows(args.n_sites, stable, args.reference, out / "frequency_rows.csv")
    equal_time_rows(args.n_sites, stable, args.reference, out / "equal_time_rows.csv")
    print(f"wrote profiles to {out}/")


if __name__ == "__main__":
    main()
