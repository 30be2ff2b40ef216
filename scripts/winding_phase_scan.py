#!/usr/bin/env python3
"""Scan winding-number arrays across the dissipation axis for both models.

Writes one CSV per model with the array, closings and stability flag at each
dissipation value, reproducing the phase-transition sequence of the
collective-gain chain ((0,1,2,1,0) -> (0,1,0) -> (0) with boundaries near
4.2 and 5.4).
"""

import argparse
import csv
from pathlib import Path

import numpy as np

import topocorr as tc
from topocorr.topology import GapClosingError


def scan(name, chain, gammas, out_path):
    """Write the winding array of ``chain(gamma)`` at each dissipation value."""
    with open(out_path, "w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "nus", "closings", "stable"])
        for gamma in gammas:
            c = chain(float(gamma))
            try:
                arr = tc.winding_array(c)
            except (GapClosingError, ValueError) as exc:
                writer.writerow([f"{gamma:.3f}", "ERR", str(exc), ""])
                continue
            writer.writerow([
                f"{gamma:.3f}", " ".join(map(str, arr.nus)),
                " ".join(f"{x:.4f}" for x in arr.closings), arr.stable,
            ])
            print(f"{name} gamma={gamma:.2f}: {arr.nus}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/phase_scan", help="output directory")
    parser.add_argument("--gamma-min", type=float, default=1.0)
    parser.add_argument("--gamma-max", type=float, default=8.0)
    parser.add_argument("--steps", type=int, default=15)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gammas = np.linspace(args.gamma_min, args.gamma_max, args.steps)
    scan("model_i", lambda g: tc.build_model_i(tc.ModelIParams(n_sites=2, gamma=g)),
         gammas, out / "model_i_arrays.csv")
    scan("model_ii", lambda g: tc.adiabatic_eliminate(tc.ModelIIParams(n_cells=2, gamma=g)),
         gammas, out / "model_ii_effective_arrays.csv")
    print(f"wrote {out}/model_i_arrays.csv and {out}/model_ii_effective_arrays.csv")


if __name__ == "__main__":
    main()
