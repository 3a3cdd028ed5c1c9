"""Convergence study for the diffusive unraveling of pure dephasing.

Batches of stochastic trajectories are averaged and compared against the
deterministic solver at t = 1/kappa; the mean trace distance should fall
off as n^(-1/2).  Repetitions use disjoint seed blocks so batches stay
independent.
"""
from __future__ import annotations

import argparse
import os

import numpy as np

from decosim import (
    SIGMA_Z,
    DensityMatrix,
    LindbladSpec,
    Operator,
    StateVector,
    TrajectoryConfig,
    evolve,
    unravel,
)
from decosim.serialize import render_cells, write_csv


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=10, help="batches per ensemble size")
    parser.add_argument("--seed", type=int, default=7000, help="seed-block base")
    parser.add_argument("--output", default=".", help="output directory")
    args = parser.parse_args()

    spec = LindbladSpec(
        Operator(np.zeros((2, 2), dtype=complex)), ((Operator(SIGMA_Z), 1.0),)
    )
    plus = StateVector(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0))
    rho0 = DensityMatrix(np.outer(plus.amplitudes, plus.amplitudes.conj()))
    reference = evolve(spec, rho0, 1.0, dt=1.0).states[-1]

    sizes = (100, 1000, 10000)
    means = []
    spreads = []
    for i, n in enumerate(sizes):
        distances = []
        for r in range(args.reps):
            cfg = TrajectoryConfig(
                dt=2e-3,
                t_final=1.0,
                n_trajectories=n,
                master_seed=args.seed + 100 * i + r,
            )
            out = unravel(spec, plus, cfg, store_every=500)
            distances.append(trace_distance(out.ensemble[-1], reference))
        mean = float(np.mean(distances))
        means.append(mean)
        spreads.append(float(np.std(distances)))
        print(f"n = {n:6d}: mean distance {mean:.5f} (spread {np.std(distances):.5f})")

    slope = float(np.polyfit(np.log10(sizes), np.log10(means), 1)[0])
    print(f"fitted scaling exponent {slope:.3f} (expected -0.5)")

    path = os.path.join(args.output, "scaling.csv")
    counts = np.array([[str(n), str(args.reps)] for n in sizes], dtype=bytes)
    table = np.column_stack([counts[:, 0], render_cells(np.column_stack([means, spreads])),
                             counts[:, 1]])
    write_csv(path, ["n_trajectories", "mean_distance", "spread", "reps"], table)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
