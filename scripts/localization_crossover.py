"""Map the localization-rate crossover for an isotropic scatterer.

Sweeps the superposition separation from deep inside the long-wavelength
(quadratic) regime to full saturation and records the rate curve of a
uniform beam (unit density, speed and |f|^2 on (0, q_max)), evaluated in
closed form through the sine integral, next to both asymptotes.  The knee
sits near dx ~ 1/q_max.
"""
from __future__ import annotations

import argparse
import os

import numpy as np

from decosim.models import ScatteringModel, decoherence_rates, localization_rate
from decosim.serialize import write_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q-max", type=float, default=2.0, help="momentum cutoff")
    parser.add_argument("--output", default=".", help="output directory")
    args = parser.parse_args()

    model = ScatteringModel(1.0, 1.0, 1.0, args.q_max)
    rates = decoherence_rates(model)
    separations = np.logspace(-2, 3, 41) / args.q_max
    exact = localization_rate(model, separations)
    table = np.column_stack([
        separations,
        exact,
        rates.prefactor * separations**2,
        np.full_like(separations, rates.total_rate),
    ])

    path = os.path.join(args.output, "crossover.csv")
    write_csv(path, ["separation", "rate", "quadratic_asymptote", "saturation"], table)

    knee = 1.0 / args.q_max
    print(f"total rate {rates.total_rate:.6e}, quadratic prefactor {rates.prefactor:.6e}")
    print(f"crossover separation ~ {knee:.3e}; wrote {path}")


if __name__ == "__main__":
    main()
