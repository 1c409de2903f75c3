"""Entangling two atoms with a single laser pulse in a leaky cavity.

Two ground-state atoms sit in a resonant cavity whose photons leak out
at rate kappa.  Driving them with opposite Rabi frequencies couples
|00> only to the antisymmetric state |a> = (|10> - |01>)/sqrt(2), and
continuous environmental monitoring (no photon ever leaves) freezes all
other transitions.  Conditioned on seeing no photon, the pulse rotates
|00> -> alpha |a> + sqrt(1-|alpha|^2) |00> with
alpha = -i sin(|Omega| T / 2).

This script sweeps the pulse area and the spontaneous-emission rate and
prints how the success probability and conditional fidelity respond.
"""

import math
import warnings

import numpy as np

from zenobell.dynamics import SystemSpec
from zenobell.gates import prepare_pair, prepare_pair_sweep
from zenobell.states import pair_target_alpha

OMEGA = 0.02  # antisymmetric Rabi frequency, units of g

print(f"pulse sweep at |Omega| = {OMEGA} g, kappa = g")
print(f"{'|Om|T/pi':>9} {'p0':>8} {'fidelity':>9} {'|alpha|':>8} {'predicted':>10}")
spec = SystemSpec(atom_levels=2, g=1.0, kappa=1.0, gamma=0.0002, n_max=2)
fracs = np.linspace(0.0, 2.0, 9)
durations = (fracs * math.pi / OMEGA).tolist()
run = prepare_pair_sweep(spec, [(OMEGA, duration) for duration in durations])
for frac, duration, p0, fid, alpha in zip(fracs, durations, run.p0, run.fidelity, run.alpha.tolist()):
    predicted = abs(pair_target_alpha(OMEGA, duration))
    print(f"{frac:9.2f} {p0:8.4f} {fid:9.5f} {abs(alpha):8.4f} {predicted:10.4f}")

print()
print("spontaneous emission is the limiting factor (full pulse, T = pi/|Omega|):")
print(f"{'gamma/g':>9} {'p0':>8} {'fidelity':>9} {'attempts':>9} {'in regime':>10}")
for gamma in (0.0, 0.0002, 0.001, 0.01):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = prepare_pair(
            SystemSpec(atom_levels=2, g=1.0, kappa=1.0, gamma=gamma, n_max=2),
            OMEGA,
            math.pi / OMEGA,
        )
    print(
        f"{gamma:9.4f} {rec.p0:8.4f} {rec.fidelity:9.5f} "
        f"{rec.expected_attempts:9.2f} {str(rec.regime.in_regime):>10}"
    )

print()
print("gamma = 0.01 g sits at gamma/|Omega| = 0.5: the strong-driving")
print("condition gamma << |Omega| fails and the heralded fidelity collapses.")
