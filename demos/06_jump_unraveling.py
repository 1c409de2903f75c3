"""Cross-checking the no-photon probability with quantum-jump sampling.

The deterministic route computes ||exp(-i H t) psi0||^2 with the
non-Hermitian conditional Hamiltonian.  The stochastic route unravels
the same dissipation into jump operators sqrt(2 kappa) b and
sqrt(2 Gamma) |g><e|, simulates many trajectories and counts the
fraction that never jump.  Both must agree within sampling error.
"""

import math

import numpy as np

from zenobell.dynamics import SystemSpec, decay_operators, h_cond, h_cond_two_level, no_photon_probability, pair_drive
from zenobell.gates import pair_duration
from zenobell.hilbert import basis_state
from zenobell.trajectories import first_jump_histogram, run_trajectories

print("=== pure cavity decay from a one-photon state ===")
cavity = SystemSpec(n_atoms=0, kappa=1.0, n_max=2)  # no atoms: H = -i kappa b^dag b
h, jump = h_cond(cavity), decay_operators(cavity)
psi0 = basis_state(cavity.layout(), (1,))
print(f"{'t':>5} {'exact e^-2t':>12} {'Monte Carlo':>12} {'sigma':>8}")
for t in (0.25, 0.5, 1.0, 1.5):
    batch = run_trajectories(h, jump, psi0, t, 20_000, seed=100)
    print(f"{t:5.2f} {math.exp(-2 * t):12.4f} {batch.p0_estimate:12.4f} {batch.p0_stderr:8.4f}")

print()
print("=== entangling pulse, success probability ===")
omega = 0.02
spec = SystemSpec(atom_levels=2, g=1.0, kappa=1.0, gamma=0.001, n_max=2)
hp = h_cond_two_level(spec, pair_drive(omega))
psi0 = basis_state(hp.layout, (0, 0, 0))
t_end = pair_duration(omega)
batch = run_trajectories(hp, decay_operators(spec), psi0, t_end, 10_000, seed=100)
det = no_photon_probability(hp, psi0, t_end)
pull = abs(batch.p0_estimate - det) / batch.p0_stderr
print(f"deterministic P0 = {det:.4f}")
print(f"Monte-Carlo  P0 = {batch.p0_estimate:.4f} +- {batch.p0_stderr:.4f}  ({pull:.2f} sigma apart)")
print(f"(dt = {batch.dt:.4g}, {batch.n_traj} trajectories, seed {batch.seed})")

print()
print("when does the first photon leave? (histogram over jumped trajectories)")
histogram = first_jump_histogram(batch)
counts = np.array([c for _, c in histogram], dtype=float)
edges = [e for e, _ in histogram]
peak = counts.max() if counts.max() > 0 else 1.0
for k in range(0, len(counts), 5):
    c = counts[k : k + 5].sum()
    bar = "#" * int(40 * c / (5 * peak))
    # the histogram lists left edges only: the last group closes at t_end
    right = f"{edges[k + 5]:6.1f})" if k + 5 < len(edges) else f"{batch.t_end:6.1f}]"
    print(f"  t in [{edges[k]:6.1f}, {right}: {bar}")
print("the emission flux tracks the excited antisymmetric-state")
print("population sin^2(|Omega| t / 2), so it keeps growing as the pulse")
print("rotates |00> toward |a>.")
