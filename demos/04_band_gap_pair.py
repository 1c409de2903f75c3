"""Entangling two atoms sequentially through a band-gap defect mode.

Inside a photonic band gap an excited atom cannot radiate; it only
exchanges its excitation with a resonant defect mode at the vacuum-Rabi
rate g.  Atom 1 enters excited and leaves after g t1 = pi/4, depositing
half its excitation in the mode; atom 2 enters in the ground state and
absorbs the photon completely when g t2 = pi/2.  What remains is the
maximally entangled pair (|e g> + |g e>)/sqrt(2) with the mode empty.
"""

import math

import numpy as np

from zenobell.hilbert import fidelity
from zenobell.pbg import TransitPlan, bell_target, jc_amplitudes, pbg_final_state, pbg_layout, pbg_optimal_times

print("vacuum-Rabi exchange amplitudes (c_e, c_g) of the bound state:")
for gt in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4):
    ce, cg = jc_amplitudes(1.0, gt)
    print(f"  g t = {gt / math.pi:4.2f} pi: c_e = {ce.real:+.4f}, c_g = {cg.real:+.4f}")

plan = pbg_optimal_times(1.0)
psi = pbg_final_state(plan)
layout = pbg_layout()
print()
print(f"optimal transit times: g t1 = {plan.t1:.4f}, g t2 = {plan.t2:.4f}")
print("final amplitudes:")
for occ in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
    amp = psi.amplitudes[layout.basis_index(occ)]
    print(f"  |atom1={occ[0]}, atom2={occ[1]}, photons={occ[2]}>: {amp.real:+.4f}")
print(f"Bell-state fidelity: {fidelity(psi, bell_target()):.12f}")

print()
print("sensitivity to timing errors (fidelity on a coarse grid):")
grid = [math.pi / 4 + d for d in (-0.2, -0.1, 0.0, 0.1, 0.2)]
target = bell_target().amplitudes
header = "   g_t1 \\ g_t2 " + " ".join(f"{math.pi / 2 + d:7.3f}" for d in (-0.2, -0.1, 0.0, 0.1, 0.2))
print(header)
for gt1 in grid:
    row = [f"{gt1:7.3f}      "]
    for d2 in (-0.2, -0.1, 0.0, 0.1, 0.2):
        f = abs(np.vdot(target, pbg_final_state(TransitPlan(1.0, gt1, math.pi / 2 + d2)).amplitudes)) ** 2
        row.append(f"{f:7.4f}")
    print(" ".join(row))

print()
print("a lossy defect mode drains the photon branch:")
for loss in (0.0, 0.05, 0.2):
    psi = pbg_final_state(pbg_optimal_times(1.0), loss=loss)
    norm_sq = psi.norm() ** 2
    overlap = abs(np.vdot(target, psi.amplitudes)) ** 2
    print(f"  loss = {loss:4.2f} g: survival = {norm_sq:.4f}, conditional fidelity = {overlap / norm_sq:.4f}")
