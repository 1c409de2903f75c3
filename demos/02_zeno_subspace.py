"""Finding the decoherence-free subspace and the dynamics it carries.

The numeric finder intersects the kernels of all decay operators with
the invariant subspaces of the internal coupling.  For two driven
two-level atoms it recovers span{|00>, |a>}; for two Lambda atoms it
recovers the four qubit states plus (|12> - |21>)/sqrt(2).  Projecting
the conditional Hamiltonian onto the subspace exposes the effective
laser-driven dynamics that survives the environmental Zeno effect.
"""

import math

import numpy as np

from zenobell.dfs import effective_hamiltonian, find_dfs
from zenobell.dynamics import (
    SystemSpec,
    cnot_drive,
    decay_operators,
    h_cond_lambda,
    h_cond_two_level,
    pair_drive,
    zeno_timescale,
)

np.set_printoptions(precision=4, suppress=True, linewidth=120)

print("=== two driven two-level atoms ===")
spec = SystemSpec(atom_levels=2, g=1.0, kappa=1.0, gamma=0.0, n_max=2)
dfs = find_dfs(h_cond_two_level(spec), decay_operators(spec))
print(f"subspace dimension: {dfs.dim}")
for k, v in enumerate(dfs.vectors):
    support = {
        dfs.layout.basis_occupations(i): round(float(v.amplitudes[i].real), 4)
        for i in np.flatnonzero(np.abs(v.amplitudes) > 1e-9)
    }
    print(f"  vector {k}: {support}")

omega = 0.02
eff = effective_hamiltonian(h_cond_two_level(spec, pair_drive(omega)), dfs)
print("projected Hamiltonian in that basis (units of g):")
print(eff.in_basis.real)

print()
print("=== two Lambda atoms under the CNOT drive ===")
lspec = SystemSpec(atom_levels=3, g=1.0, kappa=1.0, gamma=0.0, n_max=2)
ldfs = find_dfs(h_cond_lambda(lspec), decay_operators(lspec))
print(f"subspace dimension: {ldfs.dim}")
leff = effective_hamiltonian(h_cond_lambda(lspec, cnot_drive(omega)), ldfs)
print("projected Hamiltonian, basis |00>, |01>, |10>, |11>, (|12>-|21>)/sqrt2:")
print(leff.in_basis.real)
print()
print("|10> and |11> are coupled through the antisymmetric state with")
print("opposite signs: after a pulse of length sqrt(2) pi / Omega the pair")
print("picks up exactly the controlled-NOT permutation.")

print()
dt = zeno_timescale(spec)
print(f"environment-measurement timescale: {dt:.2f} / g")
print(f"pulse duration at Omega = {omega} g: {math.pi / omega:.1f} / g  (>> {dt:.2f} / g)")
