"""Truth table of the dissipative CNOT pulse.

Both atoms sit in the cavity while two lasers drive atom 1 on its 1-2
transition and atom 2 on its 0-2 transition, each with Rabi frequency
sqrt(2) Omega.  Conditioned on no emission during T = sqrt(2) pi /
Omega, the qubit pair undergoes |10> <-> |11> while |00> and |01> stay
put: a CNOT with atom 1 as control.
"""

import numpy as np

from zenobell.dynamics import SystemSpec
from zenobell.gates import QUBIT_LABELS, cnot_ideal, cnot_pulse, cnot_pulse_sweep, qubit_amplitudes, qubit_state
from zenobell.hilbert import StateVector

OMEGA = 0.02


def truth_table(gamma):
    spec = SystemSpec(atom_levels=3, n_atoms=2, g=1.0, kappa=1.0, gamma=gamma, n_max=2)
    print(f"gamma = {gamma} g")
    print(f"{'input':>6} {'-> dominant':>11} {'p0':>8} {'fidelity':>9}")
    process = np.zeros((4, 4), dtype=complex)
    # one sweep over the four basis inputs; sweeps do not warn
    run = cnot_pulse_sweep(spec, [OMEGA], QUBIT_LABELS)
    for col, (label, final, p0, fid) in enumerate(zip(QUBIT_LABELS, run.final_states[0], run.p0[0], run.fidelity[0])):
        amps = qubit_amplitudes(StateVector(spec.layout(), final).normalized())
        process[:, col] = amps
        dominant = QUBIT_LABELS[int(np.argmax(np.abs(amps)))]
        print(f"{label:>6} {dominant:>11} {p0:8.4f} {fid:9.5f}")
    gate_overlap = abs(np.trace(cnot_ideal().entries.conj().T @ process)) ** 2 / 16
    print(f"process fidelity vs ideal permutation: {gate_overlap:.5f}")
    print()


print("in the strong-driving regime the permutation is almost perfect:")
truth_table(0.0002)

print("with gamma = 0.5 Omega, spontaneous emission from the transient")
print("antisymmetric state spoils the |10> and |11> rows:")
truth_table(0.01)

print("a superposition input stays coherent (no-jump evolution is linear):")
spec = SystemSpec(atom_levels=3, n_atoms=2, g=1.0, kappa=1.0, gamma=0.0, n_max=2)
plus = qubit_state(spec, np.array([0, 0, 1, 1]) / np.sqrt(2))
rec = cnot_pulse(spec, OMEGA, plus)
amps = qubit_amplitudes(rec.final_state.normalized())
print("  (|10>+|11>)/sqrt2 ->", {QUBIT_LABELS[k]: round(float(abs(a)) ** 2, 4) for k, a in enumerate(amps) if abs(a) > 1e-3})
print(f"  fidelity vs swapped superposition: {rec.fidelity:.6f}")
