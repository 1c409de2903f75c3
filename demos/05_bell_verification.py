"""Verifying entanglement without ever seeing a photon.

A preparation scheme that works by *not* emitting photons cannot be
certified by photodetection, so the state must betray itself through
measured correlations.  For the pulse family
alpha |a> + sqrt(1-|alpha|^2) |00> the equatorial correlation function
is E(v, 0) = -|alpha|^2 cos(v), so ``bs_value`` on the angle chain
``AnalyzerSettings.from_single_angle(v)`` gives the reduced spin Bell
combination |3 E(v,0) - E(3v,0)|.  It crosses the classical bound 2
once |alpha|^2 > 1/sqrt(2), peaking at 2 sqrt(2) for the full pulse.  GHZ
states are certified the same way through the three-qubit Mermin
combination, which reaches 4 against a classical bound of 2.
"""

import math

from zenobell.bell import AnalyzerSettings, bs_landscape, bs_value, mermin_n, sample_correlation
from zenobell.hilbert import basis_state
from zenobell.states import antisymmetric_pair, entangled_pair_state, ghz_state, qubit_layout

print("reduced Bell value of the full-pulse state vs analyzer angle:")
psi = antisymmetric_pair()
for frac in (0.0, 0.125, 0.25, 0.375, 0.5):
    v = frac * math.pi
    print(f"  vartheta = {frac:5.3f} pi: |B_S| = {abs(bs_value(psi, AnalyzerSettings.from_single_angle(v)).b_s):.4f}")

print()
print("violation islands in the (pulse area, analyzer angle) plane")
print("('#' marks |B_S| > 2, '.' marks no violation):")
cols, rows_n = 64, 17
grid_t = [k * 2 * math.pi / (cols - 1) for k in range(cols)]
grid_v = [k * math.pi / (rows_n - 1) for k in range(rows_n)]
landscape = bs_landscape(grid_t, grid_v)
violated = landscape.violated.reshape(cols, rows_n)  # [pulse area, angle], the angle varying fastest
for angle in reversed(range(rows_n)):
    print("  " + "".join("#" if bad else "." for bad in violated[:, angle]))
print("  pulse area 0 .. 2 pi ->  (angle 0 at bottom, pi at top)")

best = landscape.b_s.argmax()
print(
    f"maximum |B_S| = {landscape.b_s[best]:.6f} at pulse area {landscape.omega_T[best] / math.pi:.2f} pi,"
    f" angle {landscape.vartheta[best] / math.pi:.2f} pi"
)

print()
print("finite statistics with noisy readout (full-pulse state, 10^4 shots):")
exact = -math.cos(math.pi / 4)
for eps in (0.0, 0.02, 0.1):
    est, err = sample_correlation(psi, 0, 1, math.pi / 4, 0.0, shots=10_000, seed=7, readout_error=eps)
    print(f"  flip rate {eps:4.2f}: E = {est:+.4f} +- {err:.4f}   (ideal {exact:+.4f}, attenuated {(1 - 2 * eps) ** 2 * exact:+.4f})")

print()
print("three atoms, Mermin combination:")
print(f"  GHZ state:   F = {mermin_n(ghz_state(3)).value:.6f}   (classical bound 2)")
print(f"  |000>:       F = {mermin_n(basis_state(qubit_layout(3), (0, 0, 0))).value:.6f}")

print()
print("larger registers with the recursive combination:")
for n in (3, 4, 5):
    phase = 0.0 if n % 2 else math.pi / 4
    res = mermin_n(ghz_state(n, phase))
    print(
        f"  n = {n}: value = {res.value:8.4f}, classical bound = {res.classical_bound:g}, "
        f"quantum bound = {res.quantum_bound:.4f}"
    )

print()
print("partially entangled pulse states cross the classical bound at |alpha|^2 = 1/sqrt(2):")
for alpha_sq in (0.5, 1 / math.sqrt(2), 0.85, 1.0):
    state = entangled_pair_state(math.sqrt(alpha_sq))
    print(f"  |alpha|^2 = {alpha_sq:5.3f}: |B_S| = {abs(bs_value(state, AnalyzerSettings.from_single_angle(math.pi / 4)).b_s):.4f}")
