"""Standard qubit-register states used by the verification routines.

:func:`entangled_pair_state` is the one builder of the pulse family
alpha |a> + sqrt(1 - |alpha|^2) |00>, on two qubits or on a full
atoms-and-mode layout; the gates, the analytic decoherence-free basis and
the Bell scoring all take their pair states from it, the alpha a pulse
gives from :func:`pair_target_alpha`, and the state a pulse ideally
gives from :func:`pair_target_amplitudes`.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .hilbert import HilbertLayout, StateVector, compose, state_from_amplitudes

__all__ = [
    "qubit_layout",
    "antisymmetric_pair",
    "entangled_pair_state",
    "entangled_pair_amplitudes",
    "pair_target_alpha",
    "pair_target_amplitudes",
    "ghz_state",
]


def qubit_layout(n: int) -> HilbertLayout:
    """Layout of an n-qubit register with labels q1..qn."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return compose([(f"q{i}", 2) for i in range(1, n + 1)])


def antisymmetric_pair() -> StateVector:
    """The maximally entangled two-qubit state |a> = (|10> - |01>)/sqrt(2)."""
    return entangled_pair_state(1.0)


def pair_target_alpha(omega_minus: complex, duration: float) -> complex:
    """Ideal entangled-pair amplitude -i (Om/|Om|) sin(|Om| T / 2); 0 for no pulse (Om = 0).

    Raises ValueError naming the pulse area |Om| T unless it is finite.
    Both Bell landscapes take their alphas here, so this refusal is theirs.
    """
    om = complex(omega_minus)
    modulus = abs(om)
    if not math.isfinite(area := modulus * duration):
        raise ValueError(f"pulse area |omega| T must be finite, got {area}")
    return -1j * (om / modulus if modulus else 1.0) * math.sin(area / 2.0)


def entangled_pair_state(alpha: complex, layout: HilbertLayout | None = None) -> StateVector:
    """alpha |a> + sqrt(1 - |alpha|^2) |00> with |a> = (|10> - |01>)/sqrt(2).

    The one-parameter family produced by the entangling pulse; |alpha|
    must not exceed 1, and alpha = 1 gives |a>.  The first two factors of
    ``layout`` (default: two qubits) carry the pair; every other factor,
    such as the cavity, is in level 0.  The one-row case of
    :func:`entangled_pair_amplitudes`.
    """
    layout = qubit_layout(2) if layout is None else layout
    return StateVector(layout, entangled_pair_amplitudes([complex(alpha)], layout)[0])


def entangled_pair_amplitudes(alphas, layout: HilbertLayout | None = None) -> np.ndarray:
    """(n, d) amplitudes of :func:`entangled_pair_state` for each of ``alphas``."""
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    # hypot and pow are what abs() and ** take for one Python complex, so
    # each row has the bits of the one-alpha formula
    moduli = np.hypot(alphas.real, alphas.imag)
    if (moduli > 1 + 1e-12).any():
        raise ValueError(f"|alpha| must be <= 1, got {float(moduli[moduli > 1 + 1e-12][0])}")
    layout = qubit_layout(2) if layout is None else layout
    others = (0,) * (len(layout.factors) - 2)
    s = 1.0 / math.sqrt(2.0)
    ground = 1.0 - np.float_power(moduli, 2.0)
    amps = np.zeros((len(alphas), layout.total_dim), dtype=complex)
    amps[:, layout.basis_index((1, 0, *others))] += alphas * s
    amps[:, layout.basis_index((0, 1, *others))] += -alphas * s
    amps[:, layout.basis_index((0, 0, *others))] += np.sqrt(np.maximum(ground, 0.0))
    return amps


def pair_target_amplitudes(omegas, durations, layout: HilbertLayout | None = None) -> np.ndarray:
    """:func:`entangled_pair_amplitudes` at the :func:`pair_target_alpha` of each pulse (omegas[j], durations[j])."""
    alphas = [pair_target_alpha(om, duration) for om, duration in zip(omegas, durations, strict=True)]
    return entangled_pair_amplitudes(alphas, layout)


def ghz_state(n: int = 3, phase: float = 0.0) -> StateVector:
    """(|0...0> + e^{i phase} |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise ValueError("GHZ state needs at least two qubits")
    s = 1.0 / math.sqrt(2.0)
    return state_from_amplitudes(
        qubit_layout(n),
        {(0,) * n: s, (1,) * n: s * cmath.exp(1j * phase)},
    )
