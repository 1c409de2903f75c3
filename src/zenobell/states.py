"""Standard qubit-register states used by the verification routines.

:func:`entangled_pair_state` is the one builder of the pulse family
alpha |a> + sqrt(1 - |alpha|^2) |00>, on two qubits or on a full
atoms-and-mode layout; the gates, the analytic decoherence-free basis and
the Bell scoring all take their pair states from it.
"""

from __future__ import annotations

import cmath
import math

from .hilbert import HilbertLayout, StateVector, compose, state_from_amplitudes

__all__ = [
    "qubit_layout",
    "antisymmetric_pair",
    "entangled_pair_state",
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


def entangled_pair_state(alpha: complex, layout: HilbertLayout | None = None) -> StateVector:
    """alpha |a> + sqrt(1 - |alpha|^2) |00> with |a> = (|10> - |01>)/sqrt(2).

    The one-parameter family produced by the entangling pulse; |alpha|
    must not exceed 1, and alpha = 1 gives |a>.  The first two factors of
    ``layout`` (default: two qubits) carry the pair; every other factor,
    such as the cavity, is in level 0.
    """
    alpha = complex(alpha)
    if abs(alpha) > 1 + 1e-12:
        raise ValueError(f"|alpha| must be <= 1, got {abs(alpha)}")
    layout = qubit_layout(2) if layout is None else layout
    others = (0,) * (len(layout.factors) - 2)
    s = 1.0 / math.sqrt(2.0)
    return state_from_amplitudes(
        layout,
        {
            (1, 0, *others): alpha * s,
            (0, 1, *others): -alpha * s,
            (0, 0, *others): math.sqrt(max(0.0, 1.0 - abs(alpha) ** 2)),
        },
    )


def ghz_state(n: int = 3, phase: float = 0.0) -> StateVector:
    """(|0...0> + e^{i phase} |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise ValueError("GHZ state needs at least two qubits")
    s = 1.0 / math.sqrt(2.0)
    return state_from_amplitudes(
        qubit_layout(n),
        {(0,) * n: s, (1,) * n: s * cmath.exp(1j * phase)},
    )
