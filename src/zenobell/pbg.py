"""Sequential atom entanglement through a photonic-band-gap defect mode.

Inside the band gap an excited atom cannot radiate into free space; it
exchanges its excitation coherently with the resonant defect mode at the
vacuum-Rabi rate g.  Sending one excited atom and then one ground-state
atom through the defect, with interaction times t1 and t2, leaves the
pair in a superposition whose weights are products of the single-atom
exchange amplitudes.  Choosing g*t1 = pi/4 and g*t2 = pi/2 empties the
mode and leaves the atoms maximally entangled.

The coupling convention is the antisymmetric one, i g (b s+ - h.c.),
matching the cavity modules; it makes the exchange amplitudes real,
c_e(t) = cos(g t) and c_g(t) = -sin(g t), and yields the plus-sign Bell
state (|e g> + |g e>)/sqrt(2) at the optimal times.
"""

from __future__ import annotations

import math

import numpy as np

from ._expm import expm
from .hilbert import HilbertLayout, StateVector, _Record, compose, state_from_amplitudes

__all__ = [
    "TransitPlan",
    "jc_amplitudes",
    "pbg_layout",
    "pbg_final_state",
    "pbg_final_states",
    "pbg_optimal_times",
    "bell_target",
    "check_coupling",
    "check_loss",
]


class TransitPlan(_Record):
    """Coupling strength and the two atom-defect interaction times."""

    __slots__ = ("g", "t1", "t2")

    def __init__(self, g: float, t1: float, t2: float):
        check_coupling(g)
        _check_time("t1", t1)
        _check_time("t2", t2)
        self._set(g, t1, t2)


def check_coupling(g: float) -> None:
    """Raise ValueError unless the vacuum-Rabi coupling ``g`` is finite and positive.

    :class:`TransitPlan`, the exchange amplitudes and
    :func:`pbg_optimal_times` check ``g`` here, and ``config.parse_config``
    checks the pbg ``g`` key here.
    """
    if not (math.isfinite(g) and g > 0):
        raise ValueError(f"g must be finite and > 0, got {g}")


def check_loss(loss: float) -> None:
    """Raise ValueError unless the defect-mode amplitude loss rate ``loss`` is finite and >= 0; the config checks its key here."""
    if not (math.isfinite(loss) and loss >= 0):
        raise ValueError(f"loss must be finite and >= 0, got {loss}")


def _check_time(name: str, t: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {t}")


def jc_amplitudes(g: float, t: float, loss: float = 0.0) -> tuple[complex, complex]:
    """Resonant vacuum-Rabi amplitudes of the photon-atom bound state.

    Starting from |excited, 0 photons>, returns (c_e, c_g) with
    c_e multiplying |e>|0> and c_g multiplying |g>|1>.  With no loss the
    solution is (cos(g t), -sin(g t)) and |c_e|^2 + |c_g|^2 = 1.  A
    phenomenological defect-mode amplitude loss rate may be supplied for
    sensitivity studies; the pair then decays below unit norm.
    """
    _check_time("t", t)
    ce, cg = _exchange_amplitudes(g, [t], loss)[0]
    return complex(ce), complex(cg)


def _exchange_amplitudes(g: float, times: list, loss: float) -> np.ndarray:
    """(n, 2) array of the :func:`jc_amplitudes` (c_e, c_g) at each of ``times``; checks ``g`` and ``loss``.

    With loss, one stacked ``expm`` of the 2 x 2 exchange block serves
    every time: -i H t = [[0, g t], [-g t, -loss t]] is exactly real, so
    it is exponentiated in float64.
    """
    check_coupling(g)
    check_loss(loss)
    if loss == 0.0:
        return np.array([(math.cos(g * t), -math.sin(g * t)) for t in times], dtype=complex).reshape(-1, 2)
    exponent = np.array([[0.0, g], [-g, -loss]])
    t = np.array(times, dtype=float)[:, None, None]
    # an overflowing loss t comes back non-finite, which the callers'
    # finiteness checks report as a numeric failure
    with np.errstate(over="ignore", invalid="ignore"):
        a = exponent * t
    return expm(a)[:, :, 0].astype(complex)


def pbg_layout() -> HilbertLayout:
    """Two two-level atoms and the (0/1 photon) defect mode."""
    return compose([("atom1", 2), ("atom2", 2), ("defect", 2)])


def pbg_final_state(plan: TransitPlan, loss: float = 0.0) -> StateVector:
    """State after both atoms have crossed the defect.

    c_e(t1)|e g 0> + c_g(t1) c_e(t2)|g g 1> + c_g(t1) c_g(t2)|g e 0>,
    with excited = level 1.  Unit norm for loss = 0.
    """
    return StateVector(pbg_layout(), pbg_final_states(plan.g, [plan.t1], [plan.t2], loss)[0])


def pbg_final_states(g: float, t1_values, t2_values, loss: float = 0.0) -> np.ndarray:
    """Amplitudes of :func:`pbg_final_state` for every (t1, t2) of a grid.

    Rows run over t1, then t2 (the last fastest), one row of
    ``pbg_layout().total_dim`` amplitudes each.  The exchange amplitudes
    of all t1 and t2 axis values come from one stacked ``expm`` of
    n1 + n2 matrices.  Rows are not checked for finiteness; a large
    ``loss`` can overflow them.
    """
    t1_values, t2_values = list(t1_values), list(t2_values)
    for name, values in (("t1", t1_values), ("t2", t2_values)):
        for t in values:
            _check_time(name, t)
    exchange = _exchange_amplitudes(g, t1_values + t2_values, loss)
    (ce1, cg1), (ce2, cg2) = exchange[: len(t1_values)].T, exchange[len(t1_values) :].T
    layout = pbg_layout()
    amps = np.zeros((len(t1_values), len(t2_values), layout.total_dim), dtype=complex)
    amps[:, :, layout.basis_index((1, 0, 0))] = ce1[:, None]
    amps[:, :, layout.basis_index((0, 0, 1))] = np.outer(cg1, ce2)
    amps[:, :, layout.basis_index((0, 1, 0))] = np.outer(cg1, cg2)
    return amps.reshape(-1, layout.total_dim)


def bell_target() -> StateVector:
    """(|e g> + |g e>)/sqrt(2) with the defect mode empty."""
    s = 1.0 / math.sqrt(2.0)
    return state_from_amplitudes(pbg_layout(), {(1, 0, 0): s, (0, 1, 0): s})


def pbg_optimal_times(g: float) -> TransitPlan:
    """Interaction times g*t1 = pi/4, g*t2 = pi/2 giving the Bell state.

    t2 empties the photon branch (c_e(t2) = 0) and t1 balances the two
    atomic branches (|c_e(t1)| = 1/sqrt(2)).
    """
    check_coupling(g)
    return TransitPlan(g=g, t1=math.pi / (4.0 * g), t2=math.pi / (2.0 * g))
