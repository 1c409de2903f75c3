"""Entangling-pulse and dissipative-CNOT protocols.

Each cavity protocol is a single square laser pulse applied while the
atoms sit in the cavity.  The run is scored conditionally on no photon
having been emitted: the returned record carries the unnormalized final
state, the no-photon probability p0 = ||psi||^2, and the fidelity of the
renormalized state against the ideal target.  When p0 < 1 the protocol
is heralded (an emission means "repeat"), and 1/p0 estimates the
expected number of attempts.

The pulse lengths are :func:`pair_duration` and :func:`cnot_duration`.
A sweep returns plain columns; a run's regime is computed where it is reported.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .dynamics import (
    REGIME_THRESHOLD,
    DrivenHamiltonian,
    RegimeReport,
    SystemSpec,
    check_regime,
    check_final_states,
    cnot_drive,
    no_jump_states,
    pair_drive,
    zeno_timescale,
    _systems,
)
from .hilbert import (
    OperatorMatrix, StateVector, _frozen, basis_state, check_normalized, compose, fidelities, state_from_amplitudes
)
from .states import entangled_pair_state, pair_target_amplitudes

__all__ = [
    "RunRecord",
    "SweepResult",
    "prepare_pair",
    "prepare_pair_sweep",
    "cnot_ideal",
    "cnot_pulse",
    "cnot_pulse_sweep",
    "cnot_duration",
    "pair_duration",
    "cavity_decay_duration",
    "check_omega",
    "qubit_state",
    "qubit_amplitudes",
]

QUBIT_LABELS = ("00", "01", "10", "11")
_QUBIT_LEVELS = ((0, 0), (0, 1), (1, 0), (1, 1))  # the atom levels of each label


class RunRecord(NamedTuple):
    """Outcome of one conditional protocol run."""

    final_state: StateVector
    p0: float
    fidelity: float
    alpha: complex | None
    duration: float
    regime: RegimeReport

    @property
    def expected_attempts(self) -> float:
        """Mean number of repeat-until-success attempts, 1/p0."""
        return math.inf if self.p0 == 0 else 1.0 / self.p0


class SweepResult(NamedTuple):
    """Outcome of a pulse sweep as read-only columns, one entry per run.

    The runs are indexed by point for :func:`prepare_pair_sweep` and by
    (omega, input) for :func:`cnot_pulse_sweep`: ``final_states`` has
    shape (points, d) or (omegas, inputs, d), and ``p0`` and ``fidelity``
    share its leading shape.  A sweep over several systems lists the
    points (or omegas) of each system in turn, system-major.  ``alpha`` is
    the achieved entangled-pair amplitude per point, and ``None`` for the
    CNOT.  ``duration`` is per point for the pair and per omega for the
    CNOT.  Sweeps do not warn: an omega's regime is
    :func:`~zenobell.dynamics.check_regime` of ``spec`` and ``|omega|``,
    and a run's pulse is short for Zeno suppression when
    ``duration < 10 * zeno_timescale(spec)``.
    """

    final_states: np.ndarray
    p0: np.ndarray
    fidelity: np.ndarray
    alpha: np.ndarray | None
    duration: np.ndarray


def _first_record(spec: SystemSpec, omega: complex, run: SweepResult) -> RunRecord:
    """The one run of a one-point sweep at ``omega`` as a :class:`RunRecord`.

    Warns, from the caller's caller, when the run is outside the
    strong-coupling regime or its pulse is too short for Zeno suppression.
    """
    first = (0,) * run.p0.ndim
    alpha = None if run.alpha is None else complex(run.alpha[first])
    state = StateVector(spec.layout(), run.final_states[first])
    regime = check_regime(spec, abs(complex(omega)))
    if failed := ", ".join(f"{name} = {r:g}" for name, r in regime.ratios.items() if not r < REGIME_THRESHOLD):
        warnings.warn(
            f"parameters outside the strong-coupling regime: {failed} (each ratio must be < {REGIME_THRESHOLD:g})",
            stacklevel=3,
        )
    if spec.kappa > 0 and run.duration[0] < 10.0 * zeno_timescale(spec):
        warnings.warn(
            "pulse shorter than 10x the environment-measurement timescale; Zeno suppression of leakage may be poor",
            stacklevel=3,
        )
    return RunRecord(state, float(run.p0[first]), float(run.fidelity[first]), alpha, float(run.duration[0]), regime)


def prepare_pair(spec: SystemSpec, omega_minus: complex, duration: float) -> RunRecord:
    """Drive |00> toward alpha |a> + sqrt(1-|alpha|^2) |00> with one pulse.

    The two lasers are fixed to opposite Rabi frequencies,
    Omega_1 = -Omega_2 = omega_minus / sqrt(2) (:func:`pair_drive`), so the
    antisymmetric combination equals ``omega_minus``.  The pulse runs for
    ``duration`` under the full two-level conditional Hamiltonian;
    out-of-regime parameters and a pulse shorter than 10x
    :func:`~zenobell.dynamics.zeno_timescale` produce a warning, not an error.
    The fidelity target is the state the pulse ideally gives
    (:func:`~zenobell.states.pair_target_amplitudes`); the achieved alpha is
    the overlap of the renormalized final state with |a> (cavity empty).
    """
    return _first_record(spec, omega_minus, prepare_pair_sweep(spec, [(omega_minus, duration)]))


def prepare_pair_sweep(spec, points) -> SweepResult:
    """:func:`prepare_pair` at every (omega_minus, duration) point, in order, as one :class:`SweepResult`.

    ``spec`` is one :class:`SystemSpec` or a sequence of specs on one
    layout (say, one per Gamma); then every point runs on each spec in
    turn, and row s * len(points) + j is point j on ``spec[s]``.  The
    Hamiltonians are assembled once and all pulses are propagated by
    stacked matrix exponentials in one kernel call; each row equals the
    single-point record of its spec and point.  A zero omega_minus is
    refused by :func:`check_omega` before any propagation.  Raises
    :class:`NumericalError` naming the point (and, with several specs,
    its spec's index) where the final state is not finite or has no norm
    left.
    """
    specs, points = _systems(spec), list(points)
    family = DrivenHamiltonian.of(specs, pair_drive(1.0))
    for omega_minus, _ in points:
        check_omega("omega_minus", omega_minus)
    ground = basis_state(family.layout, (0, 0, 0)).amplitudes
    name = lambda om, t, _: f"omega_minus={om:.9g}, T={t:.9g}"
    durations, finals, norm = _sweep(family, pair_drive, points, [ground], name)
    targets = pair_target_amplitudes([om for om, _ in points], [t for _, t in points], family.layout)
    fid = fidelities(finals.reshape(len(specs), *targets.shape), targets).reshape(-1)
    finals, norm = finals[:, 0], norm[:, 0]
    achieved = np.vecdot(entangled_pair_state(1.0, family.layout).amplitudes, finals) / norm
    return SweepResult(*map(_frozen, (finals, norm**2, fid, achieved, durations)))


def _sweep(family: DrivenHamiltonian, drive, points: list, inputs, name) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Propagate every (omega, duration) of ``points`` on each system of ``family`` from each input; check the runs.

    The runs are the family's systems x the points, system-major: run
    r = s * len(points) + j is ``drive(omega)`` of point j on system s,
    and each point's drive and duration are passed to the kernel once.
    ``inputs`` holds M amplitude rows.  Returns the run durations, the
    (runs, M, d) final states of :func:`no_jump_states` and their norms
    from :func:`check_final_states`, which names input m of run r
    ``name(omega, duration, m)``, after ``system s, `` with several
    systems.  Each sweep builds its family and inputs before this step
    and scores its own targets after it.
    """
    n_systems = len(family.h0)
    durations = np.array([duration for _, duration in points], dtype=float)
    finals = no_jump_states(family, [drive(omega) for omega, _ in points], durations, inputs)
    n_in, d = finals.shape[1:]
    norm = check_final_states(
        finals.reshape(-1, d),
        lambda j: ("" if n_systems == 1 else f"system {j // n_in // len(points)}, ")
        + name(*points[j // n_in % len(points)], j % n_in),
    ).reshape(finals.shape[:-1])
    return np.tile(durations, n_systems), finals, norm


def cnot_ideal() -> OperatorMatrix:
    """Permutation on {|00>,|01>,|10>,|11>} swapping |10> and |11>."""
    u = np.eye(4, dtype=complex)
    u[2, 2] = u[3, 3] = 0.0
    u[2, 3] = u[3, 2] = 1.0
    layout = compose([("control", 2), ("target", 2)])
    return OperatorMatrix(layout, u)


def check_omega(name: str, omega) -> None:
    """Raise ValueError unless the Rabi frequency ``omega`` of the pulse key ``name`` is nonzero.

    The pulse lengths and :func:`prepare_pair_sweep` check each omega here
    before any propagation, and ``config.parse_config`` checks the omega keys here.
    """
    if omega == 0:
        raise ValueError(f"{name} must be nonzero")


def _default_duration(name: str, value, duration: float) -> float:
    """``duration``, the default run length at ``value`` of ``name``, refused unless finite."""
    if not math.isfinite(duration):
        raise ValueError(f"{name} = {value!r} is too small: its default duration is not finite")
    return duration


def pair_duration(omega_minus: complex) -> float:
    """Pulse length pi / |omega_minus| that prepares the maximally entangled pair."""
    check_omega("omega_minus", omega_minus)
    return _default_duration("omega_minus", omega_minus, math.pi / abs(omega_minus))


def cavity_decay_duration(kappa: float) -> float:
    """Run length 1 / kappa of a cavity-decay check, or 1 when nothing decays (kappa = 0)."""
    return _default_duration("kappa", kappa, 1.0 / kappa) if kappa > 0 else 1.0


def cnot_duration(omega: float) -> float:
    """Pulse length sqrt(2) pi / |Omega| that assembles the CNOT."""
    check_omega("omega", omega)
    return _default_duration("omega", omega, math.sqrt(2.0) * math.pi / abs(omega))


def qubit_state(spec: SystemSpec, amplitudes) -> StateVector:
    """Embed 4 qubit amplitudes (order 00,01,10,11) in the Lambda layout.

    ``amplitudes`` may also be one of the labels "00", "01", "10", "11".
    """
    if isinstance(amplitudes, str):
        if amplitudes not in QUBIT_LABELS:
            raise ValueError(f"unknown qubit label {amplitudes!r}")
        vec = np.zeros(4, dtype=complex)
        vec[QUBIT_LABELS.index(amplitudes)] = 1.0
    else:
        vec = np.asarray(amplitudes, dtype=complex).reshape(4)
    return state_from_amplitudes(spec.layout(), {(a, b, 0): v for (a, b), v in zip(_QUBIT_LEVELS, vec)})


def qubit_amplitudes(state: StateVector) -> np.ndarray:
    """Project a full-layout state onto the 4 qubit basis states (cavity empty)."""
    layout = state.layout
    return np.array([state.amplitudes[layout.basis_index((a, b, 0))] for a, b in _QUBIT_LEVELS], dtype=complex)


def cnot_pulse(spec: SystemSpec, omega: float, input_state: StateVector) -> RunRecord:
    """Run the dissipative CNOT pulse on a qubit-subspace input state.

    Lasers drive atom 1 on "1-2" and atom 2 on "0-2", both with Rabi
    frequency sqrt(2)*omega (:func:`cnot_drive`), for a duration
    sqrt(2) pi / |omega|.  The fidelity is scored against the ideal CNOT
    permutation applied to the input amplitudes.  Out-of-regime
    parameters and a pulse shorter than 10x
    :func:`~zenobell.dynamics.zeno_timescale` produce a warning, not an error.
    """
    return _first_record(spec, omega, cnot_pulse_sweep(spec, [omega], [input_state]))


def cnot_pulse_sweep(spec, omegas, inputs) -> SweepResult:
    """:func:`cnot_pulse` for every omega and input as one :class:`SweepResult`; run (i, m) is omega i, input m.

    Each input is a qubit-subspace state or one of the labels "00", "01",
    "10", "11" (:func:`qubit_state`).  ``spec`` is one
    :class:`SystemSpec` or a sequence of specs on one layout; then every
    omega runs on each spec in turn, and run (s * len(omegas) + i, m) is
    omega i on ``spec[s]``.  Each propagator, from stacked matrix
    exponentials of the blocks the inputs reach in one
    :func:`~zenobell.dynamics.no_jump_states` call, is applied to every
    input; each run equals the single-point record of its spec.  Raises
    :class:`NumericalError` naming the omega (and, with several specs,
    its spec's index) and the input (its label, else its position) where
    a final state is not finite or has no norm left.
    """
    specs, omegas, inputs = _systems(spec), list(omegas), list(inputs)
    if any(s.atom_levels != 3 for s in specs):
        raise ValueError("the CNOT pulse needs Lambda (3-level) atoms")
    family = DrivenHamiltonian.of(specs, cnot_drive(1.0))
    in_states, targets = [], []
    for given in inputs:
        input_state = qubit_state(specs[0], given) if isinstance(given, str) else given
        if input_state.layout != family.layout:
            raise ValueError("input state does not live on the spec layout")
        check_normalized(input_state.amplitudes, "input state")
        in_amps = qubit_amplitudes(input_state)
        # a unit input with unit qubit part has no amplitude outside the qubit states
        check_normalized(in_amps, "input state's qubit part (cavity empty)")
        in_states.append(input_state.amplitudes)
        targets.append(qubit_state(specs[0], cnot_ideal().entries @ in_amps).amplitudes)
    points = [(omega, cnot_duration(omega)) for omega in omegas]
    names = [given if isinstance(given, str) else f"#{m}" for m, given in enumerate(inputs)]
    name = lambda omega, _, m: f"omega={omega:.9g}, input={names[m]}"
    durations, finals, norm = _sweep(family, cnot_drive, points, in_states, name)
    targets = np.reshape(targets, (len(inputs), family.layout.total_dim))
    fid = fidelities(finals.reshape(len(specs), len(points), *targets.shape), targets).reshape(norm.shape)
    return SweepResult(*map(_frozen, (finals, norm**2, fid)), None, _frozen(durations))
