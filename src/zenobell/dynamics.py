"""Conditional Hamiltonians and no-jump evolution.

Units: hbar = 1 and all rates (couplings, Rabi frequencies, decay rates)
are expressed in units of the atom-cavity coupling g unless the caller
overrides g.  Everything is resonant: cavity, laser and atomic transition
share one frequency, so the interaction-picture Hamiltonians carry no
detuning terms.

The no-jump branch of the quantum-jump picture evolves an unnormalized
state under a non-Hermitian conditional Hamiltonian

    H = i g sum_i (b s_i^+ - h.c.)  +  1/2 sum (Omega s^+ + h.c.)
        - i Gamma sum_i P_exc^(i)  -  i kappa b^dag b

where b is the cavity annihilation operator and s_i^+ raises the
cavity-coupled transition of atom i.  The squared norm of the evolved
state is the probability that no photon has been emitted.  Amplitudes
damp at Gamma and kappa, so intensities decay at 2*Gamma and 2*kappa;
jump operators elsewhere in the package carry sqrt(2 Gamma), sqrt(2 kappa)
to stay consistent with this convention.

Two-level atoms use levels 0 (ground) and 1 (excited, cavity-coupled via
the "0-1" transition).  Lambda atoms use ground levels 0 and 1 (the
qubit) plus the excited level 2; the cavity couples 1-2 and lasers may
drive "0-2" and "1-2".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from ._expm import expm
from .hilbert import (
    HilbertLayout,
    OperatorMatrix,
    StateVector,
    _frozen,
    compose,
    embed,
    ladder,
)

__all__ = [
    "SystemSpec",
    "RegimeReport",
    "NumericalError",
    "DrivenHamiltonian",
    "pair_drive",
    "cnot_drive",
    "h_cond_two_level",
    "h_cond_lambda",
    "evolve_no_jump",
    "no_jump_propagators",
    "check_final_states",
    "no_photon_probability",
    "check_regime",
    "cavity_annihilation",
]

REGIME_THRESHOLD = 0.1
# Largest chunk of Hamiltonians (16 d^2 bytes each) one stacked expm takes.
# The kernel's working set is about 8x its input: per slice the sorted copy
# of the input, A^2, A^4, A^6, U, V, V - U, V + U and the result, so a full
# chunk peaks near 70 MB.
_EXPM_BYTES = 2**23


class NumericalError(RuntimeError):
    """Norm blow-up or other numeric inconsistency during a run."""


def _valid_transitions(levels: int) -> frozenset:
    return frozenset({"0-1"}) if levels == 2 else frozenset({"0-2", "1-2"})


@dataclass(frozen=True)
class SystemSpec:
    """Declarative description of the atoms-in-cavity system.

    ``rabi`` maps (atom index, transition label) to a complex Rabi
    frequency; atom indices are 1-based.  ``n_max`` is the largest Fock
    state kept in the cavity truncation.
    """

    atom_levels: int = 2
    n_atoms: int = 2
    g: float = 1.0
    kappa: float = 1.0
    gamma: float = 0.0
    rabi: Mapping = field(default_factory=dict)
    n_max: int = 2

    def __post_init__(self):
        if self.atom_levels not in (2, 3):
            raise ValueError(f"atom_levels must be 2 or 3, got {self.atom_levels}")
        if self.n_atoms < 1:
            raise ValueError("need at least one atom")
        if not self.g > 0:
            raise ValueError(f"g must be positive, got {self.g}")
        if self.kappa < 0 or self.gamma < 0:
            raise ValueError("decay rates must be nonnegative")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        valid = _valid_transitions(self.atom_levels)
        clean = {}
        for (atom, trans), omega in dict(self.rabi).items():
            if not 1 <= int(atom) <= self.n_atoms:
                raise ValueError(f"rabi entry for unknown atom {atom}")
            if trans not in valid:
                raise ValueError(
                    f"transition {trans!r} invalid for {self.atom_levels}-level atoms "
                    f"(expected one of {sorted(valid)})"
                )
            clean[(int(atom), str(trans))] = complex(omega)
        object.__setattr__(self, "rabi", clean)

    def layout(self) -> HilbertLayout:
        factors = [(f"atom{i}", self.atom_levels) for i in range(1, self.n_atoms + 1)]
        factors.append(("cav", self.n_max + 1))
        return compose(factors)

    def with_rabi(self, rabi: Mapping) -> "SystemSpec":
        return replace(self, rabi=rabi)


@dataclass(frozen=True)
class RegimeReport:
    """Strong-coupling-regime check: every ratio must be small."""

    ratios: dict
    in_regime: bool
    threshold: float


def _transition_op(levels: int, trans: str) -> np.ndarray:
    """Raising operator |upper><lower| for a transition label "l-u"."""
    lo, up = (int(s) for s in trans.split("-"))
    op = np.zeros((levels, levels), dtype=complex)
    op[up, lo] = 1.0
    return op


def cavity_annihilation(layout: HilbertLayout) -> OperatorMatrix:
    """The cavity annihilation operator embedded in the full space."""
    return embed(ladder(layout.dim_of("cav")), "cav", layout)


def pair_drive(omega_minus: complex) -> dict:
    """Opposite lasers Omega_1 = -Omega_2 = omega_minus / sqrt(2) on the 0-1 transitions.

    The antisymmetric combination of the two Rabi frequencies equals
    ``omega_minus``; this is the entangling pulse of the two-level scheme.
    """
    om = complex(omega_minus)
    s2 = math.sqrt(2.0)
    return {(1, "0-1"): om / s2, (2, "0-1"): -om / s2}


def cnot_drive(omega: complex) -> dict:
    """The dissipative-CNOT lasers: sqrt(2) omega on atom 1 "1-2" and atom 2 "0-2"."""
    s2om = math.sqrt(2.0) * omega
    return {(1, "1-2"): s2om, (2, "0-2"): s2om}


@dataclass(frozen=True)
class DrivenHamiltonian:
    """Conditional Hamiltonians of one system for any amplitudes of a fixed set of lasers.

    H is affine in the Rabi frequencies,
    H(w) = H0 + sum_k (w_k S_k + conj(w_k) S_k^dag) / 2, where H0 holds the
    cavity coupling and the Gamma and kappa damping, and S_k raises the
    driven transition ``keys[k]`` = (atom, transition label).  H0 and the
    S_k are assembled once; :meth:`stack` then touches only the entries
    where some S_k or S_k^dag is nonzero (36 of 729 for the CNOT lasers).
    """

    layout: HilbertLayout
    keys: tuple
    h0: np.ndarray
    raising: tuple
    # flat indices of the entries some S_k or S_k^dag reaches, and each
    # laser's (S_k, S_k^dag) at those entries
    _reached: np.ndarray = field(init=False, repr=False, compare=False)
    _drive_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        reached = np.zeros(self.h0.size, dtype=bool)
        for s_plus in self.raising:
            reached |= (s_plus != 0).ravel() | (s_plus.T != 0).ravel()
        reached = _frozen(np.flatnonzero(reached))
        terms = tuple(
            (_frozen(s_plus.ravel()[reached]), _frozen(s_plus.conj().T.ravel()[reached])) for s_plus in self.raising
        )
        object.__setattr__(self, "_reached", reached)
        object.__setattr__(self, "_drive_terms", terms)

    @classmethod
    def of(cls, spec: SystemSpec, keys) -> "DrivenHamiltonian":
        """H0 of the two-atom ``spec`` and the drive operators of the lasers ``keys``.

        H0 is the conditional Hamiltonian with the lasers off
        (:func:`h_cond_two_level` or :func:`h_cond_lambda` of ``spec``
        without its ``rabi``).
        """
        keys = tuple(keys)
        spec.with_rabi(dict.fromkeys(keys, 0.0))  # validates the atoms and transitions
        h_cond = h_cond_two_level if spec.atom_levels == 2 else h_cond_lambda
        layout = spec.layout()
        raising = tuple(_frozen(_raising_op(spec, layout, atom, trans)) for atom, trans in keys)
        return cls(layout, keys, h_cond(spec.with_rabi({})).entries, raising)

    def stack(self, drives: Sequence[Mapping]) -> np.ndarray:
        """(n, d, d) array of H(drive) for each mapping {key: Rabi frequency} in ``drives``."""
        for drive in drives:
            if set(drive) != set(self.keys):
                raise ValueError(f"drive keys {sorted(drive)} differ from the assembled lasers {sorted(self.keys)}")
        # The dense sum H0 + sum_k (w_k S_k + conj(w_k) S_k^dag) / 2 entry by
        # entry: on the reached entries it is evaluated as written; elsewhere
        # each laser adds a zero of either sign for finite w, and x + -0.0 =
        # x + 0.0 = x for every x but -0.0, which H0 (a sum into +0.0) lacks.
        d = self.layout.total_dim
        flat_h0 = self.h0.ravel()
        h = np.repeat(flat_h0[None], len(drives), axis=0)
        reached = np.repeat(flat_h0[self._reached][None], len(drives), axis=0)
        for k, (s_plus, s_minus) in zip(self.keys, self._drive_terms):
            w = np.array([complex(drive[k]) for drive in drives])[:, None]
            reached += 0.5 * (w * s_plus + np.conj(w) * s_minus)
        h[:, self._reached] = reached
        return h.reshape(len(drives), d, d)


def _raising_op(spec: SystemSpec, layout: HilbertLayout, atom: int, trans: str) -> np.ndarray:
    return embed(_transition_op(spec.atom_levels, trans), f"atom{atom}", layout).entries


def _h_cond(spec: SystemSpec) -> OperatorMatrix:
    """H0 plus the lasers of ``spec.rabi``: the one-point :meth:`DrivenHamiltonian.stack`."""
    layout = spec.layout()
    d = layout.total_dim
    cavity_transition, excited = ("0-1", 1) if spec.atom_levels == 2 else ("1-2", 2)
    b_full = cavity_annihilation(layout).entries
    h0 = np.zeros((d, d), dtype=complex)

    proj_exc = np.zeros((spec.atom_levels, spec.atom_levels), dtype=complex)
    proj_exc[excited, excited] = 1.0
    raising = {}

    def raise_op(atom: int, trans: str) -> np.ndarray:
        if (atom, trans) not in raising:
            raising[(atom, trans)] = _raising_op(spec, layout, atom, trans)
        return raising[(atom, trans)]

    for i in range(1, spec.n_atoms + 1):
        # antisymmetric cavity coupling: i g (b s+ - b^dag s-)
        coupling = b_full @ raise_op(i, cavity_transition)
        h0 += 1j * spec.g * (coupling - coupling.conj().T)
        h0 += -1j * spec.gamma * embed(proj_exc, f"atom{i}", layout).entries
    # kappa and Gamma act on the diagonal and the lasers off it, so adding
    # the lasers after kappa gives the same entries as adding them before
    h0 += -1j * spec.kappa * (b_full.conj().T @ b_full)
    keys = tuple(spec.rabi)
    family = DrivenHamiltonian(layout, keys, _frozen(h0), tuple(_frozen(raise_op(*key)) for key in keys))
    return OperatorMatrix(layout, family.stack([spec.rabi])[0])


def h_cond_two_level(spec: SystemSpec) -> OperatorMatrix:
    """Conditional Hamiltonian for two two-level atoms in the leaky cavity.

    Both atoms couple to the cavity mode on their 0-1 transition with
    strength g; lasers enter through ``spec.rabi``; the anti-Hermitian
    part (-i Gamma on the excited levels, -i kappa b^dag b) is negative
    semidefinite.
    """
    if spec.atom_levels != 2 or spec.n_atoms != 2:
        raise ValueError("two-level scheme needs exactly two 2-level atoms")
    return _h_cond(spec)


def h_cond_lambda(spec: SystemSpec) -> OperatorMatrix:
    """Conditional Hamiltonian for two Lambda atoms in the leaky cavity.

    The cavity couples each atom's 1-2 transition; lasers drive whatever
    ``spec.rabi`` prescribes (for the dissipative CNOT: atom 1 on "1-2"
    and atom 2 on "0-2", both with Rabi frequency sqrt(2)*Omega); level 2
    decays at Gamma.
    """
    if spec.atom_levels != 3 or spec.n_atoms != 2:
        raise ValueError("Lambda scheme needs exactly two 3-level atoms")
    return _h_cond(spec)


def evolve_no_jump(h: OperatorMatrix, psi0: StateVector, t: float) -> StateVector:
    """exp(-i H t) |psi0>: the unnormalized no-emission conditional state.

    Uses the dense scaling-and-squaring Pade matrix exponential; the test
    suite checks it against an adaptive step-halving integrator.  Raises
    :class:`NumericalError` if the exponential overflows (a huge H t).
    """
    if t < 0:
        raise ValueError(f"evolution time must be >= 0, got {t}")
    if h.layout != psi0.layout:
        raise ValueError("Hamiltonian and state live on different layouts")
    if t == 0.0:
        return psi0
    amplitudes = expm(-1j * h.entries * t) @ psi0.amplitudes
    if not np.isfinite(amplitudes.view(float)).all():
        raise NumericalError(f"exp(-i H t) |psi0> not finite at t = {t:.9g}")
    return StateVector(psi0.layout, amplitudes)


def no_jump_propagators(
    family: DrivenHamiltonian, drives: Sequence[Mapping], times: Sequence[float]
) -> Iterator[np.ndarray]:
    """exp(-i H(drives[j]) times[j]) for each point j, in order.

    One stacked ``expm`` per chunk of points; a chunk holds at most
    ``_EXPM_BYTES`` of Hamiltonians, so memory does not grow with the grid.
    As in :func:`evolve_no_jump`, a point with time 0 gets the identity
    without its Hamiltonian being exponentiated, and every other matrix is
    exponentiated exactly as there.
    """
    if len(drives) != len(times):
        raise ValueError(f"{len(drives)} drives but {len(times)} times")
    if any(t < 0 for t in times):
        raise ValueError(f"evolution times must be >= 0, got {min(times)}")
    d = family.layout.total_dim
    identity = _frozen(np.eye(d, dtype=complex))
    chunk = max(1, _EXPM_BYTES // (16 * d * d))
    for start in range(0, len(drives), chunk):
        part = range(start, min(start + chunk, len(drives)))
        moving = [j for j in part if times[j] != 0]
        propagators = iter(())
        if moving:
            h = family.stack([drives[j] for j in moving])
            t = np.array([times[j] for j in moving], dtype=float)[:, None, None]
            propagators = iter(expm(-1j * h * t))
        for j in part:
            yield next(propagators) if times[j] != 0 else identity


def check_final_states(rows: np.ndarray, point: Callable[[int], str]) -> None:
    """Check a stack of conditional final states, one row of amplitudes each.

    Raises :class:`NumericalError` naming ``point(j)`` for the first row j
    that is not finite, has no norm left (p0 = ||psi||^2 = 0) or has p0
    above 1, which no-jump evolution, as it only loses norm, cannot reach.
    """
    rows = np.asarray(rows, dtype=complex)
    finite = np.isfinite(rows.view(float)).all(axis=1)
    with np.errstate(over="ignore"):
        p0 = (rows.real**2 + rows.imag**2).sum(axis=1)
    bad = ~(finite & (p0 > 0) & (p0 <= 1.0 + 1e-9))
    if bad.any():
        j = int(np.argmax(bad))
        if not finite[j]:
            raise NumericalError(f"final-state amplitudes not finite at {point(j)}")
        if p0[j] == 0:
            raise NumericalError(f"p0 = 0 at {point(j)}: the conditional state has no norm left")
        raise NumericalError(f"p0 = {p0[j]} > 1 at {point(j)}: the evolution is numerically unsound")


def no_photon_probability(h: OperatorMatrix, psi0: StateVector, t: float) -> float:
    """Probability of zero emissions in (0, t): ||exp(-i H t) psi0||^2."""
    return evolve_no_jump(h, psi0, t).norm() ** 2


def check_regime(spec: SystemSpec, omega_eff: float, threshold: float = REGIME_THRESHOLD) -> RegimeReport:
    """Check Gamma << |Omega| << g^2/kappa and |Omega| << kappa.

    "Much smaller" is quantified as ratio < ``threshold`` (default 0.1).
    """
    if not omega_eff > 0:
        raise ValueError("omega_eff must be positive")
    om = abs(omega_eff)
    ratios = {
        "gamma_over_omega": spec.gamma / om,
        "omega_kappa_over_g2": om * spec.kappa / spec.g**2,
        "omega_over_kappa": om / spec.kappa if spec.kappa > 0 else float("inf"),
    }
    return RegimeReport(ratios=ratios, in_regime=all(v < threshold for v in ratios.values()), threshold=threshold)
