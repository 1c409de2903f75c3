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
state is the probability that no photon has been emitted.  Its
anti-Hermitian part is -(i/2) sum_k L_k^dag L_k for the jump operators
of :func:`decay_operators` (Plenio and Knight, RMP 70, 101 (1998)):
amplitudes damp at Gamma and kappa, intensities at 2 Gamma and 2 kappa,
so the operators carry sqrt(2 Gamma) and sqrt(2 kappa).  Lasers enter
only through a drive {(atom, transition): Rabi frequency}, never a
:class:`SystemSpec`: :func:`h_cond` assembles H0, the part without
lasers, and :meth:`DrivenHamiltonian.stack` adds every laser term of a
drive.  A spec with no atoms is the bare leaky cavity,
H = -i kappa b^dag b with the one jump operator sqrt(2 kappa) b.

Two-level atoms use levels 0 (ground) and 1 (excited, cavity-coupled via
the "0-1" transition).  Lambda atoms use ground levels 0 and 1 (the
qubit) plus the excited level 2; the cavity couples 1-2 and lasers may
drive "0-2" and "1-2".
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ._expm import expm
from .hilbert import (
    HilbertLayout,
    OperatorMatrix,
    StateVector,
    _Record,
    _frozen,
    compose,
    embed,
    ladder,
    norms,
)

__all__ = [
    "SystemSpec",
    "RegimeReport",
    "NumericalError",
    "DrivenHamiltonian",
    "pair_drive",
    "cnot_drive",
    "h_cond",
    "h_cond_two_level",
    "h_cond_lambda",
    "evolve_no_jump",
    "no_jump_states",
    "check_final_states",
    "no_photon_probability",
    "no_photon_probabilities",
    "check_regime",
    "zeno_timescale",
    "decay_operators",
]

REGIME_THRESHOLD = 0.1
# Largest input one stacked expm call takes.  A point chunk holds as many
# points as fit as complex blocks of the largest touched component on every
# system (16 m^2 bytes each); a chunk gauged to real passes expm half that.
# The kernel's working set is about 8x its input: per slice the input, its
# sorted copy, A^2, A^4, A^6, two work buffers (which end as V - U and V + U
# with A^2) and the solve's result, so a full complex chunk peaks near 64 MB.
_EXPM_BYTES = 2**23
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


class NumericalError(RuntimeError):
    """Norm blow-up or other numeric inconsistency during a run."""


class SystemSpec(_Record):
    """Declarative description of the atoms-in-cavity system, without lasers.

    Lasers enter only through a drive passed to :func:`h_cond` or
    :meth:`DrivenHamiltonian.stack`.  Atom indices are 1-based, so a spec
    with no atoms (the bare leaky cavity) takes no laser.  ``n_max`` is
    the largest Fock state kept in the cavity truncation.  The constructor
    refuses, with a ValueError naming the field, a count (``atom_levels``,
    ``n_atoms``, ``n_max``) that is a bool or not an integer, a ``g`` that
    is not positive or whose square over- or underflows, a negative
    ``kappa`` or ``gamma`` or one for which 2 rate max(n_max, n_atoms, 2)
    overflows, and ``n_max < 1``; ``config.parse_config`` checks a run's
    rates here.
    """

    __slots__ = ("atom_levels", "n_atoms", "g", "kappa", "gamma", "n_max")

    def __init__(
        self, atom_levels: int = 2, n_atoms: int = 2, g: float = 1.0, kappa: float = 1.0, gamma: float = 0.0, n_max: int = 2
    ):
        for name, count in (("atom_levels", atom_levels), ("n_atoms", n_atoms), ("n_max", n_max)):
            if isinstance(count, bool) or not isinstance(count, numbers.Integral):  # the layout counts levels
                raise ValueError(f"{name} must be an integer, got {count!r}")
        if atom_levels not in (2, 3):
            raise ValueError(f"atom_levels must be 2 or 3, got {atom_levels}")
        if n_atoms < 0:
            raise ValueError(f"n_atoms must be >= 0, got {n_atoms}")
        # the regime ratio omega kappa / g^2 and the Zeno time kappa / g^2 divide by g^2
        if not (g > 0 and 0.0 < g * g < math.inf):
            raise ValueError(f"g must be > 0 with g**2 finite and nonzero, got {g}")
        # H0 holds -i kappa n for n <= n_max photons and -i Gamma per excited
        # atom, and each jump operator squares to 2 rate times such a term, so
        # every entry is finite when 2 rate max(n_max, n_atoms) is; the factor
        # of at least 2 bounds a cavity with fewer atoms as the two-atom schemes
        for name, rate in (("kappa", kappa), ("gamma", gamma)):
            if not (rate >= 0 and math.isfinite(2.0 * rate * max(n_max, n_atoms, 2))):
                raise ValueError(f"{name} must be >= 0 with 2 * {name} * max(n_max, n_atoms, 2) finite, got {rate}")
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        self._set(atom_levels, n_atoms, g, kappa, gamma, n_max)

    def layout(self) -> HilbertLayout:
        factors = [(f"atom{i}", self.atom_levels) for i in range(1, self.n_atoms + 1)]
        factors.append(("cav", self.n_max + 1))
        return compose(factors)


class RegimeReport(NamedTuple):
    """Strong-coupling-regime check: every ratio must be small."""

    ratios: dict
    in_regime: bool


def _transition_op(levels: int, trans: str) -> np.ndarray:
    """Raising operator |upper><lower| for a transition label "l-u"."""
    lo, up = (int(s) for s in trans.split("-"))
    op = np.zeros((levels, levels), dtype=complex)
    op[up, lo] = 1.0
    return op


def _cavity_annihilation(layout: HilbertLayout) -> OperatorMatrix:
    """The cavity annihilation operator embedded in the full space."""
    return embed(ladder(layout.dim_of("cav")), "cav", layout)


def pair_drive(omega_minus: complex) -> dict:
    """Opposite lasers Omega_1 = -Omega_2 = omega_minus / sqrt(2) on the 0-1 transitions.

    The antisymmetric combination of the two Rabi frequencies equals
    ``omega_minus``; this is the entangling pulse of the two-level scheme.
    """
    om = complex(omega_minus)
    s2 = math.sqrt(2.0)
    # part by part: complex division by a real would make inf + 0j into inf + nanj
    w = complex(om.real / s2, om.imag / s2)
    return {(1, "0-1"): w, (2, "0-1"): -w}


def cnot_drive(omega: complex) -> dict:
    """The dissipative-CNOT lasers: sqrt(2) omega on atom 1 "1-2" and atom 2 "0-2"."""
    s2om = math.sqrt(2.0) * omega
    return {(1, "1-2"): s2om, (2, "0-2"): s2om}


class DrivenHamiltonian(NamedTuple):
    """Conditional Hamiltonians of one or more systems for any amplitudes of a fixed set of lasers.

    The systems share a layout and the lasers and differ only in H0, say
    in their Gamma and kappa damping.  H is affine in the Rabi
    frequencies: on system s,
    H_s(w) = H0_s + sum_k (w_k S_k + conj(w_k) S_k^dag) / 2, where H0_s
    (``h0[s]``) holds the cavity coupling and the damping, and S_k raises
    the driven transition ``keys[k]`` = (atom, transition label).  The
    H0_s and the S_k are assembled once; a :meth:`stack` of n drives is
    the grid of the systems x the drives, system-major.

    No H_s(w) couples basis states in different connected components of
    the joint sparsity pattern of every H0_s, the S_k and the S_k^dag, so
    exp(-i H t) is block-diagonal over them (:attr:`components`, each
    with a spanning tree; memoized by pattern).  :func:`no_jump_states`
    exponentiates only the components its inputs touch.  On each it
    gives every state a phase i^k, k read off the tree entries of the
    slice, so that the tree entries of D (-i H t) D^-1 are real,
    D = diag(i^k).  With real Rabi frequencies the cavity entries of
    -i H t are real and the laser entries imaginary, every cycle crosses
    an even number of laser entries, and the whole gauged block is real:
    it is exponentiated in float64.  Otherwise (say, complex Rabi
    frequencies of unequal phases) the block is exponentiated as it is,
    in complex arithmetic.
    """

    layout: HilbertLayout
    keys: tuple
    h0: np.ndarray  # (systems, d, d)
    raising: tuple

    @classmethod
    def of(cls, specs, keys) -> "DrivenHamiltonian":
        """H0 of each system of ``specs`` and the drive operators of the lasers ``keys``.

        ``specs`` is one :class:`SystemSpec` or a sequence of specs on one
        layout, with any number of atoms; system s is ``specs[s]``.  Lasers
        enter only through drives on ``keys``, (atom, transition) pairs
        checked here.  H0_s, the Hamiltonian with the lasers off, is
        :func:`h_cond` of spec s itself, through :func:`h_cond_two_level`
        or :func:`h_cond_lambda` for the two-atom schemes they check.
        ``h_cond(spec, drive)`` is the one-point :meth:`stack` of a family.
        """
        keys, specs = tuple(keys), _systems(specs)
        if not specs:
            raise ValueError("a family needs at least one system")
        first, layout = specs[0], specs[0].layout()
        if any(spec.layout() != layout for spec in specs[1:]):
            raise ValueError("the systems of a family must share one layout")
        levels, valid = first.atom_levels, ["0-1"] if first.atom_levels == 2 else ["0-2", "1-2"]
        for atom, trans in keys:
            if not 1 <= int(atom) <= first.n_atoms:
                raise ValueError(f"rabi entry for unknown atom {atom}")
            if trans not in valid:
                raise ValueError(f"transition {trans!r} invalid for {levels}-level atoms (expected one of {valid})")
        checked = h_cond if first.n_atoms != 2 else h_cond_two_level if first.atom_levels == 2 else h_cond_lambda
        raising = tuple(_frozen(_raising_op(first, layout, atom, trans)) for atom, trans in keys)
        h0 = _frozen(np.stack([checked(spec).entries for spec in specs]))
        return cls(layout, keys, h0, raising)

    @property
    def components(self) -> tuple["Component", ...]:
        """The connected components of the joint sparsity pattern, by lowest basis index."""
        pattern = (self.h0 != 0).any(axis=0)
        for s_plus in self.raising:
            pattern |= (s_plus != 0) | (s_plus.T != 0)
        return _components(pattern.tobytes(), self.layout.total_dim)

    def stack(self, drives: Sequence[Mapping], states=None) -> np.ndarray:
        """(S * n, m, m) array of H_s(drive) for each of S systems and each {key: Rabi frequency} in ``drives``.

        Slice s * n + j is drive j on system s, system-major.  The rows and
        columns are the ascending basis indices ``states`` (default: all
        d); each entry equals that of the full matrix.  Each laser's term
        is evaluated once per drive and added to every system's H0, only
        on the entries where its S or S^dag is nonzero; elsewhere, at a
        finite Rabi frequency, it is a zero, which leaves the sum's bytes
        as they are (H0 holds no -0.0 part).
        """
        states = np.arange(self.layout.total_dim) if states is None else np.asarray(states)
        return self._stack(self._rabi(drives), states)

    def _stack(self, rabi: np.ndarray, states: np.ndarray) -> np.ndarray:
        """:meth:`stack` of the (n, lasers) Rabi frequencies ``rabi``, already checked by :meth:`_rabi`."""
        rows, cols = np.ix_(states, states)
        # every system's H0 once per drive, and then the drive terms, as rows of m * m entries
        h0 = self.h0[:, rows, cols].reshape(len(self.h0), 1, -1)
        h = np.broadcast_to(h0, (len(self.h0), len(rabi), h0.shape[-1])).copy()
        # H += 0.5 (w S + conj(w) S^dag) on the entries the laser reaches
        for w, s_plus in zip(rabi.T[:, :, None], self.raising):
            up, down = s_plus[rows, cols].reshape(-1), s_plus.conj().T[rows, cols].reshape(-1)
            reached = np.flatnonzero((up != 0) | (down != 0))
            h[:, :, reached] += 0.5 * (w * up[reached] + np.conj(w) * down[reached])
        return h.reshape(-1, len(states), len(states))

    def _rabi(self, drives: Iterable[Mapping]) -> np.ndarray:
        """The (n, lasers) Rabi frequencies of n drives, checked: each names the lasers ``keys``, at finite values.

        ``drives`` is read once, from any iterable; only the frequencies are kept.
        """
        keys, count = set(self.keys), 0

        def values():
            nonlocal count
            for count, drive in enumerate(drives, 1):
                if drive.keys() != keys:
                    raise ValueError(f"drive keys {sorted(drive)} differ from the assembled lasers {sorted(self.keys)}")
                yield from (complex(drive[key]) for key in self.keys)

        rabi = np.fromiter(values(), dtype=complex)
        if not (finite := np.isfinite(rabi)).all():
            (atom, trans), w = self.keys[np.argmin(finite) % len(self.keys)], rabi[~finite][0]
            raise ValueError(f"rabi entry for atom {atom}, {trans!r} must be finite, got {w}")
        return rabi.reshape(count, len(self.keys))


def _systems(specs) -> tuple[SystemSpec, ...]:
    """``specs`` as a tuple of systems: one :class:`SystemSpec` is the one-system case."""
    return (specs,) if isinstance(specs, SystemSpec) else tuple(specs)


class Component(NamedTuple):
    """One connected component of a sparsity pattern, with a spanning tree.

    ``states`` are its basis indices, ascending.  Tree edge e joins the
    local states ``edges[e] = (child, parent)``, in breadth-first order
    from the lowest state; ``paths[i, e]`` is 1 when edge e lies on the
    tree path from the root to local state i.
    """

    states: np.ndarray
    edges: np.ndarray
    paths: np.ndarray


# Memoized by pattern: a sweep family and every evolve_no_jump of one
# system share it.  Each entry holds O(d^2) integers.
@functools.lru_cache(maxsize=32)
def _components(pattern: bytes, d: int) -> tuple[Component, ...]:
    """Connected components of the graph on d states with edges where the (d, d) bool ``pattern`` or its transpose is set."""
    adjacent = np.frombuffer(pattern, dtype=bool).reshape(d, d)
    adjacent = adjacent | adjacent.T
    seen = np.zeros(len(adjacent), dtype=bool)
    found = []
    for root in range(len(adjacent)):
        if seen[root]:
            continue
        seen[root] = True
        # breadth first, one level at a time; a state's parent is the first
        # state of the previous level adjacent to it
        order, parents, level = [root], [], np.array([root])
        while level.size:
            links = adjacent[level] & ~seen
            new = np.flatnonzero(links.any(axis=0))
            seen[new] = True
            order += new.tolist()
            parents += level[links[:, new].argmax(axis=0)].tolist()
            level = new
        states = np.array(sorted(order))
        local = {s: n for n, s in enumerate(states.tolist())}
        paths = np.zeros((len(states), len(states) - 1), dtype=int)
        for e, (j, i) in enumerate(zip(order[1:], parents)):
            paths[local[j]] = paths[local[i]]
            paths[local[j], e] = 1
        edges = np.array([(local[j], local[i]) for j, i in zip(order[1:], parents)], dtype=int).reshape(-1, 2)
        found.append(Component(_frozen(states), _frozen(edges), _frozen(paths)))
    return tuple(found)


def _raising_op(spec: SystemSpec, layout: HilbertLayout, atom: int, trans: str) -> np.ndarray:
    return embed(_transition_op(spec.atom_levels, trans), f"atom{atom}", layout).entries


def h_cond(spec: SystemSpec, drive: Mapping | None = None) -> OperatorMatrix:
    """Conditional Hamiltonian of ``spec``, with any number of atoms, under the lasers ``drive``.

    Lasers enter only through ``drive``, {(atom, transition): finite Rabi
    frequency} with 1-based atoms.  Without one it is H0: the cavity
    coupling plus the Gamma and kappa damping, so a spec with no atoms
    gives -i kappa b^dag b.  With one it is the one-point
    :meth:`DrivenHamiltonian.stack` of :meth:`DrivenHamiltonian.of`;
    ``of`` checks the keys and takes H0 from here, ``stack`` the drive.
    """
    if drive:
        family = DrivenHamiltonian.of(spec, drive)
        return OperatorMatrix(family.layout, family.stack([drive])[0])
    layout = spec.layout()
    cavity_transition, excited = ("0-1", 1) if spec.atom_levels == 2 else ("1-2", 2)
    b_full = _cavity_annihilation(layout).entries
    h0 = np.zeros((layout.total_dim,) * 2, dtype=complex)

    proj_exc = np.zeros((spec.atom_levels, spec.atom_levels), dtype=complex)
    proj_exc[excited, excited] = 1.0
    for i in range(1, spec.n_atoms + 1):
        # antisymmetric cavity coupling: i g (b s+ - b^dag s-)
        coupling = b_full @ _raising_op(spec, layout, i, cavity_transition)
        h0 += 1j * spec.g * (coupling - coupling.conj().T)
        h0 += -1j * spec.gamma * embed(proj_exc, f"atom{i}", layout).entries
    h0 += -1j * spec.kappa * (b_full.conj().T @ b_full)
    return OperatorMatrix(layout, h0)


def decay_operators(spec: SystemSpec) -> list[OperatorMatrix]:
    """Jump operators matching the conditional Hamiltonian of ``spec``.

    Cavity leakage sqrt(2 kappa) b plus, when Gamma > 0, atomic emission
    from the excited level.  Lambda atoms decay to both ground states
    with equal branching; the no-jump statistics do not depend on the
    branching split.
    """
    layout = spec.layout()
    ops: list[OperatorMatrix] = []
    if spec.kappa > 0:
        ops.append(OperatorMatrix(layout, math.sqrt(2.0 * spec.kappa) * _cavity_annihilation(layout).entries))
    if spec.gamma > 0:
        excited = spec.atom_levels - 1
        grounds = [0] if spec.atom_levels == 2 else [0, 1]
        rate = 2.0 * spec.gamma / len(grounds)
        for i in range(1, spec.n_atoms + 1):
            for low in grounds:
                lower = math.sqrt(rate) * _transition_op(spec.atom_levels, f"{low}-{excited}").T
                ops.append(embed(lower, f"atom{i}", layout))
    return ops


def h_cond_two_level(spec: SystemSpec, drive: Mapping | None = None) -> OperatorMatrix:
    """Conditional Hamiltonian for two two-level atoms in the leaky cavity.

    Both atoms couple to the cavity mode on their 0-1 transition with
    strength g; lasers enter only through ``drive`` (the entangling pulse
    is :func:`pair_drive`); the anti-Hermitian part (-i Gamma on the
    excited levels, -i kappa b^dag b) is negative semidefinite.
    """
    if spec.atom_levels != 2 or spec.n_atoms != 2:
        raise ValueError("two-level scheme needs exactly two 2-level atoms")
    return h_cond(spec, drive)


def h_cond_lambda(spec: SystemSpec, drive: Mapping | None = None) -> OperatorMatrix:
    """Conditional Hamiltonian for two Lambda atoms in the leaky cavity.

    The cavity couples each atom's 1-2 transition; lasers enter only
    through ``drive`` (for the dissipative CNOT, :func:`cnot_drive`: atom 1
    on "1-2" and atom 2 on "0-2", both with Rabi frequency sqrt(2)*Omega);
    level 2 decays at Gamma.
    """
    if spec.atom_levels != 3 or spec.n_atoms != 2:
        raise ValueError("Lambda scheme needs exactly two 3-level atoms")
    return h_cond(spec, drive)


def evolve_no_jump(h: OperatorMatrix, psi0: StateVector, t: float) -> StateVector:
    """exp(-i H t) |psi0>: the unnormalized no-emission conditional state.

    One :func:`no_jump_states` point with ``h`` as a family without
    lasers, which exponentiates only the components ``psi0`` touches, by
    the dense scaling-and-squaring Pade exponential (checked in the test
    suite against an adaptive step-halving integrator).  Raises
    :class:`NumericalError` if it is not finite (a huge H t), t = 0 included.
    """
    return StateVector(psi0.layout, _no_jump_rows(h, psi0, [t])[0])


def _no_jump_rows(h: OperatorMatrix, psi0: StateVector, times: Sequence[float]) -> np.ndarray:
    """exp(-i H t) |psi0> for each t of ``times`` from one :func:`no_jump_states` call, one row each.

    Raises :class:`NumericalError` naming the first t whose row is not finite.
    """
    if h.layout != psi0.layout:
        raise ValueError("Hamiltonian and state live on different layouts")
    family = DrivenHamiltonian(h.layout, (), h.entries[None], ())
    rows = no_jump_states(family, [{}] * len(times), times, [psi0.amplitudes])[:, 0]
    if not (finite := np.isfinite(rows.view(float)).all(axis=1)).all():
        raise NumericalError(f"exp(-i H t) |psi0> not finite at t = {times[int(np.argmin(finite))]:.9g}")
    return rows


def no_jump_states(family: DrivenHamiltonian, drives: Sequence[Mapping], times: Sequence[float], inputs) -> np.ndarray:
    """exp(-i H_s(drives[j]) times[j]) |inputs[m]> for each system s, point j and input m: an (S * n, M, d) array.

    Run s * n + j is point j on system s of the family's S systems,
    system-major.  ``inputs`` holds M amplitude rows of length d.  This
    collects the point chunks of :func:`_no_jump_chunks`, which a sweep
    reads one at a time.  exp(-i H t) is block-diagonal over
    ``family.components``; only the components some input touches are
    exponentiated, one stacked ``expm`` call each per chunk of as many
    points as fit the largest on every system in ``_EXPM_BYTES``.
    Each slice of a block is exponentiated as a float64 block when the
    quarter-turn gauge of its spanning tree makes it exactly real, and as
    the complex block otherwise (for example under complex Rabi
    frequencies of unequal phases).  A component an input does not touch
    stays exactly 0 in its final state.  A point at time 0 is exponentiated
    like any other: its 0 block gives the identity exactly.  Every drive and
    every time (>= 0) is checked, as :meth:`DrivenHamiltonian.stack` checks
    a drive, before any exponential.
    Each block is applied to each input as its own mat-vec, so every
    final state depends only on its own system, point and input.
    """
    if len(drives) != len(times):
        raise ValueError(f"{len(drives)} drives but {len(times)} times")
    inputs = np.asarray(inputs, dtype=complex).reshape(-1, family.layout.total_dim)
    finals = np.empty((len(family.h0), len(times), *inputs.shape), dtype=complex)
    for part, chunk in _no_jump_chunks(family, drives, times, inputs):
        finals[:, part] = chunk
    return finals.reshape(-1, *inputs.shape)


def _no_jump_chunks(family: DrivenHamiltonian, drives: Iterable[Mapping], times: Sequence[float], inputs) -> Iterator:
    """Yield (part, finals) for each point chunk of :func:`no_jump_states`, in order, once every point is checked.

    ``part`` slices the chunk's points and ``finals`` holds their (S,
    len(part), M, d) final states.  ``drives``, one per time, is read once.
    """
    if refused := [t for t in times if not t >= 0]:
        raise ValueError(f"evolution time must be >= 0, got {refused[0]}")
    rabi, times = family._rabi(drives), np.asarray(times, dtype=float)
    inputs = np.asarray(inputs, dtype=complex).reshape(-1, family.layout.total_dim)
    reached = [(c, np.flatnonzero(inputs[:, c.states].any(axis=1))[:, None]) for c in family.components]
    reached = [(component, touched) for component, touched in reached if touched.size]
    n_systems = len(family.h0)
    largest = max((len(component.states) for component, _ in reached), default=1)
    chunk = max(1, _EXPM_BYTES // (16 * n_systems * largest**2))
    for start in range(0, len(times), chunk):
        part = slice(start, start + chunk)
        finals = np.zeros((n_systems, len(times[part]), *inputs.shape), dtype=complex)
        for component, touched in reached:
            states = component.states
            blocks = _block_states(family, component, rabi[part], times[part], inputs[touched, states])
            finals[:, :, touched, states] = blocks.reshape(n_systems, -1, *blocks.shape[1:])
        yield part, finals


def _block_states(family: DrivenHamiltonian, component: Component, rabi, times, inputs: np.ndarray) -> np.ndarray:
    """exp(-i H_s t) inputs[m] on ``component`` for each system s, point (Rabi row, t) and input m: an (S * n, M, m) array.

    A slice is exponentiated in float64 when its quarter-turn gauge makes
    it exactly real, else as it is.  -i H t is formed in the buffer of
    the Hamiltonian stack, and the complex stacks are freed before the
    exponential, which then holds the largest working set.
    """
    a = family._stack(rabi, component.states)
    t = np.tile(times, len(family.h0))[:, None, None]
    # a = -i H t, as (-1j * H) * t; an overflowing H t comes back
    # non-finite, which the callers' finiteness checks report as a
    # numeric failure
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(-1j, a, out=a)
        a *= t
    # turns from each slice's own tree entries: a real entry gives 0, an
    # imaginary one 1.  D = diag(i^k) then makes every tree entry of
    # D a D^-1 real; multiplying by 1, i, -1 or -i moves and negates the
    # parts of a number without rounding them.
    child, parent = component.edges.T
    tree = a[:, child, parent]
    turns = ((tree.real == 0) & (tree.imag != 0)).astype(int) @ component.paths.T
    phases = _QUARTER_TURNS[turns & 3]
    # an infinite entry (an overflowing H t) turns into NaN parts here, so
    # its slice takes the complex path and comes back non-finite
    with np.errstate(invalid="ignore"):
        gauged = phases[:, :, None] * a
        gauged *= phases.conj()[:, None, :]
    real = ~gauged.imag.any(axis=(1, 2))
    gauged, a = gauged.real[real], a[~real]
    out = np.empty((len(real), len(inputs), len(component.states)), dtype=complex)
    if real.any():
        # exp(a) psi = D^-1 exp(D a D^-1) D psi, one real mat-vec per part
        u, phases = expm(gauged), phases[real]
        for m, psi in enumerate(inputs):
            v = phases * psi
            w = np.empty(v.shape, dtype=complex)
            w.real = (u @ np.ascontiguousarray(v.real)[..., None])[..., 0]
            w.imag = (u @ np.ascontiguousarray(v.imag)[..., None])[..., 0]
            out[real, m] = phases.conj() * w
    if not real.all():
        u = expm(a)
        for m, psi in enumerate(inputs):
            out[~real, m] = u @ psi
    return out


def check_final_states(rows: np.ndarray, point: Callable[[int], str]) -> np.ndarray:
    """Check a stack of conditional final states, one row of amplitudes each, and return their norms ||psi||.

    Raises :class:`NumericalError` naming ``point(j)`` for the first row j
    that is not finite, has no norm left (p0 = ||psi||^2 = 0) or has p0
    above 1, which no-jump evolution, as it only loses norm, cannot reach.
    """
    rows = np.asarray(rows, dtype=complex)
    finite = np.isfinite(rows.view(float)).all(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = norms(rows)
        p0 = norm**2
    bad = ~(finite & (p0 > 0) & (p0 <= 1.0 + 1e-9))
    if bad.any():
        j = int(np.argmax(bad))
        if not finite[j]:
            raise NumericalError(f"final-state amplitudes not finite at {point(j)}")
        if p0[j] == 0:
            raise NumericalError(f"p0 = 0 at {point(j)}: the conditional state has no norm left")
        raise NumericalError(f"p0 = {p0[j]} > 1 at {point(j)}: the evolution is numerically unsound")
    return norm


def no_photon_probability(h: OperatorMatrix, psi0: StateVector, t: float) -> float:
    """Probability of zero emissions in (0, t): :func:`no_photon_probabilities` at the one time t."""
    return float(no_photon_probabilities(h, psi0, [t])[0])


def no_photon_probabilities(h: OperatorMatrix, psi0: StateVector, times: Sequence[float]) -> np.ndarray:
    """||exp(-i H t) psi0||^2 at each t of ``times`` from one kernel call.

    Each value is ``norms(rows) ** 2``, a correctly rounded square.  Raises
    :class:`NumericalError` naming the first t whose state is not finite,
    as :func:`evolve_no_jump` does for its one t, or whose p0 is above 1,
    which no-jump evolution, as it only loses norm, cannot reach.  A p0
    of 0 is a valid answer here: a long enough run loses all its norm.
    """
    with np.errstate(over="ignore"):
        p0 = norms(_no_jump_rows(h, psi0, times)) ** 2
    above = p0 > 1.0 + 1e-9
    if above.any():
        j = int(np.argmax(above))
        raise NumericalError(f"p0 = {p0[j]} > 1 at t = {times[j]:.9g}: the evolution is numerically unsound")
    return p0


def check_regime(spec: SystemSpec, omega_eff: float) -> RegimeReport:
    """Check Gamma << |Omega| << g^2/kappa and |Omega| << kappa.

    "Much smaller" is quantified as ratio < ``REGIME_THRESHOLD`` (0.1).
    """
    if not omega_eff > 0:
        raise ValueError("omega_eff must be positive")
    om = abs(omega_eff)
    ratios = {
        "gamma_over_omega": spec.gamma / om,
        "omega_kappa_over_g2": om * spec.kappa / spec.g**2,
        "omega_over_kappa": om / spec.kappa if spec.kappa > 0 else float("inf"),
    }
    return RegimeReport(ratios=ratios, in_regime=all(v < REGIME_THRESHOLD for v in ratios.values()))


def zeno_timescale(spec: SystemSpec) -> float:
    """Environment-measurement timescale: max(1/kappa, kappa/g^2).

    A pulse of duration T should satisfy T >> this value for the Zeno
    suppression of non-decay-free states to act; protocols warn when
    T < 10x this value.
    """
    if spec.kappa <= 0:
        raise ValueError("zeno_timescale needs kappa > 0")
    return max(1.0 / spec.kappa, spec.kappa / spec.g**2)
