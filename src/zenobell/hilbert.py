"""Composed Hilbert spaces, state vectors and operators.

Everything in the toolkit works on a tensor product of labeled factors
(typically two atoms and one bosonic mode).  The basis-index convention is
fixed once and for all: indices run row-major over the factor list, i.e.
the *last* factor varies fastest.  For two qubits this gives the order
|00>, |01>, |10>, |11>.

States are allowed to be unnormalized: conditional (no-jump) evolution
under a non-Hermitian Hamiltonian shrinks the norm, and the squared norm
carries physical meaning.  All containers are immutable after
construction; operations are pure functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HilbertLayout",
    "StateVector",
    "OperatorMatrix",
    "compose",
    "embed",
    "ladder",
    "norms",
    "check_normalized",
    "fidelity",
    "fidelities",
    "basis_state",
    "state_from_amplitudes",
    "identity",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_X.setflags(write=False)
SIGMA_Y.setflags(write=False)
SIGMA_Z.setflags(write=False)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class HilbertLayout:
    """Ordered list of (label, dimension) factors of a product space."""

    factors: tuple[tuple[str, int], ...]
    total_dim: int = field(init=False)

    def __post_init__(self):
        labels = [lab for lab, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in {labels}")
        for lab, dim in self.factors:
            if dim < 1:
                raise ValueError(f"factor {lab!r} has dimension {dim} < 1")
        object.__setattr__(self, "total_dim", math.prod(d for _, d in self.factors))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    def axis_of(self, label: str) -> int:
        for k, (lab, _) in enumerate(self.factors):
            if lab == label:
                return k
        raise KeyError(f"unknown factor label {label!r}")

    def dim_of(self, label: str) -> int:
        return self.factors[self.axis_of(label)][1]

    def basis_index(self, occupations) -> int:
        """Flat index of the product basis state with the given per-factor levels."""
        occ = tuple(occupations)
        if len(occ) != len(self.factors):
            raise ValueError("need one level per factor")
        idx = 0
        for n, (lab, dim) in zip(occ, self.factors):
            if not 0 <= n < dim:
                raise ValueError(f"level {n} out of range for factor {lab!r} (dim {dim})")
            idx = idx * dim + n
        return idx

    def basis_occupations(self, index: int) -> tuple[int, ...]:
        """Inverse of :meth:`basis_index`."""
        occ = []
        for _, dim in reversed(self.factors):
            occ.append(index % dim)
            index //= dim
        return tuple(reversed(occ))


def compose(factors) -> HilbertLayout:
    """Build a layout from an iterable of (label, dimension) pairs."""
    return HilbertLayout(tuple((str(lab), int(dim)) for lab, dim in factors))


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over a layout; normalization not required."""

    layout: HilbertLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (self.layout.total_dim,):
            raise ValueError(
                f"amplitude length {amps.size} != layout dimension {self.layout.total_dim}"
            )
        if not np.isfinite(amps.view(float)).all():
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    def norm(self) -> float:
        return float(norms(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero state")
        return StateVector(self.layout, self.amplitudes / n)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix on a layout; may be non-Hermitian."""

    layout: HilbertLayout
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        d = self.layout.total_dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} != ({d}, {d})")
        object.__setattr__(self, "entries", _frozen(m))


def identity(layout: HilbertLayout) -> OperatorMatrix:
    return OperatorMatrix(layout, np.eye(layout.total_dim, dtype=complex))


def embed(local_op, target_label: str, layout: HilbertLayout) -> OperatorMatrix:
    """Lift a single-factor operator to the full space (identity elsewhere).

    The placement follows the fixed row-major basis order, so for a
    two-qubit layout ``embed(op, "atom2", L)`` equals ``kron(I, op)``.
    Results are memoized by value (the operator's bytes, the label and the
    layout), so a sweep that assembles one system several times builds
    each embedded operator once; the returned entries are read-only.
    """
    local = np.asarray(local_op, dtype=complex)
    axis = layout.axis_of(target_label)
    dim = layout.dims[axis]
    if local.shape != (dim, dim):
        raise ValueError(
            f"operator shape {local.shape} does not match factor {target_label!r} (dim {dim})"
        )
    return _embedded(local.tobytes(), target_label, layout)


# One system needs at most ten distinct embeds (a Lambda pair with its
# lasers and jump operators; a two-level pair needs seven).  The bound
# keeps a process that visits many layouts from holding them all: 32
# entries of the largest layout a config allows (Lambda atoms,
# n_max = 32: 297 x 297) take 45 MB.
@functools.lru_cache(maxsize=32)
def _embedded(local_bytes: bytes, target_label: str, layout: HilbertLayout) -> OperatorMatrix:
    dim = layout.dim_of(target_label)
    return _build_embed(np.frombuffer(local_bytes, dtype=complex).reshape(dim, dim), target_label, layout)


def _build_embed(local: np.ndarray, target_label: str, layout: HilbertLayout) -> OperatorMatrix:
    axis = layout.axis_of(target_label)
    full = np.ones((1, 1), dtype=complex)
    for k, (_, d) in enumerate(layout.factors):
        full = np.kron(full, local if k == axis else np.eye(d, dtype=complex))
    return OperatorMatrix(layout, full)


def ladder(dim: int) -> np.ndarray:
    """Truncated bosonic annihilation operator, <n-1|b|n> = sqrt(n)."""
    if dim < 2:
        raise ValueError(f"ladder needs dim >= 2, got {dim}")
    b = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        b[n - 1, n] = math.sqrt(n)
    return b


def norms(rows) -> np.ndarray:
    """||psi|| of every row of a stack of amplitude vectors (any leading shape).

    Each squared norm is the sum of two real dot products, the way
    ``np.linalg.norm`` takes it for one vector, so a row's value equals
    ``np.linalg.norm`` of that row bit for bit.  :meth:`StateVector.norm`
    is the one-row case.
    """
    rows = np.asarray(rows, dtype=complex)
    return np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))


def check_normalized(rows, what: str = "state") -> None:
    """Raise ValueError naming ``what`` unless every row of ``rows`` (or the one vector) has norm 1 within 1e-9."""
    norm = norms(rows)
    within = np.abs(norm - 1.0) <= 1e-9
    if not within.all():
        raise ValueError(f"{what} must be normalized, got norm {float(norm[~within].flat[0])}")


def fidelities(rows, targets) -> np.ndarray:
    """|<target|psi>|^2 / <psi|psi> for every row psi of a stack of amplitude vectors.

    ``targets`` broadcasts against ``rows`` over the leading axes: one
    shared target, one per row, or one per input of a (points, inputs, d)
    stack.  Rows may be unnormalized; every target must be normalized and
    every row must have norm left.  Each value is clipped to [0, 1] and
    equals, bit for bit, the one-vector ``np.vdot`` formula (the inner
    products are stacked dot products with the same summation; the
    modulus and square are ``hypot`` and ``pow`` as for a scalar).
    """
    rows, targets = np.asarray(rows, dtype=complex), np.asarray(targets, dtype=complex)
    check_normalized(targets, "target")
    n2 = np.vecdot(rows, rows).real
    if (n2 <= 0.0).any():
        raise ValueError("zero-norm state has no fidelity")
    overlap = np.vecdot(targets, rows)
    return np.clip(np.float_power(np.hypot(overlap.real, overlap.imag), 2.0) / n2, 0.0, 1.0)


def fidelity(psi: StateVector, target: StateVector) -> float:
    """|<target|psi>|^2 / <psi|psi>: fidelity of the renormalized state.

    ``psi`` may be unnormalized (a conditional state); ``target`` must be
    normalized.  The result lies in [0, 1].  This is the one-row case of
    :func:`fidelities`.
    """
    if psi.layout != target.layout:
        raise ValueError("states live on different layouts")
    return float(fidelities(psi.amplitudes, target.amplitudes))


def basis_state(layout: HilbertLayout, occupations) -> StateVector:
    """Product basis state |n1 n2 ...> with one level per factor."""
    amps = np.zeros(layout.total_dim, dtype=complex)
    amps[layout.basis_index(occupations)] = 1.0
    return StateVector(layout, amps)


def state_from_amplitudes(layout: HilbertLayout, mapping: dict) -> StateVector:
    """State from {occupations: amplitude}, e.g. {(1, 0, 0): 1/sqrt2, ...}."""
    amps = np.zeros(layout.total_dim, dtype=complex)
    for occ, value in mapping.items():
        amps[layout.basis_index(occ)] += value
    return StateVector(layout, amps)
