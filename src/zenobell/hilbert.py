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
import operator

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
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Record:
    """Base of the package's frozen records: the fields are ``__slots__``, set once by the constructor.

    Two records of one type are equal, and hash equal, when their first
    ``_compared`` fields are (all of them by default); the repr shows the
    same fields.  The two array records, ``StateVector`` and
    ``OperatorMatrix``, compare by ``_equal_arrays`` instead and are
    unhashable.  Assigning to or deleting a field raises AttributeError.
    """

    __slots__ = ()
    _compared: int | None = None

    def __init_subclass__(cls):
        super().__init_subclass__()
        # one C-level getter of the compared fields, as a tuple: a record has two or more
        cls._key = staticmethod(operator.attrgetter(*cls.__slots__[: cls._compared]))

    def _set(self, *values) -> None:
        """Set every field, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return self._key(self) == other._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in zip(self.__slots__, self._key(self)))})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__


def _equal_arrays(self, other):
    """``==`` of an array record: the same layout, and arrays that hold the same values."""
    if type(other) is not type(self):
        return NotImplemented
    (layout, values), (other_layout, other_values) = self._key(self), other._key(other)
    return layout == other_layout and np.array_equal(values, other_values)


class HilbertLayout(_Record):
    """Ordered list of (label, dimension) factors of a product space, and its total dimension."""

    __slots__ = ("factors", "total_dim")

    def __init__(self, factors: tuple[tuple[str, int], ...]):
        labels = [lab for lab, _ in factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in {labels}")
        for lab, dim in factors:
            if dim < 1:
                raise ValueError(f"factor {lab!r} has dimension {dim} < 1")
        self._set(factors, math.prod(d for _, d in factors))

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


class StateVector(_Record):
    """Complex amplitude vector over a layout; normalization not required.

    Two states are equal when their layouts and amplitudes are.  A state
    is unhashable, as its amplitude array is.
    """

    __slots__ = ("layout", "amplitudes")
    __eq__ = _equal_arrays
    __hash__ = None

    def __init__(self, layout: HilbertLayout, amplitudes: np.ndarray):
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (layout.total_dim,):
            raise ValueError(f"amplitude length {amps.size} != layout dimension {layout.total_dim}")
        if not np.isfinite(amps.view(float)).all():
            raise ValueError("amplitudes must be finite")
        self._set(layout, _frozen(amps))

    def norm(self) -> float:
        return float(norms(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero state")
        return StateVector(self.layout, self.amplitudes / n)


class OperatorMatrix(_Record):
    """Dense complex matrix on a layout; may be non-Hermitian.

    Two operators are equal when their layouts and entries are.  An
    operator is unhashable, as its entry array is.
    """

    __slots__ = ("layout", "entries")
    __eq__ = _equal_arrays
    __hash__ = None

    def __init__(self, layout: HilbertLayout, entries: np.ndarray):
        m = np.array(entries, dtype=complex)
        d = layout.total_dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} != ({d}, {d})")
        self._set(layout, _frozen(m))


def embed(local_op, target_label: str, layout: HilbertLayout) -> OperatorMatrix:
    """Lift a single-factor operator to the full space (the unit operator elsewhere).

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
    axis = layout.axis_of(target_label)
    full = np.ones((1, 1), dtype=complex)
    for k, (_, d) in enumerate(layout.factors):
        local = np.frombuffer(local_bytes, dtype=complex).reshape(d, d) if k == axis else np.eye(d, dtype=complex)
        full = np.kron(full, local)
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
