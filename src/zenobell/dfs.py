"""Decoherence-free subspaces and projected effective dynamics.

A decoherence-free subspace (DFS) is the largest subspace that is (a)
annihilated by every decay operator and (b) mapped into itself by the
system's internal coupling.  States inside it never trigger an emission,
and continuous monitoring by the environment (a quantum Zeno effect)
suppresses laser-driven transitions that would leave it.  The driven
dynamics inside the subspace is then governed by the projected
Hamiltonian P H P.

Two routes to the subspace are provided: a numeric finder (kernel
intersection followed by an invariance closure) and hard-coded analytic
bases for the two standard schemes, used to anchor the finder in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SystemSpec
from .hilbert import HilbertLayout, OperatorMatrix, StateVector, state_from_amplitudes
from .states import entangled_pair_state

__all__ = [
    "SubspaceBasis",
    "EffectiveHamiltonian",
    "find_dfs",
    "effective_hamiltonian",
    "zeno_timescale",
    "subspace_from_vectors",
    "pair_dfs_vectors",
    "lambda_dfs_vectors",
]

_RANK_TOL = 1e-7
_PHASE_TOL = 1e-9


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace together with its projector."""

    layout: HilbertLayout
    vectors: tuple[StateVector, ...]
    projector: OperatorMatrix

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def matrix(self) -> np.ndarray:
        """Basis vectors as columns of a (total_dim x dim) array."""
        if not self.vectors:
            return np.zeros((self.layout.total_dim, 0), dtype=complex)
        return np.column_stack([v.amplitudes for v in self.vectors])


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """P H P, both as a full-space operator and in the subspace basis."""

    operator: OperatorMatrix
    in_basis: np.ndarray
    basis: SubspaceBasis


def _canonical_basis(projector: np.ndarray, rank: int, layout: HilbertLayout) -> list[StateVector]:
    """Deterministic orthonormal basis of a projector's range.

    Columns of the projector are Gram-Schmidt-accepted in computational
    index order, each vector's first significant amplitude is made real
    positive, and the result is sorted by the index of its dominant
    amplitude.  The output therefore depends only on the subspace.
    """
    accepted: list[np.ndarray] = []
    for i in range(projector.shape[0]):
        if len(accepted) == rank:
            break
        v = projector[:, i].copy()
        for w in accepted:
            v -= w * np.vdot(w, v)
        n = np.linalg.norm(v)
        if n <= _RANK_TOL:
            continue
        v /= n
        for k in range(v.size):
            if abs(v[k]) > _PHASE_TOL:
                v *= np.conj(v[k]) / abs(v[k])
                break
        accepted.append(v)
    accepted.sort(key=lambda v: int(np.argmax(np.abs(v) > np.max(np.abs(v)) - 1e-12)))
    return [StateVector(layout, v) for v in accepted]


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of ``a``.

    The right singular vectors whose singular values are at most 1e-10
    times the largest one.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.count_nonzero(s > 1e-10 * s.max(initial=0.0)))
    return vh[rank:].conj().T


def subspace_from_vectors(layout: HilbertLayout, vectors) -> SubspaceBasis:
    """Wrap an orthonormal list of states (checked) into a SubspaceBasis."""
    vecs = tuple(vectors)
    if vecs:
        b = np.column_stack([v.amplitudes for v in vecs])
        gram = b.conj().T @ b
        if np.max(np.abs(gram - np.eye(len(vecs)))) > 1e-10:
            raise ValueError("vectors are not orthonormal")
        proj = b @ b.conj().T
    else:
        proj = np.zeros((layout.total_dim, layout.total_dim), dtype=complex)
    proj = 0.5 * (proj + proj.conj().T)
    return SubspaceBasis(layout, vecs, OperatorMatrix(layout, proj))


def find_dfs(h_interaction: OperatorMatrix, decay_ops) -> SubspaceBasis:
    """Largest subspace killed by all decay operators and invariant under H.

    Starting from the joint kernel of the decay operators, states whose
    image under ``h_interaction`` leaves the current candidate are
    discarded until the dimension stabilizes.  Decay operators are
    normalized internally, so overall scale factors do not change the
    result.  An empty subspace is a valid outcome.
    """
    decay_ops = list(decay_ops)
    if not decay_ops:
        raise ValueError("need at least one decay operator")
    layout = h_interaction.layout
    d = layout.total_dim
    rows = []
    for op in decay_ops:
        if op.layout != layout:
            raise ValueError("decay operator layout mismatch")
        m = op.entries
        scale = np.linalg.norm(m)
        if scale > 0:
            rows.append(m / scale)
    if not rows:  # all decay operators vanish
        basis = np.eye(d, dtype=complex)
    else:
        basis = _null_space(np.vstack(rows))
    h = h_interaction.entries
    hscale = np.linalg.norm(h)
    if hscale > 0:
        hn = h / hscale
        while basis.shape[1] > 0:
            image = hn @ basis
            residual = image - basis @ (basis.conj().T @ image)
            if np.max(np.abs(residual)) <= 1e-12:
                break
            keep = _null_space(residual)
            if keep.shape[1] == basis.shape[1]:
                break
            basis = basis @ keep
    rank = basis.shape[1]
    proj = basis @ basis.conj().T
    proj = 0.5 * (proj + proj.conj().T)
    vectors = _canonical_basis(proj, rank, layout)
    return SubspaceBasis(layout, tuple(vectors), OperatorMatrix(layout, proj))


def effective_hamiltonian(h_cond: OperatorMatrix, dfs: SubspaceBasis) -> EffectiveHamiltonian:
    """Project the conditional Hamiltonian onto the subspace: P H P."""
    if h_cond.layout != dfs.layout:
        raise ValueError("Hamiltonian and subspace live on different layouts")
    p = dfs.projector.entries
    full = p @ h_cond.entries @ p
    b = dfs.matrix()
    in_basis = b.conj().T @ h_cond.entries @ b
    return EffectiveHamiltonian(
        operator=OperatorMatrix(dfs.layout, full),
        in_basis=in_basis,
        basis=dfs,
    )


def zeno_timescale(spec: SystemSpec) -> float:
    """Environment-measurement timescale: max(1/kappa, kappa/g^2).

    A pulse of duration T should satisfy T >> this value for the Zeno
    suppression of non-decay-free states to act; protocols warn when
    T < 10x this value.
    """
    if spec.kappa <= 0:
        raise ValueError("zeno_timescale needs kappa > 0")
    return max(1.0 / spec.kappa, spec.kappa / spec.g**2)


def pair_dfs_vectors(layout: HilbertLayout) -> tuple[StateVector, StateVector]:
    """Analytic decay-free basis of the two-level scheme.

    Span of |00> and the antisymmetric state |a> = (|10> - |01>)/sqrt(2),
    with the cavity empty: the pulse family at alpha = 0 and alpha = 1.
    """
    return entangled_pair_state(0.0, layout), entangled_pair_state(1.0, layout)


def lambda_dfs_vectors(layout: HilbertLayout) -> tuple[StateVector, ...]:
    """Analytic decay-free basis of the Lambda scheme (dimension five).

    The four qubit ground states plus (|12> - |21>)/sqrt(2), cavity empty.
    """
    s = 1.0 / math.sqrt(2.0)
    qubits = [
        state_from_amplitudes(layout, {(a, b, 0): 1.0})
        for a in (0, 1)
        for b in (0, 1)
    ]
    va = state_from_amplitudes(layout, {(1, 2, 0): s, (2, 1, 0): -s})
    return (*qubits, va)
