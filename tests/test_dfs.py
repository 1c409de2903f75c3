import math

import numpy as np
import pytest

from zenobell.dfs import (
    effective_hamiltonian,
    find_dfs,
    lambda_dfs_vectors,
    pair_dfs_vectors,
    subspace_from_vectors,
)
from zenobell.dynamics import (
    SystemSpec,
    decay_operators,
    evolve_no_jump,
    h_cond_lambda,
    h_cond_two_level,
    zeno_timescale,
)
from zenobell.hilbert import OperatorMatrix, basis_state, fidelity, identity, state_from_amplitudes

SQRT2 = math.sqrt(2.0)


def bare_pair_spec(n_max=2):
    return SystemSpec(atom_levels=2, n_atoms=2, g=1.0, kappa=1.0, gamma=0.0, n_max=n_max)


def bare_lambda_spec(n_max=2):
    return SystemSpec(atom_levels=3, n_atoms=2, g=1.0, kappa=1.0, gamma=0.0, n_max=n_max)


def test_find_dfs_two_level_scheme():
    spec = bare_pair_spec()
    dfs = find_dfs(h_cond_two_level(spec), decay_operators(spec))
    assert dfs.dim == 2
    analytic = subspace_from_vectors(dfs.layout, pair_dfs_vectors(dfs.layout))
    assert np.max(np.abs(dfs.projector.entries - analytic.projector.entries)) <= 1e-12


def test_find_dfs_lambda_scheme():
    spec = bare_lambda_spec()
    dfs = find_dfs(h_cond_lambda(spec), decay_operators(spec))
    assert dfs.dim == 5
    analytic = subspace_from_vectors(dfs.layout, lambda_dfs_vectors(dfs.layout))
    assert np.max(np.abs(dfs.projector.entries - analytic.projector.entries)) <= 1e-12
    # the antisymmetric excited state belongs to the subspace
    s = 1 / SQRT2
    a = state_from_amplitudes(dfs.layout, {(1, 2, 0): s, (2, 1, 0): -s})
    assert np.allclose(dfs.projector.entries @ a.amplitudes, a.amplitudes, atol=1e-12)


def test_find_dfs_identity_decay_gives_empty_subspace():
    spec = bare_pair_spec()
    h = h_cond_two_level(spec)
    dfs = find_dfs(h, [identity(h.layout)])
    assert dfs.dim == 0
    assert np.max(np.abs(dfs.projector.entries)) == 0.0


def test_basis_is_orthonormal_and_projector_consistent():
    spec = bare_lambda_spec()
    dfs = find_dfs(h_cond_lambda(spec), decay_operators(spec))
    b = dfs.matrix()
    gram = b.conj().T @ b
    assert np.max(np.abs(gram - np.eye(dfs.dim))) <= 1e-12
    p = dfs.projector.entries
    assert np.max(np.abs(p @ p - p)) <= 1e-12
    assert np.max(np.abs(p - p.conj().T)) <= 1e-12
    assert round(np.trace(p).real) == dfs.dim


def test_dfs_vectors_are_stationary():
    for spec, builder in ((bare_pair_spec(), h_cond_two_level), (bare_lambda_spec(), h_cond_lambda)):
        h = builder(spec)
        dfs = find_dfs(h, decay_operators(spec))
        for op in decay_operators(spec):
            for v in dfs.vectors:
                assert np.linalg.norm(op.entries @ v.amplitudes) <= 1e-12
        for v in dfs.vectors:
            evolved = evolve_no_jump(h, v, 50.0)
            assert evolved.norm() == pytest.approx(1.0, abs=1e-10)


def test_find_dfs_scale_invariant():
    spec = bare_pair_spec()
    h = h_cond_two_level(spec)
    ops = decay_operators(spec)
    scaled = [OperatorMatrix(op.layout, 173.0 * op.entries) for op in ops]
    p1 = find_dfs(h, ops).projector.entries
    p2 = find_dfs(h, scaled).projector.entries
    assert np.max(np.abs(p1 - p2)) <= 1e-12


def test_find_dfs_deterministic_ordering():
    spec = bare_lambda_spec()
    h = h_cond_lambda(spec)
    first = find_dfs(h, decay_operators(spec))
    second = find_dfs(h, decay_operators(spec))
    for v1, v2 in zip(first.vectors, second.vectors):
        assert np.array_equal(v1.amplitudes, v2.amplitudes)
    # canonical order: qubit states by index, antisymmetric vector last,
    # first significant amplitude real positive
    layout = first.layout
    expected_pivots = [
        layout.basis_index(occ) for occ in ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (1, 2, 0))
    ]
    for v, pivot in zip(first.vectors, expected_pivots):
        amps = v.amplitudes
        lead = np.flatnonzero(np.abs(amps) > 1e-9)[0]
        assert lead == pivot
        assert amps[lead].imag == pytest.approx(0.0, abs=1e-12)
        assert amps[lead].real > 0


def test_effective_hamiltonian_two_level_pulse():
    omega_minus = 0.02
    h = h_cond_two_level(bare_pair_spec(), {(1, "0-1"): omega_minus / SQRT2, (2, "0-1"): -omega_minus / SQRT2})
    layout = h.layout
    v00, va = pair_dfs_vectors(layout)
    eff = effective_hamiltonian(h, subspace_from_vectors(layout, [v00, va]))
    expected = np.array([[0.0, omega_minus / 2], [omega_minus / 2, 0.0]], dtype=complex)
    assert np.max(np.abs(eff.in_basis - expected)) <= 1e-12
    # same statement in the full space: (Om/2)(|a><00| + |00><a|)
    outer = np.outer(va.amplitudes, v00.amplitudes.conj())
    full = (omega_minus / 2) * (outer + outer.conj().T)
    assert np.max(np.abs(eff.operator.entries - full)) <= 1e-12


def test_effective_hamiltonian_lambda_cnot():
    omega = 0.02
    h = h_cond_lambda(bare_lambda_spec(), {(1, "1-2"): SQRT2 * omega, (2, "0-2"): SQRT2 * omega})
    layout = h.layout
    vectors = lambda_dfs_vectors(layout)
    eff = effective_hamiltonian(h, subspace_from_vectors(layout, vectors))
    # basis order |00>, |01>, |10>, |11>, |a>
    expected = np.zeros((5, 5), dtype=complex)
    expected[2, 4] = expected[4, 2] = omega / 2
    expected[3, 4] = expected[4, 3] = -omega / 2
    assert np.max(np.abs(eff.in_basis - expected)) <= 1e-12


def test_effective_hamiltonian_of_zero_is_zero():
    spec = bare_pair_spec()
    layout = spec.layout()
    dfs = subspace_from_vectors(layout, pair_dfs_vectors(layout))
    zero = OperatorMatrix(layout, np.zeros((layout.total_dim,) * 2))
    eff = effective_hamiltonian(zero, dfs)
    assert np.max(np.abs(eff.operator.entries)) == 0.0
    assert np.max(np.abs(eff.in_basis)) == 0.0


def test_effective_dynamics_matches_full_dynamics_in_regime():
    # pulse on |00>: full conditional evolution vs the projected one
    omega_minus = 0.02
    drive = {(1, "0-1"): omega_minus / SQRT2, (2, "0-1"): -omega_minus / SQRT2}
    spec = SystemSpec(atom_levels=2, g=1.0, kappa=1.0, gamma=0.0002, n_max=2)
    h = h_cond_two_level(spec, drive)
    layout = h.layout
    dfs = subspace_from_vectors(layout, pair_dfs_vectors(layout))
    eff = effective_hamiltonian(h_cond_two_level(bare_pair_spec(), drive), dfs)
    psi0 = basis_state(layout, (0, 0, 0))
    T = math.pi / omega_minus
    full = evolve_no_jump(h, psi0, T)
    ideal = evolve_no_jump(eff.operator, psi0, T)
    assert fidelity(full, ideal.normalized()) >= 0.99

    # CNOT drive on |10>
    omega = 0.02
    ldrive = {(1, "1-2"): SQRT2 * omega, (2, "0-2"): SQRT2 * omega}
    lspec = SystemSpec(atom_levels=3, g=1.0, kappa=1.0, gamma=0.0002, n_max=2)
    lh = h_cond_lambda(lspec, ldrive)
    llayout = lh.layout
    ldfs = subspace_from_vectors(llayout, lambda_dfs_vectors(llayout))
    leff = effective_hamiltonian(h_cond_lambda(bare_lambda_spec(), ldrive), ldfs)
    psi10 = basis_state(llayout, (1, 0, 0))
    T2 = SQRT2 * math.pi / omega
    assert fidelity(evolve_no_jump(lh, psi10, T2), evolve_no_jump(leff.operator, psi10, T2).normalized()) >= 0.99


def test_effective_hamiltonian_layout_mismatch():
    spec = bare_pair_spec()
    layout = spec.layout()
    dfs = subspace_from_vectors(layout, pair_dfs_vectors(layout))
    other = bare_lambda_spec()
    with pytest.raises(ValueError):
        effective_hamiltonian(h_cond_lambda(other), dfs)


def test_zeno_timescale():
    assert zeno_timescale(SystemSpec(atom_levels=2, g=1.0, kappa=1.0)) == pytest.approx(1.0)
    assert zeno_timescale(SystemSpec(atom_levels=2, g=1.0, kappa=10.0)) == pytest.approx(10.0)
    assert zeno_timescale(SystemSpec(atom_levels=2, g=1.0, kappa=0.1)) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        zeno_timescale(SystemSpec(atom_levels=2, g=1.0, kappa=0.0))
