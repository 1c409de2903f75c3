import cmath
import math

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from zenobell import bell, dfs, dynamics, gates
from zenobell.dynamics import (
    DrivenHamiltonian,
    NumericalError,
    SystemSpec,
    check_regime,
    cnot_drive,
    decay_operators,
    evolve_no_jump,
    h_cond,
    h_cond_lambda,
    h_cond_two_level,
    no_jump_states,
    no_photon_probabilities,
    no_photon_probability,
    pair_drive,
)
from zenobell.gates import cnot_pulse_sweep
from zenobell.hilbert import OperatorMatrix, StateVector, basis_state, compose, fidelity, ladder, state_from_amplitudes

from oracles import conditional_hamiltonian, dense_drive_stack, embed_by_index, integrate_schrodinger

SQRT2 = math.sqrt(2.0)


def pair_spec(gamma, g=1.0, kappa=1.0, n_max=2):
    return SystemSpec(atom_levels=2, n_atoms=2, g=g, kappa=kappa, gamma=gamma, n_max=n_max)


def pair_lasers(omega):
    return {(1, "0-1"): omega / SQRT2, (2, "0-1"): -omega / SQRT2}


def lambda_spec(gamma, g=1.0, kappa=1.0, n_max=2):
    return SystemSpec(atom_levels=3, n_atoms=2, g=g, kappa=kappa, gamma=gamma, n_max=n_max)


def lambda_lasers(omega):
    return {(1, "1-2"): SQRT2 * omega, (2, "0-2"): SQRT2 * omega}


def family_of(spec, drive):
    return DrivenHamiltonian.of(spec, list(drive))


# a drive enters through h_cond(spec, drive) or DrivenHamiltonian.of(spec, keys), and both check its keys
LASER_ENTRIES = (h_cond, family_of)


def antisym_state(layout):
    s = 1 / SQRT2
    return state_from_amplitudes(layout, {(1, 0, 0): s, (0, 1, 0): -s})


# ---------------------------------------------------------------- SystemSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        SystemSpec(atom_levels=4)
    with pytest.raises(ValueError):
        SystemSpec(g=0.0)
    with pytest.raises(ValueError):
        SystemSpec(gamma=-0.1)
    with pytest.raises(ValueError):
        SystemSpec(n_max=0)
    for enter in LASER_ENTRIES:
        with pytest.raises(ValueError, match=r"transition '0-2' invalid for 2-level atoms \(expected one of \['0-1'\]"):
            enter(SystemSpec(atom_levels=2), {(1, "0-2"): 0.1})
        with pytest.raises(ValueError, match="transition '0-1' invalid for 3-level atoms"):
            enter(SystemSpec(atom_levels=3), {(1, "0-1"): 0.1})
        with pytest.raises(ValueError, match="rabi entry for unknown atom 3"):
            enter(SystemSpec(atom_levels=2), {(3, "0-1"): 0.1})


@pytest.mark.parametrize(
    "fields, drive, named",
    [
        ({"g": math.inf}, {}, "g must be > 0 with g**2 finite and nonzero, got inf"),
        ({"kappa": math.nan}, {}, "kappa must be >= 0 with 2 * kappa * max(n_max, n_atoms, 2) finite, got nan"),
        ({"gamma": math.inf}, {}, "gamma must be >= 0 with 2 * gamma * max(n_max, n_atoms, 2) finite, got inf"),
        ({}, {(1, "0-1"): complex(math.nan, 0.0)}, "rabi entry for atom 1, '0-1' must be finite, got (nan+0j)"),
        ({}, {(2, "0-1"): complex(0.0, math.inf)}, "rabi entry for atom 2, '0-1' must be finite, got infj"),
    ],
    ids=["g_inf", "kappa_nan", "gamma_inf", "rabi_nan", "rabi_imag_inf"],
)
def test_spec_rejects_non_finite_rates(fields, drive, named):
    # a spec is where a rate enters and h_cond where a Rabi frequency does; accepted, a nan kappa fails
    # only late, as a run's non-finite final state
    with pytest.raises(ValueError) as refused:
        h_cond(SystemSpec(**fields), drive)
    assert str(refused.value) == named


_BAD_COUNTS = {
    # the layout truncated the cavity at int(2.5) = 2 levels while n_max read 1.5
    "n_max_fraction": ({"n_max": 1.5}, "n_max must be an integer, got 1.5"),
    "n_max_bool": ({"n_max": True}, "n_max must be an integer, got True"),
    "n_atoms_bool": ({"n_atoms": True}, "n_atoms must be an integer, got True"),
    # layout() raised a bare TypeError from range()
    "n_atoms_fraction": ({"n_atoms": 1.5}, "n_atoms must be an integer, got 1.5"),
    # accepted, and then h_cond raised a bare TypeError
    "atom_levels_float": ({"atom_levels": 2.0}, "atom_levels must be an integer, got 2.0"),
}


@pytest.mark.parametrize("fields, named", _BAD_COUNTS.values(), ids=_BAD_COUNTS.keys())
def test_spec_refuses_a_bool_or_non_integer_count(fields, named):
    with pytest.raises(ValueError) as refused:
        SystemSpec(**fields)
    assert str(refused.value) == named


def test_spec_takes_numpy_integer_counts():
    spec = SystemSpec(atom_levels=np.int64(3), n_atoms=np.int32(2), n_max=np.int64(2))
    assert spec.layout() == lambda_spec(0).layout()


def test_layout_shape():
    assert pair_spec(0).layout().dims == (2, 2, 3)
    assert lambda_spec(0).layout().dims == (3, 3, 3)
    assert SystemSpec(n_atoms=0, n_max=4).layout().dims == (5,)


def test_atom_free_spec_is_the_hand_built_leaky_cavity():
    # the leaky cavity written out by hand, bit for bit: H = -i kappa b^dag b
    # and L = sqrt(2 kappa) b, with no jump operator at kappa = 0
    for kappa in (0.0, 1e-300, 0.1, 0.5, 1.0, 2.5, 7.0, 1e150):
        for n_max in range(1, 7):
            spec = SystemSpec(n_atoms=0, kappa=kappa, n_max=n_max)
            layout, b = compose([("cav", n_max + 1)]), ladder(n_max + 1)
            h = h_cond(spec)
            assert spec.layout() == h.layout == layout
            assert h.entries.tobytes() == (-1j * kappa * (b.conj().T @ b)).tobytes()
            jumps = decay_operators(spec)
            assert len(jumps) == (kappa > 0)
            for jump in jumps:
                assert jump.layout == layout
                assert jump.entries.tobytes() == (math.sqrt(2.0 * kappa) * b).tobytes()


def test_atom_count_validation():
    with pytest.raises(ValueError, match="n_atoms must be >= 0, got -1"):
        SystemSpec(n_atoms=-1)
    # atom indices run over 1..n_atoms: a spec without atoms takes no laser
    for enter in LASER_ENTRIES:
        with pytest.raises(ValueError, match="unknown atom 1"):
            enter(SystemSpec(n_atoms=0), {(1, "0-1"): 0.1})
    # the checked entry points still take exactly two atoms
    with pytest.raises(ValueError, match="exactly two 2-level atoms"):
        h_cond_two_level(SystemSpec(atom_levels=2, n_atoms=0))
    with pytest.raises(ValueError, match="exactly two 3-level atoms"):
        h_cond_lambda(SystemSpec(atom_levels=3, n_atoms=0))


@pytest.mark.parametrize(
    "levels, rabi",
    [
        (2, {(1, "0-1"): 0.1}),
        (3, {(1, "1-2"): 0.1}),
        (2, {(1, "0-1"): 0.1, (3, "0-1"): -0.05 + 0.02j}),
        (3, {(2, "0-2"): 0.3j, (3, "1-2"): -0.07}),
    ],
)
def test_driven_h_cond_on_any_number_of_atoms_is_h0_plus_the_laser_terms(levels, rabi):
    # one atom or three: H = H0 + sum_k (w_k S_k + conj(w_k) S_k^dag) / 2, laser by laser
    n_atoms = max(atom for atom, _ in rabi)
    spec = SystemSpec(atom_levels=levels, n_atoms=n_atoms, g=0.8, kappa=0.6, gamma=0.01, n_max=2)
    dims = spec.layout().dims
    expected = h_cond(spec).entries
    for (atom, trans), w in rabi.items():
        low, up = (int(x) for x in trans.split("-"))
        local = np.zeros((levels, levels), dtype=complex)
        local[up, low] = 1.0
        s_plus = embed_by_index(local, atom - 1, dims)
        expected = expected + 0.5 * (w * s_plus + np.conj(w) * s_plus.conj().T)
    h = h_cond(spec, rabi)
    assert h.layout == spec.layout()
    assert np.array_equal(h.entries, expected)


# ------------------------------------------------------- two-level Hamiltonian


def test_two_level_ground_state_is_dark():
    spec = SystemSpec(atom_levels=2, g=1.0, kappa=0.0, gamma=0.0, n_max=2)
    h = h_cond_two_level(spec)
    psi = basis_state(h.layout, (0, 0, 0))
    assert np.max(np.abs(h.entries @ psi.amplitudes)) == pytest.approx(0.0, abs=1e-15)


def test_two_level_single_excitation_block_matches_hand_construction():
    # With Omega = Gamma = 0, kappa = 0 and g = 1 the states
    # {|10>|0>, |01>|0>, |00>|1>} close under H; the couplings are
    # +-i g between each excited atom and the one-photon state.
    spec = SystemSpec(atom_levels=2, g=1.0, kappa=0.0, gamma=0.0, n_max=2)
    h = h_cond_two_level(spec)
    layout = h.layout
    idx = [layout.basis_index(o) for o in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    block = h.entries[np.ix_(idx, idx)]
    expected = np.array(
        [
            [0, 0, 1j],
            [0, 0, 1j],
            [-1j, -1j, 0],
        ]
    )
    assert np.allclose(block, expected, atol=1e-14)
    # and with kappa on, the one-photon state picks up -i kappa
    spec = SystemSpec(atom_levels=2, g=1.0, kappa=0.7, gamma=0.0, n_max=2)
    h2 = h_cond_two_level(spec).entries
    assert h2[idx[2], idx[2]] == pytest.approx(-0.7j)


def test_anti_hermitian_part_negative_semidefinite():
    rng = np.random.default_rng(2)
    for _ in range(5):
        gamma, omega, kappa = rng.uniform(0, 0.2), rng.uniform(0.01, 0.5), rng.uniform(0, 2)
        h = h_cond_two_level(pair_spec(gamma, kappa=kappa), pair_lasers(omega)).entries
        anti = (h - h.conj().T) / 2j  # Hermitian; must be <= 0
        assert np.max(np.linalg.eigvalsh(anti)) <= 1e-12
    h = h_cond_lambda(lambda_spec(0.05), lambda_lasers(0.1)).entries
    anti = (h - h.conj().T) / 2j
    assert np.max(np.linalg.eigvalsh(anti)) <= 1e-12


def test_two_level_requires_right_shape():
    with pytest.raises(ValueError):
        h_cond_two_level(lambda_spec(0), lambda_lasers(0.02))
    with pytest.raises(ValueError):
        h_cond_lambda(pair_spec(0), pair_lasers(0.02))


# --------------------------------------------------------- Lambda Hamiltonian


def test_lambda_decay_free_states_are_annihilated():
    spec = SystemSpec(atom_levels=3, g=1.0, kappa=1.0, gamma=0.0, n_max=2)
    h = h_cond_lambda(spec)
    layout = h.layout
    s = 1 / SQRT2
    stationary = [
        state_from_amplitudes(layout, {(a, b, 0): 1.0})
        for a in (0, 1)
        for b in (0, 1)
    ]
    stationary.append(state_from_amplitudes(layout, {(1, 2, 0): s, (2, 1, 0): -s}))
    for psi in stationary:
        assert np.max(np.abs(h.entries @ psi.amplitudes)) <= 1e-12


def test_lambda_coupling_signs():
    spec = SystemSpec(atom_levels=3, g=1.0, kappa=0.0, gamma=0.0, n_max=2)
    h = h_cond_lambda(spec).entries
    layout = lambda_spec(0).layout()
    # -i g b^dag |1><2| : |12>|0> -> -i g |11>|1>
    col = layout.basis_index((1, 2, 0))
    row = layout.basis_index((1, 1, 1))
    assert h[row, col] == pytest.approx(-1j)
    # +i g b |2><1| : |11>|1> -> +i g (|21> + |12>)|0>
    assert h[layout.basis_index((2, 1, 0)), layout.basis_index((1, 1, 1))] == pytest.approx(1j)


def test_lambda_gamma_damping_is_diagonal():
    spec = SystemSpec(atom_levels=3, g=0.001, kappa=0.0, gamma=0.3, n_max=1)
    h = h_cond_lambda(spec).entries
    layout = spec.layout()
    for occ, count in (((2, 2, 0), 2), ((2, 0, 0), 1), ((0, 1, 0), 0)):
        i = layout.basis_index(occ)
        assert h[i, i] == pytest.approx(-1j * spec.gamma * count)


# ------------------------------------------------------------- no-jump motion


def test_evolve_identity_for_zero_hamiltonian():
    layout = compose([("q", 2)])
    h = OperatorMatrix(layout, np.zeros((2, 2)))
    psi = basis_state(layout, (1,))
    out = evolve_no_jump(h, psi, 3.7)
    assert np.allclose(out.amplitudes, psi.amplitudes)


def test_pure_cavity_decay_amplitude():
    spec = SystemSpec(n_atoms=0, kappa=0.8, n_max=2)
    h = h_cond(spec)
    psi = basis_state(spec.layout(), (1,))
    out = evolve_no_jump(h, psi, 2.5)
    assert out.amplitudes[1] == pytest.approx(math.exp(-0.8 * 2.5), rel=1e-12)
    assert no_photon_probability(h, psi, 2.5) == pytest.approx(math.exp(-2 * 0.8 * 2.5), rel=1e-12)


def test_evolve_errors():
    layout = compose([("q", 2)])
    h = OperatorMatrix(layout, np.zeros((2, 2)))
    psi = basis_state(layout, (0,))
    with pytest.raises(ValueError):
        evolve_no_jump(h, psi, -1.0)
    other = basis_state(compose([("q", 3)]), (0,))
    with pytest.raises(ValueError):
        evolve_no_jump(h, other, 1.0)


def test_no_photon_probabilities_are_the_one_time_values_bit_for_bit():
    # the trajectories scenario's p0_det column: one kernel call for all rows
    pair = pair_spec(0.001)
    cavity = SystemSpec(n_atoms=0, kappa=1.0, n_max=4)
    for spec, drive, occupation, times in (
        (pair, pair_lasers(0.02), (0, 0, 0), [math.pi / 0.02, 0.0, 20.0, math.pi / 0.02]),
        # the last three are times where libm pow(||psi||, 2) and ||psi|| * ||psi|| differ in the last bit
        (cavity, {}, (1,), [0.25, 0.5, 1.0, 2.0, 0.0, 0.733, 1.6039999999999999, 2.9659999999999997]),
    ):
        h, psi = h_cond(spec, drive), basis_state(spec.layout(), occupation)
        assert no_photon_probabilities(h, psi, times).tolist() == [no_photon_probability(h, psi, t) for t in times]
    # the first time whose state overflows is named, as evolve_no_jump names its one time
    h = h_cond(pair_spec(1e200), pair_lasers(0.02))
    psi = basis_state(h.layout, (0, 0, 0))
    with pytest.raises(NumericalError, match=r"not finite at t = 157\.079633$"):
        no_photon_probabilities(h, psi, [0.0, math.pi / 0.02, 2 * math.pi / 0.02])
    with pytest.raises(ValueError, match="evolution time must be >= 0, got -1.0"):
        no_photon_probabilities(h, psi, [1.0, -1.0])


def test_no_photon_probabilities_refuse_a_norm_gain_by_its_time():
    # a gain term, +0.5 on |0>, makes ||psi||^2 = e^t: no no-jump evolution
    # reaches p0 > 1, so the first such t is named
    layout = compose([("q", 2)])
    h, psi = OperatorMatrix(layout, [[0.5j, 0], [0, 0]]), basis_state(layout, (0,))
    assert no_photon_probabilities(h, psi, [0.0]).tolist() == [1.0]
    with pytest.raises(NumericalError, match=r"^p0 = 2\.718281828[0-9]* > 1 at t = 1: "):
        no_photon_probabilities(h, psi, [0.0, 1.0])


def test_regime_compliant_pulse_reaches_antisymmetric_state():
    # Gamma/|Omega| = 0.01: the no-jump branch lands on the maximally
    # entangled target with high conditional fidelity and P0 >= 0.9.
    spec = pair_spec(0.0002)
    h = h_cond_two_level(spec, pair_lasers(0.02))
    psi0 = basis_state(h.layout, (0, 0, 0))
    T = math.pi / 0.02
    final = evolve_no_jump(h, psi0, T)
    assert fidelity(final, antisym_state(h.layout)) >= 0.95
    assert no_photon_probability(h, psi0, T) >= 0.9


def test_out_of_regime_pulse_degrades_as_integrator_predicts():
    # At Gamma/|Omega| = 0.5 the strong-driving condition fails: the
    # independently integrated dynamics puts P0 near 0.39 and the
    # conditional fidelity near 0.67.
    spec = pair_spec(0.01)
    h = h_cond_two_level(spec, pair_lasers(0.02))
    psi0 = basis_state(h.layout, (0, 0, 0))
    T = math.pi / 0.02
    final = evolve_no_jump(h, psi0, T)
    reference = integrate_schrodinger(h.entries, psi0.amplitudes, T)
    assert np.linalg.norm(final.amplitudes - reference) <= 1e-8
    p0 = float(np.linalg.norm(reference) ** 2)
    fid = float(abs(np.vdot(antisym_state(h.layout).amplitudes, reference)) ** 2 / p0)
    assert p0 == pytest.approx(0.388, abs=0.005)
    assert fid == pytest.approx(0.673, abs=0.005)
    assert fidelity(final, antisym_state(h.layout)) == pytest.approx(fid, abs=1e-9)


def test_hermitian_hamiltonian_conserves_norm():
    spec = pair_spec(0.0, kappa=0.0)
    h = h_cond_two_level(spec, pair_lasers(0.05))
    psi0 = basis_state(h.layout, (0, 0, 0))
    for t in (1.0, 37.0, 100.0):
        assert no_photon_probability(h, psi0, t) == pytest.approx(1.0, abs=1e-12)


def test_norm_monotonic_and_p0_in_range():
    spec = pair_spec(0.01)
    h = h_cond_two_level(spec, pair_lasers(0.04))
    psi0 = basis_state(h.layout, (0, 0, 0))
    previous = 1.0 + 1e-12
    for t in np.linspace(0.0, 160.0, 33):
        p0 = no_photon_probability(h, psi0, float(t))
        assert -1e-12 <= p0 <= 1.0 + 1e-12
        assert p0 <= previous + 1e-10
        previous = p0
    assert no_photon_probability(h, psi0, 0.0) == 1.0


def test_expm_agrees_with_step_halving_integrator():
    rng = np.random.default_rng(8)
    for _ in range(3):
        gamma, omega, kappa = rng.uniform(0, 0.05), rng.uniform(0.02, 0.2), rng.uniform(0.5, 1.5)
        h = h_cond_two_level(pair_spec(gamma, kappa=kappa), pair_lasers(omega))
        psi0 = basis_state(h.layout, (0, 0, 0))
        t = rng.uniform(5.0, 25.0)
        fast = evolve_no_jump(h, psi0, t).amplitudes
        slow = integrate_schrodinger(h.entries, psi0.amplitudes, t)
        assert np.linalg.norm(fast - slow) / np.linalg.norm(slow) <= 1e-8


def test_fock_truncation_converged():
    T = math.pi / 0.02
    values = []
    for n_max in (2, 3):
        spec = pair_spec(0.001, n_max=n_max)
        h = h_cond_two_level(spec, pair_lasers(0.02))
        values.append(no_photon_probability(h, basis_state(h.layout, (0, 0, 0)), T))
    assert abs(values[0] - values[1]) < 1e-6


# ---------------------------------------------------------------- regime check


def test_check_regime_examples():
    spec = SystemSpec(atom_levels=2, g=1.0, kappa=1.0, gamma=0.001)
    report = check_regime(spec, 0.02)
    assert report.in_regime
    assert report.ratios["gamma_over_omega"] == pytest.approx(0.05)
    assert report.ratios["omega_kappa_over_g2"] == pytest.approx(0.02)
    assert report.ratios["omega_over_kappa"] == pytest.approx(0.02)

    assert not check_regime(SystemSpec(atom_levels=2, g=1.0, kappa=1.0, gamma=0.0), 0.5).in_regime
    assert not check_regime(SystemSpec(atom_levels=2, g=1.0, kappa=1.0, gamma=0.02), 0.02).in_regime
    with pytest.raises(ValueError):
        check_regime(spec, 0.0)


# ------------------------------------------------- batched assembly (stacks)

DRIVES = [0.02, -0.05 + 0.03j, 1e-3j, 0.7]


@pytest.mark.parametrize("n_max", [2, 3])
@pytest.mark.parametrize("levels", [2, 3])
def test_stacked_hamiltonians_equal_single_point_assembly(levels, n_max):
    spec = SystemSpec(atom_levels=levels, n_atoms=2, g=0.8, kappa=0.6, gamma=0.01, n_max=n_max)
    drive_of, h_cond = (pair_drive, h_cond_two_level) if levels == 2 else (cnot_drive, h_cond_lambda)
    drives = [drive_of(om) for om in DRIVES]
    stack = DrivenHamiltonian.of(spec, drives[0]).stack(drives)
    assert stack.shape == (len(drives), spec.layout().total_dim, spec.layout().total_dim)
    for h, drive in zip(stack, drives):
        assert np.array_equal(h, h_cond(spec, drive).entries)
        assert np.array_equal(h, conditional_hamiltonian(spec, drive))


# Real and imaginary parts of drive amplitudes: signed zeros, both signs,
# so the products with the zero entries of S_k take every sign of zero.
AMPLITUDE_PARTS = (0.0, -0.0, 0.37, -1.25, 3e-3)


@pytest.mark.parametrize("kappa", [0.6, 0.0])
@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("levels", [2, 3])
def test_stack_equals_the_dense_drive_sum_byte_for_byte(levels, n_max, kappa):
    spec = SystemSpec(atom_levels=levels, n_atoms=2, g=0.8, kappa=kappa, gamma=0.01, n_max=n_max)
    lasers = [(1, "0-1"), (2, "0-1")] if levels == 2 else [(1, "0-2"), (1, "1-2"), (2, "0-2"), (2, "1-2")]
    rng = np.random.default_rng(10 * levels + n_max)
    for keys in (lasers, lasers[-1:], []):
        family = DrivenHamiltonian.of(spec, keys)
        drives = [{k: complex(*rng.choice(AMPLITUDE_PARTS, 2).tolist()) for k in keys} for _ in range(60)]
        drives += [{k: complex(*rng.normal(size=2).tolist()) for k in keys} for _ in range(20)]
        dense = dense_drive_stack(family, drives)
        assert family.stack(drives).tobytes() == dense.tobytes()
        for component in family.components:
            rows, cols = np.ix_(component.states, component.states)
            assert family.stack(drives, component.states).tobytes() == dense[:, rows, cols].tobytes()
    # the entries no laser reaches are H0's own, which holds no -0.0 part
    parts = family.h0.view(float)
    assert not np.signbit(parts[parts == 0]).any()


@pytest.mark.parametrize("levels", [2, 3])
def test_family_of_several_systems_stacks_each_points_own_h0(levels):
    # systems on one layout that differ in their damping (and g): H0_s is
    # the undriven conditional Hamiltonian of spec s, and the stack is the
    # systems x the drives, system-major: slices s * n to (s + 1) * n are,
    # byte for byte, the one-system stack of spec s
    specs = [
        SystemSpec(atom_levels=levels, n_atoms=2, g=g, kappa=kappa, gamma=gamma, n_max=2)
        for g, kappa, gamma in ((1.0, 1.0, 0.0), (1.0, 0.0, 0.01), (0.8, 0.6, 0.1))
    ]
    keys = pair_drive(1.0) if levels == 2 else cnot_drive(1.0)
    family = DrivenHamiltonian.of(specs, keys)
    h_cond = h_cond_two_level if levels == 2 else h_cond_lambda
    for h0, spec in zip(family.h0, specs):
        assert h0.tobytes() == h_cond(spec).entries.tobytes()
    rng = np.random.default_rng(levels)
    drives = [{k: complex(*rng.choice(AMPLITUDE_PARTS, 2).tolist()) for k in keys} for _ in range(30)]
    dense = dense_drive_stack(family, drives)
    alone = [DrivenHamiltonian.of(spec, keys) for spec in specs]
    parts = np.concatenate([f.stack(drives) for f in alone])
    assert family.stack(drives).tobytes() == dense.tobytes() == parts.tobytes()
    for component in family.components:
        rows, cols = np.ix_(component.states, component.states)
        parts = np.concatenate([f.stack(drives, component.states) for f in alone])
        assert family.stack(drives, component.states).tobytes() == dense[:, rows, cols].tobytes()
        assert parts.tobytes() == dense[:, rows, cols].tobytes()
    with pytest.raises(ValueError, match="share one layout"):
        DrivenHamiltonian.of([specs[0], SystemSpec(atom_levels=levels, n_atoms=2, g=1.0, kappa=1.0, gamma=0.0, n_max=3)], keys)


def test_drive_constructors():
    pair = pair_drive(0.02 + 0.01j)
    assert list(pair) == [(1, "0-1"), (2, "0-1")]
    assert pair[(1, "0-1")] == -pair[(2, "0-1")]
    assert pair[(1, "0-1")] - pair[(2, "0-1")] == pytest.approx((0.02 + 0.01j) * SQRT2, abs=1e-15)
    assert cnot_drive(0.02) == {(1, "1-2"): SQRT2 * 0.02, (2, "0-2"): SQRT2 * 0.02}


def test_stack_rejects_a_drive_on_other_lasers():
    family = DrivenHamiltonian.of(SystemSpec(atom_levels=2, n_atoms=2), pair_drive(0.1))
    with pytest.raises(ValueError, match="drive keys"):
        family.stack([{(1, "0-1"): 0.1}])
    with pytest.raises(ValueError, match="transition"):
        DrivenHamiltonian.of(SystemSpec(atom_levels=2, n_atoms=2), cnot_drive(0.1))


def test_stacked_propagators_equal_evolve_no_jump(monkeypatch):
    spec = SystemSpec(atom_levels=3, n_atoms=2, g=1.0, kappa=1.0, gamma=0.001, n_max=2)
    drives = [cnot_drive(om) for om in DRIVES]
    times = [100.0, 0.0, 0.25, 2000.0]
    psi0 = basis_state(spec.layout(), (1, 0, 0))
    family = DrivenHamiltonian.of(spec, drives[0])
    expected = [evolve_no_jump(h_cond_lambda(spec, d), psi0, t).amplitudes for d, t in zip(drives, times)]
    exponentiated, expm = [], dynamics.expm
    monkeypatch.setattr(dynamics, "expm", lambda a: exponentiated.append(a.shape[0]) or expm(a))
    for budget in (2**23, 1, 2 * 16 * spec.layout().total_dim ** 2):
        monkeypatch.setattr(dynamics, "_EXPM_BYTES", budget)
        exponentiated.clear()
        got = no_jump_states(family, drives, times, [psi0.amplitudes])[:, 0]
        assert len(got) == len(drives)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()
        assert sum(exponentiated) == 4  # the zero-length point too: its 0 block gives the identity
    with pytest.raises(ValueError, match=r"evolution time must be >= 0, got -1\.0$"):
        no_jump_states(family, drives[:1], [-1.0], [psi0.amplitudes])


# ------------------------------------------- structure-aware propagation


def _family(levels, n_max, gamma, drive=None):
    spec = SystemSpec(atom_levels=levels, n_atoms=2, g=1.0, kappa=0.7, gamma=gamma, n_max=n_max)
    return DrivenHamiltonian.of(spec, drive or (pair_drive(0.1) if levels == 2 else cnot_drive(0.1)))


def _spy_expm(monkeypatch):
    """Record the dtype and shape of every stack ``dynamics`` exponentiates."""
    calls, expm = [], dynamics.expm
    monkeypatch.setattr(dynamics, "expm", lambda a: calls.append((a.dtype, a.shape)) or expm(a))
    return calls


def test_components_partition_the_basis_and_decouple_exactly():
    for levels in (2, 3):
        for n_max in (1, 2, 3):
            family = _family(levels, n_max, 0.1)
            d = family.layout.total_dim
            states = np.concatenate([c.states for c in family.components])
            assert sorted(states.tolist()) == list(range(d))
            label = np.empty(d, dtype=int)
            for n, c in enumerate(family.components):
                label[c.states] = n
                assert len(c.edges) == len(c.states) - 1
            drives = [pair_drive(om) if levels == 2 else cnot_drive(om) for om in (0.02, 0.3)]
            # every column of the propagator: one input per basis state
            finals = no_jump_states(family, drives, [150.0, 7.5], np.eye(d))
            between = label[:, None] != label[None, :]
            for propagator in finals:
                assert np.all(propagator[between] == 0)


@pytest.mark.parametrize("gamma", [0.0, 0.1])
@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("levels", [2, 3])
def test_real_drives_propagate_as_real_blocks(monkeypatch, levels, n_max, gamma):
    # with real Rabi frequencies every gauged block has imaginary part
    # exactly 0, so every block goes to expm as float64
    family = _family(levels, n_max, gamma)
    d = family.layout.total_dim
    drive_of = pair_drive if levels == 2 else cnot_drive
    calls = _spy_expm(monkeypatch)
    no_jump_states(family, [drive_of(om) for om in (0.005, -0.04, 0.3)], [600.0, 80.0, 3.0], np.eye(d))
    assert len(calls) == len(family.components)
    assert {dtype for dtype, _ in calls} == {np.dtype(np.float64)}


@pytest.mark.parametrize(
    "levels, drive, path",
    [
        (2, pair_drive(0.05), "float64"),
        (3, cnot_drive(0.05), "float64"),
        (2, pair_drive(1e-3j), "float64"),  # imaginary lasers: real entries, no turns
        (3, cnot_drive(1e-3j), "float64"),
        (2, pair_drive(-0.05 + 0.03j), "complex128"),  # no quarter turns gauge this phase away
        (3, {(1, "1-2"): 0.04, (2, "0-2"): 0.04 * cmath.exp(1j * math.pi / 3)}, "complex128"),
    ],
)
def test_no_jump_states_equal_the_full_complex_exponential(monkeypatch, levels, drive, path):
    family = _family(levels, 2, 0.01, drive)
    d = family.layout.total_dim
    calls = _spy_expm(monkeypatch)
    times = [40.0, 0.3, 900.0]
    finals = no_jump_states(family, [drive] * len(times), times, np.eye(d))
    for h, t, propagator in zip(family.stack([drive] * len(times)), times, finals):
        want = scipy_expm(-1j * h * t).T  # row m: the final state of input m
        assert np.linalg.norm(propagator - want) <= 1e-12 * np.linalg.norm(want)
    dtypes = {dtype for dtype, _ in calls}
    # a component no unequal phase reaches may still gauge to real
    assert dtypes == {np.dtype(path)} if path == "float64" else np.dtype(path) in dtypes


def test_zero_time_rows_are_the_inputs():
    family = _family(3, 2, 0.01)
    d = family.layout.total_dim
    rng = np.random.default_rng(5)
    inputs = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
    finals = no_jump_states(family, [cnot_drive(0.02)] * 3, [0.0, 50.0, 0.0], inputs)
    assert finals[0].tobytes() == finals[2].tobytes() == inputs.tobytes()


def test_time_0_fails_as_any_time_where_the_input_reaches_a_non_finite_entry():
    # a hand-built H is not checked: at t = 0 it is exponentiated as at any
    # t, so a non-finite entry the input reaches fails there too, while one
    # in a component the input does not touch is never exponentiated
    layout = compose([("q", 2), ("cav", 2)])
    psi0 = basis_state(layout, (0, 0))
    reached, apart = np.zeros((2, 4, 4), dtype=complex)
    reached[0, 1] = reached[1, 0] = apart[0, 1] = apart[1, 0] = 0.5
    reached[1, 1] = apart[3, 3] = complex(0.0, -math.inf)
    for t in (0.0, 1.0):
        with pytest.raises(NumericalError, match=rf"^exp\(-i H t\) \|psi0> not finite at t = {t:.9g}$"):
            evolve_no_jump(OperatorMatrix(layout, reached), psi0, t)
    assert evolve_no_jump(OperatorMatrix(layout, apart), psi0, 0.0).amplitudes.tobytes() == psi0.amplitudes.tobytes()


def test_every_point_drive_is_checked_time_0_included():
    # a time-0 point is exponentiated like any other, with its drive times 0:
    # a bad drive there is refused by name, as stack refuses any drive
    family = _family(3, 2, 0.01)
    psi0 = basis_state(family.layout, (1, 0, 0)).amplitudes
    with pytest.raises(ValueError, match="drive keys"):
        no_jump_states(family, [cnot_drive(0.02), {(1, "1-2"): 0.02}], [1.0, 0.0], [psi0])
    with pytest.raises(ValueError, match=r"rabi entry for atom 1, '1-2' must be finite, got \(nan\+0j\)$"):
        no_jump_states(family, [cnot_drive(0.02), cnot_drive(math.nan)], [1.0, 0.0], [psi0])
    # with no input support no component is exponentiated, and no drive escapes the check
    with pytest.raises(ValueError, match=r"rabi entry for atom 2, '0-2' must be finite, got \(inf\+0j\)$"):
        no_jump_states(family, [{(1, "1-2"): 0.02, (2, "0-2"): math.inf}], [1.0], [np.zeros_like(psi0)])


def test_a_non_finite_drive_is_refused_before_any_exponential(monkeypatch):
    # chunks of two 12-state points: the inf omega of the last point is
    # refused before the chunks ahead of it are exponentiated
    calls = _spy_expm(monkeypatch)
    monkeypatch.setattr(dynamics, "_EXPM_BYTES", 2 * 16 * 12**2)
    points = [(0.02, 10.0 * k) for k in range(1, 6)] + [(math.inf, 10.0)]
    with pytest.raises(ValueError, match=r"^rabi entry for atom 1, '0-1' must be finite, got \(inf\+0j\)$"):
        gates.prepare_pair_sweep(pair_spec(0.01), points)
    assert calls == []


@pytest.mark.parametrize(
    "times, named", [([1, -2, -1], "-2"), ([0, -1, -2], "-1"), ([1, math.nan], "nan")], ids=["negative", "first", "nan"]
)
def test_the_kernel_refuses_the_first_time_that_is_not_at_least_0(times, named):
    spec, drive = lambda_spec(0.01), cnot_drive(0.02)
    psi0 = basis_state(spec.layout(), (1, 0, 0))
    refused = rf"^evolution time must be >= 0, got {named}$"
    with pytest.raises(ValueError, match=refused):
        no_jump_states(DrivenHamiltonian.of(spec, drive), [drive] * len(times), times, [psi0.amplitudes])
    with pytest.raises(ValueError, match=refused):
        no_photon_probabilities(h_cond(spec, drive), psi0, times)


def test_cnot_record_does_not_depend_on_the_other_inputs():
    spec = lambda_spec(0.01, n_max=3)
    labels = ["00", "01", "10", "11"]
    superposition = state_from_amplitudes(spec.layout(), {(0, 0, 0): 0.6, (1, 0, 0): 0.8j})
    omegas = [0.005, 0.02, 0.3]
    family, drives = DrivenHamiltonian.of(spec, cnot_drive(1.0)), [cnot_drive(om) for om in omegas]
    times = [gates.cnot_duration(om) for om in omegas]
    amplitudes = [gates.qubit_state(spec, label).amplitudes for label in labels] + [superposition.amplitudes]
    together = cnot_pulse_sweep(spec, omegas, labels + [superposition])
    finals = no_jump_states(family, drives, times, amplitudes)
    for m, given in enumerate(labels + [superposition]):
        for others in ([], labels[::-1]):
            alone = cnot_pulse_sweep(spec, omegas, others + [given])
            for column in ("p0", "fidelity"):
                assert getattr(together, column)[:, m].tobytes() == getattr(alone, column)[:, -1].tobytes()
            inputs = [gates.qubit_state(spec, label).amplitudes for label in others] + [amplitudes[m]]
            assert finals[:, m].tobytes() == no_jump_states(family, drives, times, inputs)[:, -1].tobytes()


def test_driven_family_takes_h0_from_the_undriven_conditional_hamiltonian(monkeypatch):
    spec = SystemSpec(atom_levels=3, n_atoms=2, g=0.8, kappa=0.6, gamma=0.01, n_max=2)
    calls = []
    original = dynamics.h_cond_lambda
    monkeypatch.setattr(dynamics, "h_cond_lambda", lambda s: calls.append(s) or original(s))
    family = DrivenHamiltonian.of(spec, cnot_drive(0.1))
    assert len(calls) == 1 and calls[0] is spec
    assert np.array_equal(family.h0, original(spec).entries[None])
    assert family.keys == tuple(cnot_drive(0.1))


def test_check_final_states_names_the_first_unsound_point():
    good = basis_state(SystemSpec(atom_levels=2, n_atoms=2).layout(), (0, 0, 0)).amplitudes
    names = []

    def point(j):
        names.append(j)
        return f"point {j}"

    dynamics.check_final_states(np.array([good, 0.5 * good]), point)
    assert names == []  # points are named only on failure
    cases = [
        (np.array([good, np.full_like(good, np.nan), 0 * good]), "amplitudes not finite at point 1"),
        (np.array([good, 0 * good, np.full_like(good, np.inf)]), "p0 = 0 at point 1"),
        (np.array([good, good, 1.001 * good]), "p0 = 1.00[0-9]* > 1 at point 2"),
        (np.array([good, 1e200 * good]), "p0 = inf > 1 at point 1"),
    ]
    for rows, message in cases:
        with pytest.raises(dynamics.NumericalError, match=message):
            dynamics.check_final_states(rows, point)


# The records that only hold fields (and derive values from them): each is a
# NamedTuple, so a caller can unpack it in this field order.
RECORDS = {
    bell.AnalyzerSettings: ("theta1", "theta1p", "theta2", "theta2p"),
    bell.BellResult: ("correlations", "b_s", "violated"),
    bell.MerminResult: ("value", "classical_bound", "quantum_bound", "n_qubits"),
    dfs.SubspaceBasis: ("layout", "vectors", "projector"),
    dfs.EffectiveHamiltonian: ("operator", "in_basis", "basis"),
    dynamics.RegimeReport: ("ratios", "in_regime"),
    dynamics.DrivenHamiltonian: ("layout", "keys", "h0", "raising"),
    gates.RunRecord: ("final_state", "p0", "fidelity", "alpha", "duration", "regime"),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_plain_records_are_named_tuples(record):
    assert issubclass(record, tuple)
    assert record._fields == RECORDS[record]
