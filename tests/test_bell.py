import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from zenobell.bell import (
    SHOTS_CAP,
    AnalyzerSettings,
    CLASSICAL_BOUND,
    TSIRELSON_BOUND,
    _correlations,
    _odd_parity_probability,
    _outcome_probabilities,
    _pair_matrices,
    _sampled_landscape,
    bs_landscape,
    bs_value,
    correlation,
    landscape_state,
    mermin_n,
    sample_correlation,
)
from zenobell.dynamics import SystemSpec
from zenobell.hilbert import StateVector, basis_state, check_normalized, embed
from zenobell.states import antisymmetric_pair, entangled_pair_state, ghz_state, qubit_layout

from oracles import (
    SIGMA_X,
    SIGMA_Y,
    lhv_spin_bell_max,
    mermin_operator,
    pair_correlation_vdot,
    pauli_string_expectation,
    per_shot_odd_count,
    sigma_theta,
)


# ---------------------------------------------------------------- sigma_theta


def test_sigma_theta_axes():
    assert np.allclose(sigma_theta(0.0), SIGMA_X)
    assert np.allclose(sigma_theta(math.pi / 2), SIGMA_Y)


def test_sigma_theta_squares_to_identity():
    rng = np.random.default_rng(10)
    for _ in range(50):
        s = sigma_theta(rng.uniform(0, 2 * math.pi))
        assert np.max(np.abs(s @ s - np.eye(2))) <= 1e-14
        assert np.max(np.abs(s - s.conj().T)) <= 1e-15
        assert sorted(np.linalg.eigvalsh(s)) == pytest.approx([-1.0, 1.0])


# ---------------------------------------------------------------- correlation


def test_correlation_antisymmetric_state():
    psi = antisymmetric_pair()
    rng = np.random.default_rng(2)
    for _ in range(20):
        t1, t2 = rng.uniform(0, 2 * math.pi, size=2)
        assert correlation(psi, 0, 1, t1, t2) == pytest.approx(-math.cos(t1 - t2), abs=1e-12)


def test_correlation_pulse_family_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(20):
        alpha = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        psi = entangled_pair_state(alpha)
        t1, t2 = rng.uniform(0, 2 * math.pi, size=2)
        expected = -abs(alpha) ** 2 * math.cos(t1 - t2)
        assert correlation(psi, 0, 1, t1, t2) == pytest.approx(expected, abs=1e-12)


def test_correlation_product_state_vanishes():
    psi = basis_state(qubit_layout(2), (0, 0))
    for t1, t2 in ((0.0, 0.0), (0.3, 1.2), (2.0, -0.4)):
        assert correlation(psi, 0, 1, t1, t2) == pytest.approx(0.0, abs=1e-14)


def test_correlation_bounded_and_validated():
    rng = np.random.default_rng(4)
    layout = qubit_layout(2)
    for _ in range(50):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = StateVector(layout, amps / np.linalg.norm(amps))
        val = correlation(psi, 0, 1, rng.uniform(0, 7), rng.uniform(0, 7))
        assert abs(val) <= 1.0 + 1e-12
    with pytest.raises(IndexError):
        correlation(antisymmetric_pair(), 0, 5, 0.0, 0.0)
    with pytest.raises(ValueError):
        correlation(antisymmetric_pair(), 1, 1, 0.0, 0.0)


# ------------------------------------------------------------------- bs_value


def test_bs_value_singlet_maximum():
    result = bs_value(antisymmetric_pair(), AnalyzerSettings.from_single_angle(math.pi / 4))
    assert abs(result.b_s) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)
    assert result.violated


def test_bs_value_product_state():
    result = bs_value(basis_state(qubit_layout(2), (0, 0)), AnalyzerSettings(0.1, 0.7, 1.3, 2.9))
    assert result.b_s == pytest.approx(0.0, abs=1e-13)
    assert not result.violated


def test_bs_value_violation_boundary():
    alpha = (1.0 / math.sqrt(2.0)) ** 0.5  # |alpha|^2 = 1/sqrt(2)
    result = bs_value(entangled_pair_state(alpha), AnalyzerSettings.from_single_angle(math.pi / 4))
    assert abs(result.b_s) == pytest.approx(2.0, abs=1e-9)


def test_bs_value_scores_a_state_the_norm_check_accepts_above_the_bound():
    # norm 1 + 9e-10 passes check_normalized; its maximum, 2 sqrt(2) times
    # the squared norm, lies above the Tsirelson bound and is returned as is
    singlet = antisymmetric_pair()
    psi = StateVector(singlet.layout, singlet.amplitudes * (1 + 0.9e-9))
    check_normalized(psi.amplitudes)
    result = bs_value(psi, AnalyzerSettings.from_single_angle(math.pi / 4))
    assert abs(result.b_s) > TSIRELSON_BOUND + 1e-9
    assert abs(result.b_s) == pytest.approx(TSIRELSON_BOUND * (1 + 0.9e-9) ** 2, abs=1e-12)
    assert result.violated


def test_bs_value_has_four_correlations():
    result = bs_value(antisymmetric_pair(), AnalyzerSettings.from_single_angle(0.4))
    assert len(result.correlations) == 4
    for value in result.correlations.values():
        assert abs(value) <= 1.0 + 1e-12


def test_tsirelson_bound_random_states():
    rng = np.random.default_rng(12)
    layout = qubit_layout(2)
    for _ in range(200):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = StateVector(layout, amps / np.linalg.norm(amps))
        settings = AnalyzerSettings(*rng.uniform(0, 2 * math.pi, size=4))
        assert abs(bs_value(psi, settings).b_s) <= TSIRELSON_BOUND + 1e-9


def test_classical_deterministic_strategies_respect_bound():
    assert lhv_spin_bell_max() == 2.0


# ------------------------------------------------- bs_value on the angle chain


def _chain_score(state, vartheta):
    return abs(bs_value(state, AnalyzerSettings.from_single_angle(vartheta)).b_s)


def test_bs_value_angle_chain_values():
    psi = antisymmetric_pair()
    assert _chain_score(psi, math.pi / 4) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)
    for alpha in (0.3, 0.8):
        state = entangled_pair_state(alpha)
        assert _chain_score(state, 0.0) == pytest.approx(2 * alpha**2, abs=1e-12)
        assert _chain_score(state, math.pi / 2) == pytest.approx(0.0, abs=1e-12)


def test_pulse_family_correlation_depends_only_on_difference():
    rng = np.random.default_rng(21)
    for alpha in (0.3, 0.9):
        psi = entangled_pair_state(alpha)
        for _ in range(10):
            t1, t2 = rng.uniform(0, 2 * math.pi, size=2)
            assert correlation(psi, 0, 1, t1, t2) == pytest.approx(
                correlation(psi, 0, 1, t1 - t2, 0.0), abs=1e-10
            )


# --------------------------------------------------------------- bs_landscape


def test_landscape_known_points():
    landscape = bs_landscape([math.pi], [math.pi / 4])
    assert landscape.b_s[0] == pytest.approx(TSIRELSON_BOUND, abs=1e-12)
    assert landscape.violated[0]
    landscape = bs_landscape([0.0], [0.3, 1.0])
    assert landscape.b_s == pytest.approx([0.0, 0.0], abs=1e-14)
    assert not landscape.violated.any()


def test_landscape_grid_maximum():
    grid_t = [k * 2 * math.pi / 100 for k in range(101)]
    grid_v = [k * math.pi / 100 for k in range(101)]
    landscape = bs_landscape(grid_t, grid_v)
    assert all(column.shape == (101 * 101,) for column in landscape)
    best = int(np.argmax(landscape.b_s))
    first_max = int(np.flatnonzero(landscape.b_s >= landscape.b_s[best] - 1e-12)[0])
    assert landscape.b_s[best] == pytest.approx(TSIRELSON_BOUND, abs=1e-9)
    assert landscape.omega_T[first_max] == pytest.approx(math.pi, abs=1e-12)
    assert landscape.vartheta[first_max] == pytest.approx(math.pi / 4, abs=1e-12)
    assert landscape.violated[best]


def test_landscape_cross_checked_against_state_route():
    rng = np.random.default_rng(8)
    for _ in range(10):
        om_t = rng.uniform(0, 2 * math.pi)
        v = rng.uniform(0, math.pi)
        (b,) = bs_landscape([om_t], [v]).b_s
        assert b == pytest.approx(_chain_score(landscape_state(om_t), v), abs=1e-10)


def test_landscape_matches_scalar_formula_bitwise():
    # the outer product takes the same IEEE operations as the scalar
    # formula, for grids of Python floats, ints and numpy scalars alike;
    # the columns run in row order, vartheta varying fastest
    rng = np.random.default_rng(15)
    grid_t = [*rng.uniform(-10.0, 10.0, 7).tolist(), 0, 3, np.float64(2.5), -1]
    grid_v = [*rng.uniform(-4.0, 4.0, 9).tolist(), 0, 1, np.float64(0.75), -2]
    landscape = bs_landscape(grid_t, grid_v)
    expected = []
    for om_t in grid_t:
        alpha_sq = math.sin(float(om_t) / 2.0) ** 2
        for v in grid_v:
            b = abs(3.0 * (-alpha_sq * math.cos(v)) - (-alpha_sq * math.cos(3.0 * v)))
            expected.append((float(om_t), float(v), b, b > 2.0))
    assert list(zip(*(column.tolist() for column in landscape))) == expected
    assert [column.dtype for column in landscape] == [np.float64, np.float64, np.float64, np.bool_]


def test_landscape_rejects_empty_grid():
    with pytest.raises(ValueError):
        bs_landscape([], [0.1])


# --------------------------------------------------------------------- mermin


def test_mermin_ghz_and_zeros():
    assert mermin_n(ghz_state(3)).value == pytest.approx(4.0, abs=1e-12)
    assert mermin_n(basis_state(qubit_layout(3), (0, 0, 0))).value == pytest.approx(0.0, abs=1e-14)


def test_mermin_moments_against_bit_oracle():
    psi = ghz_state(3, phase=math.pi / 2)  # (|000> + i |111>)/sqrt(2)
    total = (
        pauli_string_expectation(psi.amplitudes, "XXX")
        - pauli_string_expectation(psi.amplitudes, "YYX")
        - pauli_string_expectation(psi.amplitudes, "YXY")
        - pauli_string_expectation(psi.amplitudes, "XYY")
    )
    assert mermin_n(psi).value == pytest.approx(abs(total), abs=1e-12)
    # generic state too
    rng = np.random.default_rng(13)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = StateVector(qubit_layout(3), amps / np.linalg.norm(amps))
    total = (
        pauli_string_expectation(psi.amplitudes, "XXX")
        - pauli_string_expectation(psi.amplitudes, "YYX")
        - pauli_string_expectation(psi.amplitudes, "YXY")
        - pauli_string_expectation(psi.amplitudes, "XYY")
    )
    assert mermin_n(psi).value == pytest.approx(abs(total), abs=1e-12)


def test_mermin_value_needs_three_qubits():
    with pytest.raises(ValueError):
        mermin_n(antisymmetric_pair()).value


def test_mermin_operator_n3_equals_three_qubit_combination():
    expected = np.zeros((8, 8), dtype=complex)
    for letters, sign in (("XXX", 1), ("YYX", -1), ("YXY", -1), ("XYY", -1)):
        term = np.ones((1, 1), dtype=complex)
        for ch in letters:
            term = np.kron(term, SIGMA_X if ch == "X" else SIGMA_Y)
        expected += sign * term
    assert np.max(np.abs(mermin_operator(3) - expected)) <= 1e-14


def test_mermin_n_consistency_and_bounds():
    res3 = mermin_n(ghz_state(3))
    assert res3.value == pytest.approx(mermin_n(ghz_state(3)).value, abs=1e-12)
    assert res3.classical_bound == 2.0
    assert res3.quantum_bound == pytest.approx(4.0)
    assert mermin_n(basis_state(qubit_layout(3), (0, 0, 0))).value == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        mermin_n(antisymmetric_pair())


def test_mermin_n4_quantum_maximum():
    # largest eigenvalue of the implemented operator is the quantum bound,
    # attained by a GHZ state carrying a pi/4 relative phase
    op = mermin_operator(4)
    top = float(np.linalg.eigvalsh(op)[-1])
    res = mermin_n(ghz_state(4, phase=math.pi / 4))
    assert top == pytest.approx(res.quantum_bound, abs=1e-9)
    assert res.value == pytest.approx(top, abs=1e-9)
    # the plain GHZ state sits below the maximum for even N
    assert mermin_n(ghz_state(4)).value == pytest.approx(4.0, abs=1e-12)


# --------------------------------------------------------- sample_correlation


def test_sample_correlation_perfect_anticorrelation():
    est, err = sample_correlation(antisymmetric_pair(), 0, 1, 0.7, 0.7, shots=10_000, seed=3)
    assert est == -1.0
    assert err == 0.0


def test_sample_correlation_unbiased_within_four_sigma():
    psi = antisymmetric_pair()
    est, err = sample_correlation(psi, 0, 1, math.pi / 3, 0.0, shots=100_000, seed=17)
    exact = -math.cos(math.pi / 3)
    assert err > 0
    assert abs(est - exact) <= 4 * err


def test_sample_correlation_single_shot():
    est, err = sample_correlation(antisymmetric_pair(), 0, 1, 1.0, 0.2, shots=1, seed=0)
    assert est in (-1.0, 1.0)
    assert err == 0.0


def test_sample_correlation_readout_error_scales_estimate():
    psi = antisymmetric_pair()
    eps = 0.25
    est, err = sample_correlation(psi, 0, 1, 0.5, 0.5, shots=200_000, seed=23, readout_error=eps)
    expected = (1 - 2 * eps) ** 2 * -1.0
    assert abs(est - expected) <= 4 * max(err, 1e-12)
    with pytest.raises(ValueError):
        sample_correlation(psi, 0, 1, 0.0, 0.0, shots=10, seed=1, readout_error=0.5)


def test_sample_correlation_deterministic():
    psi = entangled_pair_state(0.8)
    a = sample_correlation(psi, 0, 1, 0.3, 1.1, shots=5000, seed=99)
    b = sample_correlation(psi, 0, 1, 0.3, 1.1, shots=5000, seed=99)
    assert a == b
    c = sample_correlation(psi, 0, 1, 0.3, 1.1, shots=5000, seed=100)
    assert a != c


def test_sample_correlation_convergence_over_many_seeds():
    psi = entangled_pair_state(1.0)
    exact = -math.cos(math.pi / 3)
    failures = 0
    for seed in range(200):
        est, err = sample_correlation(psi, 0, 1, math.pi / 3, 0.0, shots=10_000, seed=seed)
        if abs(est - exact) > 5 * err:
            failures += 1
    assert failures <= 2  # 99% of runs inside five standard errors


def test_binomial_odd_count_has_the_per_shot_mean_and_variance():
    # the one binomial draw against the shot-by-shot reference it replaces
    psi, angles, shots, eps = entangled_pair_state(0.8), (0.3, 1.1), 400, 0.1
    probs = _outcome_probabilities(_pair_matrices(psi, 0, 1), *angles)
    p = probs[1] + probs[2]
    q = 2 * eps * (1 - eps)
    p_odd = p * (1 - q) + (1 - p) * q
    mean, var = shots * p_odd, shots * p_odd * (1 - p_odd)
    seeds = range(2000)
    binomial = np.array(
        [round(shots * (1 - sample_correlation(psi, 0, 1, *angles, shots, s, eps)[0]) / 2) for s in seeds]
    )
    per_shot = np.array([per_shot_odd_count(probs, shots, s, eps) for s in seeds])
    se_mean = math.sqrt(var / len(seeds))
    se_var = var * math.sqrt(2.0 / (len(seeds) - 1))
    for counts in (binomial, per_shot):
        assert abs(counts.mean() - mean) <= 5 * se_mean
        assert abs(counts.var(ddof=1) - var) <= 5 * se_var
    assert abs(binomial.mean() - per_shot.mean()) <= 5 * math.sqrt(2) * se_mean


@pytest.mark.parametrize("shots", [1, 7, 10_000, SHOTS_CAP])
def test_sample_correlation_exact_when_the_parity_is_certain(shots):
    s2 = math.sqrt(2.0)
    layout = qubit_layout(2)
    cases = (
        (StateVector(layout, np.array([0, 1, -1, 0]) / s2), 0.7, 0.7, -1.0),  # p = 1
        (StateVector(layout, np.array([0, 1, 1, 0]) / s2), 0.7, 0.7, 1.0),  # p = 0
        (StateVector(layout, np.array([1, 0, 0, 1]) / s2), 0.0, math.pi, -1.0),
        (StateVector(layout, np.array([1, 0, 0, 1]) / s2), 0.4, -0.4, 1.0),
    )
    for psi, t_i, t_j, exact in cases:
        for seed in range(5):
            assert sample_correlation(psi, 0, 1, t_i, t_j, shots, seed) == (exact, 0.0)


def test_sample_correlation_allocates_nothing_per_shot():
    psi = landscape_state(2.0)
    sample_correlation(psi, 0, 1, 0.4, 0.0, SHOTS_CAP, 1, 0.02)  # first-call setup outside the trace
    tracemalloc.start()
    try:
        sample_correlation(psi, 0, 1, 0.4, 0.0, SHOTS_CAP, 2, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sample_correlation_takes_draws_in_turn_from_one_generator():
    psi = landscape_state(2.0)
    stream = np.random.default_rng(np.random.SeedSequence(8, spawn_key=(3,)))
    first = sample_correlation(psi, 0, 1, 0.4, 0.0, 1000, stream)
    second = sample_correlation(psi, 0, 1, 0.4, 0.0, 1000, stream)
    again = np.random.default_rng(np.random.SeedSequence(8, spawn_key=(3,)))
    assert sample_correlation(psi, 0, 1, 0.4, 0.0, 1000, again) == first
    assert sample_correlation(psi, 0, 1, 0.4, 0.0, 1000, again) == second
    assert first != second


# ------------------------------------------------------------------- goldens
# The sampled estimates are compared exactly: the same seed must give the
# same random stream and the same odd-parity count.  The Mermin values may
# move in the last ulp, but not in the 9 significant digits the CLI writes
# to its CSV.

_SAMPLED_CASES = (
    (entangled_pair_state(0.8), 0, 1, 0.3, 1.1, 5000, 99, 0.0),
    (landscape_state(2.0), 1, 0, math.pi / 3, 0.25, 20000, 17, 0.02),
    (ghz_state(3, 0.7), 2, 0, 0.9, -0.4, 3001, 5, 0.1),
)


def test_sample_correlation_golden_estimates():
    # recorded with the binomial draw of the odd-parity count
    goldens = (
        (-0.4428, 0.012681395647132528),
        (-0.4569, 0.006289999817558443),
        (0.01299566811062979, 0.018255876794522532),
    )
    for args, (estimate, stderr) in zip(_SAMPLED_CASES, goldens):
        est, err = sample_correlation(*args)
        assert est == estimate
        assert err == pytest.approx(stderr, rel=1e-14)


def test_per_shot_reference_reproduces_the_per_shot_goldens():
    # the estimates the package's per-shot sampler gave on these cases
    goldens = (-0.4384, -0.4582, -0.032989003665444855)
    for (psi, i, j, t_i, t_j, shots, seed, eps), estimate in zip(_SAMPLED_CASES, goldens):
        n_odd = per_shot_odd_count(_outcome_probabilities(_pair_matrices(psi, i, j), t_i, t_j), shots, seed, eps)
        assert (shots - 2 * n_odd) / shots == estimate


def test_mermin_n_golden_ghz_values():
    golden = {
        3: 3.999999999999999,
        4: 3.999999999999999,
        5: 0.0,
        6: 7.999999999999998,
        7: 15.999999999999996,
        8: 15.999999999999996,
        9: 0.0,
        10: 31.999999999999993,
        11: 63.999999999999986,
        12: 63.999999999999986,
    }
    for n, value in golden.items():
        got = mermin_n(ghz_state(n)).value
        assert got == pytest.approx(value, abs=1e-12)
        assert f"{got:.9g}" == f"{value:.9g}"


# ------------------------------------------------- dense oracles and properties


def _random_state(layout, rng):
    amps = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    return StateVector(layout, amps / np.linalg.norm(amps))


def test_mermin_n_matches_dense_operator():
    rng = np.random.default_rng(31)
    for n in range(3, 9):
        op = mermin_operator(n)
        corner = 4 * (1 - 1j) ** (n - 3)
        assert op[0, -1] == corner
        assert op[-1, 0] == np.conj(corner)
        rest = op.copy()
        rest[0, -1] = rest[-1, 0] = 0.0
        assert not rest.any()
        for _ in range(5):
            psi = _random_state(qubit_layout(n), rng)
            dense = abs(np.vdot(psi.amplitudes, op @ psi.amplitudes))
            assert abs(mermin_n(psi).value - dense) <= 1e-12


def _dense_probabilities(psi, i, j, theta_i, theta_j):
    layout = psi.layout
    projectors = []
    for index, theta in ((i, theta_i), (j, theta_j)):
        plus = np.array([1.0, np.exp(1j * theta)]) / math.sqrt(2.0)
        p_plus = np.outer(plus, plus.conj())
        label = layout.factors[index][0]
        projectors.append([embed(p, label, layout).entries for p in (p_plus, np.eye(2) - p_plus)])
    return np.array(
        [
            np.linalg.norm(projectors[0][si] @ (projectors[1][sj] @ psi.amplitudes)) ** 2
            for si in (0, 1)
            for sj in (0, 1)
        ]
    )


@pytest.mark.parametrize(
    "layout, i, j",
    [
        (SystemSpec(atom_levels=2, n_max=2).layout(), 0, 1),  # qubits next to a cavity factor
        (SystemSpec(atom_levels=2, n_max=2).layout(), 1, 0),
        (qubit_layout(2), 1, 0),
        (qubit_layout(3), 0, 2),
        (qubit_layout(3), 2, 0),
    ],
)
def test_local_operators_match_dense_embed(layout, i, j):
    rng = np.random.default_rng(32)
    for _ in range(10):
        psi = _random_state(layout, rng)
        t_i, t_j = rng.uniform(0, 2 * math.pi, size=2)
        op_i = embed(sigma_theta(t_i), layout.factors[i][0], layout).entries
        op_j = embed(sigma_theta(t_j), layout.factors[j][0], layout).entries
        dense = np.vdot(psi.amplitudes, op_i @ (op_j @ psi.amplitudes)).real
        assert abs(correlation(psi, i, j, t_i, t_j) - dense) <= 1e-12
        probs = _outcome_probabilities(_pair_matrices(psi, i, j), t_i, t_j)
        assert np.max(np.abs(probs - _dense_probabilities(psi, i, j, t_i, t_j))) <= 1e-12
        # the exact correlation is the error-free, infinite-shot sampled estimate
        assert abs(correlation(psi, i, j, t_i, t_j) - (1.0 - 2.0 * _odd_parity_probability(probs, 0.0))) <= 1e-12


def test_stacked_kernel_matches_pauli_string_oracle():
    # sigma_a (x) sigma_b with sigma = cos X + sin Y expands into the four
    # Pauli strings XX, XY, YX, YY
    rng = np.random.default_rng(41)
    n, k = 25, 6
    amps = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    t_i, t_j = rng.uniform(-7.0, 7.0, size=(2, n, k))
    got = _correlations(amps.reshape(n, 1, 2, 2), t_i, t_j)
    shared = _correlations(amps.reshape(n, 1, 2, 2), t_i[0], t_j[0])  # one set of settings for every state
    assert got.shape == shared.shape == (n, k)
    for s in range(n):
        xx, xy, yx, yy = (pauli_string_expectation(amps[s], p) for p in ("XX", "XY", "YX", "YY"))
        for settings_of, values in ((s, got[s]), (0, shared[s])):
            for c in range(k):
                ci, si = math.cos(t_i[settings_of, c]), math.sin(t_i[settings_of, c])
                cj, sj = math.cos(t_j[settings_of, c]), math.sin(t_j[settings_of, c])
                expected = ci * cj * xx + ci * sj * xy + si * cj * yx + si * sj * yy
                assert abs(values[c] - expected) <= 1e-12


@pytest.mark.parametrize(
    "layout, i, j",
    [
        (qubit_layout(3), 0, 2),
        (qubit_layout(3), 1, 0),
        (SystemSpec(atom_levels=2, n_max=2).layout(), 0, 1),  # the pair next to a cavity factor
        (SystemSpec(atom_levels=2, n_max=2).layout(), 1, 0),
    ],
)
def test_stacked_kernel_with_other_factors_matches_dense_projectors(layout, i, j):
    # each state is r > 1 pair matrices, one per basis state of the other
    # factors, and its outcome probabilities sum over them
    rng = np.random.default_rng(43)
    n, k = 6, 5
    states = [_random_state(layout, rng) for _ in range(n)]
    m = np.stack([_pair_matrices(psi, i, j) for psi in states])
    assert m.shape == (n, layout.total_dim // 4, 2, 2) and m.shape[1] > 1
    t_i, t_j = rng.uniform(-7.0, 7.0, size=(2, n, k))
    per_state = _outcome_probabilities(m[:, None], t_i, t_j)
    shared = _outcome_probabilities(m[:, None], t_i[0], t_j[0])  # one set of settings for every state
    assert per_state.shape == shared.shape == (n, k, 4)
    for s, psi in enumerate(states):
        for settings_of, probs in ((s, per_state[s]), (0, shared[s])):
            for c in range(k):
                dense = _dense_probabilities(psi, i, j, t_i[settings_of, c], t_j[settings_of, c])
                assert np.max(np.abs(probs[c] - dense)) <= 1e-12


@pytest.mark.parametrize(
    "layout, i, j",
    [
        (qubit_layout(2), 0, 1),
        (qubit_layout(2), 1, 0),
        (qubit_layout(3), 2, 0),
        (SystemSpec(atom_levels=2, n_max=2).layout(), 0, 1),
    ],
)
def test_correlation_and_bs_value_match_the_one_state_formula(layout, i, j):
    rng = np.random.default_rng(42)
    for _ in range(20):
        psi = _random_state(layout, rng)
        t1, t1p, t2, t2p = rng.uniform(0.0, 2.0 * math.pi, size=4)

        def reference(a, b):
            return pair_correlation_vdot(psi.amplitudes, layout.dims, i, j, a, b)

        assert abs(correlation(psi, i, j, t1, t2) - reference(t1, t2)) <= 1e-15
        terms = {
            ("theta1", "theta2"): reference(t1, t2),
            ("theta1", "theta2p"): reference(t1, t2p),
            ("theta1p", "theta2"): reference(t1p, t2),
            ("theta1p", "theta2p"): reference(t1p, t2p),
        }
        result = bs_value(psi, AnalyzerSettings(t1, t1p, t2, t2p), i, j)
        assert list(result.correlations) == list(terms)
        for key, value in terms.items():
            assert abs(result.correlations[key] - value) <= 1e-15
        expected = (
            terms[("theta1", "theta2")]
            - terms[("theta1", "theta2p")]
            + terms[("theta1p", "theta2")]
            + terms[("theta1p", "theta2p")]
        )
        assert abs(result.b_s - expected) <= 1e-15


def test_local_operators_reject_non_qubit_factor():
    layout = SystemSpec(atom_levels=2, n_max=2).layout()
    psi = _random_state(layout, np.random.default_rng(33))
    with pytest.raises(ValueError):
        correlation(psi, 0, 2, 0.0, 0.0)
    with pytest.raises(ValueError):
        sample_correlation(psi, 2, 1, 0.0, 0.0, shots=10, seed=1)


def _complex_amplitudes(dim):
    parts = arrays(np.float64, 2 * dim, elements=st.floats(-1.0, 1.0))
    return parts.map(lambda x: x[:dim] + 1j * x[dim:]).filter(lambda a: np.linalg.norm(a) > 1e-3)


_angle = st.floats(0.0, 2 * math.pi)


@settings(max_examples=200, deadline=None)
@given(_complex_amplitudes(4), _angle, _angle, _angle, _angle)
def test_bs_value_within_tsirelson_bound(amps, t1, t1p, t2, t2p):
    psi = StateVector(qubit_layout(2), amps / np.linalg.norm(amps))
    assert abs(bs_value(psi, AnalyzerSettings(t1, t1p, t2, t2p)).b_s) <= TSIRELSON_BOUND + 1e-9


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.data_too_large])
@given(st.integers(3, 8).flatmap(lambda n: _complex_amplitudes(2**n)))
def test_mermin_n_within_quantum_bound(amps):
    n = int(math.log2(amps.size))
    psi = StateVector(qubit_layout(n), amps / np.linalg.norm(amps))
    assert mermin_n(psi).value <= 2.0 ** ((n + 1) / 2.0) + 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: _complex_amplitudes(2**n)), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
def test_outcome_probabilities_are_a_distribution(amps, t_i, t_j):
    n = int(math.log2(amps.size))
    psi = StateVector(qubit_layout(n), amps / np.linalg.norm(amps))
    probs = _outcome_probabilities(_pair_matrices(psi, 0, n - 1), t_i, t_j)
    assert np.all(probs >= 0.0)
    assert abs(probs.sum() - 1.0) <= 1e-14


_EDGE_STATES = tuple(
    np.array(a, dtype=complex) / np.linalg.norm(a)
    for a in ([0, 1, -1, 0], [0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [1, 1j, 0, 0])
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_complex_amplitudes(4).map(lambda a: a / np.linalg.norm(a)), st.sampled_from(_EDGE_STATES)),
    st.floats(-5e-10, 5e-10),
    _angle,
    st.one_of(_angle, st.just(None)),
    st.floats(0.0, 0.5, exclude_max=True),
    st.integers(1, SHOTS_CAP),
    st.integers(0, 2**64),
)
def test_sample_correlation_never_raises_on_valid_input(amps, norm_error, t_i, t_j, eps, shots, seed):
    # p = 1 and p = 0 states at equal angles put p' at the ends of [0, 1],
    # and a norm off by up to 1e-9 is still accepted as normalized
    psi = StateVector(qubit_layout(2), amps * (1.0 + norm_error))
    est, err = sample_correlation(psi, 0, 1, t_i, t_i if t_j is None else t_j, shots, seed, eps)
    assert -1.0 <= est <= 1.0
    assert 0.0 <= err <= 1.0


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_analyzer_angle_is_refused_on_every_path(angle):
    # correlation returned nan, bs_value a nan B_S that read as not violated,
    # and sample_correlation failed inside numpy's binomial draw
    psi = antisymmetric_pair()
    paths = [
        lambda: correlation(psi, 0, 1, angle, 0.0),
        lambda: correlation(psi, 0, 1, 0.0, angle),
        lambda: bs_value(psi, AnalyzerSettings(math.pi / 4, angle, 0.0, math.pi / 2)),
        lambda: sample_correlation(psi, 0, 1, angle, 0.0, 100, 0),
        lambda: sample_correlation(psi, 0, 1, 0.0, angle, 100, 0, readout_error=0.1),
    ]
    for path in paths:
        with pytest.raises(ValueError, match=f"^analyzer angle must be finite, got {angle}$"):
            path()


@pytest.mark.parametrize("vartheta", [1e308, -1e308, math.inf, math.nan])
def test_a_vartheta_whose_triple_is_not_finite_is_refused_before_any_draw(vartheta):
    # cos(3 vartheta) raised 'math domain error' in the exact landscape; the
    # sampled one warned of an overflow before refusing the infinite angle
    message = "^" + re.escape(f"vartheta and 3 * vartheta must be finite, got vartheta = {vartheta!r}") + "$"
    with pytest.raises(ValueError, match=message):
        bs_landscape([0.0, 1.0], [0.5, vartheta])
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        _sampled_landscape([0.0, 1.0], [0.5, vartheta], 100, rng, 0.0)
    assert rng.bit_generator.state == state
    # the largest vartheta whose triple is finite still scores on both paths
    edge = float(np.nextafter(np.finfo(float).max / 3.0, 0.0))
    assert bs_landscape([1.0], [edge]).b_s.shape == _sampled_landscape([1.0], [edge], 100, 0, 0.0).b_s.shape == (1,)


@pytest.mark.parametrize(
    "omega_t, refused",
    [
        # both paths raised a bare 'math domain error' from math.sin
        ([0.5, math.inf], "pulse area |omega| T must be finite, got inf"),
        ([-math.inf], "pulse area |omega| T must be finite, got -inf"),
        # the exact path scored B_S = nan as not violated
        ([math.nan, 0.5], "pulse area |omega| T must be finite, got nan"),
        # the sampled path returned an empty landscape
        ([], "grids must be nonempty"),
    ],
    ids=["inf", "minus_inf", "nan", "empty"],
)
def test_a_non_finite_pulse_area_or_empty_grid_is_refused_on_both_landscapes(omega_t, refused):
    message = "^" + re.escape(refused) + "$"
    with pytest.raises(ValueError, match=message):
        bs_landscape(omega_t, [0.5])
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        _sampled_landscape(omega_t, [0.5], 100, rng, 0.0)
    assert rng.bit_generator.state == state


_BAD_SHOTS = {
    # 2 binomial trials over a 2.5-shot denominator gave (0.2, 0.8)
    "fraction": (2.5, "shots must be an integer, got 2.5"),
    # scored 1 shot
    "bool": (True, "shots must be an integer, got True"),
    "str": ("10", "shots must be an integer, got '10'"),
    # numpy's binomial raised OverflowError
    "2**63": (2**63, "shots = 9223372036854775808 exceeds the limit of 10000000 per correlation"),
    "cap_plus_1": (SHOTS_CAP + 1, "shots = 10000001 exceeds the limit of 10000000 per correlation"),
    "0": (0, "shots must be >= 1, got 0"),
}


@pytest.mark.parametrize("shots, message", _BAD_SHOTS.values(), ids=_BAD_SHOTS.keys())
def test_a_bad_shot_count_is_refused_before_any_draw(shots, message):
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    paths = [
        lambda: sample_correlation(landscape_state(1.0), 0, 1, 0.0, 0.0, shots, seed=rng),
        lambda: _sampled_landscape([1.0], [0.3], shots, rng, 0.0),
    ]
    for path in paths:
        with pytest.raises(ValueError) as refused:
            path()
        assert type(refused.value) is ValueError
        assert str(refused.value) == message
    assert rng.bit_generator.state == state


# a sampled landscape scored 0.7 as B_S = 0.44 and -0.2 as 1.2; at 0.5 every
# recorded outcome is a coin toss
_BAD_READOUT_ERRORS = {
    "0.7": (0.7, "readout_error must lie in [0, 0.5), got 0.7"),
    "0.5": (0.5, "readout_error must lie in [0, 0.5), got 0.5"),
    "-0.2": (-0.2, "readout_error must lie in [0, 0.5), got -0.2"),
    "nan": (math.nan, "readout_error must lie in [0, 0.5), got nan"),
}


@pytest.mark.parametrize("readout_error, message", _BAD_READOUT_ERRORS.values(), ids=_BAD_READOUT_ERRORS.keys())
def test_a_bad_readout_error_is_refused_before_any_draw(readout_error, message):
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    paths = [
        lambda: sample_correlation(landscape_state(1.0), 0, 1, 0.0, 0.0, 100, rng, readout_error),
        lambda: _sampled_landscape([1.0], [0.3], 100, rng, readout_error),
    ]
    for path in paths:
        with pytest.raises(ValueError) as refused:
            path()
        assert type(refused.value) is ValueError
        assert str(refused.value) == message
    assert rng.bit_generator.state == state


def test_mermin_n_accurate_near_cancellation():
    # a GHZ phase just short of pi/4 makes <M_6> nearly cancel; the closed
    # form must still match the exact value for the stored amplitudes
    psi = ghz_state(6, 0.785398163)
    a, b = psi.amplitudes[0], psi.amplitudes[-1]
    ar, ai, br, bi = map(Fraction, (a.real, a.imag, b.real, b.imag))
    exact = abs(2 * (-8 * (ar * br + ai * bi) + 8 * (ar * bi - ai * br)))  # m = 4 (1 - i)^3 = -8 - 8i
    assert mermin_n(psi).value == pytest.approx(float(exact), rel=1e-15)
