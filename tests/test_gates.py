import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from zenobell import gates
from zenobell.dfs import (
    effective_hamiltonian,
    lambda_dfs_vectors,
    pair_dfs_vectors,
    subspace_from_vectors,
)
from zenobell import dynamics
from zenobell.dynamics import (
    DrivenHamiltonian,
    NumericalError,
    SystemSpec,
    check_regime,
    cnot_drive,
    evolve_no_jump,
    h_cond_lambda,
    h_cond_two_level,
    no_jump_states,
    no_photon_probability,
    pair_drive,
    zeno_timescale,
)
from zenobell.gates import (
    QUBIT_LABELS,
    cavity_decay_duration,
    cnot_duration,
    cnot_ideal,
    cnot_pulse,
    cnot_pulse_sweep,
    pair_duration,
    prepare_pair,
    prepare_pair_sweep,
    qubit_amplitudes,
    qubit_state,
)
from zenobell.hilbert import StateVector, basis_state, fidelity, state_from_amplitudes
from zenobell.states import (
    entangled_pair_amplitudes,
    entangled_pair_state,
    pair_target_alpha,
    pair_target_amplitudes,
    qubit_layout,
)

from oracles import (
    damped_cnot_amplitudes,
    damped_pair_amplitudes,
    entangled_pair_by_levels,
    run_record_scores,
    three_level_rabi_amplitudes,
)

SQRT2 = math.sqrt(2.0)

IN_REGIME_GAMMA = 0.0002
STATED_GAMMA = 0.01
OMEGA = 0.02


def pair_spec(gamma, n_max=2):
    return SystemSpec(atom_levels=2, n_atoms=2, g=1.0, kappa=1.0, gamma=gamma, n_max=n_max)


def lambda_spec(gamma, n_max=2):
    return SystemSpec(atom_levels=3, n_atoms=2, g=1.0, kappa=1.0, gamma=gamma, n_max=n_max)


# ------------------------------------------------------ damped-subspace oracles


def test_damped_dfs_closed_forms_reduce_to_gamma_free_solutions():
    for t in np.linspace(0.0, 2.0 * cnot_duration(OMEGA), 9):
        c00, ca = damped_pair_amplitudes(OMEGA, 0.0, t)
        assert c00 == pytest.approx(math.cos(OMEGA * t / 2), abs=1e-12)
        assert ca == pytest.approx(-1j * math.sin(OMEGA * t / 2), abs=1e-12)
        a10, aa, a11 = three_level_rabi_amplitudes(OMEGA, t)
        assert damped_cnot_amplitudes(OMEGA, 0.0, t, "10") == pytest.approx((a10, aa, a11), abs=1e-12)
        # |11> is the mirror image: a_10 <-> a_11 and |a> picks up a sign
        assert damped_cnot_amplitudes(OMEGA, 0.0, t, "11") == pytest.approx((a11, -aa, a10), abs=1e-12)


@pytest.mark.parametrize(
    "omega, gamma",
    [(0.02, 0.01), (0.02, 0.0002), (0.02j, 0.01), (0.015 - 0.01j, 0.004), (0.02, 0.02), (0.02, 0.05)],
    ids=["stated", "in_regime", "complex", "complex_phase", "exceptional", "overdamped"],
)
def test_damped_dfs_closed_forms_match_expm(omega, gamma):
    m_pair = np.array([[0.0, np.conj(omega) / 2], [omega / 2, -1j * gamma]])
    w = abs(omega)
    m_cnot = np.array([[0.0, w / 2, 0.0], [w / 2, -1j * gamma, -w / 2], [0.0, -w / 2, 0.0]])
    for t in (0.3 / w, math.pi / w, cnot_duration(w), 7.0 / w):
        u = expm(-1j * m_pair * t)
        assert np.allclose(damped_pair_amplitudes(omega, gamma, t), u[:, 0], rtol=0.0, atol=1e-12)
        u = expm(-1j * m_cnot * t)
        assert np.allclose(damped_cnot_amplitudes(w, gamma, t, "10"), u[:, 0], rtol=0.0, atol=1e-12)
        assert np.allclose(damped_cnot_amplitudes(w, gamma, t, "11"), u[:, 2], rtol=0.0, atol=1e-12)


# --------------------------------------------------------------- prepare_pair


def test_prepare_pair_zero_duration_is_identity():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = prepare_pair(pair_spec(0.01), OMEGA, 0.0)
    layout = rec.final_state.layout
    assert np.allclose(rec.final_state.amplitudes, basis_state(layout, (0, 0, 0)).amplitudes)
    assert rec.p0 == pytest.approx(1.0, abs=1e-12)
    assert rec.alpha == pytest.approx(0.0, abs=1e-12)


def test_prepare_pair_errors():
    with pytest.raises(ValueError):
        prepare_pair(pair_spec(0.0), OMEGA, -1.0)
    with pytest.raises(ValueError):
        prepare_pair(pair_spec(0.0), 0.0, 1.0)


def test_pulse_lengths_are_pi_and_sqrt2_pi_over_the_drive():
    for omega in (0.02, -0.05, 0.3, 1e-300, 1e308):
        assert pair_duration(omega) == math.pi / abs(omega)
        assert cnot_duration(omega) == SQRT2 * math.pi / abs(omega)
    assert pair_duration(-0.05 + 0.01j) == math.pi / abs(-0.05 + 0.01j)
    # a zero drive has no pulse length, and a subnormal one an infinite length
    refusals = {
        (pair_duration, 0.0): "omega_minus must be nonzero",
        (cnot_duration, 0.0): "omega must be nonzero",
        (pair_duration, 5e-324): "omega_minus = 5e-324 is too small: its default duration is not finite",
        (cnot_duration, 5e-324): "omega = 5e-324 is too small: its default duration is not finite",
        (cavity_decay_duration, 5e-324): "kappa = 5e-324 is too small: its default duration is not finite",
    }
    for (length, value), message in refusals.items():
        with pytest.raises(ValueError) as refused:
            length(value)
        assert type(refused.value) is ValueError and str(refused.value) == message
    assert cavity_decay_duration(0.0) == 1.0 and cavity_decay_duration(4.0) == 0.25


def test_a_zero_omega_is_refused_before_any_propagation(monkeypatch):
    def kernel(*args):
        raise AssertionError("the sweep reached the propagation kernel")

    monkeypatch.setattr(gates, "_no_jump_chunks", kernel)
    points = [(OMEGA, 1.0)] * 19_999 + [(0.0, 1.0)]
    with pytest.raises(ValueError) as refused:
        prepare_pair_sweep(_PAIR, points)
    assert type(refused.value) is ValueError and str(refused.value) == "omega_minus must be nonzero"
    # the kernel is reached, and so stubbed, without the zero omega
    with pytest.raises(AssertionError, match="^the sweep reached the propagation kernel$"):
        prepare_pair_sweep(_PAIR, points[:-1])


def test_a_sweep_scores_each_row_against_the_pulse_it_propagated():
    # a duration is propagated as its float64 value, and its row is scored
    # against the target of that pulse, not of the duration as given
    spec = pair_spec(STATED_GAMMA)
    for given in (np.float32(50.1), "50.1", 50):
        run, pulse = prepare_pair_sweep(spec, [(OMEGA, given)]), prepare_pair_sweep(spec, [(OMEGA, float(given))])
        assert [c.tobytes() for c in _columns(run)] == [c.tobytes() for c in _columns(pulse)]


def test_prepare_pair_in_regime_reaches_protocol_quality():
    # conditional fidelity above 95% and success probability above 90%
    rec = prepare_pair(pair_spec(IN_REGIME_GAMMA), OMEGA, math.pi / OMEGA)
    assert rec.regime.in_regime
    assert rec.fidelity >= 0.95
    assert rec.p0 >= 0.9
    assert abs(rec.alpha) == pytest.approx(1.0, abs=0.01)
    assert rec.expected_attempts == pytest.approx(1.0 / rec.p0)


def test_prepare_pair_out_of_regime_values():
    # Gamma/|Omega| = 0.5 violates the strong-driving condition; the
    # run degrades to p0 ~ 0.39, conditional fidelity ~ 0.67 and warns.
    with pytest.warns(UserWarning):
        rec = prepare_pair(pair_spec(STATED_GAMMA), OMEGA, math.pi / OMEGA)
    assert not rec.regime.in_regime
    assert rec.p0 == pytest.approx(0.388, abs=0.005)
    assert rec.fidelity == pytest.approx(0.673, abs=0.005)
    assert abs(rec.alpha) == pytest.approx(0.820, abs=0.005)


def _regime_messages(record):
    return [str(w.message) for w in record if "strong-coupling" in str(w.message)]


def test_regime_warning_names_only_the_failed_ratios():
    with pytest.warns(UserWarning) as record:
        prepare_pair(pair_spec(STATED_GAMMA), OMEGA, math.pi / OMEGA)
    (msg,) = _regime_messages(record)
    assert "gamma_over_omega = 0.5" in msg
    assert "omega_kappa_over_g2" not in msg and "omega_over_kappa" not in msg

    # kappa = 0.1 g breaks |Omega| << kappa (ratio 0.2) but keeps |Omega| << g^2/kappa
    spec = SystemSpec(atom_levels=3, n_atoms=2, g=1.0, kappa=0.1, gamma=STATED_GAMMA, n_max=2)
    with pytest.warns(UserWarning) as record:
        cnot_pulse(spec, OMEGA, qubit_state(spec, "10"))
    (msg,) = _regime_messages(record)
    assert "gamma_over_omega = 0.5" in msg and "omega_over_kappa = 0.2" in msg
    assert "omega_kappa_over_g2" not in msg


def test_prepare_pair_p0_matches_no_photon_probability():
    spec = pair_spec(IN_REGIME_GAMMA)
    T = math.pi / OMEGA
    rec = prepare_pair(spec, OMEGA, T)
    h = h_cond_two_level(spec, {(1, "0-1"): OMEGA / SQRT2, (2, "0-1"): -OMEGA / SQRT2})
    direct = no_photon_probability(h, basis_state(h.layout, (0, 0, 0)), T)
    assert rec.p0 == pytest.approx(direct, abs=1e-12)
    assert rec.final_state.norm() ** 2 == pytest.approx(rec.p0, abs=1e-10)


def test_prepare_pair_half_rotation_under_effective_hamiltonian():
    # |Omega| T = pi/2 under the projected two-level dynamics gives
    # |alpha|^2 = sin^2(pi/4) = 1/2 exactly.
    h = h_cond_two_level(pair_spec(0.0), {(1, "0-1"): OMEGA / SQRT2, (2, "0-1"): -OMEGA / SQRT2})
    layout = h.layout
    v00, va = pair_dfs_vectors(layout)
    eff = effective_hamiltonian(h, subspace_from_vectors(layout, [v00, va]))
    T = math.pi / (2 * OMEGA)
    psi = evolve_no_jump(eff.operator, basis_state(layout, (0, 0, 0)), T)
    alpha = np.vdot(va.amplitudes, psi.amplitudes)
    assert abs(alpha) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert alpha == pytest.approx(pair_target_alpha(OMEGA, T), abs=1e-12)


def test_prepare_pair_alpha_tracks_prediction_on_regime_grid():
    gamma = 0.0005
    worst = 0.0
    for omega in (0.01, 0.02, 0.05):
        for k in range(9):
            T = k * 2.0 * math.pi / (8.0 * omega)  # |Omega| T in [0, 2 pi]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rec = prepare_pair(pair_spec(gamma), omega, T)
            worst = max(worst, abs(rec.alpha - pair_target_alpha(omega, T)))
    assert worst <= 0.05


def test_prepare_pair_complex_omega_phase():
    om = 0.02j  # phase pushed into alpha per the pulse solution
    rec = prepare_pair(pair_spec(0.0), om, math.pi / abs(om))
    assert rec.alpha == pytest.approx(pair_target_alpha(om, rec.duration), abs=0.01)


# ----------------------------------------------------------------- cnot_ideal


def test_cnot_ideal_permutation():
    u = cnot_ideal().entries
    assert np.allclose(u @ [0, 0, 1, 0], [0, 0, 0, 1])  # |10> -> |11>
    assert np.allclose(u @ [1, 0, 0, 0], [1, 0, 0, 0])  # |00> -> |00>
    assert np.allclose(u @ u, np.eye(4))


# ----------------------------------------------------------------- cnot_pulse


def test_cnot_effective_hamiltonian_is_exact_gate():
    # under the projected dynamics the pulse maps |10> to |11> exactly
    omega = OMEGA
    h = h_cond_lambda(lambda_spec(0.0), {(1, "1-2"): SQRT2 * omega, (2, "0-2"): SQRT2 * omega})
    layout = h.layout
    dfs = subspace_from_vectors(layout, lambda_dfs_vectors(layout))
    eff = effective_hamiltonian(h, dfs)
    T = cnot_duration(omega)
    out = evolve_no_jump(eff.operator, basis_state(layout, (1, 0, 0)), T)
    assert fidelity(out.normalized(), basis_state(layout, (1, 1, 0))) >= 1.0 - 1e-10

    # the transient passes through the antisymmetric state per the
    # closed-form three-level solution
    s = 1 / SQRT2
    va = state_from_amplitudes(layout, {(1, 2, 0): s, (2, 1, 0): -s})
    for frac in (0.25, 0.5, 0.8):
        t = frac * T
        psi = evolve_no_jump(eff.operator, basis_state(layout, (1, 0, 0)), t)
        a10, aa, a11 = three_level_rabi_amplitudes(omega, t)
        assert np.vdot(basis_state(layout, (1, 0, 0)).amplitudes, psi.amplitudes) == pytest.approx(a10, abs=1e-10)
        assert np.vdot(va.amplitudes, psi.amplitudes) == pytest.approx(aa, abs=1e-10)
        assert np.vdot(basis_state(layout, (1, 1, 0)).amplitudes, psi.amplitudes) == pytest.approx(a11, abs=1e-10)


def test_cnot_in_regime_basis_states():
    spec = lambda_spec(IN_REGIME_GAMMA)
    for label in QUBIT_LABELS:
        rec = cnot_pulse(spec, OMEGA, qubit_state(spec, label))
        assert rec.fidelity >= 0.95, label
        assert rec.p0 >= 0.9, label
    # |00> is laser-driven out of the subspace but Zeno-protected
    rec00 = cnot_pulse(lambda_spec(0.0), OMEGA, qubit_state(spec, "00"))
    assert rec00.fidelity >= 0.99
    # |01> couples to no laser and no cavity mode at all
    rec01 = cnot_pulse(lambda_spec(0.0), OMEGA, qubit_state(spec, "01"))
    assert rec01.fidelity >= 1.0 - 1e-9
    assert rec01.p0 == pytest.approx(1.0, abs=1e-9)


def test_cnot_stated_point_values():
    # Gamma = 0.5 |Omega|: out of regime, the |10> run lands near
    # fidelity 0.78 with p0 near 0.50 (and warns).
    spec = lambda_spec(STATED_GAMMA)
    with pytest.warns(UserWarning):
        rec = cnot_pulse(spec, OMEGA, qubit_state(spec, "10"))
    assert rec.p0 == pytest.approx(0.497, abs=0.005)
    assert rec.fidelity == pytest.approx(0.780, abs=0.005)


def test_cnot_process_matrix_in_regime():
    spec = lambda_spec(IN_REGIME_GAMMA)
    m = np.zeros((4, 4), dtype=complex)
    for col, label in enumerate(QUBIT_LABELS):
        rec = cnot_pulse(spec, OMEGA, qubit_state(spec, label))
        m[:, col] = qubit_amplitudes(rec.final_state.normalized())
    u = cnot_ideal().entries
    process_fidelity = abs(np.trace(u.conj().T @ m)) ** 2 / 16.0
    assert process_fidelity >= 0.95


def test_cnot_linearity_on_superposition():
    spec = lambda_spec(0.0)
    plus = qubit_state(spec, np.array([0, 0, 1, 1]) / SQRT2)
    rec = cnot_pulse(spec, OMEGA, plus)
    out10 = cnot_pulse(spec, OMEGA, qubit_state(spec, "10")).final_state
    out11 = cnot_pulse(spec, OMEGA, qubit_state(spec, "11")).final_state
    combined = (out10.amplitudes + out11.amplitudes) / SQRT2
    overlap = abs(np.vdot(combined, rec.final_state.amplitudes)) ** 2
    overlap /= np.linalg.norm(combined) ** 2 * rec.final_state.norm() ** 2
    assert overlap >= 0.999


def test_cnot_p0_consistent_with_dynamics():
    spec = lambda_spec(IN_REGIME_GAMMA)
    rec = cnot_pulse(spec, OMEGA, qubit_state(spec, "10"))
    h = h_cond_lambda(spec, {(1, "1-2"): SQRT2 * OMEGA, (2, "0-2"): SQRT2 * OMEGA})
    direct = no_photon_probability(h, qubit_state(spec, "10"), cnot_duration(OMEGA))
    assert rec.p0 == pytest.approx(direct, abs=1e-12)


def test_cnot_input_validation():
    spec = lambda_spec(0.0)
    with pytest.raises(ValueError):
        cnot_pulse(spec, 0.0, qubit_state(spec, "10"))
    bad = basis_state(spec.layout(), (2, 0, 0))  # excited level, not a qubit state
    with pytest.raises(ValueError):
        cnot_pulse(spec, OMEGA, bad)
    with pytest.raises(ValueError):
        qubit_state(spec, "22")


# ------------------------------------------------------------ batched sweeps


def _bits(*values):
    return np.array([complex(v) for v in values if v is not None]).tobytes()


def _same_row(spec, run, index, omega, record):
    """Run ``index`` of a sweep's columns equals the single-point record, bit for bit; its regime is that of |omega|."""
    alpha = None if run.alpha is None else run.alpha[index]
    assert (alpha is None) == (record.alpha is None)
    row = (run.p0[index], run.fidelity[index], alpha, run.duration[index[0]])
    assert _bits(*row) == _bits(record.p0, record.fidelity, record.alpha, record.duration)
    assert record.regime == check_regime(spec, abs(complex(omega)))


def _quietly(call):
    """A single-point run, which warns outside the regime where the sweep it is compared with does not."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return call()


def _columns(run):
    return [run.p0, run.fidelity, run.duration] + ([] if run.alpha is None else [run.alpha])


def _pair_finals(specs, points):
    """The (S * n, d) final states a pair sweep of ``points`` on the systems ``specs`` scores, from one kernel call."""
    family = DrivenHamiltonian.of(specs, pair_drive(1.0))
    ground = basis_state(family.layout, (0, 0, 0)).amplitudes
    return no_jump_states(family, [pair_drive(om) for om, _ in points], [t for _, t in points], [ground])[:, 0]


def _cnot_finals(specs, omegas, inputs):
    """The (S * n, M, d) final states a CNOT sweep of ``omegas`` x ``inputs`` on ``specs`` scores, in one kernel call."""
    family, first = DrivenHamiltonian.of(specs, cnot_drive(1.0)), dynamics._systems(specs)[0]
    amplitudes = [(qubit_state(first, m) if isinstance(m, str) else m).amplitudes for m in inputs]
    return no_jump_states(family, [cnot_drive(om) for om in omegas], [cnot_duration(om) for om in omegas], amplitudes)


def _read_only(run):
    return not any(column.flags.writeable for column in _columns(run))


PAIR_POINTS = [(0.02, 0.0), (0.02, math.pi / 0.02), (-0.05 + 0.01j, 80.0), (0.3, 0.0), (0.3, 11.0), (0.01, 400.0)]


@pytest.mark.parametrize("gamma", [0.0, STATED_GAMMA])
def test_prepare_pair_sweep_equals_single_point_records(gamma):
    spec = pair_spec(gamma, n_max=3)
    d = spec.layout().total_dim
    run = prepare_pair_sweep(spec, PAIR_POINTS)
    assert run.p0.shape == run.fidelity.shape == run.alpha.shape == run.duration.shape == (len(PAIR_POINTS),)
    assert _read_only(run)
    # a sweep is its four columns and nothing else: it keeps no final state
    assert list(run._fields) == ["p0", "fidelity", "alpha", "duration"]
    finals = _pair_finals(spec, PAIR_POINTS)
    assert finals.shape == (len(PAIR_POINTS), d)
    for i, (om, t) in enumerate(PAIR_POINTS):
        record = _quietly(lambda: prepare_pair(spec, om, t))
        _same_row(spec, run, (i,), om, record)
        # the per-point route: assemble H for this drive, one expm
        psi0 = basis_state(spec.layout(), (0, 0, 0))
        direct = evolve_no_jump(h_cond_two_level(spec, pair_drive(om)), psi0, t)
        assert record.final_state.amplitudes.tobytes() == finals[i].tobytes() == direct.amplitudes.tobytes()

    empty = prepare_pair_sweep(spec, [])
    assert empty.p0.shape == empty.fidelity.shape == empty.alpha.shape == empty.duration.shape == (0,)
    assert _read_only(empty)


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_sweep_records_score_as_the_one_state_formulas(n_max):
    # p0, fidelity and alpha of every run equal, bit for bit, the
    # one-state np.vdot / np.linalg.norm formulas on its final state
    rng = np.random.default_rng(n_max)
    for gamma in (0.0, 1e-3, 0.01, 0.1):
        kappa = float(rng.uniform(0.2, 2.0))
        pair = SystemSpec(atom_levels=2, n_atoms=2, g=1.0, kappa=kappa, gamma=gamma, n_max=n_max)
        points = [(complex(*rng.uniform(-0.5, 0.5, 2).tolist()), float(rng.uniform(0, 400))) for _ in range(20)]
        cnot = SystemSpec(atom_levels=3, n_atoms=2, g=1.0, kappa=kappa, gamma=gamma, n_max=n_max)
        omegas = rng.uniform(0.005, 0.5, 5).tolist()
        pair_run = prepare_pair_sweep(pair, points)
        cnot_run = cnot_pulse_sweep(cnot, omegas, QUBIT_LABELS)
        assert (pair_run.p0.dtype, pair_run.fidelity.dtype, pair_run.alpha.dtype) == (float, float, complex)
        assert (cnot_run.p0.dtype, cnot_run.fidelity.dtype, cnot_run.alpha) == (float, float, None)
        a_vec = entangled_pair_state(1.0, pair.layout()).amplitudes
        pair_finals, cnot_finals = _pair_finals(pair, points), _cnot_finals(cnot, omegas, QUBIT_LABELS)
        for i, (om, t) in enumerate(points):
            target = entangled_pair_by_levels(pair_target_alpha(om, t), pair.layout())
            expected = run_record_scores(pair_finals[i], target, a_vec)
            assert _bits(pair_run.p0[i], pair_run.fidelity[i], pair_run.alpha[i]) == _bits(*expected)
        for i, m in np.ndindex(cnot_run.p0.shape):
            target = qubit_state(cnot, cnot_ideal().entries @ qubit_amplitudes(qubit_state(cnot, QUBIT_LABELS[m])))
            expected = run_record_scores(cnot_finals[i, m], target.amplitudes)
            assert _bits(cnot_run.p0[i, m], cnot_run.fidelity[i, m]) == _bits(*expected)


def test_pair_state_rows_equal_the_level_by_level_builder():
    rng = np.random.default_rng(4)
    alphas = (rng.normal(size=(400, 2)) * 0.5).tolist()
    alphas = [complex(*a) / max(1.0, abs(complex(*a))) for a in alphas]
    alphas += [complex(re, im) for re in (0.0, -0.0, 1.0, -1.0) for im in (0.0, -0.0)] + [1j, -1j, 1 + 1e-13]
    alphas += [pair_target_alpha(om, t) for om in (0.02, -0.05 + 0.01j) for t in (0.0, 80.0, math.pi / 0.02)]
    for layout in (None, pair_spec(0.0).layout()):
        rows = entangled_pair_amplitudes(alphas, layout)
        for alpha, row in zip(alphas, rows):
            expected = entangled_pair_by_levels(alpha, layout or qubit_layout(2))
            assert row.tobytes() == expected.tobytes()
            assert entangled_pair_state(alpha, layout).amplitudes.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="must be <= 1"):
        entangled_pair_amplitudes([0.5, 1.1j])


def test_pair_target_rows_are_the_rows_of_the_pulse_alphas():
    omegas = [0.02, -0.05 + 0.01j, 1.0, 0.3j, 1.0]
    durations = [0.0, 80.0, math.pi / 0.02, 7.5, 3 * math.pi]
    for layout in (None, pair_spec(0.0).layout()):
        expected = entangled_pair_amplitudes([pair_target_alpha(om, t) for om, t in zip(omegas, durations)], layout)
        assert pair_target_amplitudes(omegas, durations, layout).tobytes() == expected.tobytes()


_UNSIGNED_00 = pytest.mark.xfail(strict=True, raises=AssertionError, reason="unsigned |00⟩ amplitude, ROADMAP item 1")


@pytest.mark.parametrize(
    "area", [0.5, 1.0, pytest.param(1.5, marks=_UNSIGNED_00), 2.0, pytest.param(2.5, marks=_UNSIGNED_00)]
)
def test_ideal_pulse_reaches_its_target_at_every_pulse_area(area):
    # at Gamma = 0 and kappa = g the pulse |Omega| T = area * pi gives cos(|Omega| T / 2) |00> + alpha |a>,
    # whose |00> amplitude is negative where the area lies in (pi, 3 pi)
    assert prepare_pair(pair_spec(0.0), 0.02, area * math.pi / 0.02).fidelity >= 0.999


def test_cnot_pulse_sweep_equals_single_point_records():
    spec = lambda_spec(STATED_GAMMA, n_max=3)
    d = spec.layout().total_dim
    omegas = [0.005, 0.02, -0.04, 0.3, 0.02]
    inputs = [qubit_state(spec, lab) for lab in QUBIT_LABELS] + [qubit_state(spec, np.array([0.6, 0, 0.8j, 0]))]
    run = cnot_pulse_sweep(spec, omegas, inputs)
    assert run.p0.shape == run.fidelity.shape == (len(omegas), len(inputs))
    assert run.alpha is None and run.duration.shape == (len(omegas),)
    assert _read_only(run)
    finals = _cnot_finals(spec, omegas, inputs)
    assert finals.shape == (len(omegas), len(inputs), d)
    for i, omega in enumerate(omegas):
        for m, psi in enumerate(inputs):
            record = _quietly(lambda: cnot_pulse(spec, omega, psi))
            _same_row(spec, run, (i, m), omega, record)
            direct = evolve_no_jump(h_cond_lambda(spec, cnot_drive(omega)), psi, cnot_duration(omega))
            assert record.final_state.amplitudes.tobytes() == finals[i, m].tobytes() == direct.amplitudes.tobytes()

    empty = cnot_pulse_sweep(spec, [], inputs)
    assert empty.p0.shape == empty.fidelity.shape == (0, len(inputs))
    assert empty.alpha is None and empty.duration.shape == (0,)
    assert _read_only(empty)


def test_cnot_pulse_sweep_makes_one_propagator_per_omega(monkeypatch):
    exponentiated = []

    def counting_expm(a):
        exponentiated.append(a.shape)
        return expm(a)

    monkeypatch.setattr(dynamics, "expm", counting_expm)
    spec = lambda_spec(IN_REGIME_GAMMA)
    omegas = [0.01, 0.02, 0.03]
    run = cnot_pulse_sweep(spec, omegas, [qubit_state(spec, lab) for lab in QUBIT_LABELS])
    # one stacked call per component the four inputs reach, one block per
    # omega: |10> and |11> share the 18-state component, |00> and |01> each
    # reach their own
    assert sorted(exponentiated) == [(3, 1, 1), (3, 3, 3), (3, 18, 18)]
    assert run.p0.shape == (3, 4)


def _pair_sweep_peak(rows):
    """The tracemalloc peak, in bytes, of a pair sweep of ``rows`` omegas evenly spaced in [0.01, 0.05], T = pi / omega."""
    points = [(om, math.pi / om) for om in np.linspace(0.01, 0.05, rows).tolist()]
    tracemalloc.start()
    try:
        prepare_pair_sweep(pair_spec(IN_REGIME_GAMMA), points)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_sweep_holds_no_state_of_its_runs_past_their_chunk():
    # 8k rows fill more than two kernel chunks of the 12-state pair; 16k rows
    # more may add only their columns, Rabi frequencies and durations
    # (~0.1 kB a row): no final state, drive or target outlives its chunk
    _pair_sweep_peak(100)  # the caches of the family and the components
    assert _pair_sweep_peak(24_000) - _pair_sweep_peak(8_000) <= 3e6


def test_tiny_expm_budget_gives_identical_records(monkeypatch):
    spec = pair_spec(IN_REGIME_GAMMA)
    lspec = lambda_spec(IN_REGIME_GAMMA)
    omegas = [0.01, 0.02, 0.03, 0.05, 0.08]
    inputs = [qubit_state(lspec, lab) for lab in QUBIT_LABELS]

    def sweeps():
        return prepare_pair_sweep(spec, PAIR_POINTS), cnot_pulse_sweep(lspec, omegas, inputs)

    def contents(run):
        return [column.tobytes() for column in _columns(run)]

    def finals():
        return _pair_finals(spec, PAIR_POINTS).tobytes(), _cnot_finals(lspec, omegas, inputs).tobytes()

    default, default_finals = sweeps(), finals()
    for chunk in (1, 2):
        monkeypatch.setattr(dynamics, "_EXPM_BYTES", chunk * 16 * lspec.layout().total_dim ** 2)
        for a, b in zip(default, sweeps()):
            assert contents(a) == contents(b)
        assert finals() == default_finals


# Three systems that differ in Gamma, as the figures sweep them; the pair
# points hold two T = 0 points and a complex drive, the CNOT a complex omega.
SYSTEM_GAMMAS = (0.0, STATED_GAMMA, 0.1)
SYSTEM_OMEGAS = [0.005, 0.02, -0.05 + 0.03j, 0.3]


def _system_sweeps(pair=prepare_pair_sweep, cnot=cnot_pulse_sweep):
    """(sweep over the three systems, one sweep per system) for the pair and for the CNOT.

    ``pair`` and ``cnot`` take a sweep's arguments; the kernel's final
    states of each sweep are ``_pair_finals`` and ``_cnot_finals``.
    """
    pairs, lambdas = [pair_spec(gamma) for gamma in SYSTEM_GAMMAS], [lambda_spec(gamma) for gamma in SYSTEM_GAMMAS]
    inputs = ["10", qubit_state(lambdas[0], np.array([0.6, 0, 0.8j, 0]))]
    return [
        (pair(pairs, PAIR_POINTS), [pair(s, PAIR_POINTS) for s in pairs]),
        (cnot(lambdas, SYSTEM_OMEGAS, inputs), [cnot(s, SYSTEM_OMEGAS, inputs) for s in lambdas]),
    ]


def test_sweep_over_several_systems_equals_one_sweep_per_system(monkeypatch):
    # byte for byte, signed zeros included: the rows of system s are those
    # of a sweep of spec s alone, whatever the chunk budget
    default, finals = _system_sweeps(), _system_sweeps(_pair_finals, _cnot_finals)
    for batched, alone in default:
        assert len(batched.duration) == len(SYSTEM_GAMMAS) * len(alone[0].duration)
        assert _read_only(batched)
        for column, parts in zip(_columns(batched), zip(*map(_columns, alone))):
            assert column.tobytes() == np.concatenate(parts).tobytes()
    for batched, alone in finals:
        assert batched.tobytes() == np.concatenate(alone).tobytes()
    # chunks of one point, and of two points that may straddle two systems
    for budget in (1, 2 * 16 * 12**2, 2 * 16 * 18**2):
        monkeypatch.setattr(dynamics, "_EXPM_BYTES", budget)
        for (batched, _), (rerun, _) in zip(default, _system_sweeps()):
            assert [c.tobytes() for c in _columns(rerun)] == [c.tobytes() for c in _columns(batched)]
        for (batched, _), (rerun, _) in zip(finals, _system_sweeps(_pair_finals, _cnot_finals)):
            assert rerun.tobytes() == batched.tobytes()


def test_sweep_over_several_systems_names_the_failing_system():
    specs = [pair_spec(gamma) for gamma in SYSTEM_GAMMAS]
    with pytest.raises(NumericalError, match=r"at system 0, omega_minus=0.02, T=1e\+15"):
        prepare_pair_sweep(specs, [(OMEGA, 100.0), (OMEGA, 1e15)])
    with pytest.raises(ValueError, match="share one layout"):
        prepare_pair_sweep([pair_spec(0.0), pair_spec(0.0, n_max=3)], [(OMEGA, 1.0)])
    with pytest.raises(ValueError, match="Lambda"):
        cnot_pulse_sweep([lambda_spec(0.0), pair_spec(0.0)], [OMEGA], ["10"])


def test_single_point_warnings_point_at_the_caller():
    spec, lspec = pair_spec(STATED_GAMMA), lambda_spec(STATED_GAMMA)
    for call in (lambda: prepare_pair(spec, OMEGA, 5.0), lambda: cnot_pulse(lspec, OMEGA, qubit_state(lspec, "10"))):
        with pytest.warns(UserWarning) as record:
            call()
        assert {w.filename for w in record} == {__file__}


def test_sweeps_do_not_warn_and_carry_the_regime():
    spec, lspec = pair_spec(STATED_GAMMA), lambda_spec(STATED_GAMMA)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = prepare_pair_sweep(spec, [(OMEGA, 5.0), (OMEGA, math.pi / OMEGA)])
        cnot = cnot_pulse_sweep(lspec, [OMEGA, 1.0], ["10"])
    # what the single-point forms warn about: the regime of |omega|, and the pulse length in the result
    for s, record in (
        (spec, _quietly(lambda: prepare_pair(spec, OMEGA, 5.0))),
        (lspec, _quietly(lambda: cnot_pulse(lspec, OMEGA, qubit_state(lspec, "10")))),
    ):
        assert record.regime == check_regime(s, OMEGA) and not record.regime.in_regime
    assert check_regime(spec, OMEGA).ratios["gamma_over_omega"] == 0.5
    assert (pair.duration < 10 * zeno_timescale(spec)).tolist() == [True, False]
    assert (cnot.duration < 10 * zeno_timescale(lspec)).tolist() == [False, True]


def _zeno_messages(record):
    return [str(w.message) for w in record if "environment-measurement timescale" in str(w.message)]


def test_slow_measurement_warning_compares_the_pulse_with_the_zeno_timescale():
    spec = pair_spec(IN_REGIME_GAMMA)
    assert zeno_timescale(spec) == 1.0  # kappa = g = 1
    with pytest.warns(UserWarning) as record:
        prepare_pair(spec, OMEGA, 5.0)
    assert len(_zeno_messages(record)) == len(record) == 1
    assert record[0].filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = prepare_pair(spec, OMEGA, 100.0)
    assert rec.regime.in_regime
    # without cavity loss there is no environment measurement to compare with
    lossless = SystemSpec(atom_levels=2, n_atoms=2, g=1.0, kappa=0.0, gamma=IN_REGIME_GAMMA, n_max=2)
    for duration in (0.0, 5.0, 100.0):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            prepare_pair(lossless, OMEGA, duration)
        assert _zeno_messages(record) == []


def test_sweep_numeric_failures_name_the_point():
    with pytest.raises(NumericalError, match=r"p0 = 0 at omega_minus=0.02, T=1e\+15"):
        prepare_pair_sweep(pair_spec(IN_REGIME_GAMMA), [(OMEGA, 100.0), (OMEGA, 1e15)])
    spec = SystemSpec(atom_levels=3, n_atoms=2, g=1.0, kappa=1e200, gamma=0.001, n_max=2)
    with pytest.raises(NumericalError, match="not finite at omega=0.02, input=10"):
        cnot_pulse_sweep(spec, [OMEGA], ["10"])
    # an input given as a state is named by its position
    with pytest.raises(NumericalError, match="not finite at omega=0.02, input=#0"):
        cnot_pulse_sweep(spec, [OMEGA], [qubit_state(spec, "10"), "00"])


def test_zero_duration_point_reaching_a_non_finite_h_is_a_numeric_failure(monkeypatch):
    # a zero-length pulse is exponentiated like any other, so a non-finite H
    # that its input reaches fails at T = 0 as at T > 0; SystemSpec refuses a
    # rate that overflows H, so the two-photon diagonal of H0 is set to -i inf
    # on the assembled family
    def overflowing(specs, keys):
        family = of(specs, keys)
        h0 = family.h0.copy()
        h0[:, -1, -1] = complex(0.0, -math.inf)
        return family._replace(h0=h0)

    of = dynamics.DrivenHamiltonian.of
    monkeypatch.setattr(gates.DrivenHamiltonian, "of", overflowing)
    spec = SystemSpec(atom_levels=2, n_atoms=2, g=1.0, kappa=1.0, gamma=0.0, n_max=2)
    for duration in (0.0, 1.0):
        named = rf"^final-state amplitudes not finite at omega_minus=0.02, T={duration:.9g}$"
        with pytest.raises(NumericalError, match=named):
            prepare_pair_sweep(spec, [(OMEGA, duration)])


def test_a_non_finite_omega_is_refused_at_zero_duration():
    # cnot_duration(inf) is 0: the drive is refused by name before the zero-length point is exponentiated
    with pytest.raises(ValueError, match=r"rabi entry for atom 1, '1-2' must be finite, got \(inf\+0j\)$"):
        cnot_pulse_sweep(lambda_spec(0.001), [math.inf], ["10"])
    with pytest.raises(ValueError, match=r"rabi entry for atom 1, '0-1' must be finite, got \(inf\+0j\)$"):
        prepare_pair_sweep(pair_spec(0.001), [(math.inf, 0.0)])


_PAIR, _LAMBDA = pair_spec(0.001), lambda_spec(0.001)
_UNIT_10 = qubit_state(_LAMBDA, "10").amplitudes

# each bad sweep input, with the exception its first failing check raises:
# the specs and lasers, then the pair omegas, the inputs (and CNOT targets),
# the points, the propagation and last the final-state check
_REFUSALS = {
    "pair_no_specs": (lambda: prepare_pair_sweep([], [(OMEGA, 1.0)]), ValueError, "a family needs at least one system"),
    "cnot_no_specs": (lambda: cnot_pulse_sweep([], [OMEGA], ["10"]), ValueError, "a family needs at least one system"),
    "pair_1_atom": (
        lambda: prepare_pair_sweep(SystemSpec(n_atoms=1), [(OMEGA, 1.0)]),
        ValueError,
        "rabi entry for unknown atom 2",
    ),
    "pair_3_atoms": (
        lambda: prepare_pair_sweep(SystemSpec(n_atoms=3), [(OMEGA, 1.0)]),
        ValueError,
        "need one level per factor",
    ),
    "cnot_1_atom": (
        lambda: cnot_pulse_sweep(SystemSpec(3, 1), [OMEGA], ["10"]),
        ValueError,
        "rabi entry for unknown atom 2",
    ),
    "cnot_3_atoms": (lambda: cnot_pulse_sweep(SystemSpec(3, 3), [OMEGA], ["10"]), ValueError, "need one level per factor"),
    "pair_lambda_spec": (
        lambda: prepare_pair_sweep(_LAMBDA, [(OMEGA, 1.0)]),
        ValueError,
        "transition '0-1' invalid for 3-level atoms (expected one of ['0-2', '1-2'])",
    ),
    "cnot_two_level_spec": (
        lambda: cnot_pulse_sweep(_PAIR, [OMEGA], ["10"]), ValueError, "the CNOT pulse needs Lambda (3-level) atoms"
    ),
    "pair_two_layouts": (
        lambda: prepare_pair_sweep([_PAIR, SystemSpec(n_max=3)], [(OMEGA, 1.0)]),
        ValueError,
        "the systems of a family must share one layout",
    ),
    "cnot_two_layouts": (
        lambda: cnot_pulse_sweep([_LAMBDA, SystemSpec(3, n_max=3)], [OMEGA], ["10"]),
        ValueError,
        "the systems of a family must share one layout",
    ),
    "pair_omega_0_T_negative": (
        lambda: prepare_pair_sweep(_PAIR, [(0.0, -1.0)]), ValueError, "omega_minus must be nonzero"
    ),
    "pair_omega_0_T_inf": (
        lambda: prepare_pair_sweep(_PAIR, [(0.0, math.inf)]), ValueError, "omega_minus must be nonzero"
    ),
    "pair_omega_0_T_1": (lambda: prepare_pair_sweep(_PAIR, [(0.0, 1.0)]), ValueError, "omega_minus must be nonzero"),
    "pair_T_negative": (
        lambda: prepare_pair_sweep(_PAIR, [(OMEGA, -1.0)]),
        ValueError,
        "evolution time must be >= 0, got -1.0",
    ),
    "pair_T_nan": (
        lambda: prepare_pair_sweep(_PAIR, [(OMEGA, math.nan)]),
        ValueError,
        "evolution time must be >= 0, got nan",
    ),
    "pair_omega_str": (
        lambda: prepare_pair_sweep(_PAIR, [("x", 1.0)]),
        ValueError,
        "complex() arg is a malformed string",
    ),
    "pair_T_str": (
        lambda: prepare_pair_sweep(_PAIR, [(OMEGA, "x")]),
        ValueError,
        "could not convert string to float: 'x'",
    ),
    "pair_no_norm_left": (
        lambda: prepare_pair_sweep(_PAIR, [(OMEGA, 100.0), (OMEGA, 1e15)]),
        NumericalError,
        "p0 = 0 at omega_minus=0.02, T=1e+15: the conditional state has no norm left",
    ),
    "pair_omega_inf_T_0": (
        lambda: prepare_pair_sweep(_PAIR, [(math.inf, 0.0)]),
        ValueError,
        "rabi entry for atom 1, '0-1' must be finite, got (inf+0j)",
    ),
    "cnot_omega_0": (lambda: cnot_pulse_sweep(_LAMBDA, [0.0], ["10"]), ValueError, "omega must be nonzero"),
    "cnot_omega_str": (
        lambda: cnot_pulse_sweep(_LAMBDA, ["x"], ["10"]),
        TypeError,
        "bad operand type for abs(): 'str'",
    ),
    "cnot_label_12": (lambda: cnot_pulse_sweep(_LAMBDA, [OMEGA], ["12"]), ValueError, "unknown qubit label '12'"),
    "cnot_unnormalized_input": (
        lambda: cnot_pulse_sweep(_LAMBDA, [OMEGA], [StateVector(_LAMBDA.layout(), 2 * _UNIT_10)]),
        ValueError,
        "input state must be normalized, got norm 2.0",
    ),
    "cnot_input_on_wrong_layout": (
        lambda: cnot_pulse_sweep(_LAMBDA, [OMEGA], [qubit_state(SystemSpec(3, n_max=3), "10")]),
        ValueError,
        "input state does not live on the spec layout",
    ),
    "cnot_input_without_qubit_part": (
        lambda: cnot_pulse_sweep(_LAMBDA, [OMEGA], [basis_state(_LAMBDA.layout(), (2, 0, 0))]),
        ValueError,
        "input state's qubit part (cavity empty) must be normalized, got norm 0.0",
    ),
    "cnot_omega_0_and_bad_label": (
        lambda: cnot_pulse_sweep(_LAMBDA, [0.0], ["10", "12"]), ValueError, "unknown qubit label '12'"
    ),
    "pair_second_system_overflows": (
        lambda: prepare_pair_sweep([_PAIR, SystemSpec(kappa=1e200)], [(OMEGA, 100.0)]),
        NumericalError,
        "final-state amplitudes not finite at system 1, omega_minus=0.02, T=100",
    ),
    "cnot_second_system_overflows": (
        lambda: cnot_pulse_sweep([_LAMBDA, SystemSpec(3, kappa=1e200)], [OMEGA], ["10"]),
        NumericalError,
        "final-state amplitudes not finite at system 1, omega=0.02, input=10",
    ),
    "pair_lazy_points": (
        lambda: prepare_pair_sweep(_PAIR, ((OMEGA, t) for t in (1.0, -1.0))),
        ValueError,
        "evolution time must be >= 0, got -1.0",
    ),
    "cnot_lazy_omegas": (
        lambda: cnot_pulse_sweep(_LAMBDA, (omega for omega in (OMEGA, 0.0)), ["10"]),
        ValueError,
        "omega must be nonzero",
    ),
    "cnot_lazy_inputs": (
        lambda: cnot_pulse_sweep(_LAMBDA, [OMEGA], (label for label in ("10", "12"))),
        ValueError,
        "unknown qubit label '12'",
    ),
}


@pytest.mark.parametrize("call, error, message", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_sweep_refusals_keep_their_order_and_messages(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error
    assert str(refused.value) == message
