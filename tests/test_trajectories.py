import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import fourth_order_survival_chain

from zenobell.dynamics import (
    SystemSpec,
    cnot_drive,
    decay_operators,
    h_cond,
    h_cond_lambda,
    h_cond_two_level,
    no_photon_probability,
    pair_drive,
)
from zenobell import trajectories
from zenobell.gates import cnot_duration
from zenobell.hilbert import OperatorMatrix, StateVector, basis_state, compose
from zenobell.trajectories import (
    _BLOCK,
    _MIN_STEPS,
    _rate_terms,
    _survival_chain,
    first_jump_histogram,
    run_trajectories,
)

SQRT2 = math.sqrt(2.0)


def cavity_decay_setup(kappa=1.0, n_max=2):
    # the atom-free spec: the bare leaky cavity, from one photon
    spec = SystemSpec(n_atoms=0, kappa=kappa, n_max=n_max)
    return h_cond(spec), decay_operators(spec), basis_state(spec.layout(), (1,))


def pair_setup(gamma=0.01, omega=0.02):
    spec = SystemSpec(atom_levels=2, g=1.0, kappa=1.0, gamma=gamma, n_max=2)
    h = h_cond_two_level(spec, {(1, "0-1"): omega / SQRT2, (2, "0-1"): -omega / SQRT2})
    return spec, h, decay_operators(spec), basis_state(h.layout, (0, 0, 0))


def test_jump_rates_match_anti_hermitian_part():
    # sum_k L_k^dag L_k = i (H - H^dag) ties the sqrt(2 kappa) / sqrt(2 Gamma)
    # rate convention to the conditional Hamiltonian, for both schemes
    for spec in (
        SystemSpec(atom_levels=2, g=1.0, kappa=0.8, gamma=0.05, n_max=2),
        SystemSpec(atom_levels=3, g=1.0, kappa=1.3, gamma=0.02, n_max=2),
    ):
        h = (h_cond_two_level if spec.atom_levels == 2 else h_cond_lambda)(spec).entries
        total = sum(op.entries.conj().T @ op.entries for op in decay_operators(spec))
        assert np.max(np.abs(total - 1j * (h - h.conj().T))) <= 1e-12


def test_rows_of_a_run_take_the_rate_terms_once(monkeypatch):
    # the rows of a run share H and the L_k: the SVD 2-norms that bound dt
    # and sum_k L_k^dag L_k are taken on the first row only, and every row
    # equals its run with the terms taken afresh
    h, jump, psi0 = cavity_decay_setup(n_max=4)
    t_ends = (0.25, 0.5, 1.0, 2.0)
    fresh = []
    for t_end in t_ends:
        trajectories._rate_terms_of.cache_clear()
        fresh.append(run_trajectories(h, jump, psi0, t_end, 500, seed=9))
    svds, norm = [], np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *args: svds.append(args) or norm(*args))
    trajectories._rate_terms_of.cache_clear()
    rows = [run_trajectories(h, jump, psi0, t_end, 500, seed=9) for t_end in t_ends]
    assert len(svds) == 1 + len(jump)
    for row, alone in zip(rows, fresh):
        assert (row.dt, row.p0_estimate) == (alone.dt, alone.p0_estimate)
        assert row.survival.tobytes() == alone.survival.tobytes()


def test_hermitian_hamiltonian_no_jump_ops_gives_unity():
    layout = compose([("q", 2)])
    h = OperatorMatrix(layout, np.array([[0.0, 0.3], [0.3, 0.0]]))
    batch = run_trajectories(h, [], basis_state(layout, (0,)), 5.0, 200, seed=1)
    assert batch.p0_estimate == 1.0
    assert batch.p0_stderr == 0.0
    assert sum(count for _, count in first_jump_histogram(batch)) == 0


def test_cavity_decay_matches_exponential():
    h, jump, psi0 = cavity_decay_setup(kappa=1.0)
    t = 1.0
    batch = run_trajectories(h, jump, psi0, t, 10_000, seed=2024)
    exact = math.exp(-2.0 * t)
    sigma = math.sqrt(exact * (1 - exact) / 10_000)
    assert abs(batch.p0_estimate - exact) <= 4 * sigma


def test_pair_pulse_matches_deterministic_no_photon_probability():
    spec, h, jump, psi0 = pair_setup()
    t_end = math.pi / 0.02
    batch = run_trajectories(h, jump, psi0, t_end, 10_000, seed=42)
    p0_det = no_photon_probability(h, psi0, t_end)
    assert abs(batch.p0_estimate - p0_det) <= 4 * batch.p0_stderr
    assert sum(count for _, count in first_jump_histogram(batch)) == round((1 - batch.p0_estimate) * 10_000)


def test_batches_are_bit_reproducible():
    h, jump, psi0 = cavity_decay_setup()
    a = run_trajectories(h, jump, psi0, 0.7, 500, seed=7)
    b = run_trajectories(h, jump, psi0, 0.7, 500, seed=7)
    assert a == b
    assert np.array_equal(a.draws, b.draws) and np.array_equal(a.survival, b.survival)
    c = run_trajectories(h, jump, psi0, 0.7, 500, seed=8)
    assert not np.array_equal(c.draws, a.draws)
    assert np.array_equal(c.survival, a.survival)  # the chain does not depend on the seed


def test_dt_halving_is_stable():
    h, jump, psi0 = cavity_decay_setup()
    coarse = run_trajectories(h, jump, psi0, 1.0, 10_000, seed=5)
    fine = run_trajectories(h, jump, psi0, 1.0, 10_000, seed=5, dt=coarse.dt / 2)
    assert abs(coarse.p0_estimate - fine.p0_estimate) < max(coarse.p0_stderr, 1e-12)


def test_histogram_edges_cover_interval():
    h, jump, psi0 = cavity_decay_setup()
    batch = run_trajectories(h, jump, psi0, 2.0, 1000, seed=3)
    histogram = first_jump_histogram(batch)
    edges = [edge for edge, _ in histogram]
    assert len(edges) == 50
    assert edges[0] == 0.0
    assert edges[-1] == pytest.approx(2.0 - 2.0 / 50)
    # every jumped trajectory lands in a bin of (0, t_end]
    assert sum(count for _, count in histogram) == np.count_nonzero(batch.draws >= batch.survival[-1]) > 0
    # a zero-length row has no jumps, binned over (0, 1]
    histogram = first_jump_histogram(run_trajectories(h, jump, psi0, 0.0, 100, seed=3))
    assert [edge for edge, _ in histogram] == pytest.approx(np.linspace(0.0, 1.0, 51)[:-1].tolist())
    assert sum(count for _, count in histogram) == 0


def test_validation_errors():
    h, jump, psi0 = cavity_decay_setup()
    with pytest.raises(ValueError):
        run_trajectories(h, jump, psi0, 1.0, 0, seed=1)
    with pytest.raises(ValueError):
        run_trajectories(h, jump, psi0, -1.0, 10, seed=1)
    with pytest.raises(ValueError):
        run_trajectories(h, jump, psi0, 1.0, 10, seed=1, dt=1.0)  # unstable step
    layout2 = compose([("cav", 2)])
    with pytest.raises(ValueError):
        run_trajectories(h, jump, basis_state(layout2, (0,)), 1.0, 10, seed=1)
    unnormalized = basis_state(h.layout, (1,))
    unnormalized = type(unnormalized)(h.layout, 0.5 * unnormalized.amplitudes)
    with pytest.raises(ValueError):
        run_trajectories(h, jump, unnormalized, 1.0, 10, seed=1)


@pytest.mark.parametrize(
    "t_end, dt, refused",
    [(math.nan, None, "t_end must be >= 0"), (1.0, math.nan, "dt must be > 0, got nan")],
    ids=["t_end", "dt"],
)
def test_a_nan_time_is_refused(t_end, dt, refused):
    # a nan t_end would run as t_end = 0, with p0 = 1; a nan dt would fail counting its steps
    h, jump, psi0 = cavity_decay_setup()
    with pytest.raises(ValueError, match=f"^{refused}$"):
        run_trajectories(h, jump, psi0, t_end, 100, 0, dt=dt)


@pytest.mark.parametrize("n_traj", [math.nan, 2.5, 100.0, "100", True], ids=["nan", "fraction", "float", "str", "bool"])
def test_a_non_integer_n_traj_is_refused_before_any_draw(n_traj):
    # it reached rng.random, which failed with numpy's TypeError; True ran
    # the whole survival chain before that draw failed
    h, jump, psi0 = cavity_decay_setup()
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^n_traj must be an integer, got {n_traj!r}$"):
        run_trajectories(h, jump, psi0, 1.0, n_traj, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "n_traj, message",
    [
        (0, "n_traj must be >= 1, got 0"),
        (np.int64(-3), "n_traj must be >= 1, got -3"),
        (10**7 + 1, "n_traj = 10000001 trajectories exceeds the limit of 10000000"),
    ],
    ids=["0", "negative", "cap_plus_1"],
)
def test_an_n_traj_out_of_range_is_refused_before_any_draw(n_traj, message):
    h, jump, psi0 = cavity_decay_setup()
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError) as refused:
        run_trajectories(h, jump, psi0, 1.0, n_traj, rng)
    assert str(refused.value) == message
    assert rng.bit_generator.state == state


def test_sampler_matches_explicit_bernoulli_chain():
    # independent oracle: simulate the per-step chain literally, with
    # its own RNG, and compare the no-jump fraction and jump-time CDF
    h, jump, psi0 = cavity_decay_setup(kappa=1.0)
    t_end, n_traj = 1.2, 4000
    batch = run_trajectories(h, jump, psi0, t_end, n_traj, seed=31)

    dt = batch.dt
    n_steps = round(t_end / dt)
    survival = fourth_order_survival_chain(h.entries, [op.entries for op in jump], psi0.amplitudes, dt, n_steps)
    dp = 1.0 - survival[1:] / survival[:-1]
    rng = np.random.default_rng(123456)
    first = np.full(n_traj, -1)
    for traj in range(n_traj):
        for step in range(n_steps):
            if rng.random() < dp[step]:
                first[traj] = step + 1
                break
    p0_oracle = np.mean(first < 0)
    sigma = math.sqrt(max(p0_oracle * (1 - p0_oracle), batch.p0_estimate * (1 - batch.p0_estimate)) / n_traj)
    assert abs(batch.p0_estimate - p0_oracle) <= 4 * math.sqrt(2) * sigma
    # jump-time histograms agree in each of the 50 bins at the four-sigma level
    histogram = first_jump_histogram(batch)
    oracle_counts, _ = np.histogram(first[first > 0] * dt, bins=50, range=(0.0, t_end))
    assert len(histogram) == len(oracle_counts) == 50
    for (_, count), expected in zip(histogram, oracle_counts):
        spread = math.sqrt(max(expected, count, 1.0))
        assert abs(count - expected) <= 4 * math.sqrt(2) * spread


def test_decay_operators_lambda_branching():
    spec = SystemSpec(atom_levels=3, g=1.0, kappa=0.0, gamma=0.3, n_max=1)
    ops = decay_operators(spec)
    # two atoms x two ground states, no cavity op since kappa = 0
    assert len(ops) == 4
    total = sum(op.entries.conj().T @ op.entries for op in ops)
    layout = spec.layout()
    for occ, count in (((2, 2, 0), 2), ((2, 0, 0), 1), ((0, 0, 0), 0)):
        i = layout.basis_index(occ)
        assert total[i, i] == pytest.approx(2 * spec.gamma * count)


def test_seeds_differing_in_the_last_bit_give_different_batches():
    # s and s ^ 1 once drew the same set of uniforms (seed XOR index)
    h, jump, psi0 = cavity_decay_setup()
    for seed in (0, 4, 1000):
        a = run_trajectories(h, jump, psi0, 0.5, 2000, seed=seed)
        b = run_trajectories(h, jump, psi0, 0.5, 2000, seed=seed ^ 1)
        assert np.array_equal(a.survival, b.survival)
        # sorted, so that one set of uniforms in another order does not pass
        assert not np.array_equal(np.sort(a.draws), np.sort(b.draws))


def test_trajectory_i_takes_draw_i_of_the_batch_stream():
    h, jump, psi0 = cavity_decay_setup()
    t_end, n_traj, seed = 0.8, 3000, 77
    batch = run_trajectories(h, jump, psi0, t_end, n_traj, seed=seed)
    n_steps = round(t_end / batch.dt)
    survival = fourth_order_survival_chain(h.entries, [op.entries for op in jump], psi0.amplitudes, batch.dt, n_steps)
    draws = np.random.default_rng(seed).random(n_traj)
    assert batch.p0_estimate == np.count_nonzero(draws < survival[-1]) / n_traj
    # a chunk of trajectories regenerates its draws by advancing the stream
    chunk = np.random.default_rng(seed)
    chunk.bit_generator.advance(1000)
    assert np.array_equal(chunk.random(500), draws[1000:1500])


def _chain_systems():
    pair_spec = SystemSpec(atom_levels=2, g=1.0, kappa=1.0, gamma=0.05, n_max=2)
    pair_h = h_cond_two_level(pair_spec, {(1, "0-1"): 0.4 / SQRT2, (2, "0-1"): -0.4 / SQRT2})
    lam_spec = SystemSpec(atom_levels=3, g=1.0, kappa=0.7, gamma=0.05, n_max=2)
    lam_h = h_cond_lambda(lam_spec, {(1, "1-2"): 0.3 * SQRT2, (2, "0-2"): 0.3 * SQRT2})
    cav_h, cav_jump, cav_psi0 = cavity_decay_setup(kappa=1.0)
    herm_layout = compose([("q", 3)])
    herm = np.array([[0.2, 0.3 - 0.1j, 0.0], [0.3 + 0.1j, -0.4, 0.5], [0.0, 0.5, 0.1]])
    return {
        "pair": (pair_h, decay_operators(pair_spec), basis_state(pair_h.layout, (0, 0, 0))),
        "lambda": (lam_h, decay_operators(lam_spec), basis_state(lam_h.layout, (1, 0, 0))),
        "cavity": (cav_h, cav_jump, cav_psi0),
        "hermitian": (OperatorMatrix(herm_layout, herm), [], basis_state(herm_layout, (0,))),
    }


@pytest.mark.parametrize("system", ["pair", "lambda", "cavity", "hermitian"])
def test_survival_chain_matches_per_step_euler_loop(system):
    h, jump, psi0 = _chain_systems()[system]
    ls = [op.entries for op in jump]
    dt, decay = _rate_terms(h.entries, ls)
    for n_steps in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 37):
        chain = _survival_chain(h.entries, decay, psi0.amplitudes, dt, n_steps)
        oracle = fourth_order_survival_chain(h.entries, ls, psi0.amplitudes, dt, n_steps)
        assert chain.shape == (n_steps + 1,)
        np.testing.assert_allclose(chain, oracle, rtol=1e-12, atol=0)
        np.testing.assert_allclose(1.0 - chain, 1.0 - oracle, rtol=0, atol=1e-12 * max(1.0 - oracle[-1], 1e-300))
    if system != "hermitian":
        assert oracle[-1] < 0.999  # the chain has something to check


def test_survival_chain_spans_several_blocks_on_a_large_space():
    # 200 states from a spread start, over two full blocks and a partial one
    h, jump, psi0 = cavity_decay_setup(kappa=0.01, n_max=199)
    psi0 = type(psi0)(psi0.layout, np.ones(200) / math.sqrt(200.0))
    ls = [op.entries for op in jump]
    dt, decay = _rate_terms(h.entries, ls)
    n_steps = 2 * _BLOCK + 37
    chain = _survival_chain(h.entries, decay, psi0.amplitudes, dt, n_steps)
    oracle = fourth_order_survival_chain(h.entries, ls, psi0.amplitudes, dt, n_steps)
    np.testing.assert_allclose(chain, oracle, rtol=1e-12, atol=0)
    assert oracle[-1] < 0.99


def test_survival_chain_lands_on_the_exact_no_photon_probability():
    # the jumps benchmark's pair row, and the Lambda |10> input at the CNOT
    # duration, at the default dt
    pair = SystemSpec(atom_levels=2, g=1.0, kappa=1.0, gamma=1e-3, n_max=2)
    lam = SystemSpec(atom_levels=3, g=1.0, kappa=1.0, gamma=1e-3, n_max=2)
    for spec, h_cond, drive, occupation, t_end in (
        (pair, h_cond_two_level, pair_drive(0.02), (0, 0, 0), math.pi / 0.02),
        (lam, h_cond_lambda, cnot_drive(0.02), (1, 0, 0), cnot_duration(0.02)),
    ):
        h = h_cond(spec, drive)
        dt, decay = _rate_terms(h.entries, [op.entries for op in decay_operators(spec)])
        psi0 = basis_state(h.layout, occupation)
        n_steps = math.ceil(t_end / dt)
        chain = _survival_chain(h.entries, decay, psi0.amplitudes, t_end / n_steps, n_steps)
        assert abs(chain[-1] - no_photon_probability(h, psi0, t_end)) <= 1e-7


def test_step_and_trajectory_budgets_are_checked_before_allocating():
    h, jump, psi0 = cavity_decay_setup()
    with pytest.raises(ValueError, match=r"needs 1000000001 steps"):
        run_trajectories(h, jump, psi0, 1.0, 10, seed=1, dt=1e-9 * (1 - 1e-12))
    with pytest.raises(ValueError, match="n_traj = 10000001"):
        run_trajectories(h, jump, psi0, 1.0, 10**7 + 1, seed=1)


_rabi = st.floats(-0.5, 0.5).filter(lambda x: abs(x) > 1e-3)


@settings(max_examples=25, deadline=None)
@given(
    omega1=_rabi,
    omega2=_rabi,
    kappa=st.floats(0.1, 2.0),
    gamma=st.floats(0.0, 0.1),
    t_end=st.floats(0.1, 30.0),
    seed=st.integers(0, 2**32),
)
def test_survival_and_conditional_norm_never_increase(omega1, omega2, kappa, gamma, t_end, seed):
    spec = SystemSpec(atom_levels=2, g=1.0, kappa=kappa, gamma=gamma, n_max=2)
    h = h_cond_two_level(spec, {(1, "0-1"): omega1, (2, "0-1"): omega2})
    jump = decay_operators(spec)
    psi0 = basis_state(h.layout, (0, 0, 0))
    dt, decay = _rate_terms(h.entries, [op.entries for op in jump])
    chain = _survival_chain(h.entries, decay, psi0.amplitudes, dt, math.ceil(t_end / dt))
    assert chain[0] == 1.0
    assert np.all(np.diff(chain) <= 0.0)
    assert chain[-1] > 0.0

    norms = [no_photon_probability(h, psi0, t) for t in np.linspace(0.0, t_end, 9)]
    assert norms[0] == pytest.approx(1.0, abs=1e-12)
    assert all(later <= earlier + 1e-12 for earlier, later in zip(norms, norms[1:]))
    assert norms[-1] > 0.0

    n_traj = 2000
    batch = run_trajectories(h, jump, psi0, t_end, n_traj, seed=seed)
    p0 = norms[-1]
    sigma = max(math.sqrt(p0 * (1.0 - p0) / n_traj), 1.0 / n_traj)
    assert abs(batch.p0_estimate - p0) <= 6.0 * sigma


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _random_systems(draw):
    """A spec of 0-3 atoms, random rates, a random subset of its lasers, a random unit start state and t_end."""
    spec = SystemSpec(
        atom_levels=draw(st.sampled_from((2, 3))),
        n_atoms=draw(st.integers(0, 3)),
        g=draw(_log_uniform(0.1, 3.0)),
        kappa=draw(_log_uniform(0.01, 3.0)),
        gamma=draw(st.one_of(st.just(0.0), _log_uniform(1e-4, 1.0))),
        n_max=draw(st.integers(1, 3)),
    )
    transitions = ["0-1"] if spec.atom_levels == 2 else ["0-2", "1-2"]
    keys = [(atom, trans) for atom in range(1, spec.n_atoms + 1) for trans in transitions]
    lasers = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    part = st.floats(-1.0, 1.0)
    drive = {key: complex(draw(part), draw(part)) for key in lasers}
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    d = spec.layout().total_dim
    psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
    return spec, drive, psi0 / np.linalg.norm(psi0), draw(st.floats(0.1, 30.0))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_random_systems())
def test_jump_chain_converges_on_p0_det_on_random_systems(system):
    # the fourth-order chain and the Pade expm are independent routes to the
    # no-jump probability: where the chain's gap to p0_det at n steps is
    # above a floor, two halvings of the step shrink it at least 4-fold (a
    # fourth-order chain gives about 16^2; 2,000 random systems gave 5.3 at
    # least).  A jump rate that disagrees with H leaves a gap that does not shrink.
    spec, drive, psi0, t_end = system
    h = h_cond(spec, drive)
    dt_max, decay = _rate_terms(h.entries, [op.entries for op in decay_operators(spec)])
    n = max(_MIN_STEPS, math.ceil(t_end / dt_max))
    p0_det = no_photon_probability(h, StateVector(h.layout, psi0), t_end)
    gap, gap_4n = (abs(_survival_chain(h.entries, decay, psi0, t_end / m, m)[-1] - p0_det) for m in (n, 4 * n))
    if gap > 1e-8:
        assert gap_4n <= gap / 4.0
