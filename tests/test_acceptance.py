"""Acceptance suite: one pass/fail line per criterion (run with -s to stream).

Criteria 4 and 5 are asserted twice: once at their literally stated
parameter point (gamma = 0.01 g with |Omega| = 0.02 g) and once at a
regime-compliant point.

The scheme promises p0 >= 0.9 and the Gamma-free target state only under
gamma << |Omega| << g^2/kappa.  The stated point has gamma/|Omega| = 0.5,
where the antisymmetric state |a> that the pulse passes through decays
at a rate comparable to the drive: even the leak-free projected dynamics
keep only p0 ~ 0.39 (pair) and ~ 0.55 (CNOT |10>, |11>), so p0 >= 0.9 is
not attainable by any correct implementation.  At the stated point the
tests therefore check that the run is flagged out of regime, and score
the conditional state with the criterion's own thresholds (F >= 0.95,
|delta alpha| <= 0.05) against the state the projected dynamics predict
once Gamma is included (closed forms in ``oracles``); p0 is checked
against damping in the subspace times leakage out of it, and the
full-space propagation against an independent integrator.  The
regime-compliant variants assert p0 >= 0.9 and the Gamma-free targets
where the strong-driving condition is met.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import zenobell
from zenobell.bell import bs_landscape, bs_reduced, bs_value, correlation, mermin_n, AnalyzerSettings
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
    no_photon_probability,
)
from zenobell.gates import QUBIT_LABELS, cnot_duration, cnot_pulse, prepare_pair, qubit_state
from zenobell.hilbert import basis_state, compose, fidelity, ladder, state_from_amplitudes, OperatorMatrix
from zenobell.pbg import TransitPlan, bell_target, jc_amplitudes, pbg_final_state
from zenobell.selftest import run_selftest
from zenobell.states import entangled_pair_state, ghz_state, pair_target_alpha, qubit_layout
from zenobell.trajectories import run_trajectories

from oracles import damped_cnot_amplitudes, damped_pair_amplitudes, integrate_schrodinger

SQRT2 = math.sqrt(2.0)
TWO_SQRT2 = 2.0 * SQRT2

STATED_GAMMA = 0.01   # the literal criterion point: gamma/|Omega| = 0.5
REGIME_GAMMA = 0.0002  # strong-driving condition satisfied
OMEGA = 0.02

# p0 at the stated point is compared with the factorised estimate
# p0_DFS(Gamma) * p0(Gamma = 0): damping inside the decoherence-free
# subspace times leakage out of it, with the interplay of the two
# neglected.  That interplay is what the tolerance absorbs; the observed
# gaps are 0.007 (pair) and 0.001 / 0 / 0.012 / 0.002 (CNOT |00>, |01>,
# |10>, |11>), while Gamma off by a factor 2 either way moves the CNOT
# |10>, |11> runs 0.03 to 0.10 away from the estimate.
P0_FACTORISED_TOL = 0.02
PROPAGATION_TOL = 1e-8


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} [{criterion}] {detail}")
    assert ok, f"{criterion}: {detail}"


def propagation_error(h, psi0, duration, final) -> float:
    """Largest amplitude deviation of ``final`` from the independent integrator."""
    exact = integrate_schrodinger(h.entries, psi0.amplitudes, duration)
    return float(np.max(np.abs(exact - final.amplitudes)))


def pair_spec(gamma):
    return SystemSpec(atom_levels=2, n_atoms=2, g=1.0, kappa=1.0, gamma=gamma, n_max=2)


def lambda_spec(gamma):
    return SystemSpec(atom_levels=3, n_atoms=2, g=1.0, kappa=1.0, gamma=gamma, n_max=2)


# ----------------------------------------------------------------- criterion 1


def test_criterion_1_bell_maximum():
    start = time.perf_counter()
    grid_t = [k * 2.0 * math.pi / 100 for k in range(101)]
    grid_v = [k * math.pi / 100 for k in range(101)]
    landscape = bs_landscape(grid_t, grid_v)
    best = [column[int(np.argmax(landscape.b_s))] for column in landscape]
    peak = (np.abs(landscape.omega_T - math.pi) < 1e-12) & (np.abs(landscape.vartheta - math.pi / 4) < 1e-12)
    at_peak = [column[int(np.flatnonzero(peak)[0])] for column in landscape]
    boundary = bs_value(
        entangled_pair_state(math.sqrt(1.0 / SQRT2)), AnalyzerSettings.from_single_angle(math.pi / 4)
    )
    elapsed = time.perf_counter() - start
    ok = (
        abs(best[2] - TWO_SQRT2) <= 1e-6
        and abs(at_peak[2] - best[2]) <= 1e-12
        and at_peak[3]
        and abs(abs(boundary.b_s) - 2.0) <= 1e-9
        and elapsed < 1.0
    )
    report(
        "criterion 1: Bell landscape maximum",
        ok,
        f"max |B_S| = {best[2]:.9f} at (omega_T, vartheta) = ({best[0]:.6f}, {best[1]:.6f}), "
        f"boundary |B_S| = {abs(boundary.b_s):.12f}, {elapsed:.2f} s",
    )


# ----------------------------------------------------------------- criterion 2


def test_criterion_2_mermin():
    f_ghz = mermin_n(ghz_state(3)).value
    f_zeros = mermin_n(basis_state(qubit_layout(3), (0, 0, 0))).value
    ok = abs(f_ghz - 4.0) <= 1e-12 and abs(f_zeros) <= 1e-12
    report("criterion 2: Mermin values", ok, f"F(GHZ) = {f_ghz:.14f}, F(|000>) = {f_zeros:.2e}")


# ----------------------------------------------------------------- criterion 3


def test_criterion_3_pulse_family_correlation_closure():
    worst = 0.0
    for alpha_abs in np.linspace(0.0, 1.0, 20):
        state = entangled_pair_state(alpha_abs)
        for vartheta in np.linspace(0.0, 2.0 * math.pi, 20):
            got = correlation(state, 0, 1, float(vartheta), 0.0)
            expected = -(alpha_abs**2) * math.cos(float(vartheta))
            worst = max(worst, abs(got - expected))
    report("criterion 3: correlation closed form", worst <= 1e-10, f"max deviation {worst:.2e} over 20x20 grid")


# ----------------------------------------------------------------- criterion 4


def test_criterion_4_pair_preparation_stated_point():
    # Literal criterion parameters.  gamma/|Omega| = 0.5 is outside the
    # strong-driving regime, where p0 >= 0.9 is not attainable (see the
    # module docstring), so the fidelity and alpha thresholds are scored
    # against the Gamma-damped projected dynamics, not the Gamma-free target.
    start = time.perf_counter()
    duration = math.pi / OMEGA
    with pytest.warns(UserWarning, match="gamma_over_omega"):
        rec = prepare_pair(pair_spec(STATED_GAMMA), OMEGA, duration)
    leak = prepare_pair(pair_spec(0.0), OMEGA, duration)  # leakage without damping
    elapsed = time.perf_counter() - start

    c00, ca = damped_pair_amplitudes(OMEGA, STATED_GAMMA, duration)
    dfs = state_from_amplitudes(rec.final_state.layout, {(0, 0, 0): c00, (1, 0, 0): ca / SQRT2, (0, 1, 0): -ca / SQRT2})
    p0_dfs = dfs.norm() ** 2
    fid = fidelity(rec.final_state, dfs.normalized())
    d_alpha = abs(rec.alpha - ca / math.sqrt(p0_dfs))
    p0_gap = abs(rec.p0 - p0_dfs * leak.p0)
    drive = {(1, "0-1"): OMEGA / SQRT2, (2, "0-1"): -OMEGA / SQRT2}
    psi0 = basis_state(rec.final_state.layout, (0, 0, 0))
    prop = max(
        propagation_error(h_cond_two_level(pair_spec(STATED_GAMMA).with_rabi(drive)), psi0, duration, rec.final_state),
        propagation_error(h_cond_two_level(pair_spec(0.0).with_rabi(drive)), psi0, duration, leak.final_state),
    )
    ok = (
        not rec.regime.in_regime
        and rec.regime.ratios["gamma_over_omega"] == 0.5
        and fid >= 0.95
        and d_alpha <= 0.05
        and p0_gap <= P0_FACTORISED_TOL
        and prop <= PROPAGATION_TOL
        and elapsed < 10.0
    )
    report(
        "criterion 4 (stated point): pair preparation at gamma = 0.01 g",
        ok,
        f"out of regime: {not rec.regime.in_regime}, fidelity vs damped DFS = {fid:.4f} (>= 0.95?), "
        f"|delta alpha| = {d_alpha:.4f} (<= 0.05?), p0 = {rec.p0:.4f} vs {p0_dfs:.4f} x {leak.p0:.4f} "
        f"(within {P0_FACTORISED_TOL}?), propagation error {prop:.1e}, {elapsed:.2f} s",
    )


def test_criterion_4_pair_preparation_regime_compliant():
    start = time.perf_counter()
    rec = prepare_pair(pair_spec(REGIME_GAMMA), OMEGA, math.pi / OMEGA)
    # alpha tracks the pulse solution across |Omega| T in [0, 2 pi] on a
    # regime-compliant grid
    worst = 0.0
    import warnings as _w

    for omega in (0.01, 0.02, 0.05):
        for k in range(13):
            t = k * 2.0 * math.pi / (12.0 * omega)
            with _w.catch_warnings():
                _w.simplefilter("ignore")
                r = prepare_pair(pair_spec(0.0005), omega, t)
            worst = max(worst, abs(r.alpha - pair_target_alpha(omega, t)))
    elapsed = time.perf_counter() - start
    ok = rec.regime.in_regime and rec.fidelity >= 0.95 and rec.p0 >= 0.9 and worst <= 0.05 and elapsed < 10.0
    report(
        "criterion 4 (regime-compliant): pair preparation",
        ok,
        f"gamma = {REGIME_GAMMA} g: fidelity = {rec.fidelity:.4f} >= 0.95, p0 = {rec.p0:.4f} >= 0.9, "
        f"max |delta alpha| = {worst:.4f} <= 0.05, {elapsed:.2f} s",
    )


# ----------------------------------------------------------------- criterion 5


def test_criterion_5_cnot_stated_point():
    # Literal criterion parameters.  |10> and |11> pass through the
    # antisymmetric state, which decays at gamma = |Omega|/2, so the
    # fidelity threshold is scored against the Gamma-damped projected
    # dynamics and p0 against damping times leakage (module docstring).
    start = time.perf_counter()
    spec, spec0 = lambda_spec(STATED_GAMMA), lambda_spec(0.0)
    with pytest.warns(UserWarning, match="gamma_over_omega"):
        recs = {label: cnot_pulse(spec, OMEGA, qubit_state(spec, label)) for label in QUBIT_LABELS}
    leaks = {label: cnot_pulse(spec0, OMEGA, qubit_state(spec0, label)) for label in QUBIT_LABELS}
    elapsed = time.perf_counter() - start

    duration = cnot_duration(OMEGA)
    layout = spec.layout()
    drive = {(1, "1-2"): SQRT2 * OMEGA, (2, "0-2"): SQRT2 * OMEGA}
    h, h0 = h_cond_lambda(spec.with_rabi(drive)), h_cond_lambda(spec0.with_rabi(drive))
    fids, gaps, prop = {}, {}, 0.0
    for label in QUBIT_LABELS:
        rec, leak, psi0 = recs[label], leaks[label], qubit_state(spec, label)
        if label in ("10", "11"):
            a10, aa, a11 = damped_cnot_amplitudes(OMEGA, STATED_GAMMA, duration, label)
            dfs = state_from_amplitudes(
                layout, {(1, 0, 0): a10, (1, 1, 0): a11, (1, 2, 0): aa / SQRT2, (2, 1, 0): -aa / SQRT2}
            )
        else:
            # the projected Hamiltonian does not couple |00> or |01>, and
            # the ideal CNOT leaves them unchanged
            dfs = psi0
        p0_dfs = dfs.norm() ** 2
        fids[label] = fidelity(rec.final_state, dfs.normalized())
        gaps[label] = abs(rec.p0 - p0_dfs * leak.p0)
        prop = max(
            prop,
            propagation_error(h, psi0, duration, rec.final_state),
            propagation_error(h0, psi0, duration, leak.final_state),
        )
    out_of_regime = all(not r.regime.in_regime and r.regime.ratios["gamma_over_omega"] == 0.5 for r in recs.values())
    ok = (
        out_of_regime
        and all(f >= 0.95 for f in fids.values())
        and all(gap <= P0_FACTORISED_TOL for gap in gaps.values())
        and prop <= PROPAGATION_TOL
        and elapsed < 30.0
    )
    detail = ", ".join(f"F({k}) = {v:.4f}" for k, v in fids.items())
    report(
        "criterion 5 (stated point): CNOT at gamma = 0.01 g",
        ok,
        f"out of regime: {out_of_regime}, vs damped DFS {detail} (each >= 0.95?), "
        f"max p0 gap {max(gaps.values()):.4f} (<= {P0_FACTORISED_TOL}?), propagation error {prop:.1e}, "
        f"{elapsed:.2f} s",
    )


def test_criterion_5_cnot_effective_hamiltonian_rabi():
    start = time.perf_counter()
    spec = lambda_spec(0.0).with_rabi({(1, "1-2"): SQRT2 * OMEGA, (2, "0-2"): SQRT2 * OMEGA})
    h = h_cond_lambda(spec)
    layout = h.layout
    eff = effective_hamiltonian(h, subspace_from_vectors(layout, lambda_dfs_vectors(layout)))
    out = evolve_no_jump(eff.operator, basis_state(layout, (1, 0, 0)), cnot_duration(OMEGA))
    fid = fidelity(out.normalized(), basis_state(layout, (1, 1, 0)))
    elapsed = time.perf_counter() - start
    report(
        "criterion 5 (projected dynamics): |10> -> |11> exactly",
        fid >= 1.0 - 1e-10 and elapsed < 30.0,
        f"fidelity = {fid:.14f}, {elapsed:.2f} s",
    )


def test_criterion_5_cnot_regime_compliant():
    start = time.perf_counter()
    spec = lambda_spec(REGIME_GAMMA)
    fids, p0s = {}, {}
    for label in QUBIT_LABELS:
        rec = cnot_pulse(spec, OMEGA, qubit_state(spec, label))
        fids[label], p0s[label] = rec.fidelity, rec.p0
    elapsed = time.perf_counter() - start
    ok = all(f >= 0.95 for f in fids.values()) and all(p >= 0.9 for p in p0s.values()) and elapsed < 30.0
    detail = ", ".join(f"F({k}) = {v:.4f}" for k, v in fids.items())
    report("criterion 5 (regime-compliant): CNOT", ok, f"{detail}, min p0 = {min(p0s.values()):.4f}, {elapsed:.2f} s")


# ----------------------------------------------------------------- criterion 6


def test_criterion_6_effective_hamiltonian_extraction():
    # two-level scheme
    om = OMEGA
    spec2 = pair_spec(0.0).with_rabi({(1, "0-1"): om / SQRT2, (2, "0-1"): -om / SQRT2})
    h2 = h_cond_two_level(spec2)
    layout2 = h2.layout
    v00, va = pair_dfs_vectors(layout2)
    eff2 = effective_hamiltonian(h2, subspace_from_vectors(layout2, [v00, va]))
    outer = np.outer(va.amplitudes, v00.amplitudes.conj())
    expected2 = (om / 2) * (outer + outer.conj().T)
    dev2 = float(np.max(np.abs(eff2.operator.entries - expected2)))

    # Lambda scheme
    spec3 = lambda_spec(0.0).with_rabi({(1, "1-2"): SQRT2 * om, (2, "0-2"): SQRT2 * om})
    h3 = h_cond_lambda(spec3)
    layout3 = h3.layout
    vecs = lambda_dfs_vectors(layout3)
    eff3 = effective_hamiltonian(h3, subspace_from_vectors(layout3, vecs))
    s10 = basis_state(layout3, (1, 0, 0)).amplitudes
    s11 = basis_state(layout3, (1, 1, 0)).amplitudes
    a = vecs[4].amplitudes
    expected3 = (om / 2) * (np.outer(s10, a.conj()) - np.outer(a, s11.conj()))
    expected3 = expected3 + expected3.conj().T
    dev3 = float(np.max(np.abs(eff3.operator.entries - expected3)))

    # numeric finder vs analytic bases
    found2 = find_dfs(h_cond_two_level(pair_spec(0.0)), decay_operators(pair_spec(0.0)))
    p2 = float(np.max(np.abs(found2.projector.entries - subspace_from_vectors(layout2, [v00, va]).projector.entries)))
    found3 = find_dfs(h_cond_lambda(lambda_spec(0.0)), decay_operators(lambda_spec(0.0)))
    p3 = float(np.max(np.abs(found3.projector.entries - subspace_from_vectors(layout3, vecs).projector.entries)))

    ok = dev2 <= 1e-12 and dev3 <= 1e-12 and p2 <= 1e-12 and p3 <= 1e-12 and found2.dim == 2 and found3.dim == 5
    report(
        "criterion 6: projected Hamiltonians and subspace finder",
        ok,
        f"entrywise deviations {dev2:.2e} / {dev3:.2e}, projector deviations {p2:.2e} / {p3:.2e}, "
        f"dims {found2.dim} / {found3.dim}",
    )


# ----------------------------------------------------------------- criterion 7


def test_criterion_7_band_gap_scheme():
    target = bell_target()
    plan = TransitPlan(1.0, math.pi / 4, math.pi / 2)
    fid = fidelity(pbg_final_state(plan), target)

    # 201 nodes per axis place the optimum exactly on the grid
    grid = np.linspace(0.0, math.pi, 201)
    best_val, best_at = -1.0, None
    worst_norm_dev = 0.0
    for gt1 in grid:
        ce1, cg1 = jc_amplitudes(1.0, float(gt1))
        worst_norm_dev = max(worst_norm_dev, abs(abs(ce1) ** 2 + abs(cg1) ** 2 - 1.0))
        for gt2 in grid:
            psi = pbg_final_state(TransitPlan(1.0, float(gt1), float(gt2)))
            f = abs(np.vdot(target.amplitudes, psi.amplitudes)) ** 2
            if f > best_val:
                best_val, best_at = f, (float(gt1), float(gt2))
    ok = (
        fid >= 1.0 - 1e-10
        and abs(best_at[0] - math.pi / 4) <= 1e-12
        and abs(best_at[1] - math.pi / 2) <= 1e-12
        and worst_norm_dev <= 1e-12
    )
    report(
        "criterion 7: band-gap entanglement",
        ok,
        f"optimal fidelity = {fid:.14f}, grid max {best_val:.9f} at (g t1, g t2) = "
        f"({best_at[0]:.6f}, {best_at[1]:.6f}), max norm deviation {worst_norm_dev:.2e}",
    )


# ----------------------------------------------------------------- criterion 8


def test_criterion_8_trajectory_oracle():
    start = time.perf_counter()
    # pair preparation at the stated criterion-4 point
    spec = pair_spec(STATED_GAMMA).with_rabi({(1, "0-1"): OMEGA / SQRT2, (2, "0-1"): -OMEGA / SQRT2})
    h = h_cond_two_level(spec)
    psi0 = basis_state(h.layout, (0, 0, 0))
    t_pair = math.pi / OMEGA
    batch_pair = run_trajectories(h, decay_operators(spec), psi0, t_pair, 10_000, seed=2026)
    det_pair = no_photon_probability(h, psi0, t_pair)

    # pure cavity decay
    layout = compose([("cav", 3)])
    b = ladder(3)
    h_cav = OperatorMatrix(layout, -1j * (b.conj().T @ b))
    batch_cav = run_trajectories(
        h_cav, [OperatorMatrix(layout, math.sqrt(2.0) * b)], basis_state(layout, (1,)), 1.0, 10_000, seed=2027
    )
    det_cav = math.exp(-2.0)
    elapsed = time.perf_counter() - start

    dev_pair = abs(batch_pair.p0_estimate - det_pair)
    dev_cav = abs(batch_cav.p0_estimate - det_cav)
    ok = dev_pair <= 4 * batch_pair.p0_stderr and dev_cav <= 4 * batch_cav.p0_stderr and elapsed < 60.0
    report(
        "criterion 8: Monte-Carlo unraveling",
        ok,
        f"pair: {batch_pair.p0_estimate:.4f} vs {det_pair:.4f} ({dev_pair / batch_pair.p0_stderr:.2f} sigma), "
        f"decay: {batch_cav.p0_estimate:.4f} vs {det_cav:.4f} ({dev_cav / batch_cav.p0_stderr:.2f} sigma), "
        f"{elapsed:.1f} s",
    )


# ----------------------------------------------------------------- criterion 9


def test_criterion_9_invariant_suite():
    start = time.perf_counter()
    ok_inline = run_selftest(quiet=True)
    # the package may run from its source tree without being installed
    src = str(Path(zenobell.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "zenobell.cli", "selftest", "--quiet"],
        capture_output=True,
        timeout=120,
        env=env,
    )
    elapsed = time.perf_counter() - start
    ok = ok_inline and proc.returncode == 0 and elapsed < 120.0
    report(
        "criterion 9: invariant suite / selftest",
        ok,
        f"inline = {ok_inline}, CLI exit = {proc.returncode}, {elapsed:.1f} s",
    )
