import math

import numpy as np
import pytest
from scipy.linalg import expm

from zenobell.hilbert import fidelity
from zenobell import pbg
from zenobell.pbg import (
    TransitPlan,
    bell_target,
    jc_amplitudes,
    pbg_final_state,
    pbg_final_states,
    pbg_layout,
    pbg_optimal_times,
)


def single_excitation_oracle(g, t):
    """Solve the 2x2 exchange block i g (|e0><g1| - |g1><e0|) directly."""
    h = np.array([[0.0, 1j * g], [-1j * g, 0.0]])
    return expm(-1j * h * t) @ np.array([1.0, 0.0], dtype=complex)


def test_jc_amplitudes_initial_condition():
    assert jc_amplitudes(1.3, 0.0) == (1.0, 0.0)


def test_jc_amplitudes_against_block_oracle():
    for g, t in ((1.0, math.pi / 2), (1.0, math.pi / 4), (0.7, 2.13)):
        ce, cg = jc_amplitudes(g, t)
        ref = single_excitation_oracle(g, t)
        assert ce == pytest.approx(complex(ref[0]), abs=1e-12)
        assert cg == pytest.approx(complex(ref[1]), abs=1e-12)
    # full transfer and equal split
    assert jc_amplitudes(1.0, math.pi / 2) == (pytest.approx(0.0, abs=1e-15), pytest.approx(-1.0))
    ce, cg = jc_amplitudes(1.0, math.pi / 4)
    assert ce == pytest.approx(1 / math.sqrt(2))
    assert cg == pytest.approx(-1 / math.sqrt(2))


def test_jc_amplitudes_norm_conserved():
    rng = np.random.default_rng(1)
    for _ in range(50):
        ce, cg = jc_amplitudes(rng.uniform(0.1, 3.0), rng.uniform(0.0, 20.0))
        assert abs(ce) ** 2 + abs(cg) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_jc_amplitudes_with_loss_decays():
    ce, cg = jc_amplitudes(1.0, 2.0, loss=0.2)
    assert abs(ce) ** 2 + abs(cg) ** 2 < 1.0


def test_jc_amplitudes_validation():
    with pytest.raises(ValueError):
        jc_amplitudes(0.0, 1.0)
    with pytest.raises(ValueError):
        jc_amplitudes(1.0, -1.0)
    with pytest.raises(ValueError):
        jc_amplitudes(1.0, 1.0, loss=-0.1)


def test_final_state_atom1_never_interacts():
    layout = pbg_layout()
    psi = pbg_final_state(TransitPlan(g=1.0, t1=0.0, t2=0.9))
    assert psi.amplitudes[layout.basis_index((1, 0, 0))] == pytest.approx(1.0)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)


def test_final_state_full_first_transfer():
    # g t1 = pi/2 empties the excited branch; the photon branch carries
    # -c_e(t2) and the second-atom branch +c_g(t2) c_g(t1) = -c_g(t2)
    layout = pbg_layout()
    t2 = 0.31
    psi = pbg_final_state(TransitPlan(g=1.0, t1=math.pi / 2, t2=t2))
    ce2, cg2 = jc_amplitudes(1.0, t2)
    assert psi.amplitudes[layout.basis_index((1, 0, 0))] == pytest.approx(0.0, abs=1e-12)
    assert psi.amplitudes[layout.basis_index((0, 0, 1))] == pytest.approx(-ce2, abs=1e-12)
    assert psi.amplitudes[layout.basis_index((0, 1, 0))] == pytest.approx(-cg2, abs=1e-12)


def test_optimal_times_produce_plus_bell_state():
    plan = pbg_optimal_times(2.0)
    assert plan.t1 == pytest.approx(math.pi / 8)
    assert plan.t2 == pytest.approx(math.pi / 4)
    psi = pbg_final_state(plan)
    assert fidelity(psi, bell_target()) >= 1.0 - 1e-10
    # the relative sign between the two branches is +1, not just up to phase
    layout = pbg_layout()
    a_eg = psi.amplitudes[layout.basis_index((1, 0, 0))]
    a_ge = psi.amplitudes[layout.basis_index((0, 1, 0))]
    assert a_eg == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert a_ge == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert psi.amplitudes[layout.basis_index((0, 0, 1))] == pytest.approx(0.0, abs=1e-12)


def test_final_state_norm_for_random_plans():
    rng = np.random.default_rng(6)
    for _ in range(50):
        plan = TransitPlan(g=rng.uniform(0.2, 3.0), t1=rng.uniform(0, 10), t2=rng.uniform(0, 10))
        assert pbg_final_state(plan).norm() == pytest.approx(1.0, abs=1e-12)


def test_bell_fidelity_grid_maximum_at_quarter_and_half_pi():
    # 200 x 200 grid over [0, pi]^2; brute-force search oracle
    target = bell_target().amplitudes
    grid = np.linspace(0.0, math.pi, 200)
    best = (-1.0, None)
    for gt1 in grid:
        for gt2 in grid:
            psi = pbg_final_state(TransitPlan(1.0, gt1, gt2))
            f = abs(np.vdot(target, psi.amplitudes)) ** 2
            if f > best[0]:
                best = (f, (gt1, gt2))
    f_best, (gt1, gt2) = best
    # the grid straddles the optimum; its argmax is the nearest node
    assert f_best >= 0.9999
    assert gt1 == pytest.approx(math.pi / 4, abs=math.pi / 199)
    assert gt2 == pytest.approx(math.pi / 2, abs=math.pi / 199)
    # and on the optimum itself the fidelity is exactly one
    exact = pbg_final_state(TransitPlan(1.0, math.pi / 4, math.pi / 2))
    assert abs(np.vdot(target, exact.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_transit_plan_validation():
    with pytest.raises(ValueError):
        TransitPlan(g=0.0, t1=1.0, t2=1.0)
    with pytest.raises(ValueError):
        TransitPlan(g=1.0, t1=-1.0, t2=1.0)
    with pytest.raises(ValueError):
        TransitPlan(g=1.0, t1=math.inf, t2=1.0)


def test_per_axis_rows_equal_per_point_states(monkeypatch):
    calls, kernel = [], pbg.expm

    def counting_expm(a):
        calls.append(a.shape)
        return kernel(a)

    g, loss = 1.7, 0.05
    t1_values = [0.0, 0.3, math.pi / (4 * g), 2.0]
    t2_values = [0.0, math.pi / (2 * g), 1.1]
    monkeypatch.setattr(pbg, "expm", counting_expm)
    rows = pbg_final_states(g, t1_values, t2_values, loss)
    # one stacked exponential serves every axis value of both transits
    assert calls == [(len(t1_values) + len(t2_values), 2, 2)]
    monkeypatch.undo()
    assert rows.shape == (len(t1_values) * len(t2_values), pbg_layout().total_dim)
    points = [(t1, t2) for t1 in t1_values for t2 in t2_values]
    for (t1, t2), row in zip(points, rows):
        assert np.array_equal(row, pbg_final_state(TransitPlan(g, t1, t2), loss).amplitudes)


@pytest.mark.parametrize("loss", [-0.5, math.nan])
def test_loss_is_checked_on_every_path(loss):
    # a negative loss is a gain: pbg_final_state(pbg_optimal_times(1.0), loss=-0.5) would have norm 1.505
    with pytest.raises(ValueError, match="loss must be >= 0"):
        pbg_final_state(pbg_optimal_times(1.0), loss=loss)
    with pytest.raises(ValueError, match="loss must be >= 0"):
        pbg_final_states(1.0, [0.5], [0.5], loss)
    with pytest.raises(ValueError, match="loss must be >= 0"):
        jc_amplitudes(1.0, 0.5, loss)


def test_per_axis_rows_reject_bad_times():
    with pytest.raises(ValueError, match="t2 must be finite"):
        pbg_final_states(1.0, [0.5], [-1.0])
    with pytest.raises(ValueError, match="t1 must be finite"):
        pbg_final_states(1.0, [math.inf], [0.5])
