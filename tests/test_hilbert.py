import re

import numpy as np
import pytest

from zenobell import bell, cli, hilbert
from zenobell.dynamics import SystemSpec, decay_operators, h_cond
from zenobell.gates import SweepResult, cnot_pulse, qubit_state
from zenobell.hilbert import (
    HilbertLayout,
    OperatorMatrix,
    StateVector,
    basis_state,
    compose,
    embed,
    fidelities,
    fidelity,
    ladder,
    norms,
    state_from_amplitudes,
)
from zenobell.pbg import TransitPlan
from zenobell.states import antisymmetric_pair, ghz_state
from zenobell.trajectories import TrajectoryBatch, run_trajectories

from oracles import SIGMA_X, SIGMA_Y, SIGMA_Z, apply, embed_by_index, run_record_scores


def test_compose_two_qubits_basis_order():
    layout = compose([("atom1", 2), ("atom2", 2)])
    assert layout.total_dim == 4
    # last factor varies fastest: |00>, |01>, |10>, |11>
    assert [layout.basis_index(occ) for occ in ((0, 0), (0, 1), (1, 0), (1, 1))] == [0, 1, 2, 3]
    assert layout.basis_occupations(2) == (1, 0)


def test_compose_three_qutrits():
    layout = compose([("atom1", 3), ("atom2", 3), ("cav", 3)])
    assert layout.total_dim == 27


def test_compose_rejects_degenerate_input():
    with pytest.raises(ValueError):
        compose([("cav", 0)])
    with pytest.raises(ValueError):
        compose([("a", 2), ("a", 2)])


def test_embed_sigma_x_flips_first_qubit():
    layout = compose([("atom1", 2), ("atom2", 2)])
    op = embed(SIGMA_X, "atom1", layout)
    flipped = apply(op, basis_state(layout, (0, 0)))
    assert np.allclose(flipped.amplitudes, basis_state(layout, (1, 0)).amplitudes)


def test_embed_annihilation_on_cavity():
    layout = compose([("atom1", 2), ("cav", 3)])
    op = embed(ladder(3), "cav", layout)
    lowered = apply(op, basis_state(layout, (0, 1)))
    assert np.allclose(lowered.amplitudes, basis_state(layout, (0, 0)).amplitudes)


def test_embed_matches_index_oracle():
    layout = compose([("atom1", 2), ("atom2", 2)])
    assert np.allclose(embed(SIGMA_Y, "atom2", layout).entries, np.kron(np.eye(2), SIGMA_Y))
    rng = np.random.default_rng(3)
    dims = (2, 3, 4)
    layout = compose([("a", 2), ("b", 3), ("c", 4)])
    for axis, label in enumerate(("a", "b", "c")):
        local = rng.normal(size=(dims[axis],) * 2) + 1j * rng.normal(size=(dims[axis],) * 2)
        assert np.allclose(embed(local, label, layout).entries, embed_by_index(local, axis, dims))


def test_embed_errors():
    layout = compose([("atom1", 2), ("cav", 3)])
    with pytest.raises(KeyError):
        embed(SIGMA_X, "nope", layout)
    with pytest.raises(ValueError):
        embed(SIGMA_X, "cav", layout)


def test_embed_preserves_spectrum():
    rng = np.random.default_rng(11)
    for dim, label in ((2, "a"), (3, "b")):
        layout = compose([("a", 2), ("b", 3)])
        local = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        full = embed(local, label, layout)
        local_eigs = np.sort_complex(np.linalg.eigvals(local))
        full_eigs = np.sort_complex(np.linalg.eigvals(full.entries))
        multiplicity = layout.total_dim // dim
        expected = np.sort_complex(np.repeat(local_eigs, multiplicity))
        assert np.allclose(np.sort_complex(full_eigs), expected, atol=1e-10)


def test_disjoint_embeds_commute():
    rng = np.random.default_rng(5)
    layout = compose([("a", 2), ("b", 3), ("c", 2)])
    op_a = embed(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), "a", layout).entries
    op_b = embed(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)), "b", layout).entries
    assert np.max(np.abs(op_a @ op_b - op_b @ op_a)) <= 1e-12


def test_pauli_algebra_on_embedded_qubit():
    layout = compose([("a", 2), ("cav", 3)])
    sx = embed(SIGMA_X, "a", layout).entries
    sy = embed(SIGMA_Y, "a", layout).entries
    sz = embed(SIGMA_Z, "a", layout).entries
    assert np.max(np.abs(sx @ sy - 1j * sz)) <= 1e-14


def test_embed_results_are_read_only_and_memoized_by_value():
    layout = compose([("a", 2), ("b", 3)])
    local = np.array([[0, 1], [2, 0]], dtype=complex)
    first = embed(local, "a", layout)
    assert not first.entries.flags.writeable
    with pytest.raises(ValueError):
        first.entries[0, 0] = 1.0
    assert embed(local.copy(), "a", layout) is first
    assert embed(local, "a", compose([("a", 2), ("b", 3)])) is first  # keyed by the layout's value
    local[1, 0] = 5.0  # the caller's array changes after the call
    assert np.array_equal(embed(local, "a", layout).entries, embed_by_index(local, 0, layout.dims))
    assert np.array_equal(first.entries, embed_by_index(np.array([[0, 1], [2, 0]]), 0, layout.dims))
    assert embed(np.array([[0, 1], [2, 0]]), "a", layout) is first


def test_embed_memo_is_bounded():
    maxsize = hilbert._embedded.cache_info().maxsize
    assert maxsize is not None
    layout = compose([("a", 2)])
    for k in range(maxsize + 5):
        embed(np.diag([float(k), 0.0]), "a", layout)
    assert hilbert._embedded.cache_info().currsize == maxsize


def test_figure_builds_each_embedded_operator_once(tmp_path):
    hilbert._embedded.cache_clear()
    assert cli.main(["figure", "fig4", "--out", str(tmp_path), "--quiet"]) == 0
    # three Lambda systems (one per Gamma) share b, and per atom the cavity
    # transition and the excited-level projector; atom 1's laser drives the
    # cavity transition, atom 2's laser the 0-2 one: 6 operators, each
    # built on its first call and kept
    info = hilbert._embedded.cache_info()
    assert (info.misses, info.currsize) == (6, 6)


def test_ladder_matrix_elements():
    assert np.allclose(ladder(2), [[0, 1], [0, 0]])
    b = ladder(3)
    ket2 = np.array([0, 0, 1], dtype=complex)
    assert np.allclose(b @ ket2, [0, np.sqrt(2), 0])
    assert np.allclose(np.diag(b.conj().T @ b), [0, 1, 2])
    with pytest.raises(ValueError):
        ladder(1)


def test_fidelity_basics():
    layout = compose([("q1", 2), ("q2", 2)])
    zero = basis_state(layout, (0, 0))
    one = basis_state(layout, (1, 1))
    assert fidelity(zero, zero) == pytest.approx(1.0, abs=1e-15)
    assert fidelity(one, zero) == pytest.approx(0.0, abs=1e-15)
    shrunk = StateVector(layout, 0.6 * zero.amplitudes)
    assert fidelity(shrunk, zero) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_errors():
    layout = compose([("q1", 2)])
    zero = basis_state(layout, (0,))
    null = StateVector(layout, np.zeros(2))
    with pytest.raises(ValueError):
        fidelity(null, zero)
    with pytest.raises(ValueError):
        fidelity(zero, StateVector(layout, 0.5 * zero.amplitudes))


def test_fidelity_and_norm_ranges_random():
    rng = np.random.default_rng(9)
    layout = compose([("q1", 2), ("q2", 2), ("q3", 2)])
    for _ in range(50):
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        b = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = StateVector(layout, a)
        target = StateVector(layout, b / np.linalg.norm(b))
        assert psi.norm() >= 0
        assert 0.0 <= fidelity(psi, target) <= 1.0


def _random_stack(rng, shape):
    rows = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return rows * rng.uniform(0.0, 1.0, size=(*shape[:-1], 1)) ** 3  # norms spread over decades


@pytest.mark.parametrize("d", [8, 12, 27])
def test_stacked_scores_equal_the_one_vector_formulas_bit_for_bit(d):
    rng = np.random.default_rng(d)
    rows = _random_stack(rng, (2000, d))
    targets = rng.normal(size=(2000, d)) + 1j * rng.normal(size=(2000, d))
    targets = np.array([t / np.linalg.norm(t) for t in targets])
    assert norms(rows).tobytes() == np.array([np.linalg.norm(r) for r in rows]).tobytes()
    per_row = [run_record_scores(r, t)[1] for r, t in zip(rows, targets)]
    assert fidelities(rows, targets).tobytes() == np.array(per_row).tobytes()
    shared = [run_record_scores(r, targets[0])[1] for r in rows]
    assert fidelities(rows, targets[0]).tobytes() == np.array(shared).tobytes()
    # one target per input of a (points, inputs, d) stack
    grid = rows.reshape(500, 4, d)
    per_input = [[run_record_scores(r, t)[1] for r, t in zip(point, targets[:4])] for point in grid]
    assert fidelities(grid, targets[:4]).tobytes() == np.array(per_input).tobytes()
    layout = compose([("a", d)])
    assert fidelity(StateVector(layout, rows[7]), StateVector(layout, targets[7])) == per_row[7]


def test_stacked_fidelity_guards():
    target = np.array([0.6, 0.8j, 0.0, 0.0])
    rows = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0]])
    with pytest.raises(ValueError, match="target must be normalized, got norm 0.5"):
        fidelities(rows, [target, 0.5 * target])
    with pytest.raises(ValueError, match="zero-norm state has no fidelity"):
        fidelities(np.vstack([rows, np.zeros(4)]), target)


_CAVITY = SystemSpec(n_atoms=0, kappa=1.0, n_max=2)
_LAMBDA = SystemSpec(atom_levels=3)
_PAIR = antisymmetric_pair()


# each caller of check_normalized, with the state it takes and the name its message gives that state
@pytest.mark.parametrize(
    "what, state, call",
    [
        ("state", _PAIR, lambda psi: bell.correlation(psi, 0, 1, 0.0, 0.0)),
        ("state", ghz_state(3), bell.mermin_n),
        ("state", _PAIR, lambda psi: bell.sample_correlation(psi, 0, 1, 0.0, 0.0, 100, 1)),
        ("target", _PAIR, lambda psi: fidelity(antisymmetric_pair(), psi)),
        ("input state", qubit_state(_LAMBDA, "10"), lambda psi: cnot_pulse(_LAMBDA, 0.02, psi)),
        (
            "psi0",
            basis_state(_CAVITY.layout(), (1,)),
            lambda psi: run_trajectories(h_cond(_CAVITY), decay_operators(_CAVITY), psi, 1.0, 10, seed=1),
        ),
    ],
    ids=["correlation", "mermin_n", "sample_correlation", "fidelity", "cnot_pulse", "run_trajectories"],
)
def test_a_state_off_unit_norm_by_1e_8_is_refused_by_name(what, state, call):
    call(state)  # the state itself is accepted
    off = StateVector(state.layout, (1.0 + 1e-8) * state.amplitudes)
    with pytest.raises(ValueError, match=re.escape(f"{what} must be normalized, got norm {off.norm()}")):
        call(off)


def test_a_nan_norm_is_refused():
    # abs(nan - 1) > 1e-9 is False: the check must read "not within 1e-9"
    with pytest.raises(ValueError, match="^state must be normalized, got norm nan$"):
        hilbert.check_normalized([np.nan, 0])
    with pytest.raises(ValueError, match="^target must be normalized, got norm nan$"):
        fidelities([1, 0], [np.nan, 0])


def test_containers_immutable():
    layout = compose([("q1", 2)])
    psi = basis_state(layout, (0,))
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 2.0
    op = OperatorMatrix(layout, SIGMA_X)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 1.0


def test_records_are_frozen():
    spec = SystemSpec(atom_levels=3)
    layout = spec.layout()
    column = np.zeros(1)
    records = [
        (layout, "factors"),
        (basis_state(layout, (0, 0, 0)), "amplitudes"),
        (OperatorMatrix(layout, np.eye(layout.total_dim)), "entries"),
        (spec, "kappa"),
        (TransitPlan(1.0, 0.5, 0.25), "t1"),
        (SweepResult(column, column, column, None, column), "p0"),
        (TrajectoryBatch(2, 7, 1.0, 0.01, 0.5, 0.35, np.ones(101), np.array([0.25, 0.75])), "p0_estimate"),
    ]
    for record, field in records:
        value = getattr(record, field)
        for change in (lambda: setattr(record, field, value), lambda: delattr(record, field)):
            with pytest.raises(AttributeError):
                change()
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, field) is value


VALUE_RECORDS = {
    # a record type, its fields and, per field, a value that differs
    "HilbertLayout": (HilbertLayout, [(("atom1", 2), ("cav", 3))], [(("atom1", 2), ("cav", 4))]),
    "SystemSpec": (SystemSpec, [3, 2, 1.0, 1.0, 0.01, 2], [2, 1, 0.5, 0.0, 0.02, 3]),
    "TransitPlan": (TransitPlan, [1.0, 0.5, 0.25], [2.0, 0.25, 0.5]),
}


@pytest.mark.parametrize("record, fields, others", VALUE_RECORDS.values(), ids=VALUE_RECORDS)
def test_value_records_compare_and_hash_by_their_fields(record, fields, others):
    a, b = record(*fields), record(*[tuple(list(v)) if isinstance(v, tuple) else v for v in fields])
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a in {b} and repr(a) == repr(b)
    for k, other in enumerate(others):
        changed = record(*fields[:k], other, *fields[k + 1 :])
        assert changed != a and not changed == a
    assert a != fields and a != "a string"


def test_array_records_compare_by_layout_and_values_and_are_unhashable():
    layout = compose([("q1", 2), ("q2", 2)])
    other_layout = compose([("a", 2), ("b", 2)])
    states = [basis_state(layout, (0, 1)), basis_state(layout, (1, 0))]
    operators = [OperatorMatrix(layout, np.eye(layout.total_dim)), OperatorMatrix(layout, np.diag([1, 1, 1, -1]))]
    for (a, b), make, field in ((states, StateVector, "amplitudes"), (operators, OperatorMatrix, "entries")):
        same = make(layout, getattr(a, field).copy())
        assert a == same and not a != same and a is not same
        assert a != b and not a == b
        assert a in [b, same] and a not in [b] and [a, b].index(b) == 1
        assert a != make(other_layout, getattr(a, field))  # equal values on another layout
        assert a != (layout, getattr(a, field)) and a != "a string"
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
        assert repr(a) == f"{make.__name__}(layout={layout!r}, {field}={getattr(a, field)!r})"


def test_state_from_amplitudes_accumulates():
    layout = compose([("q1", 2), ("q2", 2)])
    s = 1 / np.sqrt(2)
    psi = state_from_amplitudes(layout, {(1, 0): s, (0, 1): -s})
    assert psi.norm() == pytest.approx(1.0)
    assert psi.amplitudes[layout.basis_index((0, 1))] == pytest.approx(-s)
