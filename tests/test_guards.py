"""Each input guard refuses the input it exists for, with its own exception and message.

With a guard removed, its input passes silently (a negative qubit index
scores the last qubit, a config ``out =`` parses) or fails later with
another error (zero shots divide by zero), so each case pins the
exception type and the whole message.  A config case pins the text of
the library check that owns its rule: ``trajectories.check_n_traj`` and
``bell.check_shots`` for the counts, ``SystemSpec`` for the rates and
``n_max``, ``gates.check_omega`` for the omegas, ``pbg.check_coupling``
and ``pbg.check_loss`` for the band-gap run and
``bell.check_readout_error`` for the readout.
"""

import ast
import collections
import math
from pathlib import Path

import numpy as np
import pytest

import zenobell
from zenobell.bell import correlation, sample_correlation
from zenobell.config import ConfigError, parse_config
from zenobell.dfs import effective_hamiltonian, find_dfs, subspace_from_vectors
from zenobell.dynamics import DrivenHamiltonian, SystemSpec, evolve_no_jump, no_jump_states, pair_drive
from zenobell.hilbert import OperatorMatrix, StateVector, basis_state, compose, embed, fidelity
from zenobell.pbg import TransitPlan, jc_amplitudes, pbg_optimal_times
from zenobell.states import antisymmetric_pair, ghz_state, qubit_layout
from zenobell.trajectories import run_trajectories

_QUBITS = qubit_layout(2)
# the same dimensions under other labels: a mix-up that every shape check lets through
_OTHER = compose([("a", 2), ("b", 2)])
_SINGLET = antisymmetric_pair()
_DAMPED = OperatorMatrix(_QUBITS, -0.5j * np.eye(4))
_PAIR = SystemSpec()

_GUARDS = {
    "basis_index_level_2_of_a_qubit": (
        lambda: _QUBITS.basis_index((0, 2)),
        ValueError,
        "level 2 out of range for factor 'q2' (dim 2)",
    ),
    "normalizing_a_zero_state": (
        lambda: StateVector(_QUBITS, np.zeros(4)).normalized(),
        ValueError,
        "cannot normalize a zero state",
    ),
    "embed_a_qutrit_operator_on_a_qubit": (
        lambda: embed(np.eye(3), "q1", _QUBITS),
        ValueError,
        "operator shape (3, 3) does not match factor 'q1' (dim 2)",
    ),
    "state_with_a_nan_amplitude": (
        lambda: StateVector(_QUBITS, [math.nan, 0, 0, 0]),
        ValueError,
        "amplitudes must be finite",
    ),
    "operator_3x3_on_4_states": (
        lambda: OperatorMatrix(_QUBITS, np.eye(3)),
        ValueError,
        "matrix shape (3, 3) != (4, 4)",
    ),
    "fidelity_across_layouts": (
        lambda: fidelity(_SINGLET, basis_state(_OTHER, (1, 0))),
        ValueError,
        "states live on different layouts",
    ),
    "subspace_of_a_repeated_vector": (
        lambda: subspace_from_vectors(_QUBITS, [_SINGLET, _SINGLET]),
        ValueError,
        "vectors are not orthonormal",
    ),
    "find_dfs_decay_on_another_layout": (
        lambda: find_dfs(_DAMPED, [OperatorMatrix(_OTHER, np.eye(4))]),
        ValueError,
        "decay operator layout mismatch",
    ),
    "effective_hamiltonian_on_another_layout": (
        lambda: effective_hamiltonian(OperatorMatrix(_OTHER, np.eye(4)), subspace_from_vectors(_QUBITS, [_SINGLET])),
        ValueError,
        "Hamiltonian and subspace live on different layouts",
    ),
    "evolve_no_jump_h_on_another_layout": (
        lambda: evolve_no_jump(OperatorMatrix(_OTHER, np.eye(4)), _SINGLET, 1.0),
        ValueError,
        "Hamiltonian and state live on different layouts",
    ),
    "no_jump_states_2_drives_1_time": (
        lambda: no_jump_states(
            DrivenHamiltonian.of(_PAIR, pair_drive(1.0)),
            [pair_drive(0.1)] * 2,
            [1.0],
            [basis_state(_PAIR.layout(), (0, 0, 0)).amplitudes],
        ),
        ValueError,
        "2 drives but 1 times",
    ),
    "trajectories_psi0_on_another_layout": (
        lambda: run_trajectories(_DAMPED, [], basis_state(_OTHER, (0, 0)), 1.0, 10, 0),
        ValueError,
        "state and Hamiltonian live on different layouts",
    ),
    "trajectories_jump_on_another_layout": (
        lambda: run_trajectories(_DAMPED, [OperatorMatrix(_OTHER, np.eye(4))], _SINGLET, 1.0, 10, 0),
        ValueError,
        "jump operator layout mismatch",
    ),
    "qubit_layout_0": (lambda: qubit_layout(0), ValueError, "need at least one qubit"),
    "ghz_state_1": (lambda: ghz_state(1), ValueError, "GHZ state needs at least two qubits"),
    "correlation_qubit_minus_1": (
        lambda: correlation(_SINGLET, -1, 0, 0.1, 0.2),
        IndexError,
        "qubit index -1 out of range",
    ),
    "correlation_of_one_qubit_with_itself": (
        lambda: correlation(_SINGLET, 1, 1, 0.1, 0.2),
        ValueError,
        "a pair needs two distinct qubits, got i = j = 1",
    ),
    "config_omega_and_omega_list": (
        lambda: parse_config(
            "scenario = prepare_pair\ng = 1\nkappa = 1\ngamma = 0\nomega_minus = 0.02\nomega_minus_values = 0.05\n"
        ),
        ConfigError,
        "give either 'omega_minus' or 'omega_minus_values', not both",
    ),
    "config_n_traj_0": (
        lambda: parse_config("scenario = trajectories\nsystem = cavity_decay\nkappa = 1\nn_traj = 0\n"),
        ConfigError,
        "n_traj must be >= 1, got 0",
    ),
    "config_empty_omega_list": (
        lambda: parse_config("scenario = prepare_pair\ng = 1\nkappa = 1\ngamma = 0\nomega_minus_values = ,\n"),
        ConfigError,
        "key 'omega_minus_values' must list at least one number",
    ),
    "config_empty_out": (lambda: parse_config("scenario = mermin\nout =\n"), ConfigError, "line 2: empty key or value"),
    "sample_correlation_0_shots": (
        lambda: sample_correlation(_SINGLET, 0, 1, 0.1, 0.2, shots=0, seed=0),
        ValueError,
        "shots must be >= 1, got 0",
    ),
    "pbg_optimal_times_g_0": (lambda: pbg_optimal_times(0), ValueError, "g must be finite and > 0, got 0"),
    # returned TransitPlan(g=inf, t1=0.0, t2=0.0)
    "pbg_optimal_times_g_inf": (lambda: pbg_optimal_times(math.inf), ValueError, "g must be finite and > 0, got inf"),
    "transit_plan_g_inf": (lambda: TransitPlan(math.inf, 0.0, 0.0), ValueError, "g must be finite and > 0, got inf"),
    # raised a bare "math domain error" from cos(g t)
    "jc_amplitudes_g_inf": (lambda: jc_amplitudes(math.inf, 1.0), ValueError, "g must be finite and > 0, got inf"),
    # returned (nan, nan)
    "jc_amplitudes_loss_inf": (
        lambda: jc_amplitudes(1.0, 1.0, loss=math.inf),
        ValueError,
        "loss must be finite and >= 0, got inf",
    ),
    # check_regime and zeno_timescale raised OverflowError from g**2, and ZeroDivisionError on its underflow
    "system_spec_g_1e200": (
        lambda: SystemSpec(g=1e200),
        ValueError,
        "g must be > 0 with g**2 finite and nonzero, got 1e+200",
    ),
    "system_spec_g_1e-200": (
        lambda: SystemSpec(g=1e-200),
        ValueError,
        "g must be > 0 with g**2 finite and nonzero, got 1e-200",
    ),
    # h_cond warned of an overflow and returned a non-finite H
    "system_spec_kappa_1e308": (
        lambda: SystemSpec(kappa=1e308),
        ValueError,
        "kappa must be >= 0 with 2 * kappa * max(n_max, n_atoms, 2) finite, got 1e+308",
    ),
    "system_spec_gamma_over_n_atoms": (
        lambda: SystemSpec(n_atoms=5, gamma=2e307),
        ValueError,
        "gamma must be >= 0 with 2 * gamma * max(n_max, n_atoms, 2) finite, got 2e+307",
    ),
    "system_spec_n_max_0": (lambda: SystemSpec(n_max=0), ValueError, "n_max must be >= 1, got 0"),
    "config_n_max_0": (
        lambda: parse_config("scenario = trajectories\nsystem = cavity_decay\nkappa = 1\nn_max = 0\n"),
        ConfigError,
        "n_max must be >= 1, got 0",
    ),
    "config_omega_minus_0": (
        lambda: parse_config("scenario = prepare_pair\ng = 1\nkappa = 1\ngamma = 0\nomega_minus_values = 0.02, 0\n"),
        ConfigError,
        "omega_minus must be nonzero",
    ),
    "config_pbg_g_0": (lambda: parse_config("scenario = pbg\ng = 0\n"), ConfigError, "g must be finite and > 0, got 0.0"),
    "config_pbg_loss_negative": (
        lambda: parse_config("scenario = pbg\nloss = -0.1\n"),
        ConfigError,
        "loss must be finite and >= 0, got -0.1",
    ),
    "config_readout_error_0_5": (
        lambda: parse_config("scenario = bell_landscape\nreadout_error = 0.5\n"),
        ConfigError,
        "readout_error must lie in [0, 0.5), got 0.5",
    ),
}


@pytest.mark.parametrize("call, error, message", _GUARDS.values(), ids=_GUARDS.keys())
def test_each_guard_refuses_its_input_with_its_message(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error
    assert str(refused.value) == message


# refusal skeletons that two raises may share, each with the reason it may; none today
_SHARED_SKELETONS: dict[str, str] = {}


def _refusal_skeletons() -> dict[str, list[str]]:
    """Each literal refusal message of src/zenobell, its ``{}`` fields blanked, and where each raise is.

    A literal message is the first argument of the raised call, a str
    literal or an f-string.
    """
    skeletons = collections.defaultdict(list)
    for path in sorted(Path(zenobell.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
                continue
            message = node.exc.args[0]
            if isinstance(message, ast.Constant) and isinstance(message.value, str):
                text = message.value
            elif isinstance(message, ast.JoinedStr):
                text = "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in message.values)
            else:
                continue
            skeletons[text].append(f"{path.name}:{node.lineno}")
    return skeletons


def test_each_literal_refusal_message_is_raised_in_one_place():
    # a case above that matches a whole message then proves that its own guard fired
    skeletons = _refusal_skeletons()
    assert len(skeletons) > 100
    shared = {text: where for text, where in skeletons.items() if len(where) > 1}
    assert shared.keys() == _SHARED_SKELETONS.keys(), shared
