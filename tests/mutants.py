"""Source mutants that the tests must kill, and the script that tries each one.

Each mutant names a file under ``src/zenobell``, an exact text that occurs
there once, the text that replaces it, and the Tier-1 test ids that must
fail on the changed code: the defect it puts back, and the tests written
for that defect.  Run from anywhere::

    python tests/mutants.py             # every registered mutant
    python tests/mutants.py NAME ...    # only the mutants named, in registry order

For each mutant the script copies ``src`` to a temporary directory,
applies the mutant there, runs its tests against the copy and prints one
line.  It exits 1 if a mutant no longer applies, or
survives: a named test passes, or the run fails without failing one; it
exits 2, running none, if a name is not registered.
``test_mutants.py`` checks in the Tier-1 suite only that every old text
occurs exactly once and that every named test is defined, which costs no
test run.  The package never imports this module.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/zenobell
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root; a bare parametrized test is every case


MUTANTS = (
    Mutant(
        "jump operator rate 2.02 kappa",
        "dynamics.py",
        "math.sqrt(2.0 * spec.kappa)",
        "math.sqrt(2.02 * spec.kappa)",
        (
            "tests/test_trajectories.py::test_jump_rates_match_anti_hermitian_part",
            "tests/test_dynamics.py::test_atom_free_spec_is_the_hand_built_leaky_cavity",
            "tests/test_trajectories.py::test_jump_chain_converges_on_p0_det_on_random_systems",
        ),
    ),
    Mutant(
        "CSV floats at 8 digits",
        "cli.py",
        '["%.9g"]',
        '["%.8g"]',
        (
            "tests/test_config_cli.py::test_render_csv_formats",
            "tests/test_config_cli.py::test_render_csv_columns_match_per_value_formatting",
        ),
    ),
    Mutant(
        "Gamma damping doubled",
        "dynamics.py",
        "h0 += -1j * spec.gamma",
        "h0 += -2j * spec.gamma",
        (
            "tests/test_dynamics.py::test_lambda_gamma_damping_is_diagonal",
            "tests/test_dynamics.py::test_stacked_hamiltonians_equal_single_point_assembly",
        ),
    ),
    Mutant(
        "trajectories take the first of an omega_minus list",
        "config.py",
        '        if "omega_minus_values" in table:\n'
        "            raise ConfigError(\"unknown key 'omega_minus_values': "
        "a trajectories run takes one 'omega_minus'\")\n"
        '        physics["omega_minus"] = _float("omega_minus", _require(table, "omega_minus"))\n',
        '        physics["omega_minus"] = _values(table, "omega_minus")[0]\n',
        ("tests/test_config_cli.py::test_parse_config_rejects_what_a_run_would_drop_or_fail_on[traj_omega_list]",),
    ),
    Mutant(
        "--seed applied after parsing",
        "cli.py",
        'run_scenario(parse_config(text, seed=flags.get("--seed")), out_dir=out, quiet=quiet)',
        "cfg = parse_config(text)\n"
        '            cfg.seed = cfg.seed if flags.get("--seed") is None else flags["--seed"]\n'
        "            run_scenario(cfg, out_dir=out, quiet=quiet)",
        ("tests/test_config_cli.py::test_cli_seed_flag_supplies_the_seed_a_sampled_landscape_needs",),
    ),
    Mutant(
        "an unknown flag is dropped silently",
        "cli.py",
        "            extras.append(arg)\n        elif flags[flag] is None:",
        "            pass\n        elif flags[flag] is None:",
        (
            "tests/test_config_cli.py::test_cli_usage_errors_exit_1[unknown_flag]",
            "tests/test_config_cli.py::test_cli_usage_errors_exit_1[every_extra_in_order]",
        ),
    ),
    Mutant(
        "a flag's missing value is taken from the next flag",
        "cli.py",
        "if value is None or (flag == arg and _is_flag(value, flags)):",
        "if value is None:",
        ("tests/test_config_cli.py::test_cli_usage_errors_exit_1[out_before_a_flag]",),
    ),
    Mutant(
        "pbg loss unchecked",
        "pbg.py",
        '    if not (math.isfinite(loss) and loss >= 0):\n        raise ValueError(f"loss must be finite and >= 0, got {loss}")\n',
        "",
        (
            "tests/test_pbg.py::test_loss_is_checked_on_every_path",
            "tests/test_guards.py::test_each_guard_refuses_its_input_with_its_message[config_pbg_loss_negative]",
        ),
    ),
    Mutant(
        "the band-gap loss may be infinite",
        "pbg.py",
        "if not (math.isfinite(loss) and loss >= 0):",
        "if not loss >= 0:",
        (
            "tests/test_pbg.py::test_loss_is_checked_on_every_path[inf]",
            "tests/test_guards.py::test_each_guard_refuses_its_input_with_its_message[jc_amplitudes_loss_inf]",
        ),
    ),
    Mutant(
        "SystemSpec accepts a nan kappa",
        "dynamics.py",
        "if not (rate >= 0 and math.isfinite(2.0 * rate * max(n_max, n_atoms, 2))):",
        "if rate < 0:",
        (
            "tests/test_dynamics.py::test_spec_rejects_non_finite_rates[kappa_nan]",
            "tests/test_dynamics.py::test_spec_rejects_non_finite_rates[gamma_inf]",
            "tests/test_guards.py::test_each_guard_refuses_its_input_with_its_message[system_spec_kappa_1e308]",
            "tests/test_config_cli.py::test_cli_overflowing_kappa_is_a_config_error",
        ),
    ),
    Mutant(
        "SystemSpec bounds the rates by n_max alone",
        "dynamics.py",
        "math.isfinite(2.0 * rate * max(n_max, n_atoms, 2))",
        "math.isfinite(2.0 * rate * n_max)",
        ("tests/test_guards.py::test_each_guard_refuses_its_input_with_its_message[system_spec_gamma_over_n_atoms]",),
    ),
    Mutant(
        "SystemSpec drops its g*g test",
        "dynamics.py",
        "if not (g > 0 and 0.0 < g * g < math.inf):",
        "if not (g > 0 and math.isfinite(g)):",
        (
            "tests/test_guards.py::test_each_guard_refuses_its_input_with_its_message[system_spec_g_1e200]",
            "tests/test_guards.py::test_each_guard_refuses_its_input_with_its_message[system_spec_g_1e-200]",
            "tests/test_config_cli.py::test_cli_degenerate_coupling_is_a_config_error",
        ),
    ),
    Mutant(
        "a spec keeps no cavity state",
        "dynamics.py",
        "        if n_max < 1:\n",
        "        if n_max < 0:\n",
        (
            "tests/test_guards.py::test_each_guard_refuses_its_input_with_its_message[system_spec_n_max_0]",
            "tests/test_guards.py::test_each_guard_refuses_its_input_with_its_message[config_n_max_0]",
        ),
    ),
    Mutant(
        "the pair sweep checks its omegas after the propagation",
        "gates.py",
        "    for omega_minus, _ in points:\n        check_omega(\"omega_minus\", omega_minus)\n",
        "",
        (
            "tests/test_gates.py::test_a_zero_omega_is_refused_before_any_propagation",
            "tests/test_gates.py::test_sweep_refusals_keep_their_order_and_messages[pair_omega_0_T_1]",
        ),
    ),
    Mutant(
        "a zero omega passes",
        "gates.py",
        "    if omega == 0:\n",
        "    if False:\n",
        (
            "tests/test_gates.py::test_pulse_lengths_are_pi_and_sqrt2_pi_over_the_drive",
            "tests/test_guards.py::test_each_guard_refuses_its_input_with_its_message[config_omega_minus_0]",
            "tests/test_gates.py::test_sweep_refusals_keep_their_order_and_messages[cnot_omega_0]",
        ),
    ),
    Mutant(
        "an infinite default duration passes",
        "gates.py",
        "    if not math.isfinite(duration):\n",
        "    if False:\n",
        (
            "tests/test_gates.py::test_pulse_lengths_are_pi_and_sqrt2_pi_over_the_drive",
            "tests/test_config_cli.py::test_cli_unusable_durations_are_config_errors[subnormal_omega_minus]",
            "tests/test_config_cli.py::test_cli_unusable_durations_are_config_errors[subnormal_omega]",
        ),
    ),
    Mutant(
        "the band-gap coupling may be zero",
        "pbg.py",
        "if not (math.isfinite(g) and g > 0):",
        "if not (math.isfinite(g) and g >= 0):",
        (
            "tests/test_guards.py::test_each_guard_refuses_its_input_with_its_message[pbg_optimal_times_g_0]",
            "tests/test_guards.py::test_each_guard_refuses_its_input_with_its_message[config_pbg_g_0]",
        ),
    ),
    Mutant(
        "the band-gap coupling may be infinite",
        "pbg.py",
        "if not (math.isfinite(g) and g > 0):",
        "if not g > 0:",
        (
            "tests/test_guards.py::test_each_guard_refuses_its_input_with_its_message[pbg_optimal_times_g_inf]",
            "tests/test_guards.py::test_each_guard_refuses_its_input_with_its_message[transit_plan_g_inf]",
            "tests/test_guards.py::test_each_guard_refuses_its_input_with_its_message[jc_amplitudes_g_inf]",
        ),
    ),
    Mutant(
        "the survival chain overflows silently",
        "trajectories.py",
        "        if not math.isfinite(exponent):\n",
        "        if False:\n",
        (
            "tests/test_config_cli.py::test_cli_overflowing_jump_rate_is_one_numeric_failure_line",
            "tests/test_contract.py::test_contract[check_overflowing_jump_rate_is_one_numeric_failure_line]",
        ),
    ),
    Mutant(
        "Mermin value shifted by 1e-12",
        "bell.py",
        "value = float(abs(2.0 * (psi[0].conjugate() * (corner * psi[-1])).real))",
        "value = float(abs(2.0 * (psi[0].conjugate() * (corner * psi[-1])).real)) + 1e-12",
        (
            "tests/test_bell.py::test_mermin_ghz_and_zeros",
            "tests/test_bell.py::test_mermin_n_golden_ghz_values",
            "tests/test_config_cli.py::test_cli_table_is_its_benchmark_reference_byte_for_byte[mermin]",
        ),
    ),
    Mutant(
        "gauge with D^-1 for D",
        "dynamics.py",
        "        gauged = phases[:, :, None] * a\n        gauged *= phases.conj()[:, None, :]\n",
        "        gauged = phases.conj()[:, :, None] * a\n        gauged *= phases[:, None, :]\n",
        (
            "tests/test_dynamics.py::test_no_jump_states_equal_the_full_complex_exponential[2-drive0-float64]",
            "tests/test_gates.py::test_cnot_effective_hamiltonian_is_exact_gate",
            "tests/test_config_cli.py::test_cli_table_is_its_benchmark_reference_byte_for_byte[prepare_pair]",
        ),
    ),
    Mutant(
        "zero-length rows left at 0",
        "dynamics.py",
        "finals[:, :, touched, states] = blocks.reshape(n_systems, -1, *blocks.shape[1:])",
        "finals[:, :, touched, states] = blocks.reshape(n_systems, -1, *blocks.shape[1:]) * (times[part] != 0)[:, None, None]",
        (
            "tests/test_dynamics.py::test_zero_time_rows_are_the_inputs",
            "tests/test_gates.py::test_prepare_pair_zero_duration_is_identity",
        ),
    ),
    Mutant(
        "an output that starts with the new text counts as unchanged",
        "cli.py",
        "return f.read(len(text) + 1) == text",
        "return f.read(len(text)) == text",
        ("tests/test_config_cli.py::test_cli_unchanged_output_is_not_rewritten_but_gets_a_new_mtime",),
    ),
    Mutant(
        "kappa damping scaled by 1 + 1e-9",
        "dynamics.py",
        "h0 += -1j * spec.kappa * (b_full.conj().T @ b_full)",
        "h0 += -1j * spec.kappa * (1 + 1e-9) * (b_full.conj().T @ b_full)",
        (
            "tests/test_dynamics.py::test_pure_cavity_decay_amplitude",
            "tests/test_dynamics.py::test_atom_free_spec_is_the_hand_built_leaky_cavity",
            "tests/test_config_cli.py::test_cli_table_is_its_benchmark_reference_byte_for_byte[fig4]",
        ),
    ),
    Mutant(
        "one-time p0 squared by libm pow",
        "dynamics.py",
        "    return float(no_photon_probabilities(h, psi0, [t])[0])\n",
        "    return evolve_no_jump(h, psi0, t).norm() ** 2\n",
        ("tests/test_dynamics.py::test_no_photon_probabilities_are_the_one_time_values_bit_for_bit",),
    ),
    Mutant(
        "unit-norm tolerance 1e-7",
        "hilbert.py",
        "within = np.abs(norm - 1.0) <= 1e-9",
        "within = np.abs(norm - 1.0) <= 1e-7",
        ("tests/test_hilbert.py::test_a_state_off_unit_norm_by_1e_8_is_refused_by_name",),
    ),
    Mutant(
        "a nan norm passes as unit",
        "hilbert.py",
        "within = np.abs(norm - 1.0) <= 1e-9",
        "within = ~(np.abs(norm - 1.0) > 1e-9)",
        ("tests/test_hilbert.py::test_a_nan_norm_is_refused",),
    ),
    Mutant(
        "sweep work counted as rows x d^2",
        "config.py",
        "if rows * states**3 > SWEEP_WORK_CAP:",
        "if rows * states**2 > SWEEP_WORK_CAP:",
        # the parser test only: the run test would start the sweep the cap refuses
        ("tests/test_config_cli.py::test_parse_sweep_work_bound_is_inclusive",),
    ),
    Mutant(
        "n_traj over the trajectory cap parses",
        "trajectories.py",
        "    if n_traj > _MAX_TRAJ:\n"
        '        raise ValueError(f"n_traj = {n_traj} trajectories exceeds the limit of {_MAX_TRAJ}")\n',
        "",
        (
            "tests/test_config_cli.py::test_parse_config_rejects_what_a_run_would_drop_or_fail_on[traj_n_traj_cap]",
            "tests/test_trajectories.py::test_an_n_traj_out_of_range_is_refused_before_any_draw[cap_plus_1]",
        ),
    ),
    Mutant(
        "a readout error of 0.5 or more is sampled",
        "bell.py",
        "    if not 0.0 <= readout_error < 0.5:\n"
        '        raise ValueError(f"readout_error must lie in [0, 0.5), got {readout_error}")\n',
        "",
        (
            "tests/test_bell.py::test_a_bad_readout_error_is_refused_before_any_draw[0.7]",
            "tests/test_config_cli.py::test_parse_config_rejects_what_a_run_would_drop_or_fail_on[bell_readout_error_0_7]",
        ),
    ),
    Mutant(
        "a readout error of exactly 0.5 is sampled",
        "bell.py",
        "if not 0.0 <= readout_error < 0.5:",
        "if not 0.0 <= readout_error <= 0.5:",
        (
            "tests/test_bell.py::test_a_bad_readout_error_is_refused_before_any_draw[0.5]",
            "tests/test_guards.py::test_each_guard_refuses_its_input_with_its_message[config_readout_error_0_5]",
        ),
    ),
    Mutant(
        "a sampled landscape skips the readout check",
        "bell.py",
        "    check_shots(shots)\n    check_readout_error(readout_error)\n    # the landscape states",
        "    check_shots(shots)\n    # the landscape states",
        (
            "tests/test_bell.py::test_a_bad_readout_error_is_refused_before_any_draw[0.7]",
            "tests/test_bell.py::test_a_bad_readout_error_is_refused_before_any_draw[-0.2]",
        ),
    ),
    Mutant(
        "an unknown Mermin state scores the zeros state",
        "config.py",
        '    if state not in ("ghz", "zeros"):\n'
        "        raise ConfigError(f\"key 'state' must be ghz or zeros, got {state!r}\")\n",
        "",
        ("tests/test_config_cli.py::test_parse_config_rejects_what_a_run_would_drop_or_fail_on[mermin_state_w]",),
    ),
    Mutant(
        "laser terms skip the S^dag entries",
        "dynamics.py",
        "reached = np.flatnonzero((up != 0) | (down != 0))",
        "reached = np.flatnonzero(up != 0)",
        (
            "tests/test_dynamics.py::test_stack_equals_the_dense_drive_sum_byte_for_byte",
            "tests/test_config_cli.py::test_cli_table_is_its_benchmark_reference_byte_for_byte[fig4]",
        ),
    ),
    Mutant(
        "a family takes a laser on an atom it does not have",
        "dynamics.py",
        "            if not 1 <= int(atom) <= first.n_atoms:\n"
        '                raise ValueError(f"rabi entry for unknown atom {atom}")\n',
        "",
        (
            "tests/test_dynamics.py::test_spec_validation",
            "tests/test_dynamics.py::test_atom_count_validation",
        ),
    ),
    Mutant(
        "h_cond takes a non-finite Rabi frequency",
        "dynamics.py",
        "        if not (finite := np.isfinite(rabi)).all():\n"
        "            (atom, trans), w = self.keys[np.argmin(finite) % len(self.keys)], rabi[~finite][0]\n"
        '            raise ValueError(f"rabi entry for atom {atom}, {trans!r} must be finite, got {w}")\n',
        "",
        (
            "tests/test_dynamics.py::test_spec_rejects_non_finite_rates[rabi_nan]",
            "tests/test_dynamics.py::test_spec_rejects_non_finite_rates[rabi_imag_inf]",
        ),
    ),
    Mutant(
        "p0 above 1 passes as a no-photon probability",
        "dynamics.py",
        "    above = p0 > 1.0 + 1e-9\n"
        "    if above.any():\n"
        "        j = int(np.argmax(above))\n"
        '        raise NumericalError(f"p0 = {p0[j]} > 1 at t = {times[j]:.9g}: '
        'the evolution is numerically unsound")\n',
        "",
        ("tests/test_dynamics.py::test_no_photon_probabilities_refuse_a_norm_gain_by_its_time",),
    ),
    Mutant(
        "a sweep names the system after the failing one",
        "gates.py",
        'f"system {j // n_in // count}, "',
        'f"system {j // n_in // count + 1}, "',
        ("tests/test_gates.py::test_sweep_over_several_systems_names_the_failing_system",),
    ),
    Mutant(
        "sweep drives built as a list before the kernel",
        "gates.py",
        "_no_jump_chunks(family, (drive(omega) for omega, _ in points),",
        "_no_jump_chunks(family, [drive(omega) for omega, _ in points],",
        ("tests/test_gates.py::test_a_sweep_holds_no_state_of_its_runs_past_their_chunk",),
    ),
    Mutant(
        "a chunk's columns written at offset 0",
        "gates.py",
        "    for part, _, *scores in _pair_chunks(specs, points):\n",
        "    for part, _, *scores in _pair_chunks(specs, points):\n        part = slice(0, len(scores[0][0]))\n",
        (
            "tests/test_gates.py::test_tiny_expm_budget_gives_identical_records",
            "tests/test_gates.py::test_sweep_over_several_systems_equals_one_sweep_per_system",
        ),
    ),
    Mutant(
        "pair targets from the durations as given",
        "gates.py",
        "pair_target_amplitudes([om for om, _ in points[part]], duration, family.layout)",
        "pair_target_amplitudes([om for om, _ in points[part]], [t for _, t in points[part]], family.layout)",
        ("tests/test_gates.py::test_a_sweep_scores_each_row_against_the_pulse_it_propagated",),
    ),
    Mutant(
        "drive terms reach system 0 only",
        "dynamics.py",
        "h[:, :, reached]",
        "h[:1, :, reached]",
        (
            "tests/test_dynamics.py::test_family_of_several_systems_stacks_each_points_own_h0",
            "tests/test_gates.py::test_sweep_over_several_systems_equals_one_sweep_per_system",
            "tests/test_config_cli.py::test_figure_is_one_kernel_call_equal_to_one_sweep_per_gamma",
        ),
    ),
    Mutant(
        "the pair sweep scores its points against the targets in reversed order",
        "gates.py",
        "fidelities(finals, targets), np.vecdot",
        "fidelities(finals, targets[::-1]), np.vecdot",
        (
            "tests/test_gates.py::test_prepare_pair_sweep_equals_single_point_records",
            "tests/test_gates.py::test_sweep_records_score_as_the_one_state_formulas",
            "tests/test_config_cli.py::test_cli_table_is_its_benchmark_reference_byte_for_byte[prepare_pair]",
        ),
    ),
    Mutant(
        "a list of values is checked under the scalar key",
        "config.py",
        "values, spelling = _float_list(list_key, table.pop(list_key)), list_key",
        "values, spelling = _float_list(list_key, table.pop(list_key)), key",
        (
            "tests/test_config_cli.py::test_cli_unusable_durations_are_config_errors[negative_T_values]",
            "tests/test_config_cli.py::test_parse_config_rejects_what_a_run_would_drop_or_fail_on[pbg_negative_list]",
        ),
    ),
    Mutant(
        "zero-time points skip the drive check",
        "dynamics.py",
        "    rabi, times = family._rabi(drives), np.asarray(times, dtype=float)\n",
        "    rabi = family._rabi([dict.fromkeys(family.keys, 0.0) if t == 0 else d for d, t in zip(drives, times)])\n"
        "    times = np.asarray(times, dtype=float)\n",
        (
            "tests/test_dynamics.py::test_every_point_drive_is_checked_time_0_included",
            "tests/test_gates.py::test_a_non_finite_omega_is_refused_at_zero_duration",
        ),
    ),
    Mutant(
        "a nan t_end runs as t_end = 0",
        "trajectories.py",
        "    if not t_end >= 0:\n",
        "    if t_end < 0:\n",
        ("tests/test_trajectories.py::test_a_nan_time_is_refused[t_end]",),
    ),
    Mutant(
        "a non-finite analyzer angle is scored",
        "bell.py",
        "    if not (finite := np.isfinite(angles)).all():\n"
        '        raise ValueError(f"analyzer angle must be finite, got {angles[~finite][0]}")\n',
        "",
        ("tests/test_bell.py::test_a_non_finite_analyzer_angle_is_refused_on_every_path",),
    ),
    Mutant(
        "a non-integer n_traj reaches the draw",
        "trajectories.py",
        "    if isinstance(n_traj, bool) or not isinstance(n_traj, (int, np.integer)):",
        "    if False:",
        ("tests/test_trajectories.py::test_a_non_integer_n_traj_is_refused_before_any_draw",),
    ),
    Mutant(
        "a bool n_traj is a count",
        "trajectories.py",
        "isinstance(n_traj, bool) or ",
        "",
        ("tests/test_trajectories.py::test_a_non_integer_n_traj_is_refused_before_any_draw[bool]",),
    ),
    Mutant(
        "a bool shots is a count",
        "bell.py",
        "isinstance(shots, bool) or ",
        "",
        ("tests/test_bell.py::test_a_bad_shot_count_is_refused_before_any_draw[bool]",),
    ),
    Mutant(
        "shots over the cap reach the draw",
        "bell.py",
        "    if shots > SHOTS_CAP:\n"
        '        raise ValueError(f"shots = {shots} exceeds the limit of {SHOTS_CAP} per correlation")\n',
        "",
        (
            "tests/test_bell.py::test_a_bad_shot_count_is_refused_before_any_draw[cap_plus_1]",
            "tests/test_config_cli.py::test_cli_unbounded_landscape_exits_1_quickly[shots]",
        ),
    ),
    Mutant(
        "diagonal slices take the Pade path",
        "_expm.py",
        "diagonal = np.count_nonzero(a, axis=(1, 2)) == np.count_nonzero(np.diagonal(a, axis1=1, axis2=2), axis=1)",
        "diagonal = np.zeros(len(a), dtype=bool)",
        (
            "tests/test_expm.py::test_matrix_equals_its_slice_of_a_stack_bit_for_bit",
            "tests/test_expm.py::test_real_matrix_equals_its_slice_of_a_stack_bit_for_bit",
        ),
    ),
    Mutant(
        "one squaring round too few",
        "_expm.py",
        "np.arange(s.max(initial=0))",
        "np.arange(s.max(initial=0) - 1)",
        (
            "tests/test_expm.py::test_stack_agrees_with_scipy_over_the_scaling_range",
            "tests/test_expm.py::test_real_stack_agrees_with_scipy_over_the_scaling_range",
        ),
    ),
    Mutant(
        "slices up to 10 theta_13 left unscaled",
        "_expm.py",
        "norm > _THETA_13",
        "norm > 10 * _THETA_13",
        (
            "tests/test_expm.py::test_stack_agrees_with_scipy_over_the_scaling_range",
            "tests/test_expm.py::test_real_stack_agrees_with_scipy_over_the_scaling_range",
        ),
    ),
    Mutant(
        "A^6 scaled by 2^-4s at degree 13",
        "_expm.py",
        "a6 *= np.ldexp(1.0, -6 * scale)",
        "a6 *= np.ldexp(1.0, -4 * scale)",
        (
            "tests/test_expm.py::test_stack_agrees_with_scipy_over_the_scaling_range",
            "tests/test_dynamics.py::test_expm_agrees_with_step_halving_integrator",
        ),
    ),
    Mutant(
        "states compare by layout alone",
        "hilbert.py",
        "return layout == other_layout and np.array_equal(values, other_values)",
        "return layout == other_layout",
        ("tests/test_hilbert.py::test_array_records_compare_by_layout_and_values_and_are_unhashable",),
    ),
    Mutant(
        "value records compare by identity",
        "hilbert.py",
        "cls._key = staticmethod(operator.attrgetter(*cls.__slots__[: cls._compared]))",
        "cls._key = staticmethod(id)",
        (
            "tests/test_hilbert.py::test_value_records_compare_and_hash_by_their_fields",
            "tests/test_hilbert.py::test_embed_results_are_read_only_and_memoized_by_value",
        ),
    ),
    Mutant(
        "landscape vartheta whose triple overflows accepted",
        "bell.py",
        "    if bad.any():\n        raise ValueError(f\"vartheta and 3 * vartheta must be finite",
        "    if False:\n        raise ValueError(f\"vartheta and 3 * vartheta must be finite",
        (
            "tests/test_bell.py::test_a_vartheta_whose_triple_is_not_finite_is_refused_before_any_draw",
            "tests/test_config_cli.py::test_cli_landscape_whose_3_vartheta_overflows_is_one_config_error_line",
            "tests/test_config_cli.py::test_cli_float_key_at_extreme_values_keeps_the_exit_code_contract[bell_landscape-vartheta_max]",
        ),
    ),
    Mutant(
        "trajectory rows planned only as each runs",
        "cli.py",
        "        for t_end in t_values:  # every row's chain is planned before any row runs\n"
        '            trajectories.step_plan(h, jump_ops, t_end, p["dt"])\n',
        "        pass\n",
        ("tests/test_config_cli.py::test_cli_trajectory_rows_are_planned_before_any_row_runs",),
    ),
    Mutant(
        "bool and fractional seeds accepted",
        "config.py",
        "        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):",
        "        if False:",
        (
            "tests/test_config_cli.py::test_parse_config_refuses_a_bool_or_non_integer_seed[bool]",
            "tests/test_config_cli.py::test_parse_config_refuses_a_bool_or_non_integer_seed[fraction]",
        ),
    ),
    Mutant(
        "a non-finite pulse area reaches sin",
        "states.py",
        "    if not math.isfinite(area := modulus * duration):\n"
        '        raise ValueError(f"pulse area |omega| T must be finite, got {area}")\n',
        "    area = modulus * duration\n",
        (
            "tests/test_bell.py::test_a_non_finite_pulse_area_or_empty_grid_is_refused_on_both_landscapes[inf]",
            "tests/test_bell.py::test_a_non_finite_pulse_area_or_empty_grid_is_refused_on_both_landscapes[minus_inf]",
            "tests/test_bell.py::test_a_non_finite_pulse_area_or_empty_grid_is_refused_on_both_landscapes[nan]",
        ),
    ),
    Mutant(
        "the sampled landscape takes an empty grid",
        "bell.py",
        "    omega_t_grid, v = _landscape_grids(omega_t_grid, vartheta_grid)\n",
        "    omega_t_grid, v = np.asarray(omega_t_grid, dtype=float), np.asarray(vartheta_grid, dtype=float)\n"
        "    check_vartheta(v)\n",
        ("tests/test_bell.py::test_a_non_finite_pulse_area_or_empty_grid_is_refused_on_both_landscapes[empty]",),
    ),
    Mutant(
        "bool and fractional spec counts accepted",
        "dynamics.py",
        "            if isinstance(count, bool) or not isinstance(count, numbers.Integral):",
        "            if False:",
        ("tests/test_dynamics.py::test_spec_refuses_a_bool_or_non_integer_count",),
    ),
    Mutant(
        "a dt of 0 is a step",
        "trajectories.py",
        '    if not dt > 0:\n        raise ValueError(f"dt must be > 0',
        '    if dt < 0:\n        raise ValueError(f"dt must be > 0',
        (
            "tests/test_trajectories.py::test_a_nan_time_is_refused[dt]",
            "tests/test_guards.py::test_each_guard_refuses_its_input_with_its_message[config_dt_0]",
        ),
    ),
)


def source(mutant: Mutant, src: Path = ROOT / "src") -> Path:
    return src / "zenobell" / mutant.file


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its file; it applies when this is 1."""
    return source(mutant).read_text().count(mutant.old)


def survivors(mutant: Mutant) -> list[str]:
    """Why the mutant, applied to a copy of ``src``, is not killed by its tests; [] when it is."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = source(mutant, src)
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        # pythonpath from pyproject.toml would put the unmutated src first; its
        # warning policy, that any warning fails a test, holds as in every run
        pytest = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider"]
        run = subprocess.run(
            [*pytest, "-o", f"pythonpath={src}", *mutant.tests], cwd=ROOT, env=env, capture_output=True, text=True
        )
    passed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("PASSED ")]
    alive = [f"{test} passed" for test in mutant.tests if any(p == test or p.startswith(test + "[") for p in passed)]
    if not alive and run.returncode != 1:  # killed only by failing tests, not by a usage or collection error
        alive = [f"pytest exited {run.returncode} with no failed test"]
    return alive


def select(names) -> tuple[Mutant, ...]:
    """The registered mutants called ``names``, in registry order; every mutant when ``names`` is empty.

    Raises KeyError naming the first name that is not registered.
    """
    registered = {mutant.name for mutant in MUTANTS}
    if unknown := [name for name in names if name not in registered]:
        raise KeyError(unknown[0])
    return tuple(mutant for mutant in MUTANTS if not names or mutant.name in names)


def main(names) -> int:
    try:
        chosen = select(names)
    except KeyError as err:
        registered = "".join(f"\n  {mutant.name}" for mutant in MUTANTS)
        print(f"no mutant named {err.args[0]!r}; the registered mutants are:{registered}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in chosen:
        start = time.perf_counter()
        if (count := occurrences(mutant)) != 1:
            line = f"STALE     {mutant.name}: old text occurs {count} times in {mutant.file}"
        elif alive := survivors(mutant):
            line = f"SURVIVED  {mutant.name}: {'; '.join(alive)}"
        else:
            line = f"killed    {mutant.name}"
        bad += not line.startswith("killed")
        print(f"{line}  [{time.perf_counter() - start:.1f} s]", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
