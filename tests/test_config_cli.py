import contextlib
import io
import math
import os
import re
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from zenobell import bell, cli, gates, selftest, trajectories
from zenobell.dynamics import SystemSpec
from zenobell.cli import _run_bell_landscape, main, render_csv
from zenobell.config import ROWS_CAP, SCENARIOS, SWEEP_WORK_CAP, ConfigError, parse_config

import contract
from oracles import render_csv_by_value

EXAMPLE = """\
scenario = prepare_pair
g = 1.0
kappa = 1.0
gamma = 0.01
omega_minus = 0.02
T = auto
"""


# -------------------------------------------------------------------- parsing


def test_parse_example_resolves_auto_duration():
    cfg = parse_config(EXAMPLE)
    assert cfg.scenario == "prepare_pair"
    assert cfg.physics["omega_values"] == [0.02]
    assert cfg.physics["t_values"] == [pytest.approx(math.pi / 0.02)]


def test_parse_missing_required_key_names_it():
    text = EXAMPLE.replace("g = 1.0\n", "")
    with pytest.raises(ConfigError, match="'g'"):
        parse_config(text)


def test_parse_negative_rate_rejected():
    with pytest.raises(ConfigError, match="gamma"):
        parse_config(EXAMPLE.replace("gamma = 0.01", "gamma = -1"))


def test_parse_unknown_key_rejected():
    with pytest.raises(ConfigError, match="gama"):
        parse_config(EXAMPLE + "gama = 0.1\n")


def test_parse_unknown_scenario_and_section():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config("scenario = warp_drive\n")
    with pytest.raises(ConfigError, match="section"):
        parse_config("[nope]\n" + EXAMPLE)
    parse_config("[physics]\n" + EXAMPLE)  # known sections are fine


def test_parse_bad_number_and_duplicates():
    with pytest.raises(ConfigError, match="unparsable"):
        parse_config(EXAMPLE.replace("kappa = 1.0", "kappa = fast"))
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(EXAMPLE + "g = 2.0\n")


def test_parse_comments_and_value_lists():
    cfg = parse_config(
        "scenario = cnot  # the dissipative gate\n"
        "# full-line comment\n"
        "g = 1\nkappa = 1\ngamma = 0\n"
        "omega_values = 0.01, 0.02\n"
        "input = 10\n"
    )
    assert cfg.physics["omega_values"] == [0.01, 0.02]
    assert cfg.physics["input"] == "10"


def test_parse_trajectories_defaults():
    cfg = parse_config("scenario = trajectories\nsystem = cavity_decay\nkappa = 1.0\n")
    assert cfg.seed == 0
    assert cfg.physics["n_traj"] == 2000
    with pytest.raises(ConfigError, match="system"):
        parse_config("scenario = trajectories\nsystem = nope\nkappa = 1.0\n")


def test_parse_shots_only_for_landscape():
    with pytest.raises(ConfigError, match="shots"):
        parse_config(EXAMPLE + "shots = 100\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config("scenario = bell_landscape\nshots = 100\n")


def test_parse_grid_and_shot_bounds_are_inclusive():
    side = math.isqrt(ROWS_CAP)
    cfg = parse_config(f"scenario = bell_landscape\nomega_t_count = {side}\nvartheta_count = {side}\n")
    assert len(cfg.physics["omega_t_values"]) * len(cfg.physics["vartheta_values"]) == ROWS_CAP
    with pytest.raises(ConfigError, match=f"omega_t_count x vartheta_count asks for {ROWS_CAP + side} rows"):
        parse_config(f"scenario = bell_landscape\nomega_t_count = {side + 1}\nvartheta_count = {side}\n")
    assert parse_config(f"scenario = bell_landscape\nshots = {bell.SHOTS_CAP}\nseed = 1\n").shots == bell.SHOTS_CAP
    with pytest.raises(ConfigError, match="gt1 x gt2"):
        parse_config(f"scenario = pbg\ngt1_count = {ROWS_CAP}\ngt2_values = 0.1, 0.2\n")


# The keys each scenario parser reads (besides scenario, seed, shots and
# out), and values at the edges of what they accept.
_PAIR_KEYS = ("g", "kappa", "gamma", "n_max")
_GRID_KEYS = ("_values", "_min", "_max", "_count")
SCENARIO_KEYS = {
    "prepare_pair": _PAIR_KEYS + ("omega_minus", "omega_minus_values", "T", "T_values"),
    "cnot": _PAIR_KEYS + ("omega", "omega_values", "input"),
    "pbg": ("g", "loss", "gt1", "gt2") + tuple(f"gt{k}{s}" for k in (1, 2) for s in _GRID_KEYS),
    "bell_landscape": ("readout_error",) + tuple(f"{a}{s}" for a in ("omega_t", "vartheta") for s in _GRID_KEYS[1:]),
    "mermin": ("n_qubits", "n_qubits_values", "state", "ghz_phase"),
    "trajectories": _PAIR_KEYS + ("system", "omega_minus", "n_traj", "t_end", "t_end_values", "dt"),
}
EDGE_VALUES = (
    "nan", "inf", "-inf", "1e308", "-1e308", "0", "-1", "1", "3", "1_000", "1000000", "1" + "0" * 400,
    ",", "-1e308, 1e308", "auto", "all", "ghz", "pair", "cavity_decay",
)


def _numbers(value):
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


@st.composite
def _config_texts(draw):
    scenario = draw(st.sampled_from(SCENARIOS))
    keys = SCENARIO_KEYS[scenario] + ("seed", "shots", "out")
    lines = draw(st.dictionaries(st.sampled_from(keys), st.sampled_from(EDGE_VALUES), max_size=6))
    return f"scenario = {scenario}\n" + "".join(f"{key} = {value}\n" for key, value in lines.items())


@settings(max_examples=500, deadline=None)
@given(_config_texts())
@example("scenario = bell_landscape\nomega_t_min = -1e308\nomega_t_max = 1e308\nomega_t_count = 3\n")
def test_parse_config_raises_only_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    # what it accepts is finite, so no run starts from a nan or inf it was handed
    for value in cfg.physics.values():
        assert all(math.isfinite(x) for x in _numbers(value)), (text, cfg.physics)


# ------------------------------------------------------------------ rendering


def test_render_csv_formats():
    text = render_csv(("a", "b", "c"), [[math.pi, 0.5], np.array([True, False]), (3, -1)])
    lines = text.split("\n")
    assert lines[0] == "a,b,c"
    assert lines[1] == "3.14159265,true,3"
    assert lines[2] == "0.5,false,-1"
    assert text.endswith("\n")


@pytest.mark.parametrize("block", [4096, 2])
def test_render_csv_columns_match_per_value_formatting(monkeypatch, block):
    # each column is formatted by its dtype; the text must be what
    # formatting its Python values one at a time gives, across blocks of
    # 2 rows as in one block
    monkeypatch.setattr(cli, "_CSV_BLOCK", block)
    i64 = np.iinfo(np.int64)
    columns = {
        "f64": np.array([math.pi, 1e-300, -0.0, 0.0, 1 / 3]),
        # 9-digit rounding that carries into a new digit, ties, and the switches to and from exponents
        "carry": np.array([9.9999999995, 123456789.5, 1e16, 1e-5, 0.0001]),
        "i64": np.array([-3, 2**62, 0, i64.min, i64.max]),
        "flag": np.array([True, False, True, True, False]),
        "name": np.array(["ghz", "zeros", "w", "00", "a b"]),
        "edge": [math.nan, math.inf, -math.inf, -math.nan, 5e-324],
        "py_int": [1, -2, 3, 10**15, 0],
        "py_bool": [True, False, False, True, True],
    }
    rows = list(zip(*(np.asarray(column).tolist() for column in columns.values())))
    assert render_csv(tuple(columns), columns.values()) == render_csv_by_value(tuple(columns), rows)
    # a float column that repeats few values formats each once: -0.0 must
    # still print -0, and NaN of either sign and +-inf as per value
    edges = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1e-300, 1 / 3, math.pi]
    axis = [edges[k % len(edges)] for k in range(5000)]
    mixed = [edges[(k * 7) % len(edges)] if k % 3 else k / 5 for k in range(5000)]
    expected = render_csv_by_value(("axis", "mixed"), zip(axis, mixed))
    assert render_csv(("axis", "mixed"), (np.array(axis), mixed)) == expected
    # no rows: the header alone
    assert render_csv(("a", "b"), ([], np.array([], dtype=bool))) == "a,b\n"


# Every scenario, with its sampled forms.
ONE_CONFIG_PER_RUNNER = {
    "prepare_pair": "scenario = prepare_pair\ng = 1\nkappa = 1\ngamma = 0.0002\nomega_minus_values = 0.02, 0.03\nT_values = 0, 50\n",
    "cnot": "scenario = cnot\ng = 1\nkappa = 1\ngamma = 0.001\nomega = 0.05\ninput = all\n",
    "pbg": "scenario = pbg\ngt1_count = 3\ngt2_count = 4\nloss = 0.01\n",
    "bell_landscape": "scenario = bell_landscape\nomega_t_count = 3\nvartheta_count = 3\n",
    "bell_landscape_sampled": "scenario = bell_landscape\nomega_t_count = 3\nvartheta_count = 3\nshots = 100\nseed = 1\n",
    "mermin_ghz": "scenario = mermin\n",
    "mermin_zeros": "scenario = mermin\nstate = zeros\n",
    "trajectories_cavity": "scenario = trajectories\nsystem = cavity_decay\nkappa = 1\nn_traj = 100\n",
    "trajectories_pair": (
        "scenario = trajectories\nsystem = pair\ng = 1\nkappa = 1\ngamma = 0.001\nomega_minus = 0.02\nn_traj = 10\n"
    ),
}


def _assert_header_length_columns(header, columns):
    # render_csv formats a column by its dtype, so each must be 1-D of a
    # bool, int, float or str dtype, and all of one nonzero length
    columns = [np.asarray(column) for column in columns]
    assert len(columns) == len(header)
    assert {column.shape for column in columns} == {(len(columns[0]),)} and len(columns[0]) > 0
    assert {column.dtype.kind for column in columns} <= set("bifU")


@pytest.mark.parametrize("name", ONE_CONFIG_PER_RUNNER)
def test_scenario_rows_hold_python_scalars(name):
    cfg = parse_config(ONE_CONFIG_PER_RUNNER[name])
    header, columns, _summary = cli._RUNNERS[cfg.scenario](cfg)
    _assert_header_length_columns(header, columns)


@pytest.mark.parametrize("which", ["fig2", "fig4", "fig5", "islands"])
def test_figure_rows_hold_python_scalars(which):
    _assert_header_length_columns(*cli._figure_columns(which))


# ------------------------------------------------------------------- CLI runs


def run_cli(args):
    return main([str(a) for a in args])


def test_cli_prepare_pair_run(tmp_path, capsys):
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(
        "scenario = prepare_pair\ng = 1\nkappa = 1\ngamma = 0.0002\n"
        "omega_minus = 0.02\nT = auto\n"
    )
    assert run_cli(["run", cfg, "--out", tmp_path]) == 0
    out = capsys.readouterr().out
    csv = (tmp_path / "prepare_pair.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0] == "omega_minus,T,p0,fidelity,alpha_re,alpha_im"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert float(fields[2]) >= 0.9
    assert float(fields[3]) >= 0.95
    assert "in_regime=True" in out
    assert (tmp_path / "prepare_pair_summary.txt").exists()


def test_cli_output_bit_identical(tmp_path):
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(
        "scenario = prepare_pair\ng = 1\nkappa = 1\ngamma = 0\n"
        "omega_minus_values = 0.01, 0.02\nT_values = 50, 100, 150\n"
    )
    assert run_cli(["run", cfg, "--out", tmp_path / "a", "--quiet"]) == 0
    assert run_cli(["run", cfg, "--out", tmp_path / "b", "--quiet"]) == 0
    first = (tmp_path / "a" / "prepare_pair.csv").read_bytes()
    second = (tmp_path / "b" / "prepare_pair.csv").read_bytes()
    assert first == second
    assert first.count(b"\n") == 1 + 2 * 3  # header + omega grid x T grid


def test_cli_cnot_all_inputs(tmp_path):
    cfg = tmp_path / "cnot.cfg"
    cfg.write_text("scenario = cnot\ng = 1\nkappa = 1\ngamma = 0\nomega = 0.05\ninput = all\n")
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 0
    lines = (tmp_path / "cnot.csv").read_text().strip().split("\n")
    assert lines[0] == "omega,input_label,p0,fidelity"
    assert len(lines) == 5
    labels = [line.split(",")[1] for line in lines[1:]]
    assert labels == ["00", "01", "10", "11"]


_PINNED_SUMMARIES = [
    (  # a repeated omega gets its line again, and 0.5 is out of regime
        "scenario = prepare_pair\ng = 1\nkappa = 1\ngamma = 0.001\nomega_minus_values = 0.02, 0.5, 0.02\nT = auto\n",
        "prepare_pair_summary.txt",
        "scenario = prepare_pair\ng = 1.0\ngamma = 0.001\nkappa = 1.0\nn_max = 2\n"
        "omega_values = [0.02, 0.5, 0.02]\nt_values = None\nrows = 3\n"
        "regime omega=0.02: in_regime=True (gamma_over_omega=0.05, omega_kappa_over_g2=0.02, omega_over_kappa=0.02)\n"
        "regime omega=0.5: in_regime=False (gamma_over_omega=0.002, omega_kappa_over_g2=0.5, omega_over_kappa=0.5)\n"
        "regime omega=0.02: in_regime=True (gamma_over_omega=0.05, omega_kappa_over_g2=0.02, omega_over_kappa=0.02)\n"
        "best fidelity = 0.996104 at omega_minus=0.02, T=157.079633 (p0=0.840985)\n"
        "last row: p0 = 0.840985, fidelity = 0.996104\n",
    ),
    (
        "scenario = cnot\ng = 1\nkappa = 1\ngamma = 0.001\nomega_values = 0.02, 0.3\ninput = all\n",
        "cnot_summary.txt",
        "scenario = cnot\ng = 1.0\ngamma = 0.001\ninput = all\nkappa = 1.0\nn_max = 2\n"
        "omega_values = [0.02, 0.3]\nrows = 8\n"
        "regime omega=0.02: in_regime=True (gamma_over_omega=0.05, omega_kappa_over_g2=0.02, omega_over_kappa=0.02)\n"
        "regime omega=0.3: in_regime=False (gamma_over_omega=0.003333, omega_kappa_over_g2=0.3, omega_over_kappa=0.3)\n"
        "worst fidelity = 0.842493 (omega=0.3, input=11)\n",
    ),
]


@pytest.mark.parametrize("config, name, expected", _PINNED_SUMMARIES, ids=["prepare_pair", "cnot"])
def test_cli_summary_is_pinned_whole(tmp_path, capsys, config, name, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert run_cli(["run", cfg, "--out", tmp_path]) == 0
    assert (tmp_path / name).read_text() == expected
    assert capsys.readouterr().out.startswith(expected)


def test_cli_bell_landscape_max_row(tmp_path):
    cfg = tmp_path / "bell.cfg"
    cfg.write_text("scenario = bell_landscape\n")
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 0
    lines = (tmp_path / "bell_landscape.csv").read_text().strip().split("\n")
    assert lines[0] == "omega_T,vartheta,b_s,violated"
    assert len(lines) == 1 + 101 * 101
    rows = [line.split(",") for line in lines[1:]]
    best = max(rows, key=lambda r: float(r[2]))
    assert best[0] == f"{math.pi:.9g}"
    assert best[1] == f"{math.pi / 4:.9g}"
    assert best[2] == f"{2 * math.sqrt(2):.9g}"
    assert best[3] == "true"


def test_cli_bell_landscape_sampled(tmp_path):
    cfg = tmp_path / "bell.cfg"
    cfg.write_text(
        "scenario = bell_landscape\nshots = 4000\nseed = 5\n"
        "omega_t_min = 3.14159265\nomega_t_max = 3.14159265\nomega_t_count = 1\n"
        "vartheta_min = 0.785398163\nvartheta_max = 0.785398163\nvartheta_count = 1\n"
    )
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 0
    row = (tmp_path / "bell_landscape.csv").read_text().strip().split("\n")[1].split(",")
    assert abs(float(row[2]) - 2 * math.sqrt(2)) < 0.15
    assert row[3] == "true"


@pytest.mark.parametrize(
    "readout_error, shots, seed, block", [(0.0, 1, 0, 2**14), (0.02, 4000, 5, 2**14), (0.3, 10**7, 2**40, 5)]
)
def test_sampled_landscape_row_is_two_sample_correlation_calls(monkeypatch, readout_error, shots, seed, block):
    # a run draws every row's counts, in row order, from one stream
    # default_rng(SeedSequence(seed)); two sample_correlation calls per row
    # taking their draws in turn from that stream give the same numbers,
    # whatever blocks the rows are stacked and drawn in
    monkeypatch.setattr(bell, "_LANDSCAPE_BLOCK", block)
    cfg = parse_config(
        f"scenario = bell_landscape\nshots = {shots}\nseed = {seed}\nreadout_error = {readout_error}\n"
        "omega_t_count = 4\nvartheta_count = 3\n"
    )
    _, landscape, _ = _run_bell_landscape(cfg)
    assert len(landscape.b_s) == 12
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for om_t, v, b, violated in zip(*landscape):
        state = bell.landscape_state(om_t)
        e1, _ = bell.sample_correlation(state, 0, 1, v, 0.0, shots, rng, readout_error)
        e3, _ = bell.sample_correlation(state, 0, 1, 3 * v, 0.0, shots, rng, readout_error)
        assert b == abs(3.0 * e1 - e3)
        assert violated == (b > bell.CLASSICAL_BOUND)


@pytest.mark.parametrize(
    "config",
    [
        "scenario = bell_landscape\nshots = 100\nseed = 3\nomega_t_count = 4\nvartheta_count = 5\n",
        "scenario = trajectories\nsystem = cavity_decay\nkappa = 1\nn_traj = 50\nseed = 3\nt_end_values = 0.1, 0.2, 0.3\n",
    ],
    ids=["bell_landscape", "trajectories"],
)
def test_sampled_run_seeds_one_stream(monkeypatch, config):
    # building a stream per row cost ~24 us a row; a run builds one
    made = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    cfg = parse_config(config)
    _header, columns, _summary = cli._RUNNERS[cfg.scenario](cfg)
    assert len(columns[0]) > 1
    assert made == [(3,)]


_PINNED_SAMPLED = [
    (
        "scenario = bell_landscape\nshots = 2000\nseed = 5\nreadout_error = 0.02\nomega_t_count = 5\nvartheta_count = 4\n",
        "bell_landscape.csv",
        "omega_T,vartheta,b_s,violated\n"
        "0,0,0.059,false\n0,1.04719755,0.066,false\n0,2.0943951,0.16,false\n0,3.14159265,0.053,false\n"
        "1.57079633,0,0.832,false\n1.57079633,1.04719755,1.093,false\n"
        "1.57079633,2.0943951,1.215,false\n1.57079633,3.14159265,1.05,false\n"
        "3.14159265,0,1.85,false\n3.14159265,1.04719755,2.364,true\n"
        "3.14159265,2.0943951,2.293,true\n3.14159265,3.14159265,1.798,false\n"
        "4.71238898,0,0.992,false\n4.71238898,1.04719755,1.183,false\n"
        "4.71238898,2.0943951,1.101,false\n4.71238898,3.14159265,1.009,false\n"
        "6.28318531,0,0.036,false\n6.28318531,1.04719755,0.023,false\n"
        "6.28318531,2.0943951,0.161,false\n6.28318531,3.14159265,0.018,false\n",
    ),
    (
        "scenario = trajectories\nsystem = pair\ng = 1\nkappa = 1\ngamma = 0.001\nomega_minus = 0.05\n"
        "n_traj = 500\nseed = 3\n",
        "trajectories.csv",
        "t_end,p0_det,p0_mc,stderr\n62.8318531,0.891154748,0.912,0.0126693331\n",
    ),
    (
        "scenario = trajectories\nsystem = cavity_decay\nkappa = 1\nn_max = 3\nt_end_values = 0.5, 1\n"
        "n_traj = 500\nseed = 3\n",
        "trajectories.csv",
        "t_end,p0_det,p0_mc,stderr\n0.5,0.367879441,0.35,0.021330729\n1,0.135335283,0.15,0.0159687194\n",
    ),
]


@pytest.mark.parametrize(
    "config, name, expected", _PINNED_SAMPLED, ids=["bell_landscape", "trajectories_pair", "trajectories_cavity"]
)
def test_cli_sampled_csv_is_pinned_whole(tmp_path, config, name, expected):
    # a sampled run at a fixed seed is exact: these bytes pin the pulse
    # state, the jump operators, the survival chain and the one stream of
    # numpy's default generator a run draws from
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 0
    assert (tmp_path / name).read_text() == expected


@pytest.mark.parametrize("name", sorted(contract.REFERENCE_TABLES))
def test_cli_table_is_its_benchmark_reference_byte_for_byte(tmp_path, name):
    # the benchmark's own job, full size, written whole by the CLI in a fresh
    # interpreter and compared with the recorded table, bytes and not values
    contract.check_reference_table(tmp_path, name)


@pytest.mark.parametrize("which", ["fig2", "fig4", "fig5"])
def test_figure_is_one_kernel_call_equal_to_one_sweep_per_gamma(monkeypatch, which):
    # the three Gamma curves of a figure come from one kernel pass over
    # the 25 omegas' drives on the three systems, and each column equals,
    # byte for byte, that of one sweep per Gamma (alpha_re is an exact
    # signed zero in every fig2 row)
    calls, kernel = [], gates._no_jump_chunks
    record = lambda family, drives, times, inputs: calls.append((len(times), len(family.h0))) or kernel(
        family, drives, times, inputs
    )
    monkeypatch.setattr(gates, "_no_jump_chunks", record)
    header, columns = cli._figure_columns(which)
    assert calls == [(len(cli._FIGURE_OMEGAS), len(cli._FIGURE_GAMMAS))]

    monkeypatch.setattr(gates, "_no_jump_chunks", kernel)
    runs = []
    for gamma in cli._FIGURE_GAMMAS:
        spec = SystemSpec(atom_levels=2 if which == "fig2" else 3, n_atoms=2, g=1.0, kappa=1.0, gamma=gamma, n_max=2)
        if which == "fig2":
            runs.append(gates.prepare_pair_sweep(spec, [(om, gates.pair_duration(om)) for om in cli._FIGURE_OMEGAS]))
        else:
            runs.append(gates.cnot_pulse_sweep(spec, cli._FIGURE_OMEGAS, ["10"]))
    # every column but the two axes: a field of the runs, or a part of one
    for name, column in zip(header[2:], columns[2:]):
        field, part = {"T": ("duration", None), "alpha_re": ("alpha", "real"), "alpha_im": ("alpha", "imag")}.get(
            name, (name, None)
        )
        parts = [getattr(run, field) for run in runs]
        parts = [np.ravel(p if part is None else getattr(p, part)) for p in parts]
        assert np.asarray(column).tobytes() == np.concatenate(parts).tobytes(), name
    if which == "fig2":
        assert not np.asarray(columns[header.index("alpha_re")]).any()


def test_every_benchmark_trajectory_row_lands_its_chain_on_p0_det(monkeypatch):
    # the deterministic half of the jump check: the chain's survival, taken
    # from the jump operators, against ||exp(-i H t) psi0||^2 on every row of
    # the jumps workload, both built as the scenario builds them.  The gap is
    # ~1e-13; a 1 % error in the jump rates makes it ~1.5e-3, which the
    # sampled p0_mc hides inside its 6-sigma band
    batches, run_trajectories = [], trajectories.run_trajectories

    def recording(*args, **kwargs):
        batches.append(run_trajectories(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(trajectories, "run_trajectories", recording)
    for job in contract.bench_jobs("jumps"):
        batches.clear()
        _, (t_values, p0_det, p0_mc, _), _ = cli._RUNNERS["trajectories"](parse_config(job.config))
        assert [batch.t_end for batch in batches] == list(t_values)
        for batch, det, mc in zip(batches, p0_det, p0_mc):
            assert batch.p0_estimate == mc
            assert abs(float(batch.survival[-1]) - det) <= 1e-9, (job.name, batch.t_end)


@pytest.mark.parametrize("name", ["bell_landscape_sampled", "trajectories_cavity"])
def test_sampled_run_with_a_bad_seed_is_a_config_error(tmp_path, capsys, name):
    cfg = tmp_path / "sampled.cfg"
    cfg.write_text(ONE_CONFIG_PER_RUNNER[name])
    assert run_cli(["run", cfg, "--out", tmp_path, "--seed", -1, "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    # the parser rejects these seeds first, from the file or from --seed;
    # the run's stream itself reports them as config errors too
    parsed = parse_config(ONE_CONFIG_PER_RUNNER[name])
    for seed in (-1, 1.5):
        parsed.seed = seed
        with pytest.raises(ConfigError, match="bad seed"):
            cli._RUNNERS[parsed.scenario](parsed)


def test_cli_mermin_summary(tmp_path):
    cfg = tmp_path / "mermin.cfg"
    cfg.write_text("scenario = mermin\n")
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 0
    summary = (tmp_path / "mermin_summary.txt").read_text()
    assert "F = 4.000000" in summary
    lines = (tmp_path / "mermin.csv").read_text().strip().split("\n")
    assert lines[0] == "n_qubits,f_value,classical_bound,quantum_bound"
    assert lines[1].split(",")[0] == "3"


def test_cli_trajectories_run(tmp_path):
    cfg = tmp_path / "traj.cfg"
    cfg.write_text(
        "scenario = trajectories\nsystem = cavity_decay\nkappa = 1\n"
        "n_traj = 3000\nseed = 9\nt_end = 1.0\n"
    )
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 0
    lines = (tmp_path / "trajectories.csv").read_text().strip().split("\n")
    assert lines[0] == "t_end,p0_det,p0_mc,stderr"
    t_end, p0_det, p0_mc, stderr = (float(x) for x in lines[1].split(","))
    assert p0_det == pytest.approx(math.exp(-2.0), rel=1e-7)  # 9 printed digits
    assert abs(p0_mc - p0_det) <= 4 * stderr


def test_cli_pbg_run(tmp_path):
    cfg = tmp_path / "pbg.cfg"
    cfg.write_text("scenario = pbg\ngt1_count = 5\ngt2_count = 5\n")
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 0
    lines = (tmp_path / "pbg.csv").read_text().strip().split("\n")
    assert lines[0] == "g_t1,g_t2,bell_fidelity"
    assert len(lines) == 26


def test_cli_custom_out_name_and_seed_override(tmp_path):
    cfg = tmp_path / "traj.cfg"
    cfg.write_text(
        "scenario = trajectories\nsystem = cavity_decay\nkappa = 1\n"
        "n_traj = 500\nseed = 1\nt_end = 0.5\nout = decay.csv\n"
    )
    assert run_cli(["run", cfg, "--out", tmp_path, "--seed", 2, "--quiet"]) == 0
    assert (tmp_path / "decay.csv").exists()


def test_cli_figures(tmp_path):
    assert run_cli(["figure", "islands", "--out", tmp_path, "--quiet"]) == 0
    lines = (tmp_path / "islands.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 101 * 101
    assert run_cli(["figure", "fig2", "--out", tmp_path, "--quiet"]) == 0
    header = (tmp_path / "fig2.csv").read_text().split("\n", 1)[0]
    assert header == "gamma,omega_minus,T,p0,fidelity,alpha_re,alpha_im"


# ------------------------------------------------------ replacing output files


def _outputs(out_dir):
    return {path.name: path.read_bytes() for path in out_dir.iterdir()}


def _mermin_config(tmp_path):
    cfg = tmp_path / "mermin.cfg"
    cfg.write_text("scenario = mermin\n")
    return cfg


def test_cli_rerun_into_one_directory_gives_the_first_bytes(tmp_path):
    pair, sampled = tmp_path / "pair.cfg", tmp_path / "bell.cfg"
    pair.write_text(
        "scenario = prepare_pair\ng = 1\nkappa = 1\ngamma = 0\n"
        "omega_minus_values = 0.01, 0.02\nT_values = 50, 100\n"
    )
    sampled.write_text("scenario = bell_landscape\nshots = 400\nseed = 3\nomega_t_count = 3\nvartheta_count = 2\n")
    out = tmp_path / "out"
    runs = [["run", pair], ["run", sampled], ["figure", "fig4"]]
    for argv in runs:
        assert run_cli(argv + ["--out", out, "--quiet"]) == 0
    first = _outputs(out)
    assert set(first) == {
        "prepare_pair.csv", "prepare_pair_summary.txt",
        "bell_landscape.csv", "bell_landscape_summary.txt",
        "fig4.csv",
    }
    for argv in runs:
        assert run_cli(argv + ["--out", out, "--quiet"]) == 0
    assert _outputs(out) == first


def test_cli_longer_stale_outputs_are_replaced_whole(tmp_path):
    cfg = _mermin_config(tmp_path)
    assert run_cli(["run", cfg, "--out", tmp_path / "fresh", "--quiet"]) == 0
    out = tmp_path / "out"
    out.mkdir()
    for name in ("mermin.csv", "mermin_summary.txt"):
        (out / name).write_bytes(b"junk\n" * 200_000)  # ~1 MB, longer than any output
    assert run_cli(["run", cfg, "--out", out, "--quiet"]) == 0
    assert _outputs(out) == _outputs(tmp_path / "fresh")


@pytest.mark.parametrize("name", ["mermin.csv", "mermin_summary.txt", "fig4.csv"])
def test_cli_output_path_that_is_a_directory_exits_3(tmp_path, capsys, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    argv = ["figure", "fig4"] if name == "fig4.csv" else ["run", _mermin_config(tmp_path)]
    assert run_cli(argv + ["--out", out, "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o failure:") and "Traceback" not in err
    assert (out / name).is_dir()


@pytest.mark.parametrize("link", ["symlink", "hard link"])
def test_cli_link_at_output_path_is_written_through(tmp_path, link):
    cfg = _mermin_config(tmp_path)
    assert run_cli(["run", cfg, "--out", tmp_path / "fresh", "--quiet"]) == 0
    fresh = _outputs(tmp_path / "fresh")
    out = tmp_path / "out"
    out.mkdir()
    for name in ("mermin.csv", "mermin_summary.txt"):
        target = tmp_path / f"target_{name}"
        target.write_text("old\n")
        if link == "symlink":
            (out / name).symlink_to(target)
        else:
            (out / name).hardlink_to(target)
    assert run_cli(["run", cfg, "--out", out, "--quiet"]) == 0
    for name in ("mermin.csv", "mermin_summary.txt"):
        assert (out / name).is_symlink() == (link == "symlink")
        assert (tmp_path / f"target_{name}").read_bytes() == fresh[name]
    assert _outputs(out) == fresh


def test_cli_unchanged_output_is_not_rewritten_but_gets_a_new_mtime(tmp_path, monkeypatch):
    cfg = _mermin_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["run", cfg, "--out", out, "--quiet"]) == 0
    first = _outputs(out)
    (out / "mermin_summary.txt").write_text(first["mermin_summary.txt"].decode() + "stale\n")
    for name in first:
        os.utime(out / name, (0, 0))
    modes = []

    def spy(path, mode="r", *args, **kwargs):
        modes.append((Path(path).name, mode))
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", spy, raising=False)
    assert run_cli(["run", cfg, "--out", out, "--quiet"]) == 0
    assert [m for m in modes if "w" in m[1]] == [("mermin_summary.txt", "w")]
    assert _outputs(out) == first
    assert all((out / name).stat().st_mtime > 0 for name in first)


def test_cli_regime_warning_does_not_change_exit_code(tmp_path, capsys):
    # out-of-regime runs raise no warning, even as an error: the regime goes to the summary
    pair = tmp_path / "pair.cfg"
    pair.write_text(
        "scenario = prepare_pair\ng = 1\nkappa = 1\ngamma = 0.01\n"
        "omega_minus = 0.02\nT = auto\n"
    )
    cnot = tmp_path / "cnot.cfg"
    cnot.write_text("scenario = cnot\ng = 1\nkappa = 1\ngamma = 0.01\nomega = 0.02\ninput = all\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["run", pair, "--out", tmp_path, "--quiet"]) == 0
        assert run_cli(["run", cnot, "--out", tmp_path, "--quiet"]) == 0
        assert run_cli(["figure", "fig2", "--out", tmp_path, "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    for name in ("prepare_pair", "cnot"):
        assert "in_regime=False" in (tmp_path / f"{name}_summary.txt").read_text()


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario = prepare_pair\n")  # missing everything
    assert run_cli(["run", bad]) == 1
    assert "config error" in capsys.readouterr().err
    assert run_cli(["run", tmp_path / "missing.cfg"]) == 3
    capsys.readouterr()


def test_cli_numeric_failure_exit_code(tmp_path, monkeypatch, capsys):
    import zenobell.cli as cli_mod
    from zenobell.dynamics import NumericalError

    def explode(cfg):
        raise NumericalError("norm blew up")

    monkeypatch.setitem(cli_mod._RUNNERS, "mermin", explode)
    cfg = tmp_path / "m.cfg"
    cfg.write_text("scenario = mermin\n")
    assert run_cli(["run", cfg]) == 2
    assert "numeric failure" in capsys.readouterr().err


def test_cli_trajectory_rows_draw_independent_streams(tmp_path):
    # the rows take their draws in turn from one stream per run; when rows
    # were seeded seed XOR index, two equal t_end rows printed the same p0_mc
    cfg = tmp_path / "traj.cfg"
    cfg.write_text("scenario = trajectories\nsystem = cavity_decay\nkappa = 1\nseed = 4\nt_end_values = 0.5, 0.5\n")
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 0
    first, second = (line.split(",") for line in (tmp_path / "trajectories.csv").read_text().strip().split("\n")[1:])
    assert first[:2] == second[:2]
    assert first[2] != second[2]


def _sampled_column(tmp_path, config, seed, column):
    out = tmp_path / str(seed)
    cfg = tmp_path / "sampled.cfg"
    cfg.write_text(config)
    assert run_cli(["run", cfg, "--out", out, "--seed", seed, "--quiet"]) == 0
    (csv_path,) = out.glob("*.csv")
    return [line.split(",")[column] for line in csv_path.read_text().strip().split("\n")[1:]]


@pytest.mark.parametrize(
    "config",
    [
        "scenario = bell_landscape\nshots = 1000000\nseed = 0\nreadout_error = 0.02\n"
        "omega_t_min = 2\nomega_t_max = 2\nomega_t_count = 1\n"
        "vartheta_min = 0.6\nvartheta_max = 0.6\nvartheta_count = 3\n",
        "scenario = trajectories\nsystem = cavity_decay\nkappa = 1\nn_traj = 1000000\nt_end_values = 0.5, 0.5, 0.5\n",
    ],
    ids=["bell_landscape", "trajectories"],
)
def test_cli_runs_at_nearby_seeds_share_no_row_stream(tmp_path, config):
    # every row samples the same point, so two rows that share a stream
    # print the same value; rows seeded seed + k (seed + 2k for Bell) repeat
    # row 1 of seed s as row 0 of seed s + 1 (s + 2), and rows seeded
    # SeedSequence([seed, k]) repeat row 1 of seed s as row 0 of seed s + 2**32
    s = 5
    rows = {seed: _sampled_column(tmp_path, config, seed, 2) for seed in (s, s + 1, s + 2, s + 2**32)}
    assert len(set(rows[s])) == 3
    assert not set(rows[s]) & set(rows[s + 1] + rows[s + 2])
    assert rows[s + 2**32][0] != rows[s][1]


def test_cli_trajectory_step_budget_exits_1_quickly(tmp_path, capsys):
    cfg = tmp_path / "traj.cfg"
    cfg.write_text(
        "scenario = trajectories\nsystem = pair\ng = 1\nkappa = 1\ngamma = 0.001\nomega_minus = 1e-8\nn_traj = 10\n"
    )
    start = time.perf_counter()
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 1
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    count = re.search(r"needs (\d+) steps", err)
    assert count is not None and int(count.group(1)) > 10**7
    assert not (tmp_path / "trajectories.csv").exists()


def test_cli_trajectory_work_budget_bounds_a_large_space(tmp_path, capsys, monkeypatch):
    # at n_max = 32 the pair has 132 states, and the work limit counts
    # steps x n^2: 10^6 steps there is over 10^7 steps on 12 states
    def no_chain(*args):
        raise AssertionError("the chain was built")

    monkeypatch.setattr(trajectories, "_survival_chain", no_chain)
    cfg = tmp_path / "traj.cfg"
    cfg.write_text(
        "scenario = trajectories\nsystem = pair\ng = 1\nkappa = 1\ngamma = 0.001\nomega_minus = 0.02\n"
        "n_max = 32\nt_end = 1000\ndt = 0.001\nn_traj = 10\n"
    )
    start = time.perf_counter()
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 1
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "needs 1000000 steps (at most 82644 allowed)" in err
    assert not (tmp_path / "trajectories.csv").exists()


def test_cli_trajectory_rows_are_planned_before_any_row_runs(tmp_path, capsys, monkeypatch):
    # the last row's step count was refused only after the first three rows
    # had run their chains and drawn 10^7 trajectories each
    chains = []
    chain = trajectories._survival_chain
    monkeypatch.setattr(trajectories, "_survival_chain", lambda *args: chains.append(args) or chain(*args))
    cfg = tmp_path / "traj.cfg"
    cfg.write_text(
        "scenario = trajectories\nsystem = cavity_decay\nkappa = 1\nn_max = 1\nn_traj = 10000000\n"
        "t_end_values = 1, 2, 3, 1e12\n"
    )
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "config error: t_end = 1e+12 at dt = 1 needs 1000000000001 steps (at most 2000000 allowed)\n"
    )
    assert chains == []
    assert not (tmp_path / "trajectories.csv").exists()


def _list(count: int, start: float) -> str:
    return ", ".join(repr(start * (k + 1)) for k in range(count))


_SWEEPS_AT_THE_CAPS = {
    # 10^6 rows at n_max = 32: ~1.6 h and ~1 h of work, and GB of final states
    "prepare_pair": f"scenario = prepare_pair\nomega_minus_values = {_list(1000, 0.01)}\nT_values = {_list(1000, 1.0)}\n",
    "cnot": f"scenario = cnot\nomega_values = {_list(250_000, 1e-4)}\ninput = all\n",
}


@pytest.mark.parametrize("scenario", sorted(_SWEEPS_AT_THE_CAPS))
def test_cli_sweep_work_budget_exits_1_quickly(tmp_path, capsys, scenario):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"g = 1\nkappa = 1\ngamma = 0.001\nn_max = 32\n{_SWEEPS_AT_THE_CAPS[scenario]}")
    start = time.perf_counter()
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"asks for {ROWS_CAP} rows on {132 if scenario == 'prepare_pair' else 297} states" in err
    assert not (tmp_path / f"{scenario}.csv").exists()


def test_parse_sweep_work_bound_is_inclusive():
    # 4347 rows x 132^3 states is the most the 132-state pair may ask for
    assert 4347 * 132**3 <= SWEEP_WORK_CAP < 4348 * 132**3
    pair = "scenario = prepare_pair\ng = 1\nkappa = 1\ngamma = 0\nn_max = 32\n"
    cfg = parse_config(pair + f"omega_minus_values = 0.01, 0.02, 0.03\nT_values = {_list(1449, 1.0)}\n")
    assert len(cfg.physics["omega_values"]) * len(cfg.physics["t_values"]) == 4347
    with pytest.raises(ConfigError, match="omega_minus x T asks for 4348 rows on 132 states"):
        parse_config(pair + f"omega_minus_values = 0.01, 0.02, 0.03, 0.04\nT_values = {_list(1087, 1.0)}\n")


@pytest.mark.parametrize("g", ["1e-300", "1e200"])
@pytest.mark.parametrize(
    "body",
    [
        "scenario = trajectories\nsystem = pair\nkappa = 1\ngamma = 0.001\nomega_minus = 0.02\nn_traj = 10\n",
        "scenario = prepare_pair\nkappa = 1\ngamma = 0.001\nomega_minus = 0.02\n",
    ],
    ids=["trajectories", "prepare_pair"],
)
def test_cli_degenerate_coupling_is_a_config_error(tmp_path, capsys, body, g):
    # g**2 underflows (or overflows) in the regime ratio omega kappa / g**2; SystemSpec refuses it
    cfg = tmp_path / "g.cfg"
    cfg.write_text(body + f"g = {g}\n")
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 1
    assert capsys.readouterr().err == f"config error: g must be > 0 with g**2 finite and nonzero, got {float(g)}\n"


@pytest.mark.parametrize(
    "body",
    [
        "scenario = prepare_pair\ng = 1\ngamma = 0.001\nomega_minus = 0.02\n",
        "scenario = cnot\ng = 1\ngamma = 0.001\nomega = 0.02\n",
        "scenario = trajectories\nsystem = cavity_decay\nn_traj = 10\n",
    ],
    ids=["prepare_pair", "cnot", "cavity_decay"],
)
@pytest.mark.filterwarnings("error")  # no numpy overflow warning either
def test_cli_overflowing_kappa_is_a_config_error(tmp_path, capsys, body):
    # -i kappa b^dag b and the jump operator sqrt(2 kappa) b would overflow to inf; SystemSpec refuses it
    cfg = tmp_path / "kappa.cfg"
    cfg.write_text(body + "kappa = 1e308\n")
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "config error: kappa must be >= 0 with 2 * kappa * max(n_max, n_atoms, 2) finite, got 1e+308\n"
    )


@pytest.mark.parametrize(
    "body",
    [
        "scenario = trajectories\nsystem = pair\ng = 1\nkappa = 4e307\ngamma = 0.001\nomega_minus = 0.02\nn_traj = 10\n",
        "scenario = cnot\ng = 1\nkappa = 1\ngamma = 4e307\nomega = 0.02\n",
        "scenario = pbg\nloss = 1e300\ngt1_min = 1e308\ngt1_count = 3\ngt2_count = 1\n",
    ],
    ids=["trajectories_kappa", "cnot_gamma", "pbg_loss_t"],
)
@pytest.mark.filterwarnings("error")  # no numpy overflow warning either
def test_cli_overflowing_h_t_is_one_numeric_failure_line(tmp_path, capsys, body):
    # the rate passes the config bound, but -i H t overflows when propagated
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(body)
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure: ")


@pytest.mark.parametrize(
    "body, message",
    [
        ("kappa = 4e307\nn_max = 1\n", "jump-rate integral not finite at t = 2.5e-310: the survival chain overflows"),
        ("kappa = 2e307\nn_max = 3\n", "jump-rate integral not finite at t = 5e-310: the survival chain overflows"),
    ],
    ids=["kappa_4e307_n_max_1", "kappa_2e307_n_max_3"],
)
@pytest.mark.filterwarnings("error")  # no numpy overflow warning either
def test_cli_overflowing_jump_rate_is_one_numeric_failure_line(tmp_path, capsys, body, message):
    # kappa passes every rule, but the Simpson sum of the chain's rates
    # overflows, so p0_mc would read 0 against p0_det = 0.135335283
    cfg = tmp_path / "decay.cfg"
    cfg.write_text("scenario = trajectories\nsystem = cavity_decay\n" + body)
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 2
    assert capsys.readouterr().err == f"numeric failure: {message}\n"
    assert not (tmp_path / "trajectories.csv").exists()


@pytest.mark.filterwarnings("error")  # no numpy warning from the survival chain either
def test_cli_subnormal_rate_scale_is_one_config_error_line(tmp_path, capsys):
    # 1 / kappa overflows, so there is no default dt to step with
    body = "scenario = trajectories\nsystem = cavity_decay\nkappa = 5e-324\nt_end_values = 0\n"
    cfg = tmp_path / "decay.cfg"
    cfg.write_text(body)
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: rate scale too small")
    # a dt from the config needs no default
    cfg.write_text(body + "dt = 0.01\n")
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 0
    assert capsys.readouterr().err == ""


_PAIR = "g = 1\nkappa = 1\ngamma = 0.001\n"


@pytest.mark.filterwarnings("error")  # no numpy overflow warning either
def test_cli_overflowing_cnot_drive_is_one_config_error_line(tmp_path, capsys):
    # the drive sqrt(2) omega of cnot_drive overflows to inf
    cfg = tmp_path / "cnot.cfg"
    cfg.write_text(f"scenario = cnot\n{_PAIR}omega_values = 0.02, 1.5e308\n")
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: key 'omega' = 1.5e+308 is too large")
    # the largest omega whose drive is finite still runs
    cfg.write_text(f"scenario = cnot\n{_PAIR}omega = 1.27e308\n")
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "body, named",
    [
        (f"scenario = prepare_pair\n{_PAIR}omega_minus = 0.02\nT_values = 10, -2\n", "key 'T_values' must be >= 0"),
        ("scenario = trajectories\nsystem = cavity_decay\nkappa = 1\nt_end = -1\n", "key 't_end' must be >= 0"),
        (
            "scenario = trajectories\nsystem = cavity_decay\nkappa = 1\nt_end_values = 1, -1\n",
            "key 't_end_values' must be >= 0",
        ),
        (
            f"scenario = prepare_pair\n{_PAIR}omega_minus = 5e-324\nT = auto\n",
            "omega_minus = 5e-324 is too small: its default duration is not finite",
        ),
        (f"scenario = cnot\n{_PAIR}omega = 5e-324\n", "omega = 5e-324 is too small: its default duration is not finite"),
        (
            f"scenario = trajectories\nsystem = pair\n{_PAIR}omega_minus = 5e-324\n",
            "omega_minus = 5e-324 is too small: its default duration is not finite",
        ),
    ],
    ids=["negative_T_values", "negative_t_end", "negative_t_end_values", "subnormal_omega_minus", "subnormal_omega",
         "subnormal_trajectory_omega_minus"],
)
def test_cli_unusable_durations_are_config_errors(tmp_path, capsys, body, named):
    # a negative duration, or a default one (pi/|omega_minus|, ...) that is not finite
    cfg = tmp_path / "x.cfg"
    cfg.write_text(body)
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "body, named",
    [
        (
            "scenario = prepare_pair\ng = 1\nkappa = 1\ngamma = 0.001\nomega_minus = 0.02\nT = 1e15\n",
            "p0 = 0 at omega_minus=0.02, T=1e+15",
        ),
        (  # the zero-norm row is caught before the stacked scoring sees it
            "scenario = prepare_pair\ng = 1\nkappa = 1\ngamma = 0.001\nomega_minus = 0.02\nT_values = 50, 1e15, 100\n",
            "p0 = 0 at omega_minus=0.02, T=1e+15",
        ),
        (
            "scenario = cnot\ng = 1\nkappa = 1e200\ngamma = 0.001\nomega = 0.02\n",
            "amplitudes not finite at omega=0.02, input=00",
        ),
        ("scenario = pbg\nloss = 1e300\ngt1_count = 3\ngt2_count = 3\n", "not finite at g_t1=0, g_t2="),
    ],
    ids=["prepare_pair_T", "prepare_pair_one_row", "cnot_kappa", "pbg_loss"],
)
def test_cli_sweep_numeric_failure_exits_2_and_names_the_point(tmp_path, capsys, body, named):
    cfg = tmp_path / "x.cfg"
    cfg.write_text(body)
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "numeric failure" in err and named in err
    assert "Traceback" not in err


def test_cli_trajectory_overflow_exits_2_and_names_the_time(tmp_path, capsys):
    cfg = tmp_path / "traj.cfg"
    cfg.write_text(f"scenario = trajectories\nsystem = pair\n{_PAIR.replace('0.001', '1e200')}omega_minus = 0.02\n")
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "numeric failure: exp(-i H t) |psi0> not finite at t = 157.079633" in err
    assert "Traceback" not in err


_USAGE = "usage: zenobell [-h] {run,figure,selftest} ...\n"
_RUN_USAGE = "usage: zenobell run [-h] [--out DIR] [--seed N] [--quiet] [config_path]\n"
_FIGURE_USAGE = "usage: zenobell figure [-h] [--out DIR] [--quiet] {fig2,fig4,fig5,islands}\n"
_FIGURES = "(choose from 'fig2', 'fig4', 'fig5', 'islands')"


@pytest.mark.parametrize(
    "argv, usage, message",
    [
        (["run", "x.cfg", "--bogus"], _USAGE, "zenobell: unrecognized arguments: --bogus"),
        (["figure", "fig9"], _FIGURE_USAGE, f"zenobell figure: argument name: invalid choice: 'fig9' {_FIGURES}"),
        (["run", "x.cfg", "--threads", "4"], _USAGE, "zenobell: unrecognized arguments: --threads 4"),
        (["run", "--config", "x.cfg"], _USAGE, "zenobell: unrecognized arguments: --config"),
        ([], _USAGE, "zenobell: the following arguments are required: command"),
        (["bogus"], _USAGE,
         "zenobell: argument command: invalid choice: 'bogus' (choose from 'run', 'figure', 'selftest')"),
        (["run", "a", "b"], _USAGE, "zenobell: unrecognized arguments: b"),
        (["run", "a", "b", "--zz", "c", "--threads=4"], _USAGE,
         "zenobell: unrecognized arguments: b --zz c --threads=4"),
        (["--bogus", "run", "x.cfg"], _USAGE, "zenobell: unrecognized arguments: --bogus"),
        (["selftest", "--out", "d"], _USAGE, "zenobell: unrecognized arguments: --out d"),
        (["run", "--seed", "x", "a.cfg"], _RUN_USAGE, "zenobell run: argument --seed: invalid int value: 'x'"),
        (["run", "--seed=x", "a.cfg"], _RUN_USAGE, "zenobell run: argument --seed: invalid int value: 'x'"),
        (["run", "--out"], _RUN_USAGE, "zenobell run: argument --out: expected one argument"),
        (["run", "--out", "--quiet", "x.cfg"], _RUN_USAGE, "zenobell run: argument --out: expected one argument"),
        (["run", "x.cfg", "--seed"], _RUN_USAGE, "zenobell run: argument --seed: expected one argument"),
        (["run", "--quiet=1", "x.cfg"], _RUN_USAGE, "zenobell run: argument --quiet: ignored explicit argument '1'"),
        (["figure", "--out", "d"], _FIGURE_USAGE, "zenobell figure: the following arguments are required: name"),
        (["figure", "fig9", "--bogus"], _FIGURE_USAGE,
         f"zenobell figure: argument name: invalid choice: 'fig9' {_FIGURES}"),
        (["run"], "", "no config file given"),
        (["run", "--quiet", ""], "", "no config file given"),
    ],
    ids=["unknown_flag", "unknown_figure", "threads", "config_flag", "no_arguments", "unknown_command",
         "extra_positional", "every_extra_in_order", "flag_before_command", "flag_of_another_command", "bad_seed",
         "bad_seed_after_equals", "out_without_value", "out_before_a_flag", "seed_at_the_end", "switch_with_value",
         "figure_without_name", "invalid_choice_before_extras", "run_without_config", "run_with_empty_config"],
)
def test_cli_usage_errors_exit_1(capsys, argv, usage, message):
    # a usage error writes the usage line, then one config error line, in
    # the words argparse used when it parsed the command line
    assert run_cli(argv) == 1
    assert capsys.readouterr() == ("", f"{usage}config error: {message}\n")


_COMMAND_FLAGS = {None: ("-h", "--out", "--seed", "--quiet"), "run": ("-h", "--out", "--seed", "--quiet"),
                  "figure": ("-h", "--out", "--quiet"), "selftest": ("-h", "--quiet")}


@pytest.mark.parametrize("command", _COMMAND_FLAGS)
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_cli_help_writes_usage_to_stdout_and_returns_0(tmp_path, capsys, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    argv = [flag] if command is None else [command, flag]
    assert run_cli(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith(f"usage: zenobell {command or '[-h]'} ")
    assert all(name in out for name in _COMMAND_FLAGS[command]), out
    # help is asked for after other arguments too, and nothing runs
    if command is not None:
        assert run_cli([command, "fig2", "--quiet", flag]) == 0
        assert capsys.readouterr() == (out, "")
    assert list(tmp_path.iterdir()) == []


def test_cli_module_docstring_lists_each_command_usage(capsys):
    block = cli.__doc__.split("Subcommands:\n\n")[1].split("\n\n")[0]
    lines = [line.strip() for line in block.splitlines()]
    assert len(lines) == 3
    for command, line in zip(("run", "figure", "selftest"), lines):
        assert run_cli([command, "--help"]) == 0
        assert capsys.readouterr().out == f"usage: {line}\n"


def test_cli_flag_spellings_and_orders_give_one_run(tmp_path, capsys):
    cfg = tmp_path / "bell.cfg"
    cfg.write_text(_SAMPLED_NO_SEED)
    forms = {
        "after": ["run", cfg, "--out", tmp_path / "after", "--seed", 5, "--quiet"],
        "equals": ["run", f"--out={tmp_path / 'equals'}", "--seed=5", "--quiet", cfg],
        "before": ["run", "--quiet", "--seed", 5, "--out", tmp_path / "before", cfg],
        "repeated": ["run", "--seed", 9, cfg, "--out", tmp_path / "junk", "--seed=5", "--out", tmp_path / "repeated",
                     "--quiet"],
        "dashdash": ["run", "--out", tmp_path / "dashdash", "--seed", 5, "--quiet", "--", cfg],
    }
    for argv in forms.values():
        assert run_cli(argv) == 0
    assert capsys.readouterr() == ("", "")
    assert not (tmp_path / "junk").exists()
    assert "seed = 5\n" in (tmp_path / "after" / "bell_landscape_summary.txt").read_text()
    for name in ("bell_landscape.csv", "bell_landscape_summary.txt"):
        first = (tmp_path / "after" / name).read_bytes()
        assert all((tmp_path / form / name).read_bytes() == first for form in forms)


@pytest.mark.parametrize(
    "argv, extras",
    [
        (["run", "x.cfg", "--qu"], "--qu"),
        (["run", "--se", "3", "x.cfg"], "--se x.cfg"),  # 3 is the config path
        (["run", "x.cfg", "--he"], "--he"),
    ],
)
def test_cli_abbreviated_flags_are_unrecognized(capsys, argv, extras):
    # argparse took a unique prefix of a flag (--qu for --quiet); only a whole flag is one
    assert run_cli(argv) == 1
    assert capsys.readouterr() == ("", f"{_USAGE}config error: zenobell: unrecognized arguments: {extras}\n")


def test_cli_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # every call parses its own argv, with no flag or error carried over
    # from the call before
    assert run_cli(["figure", "nope"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: zenobell figure") and "invalid choice: 'nope'" in err
    assert "Traceback" not in err
    assert run_cli(["run"]) == 1
    assert capsys.readouterr().err == "config error: no config file given\n"
    cfg = tmp_path / "bell.cfg"
    cfg.write_text("scenario = bell_landscape\nshots = 500\nseed = 3\nomega_t_count = 5\nvartheta_count = 4\n")
    assert run_cli(["run", cfg, "--out", tmp_path / "seed5", "--seed", 5, "--quiet"]) == 0
    assert run_cli(["run", cfg, "--out", tmp_path / "own", "--quiet"]) == 0
    assert "seed = 3\n" in (tmp_path / "own" / "bell_landscape_summary.txt").read_text()
    fresh = parse_config(cfg.read_text())
    header, columns, _summary = _run_bell_landscape(fresh)
    own = (tmp_path / "own" / "bell_landscape.csv").read_text()
    assert own == render_csv(header, columns)
    assert own != (tmp_path / "seed5" / "bell_landscape.csv").read_text()
    assert run_cli(["figure", "islands", "--out", tmp_path, "--quiet"]) == 0


def test_cli_pbg_negative_transit_time_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "pbg.cfg"
    cfg.write_text("scenario = pbg\ngt1_values = 0.5, -1\ngt2 = 1\n")
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 1
    assert capsys.readouterr().err == "config error: key 'gt1_values' must be >= 0, got -1.0\n"


@pytest.mark.parametrize(
    "body, named",
    [
        (f"scenario = trajectories\nsystem = pair\n{_PAIR}omega_minus_values = 0.02, 0.05\n", "'omega_minus_values'"),
        (f"scenario = trajectories\nsystem = pair\n{_PAIR}omega_minus = 0.02\nomega_minus_values = 0.05\n",
         "'omega_minus_values'"),
        (f"scenario = cnot\n{_PAIR}omega = 0.02\nT = auto\n", "unknown key(s): T"),
        ("scenario = pbg\ngt1_values = 0.5, -1\n", "key 'gt1_values' must be >= 0, got -1.0"),
        ("scenario = pbg\ngt2_min = -0.5\n", "key 'gt2_min' must be >= 0, got -0.5"),
        # the last grid value, 0.1 + 11 * (-0.1 / 11), rounds below 0 although gt1_max is 0
        ("scenario = pbg\ngt1_min = 0.1\ngt1_max = 0\ngt1_count = 12\n", "key 'gt1_max' must be >= 0, got -1.38"),
        ("scenario = pbg\ng = 1e-150\ngt1 = 1e200\n", "key 'gt1' = 1e+200 is too large"),
        ("scenario = pbg\ng = 1e-150\ngt2_max = 1e200\ngt2_count = 3\n", "key 'gt2_max' = 1e+200 is too large"),
        ("scenario = trajectories\nsystem = cavity_decay\nkappa = 1\nn_traj = 100000000\n",
         "n_traj = 100000000 trajectories exceeds the limit of 10000000"),
        # a sampled landscape at this error would write its CSV and exit 0
        ("scenario = bell_landscape\nshots = 100\nseed = 1\nreadout_error = 0.7\n",
         "readout_error must lie in [0, 0.5), got 0.7"),
        # a Mermin run would score the zeros state
        ("scenario = mermin\nstate = w\n", "key 'state' must be ghz or zeros"),
    ],
    ids=["traj_omega_list", "traj_omega_and_list", "cnot_T", "pbg_negative_list", "pbg_negative_grid_start",
         "pbg_grid_end_rounds_negative", "pbg_overflowing_transit", "pbg_overflowing_grid_end", "traj_n_traj_cap",
         "bell_readout_error_0_7", "mermin_state_w"],
)
def test_parse_config_rejects_what_a_run_would_drop_or_fail_on(tmp_path, capsys, body, named):
    with pytest.raises(ConfigError) as raised:
        parse_config(body)
    assert named in str(raised.value)
    cfg = tmp_path / "x.cfg"
    cfg.write_text(body)
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 1
    assert capsys.readouterr().err == f"config error: {raised.value}\n"


_SAMPLED_NO_SEED = "scenario = bell_landscape\nshots = 100\nomega_t_count = 4\nvartheta_count = 3\n"


def test_cli_seed_flag_supplies_the_seed_a_sampled_landscape_needs(tmp_path, capsys):
    cfg, keyed = tmp_path / "flag.cfg", tmp_path / "keyed.cfg"
    cfg.write_text(_SAMPLED_NO_SEED)
    keyed.write_text(_SAMPLED_NO_SEED + "seed = 5\n")
    assert run_cli(["run", cfg, "--out", tmp_path / "flag", "--seed", 5, "--quiet"]) == 0
    assert run_cli(["run", keyed, "--out", tmp_path / "keyed", "--quiet"]) == 0
    for name in ("bell_landscape.csv", "bell_landscape_summary.txt"):
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "keyed" / name).read_bytes()
    assert capsys.readouterr().err == ""
    assert run_cli(["run", cfg, "--out", tmp_path / "negative", "--seed", -1, "--quiet"]) == 1
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "negative").exists()


def test_parse_config_seed_argument_follows_the_seed_key_rules():
    assert parse_config(_SAMPLED_NO_SEED, seed=5).seed == 5
    assert parse_config(_SAMPLED_NO_SEED + "seed = 3\n", seed=0).seed == 0
    assert parse_config(_SAMPLED_NO_SEED + "seed = 3\n").seed == 3
    with pytest.raises(ConfigError, match="sampled bell_landscape needs a 'seed'"):
        parse_config(_SAMPLED_NO_SEED)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -2"):
        parse_config(_SAMPLED_NO_SEED + "seed = 3\n", seed=-2)
    trajectories = "scenario = trajectories\nsystem = cavity_decay\nkappa = 1\n"
    assert parse_config(trajectories).seed == 0
    assert parse_config(trajectories, seed=9).seed == 9
    assert parse_config("scenario = mermin\n").seed is None


@pytest.mark.parametrize(
    "seed, message",
    [(True, "seed must be an integer, got True"), (1.5, "seed must be an integer, got 1.5")],
    ids=["bool", "fraction"],
)
def test_parse_config_refuses_a_bool_or_non_integer_seed(seed, message):
    # a bool seed was accepted and summarized as 'seed = True'; 1.5 passed the
    # parser and was refused by the run stream with numpy's text
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config("scenario = mermin\n", seed=seed)
    assert parse_config("scenario = mermin\n", seed=np.int64(2)).seed == 2


def test_cli_n_max_cap_exits_1_quickly(tmp_path, capsys):
    cfg = tmp_path / "traj.cfg"
    cfg.write_text("scenario = trajectories\nsystem = cavity_decay\nkappa = 1\nn_max = 1000\nt_end = 1\nn_traj = 10\n")
    start = time.perf_counter()
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 1
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert "n_max" in err and "32" in err
    parse_config(EXAMPLE + "n_max = 32\n")


def test_cli_sweeps_identical_with_one_point_per_expm(tmp_path, monkeypatch):
    from zenobell import dynamics

    cfg = tmp_path / "cnot.cfg"
    cfg.write_text("scenario = cnot\ng = 1\nkappa = 1\ngamma = 0.001\nomega_values = 0.01, 0.02, 0.05\n")
    outputs = []
    for budget in (dynamics._EXPM_BYTES, 1):
        monkeypatch.setattr(dynamics, "_EXPM_BYTES", budget)
        out = tmp_path / str(budget)
        assert run_cli(["run", cfg, "--out", out, "--quiet"]) == 0
        assert run_cli(["figure", "fig2", "--out", out, "--quiet"]) == 0
        outputs.append([(out / name).read_bytes() for name in ("cnot.csv", "fig2.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "body, named",
    [
        (
            "omega_t_min = -1e308\nomega_t_max = 1e308\nomega_t_count = 3\n",
            "omega_t_min = -1e+308 to omega_t_max = 1e+308 in 3 points overflows",
        ),
        ("omega_t_count = 1000000\nvartheta_count = 1000000\n", "asks for 1000000000000 rows"),
        ("shots = 1000000000000000\nseed = 1\n", "shots = 1000000000000000 exceeds the limit of 10000000"),
    ],
    ids=["grid_overflow", "grid_rows", "shots"],
)
def test_cli_unbounded_landscape_exits_1_quickly(tmp_path, capsys, body, named):
    cfg = tmp_path / "bell.cfg"
    cfg.write_text("scenario = bell_landscape\n" + body)
    start = time.perf_counter()
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 1
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "bell_landscape.csv").exists()


@pytest.mark.parametrize("vartheta", ["1e308", "-1e308"])
@pytest.mark.parametrize("sampling", ["", "shots = 2000\nseed = 1\n"], ids=["exact", "sampled"])
def test_cli_landscape_whose_3_vartheta_overflows_is_one_config_error_line(tmp_path, capsys, vartheta, sampling):
    # the exact landscape raised 'math domain error' from cos(3 vartheta); the
    # sampled one warned of an overflow, then refused the infinite angle in a traceback
    cfg = tmp_path / "bell.cfg"
    cfg.write_text(f"scenario = bell_landscape\nomega_t_count = 3\nvartheta_count = 3\nvartheta_max = {vartheta}\n{sampling}")
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 1
    message = f"vartheta and 3 * vartheta must be finite, got vartheta = {float(vartheta)!r}"
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "bell_landscape.csv").exists()


def test_cli_trajectory_zero_p0_det_is_a_valid_row(tmp_path):
    # exp(-2 kappa t_end) underflows to 0: no photon-free history survives, and the
    # run reports that as a row rather than a numeric failure
    cfg = tmp_path / "traj.cfg"
    cfg.write_text("scenario = trajectories\nsystem = cavity_decay\nkappa = 1\nn_max = 1\nt_end = 400\nn_traj = 10\n")
    assert run_cli(["run", cfg, "--out", tmp_path, "--quiet"]) == 0
    assert (tmp_path / "trajectories.csv").read_text() == "t_end,p0_det,p0_mc,stderr\n400,0,0,0\n"


# ------------------------------------------------------------------- selftest


def test_selftest_tsirelson_detail_is_pinned():
    assert selftest._check_tsirelson() == (True, "max |B_S| = 2.199777586")


def test_selftest_tsirelson_violation_fails_the_check_and_exits_2(monkeypatch, capsys):
    # with the bound lowered below the largest score, the check reports the
    # violation through its own comparison instead of raising
    monkeypatch.setattr(bell, "TSIRELSON_BOUND", 2.0)
    assert selftest._check_tsirelson() == (False, "max |B_S| = 2.199777586")
    assert main(["selftest", "--quiet"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err


def test_selftest_norm_check_fails_when_the_kernel_grows_a_norm(monkeypatch):
    # the check propagates with the production kernel, so a kernel that
    # gains norm over time fails it
    assert selftest._check_norm_monotonic() == (True, "max norm increase 0.00e+00")
    kernel = selftest.no_jump_states

    def growing(family, drives, times, inputs):
        return kernel(family, drives, times, inputs) * (1.0 + np.asarray(times))[:, None, None]

    monkeypatch.setattr(selftest, "no_jump_states", growing)
    ok, detail = selftest._check_norm_monotonic()
    assert not ok and detail.startswith("max norm increase ")


def test_selftest_norm_digest_catches_a_drift_that_keeps_norms_monotonic(monkeypatch):
    # a kernel that loses 1e-7 of every final state still never grows a
    # norm, but its 9-digit norm column is not the pinned one
    kernel = selftest.no_jump_states
    monkeypatch.setattr(selftest, "no_jump_states", lambda *args: kernel(*args) * (1.0 - 1e-7))
    ok, detail = selftest._check_norm_monotonic()
    worst = float(detail.split(";")[0].removeprefix("max norm increase "))
    assert not ok and worst <= 1e-10
    assert detail.endswith("; digest differs from the one pinned on Python 3.11.7, numpy 2.4.6: norm CSV")


def test_selftest_fails_when_csv_floats_are_not_rendered_as_pinned(monkeypatch, capsys):
    # floats at 8 significant digits instead of 9: the landscape and norm
    # renderings no longer match their digests, and the selftest exits 2
    column_text = cli._column_text

    def eight_digits(column):
        if column.dtype.kind == "f":
            return ["%.8g" % value for value in column.tolist()]
        return column_text(column)

    monkeypatch.setattr(cli, "_column_text", eight_digits)
    assert main(["selftest", "--quiet"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert main(["selftest"]) == 2
    out, err = capsys.readouterr()
    failed = [line for line in out.splitlines() if line.startswith("FAIL  ")]
    assert len(failed) == 2 and "Traceback" not in err
    assert all("pinned on Python 3.11.7, numpy 2.4.6: " in line for line in failed)
    assert "norm CSV" in failed[0] and "landscape CSV" in failed[1]
    assert out.splitlines()[-1] == "selftest FAILED"


def test_selftest_check_that_raises_exits_2_without_traceback(monkeypatch, capsys):
    def broken():
        raise RuntimeError("kernel came out non-real")

    monkeypatch.setattr(selftest, "_CHECKS", (("broken", broken), ("fine", lambda: (True, "ok"))))
    assert main(["selftest"]) == 2
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0].startswith("FAIL  broken: RuntimeError: kernel came out non-real")
    assert lines[1].startswith("PASS  fine: ok")
    assert lines[2] == "selftest FAILED"
    assert "Traceback" not in err


def test_selftest_lines_end_with_wall_time_unless_quiet(monkeypatch, capsys):
    monkeypatch.setattr(selftest, "_CHECKS", (("fast", lambda: (True, "detail")),))
    assert selftest.run_selftest() is True
    assert re.fullmatch(r"PASS  fast: detail  \[\d+\.\d ms\]\nselftest passed\n", capsys.readouterr().out)
    assert selftest.run_selftest(quiet=True) is True
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------- exit-code contract

# Keys of well-formed runs of each scenario: (ordinary values, edge values)
# for the keys every run sets, then for keys a run may set.  Edge values are
# zeros, negatives, subnormals and huge ones; grids have at most a few points.
_RATE = (("1", "0.5", "0.001"), ("0", "-1", "5e-324", "1e200"))
_OMEGA = (("0.02", "-0.05", "0.3", "0.02, -0.05"), ("0", "5e-324", "1e-9", "1e6", "1.5e308", "0.01, 0"))
_DURATION = (("0", "1", "100", "0, 50"), ("-1", "5e-324", "1e15", "10, -2"))
_N_MAX = (("1", "2"), ("0", "33"))
_SEED = (("0", "7"), ("-1",))
_TRAJECTORY_KEYS = {
    "n_max": _N_MAX,
    "n_traj": (("1", "10"), ("0",)),
    "t_end_values": _DURATION,
    "dt": (("0.01",), ("0", "-1", "10", "1e-9")),
    "seed": _SEED,
}
# (scenario, keys every run sets, keys a run may set)
_RUNS = (
    (
        "prepare_pair",
        {"g": _RATE, "kappa": _RATE, "gamma": _RATE, "omega_minus_values": _OMEGA},
        {"n_max": _N_MAX, "T": (("auto", "100"), ("-1", "1e15")), "T_values": _DURATION},
    ),
    (
        "cnot",
        {"g": _RATE, "kappa": _RATE, "gamma": _RATE, "omega_values": _OMEGA},
        {"n_max": _N_MAX, "input": (("all", "10"), ("2",))},
    ),
    (
        "pbg",
        {"gt1_count": (("1", "3"), ("0",)), "gt2_count": (("1", "3"), ("-1",))},
        {"g": _RATE, "loss": (("0", "0.01"), ("1e300", "-1")), "gt1_min": (("0", "0.5"), ("-1", "1e308"))},
    ),
    (
        "bell_landscape",
        {"omega_t_count": (("1", "3"), ("0",)), "vartheta_count": (("1", "2"), ("-2",))},
        {"readout_error": (("0", "0.02"), ("0.5", "-0.1")), "shots": (("1", "100"), ("0",)), "seed": _SEED},
    ),
    (
        "mermin",
        {},
        {
            "n_qubits_values": (("3", "3, 12"), ("2", "13", "3.5")),
            "state": (("ghz", "zeros"), ("w",)),
            "ghz_phase": (("0", "1.5"), ("1e308",)),
        },
    ),
    (
        "trajectories",
        {"system": (("pair",), ("qubit",)), "g": _RATE, "kappa": _RATE, "gamma": _RATE, "omega_minus": _OMEGA},
        _TRAJECTORY_KEYS,
    ),
    ("trajectories", {"system": (("cavity_decay",), ("pair",)), "kappa": _RATE}, _TRAJECTORY_KEYS),
)
# No run of these configs may take longer; the budgets in the code end any
# that would do unbounded work well before it.
_RUN_BUDGET_S = 5.0


@st.composite
def _run_configs(draw):
    """A config with ordinary values, except for at most two keys set to edge values."""
    scenario, required, optional = draw(st.sampled_from(_RUNS))
    keys = list(required) + draw(st.lists(st.sampled_from(sorted(optional)), unique=True))
    values = {**required, **optional}
    edged = set(draw(st.lists(st.sampled_from(keys), max_size=2))) if keys else set()
    lines = "".join(f"{key} = {draw(st.sampled_from(values[key][key in edged]))}\n" for key in keys)
    return f"scenario = {scenario}\n" + lines


@settings(max_examples=400, deadline=None)
@given(_run_configs())
@example(f"scenario = prepare_pair\n{_PAIR}omega_minus_values = 0.02\nT_values = 10, -2\n")
@example("scenario = pbg\nloss = 1e300\ngt1_min = 1e308\ngt1_count = 3\ngt2_count = 1\n")
@example(f"scenario = cnot\n{_PAIR}omega_values = 1.5e308\n")
# 9,424,778 chain steps on 12 states: a run of ~6 s while 10^7 steps were allowed
@example("scenario = trajectories\nsystem = pair\ng = 0.001\nkappa = 0\ngamma = 0.001\nomega_minus = 1e-9\n")
def test_cli_run_keeps_the_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as out:
        cfg = Path(out) / "run.cfg"
        cfg.write_text(text)
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", str(cfg), "--out", out, "--quiet"])
        elapsed = time.perf_counter() - start
    event(f"{text.splitlines()[0]}: exit {code}")
    assert code in (0, 1, 2, 3), (text, code)
    assert "Traceback" not in err.getvalue()
    assert [str(w.message) for w in caught] == [], text
    assert elapsed < _RUN_BUDGET_S, (text, elapsed)


# Every float key of every scenario, one at a time, in a small run of that
# scenario: (the config's other lines, {key: an ordinary value}).
_FLOAT_KEYS = {
    "prepare_pair": ("scenario = prepare_pair", {"g": 1, "kappa": 1, "gamma": 0.001, "omega_minus": 0.02, "T": 50}),
    "cnot": ("scenario = cnot\ninput = 10", {"g": 1, "kappa": 1, "gamma": 0.001, "omega": 0.05}),
    "pbg": ("scenario = pbg", {"g": 1, "loss": 0.01, "gt1": 1, "gt2": 1}),
    "pbg_grid": (
        "scenario = pbg\ngt1_count = 2\ngt2_count = 2",
        {"gt1_min": 0, "gt1_max": 1, "gt2_min": 0, "gt2_max": 1},
    ),
    "bell_landscape": (
        "scenario = bell_landscape\nomega_t_count = 3\nvartheta_count = 3",
        {"readout_error": 0, "omega_t_min": 0, "omega_t_max": 1, "vartheta_min": 0, "vartheta_max": 1},
    ),
    "bell_landscape_sampled": (
        "scenario = bell_landscape\nomega_t_count = 3\nvartheta_count = 3\nshots = 2000\nseed = 1",
        {"readout_error": 0, "omega_t_min": 0, "omega_t_max": 1, "vartheta_min": 0, "vartheta_max": 1},
    ),
    "mermin": ("scenario = mermin", {"ghz_phase": 0}),
    "trajectories_pair": (
        "scenario = trajectories\nsystem = pair\nn_traj = 10",
        {"g": 1, "kappa": 1, "gamma": 0.001, "omega_minus": 0.02, "t_end": 1, "dt": 0.01},
    ),
    "trajectories_cavity": (
        "scenario = trajectories\nsystem = cavity_decay\nn_traj = 10",
        {"kappa": 1, "t_end": 1, "dt": 0.01},
    ),
}
_EXTREME_VALUES = ("1e308", "-1e308", "1e-308", "5e-324", "1e300", "1e15", "0", "-0.0", "1e154")


@pytest.mark.parametrize(
    "lines, key, ordinary",
    [(lines, key, keys) for lines, keys in _FLOAT_KEYS.values() for key in keys],
    ids=[f"{name}-{key}" for name, (_, keys) in _FLOAT_KEYS.items() for key in keys],
)
def test_cli_float_key_at_extreme_values_keeps_the_exit_code_contract(tmp_path, lines, key, ordinary):
    # at 3 vartheta = +-inf both landscapes ended in tracebacks
    broken = []
    for value in _EXTREME_VALUES:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines + "".join(f"\n{k} = {value if k == key else v}" for k, v in ordinary.items()) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(["run", str(cfg), "--out", str(tmp_path), "--quiet"])
            except Exception as exc:  # an exception escaping main is what the table looks for
                code = f"{type(exc).__name__}: {exc}"
        written = err.getvalue().splitlines(keepends=True)
        one_line = len(written) == 1 and written[0].startswith(("config error: ", "numeric failure: "))
        if code not in (0, 1, 2) or (written != [] if code == 0 else not one_line) or caught:
            broken.append((value, code, err.getvalue(), [str(w.message) for w in caught]))
    assert broken == [], broken
