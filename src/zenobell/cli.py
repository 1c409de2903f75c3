"""Scenario runner: dispatch protocols and sweeps, emit CSV and summaries.

Subcommands:

    zenobell run [-h] [--out DIR] [--seed N] [--quiet] [config_path]
    zenobell figure [-h] [--out DIR] [--quiet] {fig2,fig4,fig5,islands}
    zenobell selftest [-h] [--quiet]

Sweeps run batched on one thread: the Hamiltonians of a sweep are
assembled once, one H0 per system, its points, each naming its system,
are propagated by stacked matrix exponentials and their final states are
scored as one stack.  A figure's three Gamma curves are one sweep over
three systems.
A runner returns its table as one array per CSV column, and
``render_csv(header, columns)`` writes it deterministically (bit-identical
for identical config and seed): header row, '\\n' line endings, each
column turned into a list of cells by its dtype, floats with 9
significant digits and booleans as true/false, and each row's cells
joined with commas.  A sampled run draws from one stream,
``np.random.default_rng(np.random.SeedSequence(seed))``, its rows taking
their draws in row order: runs at different seeds share no draws, and a
row's draws depend on the rows before it.  An output file that already
holds the new bytes is not rewritten.  Exit codes: 0 ok, 1 config or
usage error, 2 numeric failure, 3 I/O failure.  Runs do not warn: the
regime of each omega goes to the summary, and leaves the exit code as
it is.
"""

from __future__ import annotations

import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import bell, gates, pbg, states, trajectories
from .config import ConfigError, ScenarioConfig, parse_config
from .dynamics import (
    NumericalError,
    SystemSpec,
    check_regime,
    check_final_states,
    decay_operators,
    h_cond,
    no_photon_probabilities,
    pair_drive,
)
from .hilbert import basis_state, fidelities

__all__ = ["main", "run_scenario", "render_csv"]


# Rows formatted a block at a time, so the cells held at once stay few.
_CSV_BLOCK = 2048

# The cells of a bool column, indexed by its bytes 0 and 1.
_BOOL_TEXT = np.array(["false", "true"], dtype=object)


def _column_text(column: np.ndarray) -> list[str]:
    """The CSV cells of a 1-D column, by its dtype: bools as true/false, ints and strs as ``str`` gives them."""
    if column.dtype == bool:
        return _BOOL_TEXT[column.view(np.uint8)].tolist()
    if column.dtype.kind == "f":
        # 9 significant digits, once per bit pattern: -0.0 stays -0 and a repeated grid value is one format;
        # one %-format of all of them gives the text of one "{:.9g}".format each
        distinct, inverse = np.unique(column.astype(np.float64, copy=False).view(np.int64), return_inverse=True)
        texts = ("\n".join(["%.9g"] * len(distinct)) % tuple(distinct.view(np.float64).tolist())).split("\n")
        return list(map(texts.__getitem__, inverse.tolist()))
    return column.astype(str).tolist()


def render_csv(header, columns) -> str:
    """Header line, then one line per row of ``columns``, one 1-D array or sequence per header name.

    Each column is formatted by its dtype (``_column_text``) and the cells of
    a row are joined with commas, a block of ``_CSV_BLOCK`` rows at a time.
    """
    columns = [np.asarray(column) for column in columns]
    parts = [",".join(header) + "\n"]
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        cells = [_column_text(column[start : start + _CSV_BLOCK]) for column in columns]
        parts.append("\n".join(map(",".join, zip(*cells))) + "\n")
    return "".join(parts)


def _holds(path: Path, text: str) -> bool:
    """Whether ``path`` can be read and holds exactly ``text``."""
    try:
        with open(path, newline="") as f:
            return f.read(len(text) + 1) == text
    except (OSError, ValueError):  # missing, a directory, unreadable or not text
        return False


def _write_outputs(out_dir, texts) -> list[Path]:
    """Write each text to ``out_dir / name`` with ``newline=""``; return the paths.

    ``out_dir`` is created if missing.  A file that already holds exactly
    the text is left as it is and only gets a new modification time;
    anything else is opened for writing and truncated, through a symlink
    or hard link, as ``Path.write_text`` does.  Re-running a config into
    its own directory therefore does not truncate its unchanged outputs:
    on ext4, truncating a file whose data has been written out (by the
    ~30 s writeback, or by the flush that closing a truncated file starts)
    waits 20-45 ms, and unlinking it waits as long.  Every failure is an
    ``OSError``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in texts.items():
        path = out_dir / name
        if _holds(path, text):
            os.utime(path)
        else:
            with open(path, "w", newline="") as f:
                f.write(text)
        paths.append(path)
    return paths


def _regime_lines(spec: SystemSpec, omegas) -> list[str]:
    """One summary line per omega, in order, with its :func:`check_regime` report."""
    lines = []
    for om in omegas:
        rep = check_regime(spec, abs(om))
        ratios = ", ".join(f"{k}={v:.4g}" for k, v in rep.ratios.items())
        lines.append(f"regime omega={om:.9g}: in_regime={rep.in_regime} ({ratios})")
    return lines


def _run_prepare_pair(cfg: ScenarioConfig):
    p = cfg.physics
    spec = SystemSpec(atom_levels=2, n_atoms=2, g=p["g"], kappa=p["kappa"], gamma=p["gamma"], n_max=p["n_max"])
    oms, ts = [], []
    for om in p["omega_values"]:
        t_values = p["t_values"] if p["t_values"] is not None else [gates.pair_duration(om)]
        oms.extend([om] * len(t_values))
        ts.extend(t_values)
    run = gates.prepare_pair_sweep(spec, zip(oms, ts))
    header = ("omega_minus", "T", "p0", "fidelity", "alpha_re", "alpha_im")
    columns = (oms, ts, run.p0, run.fidelity, run.alpha.real, run.alpha.imag)
    summary = _regime_lines(spec, p["omega_values"])
    best = int(np.argmax(run.fidelity))
    summary.append(
        f"best fidelity = {run.fidelity[best]:.6f} at omega_minus={oms[best]:.9g}, T={ts[best]:.9g}"
        f" (p0={run.p0[best]:.6f})"
    )
    summary.append(f"last row: p0 = {run.p0[-1]:.6f}, fidelity = {run.fidelity[-1]:.6f}")
    return header, columns, summary


def _run_cnot(cfg: ScenarioConfig):
    p = cfg.physics
    spec = SystemSpec(atom_levels=3, n_atoms=2, g=p["g"], kappa=p["kappa"], gamma=p["gamma"], n_max=p["n_max"])
    labels = gates.QUBIT_LABELS if p["input"] == "all" else (p["input"],)
    run = gates.cnot_pulse_sweep(spec, p["omega_values"], labels)
    header = ("omega", "input_label", "p0", "fidelity")
    omega, label = np.repeat(p["omega_values"], len(labels)), np.tile(labels, len(p["omega_values"]))
    fidelity = run.fidelity.ravel()
    summary = _regime_lines(spec, p["omega_values"])
    worst = int(np.argmin(fidelity))
    summary.append(f"worst fidelity = {fidelity[worst]:.6f} (omega={omega[worst]:.9g}, input={label[worst]})")
    return header, (omega, label, run.p0.ravel(), fidelity), summary


def _run_pbg(cfg: ScenarioConfig):
    p = cfg.physics
    g = p["g"]
    target = pbg.bell_target().amplitudes
    gt1 = np.repeat(p["gt1_values"], len(p["gt2_values"]))
    gt2 = np.tile(p["gt2_values"], len(p["gt1_values"]))
    amplitudes = pbg.pbg_final_states(g, [v / g for v in p["gt1_values"]], [v / g for v in p["gt2_values"]], p["loss"])
    check_final_states(amplitudes, lambda j: f"g_t1={gt1[j]:.9g}, g_t2={gt2[j]:.9g}")
    fidelity = fidelities(amplitudes, target)
    header = ("g_t1", "g_t2", "bell_fidelity")
    best = int(np.argmax(fidelity))
    plan = pbg.pbg_optimal_times(g)
    summary = [
        f"best grid fidelity = {fidelity[best]:.9f} at (g_t1, g_t2) = ({gt1[best]:.9g}, {gt2[best]:.9g})",
        f"optimal plan: g_t1 = {plan.g * plan.t1:.9g}, g_t2 = {plan.g * plan.t2:.9g}",
    ]
    return header, (gt1, gt2, fidelity), summary


def _run_stream(seed) -> np.random.Generator:
    """The one random stream of a sampled run at ``seed``; its rows take their draws from it in row order."""
    try:
        return np.random.default_rng(np.random.SeedSequence(seed))
    except (TypeError, ValueError) as exc:  # a negative or non-integer seed
        raise ConfigError(f"bad seed {seed!r}: {exc}") from exc


def _run_bell_landscape(cfg: ScenarioConfig):
    p = cfg.physics
    if cfg.shots is None:
        landscape = bell.bs_landscape(p["omega_t_values"], p["vartheta_values"])
    else:
        landscape = bell._sampled_landscape(
            p["omega_t_values"], p["vartheta_values"], cfg.shots, _run_stream(cfg.seed), p["readout_error"]
        )
    best = int(np.argmax(landscape.b_s))
    summary = [
        f"max |B_S| = {landscape.b_s[best]:.9g} at omega_T = {landscape.omega_T[best]:.9g},"
        f" vartheta = {landscape.vartheta[best]:.9g} (violated = {_column_text(landscape.violated[[best]])[0]})",
        f"violation rows: {np.count_nonzero(landscape.violated)} of {len(landscape.violated)}",
    ]
    return bell.Landscape._fields, landscape, summary


def _run_mermin(cfg: ScenarioConfig):
    p = cfg.physics

    def state(n):
        if p["state"] == "ghz":
            return states.ghz_state(n, p["ghz_phase"])
        return basis_state(states.qubit_layout(n), (0,) * n)

    results = [bell.mermin_n(state(n)) for n in p["n_values"]]
    header = ("n_qubits", "f_value", "classical_bound", "quantum_bound")
    fields = ("value", "classical_bound", "quantum_bound")
    columns = (p["n_values"], *([getattr(res, name) for res in results] for name in fields))
    summary = [f"state = {p['state']}"]
    for res in results:
        summary.append(f"n = {res.n_qubits}: F = {res.value:.6f} (classical bound {res.classical_bound:g})")
    return header, columns, summary


def _run_trajectories(cfg: ScenarioConfig):
    p = cfg.physics
    if p["system"] == "pair":
        om = p["omega_minus"]
        spec = SystemSpec(atom_levels=2, n_atoms=2, g=p["g"], kappa=p["kappa"], gamma=p["gamma"], n_max=p["n_max"])
        drive, occupation, default_t = pair_drive(om), (0, 0, 0), lambda: gates.pair_duration(om)
        summary = _regime_lines(spec, [om])
    else:  # cavity_decay: the bare leaky cavity from one photon
        spec = SystemSpec(n_atoms=0, kappa=p["kappa"], n_max=p["n_max"])
        drive, occupation, default_t, summary = {}, (1,), lambda: gates.cavity_decay_duration(p["kappa"]), []
    h, jump_ops, psi0 = h_cond(spec, drive), decay_operators(spec), basis_state(spec.layout(), occupation)

    t_values = p["t_end_values"] or [default_t()]  # a default length only where it is the run's: it may not be finite
    rng = _run_stream(cfg.seed)
    # a propagation that overflows is a numeric failure even where the chain's plan is refused too
    p0_det = no_photon_probabilities(h, psi0, t_values).tolist()
    try:
        for t_end in t_values:  # every row's chain is planned before any row runs
            trajectories.step_plan(h, jump_ops, t_end, p["dt"])
    except ValueError as exc:  # an unstable dt, no default dt or too many steps, from the config
        raise ConfigError(str(exc)) from exc
    p0_mc, stderr = [], []
    for t_end, det in zip(t_values, p0_det):
        batch = trajectories.run_trajectories(h, jump_ops, psi0, t_end, p["n_traj"], rng, dt=p["dt"])
        p0_mc.append(batch.p0_estimate)
        stderr.append(batch.p0_stderr)
        summary.append(
            f"t_end = {t_end:.9g}: p0_det = {det:.6f}, p0_mc = {batch.p0_estimate:.6f}"
            f" +- {batch.p0_stderr:.6f} (n_traj = {batch.n_traj}, dt = {batch.dt:.3g})"
        )
    return ("t_end", "p0_det", "p0_mc", "stderr"), (t_values, p0_det, p0_mc, stderr), summary


_RUNNERS = {
    "prepare_pair": _run_prepare_pair,
    "cnot": _run_cnot,
    "pbg": _run_pbg,
    "bell_landscape": _run_bell_landscape,
    "mermin": _run_mermin,
    "trajectories": _run_trajectories,
}


def run_scenario(cfg: ScenarioConfig, out_dir: str = ".", quiet: bool = False) -> Path:
    """Execute a scenario, write its CSV and summary, return the CSV path."""
    header, columns, summary = _RUNNERS[cfg.scenario](cfg)
    csv_name = Path(cfg.out if cfg.out else f"{cfg.scenario}.csv")
    summary_name = csv_name.parent / (csv_name.stem + "_summary.txt")

    lines = [f"scenario = {cfg.scenario}"]
    for key, value in sorted(cfg.physics.items()):
        lines.append(f"{key} = {value}")
    if cfg.seed is not None:
        lines.append(f"seed = {cfg.seed}")
    if cfg.shots is not None:
        lines.append(f"shots = {cfg.shots}")
    lines.append(f"rows = {len(columns[0])}")
    lines.extend(summary)
    text = "\n".join(lines) + "\n"
    csv_path, _ = _write_outputs(out_dir, {csv_name: render_csv(header, columns), summary_name: text})
    if not quiet:
        sys.stdout.write(text)
        sys.stdout.write(f"wrote {csv_path}\n")
    return csv_path


# Baked-in figure sweeps: kappa = g = 1, logarithmic Rabi-frequency axis,
# one curve per spontaneous-emission rate.
_FIGURE_GAMMAS = (0.0, 0.01, 0.1)
_FIGURE_OMEGAS = [float(f"{w:.9g}") for w in np.logspace(math.log10(0.005), math.log10(0.5), 25)]


def _figure_columns(which: str):
    if which == "islands":
        grid_t = [k * 2.0 * math.pi / 100 for k in range(101)]
        grid_v = [k * math.pi / 100 for k in range(101)]
        return bell.Landscape._fields, bell.bs_landscape(grid_t, grid_v)

    # one sweep over the three systems, one per gamma: a block of rows per
    # gamma, omega varying fastest
    levels = 2 if which == "fig2" else 3
    specs = [SystemSpec(atom_levels=levels, n_atoms=2, g=1.0, kappa=1.0, gamma=gam, n_max=2) for gam in _FIGURE_GAMMAS]
    if which == "fig2":
        run = gates.prepare_pair_sweep(specs, [(om, gates.pair_duration(om)) for om in _FIGURE_OMEGAS])
    else:
        # fig4 (no-photon probability) and fig5 (fidelity) for the CNOT on |10>
        run = gates.cnot_pulse_sweep(specs, _FIGURE_OMEGAS, ["10"])
    axes = (np.repeat(_FIGURE_GAMMAS, len(_FIGURE_OMEGAS)), np.tile(_FIGURE_OMEGAS, len(_FIGURE_GAMMAS)))
    if which == "fig2":
        header = ("gamma", "omega_minus", "T", "p0", "fidelity", "alpha_re", "alpha_im")
        return header, (*axes, run.duration, run.p0, run.fidelity, run.alpha.real, run.alpha.imag)
    if which == "fig4":
        return ("gamma", "omega", "T", "p0"), (*axes, run.duration, run.p0.ravel())
    return ("gamma", "omega", "T", "fidelity"), (*axes, run.duration, run.fidelity.ravel())


def run_figure(which: str, out_dir: str = ".", quiet: bool = False) -> Path:
    header, columns = _figure_columns(which)
    (path,) = _write_outputs(out_dir, {f"{which}.csv": render_csv(header, columns)})
    if not quiet:
        sys.stdout.write(f"wrote {path} ({len(columns[0])} rows)\n")
    return path


# The command line, one entry per command: its flags, each with the metavar
# and type of its value (None for a switch), then its positional argument:
# name (None for none), choices (None for any text) and whether it is
# required.  Parsing, usage errors and --help all read this table.
_NO_POSITIONAL = (None, None, False)
_COMMANDS = {
    "run": ({"--out": ("DIR", str), "--seed": ("N", int), "--quiet": None}, ("config_path", None, False)),
    "figure": ({"--out": ("DIR", str), "--quiet": None}, ("name", ("fig2", "fig4", "fig5", "islands"), True)),
    "selftest": ({"--quiet": None}, _NO_POSITIONAL),
}

_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _is_flag(arg: str, flags) -> bool:
    """Whether ``arg`` is read as a flag, by argparse's rule.

    It is one of ``flags``, alone or as ``flag=value``, or it starts with
    "-" and is not "-", a negative number or text with a space: so
    "--seed -1" reads -1, and "--out '-my dir'" that directory.
    """
    if arg.partition("=")[0] in flags:
        return True
    return arg.startswith("-") and arg != "-" and " " not in arg and not _NEGATIVE_NUMBER.fullmatch(arg)


def _usage(command: str | None) -> str:
    """The usage line of ``command``, or of ``zenobell`` itself."""
    if command is None:
        return f"usage: zenobell [-h] {{{','.join(_COMMANDS)}}} ...\n"
    flags, (name, choices, required) = _COMMANDS[command]
    words = [f"[{flag} {spec[0]}]" if spec else f"[{flag}]" for flag, spec in flags.items()]
    if name is not None:
        shown = f"{{{','.join(choices)}}}" if choices else name
        words.append(shown if required else f"[{shown}]")
    return f"usage: zenobell {command} [-h] {' '.join(words)}\n"


def _help(command: str | None) -> str:
    """What ``-h`` writes: the usage line of ``command``; at the top level, each command's usage line too."""
    if command is not None:
        return _usage(command)
    lines = "".join(f"  {_usage(name)[len('usage: '):]}" for name in _COMMANDS)
    return f"{_usage(None)}\n{__doc__.splitlines()[0]}\n\ncommands:\n{lines}"


def _usage_error(command: str | None, message: str) -> ConfigError:
    """Write the usage line to stderr; the config error (exit 1) that names the parser and ``message``."""
    sys.stderr.write(_usage(command))
    return ConfigError(f"zenobell{' ' + command if command else ''}: {message}")


def _invalid_choice(name: str, value: str, choices) -> str:
    return f"argument {name}: invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


def _parse_argv(argv):
    """``(command, operand, flags)`` from ``argv``, or None once ``-h``/``--help`` has written the help.

    ``flags`` maps each flag given to its value, True for a switch; a
    repeated flag keeps its last value.  A flag's value follows it or an
    ``=``; every argument after ``--`` is positional.  A usage error writes
    the usage line and raises ConfigError, with argparse's message.
    """
    command, operand, given, extras = None, None, {}, []
    flags, (name, choices, required), only_positionals = {}, _NO_POSITIONAL, False
    args = iter(argv)
    for arg in args:
        if only_positionals or not _is_flag(arg, flags):
            if command is None:
                if arg not in _COMMANDS:
                    raise _usage_error(None, _invalid_choice("command", arg, _COMMANDS))
                command, (flags, (name, choices, required)) = arg, _COMMANDS[arg]
            elif name is None or operand is not None:
                extras.append(arg)
            elif choices is not None and arg not in choices:
                raise _usage_error(command, _invalid_choice(name, arg, choices))
            else:
                operand = arg
        elif arg == "--":
            only_positionals = True
        elif arg in ("-h", "--help"):
            sys.stdout.write(_help(command))
            return None
        elif (flag := arg.partition("=")[0]) not in flags:
            extras.append(arg)
        elif flags[flag] is None:
            if flag != arg:
                raise _usage_error(command, f"argument {flag}: ignored explicit argument {arg[len(flag) + 1 :]!r}")
            given[flag] = True
        else:
            value = arg[len(flag) + 1 :] if flag != arg else next(args, None)
            if value is None or (flag == arg and _is_flag(value, flags)):
                raise _usage_error(command, f"argument {flag}: expected one argument")
            kind = flags[flag][1]
            try:
                given[flag] = kind(value)
            except ValueError:
                raise _usage_error(command, f"argument {flag}: invalid {kind.__name__} value: {value!r}") from None
    if command is None:
        raise _usage_error(None, "the following arguments are required: command")
    if operand is None and required:
        raise _usage_error(command, f"the following arguments are required: {name}")
    if extras:
        raise _usage_error(None, f"unrecognized arguments: {' '.join(extras)}")
    return command, operand, given


def main(argv=None) -> int:
    try:
        parsed = _parse_argv(sys.argv[1:] if argv is None else argv)
        if parsed is None:  # the help was asked for and written
            return 0
        command, operand, flags = parsed
        out, quiet = flags.get("--out", "."), flags.get("--quiet", False)
        if command == "run":
            if not operand:
                raise ConfigError("no config file given")
            try:
                text = Path(operand).read_text()
            except OSError as exc:
                sys.stderr.write(f"error: cannot read config: {exc}\n")
                return 3
            run_scenario(parse_config(text, seed=flags.get("--seed")), out_dir=out, quiet=quiet)
            return 0
        if command == "figure":
            run_figure(operand, out_dir=out, quiet=quiet)
            return 0
        from .selftest import run_selftest

        return 0 if run_selftest(quiet=quiet) else 2
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except NumericalError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o failure: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
