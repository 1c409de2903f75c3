"""Scenario runner: dispatch protocols and sweeps, emit CSV and summaries.

Subcommands:

    zenobell run CONFIG [--out DIR] [--seed N] [--quiet]
    zenobell figure {fig2,fig4,fig5,islands} [--out DIR] [--quiet]
    zenobell selftest [--quiet]

Sweeps run batched on one thread: the Hamiltonian of a sweep is assembled
once, its points are propagated by stacked matrix exponentials and their
final states are scored as one stack.
CSV output is deterministic (bit-identical for identical config and
seed): header row, '\\n' line endings, floats printed with 9 significant
digits, booleans as true/false.  Row k of a sampled run draws from
``np.random.SeedSequence(seed, spawn_key=(k,))``, so no two runs share
a row's stream.  An output file that already holds the new bytes is
not rewritten.  Exit codes: 0 ok, 1 config or usage error, 2 numeric
failure, 3 I/O failure.  Runs do not warn: the regime of each omega
goes to the summary, and leaves the exit code as it is.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
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
    h_cond_two_level,
    no_photon_probability,
    pair_drive,
)
from .hilbert import OperatorMatrix, basis_state, compose, fidelities, ladder

__all__ = ["main", "run_scenario", "render_csv", "NumericalError"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(value)
    if isinstance(value, (float, np.floating)):
        return f"{value:.9g}"
    return str(value)


# One converter per exact type, each giving the text ``_fmt`` gives.
_COLUMN_FORMATS = {bool: {True: "true", False: "false"}.__getitem__, int: str, float: "{:.9g}".format}
# Rows formatted column by column at a time, so the cells held at once stay few.
_CSV_BLOCK = 4096


def _format_column(values) -> list[str]:
    kinds = set(map(type, values))
    convert = _COLUMN_FORMATS.get(kinds.pop()) if len(kinds) == 1 else None
    return list(map(convert or _fmt, values))


def render_csv(header, rows) -> str:
    """Header line, then one line per row, every value formatted by ``_fmt``.

    Rows go in blocks; within a block, a column whose values share one
    exact type (bool, int or float) is formatted by one converter.
    """
    lines = [",".join(header)]
    rows = iter(rows)
    while block := list(itertools.islice(rows, _CSV_BLOCK)):
        if len(set(map(len, block))) == 1 and block[0]:
            cells = zip(*map(_format_column, zip(*block)))
        else:  # ragged or empty rows have no columns to share a converter
            cells = (map(_fmt, row) for row in block)
        lines.extend(map(",".join, cells))
    return "\n".join(lines) + "\n"


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


def _check_probability(p: float, what: str, point: str) -> float:
    if not math.isfinite(p) or p < -1e-9 or p > 1.0 + 1e-9:
        raise NumericalError(f"{what} = {p} outside [0, 1] at {point}; evolution is numerically unsound")
    return p


def _regime_lines(regimes) -> list[str]:
    """One summary line per (omega, RegimeReport) pair."""
    lines = []
    for om, rep in regimes:
        ratios = ", ".join(f"{k}={v:.4g}" for k, v in rep.ratios.items())
        lines.append(f"regime omega={om:.9g}: in_regime={rep.in_regime} ({ratios})")
    return lines


def _run_prepare_pair(cfg: ScenarioConfig):
    p = cfg.physics
    spec = SystemSpec(atom_levels=2, n_atoms=2, g=p["g"], kappa=p["kappa"], gamma=p["gamma"], n_max=p["n_max"])
    oms, ts = [], []
    for om in p["omega_values"]:
        t_values = p["t_values"] if p["t_values"] is not None else [math.pi / abs(om)]
        oms.extend([om] * len(t_values))
        ts.extend(t_values)
    run = gates.prepare_pair_sweep(spec, zip(oms, ts))
    rows = list(zip(oms, ts, run.p0.tolist(), run.fidelity.tolist(), run.alpha.real.tolist(), run.alpha.imag.tolist()))
    header = ("omega_minus", "T", "p0", "fidelity", "alpha_re", "alpha_im")
    summary = _regime_lines((om, run.regimes[om]) for om in p["omega_values"])
    best = max(rows, key=lambda r: r[3])
    summary.append(f"best fidelity = {best[3]:.6f} at omega_minus={best[0]:.9g}, T={best[1]:.9g} (p0={best[2]:.6f})")
    summary.append(f"last row: p0 = {rows[-1][2]:.6f}, fidelity = {rows[-1][3]:.6f}")
    return header, rows, summary


def _run_cnot(cfg: ScenarioConfig):
    p = cfg.physics
    spec = SystemSpec(atom_levels=3, n_atoms=2, g=p["g"], kappa=p["kappa"], gamma=p["gamma"], n_max=p["n_max"])
    labels = gates.QUBIT_LABELS if p["input"] == "all" else (p["input"],)
    run = gates.cnot_pulse_sweep(spec, p["omega_values"], labels)
    cells = zip(itertools.product(p["omega_values"], labels), run.p0.ravel().tolist(), run.fidelity.ravel().tolist())
    rows = [(om, lab, p0, f) for (om, lab), p0, f in cells]
    header = ("omega", "input_label", "p0", "fidelity")
    summary = _regime_lines((om, run.regimes[om]) for om in p["omega_values"])
    worst = min(rows, key=lambda r: r[3])
    summary.append(f"worst fidelity = {worst[3]:.6f} (omega={worst[0]:.9g}, input={worst[1]})")
    return header, rows, summary


def _run_pbg(cfg: ScenarioConfig):
    p = cfg.physics
    g, loss = p["g"], p["loss"]
    target = pbg.bell_target().amplitudes
    points = [(gt1, gt2) for gt1 in p["gt1_values"] for gt2 in p["gt2_values"]]
    t1_values, t2_values = [gt1 / g for gt1 in p["gt1_values"]], [gt2 / g for gt2 in p["gt2_values"]]
    try:
        amplitudes = pbg.pbg_final_states(g, t1_values, t2_values, loss)
    except ValueError as exc:  # a negative or overflowing transit time from the config
        raise ConfigError(str(exc)) from exc
    check_final_states(amplitudes, lambda j: f"g_t1={points[j][0]:.9g}, g_t2={points[j][1]:.9g}")
    rows = [(gt1, gt2, f) for (gt1, gt2), f in zip(points, fidelities(amplitudes, target).tolist())]
    header = ("g_t1", "g_t2", "bell_fidelity")
    best = max(rows, key=lambda r: r[2])
    plan = pbg.pbg_optimal_times(g)
    summary = [
        f"best grid fidelity = {best[2]:.9f} at (g_t1, g_t2) = ({best[0]:.9g}, {best[1]:.9g})",
        f"optimal plan: g_t1 = {plan.g * plan.t1:.9g}, g_t2 = {plan.g * plan.t2:.9g}",
    ]
    return header, rows, summary


def _run_bell_landscape(cfg: ScenarioConfig):
    p = cfg.physics
    header = ("omega_T", "vartheta", "b_s", "violated")
    if cfg.shots is None:
        rows = bell.bs_landscape(p["omega_t_values"], p["vartheta_values"])
    else:
        rows = bell._sampled_landscape(
            p["omega_t_values"], p["vartheta_values"], cfg.shots, cfg.seed, p["readout_error"]
        )
    best = max(rows, key=lambda r: r[2])
    summary = [
        f"max |B_S| = {best[2]:.9g} at omega_T = {best[0]:.9g}, vartheta = {best[1]:.9g}"
        f" (violated = {_fmt(best[3])})",
        f"violation rows: {sum(1 for r in rows if r[3])} of {len(rows)}",
    ]
    return header, rows, summary


def _run_mermin(cfg: ScenarioConfig):
    p = cfg.physics

    def one(n):
        if p["state"] == "ghz":
            psi = states.ghz_state(n, p["ghz_phase"])
        else:
            psi = basis_state(states.qubit_layout(n), (0,) * n)
        res = bell.mermin_n(psi)
        return (n, res.value, res.classical_bound, res.quantum_bound)

    rows = [one(n) for n in p["n_values"]]
    header = ("n_qubits", "f_value", "classical_bound", "quantum_bound")
    summary = [f"state = {p['state']}"]
    for n, value, classical, _quantum in rows:
        summary.append(f"n = {n}: F = {value:.6f} (classical bound {classical:g})")
    return header, rows, summary


def _run_trajectories(cfg: ScenarioConfig):
    p = cfg.physics
    if p["system"] == "pair":
        spec = SystemSpec(atom_levels=2, n_atoms=2, g=p["g"], kappa=p["kappa"], gamma=p["gamma"], n_max=p["n_max"])
        om = p["omega_minus"]
        run_spec = spec.with_rabi(pair_drive(om))
        h = h_cond_two_level(run_spec)
        psi0 = basis_state(run_spec.layout(), (0, 0, 0))
        jump_ops = trajectories.decay_operators(run_spec)
        default_t = math.pi / abs(om)
        summary = _regime_lines([(om, check_regime(run_spec, abs(om)))])
    else:
        layout = compose([("cav", p["n_max"] + 1)])
        b = ladder(p["n_max"] + 1)
        h = OperatorMatrix(layout, -1j * p["kappa"] * (b.conj().T @ b))
        psi0 = basis_state(layout, (1,))
        jump_ops = [OperatorMatrix(layout, math.sqrt(2.0 * p["kappa"]) * b)]
        default_t = 1.0 / p["kappa"] if p["kappa"] > 0 else 1.0
        summary = []

    t_values = p["t_end_values"] or [default_t]
    rows = []
    for k, t_end in enumerate(t_values):
        p0_det = _check_probability(no_photon_probability(h, psi0, t_end), "p0", f"t_end={t_end:.9g}")
        try:
            batch = trajectories.run_trajectories(
                h, jump_ops, psi0, t_end, p["n_traj"], np.random.SeedSequence(cfg.seed, spawn_key=(k,)), dt=p["dt"]
            )
        except ValueError as exc:  # bad dt / seed from the config
            raise ConfigError(str(exc)) from exc
        rows.append((t_end, p0_det, batch.p0_estimate, batch.p0_stderr))
        summary.append(
            f"t_end = {t_end:.9g}: p0_det = {p0_det:.6f}, p0_mc = {batch.p0_estimate:.6f}"
            f" +- {batch.p0_stderr:.6f} (n_traj = {batch.n_traj}, dt = {batch.dt:.3g})"
        )
    header = ("t_end", "p0_det", "p0_mc", "stderr")
    return header, rows, summary


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
    header, rows, summary = _RUNNERS[cfg.scenario](cfg)
    csv_name = Path(cfg.out if cfg.out else f"{cfg.scenario}.csv")
    summary_name = csv_name.parent / (csv_name.stem + "_summary.txt")

    lines = [f"scenario = {cfg.scenario}"]
    for key, value in sorted(cfg.physics.items()):
        lines.append(f"{key} = {value}")
    if cfg.seed is not None:
        lines.append(f"seed = {cfg.seed}")
    if cfg.shots is not None:
        lines.append(f"shots = {cfg.shots}")
    lines.append(f"rows = {len(rows)}")
    lines.extend(summary)
    text = "\n".join(lines) + "\n"
    csv_path, _ = _write_outputs(out_dir, {csv_name: render_csv(header, rows), summary_name: text})
    if not quiet:
        sys.stdout.write(text)
        sys.stdout.write(f"wrote {csv_path}\n")
    return csv_path


# Baked-in figure sweeps: kappa = g = 1, logarithmic Rabi-frequency axis,
# one curve per spontaneous-emission rate.
_FIGURE_GAMMAS = (0.0, 0.01, 0.1)
_FIGURE_OMEGAS = [float(f"{w:.9g}") for w in np.logspace(math.log10(0.005), math.log10(0.5), 25)]


def _figure_rows(which: str):
    if which == "islands":
        grid_t = [k * 2.0 * math.pi / 100 for k in range(101)]
        grid_v = [k * math.pi / 100 for k in range(101)]
        return ("omega_T", "vartheta", "b_s", "violated"), bell.bs_landscape(grid_t, grid_v)

    rows = []
    for gam in _FIGURE_GAMMAS:
        if which == "fig2":
            s = SystemSpec(atom_levels=2, n_atoms=2, g=1.0, kappa=1.0, gamma=gam, n_max=2)
            run = gates.prepare_pair_sweep(s, [(om, math.pi / om) for om in _FIGURE_OMEGAS])
            alpha = (run.alpha.real.tolist(), run.alpha.imag.tolist())
        else:
            # fig4 (no-photon probability) and fig5 (fidelity) for the CNOT on |10>
            s = SystemSpec(atom_levels=3, n_atoms=2, g=1.0, kappa=1.0, gamma=gam, n_max=2)
            run = gates.cnot_pulse_sweep(s, _FIGURE_OMEGAS, ["10"])
            alpha = ()
        columns = (run.duration.tolist(), run.p0.ravel().tolist(), run.fidelity.ravel().tolist(), *alpha)
        rows.extend(zip(itertools.repeat(gam), _FIGURE_OMEGAS, *columns))
    if which == "fig2":
        return ("gamma", "omega_minus", "T", "p0", "fidelity", "alpha_re", "alpha_im"), rows
    if which == "fig4":
        return ("gamma", "omega", "T", "p0"), [r[:4] for r in rows]
    return ("gamma", "omega", "T", "fidelity"), [(r[0], r[1], r[2], r[4]) for r in rows]


def run_figure(which: str, out_dir: str = ".", quiet: bool = False) -> Path:
    header, rows = _figure_rows(which)
    (path,) = _write_outputs(out_dir, {f"{which}.csv": render_csv(header, rows)})
    if not quiet:
        sys.stdout.write(f"wrote {path} ({len(rows)} rows)\n")
    return path


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a config error (exit 1), not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zenobell", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a config file")
    p_run.add_argument("config_path", nargs="?", help="path to the config file")
    p_run.add_argument("--config", dest="config_flag", metavar="PATH", help="alternative to the positional path")
    p_run.add_argument("--out", default=".", metavar="DIR", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, metavar="N", help="override the config seed")
    p_run.add_argument("--quiet", action="store_true")

    p_fig = sub.add_parser("figure", help="reproduce a figure data table with baked-in defaults")
    p_fig.add_argument("name", choices=("fig2", "fig4", "fig5", "islands"))
    p_fig.add_argument("--out", default=".", metavar="DIR")
    p_fig.add_argument("--quiet", action="store_true")

    p_self = sub.add_parser("selftest", help="run the invariant suite")
    p_self.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            path = args.config_path or args.config_flag
            if not path:
                raise ConfigError("no config file given (positional path or --config)")
            try:
                text = Path(path).read_text()
            except OSError as exc:
                sys.stderr.write(f"error: cannot read config: {exc}\n")
                return 3
            cfg = parse_config(text)
            if args.seed is not None:
                if args.seed < 0:
                    raise ConfigError(f"seed must be >= 0, got {args.seed}")
                cfg.seed = args.seed
            run_scenario(cfg, out_dir=args.out, quiet=args.quiet)
            return 0
        if args.command == "figure":
            run_figure(args.name, out_dir=args.out, quiet=args.quiet)
            return 0
        from .selftest import run_selftest

        return 0 if run_selftest(quiet=args.quiet) else 2
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
