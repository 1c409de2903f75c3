"""Scenario configuration: line-oriented key = value files.

Format: one ``key = value`` pair per line, optional ``[section]``
headers (sections are grouping only; keys live in one flat, case
sensitive namespace), ``#`` starts a comment.  Unknown keys, unknown
sections and malformed numbers are hard errors so that a typo in a
physics parameter cannot silently fall back to a default.

The parser keeps what is its own: the text syntax, the key names and
their ``_values`` spellings, and the caps that bound a run (``ROWS_CAP``,
``SWEEP_WORK_CAP``, ``N_MAX_CAP``).  A physical rule belongs to the module
that uses the value: ``SystemSpec`` for the rates and ``n_max``,
``gates`` for the omegas and default durations, ``pbg`` for ``g`` and
``loss`` of a band-gap run, ``bell`` for ``shots``, ``readout_error`` and
``vartheta``, ``trajectories`` for ``n_traj`` and ``dt``.  The parser
calls that check and reports its refusal as a ConfigError with the same
text.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable

from .bell import check_readout_error, check_shots, check_vartheta
from .dynamics import SystemSpec, cnot_drive
from .gates import QUBIT_LABELS, cavity_decay_duration, check_omega, cnot_duration, pair_duration
from .pbg import check_coupling, check_loss
from .trajectories import check_dt, check_n_traj

__all__ = ["ConfigError", "ScenarioConfig", "parse_config", "SCENARIOS"]

_SECTIONS = {"run", "physics", "sampling", "output"}


class ConfigError(ValueError):
    """Invalid or incomplete scenario configuration."""


class ScenarioConfig:
    """A parsed scenario; ``seed`` may be set after parsing."""

    __slots__ = ("scenario", "physics", "seed", "shots", "out")

    def __init__(
        self, scenario: str, physics: dict | None = None, seed: int | None = None, shots: int | None = None, out: str | None = None
    ):
        self.scenario, self.physics = scenario, {} if physics is None else physics
        self.seed, self.shots, self.out = seed, shots, out


def _float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"unparsable number for key {key!r}: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r} must be finite, got {raw!r}")
    return value


def _int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"unparsable integer for key {key!r}: {raw!r}") from None


def _owned(check: Callable, *args, **kwargs):
    """``check(*args, **kwargs)``, a rule of the module that uses the values; a refusal keeps its text."""
    try:
        return check(*args, **kwargs)
    except ValueError as error:
        raise ConfigError(str(error)) from None


def _float_list(key: str, raw: str) -> list[float]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"key {key!r} must list at least one number")
    return [_float(key, s) for s in items]


def _require(table: dict, key: str) -> str:
    if key not in table:
        raise ConfigError(f"missing required key {key!r}")
    return table.pop(key)


def _values(table: dict, key: str, *, required: bool = True, default=None, check=None) -> list[float] | None:
    """Accept either a scalar ``key`` or a comma list ``key_values``; ``check(values, spelling)`` names the one given."""
    list_key = key + "_values"
    if key in table and list_key in table:
        raise ConfigError(f"give either {key!r} or {list_key!r}, not both")
    if key in table:
        values, spelling = [_float(key, table.pop(key))], key
    elif list_key in table:
        values, spelling = _float_list(list_key, table.pop(list_key)), list_key
    elif required:
        _require(table, key)
    else:
        return default
    if check is not None:
        check(values, spelling)
    return values


# Largest cavity truncation a config may ask for.  Convergence in the Fock
# cutoff shows by n_max = 3; the cap keeps every dense matrix of a run
# (at most 9 * 33 = 297 states) small, which bounds each expm and each
# trajectory step.
N_MAX_CAP = 32
# Most CSV rows one run may write: 100x the 101 x 101 default Bell landscape.
ROWS_CAP = 10**6
# Most rows x d^3 a prepare_pair or cnot sweep may ask for on the d states of two atoms and the
# cavity, as a row's propagator costs ~d^3: 10^6 rows on the 12-state pair, 4,347 on the 132-state one.
# Measured on a 2-core x86-64 host: a 20,000-row prepare_pair run on the 12-state pair takes
# 0.6-0.7 s, import included, and a row on the 132-state pair ~3.5 ms.
SWEEP_WORK_CAP = 10**10


def _n_max(table: dict) -> int:
    """``n_max`` up to N_MAX_CAP; ``SystemSpec`` owns its lower bound."""
    n = _int("n_max", table.pop("n_max", "2"))
    if n > N_MAX_CAP:
        raise ConfigError(f"n_max must lie in [1, {N_MAX_CAP}], got {n}")
    return n


def _grid(table: dict, name: str, lo: float, hi: float, count: int) -> list[float]:
    """``count`` values ``lo + k step`` from ``name_min`` to ``name_max``, monotonic between the two ends."""
    lo = _float(name + "_min", table.pop(name + "_min", repr(lo)))
    hi = _float(name + "_max", table.pop(name + "_max", repr(hi)))
    count = _int(name + "_count", table.pop(name + "_count", str(count)))
    if not 1 <= count <= ROWS_CAP:
        raise ConfigError(f"{name}_count must lie in [1, {ROWS_CAP}], got {count}")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    values = [lo + k * step for k in range(count)]
    if not math.isfinite(values[-1]):  # infinite too when the step overflows; the two ends bound the values
        raise ConfigError(f"{name}_min = {lo!r} to {name}_max = {hi!r} in {count} points overflows to non-finite ones")
    return values


def _check_rows(what: str, rows: int, sweep: SystemSpec | None = None) -> None:
    """Refuse over ROWS_CAP rows, and over SWEEP_WORK_CAP for a sweep on the layout of ``sweep``."""
    if rows > ROWS_CAP:
        raise ConfigError(f"{what} asks for {rows} rows; a run may write at most {ROWS_CAP}")
    states = 0 if sweep is None else sweep.layout().total_dim
    if rows * states**3 > SWEEP_WORK_CAP:
        raise ConfigError(f"{what} asks for {rows} rows on {states} states, over {SWEEP_WORK_CAP:.0e} rows x states^3")


def _nonnegative(values: list[float], key: str) -> list[float]:
    for v in values:
        if v < 0:
            raise ConfigError(f"key {key!r} must be >= 0, got {v}")
    return values


def _two_atom_sweep(table: dict, omega_key: str, atom_levels: int) -> tuple[dict, SystemSpec]:
    """The rates, ``n_max`` and ``omega_key`` values that a prepare_pair or cnot sweep shares, and the sweep's spec."""
    physics = {key: _float(key, _require(table, key)) for key in ("g", "kappa", "gamma")}
    physics["n_max"] = _n_max(table)
    spec = _owned(SystemSpec, atom_levels, 2, **physics)
    physics["omega_values"] = _values(table, omega_key)
    for omega in physics["omega_values"]:
        _owned(check_omega, omega_key, omega)
    return physics, spec


def _parse_prepare_pair(table: dict) -> dict:
    physics, spec = _two_atom_sweep(table, "omega_minus", 2)
    if table.get("T") == "auto":
        del table["T"]
    physics["t_values"] = _values(table, "T", required=False, check=_nonnegative)
    if physics["t_values"] is None:
        # maximal-entanglement pulse length pi/|omega|, one per omega value
        durations = [_owned(pair_duration, omega) for omega in physics["omega_values"]]
        physics["t_values"] = durations if len(durations) == 1 else None
    t_count = 1 if physics["t_values"] is None else len(physics["t_values"])  # None: one auto T per omega
    _check_rows("omega_minus x T", len(physics["omega_values"]) * t_count, spec)
    return physics


def _parse_cnot(table: dict) -> dict:
    physics, spec = _two_atom_sweep(table, "omega", 3)
    label = table.pop("input", "all")
    if label not in (*QUBIT_LABELS, "all"):
        raise ConfigError(f"key 'input' must be 00, 01, 10, 11 or all, got {label!r}")
    physics["input"] = label
    rows = len(physics["omega_values"]) * (4 if label == "all" else 1)
    _check_rows("omega x input", rows, spec)
    for v in physics["omega_values"]:
        # the pulse length is part of the gate protocol, cnot_duration(omega): there is no 'T' key
        _owned(cnot_duration, v)
        if not all(math.isfinite(abs(w)) for w in cnot_drive(v).values()):
            raise ConfigError(f"key 'omega' = {v!r} is too large: the drive sqrt(2) * omega overflows")
    return physics


def _transit_axis(table: dict, name: str, g: float) -> list[float]:
    """A ``g t`` axis whose transit times ``value / g`` are >= 0 and finite; a grid is checked at its two ends."""

    def check(values: list[float], key: str) -> None:
        for v in values:
            if not math.isfinite(_nonnegative([v], key)[0] / g):
                raise ConfigError(f"key {key!r} = {v!r} is too large: the transit time {key} / g overflows")

    axis = _values(table, name, required=False, check=check)
    if axis is None:
        axis = _grid(table, name, 0.0, math.pi, 51)
        check(axis[:1], name + "_min")
        check(axis[-1:], name + "_max")
    return axis


def _parse_pbg(table: dict) -> dict:
    physics = {"g": _float("g", table.pop("g", "1"))}
    _owned(check_coupling, physics["g"])
    gt1 = _transit_axis(table, "gt1", physics["g"])
    gt2 = _transit_axis(table, "gt2", physics["g"])
    _check_rows("gt1 x gt2", len(gt1) * len(gt2))
    physics["gt1_values"], physics["gt2_values"] = gt1, gt2
    physics["loss"] = _float("loss", table.pop("loss", "0"))
    _owned(check_loss, physics["loss"])
    return physics


def _parse_bell_landscape(table: dict) -> dict:
    omega_t = _grid(table, "omega_t", 0.0, 2.0 * math.pi, 101)
    vartheta = _grid(table, "vartheta", 0.0, math.pi, 101)
    _owned(check_vartheta, [vartheta[0], vartheta[-1]])  # the grid is monotonic: its two ends bound it
    _check_rows("omega_t_count x vartheta_count", len(omega_t) * len(vartheta))
    readout_error = _float("readout_error", table.pop("readout_error", "0"))
    _owned(check_readout_error, readout_error)
    return {"omega_t_values": omega_t, "vartheta_values": vartheta, "readout_error": readout_error}


def _parse_mermin(table: dict) -> dict:
    raw = _values(table, "n_qubits", required=False, default=[3.0])
    ns = []
    for v in raw:
        n = int(v)
        if n != v or not 3 <= n <= 12:
            raise ConfigError(f"key 'n_qubits' entries must be integers in [3, 12], got {v}")
        ns.append(n)
    _check_rows("n_qubits", len(ns))
    state = table.pop("state", "ghz")
    if state not in ("ghz", "zeros"):
        raise ConfigError(f"key 'state' must be ghz or zeros, got {state!r}")
    return {"n_values": ns, "state": state, "ghz_phase": _float("ghz_phase", table.pop("ghz_phase", "0"))}


def _parse_trajectories(table: dict) -> dict:
    system = _require(table, "system")
    if system not in ("pair", "cavity_decay"):
        raise ConfigError(f"key 'system' must be pair or cavity_decay, got {system!r}")
    physics = {"system": system, "kappa": _float("kappa", _require(table, "kappa")), "n_max": _n_max(table)}
    if system == "pair":
        physics["g"], physics["gamma"] = (_float(key, _require(table, key)) for key in ("g", "gamma"))
        _owned(SystemSpec, g=physics["g"], kappa=physics["kappa"], gamma=physics["gamma"], n_max=physics["n_max"])
        if "omega_minus_values" in table:
            raise ConfigError("unknown key 'omega_minus_values': a trajectories run takes one 'omega_minus'")
        physics["omega_minus"] = _float("omega_minus", _require(table, "omega_minus"))
        _owned(check_omega, "omega_minus", physics["omega_minus"])
    else:  # the bare leaky cavity
        _owned(SystemSpec, n_atoms=0, kappa=physics["kappa"], n_max=physics["n_max"])
    physics["n_traj"] = _int("n_traj", table.pop("n_traj", "2000"))
    _owned(check_n_traj, physics["n_traj"])
    physics["t_end_values"] = _values(table, "t_end", required=False, check=_nonnegative)
    if physics["t_end_values"] is None and system == "pair":
        _owned(pair_duration, physics["omega_minus"])
    elif physics["t_end_values"] is None:
        _owned(cavity_decay_duration, physics["kappa"])
    _check_rows("t_end", len(physics["t_end_values"] or ()))
    physics["dt"] = _float("dt", table.pop("dt")) if "dt" in table else None
    if physics["dt"] is not None:
        _owned(check_dt, physics["dt"])
    return physics


_PARSERS = {
    "prepare_pair": _parse_prepare_pair,
    "cnot": _parse_cnot,
    "pbg": _parse_pbg,
    "bell_landscape": _parse_bell_landscape,
    "mermin": _parse_mermin,
    "trajectories": _parse_trajectories,
}
SCENARIOS = tuple(_PARSERS)


def parse_config(text: str, seed: int | None = None) -> ScenarioConfig:
    """Parse and validate a scenario configuration; all errors name keys.

    A ``seed`` given here (``zenobell run --seed``) replaces the ``seed`` key, under that key's rules: an
    integer, not a bool, and >= 0.
    """
    table: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {raw_line.strip()!r}")
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section {section!r}")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in table:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        table[key] = value

    scenario = _require(table, "scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r} (expected one of {', '.join(SCENARIOS)})")

    out = table.pop("out", None)
    file_seed = _int("seed", table.pop("seed")) if "seed" in table else None
    seed = file_seed if seed is None else seed
    if seed is not None:
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):  # as check_shots refuses a count
            raise ConfigError(f"seed must be an integer, got {seed!r}")
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
    shots = None
    if "shots" in table:
        if scenario != "bell_landscape":
            raise ConfigError("key 'shots' only applies to the bell_landscape scenario")
        shots = _int("shots", table.pop("shots"))
        _owned(check_shots, shots)

    physics = _PARSERS[scenario](table)
    if table:
        raise ConfigError(f"unknown key(s): {', '.join(sorted(table))}")
    if shots is not None and seed is None:
        raise ConfigError("sampled bell_landscape needs a 'seed'")
    if scenario == "trajectories" and seed is None:
        seed = 0
    return ScenarioConfig(scenario=scenario, physics=physics, seed=seed, shots=shots, out=out)
