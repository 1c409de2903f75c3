"""Scenario configuration: line-oriented key = value files.

Format: one ``key = value`` pair per line, optional ``[section]``
headers (sections are grouping only; keys live in one flat, case
sensitive namespace), ``#`` starts a comment.  Unknown keys, unknown
sections and malformed numbers are hard errors so that a typo in a
physics parameter cannot silently fall back to a default.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .dynamics import SystemSpec, cnot_drive
from .gates import QUBIT_LABELS, cavity_decay_duration, cnot_duration, pair_duration
from .trajectories import _MAX_TRAJ

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


def _float_list(key: str, raw: str) -> list[float]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"key {key!r} must list at least one number")
    return [_float(key, s) for s in items]


def _require(table: dict, key: str) -> str:
    if key not in table:
        raise ConfigError(f"missing required key {key!r}")
    return table.pop(key)


def _rate(table: dict, key: str, positive: bool = False) -> float:
    value = _float(key, _require(table, key))
    if positive and not value > 0:
        raise ConfigError(f"key {key!r} must be > 0, got {value}")
    if not positive and value < 0:
        raise ConfigError(f"key {key!r} must be >= 0, got {value}")
    return value


def _coupling(table: dict) -> float:
    """Atom-cavity coupling ``g``; its square enters the regime ratio g^2/kappa."""
    g = _rate(table, "g", positive=True)
    if not 0.0 < g * g < math.inf:
        raise ConfigError(f"key 'g' = {g} is out of range: g**2 underflows or overflows")
    return g


def _check_damping(physics: dict) -> None:
    """Reject a ``kappa`` or ``gamma`` whose conditional Hamiltonian or jump operators would not be finite.

    H0 holds -i kappa n for n <= n_max photons and -i Gamma per excited
    atom (two atoms at most), and each jump operator squares to 2 rate
    times such a term, so every entry is finite when 2 rate max(n_max, 2) is.
    """
    for key in ("kappa", "gamma"):
        if key in physics and not math.isfinite(2.0 * physics[key] * max(physics["n_max"], 2)):
            raise ConfigError(f"key {key!r} = {physics[key]!r} is too large: 2 * {key} * max(n_max, 2) overflows")


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
        raise ConfigError(f"missing required key {key!r}")
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
# Most shots per sampled correlation, the same budget as the trajectory
# count of a trajectories row.  A correlation is one binomial draw at any
# shot count; the cap keeps the count one that a draw accepts: numpy's
# Generator.binomial raises OverflowError at 2^63 shots, which would end a
# run in a traceback.
SHOTS_CAP = 10**7


def _n_max(table: dict) -> int:
    n = _int("n_max", table.pop("n_max", "2"))
    if not 1 <= n <= N_MAX_CAP:
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


def _nonzero(values: list[float], key: str) -> list[float]:
    for v in values:
        if v == 0:
            raise ConfigError(f"key {key!r} must be nonzero")
    return values


def _nonnegative(values: list[float], key: str) -> list[float]:
    for v in values:
        if v < 0:
            raise ConfigError(f"key {key!r} must be >= 0, got {v}")
    return values


def _finite_default_duration(values: list[float], key: str, duration: Callable[[float], float]) -> None:
    """A duration left to its default is ``duration(value)``; it must be finite."""
    for v in values:
        if not math.isfinite(duration(v)):
            raise ConfigError(f"key {key!r} = {v!r} is too small: its default duration is not finite")


def _two_atom_sweep(table: dict, omega_key: str) -> dict:
    """The physics a prepare_pair or cnot sweep shares: the rates, ``n_max`` and the nonzero ``omega_key`` values."""
    physics = {
        "g": _coupling(table),
        "kappa": _rate(table, "kappa"),
        "gamma": _rate(table, "gamma"),
        "n_max": _n_max(table),
        "omega_values": _nonzero(_values(table, omega_key), omega_key),
    }
    _check_damping(physics)
    return physics


def _parse_prepare_pair(table: dict) -> dict:
    physics = _two_atom_sweep(table, "omega_minus")
    if table.get("T") == "auto":
        del table["T"]
    physics["t_values"] = _values(table, "T", required=False, check=_nonnegative)
    if physics["t_values"] is None:
        # maximal-entanglement pulse length pi/|omega|, one per omega value
        omegas = physics["omega_values"]
        _finite_default_duration(omegas, "omega_minus", pair_duration)
        physics["t_values"] = [pair_duration(omegas[0])] if len(omegas) == 1 else None
    t_count = 1 if physics["t_values"] is None else len(physics["t_values"])  # None: one auto T per omega
    _check_rows("omega_minus x T", len(physics["omega_values"]) * t_count, SystemSpec(atom_levels=2, n_max=physics["n_max"]))
    return physics


def _parse_cnot(table: dict) -> dict:
    physics = _two_atom_sweep(table, "omega")
    label = table.pop("input", "all")
    if label not in (*QUBIT_LABELS, "all"):
        raise ConfigError(f"key 'input' must be 00, 01, 10, 11 or all, got {label!r}")
    physics["input"] = label
    rows = len(physics["omega_values"]) * (4 if label == "all" else 1)
    _check_rows("omega x input", rows, SystemSpec(atom_levels=3, n_max=physics["n_max"]))
    # the pulse length is part of the gate protocol, cnot_duration(omega): there is no 'T' key
    _finite_default_duration(physics["omega_values"], "omega", cnot_duration)
    for v in physics["omega_values"]:
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
    physics = {"g": _coupling(table) if "g" in table else 1.0}
    gt1 = _transit_axis(table, "gt1", physics["g"])
    gt2 = _transit_axis(table, "gt2", physics["g"])
    _check_rows("gt1 x gt2", len(gt1) * len(gt2))
    physics["gt1_values"], physics["gt2_values"] = gt1, gt2
    physics["loss"] = _nonnegative([_float("loss", table.pop("loss", "0"))], "loss")[0]
    return physics


def _parse_bell_landscape(table: dict) -> dict:
    omega_t = _grid(table, "omega_t", 0.0, 2.0 * math.pi, 101)
    vartheta = _grid(table, "vartheta", 0.0, math.pi, 101)
    _check_rows("omega_t_count x vartheta_count", len(omega_t) * len(vartheta))
    physics = {"omega_t_values": omega_t, "vartheta_values": vartheta}
    eps = _float("readout_error", table.pop("readout_error", "0"))
    if not 0.0 <= eps < 0.5:
        raise ConfigError(f"key 'readout_error' must lie in [0, 0.5), got {eps}")
    physics["readout_error"] = eps
    return physics


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
    physics = {"system": system, "kappa": _rate(table, "kappa"), "n_max": _n_max(table)}
    if system == "pair":
        physics["g"] = _coupling(table)
        physics["gamma"] = _rate(table, "gamma")
        if "omega_minus_values" in table:
            raise ConfigError("unknown key 'omega_minus_values': a trajectories run takes one 'omega_minus'")
        physics["omega_minus"] = _nonzero([_float("omega_minus", _require(table, "omega_minus"))], "omega_minus")[0]
    _check_damping(physics)
    n_traj = _int("n_traj", table.pop("n_traj", "2000"))
    if n_traj < 1:
        raise ConfigError(f"n_traj must be >= 1, got {n_traj}")
    if n_traj > _MAX_TRAJ:
        raise ConfigError(f"n_traj = {n_traj} trajectories exceeds the limit of {_MAX_TRAJ}")
    physics["n_traj"] = n_traj
    physics["t_end_values"] = _values(table, "t_end", required=False, check=_nonnegative)
    if physics["t_end_values"] is None and system == "pair":
        _finite_default_duration([physics["omega_minus"]], "omega_minus", pair_duration)
    elif physics["t_end_values"] is None:
        _finite_default_duration([physics["kappa"]], "kappa", cavity_decay_duration)
    _check_rows("t_end", len(physics["t_end_values"] or ()))
    physics["dt"] = _rate(table, "dt", positive=True) if "dt" in table else None
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

    A ``seed`` given here (``zenobell run --seed``) replaces the ``seed`` key, under that key's rules.
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
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    shots = None
    if "shots" in table:
        if scenario != "bell_landscape":
            raise ConfigError("key 'shots' only applies to the bell_landscape scenario")
        shots = _int("shots", table.pop("shots"))
        if shots < 1:
            raise ConfigError(f"shots must be >= 1, got {shots}")
        if shots > SHOTS_CAP:
            raise ConfigError(f"shots = {shots} exceeds the limit of {SHOTS_CAP} per correlation")

    physics = _PARSERS[scenario](table)
    if table:
        raise ConfigError(f"unknown key(s): {', '.join(sorted(table))}")
    if shots is not None and seed is None:
        raise ConfigError("sampled bell_landscape needs a 'seed'")
    if scenario == "trajectories" and seed is None:
        seed = 0
    return ScenarioConfig(scenario=scenario, physics=physics, seed=seed, shots=shots, out=out)
