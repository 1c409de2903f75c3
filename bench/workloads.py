"""Workload definitions: the CLI jobs each workload runs and how their outputs are checked.

A job is one ``zenobell.cli.main(argv)`` call.  Grids are fixed; the
workload seed only chooses the ``seed`` keys of the sampled scenarios
(``bell_landscape`` and ``trajectories``).  ``smoke=True`` shrinks every
scenario grid to a subset of the full grid, so the same reference tables
check both sizes.

Checks: deterministic columns must match the reference tables recorded
in ``bench/reference`` within 1e-8 relative and absolute.  Sampled
columns are checked statistically, so a change of random stream that
keeps the estimator's distribution still passes:

* ``p0_mc``: ``|p0_mc - p0_det| <= 6 max(stderr, 1/n_traj)``;
* sampled ``b_s``: within ``6 sqrt(10/shots)`` of ``(1 - 2 eps)^2 b_exact``
  (``3 e1 - e3`` has variance at most ``(9 + 1)/shots``).
"""

from __future__ import annotations

import csv
import gzip
import io
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

WORKLOADS = ("sweep", "verify", "jumps")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

TOL = 1e-8
SIGMAS = 6.0


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what is needed to check its output."""

    name: str
    command: str  # "run", "figure" or "selftest"
    config: str = ""  # config text for "run"
    keys: tuple[str, ...] = ()  # columns that identify a row
    exact: tuple[str, ...] = ()  # columns compared with the reference
    sampled: dict = field(default_factory=dict)  # parameters of the statistical check
    rows: int = 0  # expected CSV rows

    @property
    def csv_name(self) -> str:
        return f"{self.name}.csv"

    def argv(self, config_path: Path | None, out_dir: Path) -> list[str]:
        # No --threads flag: jobs run at the CLI's default thread setting.
        if self.command == "selftest":
            return ["selftest", "--quiet"]
        if self.command == "figure":
            return ["figure", self.name, "--out", str(out_dir), "--quiet"]
        return ["run", str(config_path), "--out", str(out_dir), "--quiet"]


def _run(name: str, config: dict, **check) -> Job:
    # Each run job writes <scenario>.csv unless told otherwise; two jobs of
    # one workload can share a scenario, so name the file after the job.
    text = "".join(f"{k} = {v}\n" for k, v in {**config, "out": f"{name}.csv"}.items())
    return Job(name, "run", text, **check)


def _csv_list(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


# Full grids.
PAIR_OMEGAS = (0.01, 0.015, 0.02, 0.025, 0.03, 0.04, 0.05, 0.06)
PAIR_TIMES = (50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0, 500.0)
CNOT_OMEGAS = (0.005, 0.0075, 0.01, 0.0125, 0.015, 0.02, 0.025, 0.03, 0.04, 0.05)
PBG_POINTS = 51  # the scenario's default grid, 0..pi in both transit times
BELL_POINTS = 21
BELL_SHOTS = 20000
READOUT_ERROR = 0.02
MERMIN_NS = tuple(range(3, 13))
CAVITY_T_END = (0.25, 0.5, 1.0, 2.0)
PAIR_TRAJ = 2000
CAVITY_TRAJ = 20000
FIGURE_ROWS = 75  # 3 spontaneous-emission rates x 25 Rabi frequencies
ISLAND_ROWS = 101 * 101


def _pbg_axis(indices) -> str:
    # Same arithmetic as the config parser's default grid, so the values
    # (and their CSV keys) are identical to rows of the full grid.
    step = (math.pi - 0.0) / (PBG_POINTS - 1)
    return _csv_list(0.0 + k * step for k in indices)


def _sweep(rng: random.Random, smoke: bool) -> list[Job]:
    pair_om = PAIR_OMEGAS[:2] if smoke else PAIR_OMEGAS
    pair_t = PAIR_TIMES[:3] if smoke else PAIR_TIMES
    cnot_om = CNOT_OMEGAS[:2] if smoke else CNOT_OMEGAS
    pbg = {"scenario": "pbg", "loss": 0.01}
    pbg_rows = PBG_POINTS**2
    if smoke:
        pbg.update(gt1_values=_pbg_axis((0, 12, 25)), gt2_values=_pbg_axis((0, 25, 50)))
        pbg_rows = 9
    fig = {"rows": FIGURE_ROWS}
    return [
        Job("fig2", "figure", keys=("gamma", "omega_minus"), exact=("T", "p0", "fidelity", "alpha_re", "alpha_im"), **fig),
        Job("fig4", "figure", keys=("gamma", "omega"), exact=("T", "p0"), **fig),
        Job("fig5", "figure", keys=("gamma", "omega"), exact=("T", "fidelity"), **fig),
        _run(
            "prepare_pair",
            {
                "scenario": "prepare_pair", "g": 1.0, "kappa": 1.0, "gamma": 2e-4, "n_max": 2,
                "omega_minus_values": _csv_list(pair_om), "T_values": _csv_list(pair_t),
            },
            keys=("omega_minus", "T"),
            exact=("p0", "fidelity", "alpha_re", "alpha_im"),
            rows=len(pair_om) * len(pair_t),
        ),
        _run(
            "cnot",
            {
                "scenario": "cnot", "g": 1.0, "kappa": 1.0, "gamma": 1e-3, "n_max": 2,
                "omega_values": _csv_list(cnot_om), "input": "all",
            },
            keys=("omega", "input_label"),
            exact=("p0", "fidelity"),
            rows=4 * len(cnot_om),
        ),
        _run("pbg", pbg, keys=("g_t1", "g_t2"), exact=("bell_fidelity",), rows=pbg_rows),
    ]


def _verify(rng: random.Random, smoke: bool) -> list[Job]:
    points = 3 if smoke else BELL_POINTS
    shots = 2000 if smoke else BELL_SHOTS
    ns = MERMIN_NS[:4] if smoke else MERMIN_NS
    bell = {
        "scenario": "bell_landscape", "omega_t_count": points, "vartheta_count": points,
        "readout_error": READOUT_ERROR, "shots": shots, "seed": rng.randrange(2**31),
    }
    return [
        _run(
            "bell_landscape",
            bell,
            keys=("omega_T", "vartheta"),
            sampled={"shots": shots, "readout_error": READOUT_ERROR},
            rows=points * points,
        ),
        _run(
            "mermin",
            {"scenario": "mermin", "state": "ghz", "n_qubits_values": ", ".join(map(str, ns))},
            keys=("n_qubits",),
            exact=("f_value", "classical_bound", "quantum_bound"),
            rows=len(ns),
        ),
        Job("islands", "figure", keys=("omega_T", "vartheta"), exact=("b_s", "violated"), rows=ISLAND_ROWS),
        Job("selftest", "selftest"),
    ]


def _jumps(rng: random.Random, smoke: bool) -> list[Job]:
    pair_traj = 200 if smoke else PAIR_TRAJ
    cavity_traj = 2000 if smoke else CAVITY_TRAJ
    t_end = CAVITY_T_END[:2] if smoke else CAVITY_T_END
    pair = {
        "scenario": "trajectories", "system": "pair", "g": 1.0, "kappa": 1.0, "gamma": 1e-3,
        "omega_minus": 0.02, "n_traj": pair_traj, "seed": rng.randrange(2**31),
    }
    cavity = {
        "scenario": "trajectories", "system": "cavity_decay", "kappa": 1.0, "n_max": 4,
        "t_end_values": _csv_list(t_end), "n_traj": cavity_traj, "seed": rng.randrange(2**31),
    }
    return [
        _run("traj_pair", pair, keys=("t_end",), exact=("p0_det",), sampled={"n_traj": pair_traj}, rows=1),
        _run(
            "traj_cavity", cavity, keys=("t_end",), exact=("p0_det",), sampled={"n_traj": cavity_traj}, rows=len(t_end)
        ),
    ]


_WORKLOAD_JOBS = {"sweep": _sweep, "verify": _verify, "jumps": _jumps}


def make_jobs(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The workload's jobs; only the seeds of sampled scenarios depend on ``seed``."""
    return _WORKLOAD_JOBS[workload](random.Random(seed), smoke)


# Every job of every workload; the traced run reports one wall time per job.
JOB_NAMES = tuple(job.name for workload in WORKLOADS for job in make_jobs(workload, 0))


def reference_job(job: Job) -> Job:
    """The job whose output at the reference commit defines the expected values.

    For the sampled Bell landscape this is the exact (shot-free) landscape
    on the same grid.
    """
    if job.name != "bell_landscape":
        return job
    lines = [ln for ln in job.config.splitlines() if not ln.startswith(("shots", "seed"))]
    return replace(job, config="\n".join(lines) + "\n")


# ---------------------------------------------------------------- checks


def read_table(text: str) -> tuple[list[str], list[dict]]:
    reader = csv.DictReader(io.StringIO(text))
    return list(reader.fieldnames or []), list(reader)


def load_reference(name: str) -> tuple[list[str], list[dict]]:
    """Header and rows of one job's reference table."""
    with gzip.open(REFERENCE_DIR / f"{name}.csv.gz", "rt", newline="") as fh:
        return read_table(fh.read())


def _close(value: str, expected: str) -> bool:
    if value == expected:
        return True
    try:
        a, b = float(value), float(expected)
    except ValueError:
        return False
    return math.isfinite(a) and abs(a - b) <= TOL + TOL * abs(b)


def _sampled_ok(job: Job, row: dict, ref: dict) -> str | None:
    if "shots" in job.sampled:
        eps = job.sampled["readout_error"]
        b, b_exact = float(row["b_s"]), float(ref["b_s"])
        limit = SIGMAS * math.sqrt(10.0 / job.sampled["shots"])
        if not abs(b - (1 - 2 * eps) ** 2 * b_exact) <= limit:
            return f"b_s = {b} too far from (1-2eps)^2 b_exact = {(1 - 2 * eps) ** 2 * b_exact} (limit {limit:.3g})"
        if row["violated"] != ("true" if b > 2.0 else "false"):
            return f"violated = {row['violated']} disagrees with b_s = {b}"
    else:
        p_mc, p_det, err = float(row["p0_mc"]), float(row["p0_det"]), float(row["stderr"])
        if not (math.isfinite(err) and err >= 0):
            return f"stderr = {err} is not a standard error"
        limit = SIGMAS * max(err, 1.0 / job.sampled["n_traj"])
        if not abs(p_mc - p_det) <= limit:
            return f"p0_mc = {p_mc} too far from p0_det = {p_det} (limit {limit:.3g})"
    return None


def check_output(job: Job, text: str, reference: tuple[list[str], list[dict]]) -> str | None:
    """None when the job's CSV is correct, else a one-line reason."""
    try:
        return _check_rows(job, text, reference)
    except (KeyError, ValueError) as exc:  # missing column, unparsable number
        return f"malformed output: {exc!r}"


def _check_rows(job: Job, text: str, reference: tuple[list[str], list[dict]]) -> str | None:
    ref_header, ref_rows = reference
    header, rows = read_table(text)
    if header != ref_header:
        return f"header {header} != reference {ref_header}"
    by_key = {tuple(r[k] for k in job.keys): r for r in ref_rows}
    if len(rows) != job.rows:
        return f"{len(rows)} rows, expected {job.rows}"
    seen = set()
    for n, row in enumerate(rows, start=2):
        key = tuple(row[k] for k in job.keys)
        ref = by_key.get(key)
        if ref is None or key in seen:
            return f"line {n}: row {key} is not in the reference grid, or repeats"
        seen.add(key)
        for col in job.exact:
            if not _close(row[col], ref[col]):
                return f"line {n}: {col} = {row[col]}, reference {ref[col]}"
        if job.sampled:
            reason = _sampled_ok(job, row, ref)
            if reason:
                return f"line {n}: {reason}"
    return None
