"""Fast invariant suite behind the ``zenobell selftest`` subcommand.

Checks structural facts that should survive any refactor: conditional
norms never grow, quantum Bell values respect the Tsirelson bound,
deterministic local strategies respect the classical bound, the Fock
truncation is converged, and CSV rendering is bit-reproducible.

The checks run the production kernels, not copies of them.  The norm
check propagates a two-level pair and a Lambda pair over 41 times with
one ``dynamics.no_jump_states`` call each, the kernel behind every sweep
and ``evolve_no_jump``, and takes the norms with ``hilbert.norms``.  The
Tsirelson check scores its 1000 random two-qubit states in one call
of the stacked Bell kernel, compares the largest |B_S| with 2 sqrt(2)
itself and re-scores that state through ``bell.correlation``.  A check
that raises is reported as a FAIL line naming the exception, so the CLI
exits 2 instead of printing a traceback.  Without ``--quiet`` each line
ends with the check's wall time in milliseconds.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

from . import bell
from .cli import render_csv
from .dynamics import (
    DrivenHamiltonian,
    SystemSpec,
    cnot_drive,
    h_cond_two_level,
    no_jump_states,
    no_photon_probability,
    pair_drive,
)
from .gates import pair_duration
from .hilbert import StateVector, basis_state, norms

__all__ = ["run_selftest"]

_OMEGA = 0.02


def _pair_spec(gamma: float, n_max: int = 2) -> SystemSpec:
    return SystemSpec(atom_levels=2, n_atoms=2, g=1.0, kappa=1.0, gamma=gamma, rabi=pair_drive(_OMEGA), n_max=n_max)


def _check_norm_monotonic() -> tuple[bool, str]:
    worst = -1.0
    cases = [
        (_pair_spec(0.01), pair_drive(_OMEGA), (0, 0, 0)),
        (SystemSpec(atom_levels=3, n_atoms=2, g=1.0, kappa=1.0, gamma=0.01, n_max=2), cnot_drive(_OMEGA), (1, 0, 0)),
    ]
    times = np.linspace(0.0, 200.0, 41)
    for spec, drive, occ in cases:
        family = DrivenHamiltonian.of(spec, drive)
        psi0 = basis_state(family.layout, occ).amplitudes
        # the production kernel over the time grid; at t = 0 it returns psi0 itself
        finals = no_jump_states(family, [drive] * len(times), times, [psi0])[:, 0]
        worst = max(worst, float(np.diff(norms(finals), prepend=1.0).max()))
    return worst <= 1e-10, f"max norm increase {worst:.2e}"


def _tsirelson_draws(seed: int, n: int) -> np.ndarray:
    """(n, 3, 4) draws of ``default_rng(seed)``, state by state: four real parts, four imaginary parts, four angles.

    Two calls per state: eight standard normals, then four uniforms that
    are scaled to [0, 2 pi) at the end.  This consumes the stream as
    ``normal(size=4)`` twice and ``uniform(0, 2 pi, size=4)`` do and
    gives the same doubles, since ``uniform`` returns ``0 + 2 pi u``.
    """
    rng = np.random.default_rng(seed)
    draws = np.empty((n, 3, 4))
    for row in draws.reshape(n, 12):
        rng.standard_normal(out=row[:8])
        rng.random(out=row[8:])
    draws[:, 2] *= 2 * math.pi
    return draws


def _check_tsirelson() -> tuple[bool, str]:
    draws = _tsirelson_draws(7, 1000)
    amps, angles = draws[:, 0] + 1j * draws[:, 1], draws[:, 2]
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    # a two-qubit state's pair matrix is its amplitudes as a 2x2 matrix
    _, b_s = bell._bs_scores(amps.reshape(-1, 1, 2, 2), angles)
    worst = int(np.argmax(np.abs(b_s)))
    biggest = abs(float(b_s[worst]))
    # the one-state public path must score the worst state the same way
    state = StateVector(bell.landscape_state(0.0).layout, amps[worst])
    t1, t1p, t2, t2p = angles[worst]
    one_state = (
        bell.correlation(state, 0, 1, t1, t2)
        - bell.correlation(state, 0, 1, t1, t2p)
        + bell.correlation(state, 0, 1, t1p, t2)
        + bell.correlation(state, 0, 1, t1p, t2p)
    )
    detail = f"max |B_S| = {biggest:.9f}"
    if abs(one_state - b_s[worst]) > 1e-12:
        return False, f"{detail}, but {one_state:.9f} for that state scored alone"
    return biggest <= bell.TSIRELSON_BOUND + 1e-9, detail


def _check_lhv_bound() -> tuple[bool, str]:
    worst = 0.0
    for a in (-1, 1):
        for ap in (-1, 1):
            for b in (-1, 1):
                for bp in (-1, 1):
                    worst = max(worst, abs(a * b - a * bp + ap * b + ap * bp))
    return worst <= 2.0, f"max deterministic combination = {worst:g}"


def _check_fock_convergence() -> tuple[bool, str]:
    t = pair_duration(_OMEGA)
    values = []
    for n_max in (2, 3):
        spec = _pair_spec(0.001, n_max=n_max)
        h = h_cond_two_level(spec)
        values.append(no_photon_probability(h, basis_state(h.layout, (0, 0, 0)), t))
    diff = abs(values[0] - values[1])
    return diff < 1e-6, f"|P0(n_max=2) - P0(n_max=3)| = {diff:.2e}"


def _check_csv_reproducible() -> tuple[bool, str]:
    grid_t = [k * 2 * math.pi / 40 for k in range(41)]
    grid_v = [k * math.pi / 40 for k in range(41)]
    first, second = (render_csv(bell.Landscape._fields, bell.bs_landscape(grid_t, grid_v)) for _ in range(2))
    state = bell.landscape_state(math.pi)
    sampled = [bell.sample_correlation(state, 0, 1, 0.4, 0.0, 2000, seed=11) for _ in range(2)]
    ok = first == second and sampled[0] == sampled[1]
    return ok, f"{len(first)} CSV bytes, sampled estimate {sampled[0][0]:+.6f}"


_CHECKS = (
    ("norm monotonicity", _check_norm_monotonic),
    ("Tsirelson bound (1000 random states)", _check_tsirelson),
    ("deterministic LHV bound", _check_lhv_bound),
    ("Fock truncation convergence", _check_fock_convergence),
    ("CSV and sampling reproducibility", _check_csv_reproducible),
)


def run_selftest(quiet: bool = False) -> bool:
    """Run every check; unless ``quiet``, print one PASS/FAIL line per check and its wall time.

    A check that raises counts as failed, with the exception named in its
    line, so a broken invariant never escapes as a traceback.
    """
    all_ok = True
    for name, check in _CHECKS:
        start = time.perf_counter()
        try:
            ok, detail = check()
        except Exception as exc:  # an error inside a check is that check failing
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed_ms = 1e3 * (time.perf_counter() - start)
        all_ok = all_ok and ok
        if not quiet:
            sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}  [{elapsed_ms:.1f} ms]\n")
    if not quiet:
        sys.stdout.write("selftest " + ("passed\n" if all_ok else "FAILED\n"))
    return all_ok
