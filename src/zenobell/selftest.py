"""Fast invariant suite behind the ``zenobell selftest`` subcommand.

Checks structural facts that should survive any refactor: conditional
norms never grow, quantum Bell values respect the Tsirelson bound,
deterministic local strategies respect the classical bound, the Fock
truncation is converged, and CSV rendering is bit-reproducible.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import bell
from ._expm import expm
from .cli import render_csv
from .dynamics import (
    SystemSpec,
    cnot_drive,
    h_cond_lambda,
    h_cond_two_level,
    no_photon_probability,
    pair_drive,
)
from .hilbert import StateVector, basis_state

__all__ = ["run_selftest"]

_OMEGA = 0.02


def _pair_spec(gamma: float, n_max: int = 2) -> SystemSpec:
    return SystemSpec(atom_levels=2, n_atoms=2, g=1.0, kappa=1.0, gamma=gamma, rabi=pair_drive(_OMEGA), n_max=n_max)


def _check_norm_monotonic() -> tuple[bool, str]:
    worst = -1.0
    cases = [
        (h_cond_two_level(_pair_spec(0.01)), (0, 0, 0)),
        (
            h_cond_lambda(
                SystemSpec(
                    atom_levels=3,
                    n_atoms=2,
                    g=1.0,
                    kappa=1.0,
                    gamma=0.01,
                    rabi=cnot_drive(_OMEGA),
                    n_max=2,
                )
            ),
            (1, 0, 0),
        ),
    ]
    times = np.linspace(0.0, 200.0, 41)[:, None, None]
    for h, occ in cases:
        psi0 = basis_state(h.layout, occ).amplitudes
        # one stacked expm over the time grid; at t = 0 it is exactly the identity
        norms = [np.linalg.norm(u @ psi0) for u in expm(-1j * h.entries * times)]
        worst = max(worst, float(np.diff([1.0, *norms]).max()))
    return worst <= 1e-10, f"max norm increase {worst:.2e}"


def _check_tsirelson() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    layout = bell.landscape_state(0.0).layout
    biggest = 0.0
    for _ in range(1000):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = StateVector(layout, amps / np.linalg.norm(amps))
        settings = bell.AnalyzerSettings(*rng.uniform(0, 2 * math.pi, size=4))
        biggest = max(biggest, abs(bell.bs_value(state, settings).b_s))
    return biggest <= bell.TSIRELSON_BOUND + 1e-9, f"max |B_S| = {biggest:.9f}"


def _check_lhv_bound() -> tuple[bool, str]:
    worst = 0.0
    for a in (-1, 1):
        for ap in (-1, 1):
            for b in (-1, 1):
                for bp in (-1, 1):
                    worst = max(worst, abs(a * b - a * bp + ap * b + ap * bp))
    return worst <= 2.0, f"max deterministic combination = {worst:g}"


def _check_fock_convergence() -> tuple[bool, str]:
    t = math.pi / _OMEGA
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
    first = render_csv(("omega_T", "vartheta", "b_s", "violated"), bell.bs_landscape(grid_t, grid_v))
    second = render_csv(("omega_T", "vartheta", "b_s", "violated"), bell.bs_landscape(grid_t, grid_v))
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
    all_ok = True
    for name, check in _CHECKS:
        ok, detail = check()
        all_ok = all_ok and ok
        if not quiet:
            sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}\n")
    if not quiet:
        sys.stdout.write("selftest " + ("passed\n" if all_ok else "FAILED\n"))
    return all_ok
