"""Fast invariant suite behind the ``zenobell selftest`` subcommand.

Checks facts that should survive any refactor, and the bytes this install
writes: conditional norms never grow, quantum Bell values respect the
Tsirelson bound, the Fock truncation is converged, and each output the
checks render has the SHA-256 digest pinned in ``_DIGESTS``.

The checks run the production kernels, not copies of them.  The norm
check propagates a two-level pair and a Lambda pair over 41 times with
one ``dynamics.no_jump_states`` call each, the kernel behind every sweep,
and digests the two norm columns as ``render_csv`` writes them.  The
Tsirelson check scores 1000 random two-qubit states in one call of the
stacked Bell kernel and re-scores the worst through ``bell.correlation``.
The rendering check digests a 41 x 41 landscape CSV and one seeded
sampled estimate.  Digests are of rendered text (9 significant digits),
never of float64 bits, whose last places differ between BLAS kernels.  A
digest that differs fails its check, and the line names the rendering
and the versions the digests were pinned on.
"""

from __future__ import annotations

import hashlib
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

# SHA-256 of each rendering the checks make, as render_csv writes it
_PINNED_ON = "Python 3.11.7, numpy 2.4.6"
_DIGESTS = {
    "norm CSV": "d97446238bc248e35a97343742b17c55f5f874bb1f20e91e60df8b387c0279e3",
    "landscape CSV": "4b30bb1d0efccd43f09c3f906399231b0cad7607210ef58d33d6c496f1214c86",
    "sampled estimate": "50e7db08f4ecfee8e5f1b4f03c7abc5e405420c9f02d3addc2e2747c16026a4b",
}


def _pair_spec(gamma: float, n_max: int = 2) -> SystemSpec:
    return SystemSpec(atom_levels=2, n_atoms=2, g=1.0, kappa=1.0, gamma=gamma, rabi=pair_drive(_OMEGA), n_max=n_max)


def _digests_differ(renderings: dict[str, str]) -> str:
    """'' when each rendering has its pinned digest, else a note naming those that differ."""
    differ = [name for name, text in renderings.items() if hashlib.sha256(text.encode()).hexdigest() != _DIGESTS[name]]
    return f"; digest differs from the one pinned on {_PINNED_ON}: {', '.join(differ)}" if differ else ""


def _check_norm_monotonic() -> tuple[bool, str]:
    cases = [
        (_pair_spec(0.01), pair_drive(_OMEGA), (0, 0, 0)),
        (SystemSpec(atom_levels=3, n_atoms=2, g=1.0, kappa=1.0, gamma=0.01, n_max=2), cnot_drive(_OMEGA), (1, 0, 0)),
    ]
    times = np.linspace(0.0, 200.0, 41)
    columns = []
    for spec, drive, occ in cases:
        family = DrivenHamiltonian.of(spec, drive)
        psi0 = basis_state(family.layout, occ).amplitudes
        # the production kernel over the time grid; at t = 0 it returns psi0 itself
        columns.append(norms(no_jump_states(family, [drive] * len(times), times, [psi0])[:, 0]))
    worst = max(float(np.diff(column, prepend=1.0).max()) for column in columns)
    differ = _digests_differ({"norm CSV": render_csv(("pair", "lambda"), columns)})
    return worst <= 1e-10 and not differ, f"max norm increase {worst:.2e}{differ}"


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
    # B_S = E(t1, t2) - E(t1, t2') + E(t1', t2) + E(t1', t2')
    terms = ((1, t1, t2), (-1, t1, t2p), (1, t1p, t2), (1, t1p, t2p))
    one_state = sum(sign * bell.correlation(state, 0, 1, a, b) for sign, a, b in terms)
    detail = f"max |B_S| = {biggest:.9f}"
    if abs(one_state - b_s[worst]) > 1e-12:
        return False, f"{detail}, but {one_state:.9f} for that state scored alone"
    return biggest <= bell.TSIRELSON_BOUND + 1e-9, detail


def _check_fock_convergence() -> tuple[bool, str]:
    hs = [h_cond_two_level(_pair_spec(0.001, n_max=n_max)) for n_max in (2, 3)]
    p2, p3 = (no_photon_probability(h, basis_state(h.layout, (0, 0, 0)), pair_duration(_OMEGA)) for h in hs)
    diff = abs(p2 - p3)
    return diff < 1e-6, f"|P0(n_max=2) - P0(n_max=3)| = {diff:.2e}"


def _check_renderings() -> tuple[bool, str]:
    grid_t = [k * 2 * math.pi / 40 for k in range(41)]
    grid_v = [k * math.pi / 40 for k in range(41)]
    landscape = render_csv(bell.Landscape._fields, bell.bs_landscape(grid_t, grid_v))
    estimate = bell.sample_correlation(bell.landscape_state(math.pi), 0, 1, 0.4, 0.0, 2000, seed=11)
    sampled = render_csv(("estimate", "stderr"), [[value] for value in estimate])
    differ = _digests_differ({"landscape CSV": landscape, "sampled estimate": sampled})
    return not differ, f"{len(landscape)} CSV bytes, sampled estimate {estimate[0]:+.6f}{differ}"


_CHECKS = (
    ("norm monotonicity", _check_norm_monotonic),
    ("Tsirelson bound (1000 random states)", _check_tsirelson),
    ("Fock truncation convergence", _check_fock_convergence),
    ("rendered outputs against pinned digests", _check_renderings),
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
