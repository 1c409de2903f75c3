"""Monte-Carlo quantum-jump unraveling of the conditional dynamics.

Independent stochastic cross-check of the deterministic no-photon
probability: each trajectory evolves under the conditional Hamiltonian
with a first-order Euler step (renormalized every step) and draws a jump
with probability dt * sum_k ||L_k psi||^2 per step.  The fraction of
trajectories with zero jumps up to t estimates ||exp(-i H t) psi0||^2.

The jump-operator rates follow the amplitude-damping convention of the
conditional Hamiltonian: -i kappa b^dag b and -i Gamma P_exc damp the
squared norm at 2 kappa <b^dag b> + 2 Gamma <P_exc>, so the operators
carry sqrt(2 kappa) and sqrt(2 Gamma).

Randomness is one stream per batch: trajectory i takes draw i of
``np.random.default_rng(seed)``, so a batch is bit-for-bit reproducible
for a fixed (seed, n_traj, dt), and a chunk of trajectories can
regenerate its own draws with ``bit_generator.advance``.  ``seed`` is
anything ``default_rng`` accepts; the ``trajectories`` scenario gives
row k of a run at seed s the stream ``SeedSequence(s, spawn_key=(k,))``,
so no row of one run shares a stream with a row of another.
Because every trajectory starts from the same state and the pre-jump
conditional state is deterministic, the shared no-jump trajectory is
propagated once and the per-step Bernoulli chain is sampled by
inversion: trajectory i jumps at the first step where the running
no-jump survival prod_k (1 - dp_k) drops below its uniform draw u_i.
This is the same first-jump distribution as drawing one uniform per
step, couples runs with different dt through common random numbers, and
retires a trajectory at its first jump, which leaves every reported
statistic (no-jump fraction, first-jump histogram) unchanged.

The no-jump state after k renormalized Euler steps is A^k psi0 / norm
with A = 1 - i dt H, so the chain is computed a block of steps at a time
from one stack of powers A^0 ... A^B, renormalizing at block boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SystemSpec, cavity_annihilation
from .hilbert import OperatorMatrix, StateVector, embed

__all__ = [
    "TrajectoryBatch",
    "run_trajectories",
    "decay_operators",
]


@dataclass(frozen=True)
class TrajectoryBatch:
    """Result of one Monte-Carlo batch."""

    n_traj: int
    seed: object  # as passed to run_trajectories
    dt: float
    p0_estimate: float
    p0_stderr: float
    jump_time_histogram: tuple[tuple[float, int], ...]


_BLOCK = 256  # Euler steps per block of the survival chain
_POWERS_BYTES = 2**23  # shortens blocks on large spaces: 16 n^2 bytes per power
_MAX_STEPS = 10**7  # bounds the survival array (80 MB) and the chain's run time
_MAX_TRAJ = 10**7  # bounds the draw array (80 MB)


def decay_operators(spec: SystemSpec) -> list[OperatorMatrix]:
    """Jump operators matching the conditional Hamiltonian of ``spec``.

    Cavity leakage sqrt(2 kappa) b plus, when Gamma > 0, atomic emission
    from the excited level.  Lambda atoms decay to both ground states
    with equal branching; the no-jump statistics do not depend on the
    branching split.
    """
    layout = spec.layout()
    ops: list[OperatorMatrix] = []
    if spec.kappa > 0:
        b = cavity_annihilation(spec.layout())
        ops.append(OperatorMatrix(layout, math.sqrt(2.0 * spec.kappa) * b.entries))
    if spec.gamma > 0:
        excited = spec.atom_levels - 1
        grounds = [0] if spec.atom_levels == 2 else [0, 1]
        rate = 2.0 * spec.gamma / len(grounds)
        for i in range(1, spec.n_atoms + 1):
            for low in grounds:
                lower = np.zeros((spec.atom_levels, spec.atom_levels), dtype=complex)
                lower[low, excited] = math.sqrt(rate)
                ops.append(embed(lower, f"atom{i}", layout))
    return ops


def _max_stable_dt(h: np.ndarray, jump_ops: list[np.ndarray]) -> float:
    scale = max(
        float(np.linalg.norm(h, 2)),
        max((float(np.linalg.norm(op, 2)) ** 2 / 2.0 for op in jump_ops), default=0.0),
    )
    if scale <= 0:
        return 0.01
    return 0.01 / scale


def _survival_chain(h: np.ndarray, ls, psi0: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
    """No-jump survival prod_{k<m} (1 - dp_k) for m = 0 ... n_steps.

    dp_k = dt sum_j ||L_j psi_k||^2 on the renormalized first-order Euler
    state psi_k, and psi_{k+1} = A psi_k / ||A psi_k|| with A = 1 - i dt H.
    Each block of up to ``_BLOCK`` steps (fewer where the stack of powers
    would exceed ``_POWERS_BYTES``) is one product of the stacked powers
    A^0 ... A^m with the state at the block start.  Raises if a
    step's jump probability exceeds 0.1 or its norm grows by more than 1.1.
    """
    n = psi0.size
    decay = sum((l_op.conj().T @ l_op for l_op in ls), np.zeros((n, n), dtype=complex))
    block_len = max(1, min(_BLOCK, _POWERS_BYTES // (16 * n * n) - 1))
    step = np.eye(n) - 1j * dt * h
    powers = np.empty((min(n_steps, block_len) + 1, n, n), dtype=complex)
    powers[0] = np.eye(n)
    for j in range(1, len(powers)):
        powers[j] = step @ powers[j - 1]

    survival = np.empty(n_steps + 1)
    survival[0] = 1.0
    psi = np.asarray(psi0, dtype=complex)
    for start in range(0, n_steps, block_len):
        m = min(block_len, n_steps - start)
        states = powers[: m + 1] @ psi
        norm2 = np.einsum("kn,kn->k", states.conj(), states).real
        load = np.einsum("kn,kn->k", states.conj(), states @ decay.T).real
        dp = dt * load[:m] / norm2[:m]
        growth = np.sqrt(norm2[1:] / norm2[:-1])
        # the first failing step decides, with the jump check first as in
        # a step-by-step loop
        bad = (dp > 0.1) | (growth > 1.1)
        if bad.any():
            if dp[np.argmax(bad)] > 0.1:
                raise ValueError("unstable dt: per-step jump probability exceeded 0.1")
            raise ValueError("unstable dt: norm increase detected")
        # continues the running product in the order of one global cumprod
        np.cumprod(np.concatenate(([survival[start]], 1.0 - dp)), out=survival[start : start + m + 1])
        psi = states[m] / math.sqrt(norm2[m])
    return survival


def run_trajectories(
    h_cond: OperatorMatrix,
    jump_ops,
    psi0: StateVector,
    t_end: float,
    n_traj: int,
    seed,
    dt: float | None = None,
    histogram_bins: int = 50,
) -> TrajectoryBatch:
    """Estimate the no-jump probability at ``t_end`` from ``n_traj`` runs.

    ``dt`` defaults to 0.01 divided by the largest rate in the problem
    and is rejected if larger (the first-order step would be unstable).
    The standard error is the binomial one.  The histogram covers
    first-jump times on ``histogram_bins`` uniform bins over (0, t_end];
    its entries are (left bin edge, count) and the counts sum to the
    number of trajectories that jumped.
    """
    jump_ops = list(jump_ops)
    if psi0.layout != h_cond.layout:
        raise ValueError("state and Hamiltonian live on different layouts")
    for op in jump_ops:
        if op.layout != h_cond.layout:
            raise ValueError("jump operator layout mismatch")
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if n_traj > _MAX_TRAJ:
        raise ValueError(f"n_traj = {n_traj} trajectories exceeds the limit of {_MAX_TRAJ}")
    rng = np.random.default_rng(seed)  # rejects a negative seed before any work
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if abs(psi0.norm() - 1.0) > 1e-9:
        raise ValueError("psi0 must be normalized")

    h = h_cond.entries
    ls = [op.entries for op in jump_ops]
    dt_max = _max_stable_dt(h, ls)
    if dt is None:
        dt = dt_max
    elif dt <= 0:
        raise ValueError("dt must be positive")
    elif dt > dt_max * (1.0 + 1e-9):
        raise ValueError(f"dt = {dt} too large for a stable first-order step (max {dt_max:.3g})")

    steps = t_end / dt
    if steps > _MAX_STEPS:
        count = math.ceil(steps) if math.isfinite(steps) else steps
        raise ValueError(
            f"t_end = {t_end:.9g} at dt = {dt:.3g} needs {count} Euler steps (at most {_MAX_STEPS} allowed)"
        )
    n_steps = max(1, math.ceil(steps)) if t_end > 0 else 0
    dt = t_end / n_steps if n_steps else dt

    survival = _survival_chain(h, ls, psi0.amplitudes, dt, n_steps)

    # trajectory i takes draw i of the batch stream; no jump iff the
    # draw stays below the final survival probability
    u = rng.random(n_traj)
    jumped = u >= survival[-1]
    p0 = float(np.count_nonzero(~jumped)) / n_traj
    stderr = math.sqrt(p0 * (1.0 - p0) / n_traj)

    # first step m (1-based) with survival[m] <= u, via the reversed
    # (ascending) survival chain
    ascending = survival[::-1]
    pos_from_end = np.searchsorted(ascending, u[jumped], side="right")
    first_jump_steps = survival.size - pos_from_end  # 1-based step index
    times = first_jump_steps * dt
    span = t_end if t_end > 0 else 1.0
    counts, edges = np.histogram(times, bins=histogram_bins, range=(0.0, span))
    histogram = tuple((float(edges[k]), int(counts[k])) for k in range(histogram_bins))

    return TrajectoryBatch(
        n_traj=n_traj,
        seed=seed,
        dt=dt,
        p0_estimate=p0,
        p0_stderr=stderr,
        jump_time_histogram=histogram,
    )
