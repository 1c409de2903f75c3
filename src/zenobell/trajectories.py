"""Monte-Carlo quantum-jump unraveling of the conditional dynamics.

Independent stochastic cross-check of the deterministic no-photon
probability: each trajectory follows the renormalized conditional state
and jumps at the rate r(t) = sum_k ||L_k psi||^2 / ||psi||^2, so it has
not jumped by t with the waiting-time probability
S(t) = exp(-int_0^t r dt) (Dalibard, Castin and Molmer, PRL 68, 580
(1992); Plenio and Knight, RMP 70, 101 (1998)).  The fraction of
trajectories with zero jumps up to t estimates ||exp(-i H t) psi0||^2.
The survival is taken from the jump operators, not from the norm, so the
check also tests the damping of H against the L_k.

The jump-operator rates follow the amplitude-damping convention of the
conditional Hamiltonian: -i kappa b^dag b and -i Gamma P_exc damp the
squared norm at 2 kappa <b^dag b> + 2 Gamma <P_exc>, so the operators
carry sqrt(2 kappa) and sqrt(2 Gamma).

Randomness is one stream per batch: trajectory i takes draw i of
``np.random.default_rng(seed)``, so a batch is bit-for-bit reproducible
for a fixed (seed, n_traj, dt), and a chunk of trajectories can
regenerate its own draws with ``bit_generator.advance``.  ``seed`` is
anything ``default_rng`` accepts, a ``Generator`` included, which is used
and advanced in place: the ``trajectories`` scenario passes one
``default_rng(SeedSequence(s))`` per run at seed s to its rows in turn,
so runs at different seeds share no draws and a row's draws depend on
the rows before it.
Because every trajectory starts from the same state and the pre-jump
conditional state is deterministic, the shared no-jump trajectory is
propagated once and the first jump is sampled by inversion: trajectory i
jumps at the first step m where the survival S_m drops below its uniform
draw u_i.  This is the same first-jump distribution as drawing one
uniform per step against dp_k = 1 - S_{k+1} / S_k, couples runs with
different dt through common random numbers, and retires a trajectory at
its first jump, which leaves every reported statistic (no-jump fraction,
first-jump histogram) unchanged.

The no-jump state advances a step by two half steps of
A = sum_{k<=4} (-i dt H / 2)^k / k!, the fourth-order Taylor polynomial
of exp(-i dt H / 2) (on this linear equation, the classical RK4 step),
and the integral of r over each step is Simpson's rule over its start,
midpoint and end rates, so S never increases.  dt defaults to 1 / scale,
where scale is the largest of ||H||_2 and ||L_k||_2^2 / 2, and is
rejected above it: every eigenvalue of -i dt H / 2 then has modulus at
most 1/2 and a nonpositive real part, where the polynomial is
contractive.  The chain uses no matrix exponential, so it does not share
the propagation of :func:`zenobell.dynamics.no_photon_probability`.  The
state after j half steps is A^j psi0 / norm, so the chain is computed a
block of steps at a time from one stack of powers A^0 ... A^(2B),
renormalizing at block boundaries.
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


_BLOCK = 256  # steps per block of the survival chain
_POWERS_BYTES = 2**23  # shortens blocks on large spaces: 16 n^2 bytes per power, two powers a step
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
        return 1.0
    return 1.0 / scale


def _survival_chain(h: np.ndarray, ls, psi0: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
    """No-jump survival exp(-int_0^{m dt} r(t) dt) for m = 0 ... n_steps.

    The chain of the module docstring: two half steps of A per step and
    Simpson's rule over each step's three rates.  Each block of up to
    ``_BLOCK`` steps (fewer where the stack of powers would exceed
    ``_POWERS_BYTES``) is one product of the stacked powers A^0 ... A^(2m)
    with the state at the block start, renormalized there.
    """
    n = psi0.size
    decay = sum((l_op.conj().T @ l_op for l_op in ls), np.zeros((n, n), dtype=complex))
    block_len = max(1, min(_BLOCK, (_POWERS_BYTES // (16 * n * n) - 1) // 2))
    eye = np.eye(n)
    z = -0.5j * dt * h
    half = eye + z @ (eye + z / 2 @ (eye + z / 3 @ (eye + z / 4)))
    powers = np.empty((2 * min(n_steps, block_len) + 1, n, n), dtype=complex)
    powers[0] = eye
    for j in range(1, len(powers)):
        powers[j] = half @ powers[j - 1]

    survival = np.empty(n_steps + 1)
    survival[0] = 1.0
    exponent = 0.0
    psi = np.asarray(psi0, dtype=complex)
    for start in range(0, n_steps, block_len):
        m = min(block_len, n_steps - start)
        # one mat-vec over the stacked rows of the powers: ~3x faster than
        # a batched matmul of the (2m + 1, n, n) stack on a small space
        states = (powers[: 2 * m + 1].reshape(-1, n) @ psi).reshape(-1, n)
        norm2 = np.einsum("kn,kn->k", states.conj(), states).real
        rate = np.einsum("kn,kn->k", states.conj(), states @ decay.T).real / norm2
        # continues the running sum in the order of one global cumsum
        exponents = np.cumsum(np.concatenate(([exponent], dt / 6.0 * (rate[:-2:2] + 4.0 * rate[1::2] + rate[2::2]))))
        survival[start + 1 : start + m + 1] = np.exp(-exponents[1:])
        exponent = exponents[-1]
        psi = states[-1] / math.sqrt(norm2[-1])
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

    ``dt`` defaults to 1 divided by the largest rate in the problem and is
    rejected if larger; the chain takes at least ``2 * histogram_bins``
    steps, so that every bin spans two or more of them.
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
        if not math.isfinite(dt_max):  # 1 / scale overflows on a subnormal rate scale
            raise ValueError("rate scale too small: the default dt = 1 / scale overflows; set dt")
        dt = dt_max
    elif dt <= 0:
        raise ValueError("dt must be positive")
    elif dt > dt_max * (1.0 + 1e-9):
        raise ValueError(f"dt = {dt} too large for a stable step (max {dt_max:.3g})")

    steps = max(t_end / dt, 2.0 * histogram_bins) if t_end > 0 else 0
    if steps > _MAX_STEPS:
        count = math.ceil(steps) if math.isfinite(steps) else steps
        raise ValueError(f"t_end = {t_end:.9g} at dt = {dt:.3g} needs {count} steps (at most {_MAX_STEPS} allowed)")
    n_steps = math.ceil(steps)
    if n_steps:
        dt = t_end / n_steps
        survival = _survival_chain(h, ls, psi0.amplitudes, dt, n_steps)
    else:
        survival = np.ones(1)

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
