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

The jump operators of a system are :func:`zenobell.dynamics.decay_operators`,
defined beside the damping of the conditional Hamiltonian they match.

Randomness is one stream per batch: trajectory i takes draw i of
``np.random.default_rng(seed)``, so a batch is bit-for-bit reproducible
for a fixed (seed, n_traj, dt).  ``seed`` is anything ``default_rng``
accepts, a ``Generator`` included, which is used and advanced in place:
the ``trajectories`` scenario passes one ``default_rng(SeedSequence(s))``
per run at seed s to its rows in turn, so runs at different seeds share
no draws and a row's draws depend on the rows before it.
Because every trajectory starts from the same state and the pre-jump
conditional state is deterministic, the shared no-jump trajectory is
propagated once and the first jump is sampled by inversion: trajectory i
jumps at the first step m where the survival S_m drops below its uniform
draw u_i.  This is the same first-jump distribution as drawing one
uniform per step against dp_k = 1 - S_{k+1} / S_k, couples runs with
different dt through common random numbers, and retires a trajectory at
its first jump, which leaves every statistic (no-jump fraction,
first-jump times) unchanged.  A batch keeps the survival chain and the
draws, so :func:`first_jump_histogram` bins the first-jump times only
for a caller that reads them.

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
block of B steps at a time, renormalizing at block boundaries.  The
squares A, A^2, A^4, ... are formed once per chain; a block's 2B + 1
states A^j psi then come from its start state by doubling, rows
[k, 2k) being rows [0, k) times A^k, in ceil(log2(2B + 1)) stacked
products.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .dynamics import NumericalError
from .hilbert import OperatorMatrix, StateVector, _Record, check_normalized

__all__ = [
    "TrajectoryBatch",
    "check_n_traj",
    "step_plan",
    "run_trajectories",
    "first_jump_histogram",
]


class TrajectoryBatch(_Record):
    """Result of one Monte-Carlo batch; equal, and shown, by its six scalars.

    ``seed`` is as passed to :func:`run_trajectories`; ``survival`` is S at
    steps 0 ... n_steps and ``draws`` the uniform draw of each trajectory.
    """

    __slots__ = ("n_traj", "seed", "t_end", "dt", "p0_estimate", "p0_stderr", "survival", "draws")
    _compared = 6

    def __init__(self, n_traj: int, seed, t_end: float, dt: float, p0_estimate: float, p0_stderr: float, survival, draws):
        self._set(n_traj, seed, t_end, dt, p0_estimate, p0_stderr, survival, draws)


_BLOCK = 256  # steps per block of the survival chain
_MAX_STEPS = 2 * 10**6  # bounds the survival array (16 MB) and the chain's run time
# bounds the run time above 26 states: a row takes at most this many
# steps x n^2 on n states.  A step, measured on 2*10^4-step chains on a
# 2-core x86-64 host, costs 0.38 us at 2 states, 0.71 us at 11, 0.66 us
# at 12, 2.78 us at 36 and 13.98 us at 132, so the slowest row the two
# limits admit takes ~3.1 s (36 states), and ~1.4 s on 12 states or fewer
_MAX_WORK = 10**7 * 12**2
_MAX_TRAJ = 10**7  # bounds the draw array (80 MB)
_HISTOGRAM_BINS = 50
_MIN_STEPS = 2 * _HISTOGRAM_BINS  # every first-jump histogram bin spans two or more steps


def check_n_traj(n_traj) -> None:
    """Raise ValueError naming ``n_traj`` unless it is an integer count of trajectories in [1, 10^7].

    A bool is no count.  ``run_trajectories`` checks its count here before
    any draw, and ``config.parse_config`` checks the ``n_traj`` key here.
    """
    if isinstance(n_traj, bool) or not isinstance(n_traj, (int, np.integer)):  # rng.random takes only an integer count
        raise ValueError(f"n_traj must be an integer, got {n_traj!r}")
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    if n_traj > _MAX_TRAJ:
        raise ValueError(f"n_traj = {n_traj} trajectories exceeds the limit of {_MAX_TRAJ}")


def _rate_terms(h: np.ndarray, jump_ops) -> tuple[float, np.ndarray]:
    """The largest stable dt and sum_k L_k^dag L_k of the complex H and jump operators."""
    return _rate_terms_of(len(h), *(np.ascontiguousarray(op, dtype=complex).tobytes() for op in (h, *jump_ops)))


# Memoized by the operators' entries: the rows of a trajectories run share
# H and the L_k, so their SVD 2-norms and sum_k L_k^dag L_k are taken once
# per run.  Each entry holds O(n^2) numbers per operator.
@functools.lru_cache(maxsize=2)
def _rate_terms_of(n: int, h: bytes, *jump_ops: bytes) -> tuple[float, np.ndarray]:
    h = np.frombuffer(h, dtype=complex).reshape(n, n)
    ls = [np.frombuffer(op, dtype=complex).reshape(n, n) for op in jump_ops]
    scale = max(
        float(np.linalg.norm(h, 2)),
        max((float(np.linalg.norm(op, 2)) ** 2 / 2.0 for op in ls), default=0.0),
    )
    decay = sum((l_op.conj().T @ l_op for l_op in ls), np.zeros((n, n), dtype=complex))
    decay.setflags(write=False)
    return (1.0 if scale <= 0 else 1.0 / scale), decay


def _survival_chain(h: np.ndarray, decay: np.ndarray, psi0: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
    """No-jump survival exp(-int_0^{m dt} r(t) dt) for m = 0 ... n_steps.

    The chain of the module docstring: two half steps of A per step and
    Simpson's rule over each step's three rates, each taken with
    ``decay`` = sum_k L_k^dag L_k (:func:`_rate_terms`).  Each block of up to
    ``_BLOCK`` steps starts from the renormalized state at its start and
    fills its (2m + 1, n) states A^j psi by doubling with the transposed
    squares (A^(2^i))^T, which are formed once per chain.  Raises
    :class:`NumericalError` naming the first time whose jump-rate integral
    is not finite, as when rates near the float limit overflow their sum.
    """
    n = psi0.size
    block_len = max(1, min(_BLOCK, n_steps))
    eye = np.eye(n)
    z = -0.5j * dt * h
    half = eye + z @ (eye + z / 2 @ (eye + z / 3 @ (eye + z / 4)))
    # (A^k)^T for k = 1, 2, 4, ...: the doublings that reach A^(2 block_len)
    squares = [half.T]
    while 2 ** len(squares) < 2 * block_len + 1:
        squares.append(squares[-1] @ squares[-1])

    survival = np.empty(n_steps + 1)
    survival[0] = 1.0
    exponent = 0.0
    psi = np.asarray(psi0, dtype=complex)
    for start in range(0, n_steps, block_len):
        m = min(block_len, n_steps - start)
        # rows A^j psi, j = 0 ... 2m: rows [k, 2k) are rows [0, k) times A^k
        size = 2 * m + 1
        states = np.empty((size, n), dtype=complex)
        states[0] = psi
        for i, square in enumerate(squares):
            k = 2**i
            if k >= size:
                break
            states[k : 2 * k] = states[: min(k, size - k)] @ square
        norm2 = np.einsum("kn,kn->k", states.conj(), states).real
        rate = np.einsum("kn,kn->k", states.conj(), states @ decay.T).real / norm2
        # continues the running sum in the order of one global cumsum; a
        # rate near the float limit overflows it, which the check names
        with np.errstate(over="ignore"):
            exponents = np.cumsum(np.concatenate(([exponent], dt / 6.0 * (rate[:-2:2] + 4.0 * rate[1::2] + rate[2::2]))))
        exponent = exponents[-1]
        if not math.isfinite(exponent):
            step = start + int(np.argmin(np.isfinite(exponents)))
            raise NumericalError(f"jump-rate integral not finite at t = {step * dt:.9g}: the survival chain overflows")
        survival[start + 1 : start + m + 1] = np.exp(-exponents[1:])
        psi = states[-1] / math.sqrt(norm2[-1])
    return survival


def step_plan(h_cond: OperatorMatrix, jump_ops, t_end: float, dt: float | None = None) -> tuple[float, int]:
    """``(dt, n_steps)`` of the survival chain to ``t_end``; ValueError names the rule a chain would break.

    ``dt`` defaults to 1 divided by the largest rate in the problem and is
    rejected if larger.  A chain that moves takes at least ``_MIN_STEPS``
    (100) steps of t_end / n_steps, and at most ``_MAX_STEPS`` and
    ``_MAX_WORK`` / n^2 on n states.  ``run_trajectories`` plans its chain
    here, and the ``trajectories`` scenario plans every row here before its
    first row runs.
    """
    dt_max, _ = _rate_terms(h_cond.entries, [op.entries for op in jump_ops])
    return _plan(dt_max, len(h_cond.entries), t_end, dt)


def _plan(dt_max: float, n: int, t_end: float, dt: float | None) -> tuple[float, int]:
    """:func:`step_plan` on n states whose largest stable dt is ``dt_max``."""
    if not t_end >= 0:
        raise ValueError("t_end must be >= 0")
    if dt is None:
        if not math.isfinite(dt_max):  # 1 / scale overflows on a subnormal rate scale
            raise ValueError("rate scale too small: the default dt = 1 / scale overflows; set dt")
        dt = dt_max
    elif not dt > 0:
        raise ValueError("dt must be positive")
    elif dt > dt_max * (1.0 + 1e-9):
        raise ValueError(f"dt = {dt} too large for a stable step (max {dt_max:.3g})")

    steps = max(t_end / dt, _MIN_STEPS) if t_end > 0 else 0
    max_steps = min(_MAX_STEPS, _MAX_WORK // n**2)
    if steps > max_steps:
        count = math.ceil(steps) if math.isfinite(steps) else steps
        raise ValueError(f"t_end = {t_end:.9g} at dt = {dt:.3g} needs {count} steps (at most {max_steps} allowed)")
    n_steps = math.ceil(steps)
    return (t_end / n_steps if n_steps else dt), n_steps


def run_trajectories(
    h_cond: OperatorMatrix,
    jump_ops,
    psi0: StateVector,
    t_end: float,
    n_traj: int,
    seed,
    dt: float | None = None,
) -> TrajectoryBatch:
    """Estimate the no-jump probability at ``t_end`` from ``n_traj`` runs.

    The chain's ``dt`` and step count are :func:`step_plan`'s.  The
    standard error is the binomial one.
    """
    jump_ops = list(jump_ops)
    if psi0.layout != h_cond.layout:
        raise ValueError("state and Hamiltonian live on different layouts")
    for op in jump_ops:
        if op.layout != h_cond.layout:
            raise ValueError("jump operator layout mismatch")
    check_n_traj(n_traj)
    rng = np.random.default_rng(seed)  # rejects a negative seed before any work
    check_normalized(psi0.amplitudes, "psi0")
    h = h_cond.entries
    dt_max, decay = _rate_terms(h, [op.entries for op in jump_ops])
    dt, n_steps = _plan(dt_max, len(h), t_end, dt)
    if n_steps:
        survival = _survival_chain(h, decay, psi0.amplitudes, dt, n_steps)
    else:
        survival = np.ones(1)

    # trajectory i takes draw i of the batch stream; no jump iff the
    # draw stays below the final survival probability
    u = rng.random(n_traj)
    p0 = float(np.count_nonzero(u < survival[-1])) / n_traj
    stderr = math.sqrt(p0 * (1.0 - p0) / n_traj)
    return TrajectoryBatch(n_traj, seed, t_end, dt, p0, stderr, survival, u)


def first_jump_histogram(batch: TrajectoryBatch) -> tuple[tuple[float, int], ...]:
    """First-jump times of ``batch`` on ``_HISTOGRAM_BINS`` (50) uniform bins over (0, t_end].

    The entries are (left bin edge, count); the counts sum to the number
    of trajectories that jumped.
    """
    survival, u = batch.survival, batch.draws
    jumped = u >= survival[-1]
    # first step m (1-based) with survival[m] <= u, via the reversed
    # (ascending) survival chain
    ascending = survival[::-1]
    pos_from_end = np.searchsorted(ascending, u[jumped], side="right")
    first_jump_steps = survival.size - pos_from_end  # 1-based step index
    times = first_jump_steps * batch.dt
    span = batch.t_end if batch.t_end > 0 else 1.0
    counts, edges = np.histogram(times, bins=_HISTOGRAM_BINS, range=(0.0, span))
    return tuple((float(edges[k]), int(counts[k])) for k in range(_HISTOGRAM_BINS))
