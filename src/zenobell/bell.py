"""Bell-type and Mermin-type correlation tests for prepared states.

Analyzer settings are angles in the equatorial plane of the Bloch
sphere: sigma(theta) = cos(theta) sigma_x + sin(theta) sigma_y.  The spin
(correlation-function) Bell combination

    B_S = E(t1,t2) - E(t1,t2') + E(t1',t2) + E(t1',t2')

is bounded by 2 for local hidden variables and by 2*sqrt(2) for quantum
states.  For states whose correlation depends only on the angle
difference, such as the pulse family, the chain of
``AnalyzerSettings.from_single_angle(v)`` gives
|B_S| = |3 E(v,0) - E(3v,0)|.

Three-qubit states are scored with the Mermin combination
|<XXX> - <YYX> - <YXY> - <XYY>| (classical bound 2, GHZ value 4); for
N > 3 qubits the recursive Mermin-Klyshko extension is used, normalized
so the classical bound stays 2 for every N and the N = 3 operator
coincides with the three-qubit combination.  That operator is nonzero
only on |0...0><1...1| and its conjugate, so the value is read off two
amplitudes in closed form; no scoring call builds a full-space matrix.

One measurement model serves exact and sampled scores.  The readout is
a projective measurement in the sigma(theta) eigenbasis (rotate, then
read the computational basis), and ``_outcome_probabilities`` gives the
probabilities of its four outcomes for the pair matrices of a stack of
states (the amplitudes reshaped so that the two scored qubits are the
last two axes) and any stack of analyzer-angle pairs.  It does so in
closed form, with elementwise arithmetic on the four entries of each
pair matrix: no scoring call uses a matmul, so no score depends on the
BLAS library.  An exact
correlation is the signed sum P(+,+) - P(+,-) - P(-,+) + P(-,-)
(``_correlations``): by construction the zero-error, infinite-shot limit
of ``sample_correlation``.  ``correlation`` and ``bs_value`` are its
one-state case, and the selftest scores 1000 states at once.

Finite-statistics estimates add an independent symmetric bit-flip error
per qubit to that readout; the shots are independent, so the count of
odd-parity shots is drawn once from its binomial law.  A sampled
landscape computes the outcome probabilities of all its rows at once and
draws every row's counts, in row order, from one stream per run,
``default_rng(SeedSequence(seed))``: runs at different seeds share no
draws, but a row's draws depend on the rows before it.  The exact
landscape is one outer product of a per-omega and a per-vartheta factor.
Both landscapes come back as ``Landscape`` columns (omega_T, vartheta,
b_s, violated) in row order, vartheta varying fastest, which
``cli.render_csv`` writes as they are.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .hilbert import StateVector, check_normalized
from .states import pair_target_alpha, pair_target_amplitudes, qubit_layout

__all__ = [
    "AnalyzerSettings",
    "BellResult",
    "MerminResult",
    "correlation",
    "bs_value",
    "bs_landscape",
    "Landscape",
    "check_vartheta",
    "mermin_n",
    "check_shots",
    "check_readout_error",
    "sample_correlation",
    "TSIRELSON_BOUND",
    "CLASSICAL_BOUND",
    "SHOTS_CAP",
]

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
CLASSICAL_BOUND = 2.0


class AnalyzerSettings(NamedTuple):
    """The four analyzer angles (radians) of a spin Bell test."""

    theta1: float
    theta1p: float
    theta2: float
    theta2p: float

    @classmethod
    def from_single_angle(cls, vartheta: float) -> "AnalyzerSettings":
        """Equally spaced chain t1 - t2 = t2 - t1' = t1' - t2' = vartheta."""
        return cls(
            theta1=3.0 * vartheta,
            theta1p=vartheta,
            theta2=2.0 * vartheta,
            theta2p=0.0,
        )


class BellResult(NamedTuple):
    correlations: dict
    b_s: float
    violated: bool


class MerminResult(NamedTuple):
    value: float
    classical_bound: float
    quantum_bound: float
    n_qubits: int


def _qubit_label(state: StateVector, index: int) -> str:
    factors = state.layout.factors
    if not 0 <= index < len(factors):
        raise IndexError(f"qubit index {index} out of range")
    label, dim = factors[index]
    if dim != 2:
        raise ValueError(f"factor {label!r} has dimension {dim}, not a qubit")
    return label


def _pair_matrices(state: StateVector, i: int, j: int) -> np.ndarray:
    """The amplitudes as a stack of 2x2 matrices, rows for qubit i, columns for qubit j.

    A local operator pair then acts as op_i m op_j^T, without any
    full-space matrix.  The state must be normalized and i, j two
    distinct qubits.
    """
    check_normalized(state.amplitudes)
    if i == j:
        raise ValueError(f"a pair needs two distinct qubits, got i = j = {i}")
    _qubit_label(state, i)
    _qubit_label(state, j)
    psi = state.amplitudes.reshape(state.layout.dims)
    return np.moveaxis(psi, (i, j), (-2, -1)).reshape(-1, 2, 2)


def _correlations(m: np.ndarray, theta_i, theta_j) -> np.ndarray:
    """E(theta_i, theta_j) of a stack of states, from the outcome probabilities of all settings at once.

    ``m`` is (n, r, 2, 2): n states, each given by its r pair matrices
    from ``_pair_matrices``.  ``theta_i`` and ``theta_j`` broadcast to
    (n, k); a (k,) array gives every state the same k settings.  Entry
    (s, c) is P(+,+) - P(+,-) - P(-,+) + P(-,-) for the settings c of
    state s, the mean of the outcome product that ``sample_correlation``
    estimates from these same probabilities.
    """
    probs = _outcome_probabilities(m[:, None], theta_i, theta_j)
    # the outcome product is +1 for (+,+) and (-,-), -1 for (+,-) and (-,+)
    return (probs[..., 0] + probs[..., 3]) - (probs[..., 1] + probs[..., 2])


_BS_TERMS = (("theta1", "theta2"), ("theta1", "theta2p"), ("theta1p", "theta2"), ("theta1p", "theta2p"))


def _bs_scores(m: np.ndarray, angles) -> tuple[np.ndarray, np.ndarray]:
    """The four B_S correlations (n, 4) and B_S (n,) of a stack of states, in one kernel call.

    ``angles`` is (4,) or (n, 4) in the field order of ``AnalyzerSettings``
    (theta1, theta1p, theta2, theta2p); the correlations come in the order
    of ``_BS_TERMS``.
    """
    t1, t1p, t2, t2p = np.moveaxis(np.asarray(angles, dtype=float), -1, 0)
    e = _correlations(m, np.stack([t1, t1, t1p, t1p], axis=-1), np.stack([t2, t2p, t2, t2p], axis=-1))
    return e, e[:, 0] - e[:, 1] + e[:, 2] + e[:, 3]


def correlation(state: StateVector, i: int, j: int, theta_i: float, theta_j: float) -> float:
    """E(theta_i, theta_j) = <sigma(theta_i)^(i) sigma(theta_j)^(j)>, matrix-free."""
    return float(_correlations(_pair_matrices(state, i, j)[None], [theta_i], [theta_j])[0, 0])


def bs_value(state: StateVector, settings: AnalyzerSettings, i: int = 0, j: int = 1) -> BellResult:
    """The four-correlation spin Bell combination; violated iff |B_S| > 2.

    B_S is not clipped: a state the norm check accepts, of norm up to
    1 + 1e-9, scores up to about 2 sqrt(2) (1 + 2e-9), just above the
    Tsirelson bound, which the selftest checks.
    """
    e, b_s = _bs_scores(_pair_matrices(state, i, j)[None], settings)
    b_s = float(b_s[0])
    corr = dict(zip(_BS_TERMS, e[0].tolist()))
    return BellResult(correlations=corr, b_s=b_s, violated=abs(b_s) > CLASSICAL_BOUND)


class Landscape(NamedTuple):
    """Bell landscape columns in row order, vartheta varying fastest; the field names are the CSV header."""

    omega_T: np.ndarray
    vartheta: np.ndarray
    b_s: np.ndarray
    violated: np.ndarray

    @classmethod
    def of_grid(cls, omega_t_grid: np.ndarray, vartheta_grid: np.ndarray, b_s: np.ndarray) -> "Landscape":
        """The columns of a grid, given B_S in row order; violated iff B_S > 2."""
        b_s, n_om, n_v = b_s.ravel(), len(omega_t_grid), len(vartheta_grid)
        return cls(np.repeat(omega_t_grid, n_v), np.tile(vartheta_grid, n_om), b_s, b_s > CLASSICAL_BOUND)


def check_vartheta(vartheta_grid) -> None:
    """Raise ValueError naming the first vartheta of ``vartheta_grid`` unless it and 3 vartheta are finite.

    A landscape row scores the angles vartheta and 3 vartheta.
    ``bs_landscape`` and ``_sampled_landscape`` check their grid here
    before any draw, and ``config.parse_config`` checks the two ends of the
    ``vartheta`` grid here.
    """
    v = np.asarray(vartheta_grid, dtype=float).ravel()
    with np.errstate(over="ignore"):  # 3 vartheta overflows to inf, which the check names
        bad = ~np.isfinite(3.0 * v)
    if bad.any():
        raise ValueError(f"vartheta and 3 * vartheta must be finite, got vartheta = {float(v[bad][0])!r}")


def bs_landscape(omega_t_grid, vartheta_grid) -> Landscape:
    """Bell-violation landscape over pulse area |Omega| T and analyzer angle.

    For each grid point the pulse family gives the alpha of
    :func:`~zenobell.states.pair_target_alpha`, |alpha| = |sin(|Omega|T/2)|,
    the closed-form correlation E(v, 0) = -|alpha|^2 cos(v) and the reduced
    combination B_S = |3 E(v, 0) - E(3v, 0)| = |alpha|^2 |3 cos(v) - cos(3v)|.
    The alphas and cosines are taken once per grid value and B_S of every
    point is one outer product.  ``vartheta_grid`` is checked by
    :func:`check_vartheta`.
    """
    omega_t_grid, vartheta_grid = np.asarray(omega_t_grid, dtype=float), np.asarray(vartheta_grid, dtype=float)
    if not omega_t_grid.size or not vartheta_grid.size:
        raise ValueError("grids must be nonempty")
    check_vartheta(vartheta_grid)
    alpha_sq = np.array([abs(pair_target_alpha(1.0, om_t)) ** 2 for om_t in omega_t_grid.tolist()])[:, None]
    cos_v = np.array([math.cos(v) for v in vartheta_grid.tolist()])
    cos_3v = np.array([math.cos(3.0 * v) for v in vartheta_grid.tolist()])
    return Landscape.of_grid(omega_t_grid, vartheta_grid, np.abs(3.0 * (-alpha_sq * cos_v) - (-alpha_sq * cos_3v)))


def mermin_n(state: StateVector) -> MerminResult:
    """Generalized Mermin value for N >= 3 qubits, with its two bounds.

    Closed form, O(1) per state: <M_N> = 2 Re(m conj(psi[0...0]) psi[1...1])
    with m = 4 (1 - i)^(N-3), the only nonzero entry of the upper triangle
    of the Mermin-Klyshko operator.  The dense 2^N x 2^N construction of
    that operator, from its recursion, is the test reference
    ``tests/oracles.py::mermin_operator``.  For N = 3 the value is
    |<XXX> - <YYX> - <YXY> - <XYY>|.
    """
    check_normalized(state.amplitudes)
    dims = state.layout.dims
    n = len(dims)
    if n < 3 or any(d != 2 for d in dims):
        raise ValueError("mermin_n needs a state on N >= 3 qubits")
    corner = 4 + 0j
    for _ in range(n - 3):
        corner *= 1 - 1j  # Gaussian integers: every product is exact
    psi = state.amplitudes
    # corner has parts 0 or +-2^k, so corner * psi[-1] rounds at most once
    # per part and the value stays accurate to an ulp even near cancellation
    value = float(abs(2.0 * (psi[0].conjugate() * (corner * psi[-1])).real))
    return MerminResult(
        value=value,
        classical_bound=CLASSICAL_BOUND,
        quantum_bound=2.0 ** ((n + 1) / 2.0),
        n_qubits=n,
    )


def _outcome_probabilities(m: np.ndarray, theta_i, theta_j) -> np.ndarray:
    """Probabilities of the sigma(theta) outcomes (+,+), (+,-), (-,+), (-,-) on a pair, in closed form.

    ``m`` is (..., r, 2, 2): the pair matrices of one state, or a stack
    of states.  The angles broadcast against ``m.shape[:-3]``, and the
    result has shape (..., 4).  With <+-theta| = (1, +-p) / sqrt(2) and
    p = exp(-i theta), outcome (s, t) has amplitude
    (m00 + s p_i m10 + t p_j (m01 + s p_i m11)) / 2 on each pair matrix,
    and its probability sums |amplitude|^2 over the r matrices:
    elementwise arithmetic, no matmul.  Every score and sample reads its
    angles here, so this is where a non-finite angle is refused.
    """
    theta_i, theta_j = np.asarray(theta_i, dtype=float), np.asarray(theta_j, dtype=float)
    angles = np.concatenate((theta_i, theta_j), axis=None)
    if not (finite := np.isfinite(angles)).all():
        raise ValueError(f"analyzer angle must be finite, got {angles[~finite][0]}")
    p_i = np.exp(-1j * theta_i)[..., None]
    p_j = np.exp(-1j * theta_j)[..., None]
    m00, m01, p_m10, p_m11 = m[..., 0, 0], m[..., 0, 1], p_i * m[..., 1, 0], p_i * m[..., 1, 1]
    rows = (m00 + p_m10, m00 - p_m10)
    cols = (p_j * (m01 + p_m11), p_j * (m01 - p_m11))
    amps = [amp for row, col in zip(rows, cols) for amp in (row + col, row - col)]
    return np.stack([np.sum(a.real**2 + a.imag**2, axis=-1) for a in amps], axis=-1) / 4.0


def _odd_parity_probability(probs: np.ndarray, readout_error: float) -> np.ndarray:
    """p' = p (1 - q) + (1 - p) q, the chance that a shot records an odd parity.

    p = P(+,-) + P(-,+) from the outcome probabilities (last axis) and
    q = 2 eps (1 - eps), the chance that the two readout flips change
    the parity; p' is kept inside [0, 1].
    """
    # outcomes 1 = (+,-) and 2 = (-,+) are the ones with product -1
    p = (probs[..., 1] + probs[..., 2]) / probs.sum(axis=-1)
    q = 2.0 * readout_error * (1.0 - readout_error)
    return np.clip(p * (1.0 - q) + (1.0 - p) * q, 0.0, 1.0)


# Most shots per sampled correlation, the same budget as the trajectory
# count of a trajectories row.  A correlation is one binomial draw at any
# shot count; the cap keeps the count one that a draw accepts: numpy's
# Generator.binomial raises OverflowError at 2^63 shots, which would end a
# run in a traceback.
SHOTS_CAP = 10**7


def check_shots(shots) -> None:
    """Raise ValueError naming ``shots`` unless it is an integer shot count in [1, ``SHOTS_CAP``].

    A bool is no count.  ``sample_correlation`` and ``_sampled_landscape``
    check their count here before any draw, and ``config.parse_config``
    checks the ``shots`` key here.
    """
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if shots > SHOTS_CAP:
        raise ValueError(f"shots = {shots} exceeds the limit of {SHOTS_CAP} per correlation")


def check_readout_error(readout_error) -> None:
    """Raise ValueError unless the readout flip probability ``readout_error`` lies in [0, 0.5).

    At 0.5 every recorded outcome is a coin toss.  ``sample_correlation``
    and ``_sampled_landscape`` check it here once per call, before any
    draw, and ``config.parse_config`` checks the ``readout_error`` key here.
    """
    if not 0.0 <= readout_error < 0.5:
        raise ValueError(f"readout_error must lie in [0, 0.5), got {readout_error}")


def sample_correlation(
    state: StateVector,
    i: int,
    j: int,
    theta_i: float,
    theta_j: float,
    shots: int,
    seed,
    readout_error: float = 0.0,
) -> tuple[float, float]:
    """Finite-shot estimate of E(theta_i, theta_j) with noisy readout.

    Each shot projects both qubits onto the sigma(theta) eigenbasis and
    multiplies the two +-1 outcomes; each recorded outcome is flipped
    independently with probability ``readout_error``, so the estimator
    converges to (1 - 2 eps)^2 E.  Returns (estimate, stderr) with
    stderr the sample standard deviation over sqrt(shots) (zero for a
    single shot).  Deterministic for a fixed seed.  ``shots`` and
    ``readout_error`` are checked by :func:`check_shots` and
    :func:`check_readout_error` before the first draw.

    A shot has odd recorded parity with probability
    p' = p (1 - q) + (1 - p) q, where p = P(+,-) + P(-,+) comes from the
    closed-form outcome probabilities of the state's pair matrices and
    q = 2 eps (1 - eps) is the chance that the two flips change the
    parity.  The shots are independent, so the odd count is one draw
    ``binomial(shots, p')`` and the cost does not depend on ``shots``.
    ``seed`` is anything ``np.random.default_rng`` accepts: an integer, a
    ``SeedSequence``, or a ``Generator``, which is used and advanced in
    place, so several calls can take their draws in turn from one stream.
    """
    check_shots(shots)
    check_readout_error(readout_error)

    probs = _outcome_probabilities(_pair_matrices(state, i, j), theta_i, theta_j)
    n_odd = int(np.random.default_rng(seed).binomial(shots, _odd_parity_probability(probs, readout_error)))
    estimate = (shots - 2 * n_odd) / shots
    if shots == 1:
        return estimate, 0.0
    stderr = math.sqrt((1.0 - estimate**2) * shots / (shots - 1)) / math.sqrt(shots)
    return estimate, stderr


def landscape_state(omega_t: float) -> StateVector:
    """The one-row, two-qubit :func:`~zenobell.states.pair_target_amplitudes` of a unit pulse of area ``omega_t``."""
    return StateVector(qubit_layout(2), pair_target_amplitudes([1.0], [omega_t])[0])


# Rows whose outcome probabilities are stacked in one call.  The stack
# holds about 0.5 kB of temporaries per row, so a block stays near 8 MB
# however large the grid; the default 101 x 101 grid is one block.
_LANDSCAPE_BLOCK = 2**14


def _sampled_landscape(omega_t_grid, vartheta_grid, shots: int, seed, readout_error: float) -> Landscape:
    """``bs_landscape`` with B_S = |3 e(v) - e(3v)| estimated from ``shots`` shots each.

    A run draws from one stream, ``default_rng(seed)``: ``seed`` is
    anything ``default_rng`` accepts, and the scenario runner passes the
    run's ``default_rng(SeedSequence(seed))``.  The outcome probabilities
    of a block of up to ``_LANDSCAPE_BLOCK`` rows come from one stacked
    ``_outcome_probabilities`` call, and the block's odd-parity counts,
    binomial(shots, [p'(v), p'(3v)]) per row, from one ``binomial`` call
    in row order (vartheta varying fastest).  An array draw takes the
    same numbers from the stream as scalar draws in turn, so row k equals
    two ``sample_correlation`` calls that continue the stream where row
    k - 1 left it, whatever the block size.  ``vartheta_grid`` is checked by
    :func:`check_vartheta` before the first draw.
    """
    check_vartheta(vartheta_grid)
    check_shots(shots)
    check_readout_error(readout_error)
    omega_t_grid, v = np.asarray(omega_t_grid, dtype=float), np.asarray(vartheta_grid, dtype=float)
    # the landscape states of every omega at once, each the (1, 2, 2) pair
    # matrices that _pair_matrices gives its landscape_state
    amps = pair_target_amplitudes([1.0] * len(omega_t_grid), omega_t_grid.tolist())
    check_normalized(amps)
    m = amps.reshape(-1, 1, 2, 2)
    n_v, n_rows = len(v), len(m) * len(v)
    rng = np.random.default_rng(seed)
    b_s = np.empty(n_rows)
    for start in range(0, n_rows, _LANDSCAPE_BLOCK):
        k = np.arange(start, min(start + _LANDSCAPE_BLOCK, n_rows))
        angles = np.stack([v[k % n_v], 3.0 * v[k % n_v]], axis=-1)
        probs = _outcome_probabilities(m[k // n_v, None], angles, 0.0)
        e = (shots - 2 * rng.binomial(shots, _odd_parity_probability(probs, readout_error))) / shots
        b_s[k] = np.abs(3.0 * e[:, 0] - e[:, 1])
    return Landscape.of_grid(omega_t_grid, v, b_s)
