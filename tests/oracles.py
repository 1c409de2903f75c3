"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the code paths of the package under
test: embedding is done by index arithmetic instead of Kronecker
products, time evolution by an adaptive step-halving Runge-Kutta
integrator instead of a matrix exponential, Pauli-string expectations
by explicit bit manipulation, a two-qubit correlation by the one-state
matrix product the package used before it scored stacks of states, the Mermin operator by its dense
recursion instead of the package's closed form, the projected
decoherence-free-subspace dynamics and the lossy band-gap exchange by
closed forms, finite-shot
readout by simulating every shot instead of drawing the odd-parity
count from its binomial law, the N-atom weak-pulse target by its closed
form written level by level instead of from ``states``, the drive
terms of a Hamiltonian stack on the full space instead of on the block
of states asked for, the
scores of a run record one state at a time with ``np.vdot`` instead of
stacked dot products, and the jump sampler's no-jump survival by RK4
half steps one at a time instead of a stack of polynomial powers.

It also holds the test-side algebra of the spin analyzers: the Pauli
matrices ``SIGMA_X``, ``SIGMA_Y`` and ``SIGMA_Z`` and the analyzer
observable ``sigma_theta``, from which the dense checks of the package's
matrix-free Bell scores are built.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from zenobell.hilbert import OperatorMatrix, StateVector

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_X.setflags(write=False)
SIGMA_Y.setflags(write=False)
SIGMA_Z.setflags(write=False)


def sigma_theta(theta) -> np.ndarray:
    """cos(theta) sigma_x + sin(theta) sigma_y; Hermitian, eigenvalues +-1.

    An array of angles gives the stack of these matrices, one per angle.
    """
    theta = np.asarray(theta, dtype=float)[..., None, None]
    return np.cos(theta) * SIGMA_X + np.sin(theta) * SIGMA_Y


def embed_by_index(local: np.ndarray, axis: int, dims) -> np.ndarray:
    """Identity-padded embedding built entry by entry from multi-indices."""
    dims = tuple(dims)
    total = int(np.prod(dims))
    out = np.zeros((total, total), dtype=complex)

    def unravel(flat):
        occ = []
        for d in reversed(dims):
            occ.append(flat % d)
            flat //= d
        return tuple(reversed(occ))

    def ravel(occ):
        flat = 0
        for n, d in zip(occ, dims):
            flat = flat * d + n
        return flat

    for col in range(total):
        occ = unravel(col)
        for row_level in range(dims[axis]):
            amp = local[row_level, occ[axis]]
            if amp != 0:
                row_occ = list(occ)
                row_occ[axis] = row_level
                out[ravel(row_occ), col] += amp
    return out


def conditional_hamiltonian(spec, drive) -> np.ndarray:
    """The conditional Hamiltonian of ``spec`` under ``drive``, summed term by term.

    Terms are added in the order cavity coupling and Gamma per atom, then
    each laser of ``drive``, then kappa, with every operator embedded
    by index arithmetic; the package instead adds the lasers to a
    precomputed rest, for a whole stack of drives at once.
    """
    levels, dims = spec.atom_levels, spec.layout().dims
    cav_axis = len(dims) - 1
    b = np.zeros((dims[cav_axis],) * 2, dtype=complex)
    for n in range(1, dims[cav_axis]):
        b[n - 1, n] = math.sqrt(n)
    b_full = embed_by_index(b, cav_axis, dims)

    def raising(trans):
        lo, up = (int(x) for x in trans.split("-"))
        op = np.zeros((levels, levels), dtype=complex)
        op[up, lo] = 1.0
        return op

    cavity_transition, excited = ("0-1", 1) if levels == 2 else ("1-2", 2)
    proj_exc = np.zeros((levels, levels), dtype=complex)
    proj_exc[excited, excited] = 1.0
    h = np.zeros(b_full.shape, dtype=complex)
    for axis in range(spec.n_atoms):
        coupling = b_full @ embed_by_index(raising(cavity_transition), axis, dims)
        h += 1j * spec.g * (coupling - coupling.conj().T)
        h += -1j * spec.gamma * embed_by_index(proj_exc, axis, dims)
    for (atom, trans), omega in drive.items():
        s_plus = embed_by_index(raising(trans), atom - 1, dims)
        omega = complex(omega)
        h += 0.5 * (omega * s_plus + np.conj(omega) * s_plus.conj().T)
    h += -1j * spec.kappa * (b_full.conj().T @ b_full)
    return h


def dense_drive_stack(family, drives) -> np.ndarray:
    """H0_s + sum_k (w_k S_k + conj(w_k) S_k^dag) / 2 for each system s and drive: a dense (S * n, d, d) array.

    Every term is a dense array; slice s * n + j is drive j on system s,
    system-major.
    """
    h = np.repeat(family.h0, len(drives), axis=0)
    for key, s_plus in zip(family.keys, family.raising):
        w = np.tile([complex(drive[key]) for drive in drives], len(family.h0))[:, None, None]
        h += 0.5 * (w * s_plus + np.conj(w) * s_plus.conj().T)
    return h


def run_record_scores(amplitudes: np.ndarray, target: np.ndarray, a_vec=None):
    """(p0, fidelity, alpha) of one final state, one ``np.vdot`` at a time.

    p0 = ||psi||^2, the fidelity |<target|psi>|^2 / <psi|psi> clipped to
    [0, 1], and the achieved alpha <a|psi> / ||psi|| (None without ``a_vec``).
    """
    norm = float(np.linalg.norm(amplitudes))
    n2 = float(np.vdot(amplitudes, amplitudes).real)
    fid = float(min(max(abs(np.vdot(target, amplitudes)) ** 2 / n2, 0.0), 1.0))
    alpha = None if a_vec is None else complex(np.vdot(a_vec, amplitudes) / norm)
    return norm**2, fid, alpha


def entangled_pair_by_levels(alpha: complex, layout) -> np.ndarray:
    """alpha |a> + sqrt(1 - |alpha|^2) |00> written level by level into a zero vector."""
    alpha = complex(alpha)
    others = (0,) * (len(layout.factors) - 2)
    s = 1.0 / math.sqrt(2.0)
    amps = np.zeros(layout.total_dim, dtype=complex)
    amps[layout.basis_index((1, 0, *others))] += alpha * s
    amps[layout.basis_index((0, 1, *others))] += -alpha * s
    amps[layout.basis_index((0, 0, *others))] += math.sqrt(max(0.0, 1.0 - abs(alpha) ** 2))
    return amps


def single_excitation_pulse(c, area: float, n_max: int) -> np.ndarray:
    """cos(area/2) |0...0>|0> - i sin(area/2) sum_i c_i |1_i>|0>, written level by level into a zero vector.

    The weak-pulse closed form on N = len(c) two-level atoms and a cavity
    of ``n_max`` photons, for lasers Omega_- c_i with sum_i c_i = 0 and
    |c| = 1 at area = |Omega_-| T.  The cos keeps its sign: it is negative
    for areas in (pi, 3 pi).
    """
    c = np.asarray(c, dtype=float)
    amps = np.zeros((2,) * c.size + (n_max + 1,), dtype=complex)
    amps[(0,) * (c.size + 1)] = math.cos(area / 2.0)
    for i, ci in enumerate(c):
        levels = [0] * (c.size + 1)
        levels[i] = 1
        amps[tuple(levels)] = -1j * math.sin(area / 2.0) * ci
    return amps.reshape(-1)


def integrate_schrodinger(h: np.ndarray, psi0: np.ndarray, t: float, local_tol: float = 1e-12) -> np.ndarray:
    """Adaptive RK4 with step halving for d psi/dt = -i H psi."""

    def deriv(psi):
        return -1j * (h @ psi)

    def rk4(psi, dt):
        k1 = deriv(psi)
        k2 = deriv(psi + 0.5 * dt * k1)
        k3 = deriv(psi + 0.5 * dt * k2)
        k4 = deriv(psi + dt * k3)
        return psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    psi = np.array(psi0, dtype=complex)
    if t == 0.0:
        return psi
    hnorm = float(np.linalg.norm(h, 2))
    dt = min(t, 0.5 / hnorm) if hnorm > 0 else t
    remaining = t
    while remaining > 1e-14 * t:
        step = min(dt, remaining)
        coarse = rk4(psi, step)
        mid = rk4(psi, 0.5 * step)
        fine = rk4(mid, 0.5 * step)
        err = np.linalg.norm(coarse - fine) / max(np.linalg.norm(fine), 1e-300)
        if err <= local_tol:
            psi = fine + (fine - coarse) / 15.0
            remaining -= step
            growth = 0.9 * (local_tol / max(err, 1e-300)) ** 0.2
            dt = step * min(2.0, max(0.5, growth))
        else:
            dt = step * max(0.1, 0.9 * (local_tol / err) ** 0.2)
    return psi


def pauli_string_expectation(amplitudes: np.ndarray, letters: str) -> float:
    """<psi| P |psi> for a string of X/Y, computed by bit flipping.

    X |b> = |1-b>;  Y |0> = i |1>, Y |1> = -i |0>.
    """
    n = len(letters)
    assert amplitudes.size == 2**n
    total = 0.0 + 0.0j
    for col in range(2**n):
        phase = 1.0 + 0.0j
        row = 0
        for k, ch in enumerate(letters):
            bit = (col >> (n - 1 - k)) & 1
            new_bit = 1 - bit
            if ch == "Y":
                phase *= 1j if bit == 0 else -1j
            row = (row << 1) | new_bit
        total += np.conj(amplitudes[row]) * phase * amplitudes[col]
    assert abs(total.imag) < 1e-10
    return float(total.real)


def pair_correlation_vdot(amplitudes: np.ndarray, dims, i: int, j: int, theta_i: float, theta_j: float) -> float:
    """E(theta_i, theta_j) of one state by the one-state formula, one angle pair at a time.

    The amplitudes are reshaped into the pair matrices m (rows for qubit
    i, columns for qubit j, one matrix per state of the other factors) and
    E = vdot(m, s_i @ m @ s_j.T), with s = cos(theta) X + sin(theta) Y
    built from ``math`` trigonometry; ``zenobell.bell`` scores stacks of
    states and angle pairs in one batched product instead.
    """

    def sigma(theta):
        return math.cos(theta) * SIGMA_X + math.sin(theta) * SIGMA_Y

    psi = np.asarray(amplitudes).reshape(tuple(dims))
    m = np.moveaxis(psi, (i, j), (-2, -1)).reshape(-1, 2, 2)
    value = complex(np.vdot(m, sigma(theta_i) @ m @ sigma(theta_j).T))
    assert abs(value.imag) <= 1e-12
    return value.real


def mermin_operator(n: int) -> np.ndarray:
    """The N-qubit Mermin combination as a dense 2^N x 2^N matrix.

    Built from the Mermin-Klyshko recursion
    M_k = (M_{k-1} (X + Y) + M'_{k-1} (X - Y)) / 2, where the prime swaps
    X and Y everywhere, then rescaled to -2 M'_N so that the classical
    bound is 2 for every N and N = 3 reproduces
    XXX - YYX - YXY - XYY exactly.  The quantum bound is 2^{(N+1)/2}.

    The result is m |0...0><1...1| + conj(m) |1...1><0...0| with
    m = 4 (1 - i)^(N-3); ``zenobell.bell.mermin_n`` uses that closed form,
    and this dense construction stays as its definition and reference.
    """
    if n < 3:
        raise ValueError("mermin_operator needs at least 3 qubits")
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    m, ms = x, y
    plus, minus = x + y, x - y
    for _ in range(n - 1):
        m_new = 0.5 * (np.kron(m, plus) + np.kron(ms, minus))
        ms_new = 0.5 * (np.kron(ms, plus) - np.kron(m, minus))
        m, ms = m_new, ms_new
    return -2.0 * ms


def lhv_spin_bell_max() -> float:
    """Largest |E11 - E12' + E1'2 + E1'2'| over deterministic strategies."""
    best = 0.0
    for a in (-1, 1):
        for ap in (-1, 1):
            for b in (-1, 1):
                for bp in (-1, 1):
                    best = max(best, abs(a * b - a * bp + ap * b + ap * bp))
    return best


def three_level_rabi_amplitudes(omega: float, t: float) -> tuple[complex, complex, complex]:
    """Closed-form evolution in the span {|10>, |a>, |11>} of the CNOT drive.

    The projected coupling (Omega/2) (|10><a| - |a><11| + h.c.) has
    eigenvalues 0 and +- Omega/sqrt(2); starting from |10> the
    amplitudes are

        a_10(t) = (1 + cos(w t)) / 2
        a_a(t)  = -i sin(w t) / sqrt(2)
        a_11(t) = (1 - cos(w t)) / 2        with w = Omega / sqrt(2).
    """
    w = omega / np.sqrt(2.0)
    return (
        complex(0.5 * (1.0 + np.cos(w * t))),
        complex(-1j * np.sin(w * t) / np.sqrt(2.0)),
        complex(0.5 * (1.0 - np.cos(w * t))),
    )


def damped_pair_amplitudes(omega: complex, gamma: float, t: float) -> tuple[complex, complex]:
    """Closed-form pair-preparation dynamics in {|00>, |a>} with |a> damped at Gamma.

    The projected conditional Hamiltonian on (|00>, |a>) is

        [[0, conj(Omega)/2], [Omega/2, -i Gamma]]

    with eigenvalues (-i Gamma +- sqrt(|Omega|^2 - Gamma^2)) / 2.  Writing
    w = sqrt(|Omega|^2 - Gamma^2) / 2 (imaginary when Gamma > |Omega|),
    the unnormalized amplitudes after a time t from |00> are

        c_00(t) = e^{-Gamma t/2} (cos(w t) + (Gamma/2) sin(w t)/w)
        c_a(t)  = -i (Omega/2) e^{-Gamma t/2} sin(w t)/w

    with sin(w t)/w -> t at the exceptional point w = 0.  Leakage out of
    the subspace is not modeled.
    """
    om = complex(omega)
    w = cmath.sqrt(abs(om) ** 2 - gamma**2) / 2.0
    sinc_t = t if w == 0 else cmath.sin(w * t) / w
    damp = math.exp(-gamma * t / 2.0)
    return damp * (cmath.cos(w * t) + 0.5 * gamma * sinc_t), -0.5j * om * damp * sinc_t


def lossy_exchange_amplitudes(g: float, loss: float, t: float) -> tuple[float, float]:
    """Closed-form band-gap exchange from |e, 0> with the defect-mode amplitude damped at ``loss``.

    On (|e 0>, |g 1>) the amplitudes obey c_e' = g c_g and
    c_g' = -g c_e - loss c_g.  Below critical damping, loss < 2 g, with
    w = sqrt(g^2 - loss^2 / 4),

        c_e(t) = e^{-loss t/2} (cos(w t) + (loss / (2 w)) sin(w t))
        c_g(t) = -(g / w) e^{-loss t/2} sin(w t)

    and at loss = 0 they are (cos(g t), -sin(g t)).
    """
    w = math.sqrt(g * g - loss * loss / 4.0)
    damp = math.exp(-loss * t / 2.0)
    return damp * (math.cos(w * t) + loss / (2.0 * w) * math.sin(w * t)), -g / w * damp * math.sin(w * t)


def damped_cnot_amplitudes(omega: float, gamma: float, t: float, start: str) -> tuple[complex, complex, complex]:
    """Closed-form CNOT-pulse dynamics in {|10>, |a>, |11>} with |a> damped at Gamma.

    The projected coupling (Omega/2) (|10><a| - |a><11| + h.c.) - i Gamma |a><a|
    leaves the dark state (|10> + |11>)/sqrt(2) untouched, while the bright
    state |b> = (|10> - |11>)/sqrt(2) couples to |a> with strength
    Omega/sqrt(2): the pair problem of ``damped_pair_amplitudes`` with
    Omega -> sqrt(2) Omega.  From |10> = (|d> + |b>)/sqrt(2) or
    |11> = (|d> - |b>)/sqrt(2) (``start`` "10" or "11") the unnormalized
    amplitudes (a_10, a_a, a_11) follow; at Gamma = 0 and start "10" they
    are those of ``three_level_rabi_amplitudes``.
    """
    if start not in ("10", "11"):
        raise ValueError(f"start must be '10' or '11', got {start!r}")
    c_b, c_a = damped_pair_amplitudes(math.sqrt(2.0) * omega, gamma, t)
    sign = 1.0 if start == "10" else -1.0
    return 0.5 * (1.0 + sign * c_b), sign * c_a / math.sqrt(2.0), 0.5 * (1.0 - sign * c_b)


def fourth_order_survival_chain(h: np.ndarray, ls, psi0: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
    """No-jump survival of the fourth-order chain, one half step at a time.

    The literal per-step loop: each step takes two classical RK4 half
    steps of d psi/dt = -i H psi (on this linear equation, the
    fourth-order Taylor polynomial of exp(-i H dt / 2)), renormalizing
    after each, and adds dt/6 (r_start + 4 r_mid + r_end) to the exponent,
    with r = sum_j ||L_j psi||^2 on the normalized state.  Returns
    exp(-exponent) after m = 0 ... n_steps steps.
    """

    def deriv(psi):
        return -1j * (h @ psi)

    def rate(psi):
        return sum(float(np.linalg.norm(l_op @ psi) ** 2) for l_op in ls)

    half = 0.5 * dt
    integrals = np.zeros(n_steps)
    psi = np.array(psi0, dtype=complex)
    for step in range(n_steps):
        rates = [rate(psi)]
        for _ in range(2):
            k1 = deriv(psi)
            k2 = deriv(psi + 0.5 * half * k1)
            k3 = deriv(psi + 0.5 * half * k2)
            k4 = deriv(psi + half * k3)
            psi = psi + (half / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            psi /= np.linalg.norm(psi)
            rates.append(rate(psi))
        integrals[step] = dt / 6.0 * (rates[0] + 4.0 * rates[1] + rates[2])
    return np.exp(-np.concatenate(([0.0], np.cumsum(integrals))))


def per_shot_odd_count(probs, shots: int, seed, readout_error: float = 0.0) -> int:
    """Odd-parity shots of a two-qubit readout, simulated one shot at a time.

    ``probs`` are the probabilities of the outcomes (+,+), (+,-), (-,+),
    (-,-).  Each shot draws its outcome from the cdf of
    ``Generator.choice(4, size=shots, p=probs)``; then each qubit's
    recorded outcome flips with probability ``readout_error``.
    """
    probs = np.asarray(probs, dtype=float)
    cdf = np.cumsum(probs / probs.sum())
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    u = rng.random(shots)
    # outcomes 1 = (+,-) and 2 = (-,+) are the ones with product -1
    odd = (u >= cdf[0]) & (u < cdf[2])
    odd ^= rng.random(shots) < readout_error
    odd ^= rng.random(shots) < readout_error
    return int(np.count_nonzero(odd))


def apply(op: OperatorMatrix, psi: StateVector) -> StateVector:
    """op |psi> as a state on the same layout."""
    if op.layout != psi.layout:
        raise ValueError("operator and state live on different layouts")
    return StateVector(psi.layout, op.entries @ psi.amplitudes)


def csv_cell(value) -> str:
    """The CSV text of one Python value: true/false, ``str`` of an int, 9 significant digits of a float."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def render_csv_by_value(header, rows) -> str:
    """A CSV table formatted one Python value at a time, row by row."""
    lines = [",".join(header)]
    lines.extend(",".join(map(csv_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"
