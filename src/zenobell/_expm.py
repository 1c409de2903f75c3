"""Matrix exponential of a stack of matrices, with numpy calls only.

Scaling and squaring with a diagonal Pade approximant (Higham, SIAM J.
Matrix Anal. Appl. 26, 1179 (2005)).  Each slice gets its own Pade degree
m in {3, 5, 7, 9, 13} and scaling exponent s from its 1-norm.  For m = 13
the even powers A^2, A^4, A^6 are formed from the unscaled matrix and then
scaled by 2^-2s, 2^-4s, 2^-6s (Al-Mohy and Higham, SIAM J. Matrix Anal.
Appl. 31, 970 (2009)), as in ``scipy.linalg.expm``: a slice whose powers
overflow comes back non-finite, never silently as zeros.

A diagonal slice is exponentiated entry by entry, exactly, as scipy does.
Every product and solve is a numpy call broadcast over the stack, which
works slice by slice, so a slice's result does not depend on the other
slices of its stack: a (d, d) call equals the matching slice of a stacked
call bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["expm"]

# Largest 1-norm for which each degree is accurate to double precision
# (Higham 2005, Table 2.3).
_THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1, 2.097847961257068, 5.371920351148152])
_DEGREES = (3, 5, 7, 9, 13)
# Coefficients b_0 .. b_m of the numerator p_m(x); the denominator is p_m(-x).
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
        129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
        1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
    ),
}


def expm(a) -> np.ndarray:
    """exp(a) of a (d, d) matrix or of each slice of an (n, d, d) stack (float or complex)."""
    a = np.asarray(a)
    if a.ndim == 2:
        return expm(a[None])[0]
    diagonal = np.count_nonzero(a, axis=(1, 2)) == np.count_nonzero(np.diagonal(a, axis1=1, axis2=2), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(a).sum(axis=1).max(axis=1, initial=0.0)
        # group 0: diagonal slices, exp of each entry; group k: Pade degree _DEGREES[k - 1]
        group = np.where(diagonal, 0, 1 + np.minimum(np.searchsorted(_THETA, norm), len(_DEGREES) - 1))
        # beyond theta_13, halve until it is reached; a non-finite norm is left to the arithmetic
        over = ~diagonal & np.isfinite(norm) & (norm > _THETA[-1])
        s = np.zeros(len(a), dtype=int)
        s[over] = np.ceil(np.log2(norm[over] / _THETA[-1]))
        # most squarings first, so that each round of squaring works on a
        # prefix of the stack; the slices of one group are contiguous too
        order = np.argsort(-(s * (len(_DEGREES) + 1) + group), kind="stable")
        a, group, s = a[order], group[order], s[order]
        r = np.zeros_like(a)
        ends = np.cumsum(np.bincount(group, minlength=len(_DEGREES) + 1)[::-1]).tolist()
        start = 0
        for k, stop in zip(range(len(_DEGREES), -1, -1), ends):
            if k == 0:
                entries = np.arange(a.shape[-1])
                r[start:stop, entries, entries] = np.exp(a[start:stop, entries, entries])
            elif stop > start:
                u, v = _pade_terms(a[start:stop], _DEGREES[k - 1], s[start:stop])
                r[start:stop] = np.linalg.solve(v - u, v + u)
            start = stop
        # round j squares the slices with s > j
        for n in np.count_nonzero(s[:, None] > np.arange(s.max(initial=0)), axis=0).tolist():
            r[:n] = r[:n] @ r[:n]
    out = np.empty_like(r)
    out[order] = r
    return out


def _pade_terms(a: np.ndarray, m: int, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Odd and even parts U, V of p_m(2^-s a) for each slice; r_m = (V - U)^-1 (V + U).

    Scales ``a`` in place.
    """
    b = _PADE[m]
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    a2 = a @ a
    if m < 13:
        # s = 0 up to theta_9; the even powers I, A^2, ..., A^(m-1)
        powers = [eye, a2]
        while len(powers) < (m + 1) // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
        v = sum(b[2 * k] * p for k, p in enumerate(powers))
        return u, v
    a4 = a2 @ a2
    a6 = a4 @ a2
    scale = s[:, None, None]
    a *= np.ldexp(1.0, -scale)
    a2 *= np.ldexp(1.0, -2 * scale)
    a4 *= np.ldexp(1.0, -4 * scale)
    a6 *= np.ldexp(1.0, -6 * scale)
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    return u, v
