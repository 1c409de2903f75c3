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
        # prefix of the stack; the slices of one group are contiguous too.
        # Each group's slices of the sorted copy r are overwritten by their
        # exponentials.
        order = np.argsort(-(s * (len(_DEGREES) + 1) + group), kind="stable")
        r, group, s = a[order], group[order], s[order]
        ends = np.cumsum(np.bincount(group, minlength=len(_DEGREES) + 1)[::-1]).tolist()
        start = 0
        for k, stop in zip(range(len(_DEGREES), -1, -1), ends):
            block = r[start:stop]
            if k == 0:
                entries = np.arange(a.shape[-1])
                diagonals = np.exp(block[:, entries, entries])
                block[...] = 0
                block[:, entries, entries] = diagonals
            elif stop > start:
                q, p = _pade_terms(block, _DEGREES[k - 1], s[start:stop])
                block[...] = np.linalg.solve(q, p)
            start = stop
        # round j squares the slices with s > j, through one product buffer
        rounds = np.count_nonzero(s[:, None] > np.arange(s.max(initial=0)), axis=0).tolist()
        if rounds:
            product = np.empty_like(r[: rounds[0]])
            for n in rounds:
                np.matmul(r[:n], r[:n], out=product[:n])
                r[:n] = product[:n]
    out = np.empty_like(r)
    out[order] = r
    return out


def _add_terms(acc: np.ndarray, terms, scratch: np.ndarray) -> None:
    """acc += c * p for each (c, p) of ``terms`` in turn, each product formed in ``scratch``."""
    for c, p in terms:
        np.multiply(c, p, out=scratch)
        acc += scratch


def _pade_terms(a: np.ndarray, m: int, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V - U and V + U for the odd and even parts U, V of p_m(2^-s a) of each slice; r_m = (V - U)^-1 (V + U).

    Scales ``a`` in place, then uses it as a work buffer.  The sums and
    products are those of U = a (b_1 I + b_3 A^2 + ...) and
    V = b_0 I + b_2 A^2 + ..., and for m = 13 of
    U = a (A^6 (b_13 A^6 + b_11 A^4 + b_9 A^2) + b_7 A^6 + ... + b_1 I)
    and V alike, in that order, so each entry has the bits of those
    expressions; they are evaluated into the powers of a and two more
    buffers, and V - U and V + U into two of them.
    """
    b = _PADE[m]
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    a2 = a @ a
    acc, scratch = np.empty_like(a), np.empty_like(a)
    if m < 13:
        # s = 0 up to theta_9; the even powers A^2, ..., A^(m-1)
        powers = [a2]
        while len(powers) < (m - 1) // 2:
            powers.append(powers[-1] @ a2)
        np.multiply(b[3], a2, out=acc)
        acc += b[1] * eye
        _add_terms(acc, zip(b[5::2], powers[1:]), scratch)
        u = np.matmul(a, acc, out=scratch)
        np.multiply(b[2], a2, out=acc)
        acc += b[0] * eye
        _add_terms(acc, zip(b[4::2], powers[1:]), a)
        v = acc
    else:
        a4 = a2 @ a2
        a6 = a4 @ a2
        scale = s[:, None, None]
        a *= np.ldexp(1.0, -scale)
        a2 *= np.ldexp(1.0, -2 * scale)
        a4 *= np.ldexp(1.0, -4 * scale)
        a6 *= np.ldexp(1.0, -6 * scale)
        np.multiply(b[13], a6, out=acc)
        _add_terms(acc, [(b[11], a4), (b[9], a2)], scratch)
        np.matmul(a6, acc, out=scratch)
        _add_terms(scratch, [(b[7], a6), (b[5], a4), (b[3], a2)], acc)
        scratch += b[1] * eye
        u = np.matmul(a, scratch, out=acc)
        # a is spent: it takes the products of V, then V itself
        np.multiply(b[12], a6, out=scratch)
        _add_terms(scratch, [(b[10], a4), (b[8], a2)], a)
        v = np.matmul(a6, scratch, out=a)
        _add_terms(v, [(b[6], a6), (b[4], a4), (b[2], a2)], scratch)
        v += b[0] * eye
    plus = np.add(v, u, out=a2)
    return np.subtract(v, u, out=u), plus
