"""Matrix exponential of a stack of matrices, with numpy calls only.

Scaling and squaring with the degree-13 diagonal Pade approximant (Higham,
SIAM J. Matrix Anal. Appl. 26, 1179 (2005)) for every slice that is not
diagonal, each with its own scaling exponent
s = max(0, ceil(log2(||A||_1 / theta_13))).  The even powers A^2, A^4,
A^6 are formed from the unscaled matrix and then scaled by 2^-2s, 2^-4s,
2^-6s (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)), as
in ``scipy.linalg.expm``: a slice whose powers overflow comes back
non-finite, never silently as zeros.

A diagonal slice is exponentiated entry by entry, exactly, as scipy does.
Every product and solve is a numpy call broadcast over the stack, which
works slice by slice, so a slice's result does not depend on the other
slices of its stack: a (d, d) call equals the matching slice of a stacked
call bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["expm"]

# Largest 1-norm for which the degree-13 approximant is accurate to double
# precision (Higham 2005, Table 2.3).
_THETA_13 = 5.371920351148152
# Coefficients b_0 .. b_13 of the numerator p_13(x); the denominator is p_13(-x).
_PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)


def expm(a) -> np.ndarray:
    """exp(a) of a (d, d) matrix or of each slice of an (n, d, d) stack (float or complex)."""
    a = np.asarray(a)
    if a.ndim == 2:
        return expm(a[None])[0]
    diagonal = np.count_nonzero(a, axis=(1, 2)) == np.count_nonzero(np.diagonal(a, axis1=1, axis2=2), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(a).sum(axis=1).max(axis=1, initial=0.0)
        # beyond theta_13, halve until it is reached; a non-finite norm is left to the arithmetic
        over = ~diagonal & np.isfinite(norm) & (norm > _THETA_13)
        s = np.zeros(len(a), dtype=int)
        s[over] = np.ceil(np.log2(norm[over] / _THETA_13))
        # the Pade slices, most squarings first, so that each round of
        # squaring works on a prefix of the stack; then the diagonal slices.
        # Each part of the sorted copy r is overwritten by its exponentials.
        order = np.argsort(-(2 * s + ~diagonal), kind="stable")
        r, s = a[order], s[order]
        pade = len(a) - np.count_nonzero(diagonal)
        if pade:
            q, p = _pade_terms(r[:pade], s[:pade])
            r[:pade] = np.linalg.solve(q, p)
        entries = np.arange(a.shape[-1])
        diagonals = np.exp(r[pade:, entries, entries])
        r[pade:] = 0
        r[pade:, entries, entries] = diagonals
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


def _pade_terms(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V - U and V + U for the odd and even parts U, V of p_13(2^-s a) of each slice; r_13 = (V - U)^-1 (V + U).

    Scales ``a`` in place, then uses it as a work buffer.  The sums and
    products are those of
    U = a (A^6 (b_13 A^6 + b_11 A^4 + b_9 A^2) + b_7 A^6 + ... + b_1 I)
    and V alike, in that order, so each entry has the bits of those
    expressions; they are evaluated into the powers of a and two more
    buffers, and V - U and V + U into two of them.
    """
    b = _PADE_13
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    a2 = a @ a
    acc, scratch = np.empty_like(a), np.empty_like(a)
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
