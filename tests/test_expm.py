"""The numpy scaling-and-squaring ``expm`` against ``scipy.linalg.expm``, the independent oracle.

At d = 2 both are held to a 60-digit ``mpmath.expm`` instead of to each other.
"""

import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

import zenobell
from zenobell import _expm
from zenobell._expm import expm

# 1-norms from 1e-3 to 1e4: every Pade degree and scaling exponents 0 to 11
NORMS = np.logspace(-3, 4, 36)


def mpmath_expm(m):
    """exp(m) by a 60-digit ``mpmath.expm``, rounded to complex128."""
    with mpmath.workdps(60):
        return np.array(mpmath.expm(mpmath.matrix(m.tolist())).tolist(), dtype=complex)


def non_normal_stack(d, norms, rng):
    """Random S diag(lam) S^-1 with a non-unitary S, one slice per entry of ``norms``, shuffled.

    lam = -i w - gamma with w in (-1, 1) and gamma in (0, 0.01), as for a
    weakly damped conditional Hamiltonian, so exp(a) stays bounded at every
    norm; each slice is rescaled to its 1-norm.
    """
    slices = []
    for norm in norms:
        s = np.eye(d) + 0.3 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(d)
        lam = -1j * rng.uniform(-1.0, 1.0, d) - rng.uniform(0.0, 0.01, d)
        a = s @ np.diag(lam) @ np.linalg.inv(s)
        slices.append(a * (norm / np.abs(a).sum(axis=0).max()))
    return np.array(slices)[rng.permutation(len(norms))]


@pytest.mark.parametrize("d", [2, 12, 27])
def test_stack_agrees_with_scipy_over_the_scaling_range(d):
    rng = np.random.default_rng(100 + d)
    a = non_normal_stack(d, NORMS, rng)
    norms = np.abs(a).sum(axis=1).max(axis=1)
    # the stack reaches every degree, the last one both with and without scaling
    assert set(np.searchsorted(_expm._THETA, norms)) == set(range(len(_expm._DEGREES) + 1))
    assert np.ceil(np.log2(norms.max() / _expm._THETA[-1])) == 11
    got = expm(a)
    assert got.shape == a.shape
    for m, u in zip(a, got):
        if d == 2:
            # Each method is within ~7.5e-13 of the exact value on every CPU
            # tried, but on an old one (numpy at X86_V2, OpenBLAS Prescott)
            # their errors add up to 1.09e-12 at norm 1e4.  So at d = 2, where a
            # 60-digit reference is cheap, each is held to that reference.
            want = mpmath_expm(m)
            assert np.linalg.norm(scipy_expm(m) - want) <= 1e-12 * np.linalg.norm(want)
        else:
            want = scipy_expm(m)
        assert np.linalg.norm(u - want) <= 1e-12 * np.linalg.norm(want)


def real_non_normal_stack(d, norms, rng):
    """Random real S B S^-1 with a non-orthogonal S, one slice per entry of ``norms``, shuffled.

    B is block-diagonal with 2 x 2 blocks [[-gamma, w], [-w, -gamma]]
    (w in (-1, 1), gamma in (0, 0.01)), the real form of the spectrum of
    :func:`non_normal_stack` and the shape of a gauged conditional
    Hamiltonian block; each slice is rescaled to its 1-norm.
    """
    slices = []
    for norm in norms:
        s = np.eye(d) + 0.3 * rng.normal(size=(d, d)) / np.sqrt(d)
        b = -np.diag(rng.uniform(0.0, 0.01, d))
        for i in range(0, d - 1, 2):
            w = rng.uniform(-1.0, 1.0)
            b[i, i + 1], b[i + 1, i] = w, -w
        a = s @ b @ np.linalg.inv(s)
        slices.append(a * (norm / np.abs(a).sum(axis=0).max()))
    return np.array(slices)[rng.permutation(len(norms))]


@pytest.mark.parametrize("d", [2, 12, 27])
def test_real_stack_agrees_with_scipy_over_the_scaling_range(d):
    rng = np.random.default_rng(200 + d)
    a = real_non_normal_stack(d, NORMS, rng)
    norms = np.abs(a).sum(axis=1).max(axis=1)
    assert set(np.searchsorted(_expm._THETA, norms)) == set(range(len(_expm._DEGREES) + 1))
    assert np.ceil(np.log2(norms.max() / _expm._THETA[-1])) == 11
    got = expm(a)
    assert got.dtype == np.float64 and got.shape == a.shape
    for m, u in zip(a, got):
        # scipy's complex path, the one the complex stack is checked against:
        # on these slices its float64 path strays further (up to ~1e-10 at d = 2)
        want = scipy_expm(m.astype(complex))
        assert np.linalg.norm(u - want) <= 1e-12 * np.linalg.norm(want)


def test_real_matrix_equals_its_slice_of_a_stack_bit_for_bit():
    rng = np.random.default_rng(8)
    diagonal = [np.diag(rng.normal(size=12)) * norm for norm in (0.0, 1e-3, 40.0)]
    a = np.concatenate([real_non_normal_stack(12, NORMS, rng), diagonal])[rng.permutation(len(NORMS) + 3)]
    stacked = expm(a)
    for m, u in zip(a, stacked):
        assert expm(m).tobytes() == u.tobytes()
    for m in diagonal:
        assert expm(m).tobytes() == scipy_expm(m).tobytes()


def test_matrix_equals_its_slice_of_a_stack_bit_for_bit():
    rng = np.random.default_rng(7)
    diagonal = [np.diag(rng.normal(size=12) + 1j * rng.normal(size=12)) * norm for norm in (0.0, 1e-3, 40.0)]
    a = np.concatenate([non_normal_stack(12, NORMS, rng), diagonal])[rng.permutation(len(NORMS) + 3)]
    stacked = expm(a)
    for m, u in zip(a, stacked):
        assert expm(m).tobytes() == u.tobytes()
    # a diagonal slice is exp of its entries, as in scipy
    for m in diagonal:
        assert expm(m).tobytes() == scipy_expm(m).tobytes()
    assert np.array_equal(expm(np.zeros((3, 4, 4), dtype=complex)), np.broadcast_to(np.eye(4), (3, 4, 4)))


def test_overflowing_powers_give_non_finite_slices():
    # as with scipy, A^2 .. A^6 of a slice with 1-norm ~1e200 overflow and the
    # slice comes back non-finite; its neighbours are computed as if alone
    rng = np.random.default_rng(3)
    a = non_normal_stack(12, [0.5, 1e200, 30.0, 2e200], rng)
    norms = np.abs(a).sum(axis=1).max(axis=1)
    got = expm(a)
    for m, u, norm in zip(a, got, norms):
        if norm > 1e100:
            assert not np.isfinite(u).all()
            with np.errstate(all="ignore"):
                assert not np.isfinite(scipy_expm(m)).all()
        else:
            assert u.tobytes() == expm(m).tobytes()
            assert np.isfinite(u).all()


def test_cli_import_loads_no_scipy():
    src = str(Path(zenobell.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, zenobell.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
