"""The numpy scaling-and-squaring ``expm`` against ``scipy.linalg.expm``, the independent oracle.

At d = 2 the numpy ``expm`` is held to a 60-digit ``mpmath.expm`` instead.
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

# 1-norms from 1e-3 to 1e4: unscaled slices below theta_13 and scaling exponents 1 to 11 above it
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
    # the stack has slices on both sides of theta_13, the largest with 11 squarings
    assert (norms < _expm._THETA_13).any() and (norms > _expm._THETA_13).any()
    assert np.ceil(np.log2(norms.max() / _expm._THETA_13)) == 11
    got = expm(a)
    assert got.shape == a.shape
    for m, u in zip(a, got):
        # At d = 2, where a 60-digit reference is cheap, the stack is held to
        # it instead of to scipy: on an old CPU (OpenBLAS Prescott) scipy's
        # own expm is 1.06e-12 off the reference at norm 1e4, ours 4.7e-13.
        want = mpmath_expm(m) if d == 2 else scipy_expm(m)
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
    assert (norms < _expm._THETA_13).any() and (norms > _expm._THETA_13).any()
    assert np.ceil(np.log2(norms.max() / _expm._THETA_13)) == 11
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


# one run of each scenario, every figure, the selftest, the help and every
# demo, in one interpreter; then the scipy, dataclasses and argparse
# modules it loaded, which must be none
USER_PATHS = r"""
import contextlib, io, runpy, sys
from pathlib import Path
import zenobell.cli

configs = [
    "scenario = prepare_pair\ng = 1\nkappa = 1\ngamma = 0.01\nomega_minus = 0.02\nT = auto\n",
    "scenario = cnot\ng = 1\nkappa = 1\ngamma = 0.001\nomega_values = 0.02\n",
    "scenario = pbg\nloss = 0.1\n",
    "scenario = bell_landscape\nshots = 100\nseed = 1\n",
    "scenario = mermin\nn_qubits_values = 3, 4\n",
    "scenario = trajectories\nsystem = pair\ng = 1\nkappa = 1\ngamma = 0.001\nomega_minus = 0.02\nn_traj = 100\n",
]
with contextlib.redirect_stdout(io.StringIO()):
    for k, text in enumerate(configs):
        Path(f"{k}.cfg").write_text(text)
        assert zenobell.cli.main(["run", f"{k}.cfg", "--quiet"]) == 0, text
    for name in ("fig2", "fig4", "fig5", "islands"):
        assert zenobell.cli.main(["figure", name, "--quiet"]) == 0, name
    assert zenobell.cli.main(["selftest", "--quiet"]) == 0
    assert zenobell.cli.main(["--help"]) == 0
    for demo in sorted(Path(sys.argv[1]).glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "dataclasses", "argparse")))
"""


def test_cli_import_loads_no_scipy(tmp_path):
    # the numpy-only CI job runs without scipy; this checks its claim where
    # scipy is installed too.  The records are plain classes: building them
    # with dataclasses generated code at import, in every process; and the
    # command line is read without argparse, which cost ~2.6 ms a process
    # to import and build
    src = str(Path(zenobell.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = [sys.executable, "-c", USER_PATHS, str(Path(__file__).resolve().parents[1] / "demos")]
    out = subprocess.run(run, capture_output=True, text=True, env=env, cwd=tmp_path, check=True)
    assert out.stdout.strip() == "[]"
