"""The GIL-free LAPACK bindings and the two-CPU split of the Gram halves."""

import sys
import threading
import time
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dtrsm

from bandlim import (Kernel, NotPositiveDefiniteError, SampleSet, build_gram, cardinal, evaluate,
                     power_function, solve, wnorm_sq)
from bandlim import _lapack, interpolate, kernel as kernel_module
from bandlim.interpolate import _cardinal_values
from conftest import split_cpus

B = 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40), st.booleans(), st.integers(0, 2**32 - 1))
def test_bindings_match_scipy_bitwise(n, m, definite, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n + 2))
    block = x @ x.T + 0.1 * np.eye(n)
    if not definite and n:
        # a positive definite matrix has a positive diagonal
        k = rng.integers(n)
        block[k, k] = -block[k, k]
    factor = np.array(block, order="F")
    info = _lapack.potrf(factor)
    try:
        expected, _ = cho_factor(block, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        assert info > 0
        return
    assert info == 0
    assert factor.tobytes(order="A") == expected.tobytes(order="A")
    rhs = rng.standard_normal(n)
    solved = rhs.copy()
    _lapack.potrs(factor, solved)
    assert solved.tobytes() == cho_solve((expected, True), rhs, check_finite=False).tobytes()
    rows = np.asfortranarray(rng.standard_normal((m, n)))
    for trans in (False, True):
        solved = np.array(rows, order="F")
        _lapack.dtrsm(factor, solved, trans)
        reference = dtrsm(1.0, expected, rows, side=1, lower=1, trans_a=int(trans))
        assert solved.shape == reference.shape
        assert solved.tobytes(order="F") == reference.tobytes(order="F")


def test_bindings_reject_arrays_they_cannot_pass():
    chol = np.asfortranarray(np.eye(3))
    rows = np.ones((2, 3), order="F")
    for bad in (np.ones((2, 3)), np.ones((2, 3), dtype=np.float32, order="F"),
                np.ones((3, 2), order="F")):
        with pytest.raises(ValueError, match="Fortran-contiguous float64"):
            _lapack.dtrsm(chol, bad, True)
    with pytest.raises(ValueError, match="of shape \\(3, 3\\)"):
        _lapack.dtrsm(np.asfortranarray(np.eye(2)), rows, False)
    rows.setflags(write=False)
    with pytest.raises(ValueError, match="writable"):
        _lapack.dtrsm(chol, rows, False)
    chol.setflags(write=False)
    with pytest.raises(ValueError, match="writable"):
        _lapack.potrf(chol)
    with pytest.raises(ValueError, match="of shape \\(3,\\)"):
        _lapack.potrs(chol, np.ones(4))


def _lattice_case():
    # N = 150 with T 2B = 1.2, a grid of step T/16 whose 76 distinct node
    # times |t| = 0..75 T power_function sets to 0, and three nodes nudged by
    # two ulps, which take its second stage
    T, N = 1.2 / (2.0 * B), 150
    near = np.array([1, -40, 75]) * T
    t = np.concatenate([np.arange(-1200, 1201) * (T / 16), near + 2 * np.spacing(near)])
    samples = SampleSet(T, np.cos(0.7 * np.arange(-N, N + 1)))
    return T, N, t, samples


@pytest.mark.parametrize("cpus, blas_threads", [(1, 1), (2, 2), (4, None)])
def test_concurrent_halves_are_bitwise_the_inline_ones(lowpass_kernel, monkeypatch, cpus,
                                                       blas_threads):
    T, N, t, samples = _lattice_case()
    # psi in blocks of 512 entries, split at any size, so that the kernel
    # tables of this case (about 2400 entries) split too
    monkeypatch.setattr(kernel_module, "_BLOCK", 512)
    monkeypatch.setattr(kernel_module, "_MIN_SPLIT_ENTRIES", 0)

    def products(started):
        """The bytes of each split site's product, and the threads each started."""
        threads = []

        def counted(call, *args):
            before = len(started)
            value = call(*args)
            threads.append(len(started) - before)
            return value

        gram = counted(build_gram, lowpass_kernel, T, N)
        interp = counted(solve, gram, samples)
        values = [*gram.cholesky, interp.coeffs_c, counted(power_function, gram, t),
                  counted(_cardinal_values, gram, t), np.float64(counted(wnorm_sq, interp)),
                  counted(evaluate, interp, t), counted(cardinal, gram, 0, t)]
        return [value.tobytes(order="A") for value in values], threads

    # a short switch interval interleaves the caller and the worker finely
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with split_cpus(2, 1, 0) as started:
            split, threads = products(started)
    finally:
        sys.setswitchinterval(interval)
    # one worker per split site: the filled and factored halves (the first
    # row of 301 entries is one psi block); the solve; in power_function its
    # kernel table, its first stage with the row sums in each of the two
    # blocks of its 1128 distinct |t| (`interpolate._BLOCK_ROWS`), and its
    # second stage; the kernel tables of the cardinals, of evaluate and of
    # cardinal, and the solve of cardinal. The quadratic forms stay in the
    # caller.
    assert threads == [1, 1, 4, 1, 0, 1, 2]
    with split_cpus(cpus, blas_threads, 0) as started:
        inline, threads = products(started)
    # psi of a weight spec splits whatever the BLAS; the halves do not
    assert threads == ([0, 0, 1, 1, 0, 1, 1] if cpus > 1 else [0] * 7)
    assert split == inline


def test_large_halves_split_at_the_default_threshold(lowpass_kernel):
    T, N, t, _ = _lattice_case()
    gram = build_gram(lowpass_kernel, T, N)
    with split_cpus(2, 1) as started:
        power_function(gram, t)
    # the first stage, 1128 distinct |t| by 150^2 flops, is past
    # _MIN_SPLIT_FLOPS; the second, on the 3 nudged nodes, is not
    assert len(started) == 1


@pytest.mark.parametrize("blas_threads", [2, 8, None])
def test_multithreaded_or_silent_blas_starts_no_thread(lowpass_kernel, blas_threads):
    T, N, t, samples = _lattice_case()

    def refuse(thread):
        raise AssertionError("a thread was started")

    with split_cpus(8, blas_threads, 0), patch.object(threading.Thread, "start", refuse):
        gram = build_gram(lowpass_kernel, T, N)
        wnorm_sq(solve(gram, samples))
        power_function(gram, t)
        _cardinal_values(gram, t)


@pytest.mark.parametrize("min_flops", [0, None])
def test_unfactored_gram_under_either_path(min_flops):
    # heavy oversampling drives the flat kernel's eigenvalues below machine zero
    with split_cpus(2, 1, min_flops):
        gram = build_gram(Kernel.uniform(B), 0.3 / (2 * B), 15)
        assert gram.cholesky is None
        with pytest.raises(NotPositiveDefiniteError):
            power_function(gram, [0.1])


def test_worker_failure_is_raised_after_the_join(lowpass_kernel, capfd):
    # the odd half fails in the worker only after the caller's even half has
    # finished, so the failure is seen only if the caller waits for the worker
    T, N, t, _ = _lattice_case()
    gram = build_gram(lowpass_kernel, T, N)
    solve_rows = _lapack.dtrsm
    finished = []

    def failing(chol, b, trans):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.05)
            raise RuntimeError("odd half failed")
        solve_rows(chol, b, trans)
        finished.append(b.shape)

    escaped = []
    before = threading.active_count()
    with split_cpus(2, 1, 0) as started, patch.object(_lapack, "dtrsm", failing), \
            patch.object(threading, "excepthook", escaped.append), \
            pytest.raises(RuntimeError, match="odd half failed"):
        power_function(gram, t)
    assert len(started) == 1
    assert not started[0].is_alive()
    # the first block of the 1125 distinct |t| of the grid off the nodes and
    # the 3 nudged nodes, 1128 rows in all
    assert finished == [(min(1128, interpolate._BLOCK_ROWS), N + 1)]
    assert threading.active_count() == before
    assert escaped == []
    assert capfd.readouterr().err == ""
