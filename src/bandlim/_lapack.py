"""LAPACK and BLAS calls that release the GIL.

The routines come from the OpenBLAS of scipy's manylinux wheel,
``scipy.libs/libscipy_openblas-*.so``, which exports them with C ``int``
(LP64) integers under a ``scipy_`` prefix; `importlib.util.find_spec` finds
it without importing scipy. The capsules of `scipy.linalg.cython_lapack` and
`cython_blas` wrap these same functions, so the results are bitwise scipy's.
Where that library or one of its symbols is missing (conda, a distribution's
scipy, a macOS wheel's ``.dylibs``), the routines come from those capsules,
whose signatures are checked, and only then is `scipy.linalg` imported. The
choice is made once, at import (`_load`).

scipy's f2py wrappers (`scipy.linalg.cho_factor`, `cho_solve`,
`scipy.linalg.blas.dtrsm`) hold the GIL for the whole call, so two threads
running them take as long as one. `ctypes.CFUNCTYPE` drops it for the call,
so the Gram half in a worker thread (`_parallel.run_halves`) runs alongside
the one in the caller.

Every array argument must be float64 and Fortran-contiguous (a 1-d array
is both); results are written in place. `blas_threads` reads the number of
threads the BLAS library runs one call on.
"""

import ctypes
import importlib.util
import os
import re

import numpy as np

_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_PTR = ctypes.c_void_p
_CHAR = ctypes.c_char_p
_ONE = ctypes.c_double(1.0)

# name -> (capsule module, signature with the double typedef written as "d",
# ctypes argument types)
_PROTOTYPES = {
    "dpotrf": ("cython_lapack", "void (char *, int *, d *, int *, int *)",
               (_CHAR, _INT, _PTR, _INT, _INT)),
    "dpotrs": ("cython_lapack", "void (char *, int *, int *, d *, int *, d *, int *, int *)",
               (_CHAR, _INT, _INT, _PTR, _INT, _PTR, _INT, _INT)),
    "dpocon": ("cython_lapack", "void (char *, int *, d *, int *, d *, d *, d *, int *, int *)",
               (_CHAR, _INT, _PTR, _INT, _DOUBLE, _DOUBLE, _PTR, _PTR, _INT)),
    "dtrsm": ("cython_blas",
              "void (char *, char *, char *, char *, int *, int *, d *, d *, int *, d *, int *)",
              (_CHAR, _CHAR, _CHAR, _CHAR, _INT, _INT, _DOUBLE, _PTR, _INT, _PTR, _INT)),
    "dtrmv": ("cython_blas", "void (char *, char *, char *, int *, d *, int *, d *, int *)",
              (_CHAR, _CHAR, _CHAR, _INT, _PTR, _INT, _PTR, _INT)),
}


def _load(libs_dir):
    """(library path or None, routines by name, thread probe or None): the
    routines of `_PROTOTYPES` from the one ``libscipy_openblas-*.so`` in
    ``libs_dir`` when it loads and exports them all, else from the capsules
    of `scipy.linalg` (the path is then None)."""
    try:
        (filename,) = [filename for filename in os.listdir(libs_dir)
                       if filename.startswith("libscipy_openblas-") and filename.endswith(".so")]
        path = os.path.join(libs_dir, filename)
        library = ctypes.CDLL(path)
        routines = {name: ctypes.CFUNCTYPE(None, *argtypes)((f"scipy_{name}_", library))
                    for name, (_, _, argtypes) in _PROTOTYPES.items()}
        probe = library.scipy_openblas_get_num_threads
    except (OSError, ValueError, AttributeError):
        return (None, *_load_capsules())
    probe.restype, probe.argtypes = ctypes.c_int, []
    return path, routines, probe


def _load_capsules():
    from scipy.linalg import cython_blas, cython_lapack

    # private prototypes, so that no other user of ctypes.pythonapi is affected
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    modules = {"cython_lapack": cython_lapack, "cython_blas": cython_blas}
    routines = {}
    for name, (module, signature, argtypes) in _PROTOTYPES.items():
        capsule = modules[module].__pyx_capi__[name]
        found_name = capsule_name(capsule)
        found = re.sub(r"__pyx_t_\w+?_d\b", "d", found_name.decode())
        if found != signature:
            raise ImportError(f"scipy.linalg.{module}.{name} has signature {found!r}, "
                              f"expected {signature!r}")
        routines[name] = ctypes.CFUNCTYPE(None, *argtypes)(capsule_pointer(capsule, found_name))
    library = ctypes.CDLL(cython_lapack.__file__)
    for name in ("scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        probe = getattr(library, name, None)
        if probe is not None:
            probe.restype, probe.argtypes = ctypes.c_int, []
            return routines, probe
    return routines, None


_LIBRARY, _ROUTINES, _THREAD_PROBE = _load(os.path.join(
    os.path.dirname(importlib.util.find_spec("scipy").submodule_search_locations[0]),
    "scipy.libs"))
_dpotrf, _dpotrs, _dpocon, _dtrsm, _dtrmv = (_ROUTINES[name] for name in _PROTOTYPES)


def potrf(a):
    """Overwrite the lower triangle of the n x n ``a`` with its Cholesky factor
    L (the upper triangle is left as it is, like ``cho_factor``) and return
    LAPACK's info: 0, or k > 0 when the leading minor of order k is not
    positive definite."""
    n = a.shape[0]
    data = _address(a, (n, n))
    info = ctypes.c_int(0)
    if n:
        size = ctypes.c_int(n)
        _dpotrf(b"L", size, data, size, info)
    return info.value


def potrs(chol, b):
    """Overwrite the 1-d ``b`` of length n with block^{-1} b, for the lower
    Cholesky factor ``chol`` of block as `potrf` leaves it."""
    n = chol.shape[0]
    factor = _address(chol, (n, n), write=False)
    data = _address(b, (n,))
    if n:
        size = ctypes.c_int(n)
        _dpotrs(b"L", size, ctypes.c_int(1), factor, size, data, size, ctypes.c_int(0))


def pocon(chol, anorm):
    """LAPACK's estimate of the reciprocal 1-norm condition number of block,
    for the lower Cholesky factor ``chol`` of block as `potrf` leaves it and
    ``anorm`` = |block|_1; 1.0 for an empty block, as LAPACK defines it."""
    n = chol.shape[0]
    factor = _address(chol, (n, n), write=False)
    if not n:
        return 1.0
    # the estimate moves in its last digits with the alignment of the work
    # array, so the 3n doubles start at a 64-byte boundary
    buffer = np.empty(3 * n + 7)
    start = buffer.ctypes.data
    work = start + -start % 64
    iwork = np.empty(n, dtype=np.intc)
    rcond = ctypes.c_double(0.0)
    size = ctypes.c_int(n)
    _dpocon(b"L", size, factor, size, ctypes.c_double(anorm), rcond, work, iwork.ctypes.data,
            ctypes.c_int(0))
    return rcond.value


def dtrsm(chol, b, trans):
    """Overwrite the m x n ``b`` with b L^{-T} if ``trans``, else b L^{-1}, for
    the lower triangular n x n ``chol`` = L (one triangular solve from the
    right, BLAS ``dtrsm``)."""
    m, n = b.shape
    factor = _address(chol, (n, n), write=False)
    data = _address(b, (m, n))
    if m and n:
        _dtrsm(b"R", b"L", b"T" if trans else b"N", b"N", ctypes.c_int(m), ctypes.c_int(n),
               _ONE, factor, ctypes.c_int(n), data, ctypes.c_int(m))


def dtrmv(chol, x):
    """Overwrite the 1-d ``x`` of length n with L^T x, for the lower
    triangular n x n ``chol`` = L (BLAS ``dtrmv``)."""
    n = chol.shape[0]
    factor = _address(chol, (n, n), write=False)
    data = _address(x, (n,))
    if n:
        size = ctypes.c_int(n)
        _dtrmv(b"L", b"T", b"N", size, factor, size, data, ctypes.c_int(1))


def _address(a, shape, write=True):
    """The data address of ``a``, once it is checked to be a float64,
    Fortran-contiguous array of ``shape`` (and writable if ``write``)."""
    if (a.dtype != np.float64 or a.shape != shape or not a.flags.f_contiguous
            or write and not a.flags.writeable):
        raise ValueError(f"expected a {'writable ' if write else ''}Fortran-contiguous "
                         f"float64 array of shape {shape}, got {a.dtype} {a.shape}")
    return a.ctypes.data


def blas_threads():
    """Threads the BLAS runs one call on, read anew on every call (a thread
    pool limiter may change it), or None when the library does not say."""
    return None if _THREAD_PROBE is None else _THREAD_PROBE()
