"""LAPACK and BLAS calls that release the GIL.

scipy's f2py wrappers (`scipy.linalg.cho_factor`, `cho_solve`,
`scipy.linalg.blas.dtrsm`) hold the GIL for the whole call, so two threads
running them take as long as one thread running both. The routines here are
the same Fortran symbols that scipy exports as C function pointers in the
``__pyx_capi__`` capsules of `scipy.linalg.cython_lapack` and `cython_blas`,
called through `ctypes.CFUNCTYPE`, which drops the GIL for the duration of
the call. Each capsule's signature is checked at import: the integers must
be C ``int`` (LP64), as the ctypes prototypes below declare.

Every array argument must be float64 and Fortran-contiguous (a 1-d array
is both); results are written in place. `blas_threads` reads the number of
threads the BLAS library runs one call on.
"""

import ctypes
import re

import numpy as np
from scipy.linalg import cython_blas, cython_lapack

_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_PTR = ctypes.c_void_p
_CHAR = ctypes.c_char_p
_ONE = ctypes.c_double(1.0)

# name -> (capsule module, signature with the double typedef written as "d",
# ctypes argument types)
_PROTOTYPES = {
    "dpotrf": (cython_lapack, "void (char *, int *, d *, int *, int *)",
               (_CHAR, _INT, _PTR, _INT, _INT)),
    "dpotrs": (cython_lapack, "void (char *, int *, int *, d *, int *, d *, int *, int *)",
               (_CHAR, _INT, _INT, _PTR, _INT, _PTR, _INT, _INT)),
    "dtrsm": (cython_blas,
              "void (char *, char *, char *, char *, int *, int *, d *, d *, int *, d *, int *)",
              (_CHAR, _CHAR, _CHAR, _CHAR, _INT, _INT, _DOUBLE, _PTR, _INT, _PTR, _INT)),
}


# private prototypes, so that no other user of ctypes.pythonapi is affected
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _bind(name):
    module, signature, argtypes = _PROTOTYPES[name]
    capsule = module.__pyx_capi__[name]
    capsule_name = _capsule_name(capsule)
    found = re.sub(r"__pyx_t_\w+?_d\b", "d", capsule_name.decode())
    if found != signature:
        raise ImportError(f"{module.__name__}.{name} has signature {found!r}, "
                          f"expected {signature!r}")
    return ctypes.CFUNCTYPE(None, *argtypes)(_capsule_pointer(capsule, capsule_name))


_dpotrf, _dpotrs, _dtrsm = (_bind(name) for name in ("dpotrf", "dpotrs", "dtrsm"))


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


def _address(a, shape, write=True):
    """The data address of ``a``, once it is checked to be a float64,
    Fortran-contiguous array of ``shape`` (and writable if ``write``)."""
    if (a.dtype != np.float64 or a.shape != shape or not a.flags.f_contiguous
            or write and not a.flags.writeable):
        raise ValueError(f"expected a {'writable ' if write else ''}Fortran-contiguous "
                         f"float64 array of shape {shape}, got {a.dtype} {a.shape}")
    return a.ctypes.data


def _thread_probe():
    library = ctypes.CDLL(cython_lapack.__file__)
    for name in ("scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        probe = getattr(library, name, None)
        if probe is not None:
            probe.restype, probe.argtypes = ctypes.c_int, []
            return probe
    return None


_THREAD_PROBE = _thread_probe()


def blas_threads():
    """Threads the BLAS runs one call on, read anew on every call (a thread
    pool limiter may change it), or None when the library does not say."""
    return None if _THREAD_PROBE is None else _THREAD_PROBE()
