"""The LAPACK inside numpy's wheel, reached through ctypes.

numpy's Python API has no symmetric eigensolver for a subset of the
spectrum, but the OpenBLAS that numpy's wheel bundles (`numpy.libs`)
exports LAPACKE's `dsyevr`, which computes only the eigenpairs with
indices il..iu. Only its ILP64 build (`scipy_LAPACKE_dsyevr64_`, every
integer 64 bits wide) is bound: binding a 32-bit-integer symbol with
64-bit argument types would corrupt memory without an error. Where that
symbol is missing (numpy built on MKL or Accelerate, or on a 32-bit-integer
OpenBLAS), `top_eigh` slices the result of `numpy.linalg.eigh`.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

from .errors import EigensolverFailed

COL_MAJOR = 102    # LAPACKE's matrix_layout for Fortran order


@functools.cache
def _dsyevr():
    """LAPACKE's ILP64 `dsyevr` from numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        fn = getattr(ctypes.CDLL(path), "scipy_LAPACKE_dsyevr64_", None)
        if fn is not None:
            i64, f64 = ctypes.c_int64, ctypes.c_double
            doubles, ints = (np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS,WRITEABLE")
                             for t in (np.float64, np.int64))
            fn.restype = i64
            fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char, i64,
                           doubles, i64, f64, f64, i64, i64, f64, ctypes.POINTER(i64),
                           doubles, doubles, i64, ints]
            return fn
    return None


def top_eigh(gram: np.ndarray, k: int):
    """The k largest eigenvalues of the symmetric (n, n) float64 C array
    `gram`, in descending order, and their eigenvectors as the columns of
    an (n, k) array. `gram` is overwritten."""
    n = gram.shape[0]
    if gram.shape != (n, n) or not 1 <= k <= n:    # LAPACK would read past the array
        raise ValueError(f"need a square matrix and 1 <= k <= n, got {gram.shape} and k={k}")
    dsyevr = _dsyevr()
    if dsyevr is None:
        values, vectors = np.linalg.eigh(gram)
        return values[::-1][:k], vectors[:, ::-1][:, :k]
    found = ctypes.c_int64()
    values = np.empty(n)
    vectors = np.empty((k, n))    # column major with ldz = n: row j is eigenvector j
    support = np.empty(2 * k, np.int64)
    # A symmetric C array is its own column-major transpose.
    info = dsyevr(COL_MAJOR, b"V", b"I", b"L", n, gram, n, 0.0, 0.0, n - k + 1, n, 0.0,
                  ctypes.byref(found), values, vectors, n, support)
    if info != 0 or found.value != k:
        raise EigensolverFailed(f"dsyevr returned info {info} with {found.value} of "
                                f"{k} eigenpairs of a {n}x{n} Gram matrix")
    return values[k - 1::-1], vectors[::-1].T
