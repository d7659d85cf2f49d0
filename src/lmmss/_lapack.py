"""``dgebrd``, a LAPACK routine that ``scipy.linalg.lapack`` does not wrap.

``dgebrd`` reduces a matrix to bidiagonal form by Householder reflectors,
which ``scipy.linalg.lapack.dormqr`` applies (``gsvd.BidiagonalFactors``).
``scipy.linalg.cython_lapack`` exports it as a C function pointer in a
capsule of its ``__pyx_capi__``.  It is bound here once, through ctypes,
with ``PyCapsule_GetName`` and ``PyCapsule_GetPointer`` (the lookup numba's
``get_cython_function_address`` makes).  Every argument is passed by
reference, Fortran style, and the call checks ``info``: an illegal argument
raises ValueError.
"""

from __future__ import annotations

import ctypes

import numpy as np
from scipy.linalg import cython_lapack

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _bind(name: str, nargs: int):
    """The routine ``name`` of cython_lapack, taking ``nargs`` pointers and returning nothing."""
    capsule = cython_lapack.__pyx_capi__[name]
    address = _capsule_pointer(capsule, _capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)


_dgebrd = _bind("dgebrd", 11)


def dgebrd(a: np.ndarray):
    """Reduce the (m, n) array ``a``, m >= n, to upper bidiagonal form, in place.

    ``a = Q_B [B; 0] P_B^T`` with B upper bidiagonal.  Returns ``(d, e, tauq,
    taup)``: the diagonal and superdiagonal of B and the scalar factors of the
    reflectors of Q_B and P_B, which ``a`` now holds below and above the
    diagonal.  ``a`` must be float64 and laid out as LAPACK reads it: F-ordered,
    or an F-strided view (row stride 8 bytes, column stride a multiple of 8
    and at least 8 m), whose column stride is passed as the leading dimension
    ``lda``.  Anything else, and m < n, raises ValueError.
    """
    m, n = a.shape
    rows, cols = a.strides
    strided = rows == 8 and cols % 8 == 0 and cols >= 8 * m
    if a.dtype != np.float64 or not (a.flags.f_contiguous or strided) or m < n:
        raise ValueError("dgebrd needs an F-strided float64 array with m >= n")
    lda = cols // 8 if n > 1 else max(m, 1)  # a single column's stride is arbitrary
    d, tauq, taup = np.empty(n), np.empty(n), np.empty(n)
    e = np.empty(max(n - 1, 1))
    lwork = (m + n) * 64
    work = np.empty(lwork)
    m_, n_, lda_, lwork_, info = (ctypes.c_int(v) for v in (m, n, lda, lwork, 0))
    ref = ctypes.byref
    _dgebrd(ref(m_), ref(n_), a.ctypes.data, ref(lda_), d.ctypes.data, e.ctypes.data,
            tauq.ctypes.data, taup.ctypes.data, work.ctypes.data, ref(lwork_), ref(info))
    if info.value < 0:
        raise ValueError(f"dgebrd rejected argument {-info.value}")
    return d, e[: n - 1], tauq, taup
