"""Two LAPACK routines that ``scipy.linalg.lapack`` does not wrap.

``dgebrd`` reduces a matrix to bidiagonal form by Householder reflectors, and
``dormbr`` applies its reflectors.  ``scipy.linalg.cython_lapack`` exports
both as C function pointers in the capsules of its ``__pyx_capi__``.  They
are bound here once, through ctypes, with ``PyCapsule_GetName`` and
``PyCapsule_GetPointer`` (the lookup numba's ``get_cython_function_address``
makes).  Every argument is passed by reference, Fortran style, and every call
checks ``info``: an illegal argument raises ValueError.  Arrays are F-ordered
float64 and the inputs are left unchanged unless a docstring says otherwise.
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
_dormbr = _bind("dormbr", 14)


def _ints(*values):
    return [ctypes.c_int(v) for v in values]


_ref = ctypes.byref


def _check(name: str, info: ctypes.c_int):
    if info.value < 0:
        raise ValueError(f"{name} rejected argument {-info.value}")


def dgebrd(a: np.ndarray):
    """Reduce the (m, n) array ``a``, m >= n, to upper bidiagonal form, in place.

    ``a = Q_B [B; 0] P_B^T`` with B upper bidiagonal.  Returns ``(d, e, tauq,
    taup)``: the diagonal and superdiagonal of B and the scalar factors of the
    reflectors of Q_B and P_B, which ``a`` now holds below and above the
    diagonal.  ``a`` must be F-ordered float64.
    """
    m, n = a.shape
    if not (a.flags.f_contiguous and a.dtype == np.float64) or m < n:
        raise ValueError("dgebrd needs an F-ordered float64 array with m >= n")
    d, tauq, taup = np.empty(n), np.empty(n), np.empty(n)
    e = np.empty(max(n - 1, 1))
    lwork = (m + n) * 64
    work = np.empty(lwork)
    m_, n_, lwork_, info = _ints(m, n, lwork, 0)
    _dgebrd(_ref(m_), _ref(n_), a.ctypes.data, _ref(m_), d.ctypes.data, e.ctypes.data,
            tauq.ctypes.data, taup.ctypes.data, work.ctypes.data, _ref(lwork_), _ref(info))
    _check("dgebrd", info)
    return d, e[: n - 1], tauq, taup


def dormbr(vect: str, trans: str, a: np.ndarray, tau: np.ndarray, c: np.ndarray, k: int):
    """Apply Q_B (``vect`` "Q") or P_B ("P") of ``dgebrd``, or its transpose, to the vector c.

    ``trans`` is "N" or "T", ``a`` and ``tau`` are ``dgebrd``'s output, and
    ``k`` is, as in LAPACK, the number of columns of the reduced matrix for
    "Q" and its number of rows for "P".  Returns the product as a new array.
    """
    out = np.array(c, dtype=float)
    lwork = 64  # below dormqr's blocked workspace, so one vector takes the unblocked path
    work = np.empty(lwork)
    v, t, side = ctypes.c_char(vect.encode()), ctypes.c_char(trans.encode()), ctypes.c_char(b"L")
    m_, one, k_, lda, lwork_, info = _ints(out.size, 1, k, a.shape[0], lwork, 0)
    _dormbr(_ref(v), _ref(side), _ref(t), _ref(m_), _ref(one), _ref(k_), a.ctypes.data,
            _ref(lda), tau.ctypes.data, out.ctypes.data, _ref(m_), work.ctypes.data,
            _ref(lwork_), _ref(info))
    _check("dormbr", info)
    return out
