"""The one compiled library, ``ml/_glm.c``: built once, loaded once.

Each loop in it has a numpy (or pure Python) twin that stays the reference,
and the module that owns the twin probes its loop against it at import and
calls the loop only when the bits agree:

* :mod:`repro.ml.kernels` — the per-tuple GLM step and the sparse
  ``X @ w``;
* :mod:`repro.storage.columnar` — the check of a columnar page's header and
  the decode of a run of columnar pages;
* :mod:`repro.data.sparse` — the CSR row gather.

This module imports nothing of the package, so ``repro.data`` and
``repro.storage`` use it without importing ``repro.ml``.  :data:`LIB` is the
loaded library with every entry point's signature declared and numpy's
``ddot`` bound, or ``None`` when it cannot be built or addressed (every twin
runs).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

__all__ = ["F64", "I64", "LIB", "SOURCE", "addr", "build", "bytes_addr", "plain"]

#: The dtypes the loops address.
F64, I64 = np.dtype(np.float64), np.dtype(np.int64)
SOURCE = Path(__file__).parent / "ml" / "_glm.c"
_CFLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-fPIC", "-shared")
# numpy's cblas_ddot under the names its BLAS builds export; the ILP64
# ("64_") ones take 64-bit counts and strides.
_DDOT_NAMES = ("scipy_cblas_ddot64_", "cblas_ddot64_", "scipy_cblas_ddot", "cblas_ddot")

# An ndarray's data pointer is the first field after its PyObject header
# (numpy's PyArrayObject_fields).  Reading it there costs ~0.15 us where
# ``a.ctypes.data`` costs ~1.2 us; _load() checks the two agree first.
_DATA_AT = object.__basicsize__
_pointer_at = ctypes.c_void_p.from_address
# A bytes object's data is its header's last field (PyBytesObject.ob_sval).
_BYTES_AT = bytes.__basicsize__ - 1


def addr(a: np.ndarray) -> int | None:
    """The data pointer of ndarray ``a``."""
    return _pointer_at(id(a) + _DATA_AT).value


def bytes_addr(b: bytes) -> int:
    """The address of the first byte of ``b`` (valid while ``b`` lives)."""
    return id(b) + _BYTES_AT


def plain(a, dtype: np.dtype) -> bool:
    """A 1-D ndarray a loop may address as a packed C array of ``dtype``."""
    return (
        type(a) is np.ndarray
        and a.dtype is dtype
        and a.ndim == 1
        and a.flags.c_contiguous
        and a.flags.aligned
    )


def build() -> Path | None:
    """``_glm.c`` compiled once into ``__pycache__``, keyed by source + flags.

    Beside the source, not under ``TMPDIR``, so every process of every run
    finds it built.  Concurrent builders each write a private file and
    rename it into place.
    """
    cc = shutil.which("cc")
    if cc is None:
        return None
    key = hashlib.sha256(SOURCE.read_bytes() + " ".join(_CFLAGS).encode()).hexdigest()
    out = SOURCE.parent / "__pycache__" / f"_glm.{key[:16]}.so"
    if out.exists():
        return out
    tmp = out.with_name(f"{out.name}.{os.getpid()}.tmp")
    try:
        out.parent.mkdir(exist_ok=True)
        cmd = [cc, *_CFLAGS, "-o", str(tmp), str(SOURCE), "-lm"]
        subprocess.run(cmd, check=True, capture_output=True, timeout=120)
        os.replace(tmp, out)
    except (OSError, subprocess.SubprocessError):
        with contextlib.suppress(OSError):
            tmp.unlink()
        return None
    return out


def _load():
    """The library bound to numpy's ``ddot``, or ``None``."""
    probe, text = np.arange(4.0)[1:], b"columnar"
    if (
        sys.implementation.name != "cpython"
        or addr(probe) != probe.ctypes.data
        or ctypes.string_at(bytes_addr(text), len(text)) != text
    ):
        return None
    path = build()
    if path is None:
        return None
    try:
        # dlsym through numpy's own extension module finds the BLAS it linked.
        blas = ctypes.CDLL(_multiarray_umath.__file__)
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    name = next((n for n in _DDOT_NAMES if hasattr(blas, n)), None)
    if name is None:
        return None
    c_int64, c_int, c_double, ptr = ctypes.c_int64, ctypes.c_int, ctypes.c_double, ctypes.c_void_p
    lib.glm_set_ddot.argtypes = [ptr, c_int]
    lib.glm_set_ddot.restype = None
    lib.glm_set_ddot(ctypes.cast(getattr(blas, name), ptr), name.endswith("64_"))
    head = [ptr, c_int64, ptr, c_int]  # w, d, b, loss
    tail = [ptr, ptr, c_int64, c_double, c_double, c_int]  # y, order, m, lr, l2, fit_intercept
    lib.glm_epoch_dense.argtypes = [*head, ptr, c_int64, c_int64, c_int64, *tail]
    lib.glm_epoch_sparse.argtypes = [*head, ptr, ptr, ptr, c_int64, c_int64, *tail]
    lib.glm_csr_dot.argtypes = [ptr, ptr, ptr, c_int64, c_int64, ptr, c_int64, ptr]
    # payload bytes, size, sparse, n_features: no argtypes, so the C ints
    # cost no conversion (the call is once per pool miss)
    lib.columnar_header.restype = c_int
    # spans (address, size per page), k, sparse, n_features, plan, outs
    lib.columnar_run.argtypes = [ptr, c_int64, c_int, c_int64, ptr, ptr]
    # indptr, n, nnz, rows, m, out_indptr (+ indices, data, out_indices, out_data)
    lib.csr_gather_plan.argtypes = [ptr, c_int64, c_int64, ptr, c_int64, ptr]
    lib.csr_gather_copy.argtypes = [ptr, c_int64, c_int64, ptr, c_int64, ptr, ptr, ptr, ptr, ptr]
    for fn in (lib.glm_epoch_dense, lib.glm_epoch_sparse, lib.glm_csr_dot,
               lib.columnar_run, lib.csr_gather_copy):
        fn.restype = c_int
    lib.csr_gather_plan.restype = c_int64
    return lib


LIB = _load()
