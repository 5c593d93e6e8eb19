"""Modified Bessel functions used by the kernel evaluations.

Complex K_0/K_1 are needed on the right half plane Re z > 0 only (every
kernel argument has the form -i sqrt(lambda) |x| with Im sqrt(lambda) > 0);
integer-order I_n/K_n on the positive reals back the circle diagonalization
oracle.  Evaluation is delegated to the AMOS routines behind a domain-checked
surface; accuracy against an independent high-precision oracle is pinned in
the test fixtures.

This lowest layer also owns the package's one thread pool, sized by THREADS.
Bessel arrays longer than one chunk are evaluated chunk by chunk on it, and
``bie`` runs its kernel sums through the same submit helper.  The ufuncs are
elementwise and release the GIL, so the chunks run in parallel and the result
does not depend on the pool size.  A call made inside a pool task runs
inline, so no task ever waits on the pool.  Pool tasks make no BLAS call:
OpenBLAS's helper threads would compete with the workers for the cores, and
the kernel sums' bits would depend on the BLAS thread count.
"""

from __future__ import annotations

import functools
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import special as sp

from .errors import ConfigurationError, DomainError

#: |z| beyond which K_j underflows to an exact zero (e^-700 < 1e-304).
OVERFLOW_RADIUS = 700.0

EULER_GAMMA = float(np.euler_gamma)


class BesselUnderflowWarning(RuntimeWarning):
    """K_j(z) flushed to zero because |z| exceeds the overflow radius."""


def bessel_k(order: int, z: complex) -> complex:
    """K_0(z) or K_1(z) for a single complex argument with Re z > 0.

    |z| > OVERFLOW_RADIUS returns 0 and emits BesselUnderflowWarning.
    """
    if order not in (0, 1):
        raise DomainError(f"order must be 0 or 1, got {order}")
    z = complex(z)
    if z.real <= 0:
        raise DomainError(f"bessel_k requires Re z > 0, got z={z}")
    if abs(z) > OVERFLOW_RADIUS:
        warnings.warn(
            f"K_{order}({z}) underflows; returning 0", BesselUnderflowWarning,
            stacklevel=2,
        )
        return 0j
    return complex(sp.kv(order, z))


# ---------------------------------------------------------------------------
# the thread pool


def _workers() -> int:
    """Size of the pool: THREADS capped by the usable cores, else the usable
    cores."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cores = os.cpu_count() or 1
    threads = os.environ.get("THREADS")
    if not threads:
        return cores
    try:
        n = int(threads)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigurationError(f"THREADS must be a positive integer, got {threads!r}")
    return min(n, cores)


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The workers, created on first use.  Numpy and scipy.special ufuncs
    release the GIL, so the tasks run in parallel."""
    return ThreadPoolExecutor(max_workers=_workers(), thread_name_prefix="obliqueshell")


#: per-thread flag, set while the thread runs a task of ``_run_chunks``
_in_task = threading.local()


def _marked(fn, item) -> None:
    _in_task.active = True
    try:
        fn(item)
    finally:
        _in_task.active = False


def _run_chunks(fn, items: list) -> None:
    """fn(item) for every item, on the pool.  One item, or a call from inside
    a pool task, runs inline on the calling thread: a task that waited on
    the pool could wait for itself."""
    if len(items) <= 1 or getattr(_in_task, "active", False):
        for item in items:
            fn(item)
        return
    list(_pool().map(functools.partial(_marked, fn), items))


# ---------------------------------------------------------------------------
# Bessel arrays

#: elements per Bessel-array chunk.  Fixed, so that the chunking, and with it
#: every bit of the output, is the same whatever the pool size; each chunk's
#: temporaries stay about 1 MB.
_CHUNK = 1 << 16


def _chunked(z: np.ndarray, dtype, body) -> np.ndarray:
    """An array shaped like z, filled by body(z[s], out[s]) for s running over
    consecutive _CHUNK-element slices of the flattened arrays; a ufunc takes
    out[s] as its output argument."""
    flat = z.reshape(-1)
    out = np.empty(z.shape, dtype=dtype)
    out_flat = out.reshape(-1)
    _run_chunks(lambda s: body(flat[s], out_flat[s]),
                [slice(lo, lo + _CHUNK) for lo in range(0, flat.size, _CHUNK)])
    return out


def bessel_k_array(order: int, z: np.ndarray) -> np.ndarray:
    """Vectorized K_0/K_1 on the right half plane; underflow flushes to 0.

    Real inputs take the real fast path.  No domain checks beyond Re z > 0.
    """
    z = np.asarray(z)
    real = np.isrealobj(z)
    if real:
        ufunc = sp.k0 if order == 0 else sp.k1
    else:
        ufunc = functools.partial(sp.kv, order)

    def body(zc: np.ndarray, dest: np.ndarray) -> None:
        if np.any(np.real(zc) <= 0):
            raise DomainError("bessel_k_array requires Re z > 0 everywhere")
        big = np.abs(zc) > OVERFLOW_RADIUS
        flush = big.any()
        with np.errstate(under="ignore"):
            ufunc(np.where(big, 1.0, zc) if flush else zc, out=dest)
        if flush:
            dest[big] = 0.0

    return _chunked(z, float if real else complex, body)


def bessel_i_array(order: int, z: np.ndarray) -> np.ndarray:
    """Vectorized I_0/I_1; caller must keep |Re z| below the overflow radius."""
    z = np.asarray(z)
    if np.isrealobj(z):
        return _chunked(z, float, sp.i0 if order == 0 else sp.i1)
    return _chunked(z, complex, functools.partial(sp.iv, order))


def bessel_ik_int(order: int, x: float) -> tuple[float, float]:
    """(I_n(x), K_n(x)) for integer n >= 0 and real x > 0."""
    if order < 0 or order > 200:
        raise DomainError(f"order must be in 0..200, got {order}")
    if not x > 0:
        raise DomainError(f"bessel_ik_int requires x > 0, got {x}")
    with np.errstate(under="ignore"):
        iv = float(sp.iv(order, x))
        kv = float(sp.kv(order, x))
    return iv, kv
