"""Modified Bessel functions used by the kernel evaluations.

K_0/K_1 are needed on the right half plane Re z > 0 only (every kernel
argument has the form -i sqrt(lambda) |x| with Im sqrt(lambda) > 0), and
``bessel_k_array`` is their one evaluator: real arrays take scipy's k0/k1,
complex ones the AMOS kv.  I_0/I_1 arrays serve the Martensen-Kussmaul
splitting; the ladders I_0..I_p and K_0..K_p (``_i_orders``, ``_k_orders``,
the latter by recurrence from K_0/K_1) serve Graf's expansion in ``bie``;
integer-order I_n/K_n on the positive reals back the circle
diagonalization oracle.  The test fixtures pin both K paths, the I_0/I_1
arrays and the integer orders against an independent 40-digit oracle.

This lowest layer also owns the package's one thread pool, sized by THREADS.
Bessel arrays longer than one chunk are split into equal chunks, a whole
number of them per worker, and evaluated on it; ``bie`` runs its kernel-sum
rows and its MK assembly's triangle (I_0, K_0 and the weights in one pass,
``bie._MK_PAIRS``), and ``dirac`` its Phi M3 rows and the K_0/K_1 of its near
probes (one order per task), through the same slicing rule and submit
helper.  The ufuncs are elementwise and release the GIL, so
the chunks run in parallel and the result does not depend on how the array
is split.  A call made inside a pool task runs inline, so no task ever waits
on the pool.  Pool tasks make no BLAS call: OpenBLAS's helper threads would
compete with the workers for the cores, and the kernel sums' bits would
depend on the BLAS thread count.

BLAS calls on the calling thread (eigensolves, solves, Gram products) run
serially too: every public call runs inside ``_serial_blas``, which sets the
OpenBLAS builds mapped into the process (numpy's and scipy's) to one thread
for the span of the outermost call and restores their previous counts when
it ends, also by an exception.  A threaded BLAS call would leave its helper
threads spinning on the cores the pool needs next, and would make LAPACK's
last bits depend on OPENBLAS_NUM_THREADS; with the scope they do not.  Where
no OpenBLAS with ``openblas_set_num_threads_local`` is found (another BLAS,
OpenBLAS before 0.3.27, no /proc/self/maps), the scope does nothing.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import special as sp

from . import _threads
from .errors import DomainError

#: |z| beyond which K_j underflows to an exact zero (e^-700 < 1e-304).
OVERFLOW_RADIUS = 700.0

EULER_GAMMA = float(np.euler_gamma)


# ---------------------------------------------------------------------------
# the thread pool


def _workers() -> int:
    """Size of the pool: THREADS capped by the usable cores, else the usable
    cores."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cores = os.cpu_count() or 1
    threads = _threads()
    return cores if threads is None else min(threads, cores)


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
# serial BLAS on the calling thread


@functools.cache
def _blas_setters() -> tuple:
    """``openblas_set_num_threads_local`` of each OpenBLAS build mapped into
    the process, after scipy.linalg has mapped its own; () where there is
    none.  The call returns the previous count and, in the pthreads builds
    numpy and scipy ship, sets the count of the whole process."""
    import ctypes

    import scipy.linalg  # noqa: F401

    try:
        with open("/proc/self/maps") as fh:
            rows = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    paths = {row[5].strip() for row in rows if len(row) == 6}
    setters = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        setters.append(setter)
    return tuple(setters)


#: guards ``_blas_depth`` and ``_blas_saved``
_blas_lock = threading.Lock()
#: number of ``_serial_blas`` scopes open in the process, on any thread
_blas_depth = 0
#: the counts the first open scope replaced, one per setter
_blas_saved: list[int] = []


@contextlib.contextmanager
def _serial_blas():
    """One OpenBLAS thread in the process while any scope is open.

    The first scope to open sets every build to 1 thread; the last to close
    restores the counts from before, also when it closes by an exception and
    when scopes on several threads overlap.
    """
    global _blas_depth, _blas_saved
    setters = _blas_setters()
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved = [setter(1) for setter in setters]
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for setter, count in zip(setters, _blas_saved):
                    setter(count)


# ---------------------------------------------------------------------------
# Bessel arrays

#: most elements per Bessel-array chunk: a chunk's complex arrays are 1 MB
#: each.  The ufuncs are elementwise, so how an array is split does not
#: change a bit of the output.  ``bie`` slices its kernel sums by its own
#: ``_SUM_PAIRS``.
_CHUNK = 1 << 16


def _even_slices(size: int, chunk: int) -> list[slice]:
    """Consecutive slices covering range(size): one if size <= chunk, else
    workers * ceil(size / (workers * chunk)) of nearly equal length, so that
    every worker gets the same share and no slice exceeds chunk."""
    if size <= chunk:
        return [slice(0, size)]
    workers = _workers()
    n = workers * -(-size // (workers * chunk))
    bounds = [size * i // n for i in range(n + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _chunked(z: np.ndarray, dtype, body) -> np.ndarray:
    """An array shaped like z, filled by body(z[s], out[s]) for s running over
    ``_even_slices`` of the flattened arrays; a ufunc takes out[s] as its
    output argument."""
    flat = z.reshape(-1)
    out = np.empty(z.shape, dtype=dtype)
    out_flat = out.reshape(-1)
    _run_chunks(lambda s: body(flat[s], out_flat[s]), _even_slices(flat.size, _CHUNK))
    return out


def bessel_k_array(order: int, z: np.ndarray) -> np.ndarray:
    """Vectorized K_0/K_1 on the right half plane; underflow flushes to 0.

    Real inputs take the real fast path.  Raises DomainError for an order
    other than 0 or 1, or where Re z <= 0.
    """
    if order not in (0, 1):
        raise DomainError(f"bessel_k_array evaluates orders 0 and 1, got {order}")
    z = np.asarray(z)
    real = np.isrealobj(z)
    ufunc = (sp.k0, sp.k1)[order] if real else functools.partial(sp.kv, order)

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


#: most terms of the multiplication-theorem series; past this, K_0/K_1 by
#: ``bessel_k_array`` cost about as much
_MULTIPLICATION_MAX_TERMS = 24


def _multiplication_terms(mu: complex, w_min: float, w_max: float) -> int | None:
    """Terms of ``_k01_multiplication`` that give K_0/K_1(mu w) to about one
    unit roundoff for w_min <= |w| <= w_max, or None where the series does not
    pay or cannot be trusted.

    The ratio of term k+1 to term k is at most q + s/(k+1), with q = |1 - mu^2|
    and s = q w_max / 2 (from the recurrence and |K_(n-1)/K_n| <= 1), and the
    first term exceeds the sum by about e^s at most.  None when that bound
    needs more than _MULTIPLICATION_MAX_TERMS terms, when |w| or |mu w|
    reaches the overflow radius (K_j flushes to 0 there), or when the highest
    order would overflow at w_min.
    """
    if max(1.0, abs(mu)) * w_max >= OVERFLOW_RADIUS:
        return None
    q = abs(1 - mu * mu)
    s = q * w_max / 2
    eps = np.finfo(float).eps / 2
    bound = math.exp(s)  # on |term n| / |sum|
    for n in range(1, _MULTIPLICATION_MAX_TERMS):
        bound *= q + s / n
        ratio = q + s / (n + 1)
        if ratio < 1 and bound / (1 - ratio) <= eps:
            if math.lgamma(n + 1) + (n + 1) * math.log(max(2 / w_min, 1.0)) >= 700:
                return None
            return n
    return None


def _k01_multiplication(mu: complex, w: np.ndarray, k0: np.ndarray, k1: np.ndarray,
                        terms: int, out0: np.ndarray, out1: np.ndarray) -> None:
    """Write K_0(mu w) into out0 and K_1(mu w) into out1, from k_j = K_j(w),
    by the multiplication theorem (DLMF 10.44.2):
    K_nu(mu w) = mu^nu sum_k t^k/k! K_(nu+k)(w) with t = (1 - mu^2) w / 2,
    summed over k < terms.

    The higher orders come from the upward recurrence
    K_(k+1) = K_(k-1) + (2k/w) K_k, which is stable for K, run on the terms
    a_k = t^k/k! K_k and b_k = t^k/k! K_(k+1) themselves:
    a_(k+1) = t/(k+1) b_k and b_(k+1) = t/(k+1) a_k + (1 - mu^2) b_k.
    Elementwise, with no BLAS call; k0 and k1 are not modified.
    """
    q = 1 - mu * mu
    np.copyto(out0, k0)
    np.copyto(out1, k1)
    a, b = k0.copy(), k1.copy()
    t_k, a_next = np.empty_like(a), np.empty_like(a)
    for k in range(1, terms):
        np.multiply(w, q / (2 * k), out=t_k)  # t/k
        np.multiply(t_k, b, out=a_next)
        b *= q
        a *= t_k
        b += a
        a, a_next = a_next, a
        out0 += a
        out1 += b
    out1 *= mu


def _k_orders(top: int, z: np.ndarray):
    """K_0(z), K_1(z), ..., K_top(z), one array at a time: K_0 and K_1 by
    ``bessel_k_array``, the higher orders by the upward recurrence
    K_(n+1) = K_(n-1) + (2n/z) K_n, which is stable for K.  A point costs
    two Bessel evaluations whatever the order.  Elementwise, with no BLAS
    call."""
    prev, cur = bessel_k_array(0, z), bessel_k_array(1, z)
    yield prev
    for n in range(1, top + 1):
        yield cur
        if n < top:
            prev, cur = cur, prev + (2 * n / z) * cur


def _i_orders(top: int, z: np.ndarray) -> np.ndarray:
    """I_0(z), ..., I_top(z) as the rows of a (top + 1, len(z)) array, each
    order by its own evaluation; real z takes the real path."""
    with np.errstate(under="ignore"):
        return sp.iv(np.arange(top + 1)[:, None], np.asarray(z)[None, :])


def bessel_i_array(order: int, z: np.ndarray) -> np.ndarray:
    """Vectorized I_0/I_1; caller must keep |Re z| below the overflow radius.

    Raises DomainError for an order other than 0 or 1.
    """
    if order not in (0, 1):
        raise DomainError(f"bessel_i_array evaluates orders 0 and 1, got {order}")
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
