import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from obliqueshell import bie, geometry, specfun
from obliqueshell.errors import DomainError
from obliqueshell.kernels import DiracParameter, SpectralParameter


def _k_on_its_path(entries):
    """(bessel_k_array values, oracle values) at the K entries given: the
    entries with real z go in as one real array per order, the real k0/k1
    path, and the rest as one complex array per order, the kv path."""
    got, ref = [], []
    for order in (0, 1):
        for real in (True, False):
            group = [e for e in entries if e["order"] == order and (e["z"][1] == 0) == real]
            z = np.array([complex(*e["z"]) for e in group])
            values = specfun.bessel_k_array(order, z.real if real else z)
            assert np.isrealobj(values) == real
            got.append(values)
            ref.append(np.array([complex(*e["value"]) for e in group]))
    return np.concatenate(got), np.concatenate(ref)


def test_frozen_oracle_k(bessel_oracle):
    entries = bessel_oracle["k"]
    assert sum(e["z"][1] == 0 for e in entries) == 26 and len(entries) == 146
    got, ref = _k_on_its_path(entries)
    assert np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref))


def test_frozen_oracle_ik(bessel_oracle):
    for e in bessel_oracle["ik"]:
        iv, kv = specfun.bessel_ik_int(e["order"], e["x"])
        if e["i"] != 0:
            assert abs(iv - e["i"]) <= 1e-10 * abs(e["i"])
        if e["k"] != 0:
            assert abs(kv - e["k"]) <= 1e-10 * abs(e["k"])


def test_frozen_oracle_i_arrays(bessel_oracle):
    # the I_0/I_1 arrays of the Martensen-Kussmaul splitting, on the real
    # i0/i1 path and the complex iv path
    seen = 0
    for order in (0, 1):
        group = [e for e in bessel_oracle["ik"] if e["order"] == order]
        x = np.array([e["x"] for e in group])
        ref = np.array([e["i"] for e in group])
        for arg in (x, x.astype(complex)):
            got = specfun.bessel_i_array(order, arg)
            assert np.isrealobj(got) == np.isrealobj(arg)
            assert np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref)), (order, arg.dtype)
        seen += len(group)
    assert seen == 8


def test_real_positive_values():
    x = np.array([1e-6, 0.3, 1.0, 5.0, 50.0])
    for order in (0, 1):
        v = specfun.bessel_k_array(order, x)
        assert v.dtype == float and np.all(v > 0)


def test_k1_derivative_identity():
    # K1'(z) = -K0(z) - K1(z)/z, via Richardson-extrapolated central stencils
    rng = np.random.default_rng(7)
    z = np.array([complex(rng.uniform(0.5, 20), rng.uniform(-5, 5)) for _ in range(20)])
    hs = [0.05, 0.025, 0.0125]
    d = [(specfun.bessel_k_array(1, z + h) - specfun.bessel_k_array(1, z - h)) / (2 * h)
         for h in hs]
    # two Richardson steps remove the h^2 and h^4 error terms
    d1 = [(4 * d[i + 1] - d[i]) / 3 for i in range(2)]
    deriv = (16 * d1[1] - d1[0]) / 15
    ref = -specfun.bessel_k_array(0, z) - specfun.bessel_k_array(1, z) / z
    assert np.all(np.abs(deriv - ref) <= 1e-10 * np.abs(ref)), z


def test_conjugate_symmetry():
    rng = np.random.default_rng(11)
    z = np.array([10 ** rng.uniform(-3, 2) * np.exp(1j * rng.uniform(-1.3, 1.3))
                  for _ in range(100)])
    for order in (0, 1):
        a = specfun.bessel_k_array(order, np.conj(z))
        b = np.conj(specfun.bessel_k_array(order, z))
        assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(b), 1e-300))


def test_conjugate_symmetry_is_exact_on_kernel_arguments(kite):
    # the Dirac layer takes the (zbar, lambdabar) side's K_0/K_1 as the
    # conjugates of the (z, lambda) side's, so kappa and kv must be
    # conjugate-symmetric bit for bit on every argument kappa r it meets there
    g = geometry.grid(kite, 128)
    vol = bie.make_volume_grid(3 * kite.diameter, 48)
    r = np.linalg.norm(vol.points[:, None, :] - g.points[None, :, :], axis=-1).ravel()
    params = [(SpectralParameter.make(lam), SpectralParameter.make(np.conj(lam)))
              for lam in (1j, 1 + 2j)]
    for c in (8.0, 64.0, 256.0):
        dp = DiracParameter.shifted(1j, c)
        params.append((dp, DiracParameter.make(np.conj(dp.lam), c)))
    for p, p_bar in params:
        assert p_bar.kappa == np.conj(p.kappa)
        z = p.kappa * r
        for order in (0, 1):
            a = specfun.bessel_k_array(order, np.conj(z))
            b = np.conj(specfun.bessel_k_array(order, z))
            assert np.array_equal(a, b), (p.kappa, order)


def test_overlap_annulus_continuity(bessel_oracle):
    # values across the small/large-argument regimes agree with the frozen
    # high-precision oracle to 1e-9 in the annulus 8.5 <= |z| <= 9.5
    entries = [e for e in bessel_oracle["k"] if 8.5 <= abs(complex(*e["z"])) <= 9.5]
    got, ref = _k_on_its_path(entries)
    assert np.all(np.abs(got - ref) <= 1e-9 * np.abs(ref))
    assert len(entries) >= 20


def test_decay_envelope():
    # |K_j(z)| <= C/|z| for |z| < 1 and <= C e^{-Re z / 2} for |z| >= 1
    C = 5.0
    for arg in (-np.pi / 5, 0.0, np.pi / 5):
        direction = np.exp(1j * arg)
        small = np.array([0.01, 0.1, 0.5, 0.99]) * direction
        large = np.array([1.0, 3.0, 10.0, 50.0, 200.0]) * direction
        for order in (0, 1):
            assert np.all(np.abs(specfun.bessel_k_array(order, small)) <= C / np.abs(small))
            assert np.all(np.abs(specfun.bessel_k_array(order, large))
                          <= C * np.exp(-large.real / 2))


def test_wronskian():
    for x in (0.5, 1.0, 10.0):
        for n in range(21):
            i_n, k_n = specfun.bessel_ik_int(n, x)
            i_n1, k_n1 = specfun.bessel_ik_int(n + 1, x)
            w = i_n * k_n1 + i_n1 * k_n
            assert abs(w - 1.0 / x) <= 1e-10 / x


def test_log_singularity_at_zero():
    # K0(z) + ln(z/2) approaches -EulerGamma monotonically from above
    xs = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    vals = specfun.bessel_k_array(0, xs) + np.log(xs / 2)
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] == pytest.approx(-specfun.EULER_GAMMA, abs=1e-10)


def test_i0_near_zero():
    iv, _ = specfun.bessel_ik_int(0, 1e-6)
    assert abs(iv - 1.0) <= 1e-11


def test_domain_errors_and_underflow():
    with pytest.raises(DomainError):
        specfun.bessel_k_array(0, np.array([-1.0]))
    with pytest.raises(DomainError):
        specfun.bessel_k_array(0, np.array([1j]))  # Re z = 0
    # orders other than 0 and 1, on the real and the complex path: the real
    # paths used to return K_1 and I_1, the complex ones K_2 and I_2
    for evaluate in (specfun.bessel_k_array, specfun.bessel_i_array):
        for order in (2, -1):
            for z in (np.array([1.0]), np.array([1.0 + 0j])):
                with pytest.raises(DomainError, match=f"orders 0 and 1, got {order}"):
                    evaluate(order, z)
    with pytest.raises(DomainError):
        specfun.bessel_ik_int(0, -1.0)
    with pytest.raises(DomainError):
        specfun.bessel_ik_int(300, 1.0)
    assert np.all(specfun.bessel_k_array(0, np.array([800.0, 800.0 + 1j])) == 0)


def _multi_chunk_arguments(shape):
    """Real and complex right-half-plane arguments of the given shape."""
    rng = np.random.default_rng(7)
    x = rng.uniform(1e-3, 40.0, shape)
    z = x * np.exp(1j * rng.uniform(-1.5, 1.5, x.shape))
    return x, z


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_chunked_bessel_arrays_equal_the_whole_array_ufunc(workers, monkeypatch):
    # the chunks run on the pool and write into one output: bit for bit the
    # ufunc on the whole array, whatever the pool size (4 > cores).  Shapes:
    # 3.8 chunks, 2-d; the correction's 576 x 128 and the gap study's
    # 2304 x 128 probe-node arrays, split evenly into 2 and 6 chunks on 2 workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        monkeypatch.setattr(specfun, "_pool", lambda: pool)
        for shape in [(5, 49807), (576, 128), (2304, 128)]:
            _check_chunked_bessel_arrays(*_multi_chunk_arguments(shape))


def _check_chunked_bessel_arrays(x, z):
    refs = {("k", 0, "real"): special.k0(x), ("k", 1, "real"): special.k1(x),
            ("k", 0, "complex"): special.kv(0, z), ("k", 1, "complex"): special.kv(1, z),
            ("i", 0, "real"): special.i0(x), ("i", 1, "real"): special.i1(x),
            ("i", 0, "complex"): special.iv(0, z), ("i", 1, "complex"): special.iv(1, z)}
    for (kind, order, field), ref in refs.items():
        fn = specfun.bessel_k_array if kind == "k" else specfun.bessel_i_array
        got = fn(order, x if field == "real" else z)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes(), (kind, order, field, x.shape)

    # an element beyond the overflow radius, in the last chunk, is 0
    far = z.copy()
    far.flat[-3] = 800.0 + 1.0j
    got = specfun.bessel_k_array(0, far)
    assert got.flat[-3] == 0
    mask = np.ones(far.size, dtype=bool)
    mask[-3] = False
    assert got.ravel()[mask].tobytes() == refs[("k", 0, "complex")].ravel()[mask].tobytes()

    # Re z <= 0 in the last chunk still raises
    for bad in (-1.0, 0.0):
        arg = x.copy()
        arg.flat[-11] = bad
        with pytest.raises(DomainError):
            specfun.bessel_k_array(1, arg)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("size", [0, 1, specfun._CHUNK, specfun._CHUNK + 1, 73728, 294912])
def test_even_slices_cover_the_array_in_equal_shares(size, threads, monkeypatch):
    # an array of at most one chunk stays whole; a longer one is cut into a
    # whole number of chunks per worker, of lengths that differ by at most 1
    monkeypatch.setenv("THREADS", threads)
    slices = specfun._even_slices(size, specfun._CHUNK)
    covered = np.concatenate([np.arange(size)[s] for s in slices])
    assert np.array_equal(covered, np.arange(size))
    lengths = [s.stop - s.start for s in slices]
    assert max(lengths) <= specfun._CHUNK and max(lengths) - min(lengths) <= 1
    if size <= specfun._CHUNK:
        assert len(slices) == 1
    else:
        assert len(slices) % specfun._workers() == 0


def test_run_chunks_waits_for_every_task_before_it_raises(monkeypatch):
    # item 1 raises at once while items 0 and 2 sleep: the error that reaches
    # the caller is the first in item order (item 0's), and no sibling is
    # still running when it does
    finished = []

    def task(item):
        if item == 1:
            raise ValueError("item 1")
        time.sleep(0.2)
        finished.append(item)
        if item == 0:
            raise KeyError("item 0")

    with ThreadPoolExecutor(max_workers=3) as pool:
        monkeypatch.setattr(specfun, "_pool", lambda: pool)
        with pytest.raises(KeyError, match="item 0"):
            specfun._run_chunks(task, [0, 1, 2])
        assert sorted(finished) == [0, 2]


def test_run_chunks_returns_in_item_order_inside_the_callers_scope(monkeypatch):
    # results come back in item order whichever task ends first, and every
    # task sees the block its caller kept in the call scope
    def task(item):
        time.sleep(0.02 * (3 - item))
        return item, bie._kept(("block",), object)

    with ThreadPoolExecutor(max_workers=4) as pool:
        monkeypatch.setattr(specfun, "_pool", lambda: pool)
        with bie._call():
            block = bie._kept(("block",), object)
            results = specfun._run_chunks(task, [0, 1, 2, 3])
    assert [item for item, _ in results] == [0, 1, 2, 3]
    assert all(kept is block for _, kept in results)


_NESTED_KERNEL_SUM = """
from concurrent.futures import ThreadPoolExecutor
import numpy as np
from obliqueshell import bie, specfun
from obliqueshell.kernels import SpectralParameter, kernel_U
with ThreadPoolExecutor(max_workers=1) as pool:
    specfun._pool = lambda: pool
    sources = np.stack([np.linspace(1, 2, 3 * specfun._CHUNK), np.zeros(3 * specfun._CHUNK)], -1)
    # one target per task; each task's kernel evaluates a 3-chunk Bessel array
    out = bie._kernel_sum(kernel_U, SpectralParameter.make(-1.0), -np.ones((4, 2)), sources,
                          np.ones(len(sources)))
print(np.isfinite(out).all() and len(out) == 4)
"""


def test_kernel_sum_tasks_with_multi_chunk_bessel_arrays_finish_on_one_worker():
    # a pool task that submitted its Bessel chunks to a one-worker pool would
    # wait for itself; in a subprocess, a deadlock fails by the timeout
    src = str(Path(specfun.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _NESTED_KERNEL_SUM], text=True,
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"
