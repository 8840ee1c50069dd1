"""Summaries of timing samples, the machine record and the GEMM floor."""

from __future__ import annotations

import ctypes
import os
import platform
import re
import time

import numpy as np

PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def tail_percentile(count: int) -> float | None:
    """The highest of PERCENTILES with at least MIN_BEYOND samples beyond
    it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        if count * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            best = p
    return best


def percentile(samples, p: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), p))


def median(samples) -> float:
    return percentile(samples, 50.0)


def _openblas():
    """The OpenBLAS library numpy loaded, found in this process's maps."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = set(re.findall(r"\S*openblas\S*\.so\S*", fh.read()))
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", "_64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get is None:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                conf = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if conf is not None:
                    conf.argtypes, conf.restype = [], ctypes.c_char_p
                return get, conf
    return None, None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    """Core count, CPU, numpy and BLAS versions and the BLAS thread count
    in effect in this process."""
    get, conf = _openblas()
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "openblas_config": (conf().decode() if conf is not None
                            else "unknown"),
        "blas_threads": None if get is None else int(get()),
    }


def gemm_shapes(rows: int, dims) -> list[tuple[str, int, int, int]]:
    """(pass, M, K, N) of every GEMM in one forward and one backward pass
    of a model with layer widths ``dims`` on ``rows`` samples: "fwd" is
    x @ W.T, "wgrad" dz.T @ x for every layer, "igrad" dz @ W for every
    layer but the first."""
    out = []
    for i in range(len(dims) - 1):
        d_in, d_out = dims[i], dims[i + 1]
        out.append(("fwd", rows, d_in, d_out))
        out.append(("wgrad", d_out, rows, d_in))
        if i > 0:
            out.append(("igrad", rows, d_out, d_in))
    return out


def gemm_flops(shape) -> float:
    _, m, k, n = shape
    return 2.0 * m * k * n


def _operands(kind: str, m: int, k: int, n: int, rng):
    """Operands laid out as the program holds them; returns a thunk."""
    if kind == "fwd":        # x [M, K] @ W.T, W stored [N, K]
        a, b = rng.random((m, k), dtype=np.float32), rng.random(
            (n, k), dtype=np.float32)
        return lambda: a @ b.T
    if kind == "wgrad":      # dz.T @ x, dz stored [K, M]
        a, b = rng.random((k, m), dtype=np.float32), rng.random(
            (k, n), dtype=np.float32)
        return lambda: a.T @ b
    if kind == "igrad":      # dz [M, K] @ W, W stored [K, N]
        a, b = rng.random((m, k), dtype=np.float32), rng.random(
            (k, n), dtype=np.float32)
        return lambda: a @ b
    raise ValueError(f"unknown GEMM pass {kind!r}")


def gemm_floor(shapes, reps: int = 40, warmup: int = 3) -> dict:
    """Median milliseconds of one float32 GEMM per (pass, M, K, N), in the
    operand layout the program uses, measured in this process."""
    rng = np.random.default_rng(0)
    out = {}
    for shape in shapes:
        run = _operands(*shape, rng)
        times = []
        for i in range(warmup + reps):
            t = time.perf_counter()
            run()
            if i >= warmup:
                times.append(time.perf_counter() - t)
        out[shape] = median(times) * 1e3
    return out


PROBE_SHAPE = ("fwd", 128, 784, 784)


def probe_floor() -> float:
    """A re-measurement, in milliseconds, of the GEMM that dominates a
    step, taken between operations to see the machine's speed change."""
    return gemm_floor([PROBE_SHAPE])[PROBE_SHAPE]


def drift(samples) -> float:
    """How far apart the fastest and slowest of ``samples`` are, as a
    share of the fastest."""
    return max(samples) / min(samples) - 1.0


def shape_name(shape) -> str:
    kind, m, k, n = shape
    return f"{kind}.{m}x{k}x{n}"
