"""One BLAS thread per call, set by the program whatever loaded numpy.

Importing :mod:`nsn` sets the BLAS thread variables, but OpenBLAS reads
them only when numpy loads, so a program that imported numpy first keeps
OpenBLAS's default count. :func:`one_blas_thread` finds the OpenBLAS this
process loaded and sets its count to 1 directly.
"""

from __future__ import annotations

import ctypes
from functools import cache
from typing import Callable

from .errors import ConfigError


def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of the OpenBLAS this process
    loaded, found in its memory maps; None when none is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[-1].rstrip() for line in fh
                     if "openblas" in line}
    except OSError:
        return None
    for path in sorted(p for p in paths if ".so" in p):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", "_64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is None or put is None:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@cache
def one_blas_thread() -> None:
    """Set the loaded OpenBLAS to one thread, once per process: fixed seeds
    give bitwise-reproducible runs only with a fixed summation order. With
    no OpenBLAS loaded, the variables set on import are all there is. A
    count that does not read 1 once set is a :class:`ConfigError`."""
    found = _openblas()
    if found is None:
        return
    get, put = found
    put(1)
    threads = get()
    if threads != 1:
        raise ConfigError(f"OpenBLAS runs {threads} threads and could not "
                          f"be set to 1")
