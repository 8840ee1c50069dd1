"""One BLAS thread per call, set by the program whatever loaded numpy, and
the record of which OpenBLAS kernels run.

Importing :mod:`nsn` sets the BLAS thread variables, but OpenBLAS reads
them only when numpy loads, so a program that imported numpy first keeps
OpenBLAS's default count. :func:`one_blas_thread` finds the OpenBLAS this
process loaded and sets its count to 1 directly. :func:`kernels` reports
that OpenBLAS's version and the core whose kernels it picked at run time:
results are bitwise reproducible only on the same kernel set.
"""

from __future__ import annotations

import ctypes
from functools import cache
from typing import Callable, NamedTuple

from .errors import ConfigError


def _symbol() -> Callable[[str], Callable] | None:
    """Lookup of the loaded OpenBLAS's functions by their unprefixed name
    ("get_num_threads"), for the library found in this process's memory
    maps; None when none is loaded."""
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
                if getattr(lib, f"{prefix}_get_num_threads{suffix}", None):
                    return lambda name: getattr(lib, f"{prefix}_{name}{suffix}")
    return None


def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of the OpenBLAS this process
    loaded; None when none is loaded."""
    symbol = _symbol()
    if symbol is None:
        return None
    get, put = symbol("get_num_threads"), symbol("set_num_threads")
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


class Kernels(NamedTuple):
    version: str  # e.g. "0.3.31.188.0"
    core: str     # the core whose kernels run, e.g. "SkylakeX", "Haswell"


def kernels() -> Kernels | None:
    """The loaded OpenBLAS's version and the core it picked its kernels
    for at run time (``OPENBLAS_CORETYPE`` overrides the pick), from its
    ``get_config`` and ``get_corename``; None when no OpenBLAS is loaded."""
    symbol = _symbol()
    if symbol is None:
        return None
    config, corename = symbol("get_config"), symbol("get_corename")
    for fn in (config, corename):
        fn.argtypes, fn.restype = [], ctypes.c_char_p
    # "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH ... SkylakeX ..."
    version = config().decode("ascii", "replace").split()[1]
    return Kernels(version, corename().decode("ascii", "replace").strip())


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
