"""The machine a result was measured on, recorded with every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

__all__ = ["cpu_steal", "fingerprint"]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> dict[str, object]:
    """Vendor, version and the thread count the BLAS will actually use.

    The thread count is read from the loaded OpenBLAS, never set: the
    benchmark runs with the library default.
    """
    import numpy

    info: dict[str, object] = {"vendor": "unknown", "version": "unknown", "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = blas.get("name", "unknown")
        info["version"] = blas.get("version", "unknown")
    except (KeyError, TypeError):
        pass
    libs_dir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = int(getter())
                return info
    return info


def fingerprint() -> dict[str, object]:
    import numpy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas": _blas(),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }


def cpu_steal() -> tuple[float, float] | None:
    """``(steal, total)`` CPU time of the machine so far, in clock ticks.

    Steal is time the hypervisor gave this machine's virtual CPUs to
    someone else.  None where ``/proc/stat`` has no steal column.
    """
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if fields[:1] != ["cpu"] or len(fields) < 9:
        return None
    ticks = [float(value) for value in fields[1:9]]
    return ticks[7], sum(ticks)
