"""Process environment of the end-to-end benchmark.

Every benchmark process (``run.py``, ``server_main.py``) calls
:func:`prepare` before importing numpy or ``repro``: it pins the BLAS /
OpenMP pools to one thread -- the box has two cores, one for the program
and one for the load generator -- and puts the checkout's ``src`` on
``sys.path`` so the command needs no ``PYTHONPATH``.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Thread pools pinned to one thread in every benchmark process.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def prepare() -> None:
    """Pin thread pools and make ``repro`` importable from the checkout.

    Exits with code 2 when the checkout holds no ``src/repro``: the
    benchmark measures the program, and without it there is nothing to
    measure.
    """
    os.environ.update(THREAD_PINS)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"benchmark: no program to measure: {source / 'repro'} is missing",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB.

    Read from ``VmHWM``, the peak of the address space this program has
    had since ``exec``.  ``ru_maxrss`` is not used where that exists: it
    also carries the footprint of whichever process forked this one, so
    a small program spawned by a large parent would report the parent.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """User + system CPU seconds this process has consumed."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas_version() -> str:
    import numpy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def describe() -> dict[str, Any]:
    """The machine and software a result was measured on."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_version(),
        "thread_pins": dict(THREAD_PINS),
        "git_commit": _git_commit(),
    }
