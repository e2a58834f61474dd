"""Paths and environment facts shared by the benchmark's entry points.

The benchmark runs from the root of a source checkout and imports
``ncu2`` from ``src/`` in that checkout, never from an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


class MissingSource(RuntimeError):
    pass


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on sys.path, or fail."""
    if not (SRC / "ncu2" / "__init__.py").is_file():
        raise MissingSource(f"no ncu2 source under {SRC}; run from a checkout of the repository")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def git_sha():
    import subprocess

    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    """Versions and machine facts recorded with every result."""
    import importlib.util
    import platform

    import numpy
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "sympy_ground_types": GROUND_TYPES,
        "numpy": numpy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "flint": importlib.util.find_spec("flint") is not None,
        "nproc": os.cpu_count(),
    }
