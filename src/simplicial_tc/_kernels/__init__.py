"""The contiguity kernel: pure.py is its one implementation.

The names below are stubs.  The benchmark in e2ebench/ still reads them for
its run metadata and its tracing table; they can go once it stops.
"""

from __future__ import annotations

from . import pure

_fast = None  # stub: there is no compiled kernel; e2ebench/tracing.py reads this name


def available_backends() -> tuple[str, ...]:
    """Stub for the benchmark's run metadata: the one kernel is pure."""
    return ("pure",)


def select(n_codomain: int):
    """Stub for the benchmark's run metadata: pure serves every codomain size."""
    return pure
