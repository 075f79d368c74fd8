"""Shared bench-honesty helpers: environment stamping and grading.

Every ``BENCH_*.json`` writer stamps its payload with
:func:`bench_environment` so a recorded number can never be read out of
context: the host's ``cpu_count``, whether it ran on CI, and —
crucially — an explicit ``graded`` flag.  ``graded:
false`` says the run happened somewhere the bench's real speedup bar
was *not* applied (a CI runner or a core-starved container, where a
parallelism win physically cannot express itself) and only a sanity
floor was asserted; silently passing a softened bar and recording the
number as if it were graded is exactly the dishonesty this module
exists to remove.

:func:`is_graded` is the one definition of "this host gets the real
bar" shared by every bench, so the assertion grading and the recorded
flag cannot drift apart.
"""

import os

__all__ = ["bench_environment", "is_graded"]


def is_graded(min_cores: int = 4) -> bool:
    """Whether this host gets the bench's real (ungraded-down) perf bar.

    CI runners are shared and noisy; hosts under ``min_cores`` cores
    cannot express a parallel speedup at all.  Both get sanity floors,
    and their recorded numbers are flagged ``graded: false``.
    """
    if os.environ.get("CI"):
        return False
    return (os.cpu_count() or 1) >= min_cores


def bench_environment(min_cores: int = 4) -> dict:
    """The honesty fields every ``BENCH_*.json`` payload must carry.

    ``graded`` records whether the run's perf assertion used the real
    bar (see :func:`is_graded`).
    """
    return {
        "cpu_count": os.cpu_count(),
        "ci": bool(os.environ.get("CI")),
        "graded": is_graded(min_cores),
    }
