"""Deterministic fault-injection helpers shared by tests and benches.

Shipped inside the package (rather than under ``tests/``) so the chaos
benchmark and external integration harnesses can inject the same faults
the test suite does.  Nothing here is imported by production code paths.
"""

from repro.testing.faults import (
    CallTrigger,
    FaultyExecute,
    FaultySocket,
    InjectedFault,
)

__all__ = [
    "CallTrigger",
    "FaultyExecute",
    "FaultySocket",
    "InjectedFault",
]
