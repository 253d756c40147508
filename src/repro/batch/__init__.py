"""Parallel batch triage of error reports (multiprocessing driver)."""

from .driver import BatchResult, TriageOutcome, triage_many

__all__ = [
    "BatchResult",
    "TriageOutcome",
    "triage_many",
]
