"""Deterministic fault injection for the resource-governance paths.

The batch driver's recovery logic (retry, backoff, quarantine, pool
rebuild) only runs when something goes wrong, so without a way to make
things go wrong *on demand* it would ship untested.  This module is
that switch: a single :class:`FaultSpec` names an action, the solver
stage whose first checkpoint should trigger it, and optionally the one
report it applies to.

Specs parse from ``ACTION[:ARG]@STAGE[@REPORT]``:

* ``raise@qe`` — raise :class:`FaultInjected` at the first qe tick;
* ``exhaust@msa`` — the governor raises :class:`ResourceExhausted`
  with ``kind="injected"`` (exercises the UNKNOWN_RESOURCE path);
* ``sleep:30@smt@p03_square`` — sleep 30s at the first smt tick, but
  only while triaging ``p03_square`` (exercises hang detection);
* ``kill@sat`` — SIGKILL the current process, but only when it has
  been marked as a batch worker; elsewhere it downgrades to ``raise``
  so a stray env var cannot kill a test runner or REPL.

Activation is either programmatic (:func:`install`, wins) or via the
``REPRO_FAULT`` environment variable — the env route is what lets the
CI matrix and the acceptance scenario inject faults into worker
processes without any API plumbing.  Each governor fires its fault at
most once, so a retried report fails again deterministically on every
attempt (that is what drives it into quarantine) while reports the
spec does not name are untouched.
"""

from __future__ import annotations

import os
import signal
import time
from contextvars import ContextVar
from dataclasses import dataclass

__all__ = [
    "FaultInjected",
    "FaultSpec",
    "active",
    "current_report",
    "fire",
    "in_worker",
    "install",
    "mark_worker",
    "matches",
    "parse_fault",
    "set_report",
]

_ENV_VAR = "REPRO_FAULT"
_ACTIONS = ("raise", "exhaust", "sleep", "kill")


class FaultInjected(RuntimeError):
    """The error a ``raise`` fault (or downgraded ``kill``) produces.

    Deliberately *not* a :class:`ResourceExhausted`: it models an
    arbitrary worker crash, so it must flow through the generic
    error-recovery path, not the graceful exhaustion path.
    """

    def __init__(self, stage: str):
        self.stage = stage
        super().__init__(f"injected fault at stage {stage!r}")


@dataclass(frozen=True)
class FaultSpec:
    action: str                  # raise | exhaust | sleep | kill
    stage: str                   # which solver checkpoint triggers it
    seconds: float = 0.0         # sleep duration (sleep action only)
    report: str | None = None    # restrict to one benchmark report

    def __str__(self) -> str:
        text = self.action
        if self.action == "sleep":
            text += f":{self.seconds:g}"
        text += f"@{self.stage}"
        if self.report is not None:
            text += f"@{self.report}"
        return text


def parse_fault(text: str) -> FaultSpec:
    """Parse ``ACTION[:ARG]@STAGE[@REPORT]`` into a :class:`FaultSpec`."""
    parts = text.strip().split("@")
    if len(parts) not in (2, 3) or not all(parts):
        raise ValueError(
            f"fault spec {text!r} is not ACTION[:ARG]@STAGE[@REPORT]"
        )
    head, stage = parts[0], parts[1]
    report = parts[2] if len(parts) == 3 else None
    action, _, arg = head.partition(":")
    if action not in _ACTIONS:
        raise ValueError(
            f"unknown fault action {action!r} (expected one of {_ACTIONS})"
        )
    seconds = 0.0
    if action == "sleep":
        if not arg:
            raise ValueError("sleep fault needs a duration: sleep:SECS@STAGE")
        seconds = float(arg)
    elif arg:
        raise ValueError(f"fault action {action!r} takes no argument")
    return FaultSpec(action=action, stage=stage, seconds=seconds,
                     report=report)


_installed: FaultSpec | None = None
_installed_explicitly = False
_worker = False

#: The report being triaged in this context (each serve worker thread
#: triages its own report, so the name cannot be process-global).
_report: ContextVar[str | None] = ContextVar(
    "repro.limits.faults.report", default=None)


def install(spec: FaultSpec | str | None) -> None:
    """Programmatically set (or with ``None`` clear) the active fault,
    overriding ``REPRO_FAULT``."""
    global _installed, _installed_explicitly
    if isinstance(spec, str):
        spec = parse_fault(spec)
    _installed = spec
    _installed_explicitly = spec is not None


def active() -> FaultSpec | None:
    """The fault spec governors should honor right now, if any."""
    if _installed_explicitly:
        return _installed
    text = os.environ.get(_ENV_VAR)
    if not text:
        return None
    return parse_fault(text)


def set_report(name: str | None) -> None:
    """Record which benchmark report this context is triaging, so
    report-scoped specs can match.  The batch worker sets this."""
    _report.set(name)


def current_report() -> str | None:
    return _report.get()


def mark_worker(flag: bool = True) -> None:
    """Flag this process as a disposable batch worker; only then may a
    ``kill`` fault actually SIGKILL it."""
    global _worker
    _worker = flag


def in_worker() -> bool:
    return _worker


def matches(spec: FaultSpec, stage: str) -> bool:
    """Should ``spec`` trigger at a checkpoint of ``stage`` here?"""
    if spec.stage != stage:
        return False
    return spec.report is None or spec.report == _report.get()


def fire(spec: FaultSpec) -> None:
    """Execute a matched ``raise``/``kill`` fault (``exhaust`` and
    ``sleep`` are handled inside the governor, which owns the
    ResourceExhausted/deadline machinery)."""
    if spec.action == "raise":
        raise FaultInjected(spec.stage)
    if spec.action == "sleep":  # pragma: no cover - governor handles it
        time.sleep(spec.seconds)
        return
    if spec.action == "kill":
        if _worker:
            os.kill(os.getpid(), signal.SIGKILL)  # never returns
        raise FaultInjected(spec.stage)  # downgrade outside workers
