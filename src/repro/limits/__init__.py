"""Cooperative resource governance: deadlines and step budgets.

Cooper QE, the MSA search, CDCL and the Omega test are all worst-case
exponential; the paper's sub-0.1s query times hold on the Figure 7
suite, not in general.  A production triage service therefore needs a
way to say "spend at most this much on a report and degrade to an
explicit *unknown* verdict" — this module is that mechanism.

One :class:`Limits` value describes every bound a run may impose:

* ``deadline`` — wall-clock seconds for the whole operation;
* ``max_steps`` — the budget each stage's spend is checked against
  (the ``qe`` stage counts formula nodes, every other stage counts
  loop iterations);
* ``retries`` — the recovery policy of the batch scheduler
  (:mod:`repro.sched`): extra attempts per report, each after a
  :data:`BACKOFF`-based delay.

Enforcement is *cooperative*: every solver calls :func:`tick` at its
loop heads.  While no governor is active a tick is one context-variable
read and a ``None`` check — ``benchmarks/bench_limits_overhead.py``
pins the enabled-governor cost below 5% of a clean run.
:func:`governed` installs a :class:`Governor` for the dynamic extent of
a block in the current context only, so concurrent ``repro serve``
worker threads each see their own governor (a new thread starts with
none); the governor accounts per-stage spend and raises a single
:class:`ResourceExhausted` carrying the stage, the spend and the limit,
which the diagnosis engine converts into the ``UNKNOWN_RESOURCE``
verdict (a *result*, not an error).

The deadline is checked inside ``tick`` too, so the exception's stage
names whichever solver loop noticed that time ran out — that is the
per-stage attribution the batch driver reports for degraded runs.

Deterministic fault injection for the recovery paths lives in
:mod:`repro.limits.faults`; the governor consults it on every tick (a
``None`` check when no fault is installed).

This module sits next to :mod:`repro.schema` at the bottom of the
package layering: it imports nothing from the package except
:mod:`repro.obs` (which is itself standalone), so every solver layer
can use it without cycles.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Iterator

from .. import obs
from . import faults

__all__ = [
    "BACKOFF",
    "Governor",
    "Limits",
    "ResourceExhausted",
    "STAGES",
    "current_governor",
    "governed",
    "tick",
]

#: The stages solvers attribute spend to.  ``qe`` spend is measured in
#: formula nodes; every other stage counts loop iterations.
STAGES = ("qe", "msa", "sat", "smt", "omega")

#: Base delay before the first retry, in seconds; each later retry
#: doubles it, up to 2 s.
BACKOFF = 0.05


class ResourceExhausted(RuntimeError):
    """A solver ran out of a governed resource.

    ``stage`` is the solver stage whose checkpoint fired (one of
    :data:`STAGES`); ``kind`` says which resource ran out — ``"steps"``,
    ``"nodes"``, ``"deadline"`` or ``"injected"``.
    ``spent``/``limit`` quantify the overrun in the units of ``kind``.
    """

    def __init__(self, stage: str, spent=None, limit=None, *,
                 kind: str = "steps", message: str | None = None):
        self.stage = stage
        self.spent = spent
        self.limit = limit
        self.kind = kind
        if message is None:
            message = f"stage {stage!r} exhausted its {kind} limit"
            if spent is not None and limit is not None:
                message += f" ({spent:g} > {limit:g})"
        super().__init__(message)


@dataclass(frozen=True)
class Limits:
    """Every resource bound a run may impose, in one value.

    The default instance is unlimited (both bounds ``None``): solvers
    then fall back to their own standalone safety valves.  ``retries``
    only matters to the batch scheduler's retry loop.
    """

    deadline: float | None = None       # wall-clock seconds
    max_steps: int | None = None        # per-stage budget (qe: nodes)
    retries: int = 1                    # extra batch attempts per report

    def tightened(self, attempt: int) -> "Limits":
        """The limits for retry number ``attempt`` (0 = first try):
        each retry halves the deadline, so a pathological report cannot
        double its cost through the recovery path."""
        if attempt <= 0 or self.deadline is None:
            return self
        return replace(
            self, deadline=max(self.deadline * (0.5 ** attempt), 0.05)
        )

    def backoff_for(self, attempt: int) -> float:
        """Deterministic exponential backoff before retry ``attempt``."""
        return min(BACKOFF * (2 ** max(attempt - 1, 0)), 2.0)

    def to_dict(self) -> dict:
        """Plain-data rendering for the JSON envelope (Nones omitted)."""
        payload: dict = {}
        for name in ("deadline", "max_steps"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        payload["retries"] = self.retries
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Limits":
        """The inverse of :meth:`to_dict`; unknown keys (such as the
        per-stage bounds older envelopes carried) are dropped."""
        known = cls.__dataclass_fields__  # type: ignore[attr-defined]
        return cls(**{k: v for k, v in payload.items() if k in known})


#: Ticks between wall-clock reads on the deadline path.  Reading the
#: clock is the one expensive part of a checkpoint (QE alone can tick
#: tens of thousands of times per abduction round), so the deadline is
#: polled every Nth tick: detection lags by at most a stride of cheap
#: loop iterations, far below the 0.05s deadline floor.
_CLOCK_STRIDE = 64


class Governor:
    """The active accounting for one governed run.

    Holds the absolute deadline, the per-stage spend map and the step
    limit, so :meth:`tick` is a dict update plus two comparisons on the
    hot path.
    """

    __slots__ = ("limits", "spend", "_max_steps", "_deadline_at",
                 "_fault", "_fault_fired", "_started", "_clock_countdown")

    def __init__(self, limits: Limits):
        self.limits = limits
        self.spend: dict[str, int] = {}
        self._max_steps = limits.max_steps
        self._started = time.monotonic()
        self._deadline_at = (
            self._started + limits.deadline
            if limits.deadline is not None else None
        )
        self._fault = faults.active()
        self._fault_fired = False
        self._clock_countdown = 0  # check the deadline on the first tick

    # ------------------------------------------------------------------
    def tick(self, stage: str, amount: int = 1) -> None:
        """One checkpoint: charge ``amount`` to ``stage`` and enforce
        both bounds.  Raises :class:`ResourceExhausted` past a limit."""
        if self._fault is not None:
            self._maybe_fault(stage)
        spend = self.spend
        n = spend.get(stage, 0) + amount
        spend[stage] = n
        limit = self._max_steps
        if limit is not None and n > limit:
            obs.inc(f"limits.exhausted.{stage}")
            raise ResourceExhausted(
                stage, n, limit,
                kind="nodes" if stage == "qe" else "steps",
            )
        if self._deadline_at is not None:
            self._clock_countdown -= 1
            if self._clock_countdown < 0:
                self._clock_countdown = _CLOCK_STRIDE
                now = time.monotonic()
                if now > self._deadline_at:
                    obs.inc("limits.exhausted.deadline")
                    raise ResourceExhausted(
                        stage, now - self._started, self.limits.deadline,
                        kind="deadline",
                    )

    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def spend_snapshot(self) -> dict[str, int]:
        """A copy of the per-stage spend map (plain picklable data)."""
        return dict(self.spend)

    # ------------------------------------------------------------------
    def _maybe_fault(self, stage: str) -> None:
        spec = self._fault
        if self._fault_fired or not faults.matches(spec, stage):
            return
        self._fault_fired = True
        if spec.action == "exhaust":
            obs.inc(f"limits.exhausted.{stage}")
            raise ResourceExhausted(
                stage, self.spend.get(stage, 0), 0, kind="injected"
            )
        if spec.action == "sleep":
            # A simulated hang *inside* a checkpoint.  Sleep in slices so
            # the deadline check right after this (still in the same
            # tick) fires as soon as time is up — that is what preserves
            # per-stage attribution for hangs the governor can see.
            end = time.monotonic() + spec.seconds
            while True:
                now = time.monotonic()
                if now >= end:
                    return
                if self._deadline_at is not None and now > self._deadline_at:
                    self._clock_countdown = 0  # force this tick's check
                    return
                time.sleep(min(0.05, end - now))
        faults.fire(spec)  # raise / kill


#: The governor of the innermost :func:`governed` block in this context.
_governor: ContextVar[Governor | None] = ContextVar(
    "repro.limits.governor", default=None)


def tick(stage: str, amount: int = 1) -> None:
    """The checkpoint every solver loop head calls.  Near-free while no
    governor is active: one context-variable read and a ``None`` check."""
    governor = _governor.get()
    if governor is not None:
        governor.tick(stage, amount)


def current_governor() -> Governor | None:
    """The governor installed by the innermost :func:`governed` block."""
    return _governor.get()


@contextmanager
def governed(limits: Limits) -> Iterator[Governor]:
    """Install a :class:`Governor` for the dynamic extent of the block.

    Nested blocks shadow the outer governor (innermost wins), and the
    install is visible only in the current context: blocks on other
    threads neither see nor restore it.  On exit the per-stage spend is
    folded into the obs counters (``limits.spend.<stage>``) so batch
    telemetry attributes cost.
    """
    governor = Governor(limits)
    token = _governor.set(governor)
    try:
        yield governor
    finally:
        _governor.reset(token)
        for stage, n in governor.spend.items():
            obs.inc(f"limits.spend.{stage}", n)
