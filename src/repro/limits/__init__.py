"""Cooperative resource governance: deadlines, step budgets, cancellation.

Cooper QE, the MSA search, CDCL and the Omega test are all worst-case
exponential; the paper's sub-0.1s query times hold on the Figure 7
suite, not in general.  A production triage service therefore needs a
way to say "spend at most this much on a report and degrade to an
explicit *unknown* verdict" — this module is that mechanism.

One :class:`Limits` value describes every bound a run may impose:

* ``deadline`` — wall-clock seconds for the whole operation;
* per-stage step budgets (``qe_steps``, ``msa_steps``, ``sat_steps``,
  ``smt_steps``, ``omega_steps``) with ``max_steps`` as the default for
  any stage without its own bound;
* ``max_nodes`` — a memory-ish ceiling on formula nodes charged by QE
  (the ``qe`` stage counts nodes, not iterations);
* ``token`` — a cooperative :class:`CancellationToken`;
* ``retries`` / ``backoff`` — the batch driver's recovery policy.

Enforcement is *cooperative*: every solver calls :func:`tick` at its
loop heads.  While no governor is active a tick is one global load and
a ``None`` check — ``benchmarks/bench_limits_overhead.py`` pins the
enabled-governor cost below 5% of a clean run.  :func:`governed`
installs a :class:`Governor` for the dynamic extent of a block; the
governor accounts per-stage spend and raises a single
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

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator

from .. import obs
from . import faults

__all__ = [
    "CancellationToken",
    "Governor",
    "Limits",
    "ResourceExhausted",
    "STAGES",
    "current_governor",
    "governed",
    "governed_here",
    "tick",
]

#: The stages solvers attribute spend to.  ``qe`` spend is measured in
#: formula nodes; every other stage counts loop iterations.
STAGES = ("qe", "msa", "sat", "smt", "omega")


class ResourceExhausted(RuntimeError):
    """A solver ran out of a governed resource.

    ``stage`` is the solver stage whose checkpoint fired (one of
    :data:`STAGES`); ``kind`` says which resource ran out — ``"steps"``,
    ``"nodes"``, ``"deadline"``, ``"cancelled"`` or ``"injected"``.
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


class CancellationToken:
    """A cooperative, in-process cancellation flag.

    ``cancel()`` makes every subsequent governed checkpoint raise
    :class:`ResourceExhausted` with ``kind="cancelled"``.  The token is
    plain data (picklable), but a copy shipped to a worker process is
    exactly that — a copy: cancellation does not propagate across the
    process boundary, which is why the batch driver governs workers
    with deadlines instead.
    """

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CancellationToken(cancelled={self._cancelled})"


@dataclass(frozen=True)
class Limits:
    """Every resource bound a run may impose, in one value.

    The default instance is unlimited (every field ``None``): solvers
    then fall back to their own standalone safety valves.  ``retries``
    and ``backoff`` only matter to the batch driver's recovery loop.
    """

    deadline: float | None = None       # wall-clock seconds
    max_steps: int | None = None        # default per-stage budget
    qe_steps: int | None = None         # QE budget, in formula nodes
    msa_steps: int | None = None        # MSA search nodes
    sat_steps: int | None = None        # CDCL solve-loop iterations
    smt_steps: int | None = None        # lazy-SMT theory rounds
    omega_steps: int | None = None      # Omega elimination steps
    max_nodes: int | None = None        # alias ceiling for the qe stage
    retries: int = 1                    # extra batch attempts per report
    backoff: float = 0.05               # base retry backoff, seconds
    token: CancellationToken | None = field(default=None, compare=False)

    def step_limit(self, stage: str) -> int | None:
        """The effective step budget for ``stage`` (stage-specific
        first, then ``max_nodes`` for qe, then ``max_steps``)."""
        specific = getattr(self, f"{stage}_steps", None)
        if specific is not None:
            return specific
        if stage == "qe" and self.max_nodes is not None:
            return self.max_nodes
        return self.max_steps

    @property
    def unlimited(self) -> bool:
        """True when no bound is set (the governor would be a no-op
        apart from fault injection)."""
        return (self.deadline is None and self.max_steps is None
                and self.max_nodes is None and self.token is None
                and all(getattr(self, f"{s}_steps") is None
                        for s in STAGES))

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
        return min(self.backoff * (2 ** max(attempt - 1, 0)), 2.0)

    def to_dict(self) -> dict:
        """Plain-data rendering for the JSON envelope (Nones omitted,
        the token rendered as a flag)."""
        payload: dict = {}
        for name in ("deadline", "max_steps", "max_nodes",
                     *(f"{s}_steps" for s in STAGES)):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        payload["retries"] = self.retries
        if self.token is not None:
            payload["cancellable"] = True
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Limits":
        known = {f.name for f in cls.__dataclass_fields__.values()} \
            - {"token"}  # type: ignore[attr-defined]
        return cls(**{k: v for k, v in payload.items() if k in known})


#: Ticks between wall-clock reads on the deadline path.  Reading the
#: clock is the one expensive part of a checkpoint (QE alone can tick
#: tens of thousands of times per abduction round), so the deadline is
#: polled every Nth tick: detection lags by at most a stride of cheap
#: loop iterations, far below the 0.05s deadline floor.
_CLOCK_STRIDE = 64


class Governor:
    """The active accounting for one governed run.

    Holds the absolute deadline, the per-stage spend map and the
    pre-resolved per-stage limits, so :meth:`tick` is a dict update
    plus two comparisons on the hot path.
    """

    __slots__ = ("limits", "spend", "_stage_limits", "_deadline_at",
                 "_token", "_fault", "_fault_fired", "_started",
                 "_clock_countdown")

    def __init__(self, limits: Limits):
        self.limits = limits
        self.spend: dict[str, int] = {}
        self._stage_limits = {
            stage: limits.step_limit(stage) for stage in STAGES
        }
        self._started = time.monotonic()
        self._deadline_at = (
            self._started + limits.deadline
            if limits.deadline is not None else None
        )
        self._token = limits.token
        self._fault = faults.active()
        self._fault_fired = False
        self._clock_countdown = 0  # check the deadline on the first tick

    # ------------------------------------------------------------------
    def tick(self, stage: str, amount: int = 1) -> None:
        """One checkpoint: charge ``amount`` to ``stage`` and enforce
        every bound.  Raises :class:`ResourceExhausted` past a limit."""
        if self._fault is not None:
            self._maybe_fault(stage)
        spend = self.spend
        n = spend.get(stage, 0) + amount
        spend[stage] = n
        limit = self._stage_limits.get(stage)
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
        if self._token is not None and self._token.cancelled:
            obs.inc("limits.exhausted.cancelled")
            raise ResourceExhausted(stage, kind="cancelled")

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


_active: Governor | None = None

# Thread-local governor overrides.  ``repro serve`` runs concurrent
# triage attempts on worker threads, each governed by its own
# deadline/budget/cancellation token; a process-global slot cannot
# express that.  ``_tl_installs`` counts live thread-local installs so
# the ubiquitous ungoverned ``tick`` stays one global load plus a falsy
# check — the ``threading.local`` lookup only happens while a serve
# worker thread is actually running an attempt.
_tl = threading.local()
_tl_installs = 0
_tl_lock = threading.Lock()


def _resolve() -> Governor | None:
    if _tl_installs:
        governor = getattr(_tl, "governor", None)
        if governor is not None:
            return governor
    return _active


def tick(stage: str, amount: int = 1) -> None:
    """The checkpoint every solver loop head calls.  Near-free while no
    governor is active: one global load and a ``None`` check."""
    if _tl_installs:
        governor = getattr(_tl, "governor", None)
        if governor is None:
            governor = _active
    else:
        governor = _active
    if governor is not None:
        governor.tick(stage, amount)


def current_governor() -> Governor | None:
    """The governor installed by the innermost :func:`governed` block
    (a thread-local :func:`governed_here` install shadows the global)."""
    return _resolve()


@contextmanager
def governed(limits: Limits) -> Iterator[Governor]:
    """Install a :class:`Governor` for the dynamic extent of the block.

    Nested blocks shadow the outer governor (innermost wins); on exit
    the per-stage spend is folded into the obs counters
    (``limits.spend.<stage>``) so batch telemetry attributes cost.
    """
    global _active
    previous = _active
    governor = Governor(limits)
    _active = governor
    try:
        yield governor
    finally:
        _active = previous
        for stage, n in governor.spend.items():
            obs.inc(f"limits.spend.{stage}", n)


@contextmanager
def governed_here(limits: Limits) -> Iterator[Governor]:
    """Install a :class:`Governor` for the *current thread* only.

    Other threads keep seeing the process-global governor.  Used by the
    batch layer when a triage attempt runs on a ``repro serve`` worker
    thread — the process-global slot of :func:`governed` is not
    reentrant across threads, so two concurrent governed blocks there
    could restore each other's expired governors.  On exit the spend is
    folded into the obs counters exactly as :func:`governed` does.
    """
    global _tl_installs
    previous = getattr(_tl, "governor", None)
    governor = Governor(limits)
    with _tl_lock:
        _tl_installs += 1
    _tl.governor = governor
    try:
        yield governor
    finally:
        _tl.governor = previous
        with _tl_lock:
            _tl_installs -= 1
        for stage, n in governor.spend.items():
            obs.inc(f"limits.spend.{stage}", n)
