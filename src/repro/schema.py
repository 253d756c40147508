"""The stable, JSON-first result vocabulary shared by every pipeline
layer.

Historically the code base grew three disjoint result shapes: the API
facade's ``InitialVerdict`` (verified/refuted/uncertain), the diagnosis
engine's ``Verdict`` (discharged/validated/unresolved), and the batch
driver's plain classification strings.  They all answer the same
question — *is this error report a real bug?* — so this module defines
the one vocabulary, :class:`TriageVerdict`, that every result object
maps into, plus the envelope every ``to_dict()`` implementation shares.

Schema stability contract (documented in ``docs/API.md``):

* every payload carries ``"schema": SCHEMA_VERSION`` and a ``"kind"``
  discriminator (``analysis`` / ``diagnosis`` / ``triage_outcome`` /
  ``batch`` / ``study``);
* every payload carries ``"verdict"``, one of ``"false alarm"``,
  ``"real bug"``, ``"unknown"``, ``"unknown resource"``;
* fields are only ever *added*; renaming or removing a field bumps
  SCHEMA_VERSION;
* ``"telemetry"`` is present only when instrumentation was enabled.

Version history.  ``repro.result/2`` added the ``UNKNOWN_RESOURCE``
verdict and the resource-governance fields (``limits``,
``resource_spend``, ``degraded``, ``exhausted_stage``, ``attempts``)
on top of ``repro.result/1``; the change is purely additive, and
:func:`read_envelope` upgrades ``/1`` payloads in place.  The optional
``cache`` block (content digests, persistent-store path, per-run
hit/miss counts — see :mod:`repro.cache`) was likewise added within
``/2``: it appears only when a store was active, so no version bump
was needed.  ``repro.result/3`` (current) adds the ``repair`` result
kind and its additive ``repairs`` block — the ranked patch list
(edits, unified diff, verified flag, cost, Γ digest) produced by
:mod:`repro.repair` — plus ``verified_patches`` and ``already_clean``;
``/1`` and ``/2`` payloads upgrade in place (no pre-/3 payload carries
repair fields, so the upgrade adds nothing).  The fleet-scheduler
fields were likewise added *within* ``/3`` under the additive-only
policy: ``triage_outcome`` gains an optional ``worker`` (the remote
``repro serve`` URL that ran the attempt) and ``batch`` gains optional
``backend`` / ``workers`` / ``steals`` plus the ``"remote"`` ``mode``
value (see :mod:`repro.sched`); all are omitted on local runs, so
pool/serial envelopes are byte-identical to their pre-scheduler form
and no version bump was needed.

Besides the envelope, this module owns the *status contract*: the one
mapping from triage verdicts to CLI exit codes and HTTP status codes,
shared by the command-line front end and the ``repro serve`` daemon so
a script driving either sees the same vocabulary (see
:func:`exit_code` / :func:`http_status`).

This module sits below every other layer (it imports nothing from the
package) so any result type can use it without layering cycles.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Any, Iterable

SCHEMA_VERSION = "repro.result/3"

#: Envelope versions :func:`read_envelope` accepts, oldest first.
SUPPORTED_VERSIONS = ("repro.result/1", "repro.result/2",
                      "repro.result/3")


class TriageVerdict(Enum):
    """The unified answer to "is this report a real bug?".

    Values equal the human-facing classification strings that predate
    the enum, so ``verdict.value == result.classification`` everywhere.
    """

    FALSE_ALARM = "false alarm"        # proven error-free / discharged
    REAL_BUG = "real bug"              # proven buggy / validated
    UNKNOWN = "unknown"                # unresolved / errored
    UNKNOWN_RESOURCE = "unknown resource"  # a governed limit ran out

    @classmethod
    def from_classification(cls, text: str) -> "TriageVerdict":
        """Map a legacy classification string (or verdict-enum value of
        any of the three historical vocabularies) to the vocabulary."""
        try:
            return _ALIASES[text.strip().lower().replace("_", " ")]
        except KeyError:
            raise ValueError(f"unknown classification {text!r}") from None


#: every vocabulary's spelling of each verdict
_ALIASES = {
    "false alarm": TriageVerdict.FALSE_ALARM,
    "verified": TriageVerdict.FALSE_ALARM,
    "discharged": TriageVerdict.FALSE_ALARM,
    "real bug": TriageVerdict.REAL_BUG,
    "refuted": TriageVerdict.REAL_BUG,
    "validated": TriageVerdict.REAL_BUG,
    "unknown": TriageVerdict.UNKNOWN,
    "uncertain": TriageVerdict.UNKNOWN,
    "unresolved": TriageVerdict.UNKNOWN,
    "unknown resource": TriageVerdict.UNKNOWN_RESOURCE,
    "resource exhausted": TriageVerdict.UNKNOWN_RESOURCE,
}


# ---------------------------------------------------------------------------
# the status contract: verdicts -> CLI exit codes -> HTTP statuses
# ---------------------------------------------------------------------------

#: Exit 0: every verdict is ``false alarm`` (or ``unknown``) — nothing
#: needs a developer's attention.
EXIT_OK = 0
#: Exit 1: at least one ``real bug`` verdict is present.
EXIT_REAL_BUG = 1
#: Exit 2: the invocation itself was malformed (bad flags, bad input).
EXIT_USAGE = 2
#: Exit 3: at least one result is ``unknown resource`` or was
#: quarantined by the recovery loop — the answer is incomplete, rerun
#: with a bigger budget.
EXIT_DEGRADED = 3

#: The daemon-side rendering of the same contract.  A triage that ran
#: to completion is an HTTP success whatever its verdict (the verdict
#: is the payload); only malformed requests and degraded results map
#: to error statuses.
HTTP_BY_EXIT = {
    EXIT_OK: 200,
    EXIT_REAL_BUG: 200,
    EXIT_USAGE: 400,
    EXIT_DEGRADED: 503,
}


def exit_code(verdicts: "Iterable[TriageVerdict | str]",
              *, degraded: bool = False) -> int:
    """The contractual exit code for a set of triage verdicts.

    Precedence (documented in ``docs/API.md``): degradation beats a
    real-bug verdict — an incomplete answer must not read as a clean
    one — and a real bug beats every decided/undecided verdict.
    ``degraded`` folds in quarantine/hard-error signals the verdicts
    alone cannot carry.  Accepts enum members or classification
    strings; ``EXIT_USAGE`` is never produced here (usage errors are
    raised before any verdict exists).
    """
    resolved = [
        v if isinstance(v, TriageVerdict)
        else TriageVerdict.from_classification(v)
        for v in verdicts
    ]
    if degraded or TriageVerdict.UNKNOWN_RESOURCE in resolved:
        return EXIT_DEGRADED
    if TriageVerdict.REAL_BUG in resolved:
        return EXIT_REAL_BUG
    return EXIT_OK


def http_status(code: int) -> int:
    """The HTTP status the daemon sends for a contractual exit code."""
    try:
        return HTTP_BY_EXIT[code]
    except KeyError:
        raise ValueError(f"not a contractual exit code: {code!r}") \
            from None


def envelope(kind: str, verdict: TriageVerdict, **fields: Any) -> dict:
    """The common payload envelope: schema tag, kind, verdict, fields.

    ``None``-valued fields are omitted so optional sections (telemetry,
    errors) never appear as JSON nulls.
    """
    payload: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "verdict": verdict.value,
    }
    for name, value in fields.items():
        if value is not None:
            payload[name] = value
    return payload


def dump_json(payload: dict, *, indent: int | None = None) -> str:
    """Serialize a payload deterministically (stable key order as
    built, enums/objects via ``str``)."""
    return json.dumps(payload, indent=indent, default=str)


def read_envelope(payload: dict) -> dict:
    """Validate a result envelope and upgrade it to the current schema.

    Accepts any version in :data:`SUPPORTED_VERSIONS`; older payloads
    come back reshaped as ``repro.result/3``.  Each upgrade step is
    purely additive: ``/1`` payloads gain the resource-field defaults
    of an ungoverned run, and ``/2`` payloads need nothing (no pre-/3
    payload carries the ``repair`` kind or ``repairs`` block, which are
    optional).  The input dict is not mutated.  Raises ``ValueError``
    for unknown versions or envelopes missing the required keys.
    """
    for key in ("schema", "kind", "verdict"):
        if key not in payload:
            raise ValueError(f"result envelope is missing {key!r}")
    version = payload["schema"]
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported result schema {version!r} "
            f"(supported: {', '.join(SUPPORTED_VERSIONS)})"
        )
    TriageVerdict.from_classification(payload["verdict"])  # validate
    upgraded = dict(payload)
    upgraded["schema"] = SCHEMA_VERSION
    if version == "repro.result/1":
        # /1 predates the governance fields: a /1 batch or outcome was
        # by definition ungoverned and never degraded
        if payload["kind"] == "batch":
            upgraded.setdefault("degraded", [])
        elif payload["kind"] == "triage_outcome":
            upgraded.setdefault("degraded", False)
    return upgraded
