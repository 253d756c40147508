"""The provenance layer: the full derivation DAG behind every verdict.

The PR 2 observability layer records *that* stages ran (spans, counters);
this module records *why* the engine did what it did — the evidence the
paper's whole pitch rests on (the abduced proof obligation Γ or failure
witness Υ must justify the verdict, Lemmas 1–5 / Fig. 6):

* **entailment** — each Lemma 1/2 closure check with its SMT verdict;
* **msa.node / msa.prune** — every MSA search node: the candidate
  variable set, its cost, the universally-quantified feasibility check's
  result, and subtree prunes;
* **qe.eliminate** — each Cooper elimination step: the variable, the
  coefficient δ and divisibility lcm, term counts before/after;
* **decompose** — the CNF/DNF split of a query into sub-queries;
* **query** — each sub-query asked, with the oracle's answer;
* **choice** — the Γ-vs-Υ cost comparison that picked which query to
  ask first;
* **abduce** — the abduction result (formula, cost, MSA backing it);
* **verdict** — the final classification with its justification.

Every node is a plain dict stamped with the enclosing span's id
(:func:`repro.obs.core.current_span_id`), so nodes join back onto the
span tree recorded by the core layer — :func:`render_tree` does exactly
that join to print the derivation tree the ``explain`` CLI shows.  Like
span events, nodes are kept only by the open
:func:`repro.obs.capture` scopes of the context that records them.

The recorder is a separate switch from the core layer (:func:`enable`
/ ``REPRO_PROV`` for the process, :func:`recording` for one block of
one context) because it costs more: provenance nodes carry formula
renderings.  Either enables the core layer too (span ids are
meaningless without it).  ``benchmarks/bench_overhead.py`` pins the
provenance-enabled overhead below 10% of an abduction round and the
provenance-disabled overhead below 5%.

Serialization is the versioned ``repro.trace/1`` JSONL stream
(:func:`export_trace` / :func:`read_trace`): a header line, the span
events, the provenance nodes, then the aggregate snapshot — one
self-describing file that round-trips losslessly.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator, TextIO

from . import context, core

__all__ = [
    "TRACE_SCHEMA",
    "disable",
    "enable",
    "export_trace",
    "fmla",
    "is_enabled",
    "read_trace",
    "record",
    "recording",
    "render_tree",
    "reset",
]

TRACE_SCHEMA = "repro.trace/1"

_FORMULA_LIMIT = 160

_enabled = False  # the process-wide switch
_recording: ContextVar[bool] = ContextVar("repro.prov", default=False)
_scoped = 0       # open recording() blocks, in all contexts
_on = False       # _enabled or _scoped: the one check while off
_switch_lock = threading.Lock()
# ids come from an itertools.count, whose next() is one atomic call under
# the GIL, so concurrent threads never mint the same id
_ids = itertools.count(1)


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------

def enable() -> None:
    """Turn provenance recording on for the whole process (idempotent).

    Also enables the core obs layer: provenance nodes are keyed to span
    ids, which only exist while spans are recorded.
    """
    global _enabled, _on
    core.enable()
    with _switch_lock:
        _enabled = _on = True


def disable() -> None:
    """Stop process-wide recording; nodes already kept stay readable."""
    global _enabled, _on
    with _switch_lock:
        _enabled = False
        _on = _scoped > 0


def is_enabled() -> bool:
    """Whether a node recorded here and now would be kept."""
    return _on and (_enabled or _recording.get())


@contextmanager
def recording() -> Iterator[None]:
    """Record provenance inside the block, in this context only (a
    serve ``explain`` job's scope and the scopes nested in it), and
    enable the core obs layer, as :func:`enable` does."""
    global _scoped, _on
    core.enable()
    token = _recording.set(True)
    with _switch_lock:
        _scoped += 1
        _on = True
    try:
        yield
    finally:
        with _switch_lock:
            _scoped -= 1
            _on = _enabled or _scoped > 0
        _recording.reset(token)


def reset() -> None:
    """Restart the node id sequence."""
    global _ids
    _ids = itertools.count(1)


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------

def record(kind: str, **data: Any) -> int:
    """Append one derivation node to every open :func:`repro.obs.capture`
    scope of this context, the only place nodes are kept; returns its
    id (0 while disabled).

    The node is stamped with the innermost open span's id (``span``), a
    monotone sequence point (``at``) that orders it against span
    openings, and — when a :mod:`trace context <repro.obs.context>` is
    bound — the ambient ``trace`` id, so derivation steps join both the
    span tree and the cross-process request trace.
    """
    if not is_enabled():
        return 0
    node_id = next(_ids)
    node = {
        "type": "prov",
        "id": node_id,
        "span": core.current_span_id(),
        "at": core.span_sequence(),
        "kind": kind,
    }
    trace = context.current_trace_id()
    if trace is not None:
        node["trace"] = trace
    node.update(data)
    scope = core._scope.get()
    while scope is not None:
        scope.nodes.append(node)
        scope = scope.outer
    return node_id


def fmla(formula: Any, limit: int = _FORMULA_LIMIT) -> str:
    """A bounded string rendering of a formula for provenance payloads."""
    text = str(formula)
    if len(text) > limit:
        return text[: limit - 3] + "..."
    return text


# ---------------------------------------------------------------------------
# the repro.trace/1 stream
# ---------------------------------------------------------------------------

def export_trace(destination: str | os.PathLike | TextIO,
                 *,
                 events: list[dict],
                 prov_nodes: list[dict],
                 snapshot: dict) -> int:
    """Write the versioned ``repro.trace/1`` JSONL stream.

    Line 1 is the header (``{"type": "header", "schema":
    "repro.trace/1"}``), then every span event, every provenance node,
    and finally the aggregate snapshot: one capture scope's records, or
    merged batch data for a fleet-wide trace.  Returns the number of
    lines written.
    """
    lines: list[dict] = [{"type": "header", "schema": TRACE_SCHEMA}]
    lines.extend(events)
    lines.extend(prov_nodes)
    lines.append({"type": "snapshot", **snapshot})
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "w", encoding="utf-8") as handle:
            return _write(handle, lines)
    return _write(destination, lines)


def _write(handle: TextIO, lines: list[dict]) -> int:
    for line in lines:
        handle.write(json.dumps(line, default=str))
        handle.write("\n")
    return len(lines)


def read_trace(source: str | os.PathLike | TextIO) -> dict:
    """Parse a ``repro.trace/1`` stream back into its three parts.

    Returns ``{"schema", "events", "nodes", "snapshot"}``.  Raises
    ``ValueError`` on a missing/foreign header, so format drift fails
    loudly instead of silently misparsing.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            raw = [json.loads(line) for line in handle if line.strip()]
    else:
        raw = [json.loads(line) for line in source if line.strip()]
    if not raw or raw[0].get("type") != "header":
        raise ValueError("not a repro.trace stream: missing header line")
    schema = raw[0].get("schema")
    if schema != TRACE_SCHEMA:
        raise ValueError(f"unsupported trace schema {schema!r} "
                         f"(expected {TRACE_SCHEMA})")
    parsed: dict = {"schema": schema, "events": [], "nodes": [],
                    "snapshot": None}
    for line in raw[1:]:
        kind = line.get("type")
        if kind == "span":
            parsed["events"].append(line)
        elif kind == "prov":
            parsed["nodes"].append(line)
        elif kind == "snapshot":
            parsed["snapshot"] = line
    return parsed


# ---------------------------------------------------------------------------
# rendering the derivation tree
# ---------------------------------------------------------------------------

def _describe(node: dict) -> str:
    """One human line per node kind — the leaves the verdict cites."""
    kind = node.get("kind", "?")
    if kind == "entailment":
        verdict = "yes" if node.get("verdict") else "no"
        return (f"[{node.get('lemma', 'entailment')}] "
                f"{node.get('check', '')} -> {verdict}"
                + (f"  (round {node['round']})" if "round" in node else ""))
    if kind == "choice":
        gamma = node.get("gamma_cost")
        upsilon = node.get("upsilon_cost")
        gamma_s = "none" if gamma is None else str(gamma)
        upsilon_s = "none" if upsilon is None else str(upsilon)
        return (f"[choice] ask {node.get('chosen', '?')} first: "
                f"Gamma cost {gamma_s} vs Upsilon cost {upsilon_s}"
                + (f"  (round {node['round']})" if "round" in node else ""))
    if kind == "decompose":
        return (f"[decompose] {node.get('query_kind', '?')} query -> "
                f"{node.get('clauses', 0)} {node.get('mode', '?').upper()} "
                f"clause(s)")
    if kind == "query":
        return (f"[query:{node.get('query_kind', '?')}] "
                f"{node.get('text', '')} -> {node.get('answer', '?')}")
    if kind == "msa.node":
        variables = ", ".join(node.get("variables", ())) or "(empty)"
        status = node.get("status", "?")
        suffix = ""
        if node.get("assignment"):
            pairs = ", ".join(f"{k}={v}"
                              for k, v in node["assignment"].items())
            suffix = f"  [{pairs}]"
        cost = node.get("cost")
        cost_s = "" if cost is None else f" cost={cost}"
        return f"[msa] candidate {{{variables}}}{cost_s}: {status}{suffix}"
    if kind == "msa.prune":
        variables = ", ".join(node.get("variables", ()))
        return (f"[msa] prune subtree (forall {{{variables}}} and the "
                f"variables outside the search set . phi unsat)")
    if kind == "qe.eliminate":
        return (f"[qe] eliminate {node.get('var', '?')}: "
                f"delta={node.get('delta', '?')} "
                f"lcm={node.get('lcm', '?')} "
                f"bounds={node.get('lowers', 0)}L/{node.get('uppers', 0)}U "
                f"atoms {node.get('atoms_before', '?')}"
                f"->{node.get('atoms_after', '?')}")
    if kind == "abduce":
        return (f"[abduce] {node.get('abduction_kind', '?')}: "
                f"cost={node.get('cost', '?')} "
                f"{node.get('formula', '')}")
    if kind == "verdict":
        return (f"[verdict] {node.get('verdict', '?')} after "
                f"{node.get('rounds', 0)} round(s), "
                f"{node.get('queries', 0)} queries: "
                f"{node.get('reason', '')}")
    payload = {k: v for k, v in node.items()
               if k not in ("type", "id", "span", "at", "kind")}
    return f"[{kind}] {payload}"


def render_tree(events: list[dict], prov_nodes: list[dict],
                *, report: str | None = None) -> str:
    """Join provenance nodes onto the span tree and render it.

    ``report`` filters a merged batch trace down to one report's spans
    (span events tagged by the batch driver).  Spans whose parent was
    evicted from a scope's bounded event list surface as roots, so the
    render degrades gracefully on long runs.
    """
    spans = [e for e in events if e.get("type") == "span"]
    if report is not None:
        spans = [e for e in spans if e.get("report", report) == report]
    by_id = {e.get("id", 0): e for e in spans}

    span_children: dict[int, list[dict]] = {}
    roots: list[dict] = []
    for e in spans:
        parent = e.get("parent", 0)
        if parent and parent in by_id:
            span_children.setdefault(parent, []).append(e)
        else:
            roots.append(e)

    node_children: dict[int, list[dict]] = {}
    orphan_nodes: list[dict] = []
    for n in prov_nodes:
        span_id = n.get("span", 0)
        if span_id and span_id in by_id:
            node_children.setdefault(span_id, []).append(n)
        else:
            orphan_nodes.append(n)

    lines: list[str] = []

    def bare(event: dict) -> bool:
        """A leaf span with nothing attached — a candidate to fold."""
        span_id = event.get("id", 0)
        return (not span_children.get(span_id)
                and not node_children.get(span_id))

    def emit(event: dict, indent: int) -> None:
        pad = "  " * indent
        dur_ms = 1000.0 * event.get("dur_s", 0.0)
        attrs = event.get("attrs") or {}
        attr_s = ""
        if attrs:
            attr_s = " {" + ", ".join(
                f"{k}={v}" for k, v in attrs.items()) + "}"
        lines.append(f"{pad}{event.get('name', '?')} "
                     f"({dur_ms:.2f} ms){attr_s}")
        span_id = event.get("id", 0)
        children: list[tuple[float, int, dict]] = []
        # interleave child spans (ordered by their open sequence) with
        # provenance nodes (ordered by their 'at' sequence point)
        for child in span_children.get(span_id, ()):
            children.append((float(child.get("id", 0)), 0, child))
        for n in node_children.get(span_id, ()):
            children.append((float(n.get("at", n.get("id", 0))) - 0.5,
                             1, n))
        ordered = sorted(children, key=lambda c: c[0])
        i = 0
        while i < len(ordered):
            _, is_node, child = ordered[i]
            if is_node:
                lines.append("  " * (indent + 1) + _describe(child))
                i += 1
                continue
            # fold runs of same-name leaf spans with nothing attached
            # (e.g. dozens of smt.check calls inside analysis) into one
            # summary line so the derivation stays readable
            j = i
            total = 0.0
            name = child.get("name")
            while (j < len(ordered) and not ordered[j][1]
                    and ordered[j][2].get("name") == name
                    and bare(ordered[j][2])):
                total += ordered[j][2].get("dur_s", 0.0)
                j += 1
            if j - i > 1:
                lines.append("  " * (indent + 1)
                             + f"{name} x{j - i} "
                             f"({1000.0 * total:.2f} ms total)")
                i = j
                continue
            emit(child, indent + 1)
            i += 1

    for root in sorted(roots, key=lambda e: e.get("id", 0)):
        emit(root, 0)
    for n in orphan_nodes:
        lines.append(_describe(n))
    return "\n".join(lines)


# honour an environment opt-in, so a run can record derivations without
# code changes
if os.environ.get("REPRO_PROV", "").strip() not in ("", "0", "false"):
    enable()
