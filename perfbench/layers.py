"""Outside-in layer timing for the traced benchmark run.

Each layer is a list of public functions and methods of one ``src/repro``
module.  :class:`LayerTracer` replaces every one of them with a timing
wrapper, at every import site: methods are patched on their class, and a
module-level function is patched in every loaded ``repro`` module that
holds a reference to it (``from ..qe import project`` binds a second
name that must be patched too).  Nothing under ``src/`` changes; the
wrappers come off again with :meth:`LayerTracer.uninstall`.

A layer's *self* time is the wall time of its wrapped calls minus the
part covered by wrapped calls nested inside them, so the self times of
all layers add up to the wall time the wrappers cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: layer name -> ``module:qualname`` of every entry point it times
LAYERS: dict[str, tuple[str, ...]] = {
    "lang.parse": ("repro.lang.parser:parse_program",),
    "abstract.annotate": ("repro.abstract.annotate:annotate_program",),
    "analysis.analyze": ("repro.analysis.transformer:analyze_program",),
    "oracle.execute": ("repro.lang.interp:Interpreter.run",),
    "oracle.answer": ("repro.diagnosis.oracles:ExhaustiveOracle.answer",),
    "engine.stages": (
        "repro.diagnosis.stages:entail_stage",
        "repro.diagnosis.stages:abduce_stage",
        "repro.diagnosis.stages:decompose_stage",
        "repro.diagnosis.engine:DiagnosisEngine.run",
    ),
    "abduction": (
        "repro.diagnosis.abduction:Abducer.proof_obligation",
        "repro.diagnosis.abduction:Abducer.failure_witness",
    ),
    "msa.find": ("repro.msa.engine:MsaSolver.find",),
    "qe": (
        "repro.qe.cooper:eliminate_forall",
        "repro.qe.cooper:project",
        "repro.qe.cooper:eliminate_quantifiers",
    ),
    "simplify": ("repro.simplify.contextual:Simplifier.simplify",),
    "smt.check": ("repro.smt.solver:SmtSolver.check",),
    "lia.omega": (
        "repro.lia.omega:OmegaSolver.solve_literals",
        "repro.lia.omega:OmegaSolver.unsat_core",
    ),
    "sat.solve": ("repro.sat.cdcl:SatSolver.solve",),
    "cache.get": ("repro.cache.store:CacheStore.get",),
    "cache.put": ("repro.cache.store:CacheStore.put",),
    "repair.synthesize": ("repro.repair.synthesize:synthesize_repairs",),
    "batch.triage_many": ("repro.batch.driver:triage_many",),
    "api.repair": ("repro.api:Pipeline.repair",),
}

#: entry points that wrap a whole report: their self time is the part
#: of the pass no layer below the entry point accounts for
ENTRY_LAYERS = ("batch.triage_many", "api.repair")


class LayerTracer:
    """Self time and call counts per layer, accumulated while installed."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self._children: list[float] = []  # child time of each open call
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for layer in LAYERS:
            self.self_s[layer] = 0.0
            self.calls[layer] = 0

    def _wrap(self, layer: str, fn):
        children = self._children
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - children.pop()
                calls[layer] += 1
                if children:
                    children[-1] += elapsed

        return timed

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "repro" or n.startswith("repro."))]
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, qualname = target.split(":")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = vars(owner)[attr]
                    self._patch(owner, attr, self._wrap(layer, original))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(layer, original)
                for mod in loaded:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def covered_s(self) -> float:
        """Wall time inside some layer below the entry points."""
        return sum(s for layer, s in self.self_s.items()
                   if layer not in ENTRY_LAYERS)
