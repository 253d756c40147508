"""repro: a reproduction of "Automated Error Diagnosis Using Abductive
Inference" (Dillig, Dillig, Aiken — PLDI 2012).

The package implements, from scratch:

* a Presburger-arithmetic logic stack (terms, formulas, CDCL SAT, the
  Omega test, lazy SMT, Cooper quantifier elimination, minimum satisfying
  assignments, contextual simplification);
* the paper's source language with parser and concrete interpreter;
* interval/zone abstract interpreters that supply loop postconditions;
* the Section 3 symbolic analysis producing invariants ``I`` and the
  success condition ``phi``;
* the Section 4 abductive error-diagnosis engine (weakest minimum proof
  obligations and failure witnesses, the Figure 6 interaction loop,
  query decomposition);
* the Figure 7 benchmark suite and a simulated user study;
* abductive repair synthesis: the abduced premise placed back into the
  source as ``@assume``/``@post``/guard patches, each re-verified by
  the full front end and ranked by the paper's cost order.

Quickstart::

    from repro import Pipeline, ScriptedOracle

    SRC = '''
    program foo(flag, unsigned n) {
      var k = 1, i = 0, j = 0;
      if (flag != 0) { k = n * n; }
      while (i <= n) { i = i + 1; j = j + i; } @post(i >= 0 && i > n)
      var z = k + i + j;
      assert(z > 2 * n);
    }
    '''
    result = Pipeline().diagnose(SRC, ScriptedOracle(["yes"]))
    print(result.verdict)

Or run it as a service (``python -m repro serve --port 8184``) and
``POST {"source": ...}`` to ``/v1/triage`` — see docs/API.md.
"""

__version__ = "1.0.0"

# Public names are re-exported lazily (PEP 562) so that the subpackages —
# which have a strict layering (logic < lia/sat < smt/qe < msa/simplify <
# lang/abstract < analysis < diagnosis < suite/userstudy) — can be imported
# individually without pulling in the whole stack.
_EXPORTS = {
    "AnalysisOutcome": ("repro.api", "AnalysisOutcome"),
    "Pipeline": ("repro.api", "Pipeline"),
    "InitialVerdict": ("repro.api", "InitialVerdict"),
    "load_benchmark": ("repro.api", "load_benchmark"),
    "run_user_study": ("repro.api", "run_user_study"),
    "TriageVerdict": ("repro.schema", "TriageVerdict"),
    "SCHEMA_VERSION": ("repro.schema", "SCHEMA_VERSION"),
    "read_envelope": ("repro.schema", "read_envelope"),
    "Limits": ("repro.limits", "Limits"),
    "ResourceExhausted": ("repro.limits", "ResourceExhausted"),
    "BatchResult": ("repro.batch", "BatchResult"),
    "TriageOutcome": ("repro.batch", "TriageOutcome"),
    "RepairResult": ("repro.repair", "RepairResult"),
    "RepairPatch": ("repro.repair", "RepairPatch"),
    "synthesize_repairs": ("repro.repair", "synthesize_repairs"),
    "obs": ("repro.obs", None),
    "DiagnosisResult": ("repro.diagnosis.engine", "DiagnosisResult"),
    "Verdict": ("repro.diagnosis.engine", "Verdict"),
    "diagnose_error": ("repro.diagnosis.engine", "diagnose_error"),
    "Oracle": ("repro.diagnosis.oracles", "Oracle"),
    "ScriptedOracle": ("repro.diagnosis.oracles", "ScriptedOracle"),
    "InteractiveOracle": ("repro.diagnosis.oracles", "InteractiveOracle"),
    "SamplingOracle": ("repro.diagnosis.oracles", "SamplingOracle"),
    "ExhaustiveOracle": ("repro.diagnosis.oracles", "ExhaustiveOracle"),
    "ChainOracle": ("repro.diagnosis.oracles", "ChainOracle"),
    "render_report": ("repro.diagnosis.report", "render_report"),
    "UnrollingOracle": ("repro.bmc", "UnrollingOracle"),
    "parse_program": ("repro.lang", "parse_program"),
    "run_program": ("repro.lang", "run_program"),
    "annotate_program": ("repro.abstract", "annotate_program"),
    "analyze_program": ("repro.analysis", "analyze_program"),
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = module if attr is None else getattr(module, attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
