"""The resource-governance layer: the Limits dataclass, the cooperative
Governor, fault-spec parsing, removed knobs and aliases and the
``repro.result/2`` envelope reader."""

from __future__ import annotations

import threading
import time

import pytest

from repro import limits as limits_mod
from repro.api import Pipeline
from repro.batch import triage_many
from repro.cache import open_store
from repro.diagnosis import EngineConfig
from repro.limits import (
    BACKOFF,
    STAGES,
    Governor,
    Limits,
    ResourceExhausted,
    current_governor,
    governed,
    tick,
)
from repro.limits.faults import (
    FaultInjected,
    FaultSpec,
    install,
    parse_fault,
)
from repro.obs import history
from repro.obs import logging as olog
from repro.sat import SatSolver
from repro.sched import RemoteTransport
from repro.serve.service import RouteStats, TriageService
from repro.simplify.contextual import Simplifier
from repro.smt import SmtSolver


@pytest.fixture(autouse=True)
def _no_installed_fault():
    """Every test starts and ends with no programmatic fault installed."""
    install(None)
    # clearing via install(None) re-enables the REPRO_FAULT env route;
    # tests that need full isolation monkeypatch the env var themselves
    yield
    install(None)


class TestLimits:
    def test_fields_are_the_three_bounds(self):
        assert list(Limits.__dataclass_fields__) == [
            "deadline", "max_steps", "retries"]

    def test_default_is_unlimited(self):
        limits = Limits()
        assert (limits.deadline, limits.max_steps) == (None, None)
        with governed(limits) as governor:
            for stage in STAGES:
                tick(stage, amount=10**9)     # nothing to exhaust
        assert governor.spend_snapshot() == dict.fromkeys(STAGES, 10**9)

    def test_tightened_halves_deadline(self):
        limits = Limits(deadline=8.0)
        assert limits.tightened(0) is limits
        assert limits.tightened(1).deadline == pytest.approx(4.0)
        assert limits.tightened(2).deadline == pytest.approx(2.0)
        # floor keeps retries meaningful
        assert Limits(deadline=0.01).tightened(3).deadline == \
            pytest.approx(0.05)
        assert Limits().tightened(3) == Limits()      # nothing to tighten

    def test_backoff_is_exponential_and_capped(self):
        limits = Limits()
        assert BACKOFF == pytest.approx(0.05)
        assert limits.backoff_for(1) == pytest.approx(BACKOFF)
        assert limits.backoff_for(2) == pytest.approx(2 * BACKOFF)
        assert limits.backoff_for(3) == pytest.approx(4 * BACKOFF)
        assert limits.backoff_for(20) == pytest.approx(2.0)

    def test_to_dict_roundtrip(self):
        limits = Limits(deadline=2.5, max_steps=100, retries=3)
        payload = limits.to_dict()
        assert payload == {"deadline": 2.5, "max_steps": 100, "retries": 3}
        assert list(payload) == ["deadline", "max_steps", "retries"]
        assert Limits.from_dict(payload) == limits
        assert Limits().to_dict() == {"retries": 1}

    def test_from_dict_drops_removed_bounds(self):
        """An envelope written with the per-stage bounds or the token
        flag still loads: unknown keys are dropped."""
        assert Limits.from_dict({"deadline": 1.0, "smt_steps": 3,
                                 "cancellable": True}) == \
            Limits(deadline=1.0)


class TestResourceExhausted:
    def test_attributes_and_message(self):
        exc = ResourceExhausted("msa", 11, 10)
        assert (exc.stage, exc.spent, exc.limit, exc.kind) == \
            ("msa", 11, 10, "steps")
        assert "msa" in str(exc) and "11" in str(exc)

    def test_is_a_runtime_error(self):
        # pre-governance callers caught RuntimeError for budget blowups
        assert issubclass(ResourceExhausted, RuntimeError)


class TestGovernor:
    def test_tick_is_noop_without_governor(self):
        assert current_governor() is None
        for _ in range(10):
            tick("smt")                   # must not raise or accumulate

    def test_step_budget_raises_with_stage(self):
        with governed(Limits(max_steps=3)) as governor:
            for _ in range(3):
                tick("smt")
            tick("sat")                   # each stage has its own spend
            with pytest.raises(ResourceExhausted) as err:
                tick("smt")
        assert err.value.stage == "smt"
        assert err.value.kind == "steps"
        assert (err.value.spent, err.value.limit) == (4, 3)
        assert governor.spend_snapshot() == {"smt": 4, "sat": 1}

    def test_qe_counts_nodes(self):
        with governed(Limits(max_steps=10)):
            tick("qe", amount=10)
            with pytest.raises(ResourceExhausted) as err:
                tick("qe")
        assert err.value.stage == "qe"
        assert err.value.kind == "nodes"
        assert (err.value.spent, err.value.limit) == (11, 10)

    def test_deadline_raises_at_next_checkpoint(self):
        with governed(Limits(deadline=0.005)):
            time.sleep(0.02)
            with pytest.raises(ResourceExhausted) as err:
                tick("omega")
        assert err.value.stage == "omega"     # attribution: who noticed
        assert err.value.kind == "deadline"

    def test_governed_nesting_restores_outer(self):
        with governed(Limits(max_steps=100)) as outer:
            with governed(Limits(max_steps=1)) as inner:
                assert current_governor() is inner
                tick("smt")
            assert current_governor() is outer
            tick("smt")
        assert current_governor() is None
        assert outer.spend_snapshot() == {"smt": 1}

    def test_governor_restored_after_exhaustion(self):
        with pytest.raises(ResourceExhausted):
            with governed(Limits(max_steps=0)):
                tick("sat")
        assert current_governor() is None

    def test_overlapping_blocks_on_two_threads_never_leak(self):
        """A enters, B enters, A exits, B exits: each thread sees only
        its own governor, none stays installed, and an ungoverned tick
        after A's deadline does not raise."""
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen = {}

        def run_a():
            with governed(Limits(deadline=0.05)) as governor:
                a_in.set()
                b_in.wait(10)
                seen["a"] = current_governor() is governor
            a_out.set()

        def run_b():
            a_in.wait(10)
            with governed(Limits()) as governor:
                b_in.set()
                a_out.wait(10)
                seen["b"] = current_governor() is governor
            seen["b_after"] = current_governor()

        threads = [threading.Thread(target=run_a),
                   threading.Thread(target=run_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"a": True, "b": True, "b_after": None}
        assert current_governor() is None
        time.sleep(0.06)
        for _ in range(100):
            tick("sat")


class TestFaultSpecs:
    def test_parse_simple(self):
        spec = parse_fault("raise@qe")
        assert spec == FaultSpec(action="raise", stage="qe")
        assert str(spec) == "raise@qe"

    def test_parse_sleep_with_report(self):
        spec = parse_fault("sleep:2.5@smt@p03_square")
        assert spec.action == "sleep"
        assert spec.seconds == pytest.approx(2.5)
        assert spec.report == "p03_square"
        assert str(spec) == "sleep:2.5@smt@p03_square"

    @pytest.mark.parametrize("bad", [
        "explode@qe",          # unknown action
        "raise",               # no stage
        "sleep@qe",            # sleep without duration
        "raise:3@qe",          # raise takes no argument
        "@qe",                 # empty action
        "raise@@p03",          # empty stage
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_fault(bad)

    def test_env_var_activates(self, monkeypatch):
        from repro.limits import faults
        monkeypatch.setenv("REPRO_FAULT", "exhaust@msa")
        assert faults.active() == FaultSpec(action="exhaust", stage="msa")
        install("raise@sat")              # programmatic install wins
        assert faults.active().action == "raise"

    def test_exhaust_fault_fires_once_per_governor(self):
        install("exhaust@smt")
        with governed(Limits()):
            with pytest.raises(ResourceExhausted) as err:
                tick("smt")
            tick("smt")                   # same governor: fired already
        assert err.value.kind == "injected"
        with governed(Limits()):          # fresh governor: fires again
            with pytest.raises(ResourceExhausted):
                tick("smt")

    def test_raise_fault_is_not_resource_exhausted(self):
        install("raise@sat")
        with governed(Limits()):
            with pytest.raises(FaultInjected) as err:
                tick("sat")
        assert err.value.stage == "sat"
        assert not isinstance(err.value, ResourceExhausted)

    def test_report_scoped_fault_skips_other_reports(self):
        from repro.limits import faults
        install("exhaust@smt@only_this_one")
        try:
            faults.set_report("some_other_report")
            with governed(Limits()):
                tick("smt")               # not our report: no fault
            faults.set_report("only_this_one")
            with governed(Limits()):
                with pytest.raises(ResourceExhausted):
                    tick("smt")
        finally:
            faults.set_report(None)

    def test_report_is_per_thread(self):
        """Thread A sets p10_toggle, then thread B sets p06_chroot: A's
        report-scoped spec still matches on A, and not on B."""
        from repro.limits import faults
        spec = parse_fault("exhaust@smt@p10_toggle")
        a_set, b_set = threading.Event(), threading.Event()
        seen = {}

        def run_a():
            faults.set_report("p10_toggle")
            try:
                a_set.set()
                b_set.wait(10)
                seen["a"] = faults.matches(spec, "smt")
            finally:
                faults.set_report(None)

        def run_b():
            a_set.wait(10)
            faults.set_report("p06_chroot")
            try:
                b_set.set()
                seen["b"] = faults.matches(spec, "smt")
            finally:
                faults.set_report(None)

        threads = [threading.Thread(target=run_a),
                   threading.Thread(target=run_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"a": True, "b": False}
        assert faults.current_report() is None

    def test_kill_downgrades_outside_workers(self):
        install("kill@omega")
        with governed(Limits()):
            with pytest.raises(FaultInjected):
                tick("omega")             # we are not a marked worker

    def test_sleep_fault_yields_deadline_attribution(self):
        install("sleep:30@msa")
        start = time.monotonic()
        with governed(Limits(deadline=0.05)):
            with pytest.raises(ResourceExhausted) as err:
                tick("msa")
        assert time.monotonic() - start < 5.0     # sliced, not 30s
        assert err.value.stage == "msa"
        assert err.value.kind == "deadline"


class TestDeprecatedKnobs:
    def test_budget_aliases_removed(self):
        import repro.batch.driver
        import repro.lia
        import repro.qe
        import repro.qe.cooper
        assert not hasattr(repro.lia, "BudgetExceeded")
        assert not hasattr(repro.qe, "QeBudgetExceeded")
        assert not hasattr(repro.qe.cooper, "QeBudgetExceeded")
        assert not hasattr(repro.batch.driver, "_triage_with_retries")

    def test_omega_budget_param_removed(self):
        from repro.lia import OmegaSolver
        with pytest.raises(TypeError, match="budget"):
            OmegaSolver(budget=100)

    def test_pipeline_triage_timeout_removed(self):
        from repro.api import Pipeline
        with pytest.raises(TypeError, match="timeout"):
            Pipeline().triage(["d01_plus_one"], jobs=1, timeout=30.0)

    @pytest.mark.parametrize("make, knob", [
        pytest.param(lambda: EngineConfig(solver_portfolio=True),
                     "solver_portfolio", id="EngineConfig.solver_portfolio"),
        pytest.param(lambda: EngineConfig(incremental_smt=False),
                     "incremental_smt", id="EngineConfig.incremental_smt"),
        pytest.param(lambda: SmtSolver(incremental=True),
                     "incremental", id="SmtSolver.incremental"),
        pytest.param(lambda: SmtSolver(portfolio=True),
                     "portfolio", id="SmtSolver.portfolio"),
        pytest.param(lambda: SatSolver().solve(assumptions=[1]),
                     "assumptions", id="SatSolver.solve.assumptions"),
    ])
    def test_alternative_solver_paths_removed(self, make, knob):
        with pytest.raises(TypeError, match=knob):
            make()

    def test_pipeline_solver_knob_removed(self):
        from repro.api import Pipeline
        with pytest.raises(TypeError, match="solver"):
            Pipeline(solver=SmtSolver())

    def test_thread_local_twins_removed(self):
        import repro.cache
        assert not hasattr(limits_mod, "governed_here")
        assert not hasattr(repro.cache, "use_store_here")
        assert not hasattr(repro.cache, "set_store")
        assert not hasattr(repro.cache, "use_store")
        assert not hasattr(repro.cache, "current_store")

    def test_thread_scoped_flag_removed(self):
        from repro.batch.driver import triage_with_retries
        from repro.sched import TriageSpec
        with pytest.raises(TypeError, match="thread_scoped"):
            TriageSpec(thread_scoped=True)
        with pytest.raises(TypeError, match="thread_scoped"):
            triage_with_retries("d01_plus_one", None, None,
                                thread_scoped=True)

    @pytest.mark.parametrize("make, knob", [
        pytest.param(lambda: Pipeline(telemetry=True),
                     "telemetry", id="Pipeline.telemetry"),
        pytest.param(lambda: triage_many([], telemetry=True),
                     "telemetry", id="triage_many.telemetry"),
        pytest.param(lambda: triage_many([], transport=None),
                     "transport", id="triage_many.transport"),
        pytest.param(lambda: TriageService(retain=1),
                     "retain", id="TriageService.retain"),
        pytest.param(lambda: TriageService(flight_capacity=1),
                     "flight_capacity", id="TriageService.flight_capacity"),
        pytest.param(lambda: RouteStats(window_s=1.0),
                     "window_s", id="RouteStats.window_s"),
        pytest.param(lambda: RemoteTransport(["http://x"], slots=1),
                     "slots", id="RemoteTransport.slots"),
        pytest.param(lambda: olog.configure(rate_limit=5),
                     "rate_limit", id="olog.configure.rate_limit"),
        pytest.param(lambda: Simplifier(passes=1),
                     "passes", id="Simplifier.passes"),
        pytest.param(lambda: open_store("x", max_entries=1),
                     "max_entries", id="open_store.max_entries"),
        pytest.param(lambda: history.check_regressions(
            {}, None, threshold=0.5), "threshold",
            id="check_regressions.threshold"),
        pytest.param(lambda: SatSolver(luby_unit=64),
                     "luby_unit", id="SatSolver.luby_unit"),
        pytest.param(lambda: SatSolver(var_decay=0.95),
                     "var_decay", id="SatSolver.var_decay"),
        pytest.param(lambda: SatSolver(reduce_interval=2000),
                     "reduce_interval", id="SatSolver.reduce_interval"),
        pytest.param(lambda: SatSolver(reduce_keep_lbd=3),
                     "reduce_keep_lbd", id="SatSolver.reduce_keep_lbd"),
    ])
    def test_single_valued_settings_removed(self, make, knob):
        with pytest.raises(TypeError, match=knob):
            make()

    def test_cancellation_token_removed(self):
        import repro
        assert not hasattr(limits_mod, "CancellationToken")
        assert "CancellationToken" not in repro.__all__

    def test_regress_threshold_flag_removed(self, capsys):
        from repro.cli import build_parser
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["stats", "--regress-threshold", "0.2"])
        assert exc.value.code == 2
        assert "--regress-threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["diagnose", "prog.err"], ["triage"], ["serve"],
    ], ids=["diagnose", "triage", "serve"])
    def test_solver_portfolio_flag_removed(self, argv, capsys):
        from repro.cli import build_parser
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--solver-portfolio"])
        assert exc.value.code == 2
        assert "--solver-portfolio" in capsys.readouterr().err

    @pytest.mark.parametrize("module", [
        "repro.smt.portfolio", "repro.smt.incremental", "repro.lia.backend",
        "repro.abstract.octagons", "repro.logic.smtlib",
    ])
    def test_alternative_modules_removed(self, module):
        import importlib
        with pytest.raises(ImportError):
            importlib.import_module(module)

    def test_octagon_domain_and_smtlib_export_removed(self):
        import repro.abstract
        import repro.logic
        from repro.lang import parse_program
        program = parse_program("program p(x) { assert(x == x); }")
        with pytest.raises(ValueError,
                           match="unknown abstract domain 'octagon'"):
            repro.abstract.annotate_program(program, ("octagon",))
        assert not hasattr(repro.abstract, "Octagon")
        assert not hasattr(repro.abstract, "OctagonDomain")
        assert not hasattr(repro.logic, "to_smtlib")

    def test_invariant_annotation_removed(self):
        from repro.lang import ParseError, parse_program
        with pytest.raises(ParseError,
                           match="unknown annotation '@invariant'"):
            parse_program("program p(x) { var i; while (i < x) "
                          "@invariant(i >= 0) { i = i + 1; } "
                          "assert(i >= 0); }")

    def test_runtime_imports_only_the_standard_library(self):
        import pathlib
        import subprocess
        import sys

        import repro
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        code = ("import sys\n"
                "import repro, repro.cli, repro.serve\n"
                "from repro import Pipeline\n"
                "print(sorted(m for m in ('numpy', 'scipy') "
                "if m in sys.modules))\n")
        done = subprocess.run([sys.executable, "-c", code],
                              env={"PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.strip() == "[]"


class TestEngineIntegration:
    def test_diagnosis_converts_exhaustion_to_verdict(self):
        from repro.api import Pipeline
        from repro.diagnosis import ScriptedOracle, Verdict
        from repro.schema import TriageVerdict
        from tests.test_api_cli import FOO
        pipe = Pipeline(limits=Limits(max_steps=1))
        result = pipe.diagnose(FOO, ScriptedOracle(["yes"]))
        assert result.verdict is Verdict.RESOURCE_EXHAUSTED
        assert result.triage_verdict is TriageVerdict.UNKNOWN_RESOURCE
        assert result.exhausted_stage == "smt"
        assert result.exhausted_kind == "steps"
        assert result.resource_spend["smt"] >= 1
        payload = result.to_dict()
        assert payload["verdict"] == "unknown resource"
        assert payload["limits"] == {"max_steps": 1, "retries": 1}

    def test_ungoverned_diagnosis_reports_no_spend(self):
        from repro.api import Pipeline
        from repro.diagnosis import ScriptedOracle, Verdict
        from tests.test_api_cli import FOO
        result = Pipeline().diagnose(FOO, ScriptedOracle(["yes"]))
        assert result.verdict is Verdict.DISCHARGED
        assert result.resource_spend is None
        assert result.exhausted_stage is None


def _spy_governor(monkeypatch, analyzer_cls, synth) -> list:
    """Record, for every front-end analysis and every repair placement,
    whether a governor was active when it ran."""
    calls: list[tuple[str, bool]] = []
    analyze = analyzer_cls.analyze
    plan = synth.plan_placements

    def spy_analyze(self, program):
        calls.append(("analyze", limits_mod.current_governor() is not None))
        return analyze(self, program)

    def spy_plan(*args, **kwargs):
        calls.append(("plan", limits_mod.current_governor() is not None))
        return plan(*args, **kwargs)

    monkeypatch.setattr(analyzer_cls, "analyze", spy_analyze)
    monkeypatch.setattr(synth, "plan_placements", spy_plan)
    return calls


class TestWholeReportGovernance:
    """Every surface runs a report under one governor, front end and
    repair synthesis included."""

    def test_repair_governs_front_end_and_synthesis(self, monkeypatch):
        """``Pipeline(limits=...).repair`` runs the whole report under
        one governor: the analyzer and repair planning both see it."""
        from repro.analysis.transformer import SymbolicAnalyzer
        from repro.api import Pipeline
        import repro.repair.synthesize as synth

        governed_calls = _spy_governor(monkeypatch, SymbolicAnalyzer,
                                       synth)
        result = Pipeline(limits=Limits(deadline=600.0)).repair(
            "p06_chroot")
        assert result.verified_count
        assert set(governed_calls) == {("analyze", True),
                                       ("plan", True)}

    def test_serve_repair_job_governs_front_end_and_synthesis(
            self, monkeypatch):
        from repro.analysis.transformer import SymbolicAnalyzer
        from repro.serve import TriageService
        import repro.repair.synthesize as synth

        governed_calls = _spy_governor(monkeypatch, SymbolicAnalyzer,
                                       synth)
        service = TriageService()
        _, handle = service.submit({"benchmark": "p06_chroot",
                                    "repair": True,
                                    "limits": {"deadline": 600.0}})
        service._run_job(handle["job_id"])
        job = service.registry.get(handle["job_id"])
        assert job.result["verified_patches"], job.result
        assert set(governed_calls) == {("analyze", True),
                                       ("plan", True)}


class TestEnvelopeV2:
    def test_read_current_version_passthrough(self):
        from repro.schema import SCHEMA_VERSION, read_envelope
        payload = {"schema": SCHEMA_VERSION, "kind": "triage_outcome",
                   "verdict": "false alarm", "degraded": False}
        assert read_envelope(payload) == payload

    def test_read_upgrades_v1_batch(self):
        from repro.schema import SCHEMA_VERSION, read_envelope
        legacy = {"schema": "repro.result/1", "kind": "batch",
                  "verdict": "unknown", "outcomes": []}
        upgraded = read_envelope(legacy)
        assert upgraded["schema"] == SCHEMA_VERSION
        assert upgraded["degraded"] == []
        assert legacy["schema"] == "repro.result/1"   # input not mutated

    def test_read_upgrades_v1_outcome(self):
        from repro.schema import read_envelope
        legacy = {"schema": "repro.result/1", "kind": "triage_outcome",
                  "verdict": "real bug"}
        assert read_envelope(legacy)["degraded"] is False

    def test_read_rejects_unknown_version(self):
        from repro.schema import read_envelope
        with pytest.raises(ValueError, match="unsupported"):
            read_envelope({"schema": "repro.result/99", "kind": "batch",
                           "verdict": "unknown"})

    def test_read_rejects_missing_keys(self):
        from repro.schema import read_envelope
        with pytest.raises(ValueError, match="missing"):
            read_envelope({"kind": "batch", "verdict": "unknown"})

    def test_read_rejects_bad_verdict(self):
        from repro.schema import SCHEMA_VERSION, read_envelope
        with pytest.raises(ValueError):
            read_envelope({"schema": SCHEMA_VERSION, "kind": "batch",
                           "verdict": "maybe"})

    def test_batch_payload_reads_back(self):
        from repro.batch import triage_many
        from repro.schema import read_envelope
        result = triage_many(["d01_plus_one"], jobs=1,
                             limits=Limits(deadline=60.0, retries=0))
        payload = read_envelope(result.to_dict())
        assert payload["limits"]["deadline"] == pytest.approx(60.0)
        assert payload["degraded"] == []
        assert "resource_spend" in payload
