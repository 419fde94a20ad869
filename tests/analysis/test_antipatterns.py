"""Behavioural anti-patterns (SND*) — each flagged defect is confirmed by
actually running the model and observing the misbehaviour the rule predicts.
"""

import pytest

from repro.analysis import analyze, behavioral_pass
from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder
from repro.model.elements import ExclusiveGateway, ParallelGateway


def rules_of(diagnostics):
    return {d.rule for d in diagnostics}


def completed_activities(engine, instance_id):
    return [
        e.data["node_id"]
        for e in engine.history.instance_events(instance_id)
        if e.type == "node.completed"
    ]


def deploy_forced(model, **variables):
    engine = ProcessEngine(clock=VirtualClock(0))
    engine.deploy(model, verify=True, force=True)
    instance = engine.start_instance(model.key, dict(variables))
    return engine, instance


def xor_into_and_join():
    """The classic deadlock: XOR-split routed into an AND-join."""
    b = ProcessBuilder("deadlock").start().exclusive_gateway("split")
    b.add_node(ParallelGateway(id="sync"))
    b.branch("k > 1").script_task("a", script="v = 1").connect_to("sync")
    b.move_to("split").branch(default=True).script_task("b", script="v = 2")
    b.connect_to("sync")
    b.move_to("sync").script_task("after", script="w = v").end()
    return b.build()


def and_into_xor_join():
    """Lack of synchronization: AND-split merged by an XOR-join."""
    b = ProcessBuilder("lacksync").start().parallel_gateway("split")
    b.add_node(ExclusiveGateway(id="merge"))
    b.branch().script_task("a", script="v = 1").connect_to("merge")
    b.move_to("split").branch().script_task("b", script="w = 2")
    b.connect_to("merge")
    b.move_to("merge").script_task("tail", script="done = 1").end()
    return b.build()


class TestDeadlock:
    def test_flagged_as_snd001_on_the_join(self):
        found = behavioral_pass(xor_into_and_join())
        snd001 = [f for f in found if f.rule == "SND001"]
        assert snd001 and all(f.element_id == "sync" for f in snd001)

    def test_runtime_confirms_instance_stuck(self):
        engine, instance = deploy_forced(xor_into_and_join(), k=5)
        # only one branch of the AND-join ever gets a token: the instance
        # hangs RUNNING forever with no timers, work items, or messages
        assert instance.state is InstanceState.RUNNING
        assert "after" not in completed_activities(engine, instance.id)
        assert engine.worklist.items() == []

    def test_deploy_verify_blocks_without_force(self):
        from repro.engine.errors import EngineError

        engine = ProcessEngine(clock=VirtualClock(0))
        with pytest.raises(EngineError, match="unsound.*SND001"):
            engine.deploy(xor_into_and_join(), verify=True)


def and_into_xor_join_in_a_loop():
    """Unbounded: every lap's AND-split doubles the tokens the XOR-join
    passes back into the loop."""
    b = ProcessBuilder("unbounded").start().exclusive_gateway("head")
    b.parallel_gateway("fork")
    b.add_node(ExclusiveGateway(id="collect"))
    b.branch().script_task("task_a", script="v = 1").connect_to("collect")
    b.move_to("fork").branch().script_task("task_b", script="w = 2")
    b.connect_to("collect")
    b.move_to("collect").exclusive_gateway("loop_back")
    b.branch("v < 1").connect_to("head")
    b.move_to("loop_back").branch(default=True).end()
    return b.build()


class TestLackOfSynchronization:
    def test_flagged_as_snd002(self):
        found = behavioral_pass(and_into_xor_join())
        assert "SND002" in rules_of(found)

    def test_unbounded_loop_is_snd002_at_the_join(self):
        found = behavioral_pass(and_into_xor_join_in_a_loop())
        assert rules_of(found) == {"SND002"}
        # the report names the first three elements (in id order) whose
        # places grow without bound; the XOR-join "collect" sorts first
        assert [f.element_id for f in found] == ["collect", "end", "fork"]
        assert all("without bound" in f.message for f in found)

    def test_runtime_confirms_duplicate_execution(self):
        engine, instance = deploy_forced(and_into_xor_join())
        trace = completed_activities(engine, instance.id)
        # the XOR-join forwards each branch's token: downstream runs twice
        assert trace.count("tail") == 2


class TestDeadActivity:
    def test_flagged_as_snd003_and_never_executes(self):
        model = xor_into_and_join()
        found = behavioral_pass(model)
        dead = [f for f in found if f.rule == "SND003"]
        assert [f.element_id for f in dead] == ["after"]
        for k in (0, 5):
            engine, instance = deploy_forced(model, k=k)
            assert "after" not in completed_activities(engine, instance.id)


class TestImplicitTermination:
    def test_parallel_double_end_is_snd004_warning(self):
        b = ProcessBuilder("implicit").start().parallel_gateway("split")
        b.branch().script_task("a", script="v = 1").end("e1")
        b.move_to("split").branch().script_task("b", script="w = 2").end("e2")
        model = b.build()
        found = behavioral_pass(model)
        assert "SND004" in rules_of(found)
        assert "SND001" not in rules_of(found)
        # the engine itself tolerates this shape — it completes fine
        engine, instance = deploy_forced(model)
        assert instance.state is InstanceState.COMPLETED


class TestLivelock:
    def test_stuck_join_beside_live_loop_is_snd005(self):
        # one parallel branch deadlocks at an AND-join while the other spins
        # in a loop: transitions stay enabled forever, but completion (the
        # clean [o] marking) is unreachable — livelock, not deadlock
        b = ProcessBuilder("livelock").start().parallel_gateway("P")
        b.add_node(ParallelGateway(id="J"))
        b.add_node(ExclusiveGateway(id="M"))
        b.add_node(ExclusiveGateway(id="top"))
        b.branch().exclusive_gateway("x")
        b.branch("k > 1").script_task("a", script="v = 1").connect_to("J")
        b.move_to("x").branch(default=True).script_task("b", script="v = 2")
        b.connect_to("J")
        b.move_to("J").connect_to("M")
        b.branch_from("P").connect_to("top")
        b.move_to("top").script_task("body", script="n = 1")
        b.exclusive_gateway("check")
        b.branch("n > 0").connect_to("top")
        b.move_to("check").branch(default=True).connect_to("M")
        b.move_to("M").end()
        model = b.build()
        found = behavioral_pass(model)
        assert "SND005" in rules_of(found)
        assert "SND001" not in rules_of(found)


class TestBudget:
    def test_budget_exhaustion_reports_snd006_info(self):
        b = ProcessBuilder("wide").start().parallel_gateway("split")
        b.add_node(ParallelGateway(id="join"))
        for k in range(8):
            b.move_to("split").branch().script_task(
                f"t{k}", script=f"v{k} = {k}"
            ).connect_to("join")
        b.move_to("join").end()
        found = behavioral_pass(b.build(), max_states=10)
        assert rules_of(found) == {"SND006"}

    def test_clean_model_has_no_behavioral_findings(self):
        model = (
            ProcessBuilder("clean").start()
            .script_task("t", script="x = 1")
            .end().build()
        )
        assert behavioral_pass(model) == []


class TestAnalyzeIntegration:
    def test_analyze_includes_behavioral_by_default(self):
        report = analyze(xor_into_and_join())
        assert report.by_rule("SND001")

    def test_behavioral_false_skips_state_space(self):
        report = analyze(xor_into_and_join(), behavioral=False)
        assert not any(d.rule.startswith("SND") for d in report.diagnostics)
