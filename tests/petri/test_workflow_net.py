"""Tests for WF-net detection and the soundness checker."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.petri import builders
from repro.petri.errors import NotAWorkflowNetError
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.workflow_net import WorkflowNet, check_soundness


class TestDetection:
    def test_detect_finds_source_and_sink(self):
        wf = WorkflowNet.detect(builders.sequence_net(3))
        assert wf.source == "i"
        assert wf.sink == "o"
        assert wf.initial_marking() == Marking({"i": 1})
        assert wf.final_marking() == Marking({"o": 1})

    def test_two_sources_rejected(self):
        net = builders.sequence_net(2)
        net.add_place("second_source")
        net.add_arc("second_source", "t1")
        with pytest.raises(NotAWorkflowNetError):
            WorkflowNet.detect(net)

    def test_two_sinks_rejected(self):
        net = builders.sequence_net(2)
        net.add_place("second_sink")
        net.add_arc("t2", "second_sink")
        with pytest.raises(NotAWorkflowNetError):
            WorkflowNet.detect(net)

    def test_disconnected_node_rejected(self):
        net = builders.sequence_net(2)
        net.add_transition("floating")
        net.add_place("float_in")
        net.add_place("float_out")
        net.add_arc("float_in", "floating")
        net.add_arc("floating", "float_out")
        with pytest.raises(NotAWorkflowNetError):
            WorkflowNet.detect(net)

    def test_short_circuit_adds_reset_transition(self):
        wf = WorkflowNet.detect(builders.sequence_net(2))
        closed = wf.short_circuit()
        assert "__short_circuit__" in closed.transitions
        m = closed.fire(Marking({"o": 1}), "__short_circuit__")
        assert m == Marking({"i": 1})


class TestSoundNets:
    @pytest.mark.parametrize(
        "net",
        [
            builders.sequence_net(1),
            builders.sequence_net(10),
            builders.parallel_net(4),
            builders.choice_net(5),
            builders.loop_net(),
            builders.structured_net(15),
        ],
        ids=lambda n: n.name,
    )
    def test_sound_families(self, net):
        report = check_soundness(net)
        assert report.is_workflow_net
        assert report.sound, report.problems
        assert report.bounded
        assert report.option_to_complete
        assert report.proper_completion
        assert not report.dead_transitions
        assert report.problems == []

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=25))
    def test_structured_family_always_sound(self, n):
        assert check_soundness(builders.structured_net(n)).sound


class TestUnsoundNets:
    def test_deadlock_detected(self):
        report = check_soundness(builders.deadlocking_net())
        assert report.is_workflow_net
        assert not report.sound
        assert report.option_to_complete is False
        assert report.counterexample is not None
        assert any("option to complete" in p for p in report.problems)

    def test_improper_completion_detected(self):
        report = check_soundness(builders.improper_completion_net())
        assert not report.sound
        assert report.proper_completion is False

    def test_dead_transition_detected(self):
        report = check_soundness(builders.dead_transition_net())
        assert not report.sound
        assert report.dead_transitions == {"ghost"}

    def test_unbounded_net_unsound_via_coverability(self):
        report = check_soundness(builders.unbounded_net())
        assert report.is_workflow_net
        assert not report.sound
        assert report.bounded is False
        assert any("unbounded" in p for p in report.problems)

    def test_non_wf_net_reported_not_raised(self):
        net = PetriNet()
        net.add_place("a")
        net.add_place("b")
        net.add_transition("t")
        net.add_arc("a", "t")
        net.add_arc("t", "b")
        net.add_place("c")  # second source and second sink
        report = check_soundness(net)
        assert not report.is_workflow_net
        assert not report.sound
        assert report.structural_errors

    def test_budget_exhaustion_reported_not_raised(self):
        report = check_soundness(builders.parallel_net(10), max_states=50)
        assert not report.sound
        assert any("budget" in p for p in report.problems)


class TestReportDiagnostics:
    def test_state_count_populated_for_bounded_nets(self):
        report = check_soundness(builders.parallel_net(3))
        assert report.state_count == 2 + 2**3

    def test_problems_empty_for_sound_net(self):
        assert check_soundness(builders.sequence_net(3)).problems == []


# the T2 defect nets, reported from a fresh interpreter so that the hash
# seed (and with it every set's iteration order) can differ between runs
_WITNESS_SCRIPT = """
import json
from repro.petri import builders
from repro.petri.workflow_net import check_soundness
out = {}
for family in ("deadlocking_net", "improper_completion_net",
               "dead_transition_net", "unbounded_net"):
    report = check_soundness(getattr(builders, family)())
    improper = report.improper_marking
    out[family] = [report.problems, improper and improper.to_dict()]
print(json.dumps(out))
"""


def _witnesses(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _WITNESS_SCRIPT],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(done.stdout)


class TestWitnesses:
    def test_problems_do_not_depend_on_the_hash_seed(self):
        first, second = _witnesses("1"), _witnesses("3")
        assert first == second
        problems, improper = first["improper_completion_net"]
        assert improper["o"] >= 1 and improper != {"o": 1}
        assert any("proper completion" in p for p in problems)

    def test_option_witness_is_a_dead_end(self):
        report = check_soundness(builders.deadlocking_net())
        assert report.counterexample == Marking({"pa": 1})
        report = check_soundness(builders.improper_completion_net())
        # no non-completing dead end exists, so the witness is the stuck
        # double completion
        assert report.counterexample == Marking({"o": 2})
        assert report.improper_marking == Marking({"o": 1, "pa": 1})
