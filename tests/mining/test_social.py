"""Tests for organizational mining (handover of work)."""

from repro.history.log import EventLog, LogEvent, Trace
from repro.mining.social import HandoverNetwork, working_together


def staffed_log():
    log = EventLog()
    log.add(
        Trace(
            "c1",
            [
                LogEvent("register", 1.0, resource="ana"),
                LogEvent("review", 2.0, resource="bo"),
                LogEvent("approve", 3.0, resource="ana"),
            ],
        )
    )
    log.add(
        Trace(
            "c2",
            [
                LogEvent("register", 1.0, resource="ana"),
                LogEvent("review", 2.0, resource="bo"),
                LogEvent("approve", 3.0, resource="cy"),
            ],
        )
    )
    return log


class TestHandoverNetwork:
    def test_handover_counts(self):
        network = HandoverNetwork.from_log(staffed_log())
        assert network.handover_count("ana", "bo") == 2
        assert network.handover_count("bo", "ana") == 1
        assert network.handover_count("bo", "cy") == 1
        assert network.handover_count("cy", "ana") == 0

    def test_self_handover_not_counted(self):
        log = EventLog()
        log.add(
            Trace(
                "c1",
                [
                    LogEvent("a", 1.0, resource="ana"),
                    LogEvent("b", 2.0, resource="ana"),
                ],
            )
        )
        network = HandoverNetwork.from_log(log)
        assert network.handovers == {}
        assert network.workload["ana"] == 2

    def test_events_without_resource_skipped(self):
        log = EventLog()
        log.add(
            Trace(
                "c1",
                [
                    LogEvent("a", 1.0, resource="ana"),
                    LogEvent("auto", 2.0),  # system step
                    LogEvent("b", 3.0, resource="bo"),
                ],
            )
        )
        network = HandoverNetwork.from_log(log)
        # the handover skips over the unattributed system step
        assert network.handover_count("ana", "bo") == 1

    def test_top_handovers_and_hubs(self):
        network = HandoverNetwork.from_log(staffed_log())
        top = network.top_handovers(top=1)
        assert top == [("ana", "bo", 2)]
        hubs = network.central_resources(top=1)
        assert hubs[0][0] in ("ana", "bo")

    def test_render(self):
        text = HandoverNetwork.from_log(staffed_log()).render()
        assert "resources: 3" in text
        assert "ana -> bo: 2" in text

    def test_from_engine_history(self, engine):
        from repro.history.log import to_event_log
        from repro.model.builder import ProcessBuilder

        model = (
            ProcessBuilder("two_step")
            .start()
            .user_task("draft", role="clerk")
            .user_task("check", role="clerk", separate_from=("draft",))
            .end()
            .build()
        )
        engine.deploy(model)
        for _ in range(4):
            engine.start_instance("two_step")
        while True:  # completing 'draft' items spawns the 'check' items
            open_items = [
                i for i in engine.worklist.items()
                if not i.state.is_terminal and i.allocated_to
            ]
            if not open_items:
                break
            for item in open_items:
                engine.start_work_item(item.id)
                engine.complete_work_item(item.id)
        network = HandoverNetwork.from_log(to_event_log(engine.history))
        # four-eyes guarantees every case has exactly one handover
        assert sum(network.handovers.values()) == 4
        assert all(a != b for (a, b) in network.handovers)


class TestWorkingTogether:
    def test_pairs_counted_once_per_case(self):
        together = working_together(staffed_log())
        assert together[("ana", "bo")] == 2
        assert together[("ana", "cy")] == 1
        assert together[("bo", "cy")] == 1

    def test_empty_log(self):
        assert working_together(EventLog()) == {}
