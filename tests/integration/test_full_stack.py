"""One scenario through the whole stack.

Models an order process, verifies it formally, runs it durably with
simulated staff, crashes the engine mid-flight, recovers, finishes the
work, mines the history, and checks the analytics — every subsystem in
one flow.
"""

from repro.analytics.kpis import fleet_report
from repro.bpmn import parse_bpmn, to_bpmn_xml
from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.engine.instance import InstanceState
from repro.history.log import to_event_log
from repro.mining.alpha import alpha_miner
from repro.mining.conformance import token_replay
from repro.model.builder import ProcessBuilder
from repro.model.mapping import to_workflow_net
from repro.petri.workflow_net import check_soundness
from repro.storage.kvstore import DurableKV
from repro.worklist.allocation import ShortestQueueAllocator


def order_model():
    return (
        ProcessBuilder("order", name="Order handling")
        .start()
        .service_task(
            "price",
            service="price_order",
            inputs={"items": "items"},
            output_variable="total",
        )
        .exclusive_gateway("route")
        .branch(condition="total > 100")
        .user_task("review", role="clerk")
        .exclusive_gateway("merge")
        .branch_from("route", default=True)
        .script_task("auto", script="approved = true")
        .connect_to("merge")
        .move_to("merge")
        .script_task("finish", script="done = true")
        .end()
        .build()
    )


def build_engine(store, clock, history_path=None):
    history = None
    if history_path is not None:
        from repro.history.audit import HistoryService
        from repro.storage.eventstore import EventStore

        history = HistoryService(EventStore(history_path), clock=clock)
    engine = ProcessEngine(
        clock=clock,
        store=store,
        history=history,
        allocator=ShortestQueueAllocator(),
    )
    engine.organization.add("ana", roles=["clerk"])
    engine.services.register("price_order", lambda items: 30.0 * items)
    return engine


class TestFullStack:
    def test_model_verify_run_crash_recover_mine(self, tmp_path):
        model = order_model()

        # 1. formal verification of the model we will execute
        soundness = check_soundness(to_workflow_net(model).net)
        assert soundness.sound, soundness.problems

        # 2. BPMN interchange round-trip before deployment
        model = parse_bpmn(to_bpmn_xml(model))

        # 3. durable deployment and execution (state AND history journaled)
        directory = str(tmp_path / "store")
        history_path = str(tmp_path / "history.log")
        clock = VirtualClock(0)
        store = DurableKV(directory, sync_writes=False)
        engine = build_engine(store, clock, history_path)
        engine.deploy(model, verify=True)
        small = [engine.start_instance("order", {"items": 1}) for _ in range(4)]
        big = [engine.start_instance("order", {"items": 9}) for _ in range(3)]
        assert all(i.state is InstanceState.COMPLETED for i in small)
        assert all(i.state is InstanceState.RUNNING for i in big)
        big_ids = [i.id for i in big]
        engine.history.close()
        store.close()  # 4. crash

        # 5. recover on a fresh engine over the same store + history journal
        store2 = DurableKV(directory)
        engine2 = build_engine(store2, VirtualClock(clock.now()), history_path)
        counts = engine2.recover()
        assert counts["instances"] == 7
        assert counts["workitems"] == 3

        # 6. staff finish the recovered human work
        for item in list(engine2.worklist.items()):
            if not item.state.is_terminal:
                engine2.start_work_item(item.id)
                engine2.complete_work_item(item.id, {"approved": True})
        for instance_id in big_ids:
            recovered = engine2.instance(instance_id)
            assert recovered.state is InstanceState.COMPLETED
            assert recovered.variables["done"] is True

        # 7. mine the full durable history: both variants, perfect fitness
        log = to_event_log(engine2.history)
        variants = set(log.variants())
        assert ("price", "auto", "finish") in variants
        assert ("price", "review", "finish") in variants
        net = alpha_miner(log)
        assert token_replay(net, log).fitness == 1.0

        # 8. fleet analytics agree with the engine state
        report = fleet_report(engine2.history)
        assert report.total_instances == 7
        assert report.completed == 7
        engine2.history.close()
        store2.close()

    def test_simulation_and_analytics_agree(self):
        from repro.sim.distributions import Fixed
        from repro.sim.kpi import compute_kpis
        from repro.sim.runner import SimulationRunner

        clock = VirtualClock(0)
        engine = build_engine(
            __import__("repro.storage.kvstore", fromlist=["MemoryKV"]).MemoryKV(),
            clock,
        )
        engine.deploy(order_model())
        runner = SimulationRunner(
            engine,
            "order",
            n_cases=25,
            arrival=Fixed(1.0),
            default_service=Fixed(0.5),
            variables_fn=lambda rng, k: {"items": 9},  # all need review
            result_fn=lambda rng, node: {"approved": True},
            seed=3,
        )
        result = runner.run()
        kpis = compute_kpis(engine.history, engine.worklist, result)
        fleet = fleet_report(engine.history)
        assert kpis.cases_completed == 25
        assert fleet.completed == 25
        assert len(kpis.cycle_times) == len(fleet.cycle_times) == 25
        assert abs(kpis.mean_cycle_time - fleet.mean_cycle_time) < 1e-9
