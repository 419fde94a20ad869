"""T5 — Process change with in-flight work: BPMS migration vs rigid restart.

Shape claim: when the process changes (v1 → v2 adds a fraud-check step),
the BPMS hot-deploys v2 and *migrates* the in-flight instances, which then
finish on the new path; the rigid baseline must abort all in-flight cases
(or drain, delaying the change indefinitely).
"""

from repro.baseline.engine import (
    RigidCaseState,
    RigidEngine,
    RigidWorkflow,
    Step,
    WorkflowChangeError,
)
from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder
from repro.worklist.allocation import ShortestQueueAllocator

N_IN_FLIGHT = 100


def bpms_v1():
    return (
        ProcessBuilder("claim")
        .start()
        .user_task("assess", role="clerk")
        .script_task("settle", script="settled = true")
        .end()
        .build()
    )


def bpms_v2():
    return (
        ProcessBuilder("claim")
        .start()
        .user_task("assess", role="clerk")
        .script_task("fraud_check", script="fraud_checked = true")
        .script_task("settle", script="settled = true")
        .end()
        .build()
    )


def rigid_v1():
    workflow = RigidWorkflow("claim")
    workflow.add_step(Step("assess", manual=True, next_step="settle"))
    workflow.add_step(
        Step("settle", action=lambda s: s.update(settled=True), next_step=None)
    )
    return workflow


def rigid_v2():
    workflow = RigidWorkflow("claim")
    workflow.add_step(Step("assess", manual=True, next_step="fraud_check"))
    workflow.add_step(
        Step("fraud_check", action=lambda s: s.update(fraud_checked=True),
             next_step="settle")
    )
    workflow.add_step(
        Step("settle", action=lambda s: s.update(settled=True), next_step=None)
    )
    return workflow


def run_bpms_scenario():
    engine = ProcessEngine(clock=VirtualClock(0), allocator=ShortestQueueAllocator())
    engine.organization.add("clerk1", roles=["clerk"])
    engine.deploy(bpms_v1())
    instances = [engine.start_instance("claim") for _ in range(N_IN_FLIGHT)]
    engine.deploy(bpms_v2())
    migrated = 0
    for instance in instances:
        engine.migrate_instance(instance.id, target_version=2)
        migrated += 1
    # the pending human work continues seamlessly on v2
    for item in list(engine.worklist.items()):
        engine.start_work_item(item.id)
        engine.complete_work_item(item.id)
    survived = sum(
        1
        for i in instances
        if i.state is InstanceState.COMPLETED and i.variables.get("fraud_checked")
    )
    return migrated, survived


def run_rigid_scenario():
    engine = RigidEngine()
    engine.deploy(rigid_v1())
    cases = [engine.start_case("claim") for _ in range(N_IN_FLIGHT)]
    refused = False
    try:
        engine.redeploy(rigid_v2())
    except WorkflowChangeError:
        refused = True
    aborted = engine.redeploy(rigid_v2(), force=True)
    survivors = sum(1 for c in cases if c.state is RigidCaseState.COMPLETED)
    return refused, len(aborted), survivors


def test_t5_flexibility(benchmark, emit):
    migrated, survived = benchmark.pedantic(
        run_bpms_scenario, rounds=1, iterations=1
    )
    refused, aborted, rigid_survivors = run_rigid_scenario()

    emit(
        "",
        f"== T5: process change with {N_IN_FLIGHT} in-flight instances ==",
        f"{'system':<18} {'change applied':>15} {'in-flight fate':>28} "
        f"{'finish on v2':>13}",
        f"{'BPMS (migrate)':<18} {'hot deploy':>15} "
        f"{f'{migrated} migrated, 0 lost':>28} {survived:>13}",
        f"{'rigid (restart)':<18} {'refused first':>15} "
        f"{f'{aborted} aborted (forced)':>28} {rigid_survivors:>13}",
    )

    # shape assertions
    assert migrated == N_IN_FLIGHT
    assert survived == N_IN_FLIGHT       # all finish, all took the new path
    assert refused                        # rigid system refuses live change
    assert aborted == N_IN_FLIGHT         # forcing it kills all in-flight work
    assert rigid_survivors == 0
