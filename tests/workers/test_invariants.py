"""Property test: the invocation conservation invariant.

For any interleaving of enqueues, successful/failing executions, DLQ
requeues, cancellations, and client-duplicate completion dispatches,
every service satisfies ``completed + pending + dead_lettered ==
enqueued`` — no invocation is ever lost or double-counted.  Actions run
on a manual pool so Hypothesis controls the exact order.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.engine.engine import ProcessEngine
from repro.engine.instance import InstanceState
from repro.model.builder import ProcessBuilder
from repro.model.elements import RetryPolicy
from repro.workers import WorkerPool

_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ACTIONS = st.lists(
    st.sampled_from(
        ["start", "run_ok", "run_fail", "requeue", "duplicate", "terminate"]
    ),
    min_size=1,
    max_size=40,
)


def service_model():
    return (
        ProcessBuilder("p")
        .start()
        .service_task(
            "call",
            service="svc",
            inputs={"n": "n"},
            output_variable="out",
            retry=RetryPolicy(max_attempts=1, initial_backoff=0.0),
        )
        .end("done")
        .build()
    )


def check_invariant(engine):
    for service, counts in engine.workers_status().items():
        assert (
            counts["completed"] + counts["pending"] + counts["dead_lettered"]
            == counts["enqueued"]
        ), (service, counts)


@_settings
@given(ACTIONS)
def test_conservation_invariant_under_arbitrary_interleavings(actions):
    engine = ProcessEngine(clock=VirtualClock(1000.0))
    pool = WorkerPool(workers=0)
    engine.attach_workers(pool)
    behavior = {"fail": False}

    def svc(n):
        if behavior["fail"]:
            raise RuntimeError("boom")
        return n * 2

    engine.services.register("svc", svc)
    engine.deploy(service_model())

    seq = 0
    past_completions = []
    for action in actions:
        if action == "start":
            seq += 1
            engine.start_instance("p", {"n": seq})
        elif action == "run_ok":
            behavior["fail"] = False
            command = pool.run_next()
            if command is not None:
                past_completions.append(command)
        elif action == "run_fail":
            behavior["fail"] = True
            command = pool.run_next()
            if command is not None:
                past_completions.append(command)
        elif action == "requeue":
            letters = engine.dead_letters()
            if letters:
                engine.requeue_dead_letter(letters[0]["id"])
        elif action == "duplicate":
            if past_completions:
                engine.dispatch(past_completions[0])
        elif action == "terminate":
            running = engine.instances(InstanceState.RUNNING)
            if running:
                engine.terminate_instance(running[0].id)
        check_invariant(engine)

    # drain everything that's still queued; the invariant must also hold
    # at quiescence with zero pending
    behavior["fail"] = False
    pool.drain()
    check_invariant(engine)
    status = engine.workers_status()
    if status:
        assert status["svc"]["pending"] == 0
