"""One sample of every stored record type, with its encoder and decoder.

Shared by the golden-bytes and round-trip tests of the record codec.  It
uses only the records' public ``to_dict``/``from_dict`` surface and the
definition codec, so the same samples encode under any version of the
codecs — which is how ``record_golden.json`` was captured.

Every field of every node type, command and record is set to a
non-default value in at least one sample (a few fields exclude each other,
so some types have two samples).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.cluster.outbox import OutboxRecord
from repro.engine import commands as cmds
from repro.engine.jobs import Job
from repro.engine.waits import MessageWait
from repro.model.elements import (
    BoundaryEvent,
    BusinessRuleTask,
    CallActivity,
    EndEvent,
    EventBasedGateway,
    ExclusiveGateway,
    InclusiveGateway,
    IntermediateMessageEvent,
    IntermediateTimerEvent,
    ManualTask,
    MultiInstanceActivity,
    ParallelGateway,
    ReceiveTask,
    RetryPolicy,
    ScriptTask,
    SendTask,
    SequenceFlow,
    ServiceTask,
    StartEvent,
    UserTask,
)
from repro.model.process import ProcessDefinition
from repro.model.serialization import (
    definition_from_dict,
    definition_to_dict,
    node_from_dict,
    node_to_dict,
)
from repro.storage.eventstore import EventRecord
from repro.workers.records import InvocationRecord

#: sample name -> node, at least one per node type
NODES: dict[str, Any] = {
    "StartEvent": StartEvent("start", "Begin"),
    "EndEvent": EndEvent("end", "Finish", terminate=True),
    "IntermediateTimerEvent": IntermediateTimerEvent("wait", "Wait", duration=12.5),
    "IntermediateMessageEvent": IntermediateMessageEvent(
        "catch", "Catch", message_name="paid", correlation_expression="order_id"
    ),
    "BoundaryEvent": BoundaryEvent(
        "late", "Late", attached_to="review", kind="timer", error_code="E42",
        duration=30.0,
    ),
    "UserTask": UserTask(
        "review", "Review", role="clerk", priority=5, due_seconds=3600.0,
        form_fields=("amount", "notes"), separate_from=("approve",),
        compensation_handler="undo_review",
    ),
    "ManualTask": ManualTask("sign", "Sign"),
    "ServiceTask": ServiceTask(
        "charge", "Charge", service="payments", inputs={"amount": "total"},
        output_variable="receipt",
        retry=RetryPolicy(max_attempts=5, initial_backoff=0.5, backoff_multiplier=3.0),
        async_execution=True, compensation_handler="refund",
    ),
    "ScriptTask": ScriptTask(
        "calc", "Calc", script="total = 1", compensation_handler="undo_calc"
    ),
    "BusinessRuleTask": BusinessRuleTask(
        "decide", "Decide", decision="risk", result_variable="risk_out"
    ),
    "SendTask": SendTask(
        "notify", "Notify", message_name="shipped", payload_expression="order"
    ),
    "ReceiveTask": ReceiveTask(
        "await", "Await", message_name="ack", correlation_expression="order_id"
    ),
    "CallActivity": CallActivity(
        "sub", "Sub", process_key="child", input_mappings={"x": "a"},
        output_mappings={"b": "y"},
    ),
    "MultiInstanceActivity": MultiInstanceActivity(
        "each", "Each", process_key="child", cardinality_expression="n",
        input_mappings={"x": "a"}, output_mappings={"b": "y"},
        output_collection="results", sequential=True,
    ),
    "MultiInstanceActivity/fire_and_forget": MultiInstanceActivity(
        "spray", "Spray", process_key="child", cardinality_expression="3",
        wait_for_completion=False,
    ),
    "ExclusiveGateway": ExclusiveGateway("xor", "Xor"),
    "ParallelGateway": ParallelGateway("and", "And"),
    "InclusiveGateway": InclusiveGateway("or", "Or"),
    "EventBasedGateway": EventBasedGateway("race", "Race"),
}

FLOWS = (
    SequenceFlow("f1", "start", "xor", condition="amount > 10"),
    SequenceFlow("f2", "start", "and", is_default=True),
)


def definition() -> ProcessDefinition:
    """Every sample node and flow in one definition."""
    out = ProcessDefinition(
        key="golden", name="Golden", version=3, description="all records",
        attributes={"owner": "ops"},
    )
    for node in NODES.values():
        out.add_node(node)
    for flow in FLOWS:
        out.add_flow(flow)
    return out


#: registered command name -> sample command
COMMANDS: dict[str, cmds.Command] = {
    "deploy_definition": cmds.DeployDefinition(
        definition=definition(), verify=True, force=True, pre_verified=True
    ),
    "start_instance": cmds.StartInstance(
        key="golden", variables={"amount": 12, "tags": ["a", "b"]},
        business_key="order-7", version=3, dedup_key="d-1",
    ),
    "terminate_instance": cmds.TerminateInstance(
        instance_id="p-1", reason="duplicate", dedup_key="d-2"
    ),
    "compensate_instance": cmds.CompensateInstance(instance_id="p-1", dedup_key="d-3"),
    "suspend_instance": cmds.SuspendInstance(instance_id="p-1", dedup_key="d-4"),
    "resume_instance": cmds.ResumeInstance(instance_id="p-1", dedup_key="d-5"),
    "migrate_instance": cmds.MigrateInstance(
        instance_id="p-1", target_version=2, node_mapping={"wait": "pause"},
        dedup_key="d-6",
    ),
    "claim_work_item": cmds.ClaimWorkItem(
        item_id="wi-1", resource_id="ana", dedup_key="d-7"
    ),
    "start_work_item": cmds.StartWorkItem(item_id="wi-1", dedup_key="d-8"),
    "complete_work_item": cmds.CompleteWorkItem(
        item_id="wi-1", result={"approved": True}, dedup_key="d-9"
    ),
    "correlate_message": cmds.CorrelateMessage(
        message_name="paid", correlation="order-7", payload={"amount": 12},
        dedup_key="d-10",
    ),
    "complete_service_invocation": cmds.CompleteServiceInvocation(
        invocation_id="inv-1", outcome="bpmn_error", value={"partial": [1, 2]},
        error="declined", error_code="E42", attempts=2, dedup_key="d-11",
    ),
    "requeue_dead_letter": cmds.RequeueDeadLetter(invocation_id="inv-1", dedup_key="d-12"),
    "run_due_jobs": cmds.RunDueJobs(),
    "advance_time": cmds.AdvanceTime(seconds=61.0),
}

RECORDS: dict[str, Any] = {
    "Job": Job(
        id="job-7", due=61.5, kind="boundary_timer", instance_id="p-1",
        data={"boundary_id": "late", "token_id": 3},
    ),
    "MessageWait": MessageWait(
        seq=4, instance_id="p-1", token_id="t-2", name="paid", correlation="o-9",
        node_id="catch", is_activity=False, race_gateway="race", race_event="m1",
    ),
    "MessageWait/match_any": MessageWait(
        seq=5, instance_id="p-2", token_id="t-1", name="ack", match_any=True
    ),
    "OutboxRecord": OutboxRecord(
        seq=3, origin="s1", name="paid", correlation={"order": 7},
        payload={"amount": 12}, created_at=4.5,
    ),
    "InvocationRecord": InvocationRecord(
        id="inv-1", instance_id="p-1", token_id=2, node_id="charge",
        service="payments", arguments={"amount": 12},
        retry={"max_attempts": 5, "initial_backoff": 0.5, "backoff_multiplier": 3.0},
        enqueued_at=7.25, requeues=1,
    ),
    "InvocationRecord/for_node": InvocationRecord.for_node(
        "inv-2", "p-1", 4, NODES["ServiceTask"], {"amount": 12}, 8.5
    ),
    "EventRecord": EventRecord(
        sequence=9, stream="p-1", type="node.completed", timestamp=3.25,
        data={"node_id": "calc"},
    ),
}


def _flow_to_dict(flow: SequenceFlow) -> dict[str, Any]:
    # a flow is stored only inside its definition
    return definition_to_dict(definition())["flows"][FLOWS.index(flow)]


def _flow_from_dict(raw: dict[str, Any]) -> SequenceFlow:
    stored = definition_to_dict(definition())
    stored["flows"] = [raw]
    return definition_from_dict(stored).flows[raw["id"]]


Sample = tuple[str, Any, Callable[[Any], Any], Callable[[Any], Any]]


def samples() -> list[Sample]:
    """``(name, sample, encode, decode)`` for every sample."""
    out: list[Sample] = [
        (f"node/{name}", node, node_to_dict, node_from_dict)
        for name, node in NODES.items()
    ]
    out += [(f"flow/{f.id}", f, _flow_to_dict, _flow_from_dict) for f in FLOWS]
    out.append(("definition", definition(), definition_to_dict, definition_from_dict))
    out += [
        (f"command/{name}", command, type(command).to_dict, cmds.command_from_dict)
        for name, command in COMMANDS.items()
    ]
    out += [
        (f"record/{name}", record, type(record).to_dict, type(record).from_dict)
        for name, record in RECORDS.items()
    ]
    return out
