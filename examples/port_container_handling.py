"""Port container handling: EDI intake, customs clearance, yard operations.

The paper-era motivating scenario: a back-port terminal coordinating cargo
manifests (EDI), customs declarations, dangerous-goods checks, and yard
moves.  Shows: EDI decoding in a service task, a customs sub-process via a
call activity, message correlation with the customs authority, a deferred
choice (release vs. inspection order), and parallel yard operations.

Run:  python examples/port_container_handling.py
"""

from repro import ProcessBuilder, ProcessEngine
from repro.clock import VirtualClock
from repro.services.edi import EdiMessage, EdiSegment, decode_edi, encode_edi
from repro.worklist.allocation import ShortestQueueAllocator

# ------------------------------------------------------------- EDI intake

def parse_manifest(edi_text):
    """Decode an IFTMIN-style manifest into process variables."""
    message = decode_edi(edi_text)
    bgm = message.first("BGM")
    dgs = message.first("DGS")
    eqd = message.first("EQD")
    return {
        "container_id": eqd.element(1) if eqd else "?",
        "document": bgm.element(1) if bgm else "?",
        "dangerous_goods": dgs is not None,
        "imo_class": dgs.element(1) if dgs else None,
    }


def send_customs_declaration(container_id):
    # in production: an EDI CUSDEC to the customs single window
    cusdec = EdiMessage(
        segments=[
            EdiSegment("UNH", (("1",), ("CUSDEC", "D", "96B"))),
            EdiSegment("BGM", (("929",), (container_id,))),
            EdiSegment("UNT", (("3",), ("1",))),
        ]
    )
    return encode_edi(cusdec)


# ------------------------------------------------ customs clearance child

customs = (
    ProcessBuilder("customs_clearance", name="Customs clearance")
    .start()
    .service_task(
        "declare",
        service="send_customs_declaration",
        inputs={"container_id": "container_id"},
        output_variable="cusdec",
    )
    .event_gateway("await_verdict")
    .branch()
    .message_catch(
        "released", message_name="customs_release",
        correlation_expression="container_id",
    )
    .script_task("mark_released", script="customs_status = 'released'")
    .exclusive_gateway("verdict_merge")
    .branch_from("await_verdict")
    .message_catch(
        "inspection", message_name="customs_inspection",
        correlation_expression="container_id",
    )
    .user_task("physical_inspection", role="customs_officer")
    .script_task("mark_inspected", script="customs_status = 'inspected'")
    .connect_to("verdict_merge")
    .move_to("verdict_merge")
    .end()
    .build()
)

# ----------------------------------------------------- main port process

terminal = (
    ProcessBuilder("container_handling", name="Container handling")
    .start()
    .service_task(
        "intake",
        service="parse_manifest",
        inputs={"edi_text": "manifest"},
        output_variable="cargo",
    )
    .script_task(
        "register",
        script=(
            "container_id = cargo['container_id']\n"
            "dangerous = cargo['dangerous_goods']"
        ),
    )
    .exclusive_gateway("dg_check")
    .branch(condition="dangerous == true")
    .user_task("dg_clearance", role="dg_specialist", name="Dangerous goods clearance")
    .exclusive_gateway("dg_merge")
    .branch_from("dg_check", default=True)
    .connect_to("dg_merge")
    .move_to("dg_merge")
    .call_activity("customs", process_key="customs_clearance")
    .parallel_gateway("yard_ops")
    .branch()
    .user_task("yard_move", role="crane_operator", name="Move to stack")
    .parallel_gateway("ops_done")
    .branch_from("yard_ops")
    .script_task("update_tos", script="tos_updated = true")
    .connect_to("ops_done")
    .move_to("ops_done")
    .send_task(
        "notify_carrier",
        message_name="container_ready",
        payload_expression="{'correlation': container_id, 'status': customs_status}",
    )
    .end()
    .build()
)

engine = ProcessEngine(clock=VirtualClock(0), allocator=ShortestQueueAllocator())
engine.services.register("parse_manifest", parse_manifest)
engine.services.register("send_customs_declaration", send_customs_declaration)
engine.organization.add("dg_dora", roles=["dg_specialist"])
engine.organization.add("crane_carl", roles=["crane_operator"])
engine.organization.add("officer_li", roles=["customs_officer"])
engine.deploy(customs)
engine.deploy(terminal)

manifests = {
    "MSKU1234567": "UNH+1+IFTMIN'BGM+85+DOC-001'EQD+CN+MSKU1234567'",
    "HLXU7654321": "UNH+2+IFTMIN'BGM+85+DOC-002'EQD+CN+HLXU7654321'DGS+3+1203'",
}

instances = {
    cid: engine.start_instance("container_handling", {"manifest": edi})
    for cid, edi in manifests.items()
}

print("after intake:")
for cid, instance in instances.items():
    waiting = [t.waiting_on.get("reason") for t in instance.tokens]
    print(f"  {cid}: {instance.state.name:<8} waiting_on={waiting}")

# dangerous-goods clearance for the DGS container
for item in engine.worklist.items():
    if item.node_id == "dg_clearance":
        engine.start_work_item(item.id)
        engine.complete_work_item(item.id, {"dg_approved": True})

# customs verdicts arrive over the (simulated) single window
engine.correlate_message("customs_release", "MSKU1234567")
engine.correlate_message("customs_inspection", "HLXU7654321")
inspection = [
    i for i in engine.worklist.items() if i.node_id == "physical_inspection"
][0]
engine.start_work_item(inspection.id)
engine.complete_work_item(inspection.id, {"seal_intact": True})

# yard moves
for item in list(engine.worklist.items()):
    if item.node_id == "yard_move":
        engine.start_work_item(item.id)
        engine.complete_work_item(item.id)

print("\nafter customs + yard operations:")
for cid, instance in instances.items():
    print(
        f"  {cid}: {instance.state.name:<10} "
        f"customs={instance.variables.get('customs_status')} "
        f"dangerous={instance.variables.get('dangerous')}"
    )

print(f"\ncarrier notifications on the bus: "
      f"{[m.correlation for m in engine.bus.retained('container_ready')]}")
print(f"sample CUSDEC sent: {instances['MSKU1234567'].variables['cusdec']}")

# ------------------------------------------- vessel discharge (multi-instance)

# A whole vessel call: one child "unload_container" process per container on
# the manifest — the count is only known when the vessel arrives (workflow
# pattern 14, run-time multi-instance).

unload = (
    ProcessBuilder("unload_container")
    .start()
    .script_task(
        "assign_slot",
        script="slot = 'Y' + str(instance_index)\nunloaded = true",
    )
    .end()
    .build()
)
vessel = (
    ProcessBuilder("vessel_discharge", name="Vessel discharge")
    .start()
    .multi_instance(
        "unload_all",
        process_key="unload_container",
        cardinality="container_count",
        output_mappings={"slot": "slot"},
        output_collection="yard_slots",
    )
    .script_task("report", script="discharged = len(yard_slots)")
    .end()
    .build()
)
engine.deploy(unload)
engine.deploy(vessel)
call = engine.start_instance("vessel_discharge", {"container_count": 5})
print(f"\nvessel discharge: {call.state.name}, "
      f"{call.variables['discharged']} containers to slots "
      f"{sorted(r['slot'] for r in call.variables['yard_slots'])}")

# the terminal's process model, as ops would see it
from repro.model.render import to_ascii

print("\n" + to_ascii(vessel))
