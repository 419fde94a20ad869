"""Process definitions, services and seeded inputs of the benchmark.

The port-terminal definitions are the ones of
``examples/port_container_handling.py`` (that module runs its scenario at
import, so they are rebuilt here): ``container_handling`` calls
``customs_clearance``, runs the yard operations in parallel and sends
``container_ready``.  ``carrier_pickup`` receives that message under a
business key on another shard, so the send crosses shards through the
outbox.  ``waiter``/``sender`` are the bare cross-shard pair and ``trip``
is the compensable saga.

Inputs come from ``--seed`` only: the program under test receives the
generated manifests and keys, never the seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterator

from repro.cluster import shard_of_key
from repro.model.builder import ProcessBuilder
from repro.model.elements import ScriptTask
from repro.services.edi import EdiMessage, EdiSegment, decode_edi, encode_edi

#: shards of every clustered workload
SHARDS = 4
#: cases per mix block: each block holds exactly DG_PER_BLOCK dangerous-goods
#: cases and INSPECT_PER_BLOCK customs inspections, so per-case counts do not
#: drift with the seed — the seed only moves them inside the block
BLOCK = 20
DG_PER_BLOCK = 5
INSPECT_PER_BLOCK = 2
#: every n-th saga also runs and compensates the ``trip`` process
COMPENSATE_EVERY = 10


# ------------------------------------------------------------------ services


def parse_manifest(edi_text):
    """Decode an IFTMIN-style manifest into process variables (CPU work)."""
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


def customs_gateway(sleep_s: float):
    """``send_customs_declaration`` with a simulated gateway round trip."""

    def send_customs_declaration(container_id):
        cusdec = EdiMessage(
            segments=[
                EdiSegment("UNH", (("1",), ("CUSDEC", "D", "96B"))),
                EdiSegment("BGM", (("929",), (container_id,))),
                EdiSegment("UNT", (("3",), ("1",))),
            ]
        )
        if sleep_s:
            time.sleep(sleep_s)
        return encode_edi(cusdec)

    return send_customs_declaration


# --------------------------------------------------------------- definitions


def customs_definition():
    return (
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
            "released",
            message_name="customs_release",
            correlation_expression="container_id",
        )
        .script_task("mark_released", script="customs_status = 'released'")
        .exclusive_gateway("verdict_merge")
        .branch_from("await_verdict")
        .message_catch(
            "inspection",
            message_name="customs_inspection",
            correlation_expression="container_id",
        )
        .user_task("physical_inspection", role="customs_officer")
        .script_task("mark_inspected", script="customs_status = 'inspected'")
        .connect_to("verdict_merge")
        .move_to("verdict_merge")
        .end()
        .build()
    )


def terminal_definition():
    return (
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


def carrier_definition():
    return (
        ProcessBuilder("carrier_pickup", name="Carrier pickup")
        .start()
        .receive_task(
            "await_ready",
            message_name="container_ready",
            correlation_expression="container_id",
        )
        .end()
        .build()
    )


def waiter_definition():
    return (
        ProcessBuilder("waiter")
        .start()
        .receive_task("rx", message_name="go", correlation_expression="key")
        .end()
        .build()
    )


def sender_definition():
    return (
        ProcessBuilder("sender")
        .start()
        .send_task("tx", message_name="go", payload_expression="msg")
        .end()
        .build()
    )


def trip_definition():
    """Three bookings, each with an undo handler appending to ``undone``."""
    builder = ProcessBuilder("trip")
    for step in ("flight", "hotel", "car"):
        builder.add_node(
            ScriptTask(f"cancel_{step}", script=f"undone = undone + '{step[0]}'")
        )
    builder.start()
    for step in ("flight", "hotel", "car"):
        builder.script_task(
            f"book_{step}",
            script=f"{step} = 1",
            compensation_handler=f"cancel_{step}",
        )
    builder.end()
    return builder.build()


PORT_DEFINITIONS = (customs_definition, terminal_definition, carrier_definition)
SAGA_DEFINITIONS = (waiter_definition, sender_definition, trip_definition)

#: resources able to take each user task's role
RESOURCES = (
    ("dg_dora", "dg_specialist"),
    ("dg_dan", "dg_specialist"),
    ("crane_carl", "crane_operator"),
    ("crane_cleo", "crane_operator"),
    ("officer_li", "customs_officer"),
)


# -------------------------------------------------------------------- inputs


@dataclass(frozen=True)
class PortCase:
    """One container: its manifest, keys, and the expected outcome."""

    container_id: str
    manifest: str
    business_key: str
    carrier_key: str
    dangerous: bool
    inspected: bool

    @property
    def customs_status(self) -> str:
        return "inspected" if self.inspected else "released"


@dataclass(frozen=True)
class Saga:
    """One cross-shard send: waiter on one shard, sender on another."""

    correlation: str
    waiter_key: str
    sender_key: str
    compensate: bool


def _key_on_other_shard(stem: str, avoid: int) -> str:
    suffix = 0
    while shard_of_key(f"{stem}-{suffix}", SHARDS) == avoid:
        suffix += 1
    return f"{stem}-{suffix}"


def port_cases(seed: int, client: int = 0) -> Iterator[PortCase]:
    """Endless seeded stream of cases; clients draw disjoint keys."""
    rng = random.Random(seed * 1_000_003 + client)
    serial = 0
    while True:
        dangerous = set(rng.sample(range(BLOCK), DG_PER_BLOCK))
        inspected = set(rng.sample(range(BLOCK), INSPECT_PER_BLOCK))
        for slot in range(BLOCK):
            serial += 1
            owner = "".join(rng.choice("ABCDEFGHJKLMNPRSTUVW") for _ in range(4))
            container_id = f"{owner}{client}{serial:07d}"
            document = f"DOC-{rng.randrange(10**6):06d}"
            manifest = f"UNH+{serial}+IFTMIN'BGM+85+{document}'EQD+CN+{container_id}'"
            if slot in dangerous:
                manifest += f"DGS+{rng.randrange(1, 10)}+{rng.randrange(1000, 3500)}'"
            business_key = f"bk-{container_id}"
            yield PortCase(
                container_id=container_id,
                manifest=manifest,
                business_key=business_key,
                carrier_key=_key_on_other_shard(
                    f"carrier-{container_id}", shard_of_key(business_key, SHARDS)
                ),
                dangerous=slot in dangerous,
                inspected=slot in inspected,
            )


def sagas(seed: int, client: int = 0) -> Iterator[Saga]:
    """Endless seeded stream of cross-shard sagas."""
    rng = random.Random(seed * 1_000_003 + 500_000 + client)
    serial = 0
    while True:
        serial += 1
        token = f"{rng.randrange(16**6):06x}"
        waiter_key = f"w{client}-{token}-{serial}"
        yield Saga(
            correlation=f"c{client}-{token}-{serial}",
            waiter_key=waiter_key,
            sender_key=_key_on_other_shard(
                f"s{client}-{token}-{serial}", shard_of_key(waiter_key, SHARDS)
            ),
            compensate=serial % COMPENSATE_EVERY == 0,
        )
