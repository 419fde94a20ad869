"""The rule registry: every diagnostic the analyser can emit, in one place.

Rule ids are stable API — they appear in baselines, suppression attributes,
and CI logs.  Categories:

* ``STR``  structural — graph shape, cardinalities, expression syntax
* ``DF``   data flow — variable definition/use over the control-flow graph
* ``SND``  soundness / anti-patterns — behavioural defects found on the
  WF-net translation (deadlock, lack of synchronization, dead activities)
* ``REF``  references — bindings to services, roles, decisions, processes
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import Severity


@dataclass(frozen=True)
class RuleSpec:
    """Identity and default severity of one analysis rule."""

    id: str
    title: str
    severity: Severity
    category: str
    description: str = ""


RULES: dict[str, RuleSpec] = {}


def _register(spec: RuleSpec) -> RuleSpec:
    if spec.id in RULES:  # pragma: no cover - registry is module-static
        raise ValueError(f"duplicate rule id {spec.id!r}")
    RULES[spec.id] = spec
    return spec


# -- structural ---------------------------------------------------------------

STR001 = _register(RuleSpec(
    "STR001", "malformed entry/exit", Severity.ERROR, "structural",
    "exactly one start event; at least one end event; no flows into starts "
    "or out of ends",
))
STR002 = _register(RuleSpec(
    "STR002", "flow cardinality violation", Severity.ERROR, "structural",
    "activities and intermediate events have exactly one incoming and one "
    "outgoing flow; gateways have at least one of each",
))
STR003 = _register(RuleSpec(
    "STR003", "gateway guard/default misuse", Severity.ERROR, "structural",
    "default flows only on XOR/OR gateways, at most one per gateway; "
    "unguarded or guard-less splits are flagged",
))
STR004 = _register(RuleSpec(
    "STR004", "event gateway target", Severity.ERROR, "structural",
    "event-based gateways must lead to catch events",
))
STR005 = _register(RuleSpec(
    "STR005", "expression does not parse", Severity.ERROR, "structural",
    "guards, cardinalities, and script statements must parse in the "
    "sandboxed expression language the engine evaluates",
))
STR006 = _register(RuleSpec(
    "STR006", "boundary event attachment", Severity.ERROR, "structural",
    "boundary events attach to existing activities",
))
STR007 = _register(RuleSpec(
    "STR007", "separation-of-duties reference", Severity.ERROR, "structural",
    "separate_from must name other user tasks",
))
STR008 = _register(RuleSpec(
    "STR008", "disconnected node", Severity.ERROR, "structural",
    "every node lies on a path from the start event to some end event",
))
STR009 = _register(RuleSpec(
    "STR009", "compensation handler reference", Severity.ERROR, "structural",
    "a compensation_handler must name a detached activity of the same "
    "definition — an existing task with no sequence flows, distinct from "
    "its host",
))

# -- data flow ----------------------------------------------------------------

DF001 = _register(RuleSpec(
    "DF001", "possibly uninitialized read", Severity.WARNING, "dataflow",
    "a variable assigned somewhere in the model is read on a path that "
    "reaches the read before any assignment",
))
DF002 = _register(RuleSpec(
    "DF002", "undeclared process input", Severity.INFO, "dataflow",
    "a variable is read but never assigned anywhere in the model — it must "
    "be supplied when the instance starts",
))
DF003 = _register(RuleSpec(
    "DF003", "dead write", Severity.WARNING, "dataflow",
    "an assigned value is overwritten on every path before anything "
    "reads it",
))
DF004 = _register(RuleSpec(
    "DF004", "write never consumed", Severity.INFO, "dataflow",
    "a variable is assigned but nothing in the model reads it — fine if it "
    "is a process output, dead weight otherwise",
))
DF005 = _register(RuleSpec(
    "DF005", "ordering-dependent read", Severity.WARNING, "dataflow",
    "a variable is read on one parallel branch but only assigned on a "
    "concurrent branch; whether the read sees the value depends on "
    "interleaving",
))

# -- soundness / anti-patterns ------------------------------------------------

SND001 = _register(RuleSpec(
    "SND001", "deadlock", Severity.ERROR, "behavioral",
    "a reachable marking has no enabled transition and is not completion — "
    "classically an XOR-split routed into an AND-join",
))
SND002 = _register(RuleSpec(
    "SND002", "lack of synchronization", Severity.ERROR, "behavioral",
    "duplicate tokens on a sequence flow or duplicate completion — "
    "classically an AND-split merged by an XOR-join",
))
SND003 = _register(RuleSpec(
    "SND003", "dead activity", Severity.ERROR, "behavioral",
    "an activity that can never execute in any run",
))
SND004 = _register(RuleSpec(
    "SND004", "implicit termination", Severity.WARNING, "behavioral",
    "completion with tokens left on other paths (multiple end events on "
    "parallel branches); the engine allows it, strict soundness does not",
))
SND005 = _register(RuleSpec(
    "SND005", "no option to complete", Severity.ERROR, "behavioral",
    "from some reachable marking, completion is unreachable (livelock)",
))
SND006 = _register(RuleSpec(
    "SND006", "behavioural analysis skipped", Severity.INFO, "behavioral",
    "the state-space budget was exhausted or the model has no WF-net "
    "translation; behavioural rules were not decided",
))

# -- references ---------------------------------------------------------------

REF001 = _register(RuleSpec(
    "REF001", "unregistered service", Severity.ERROR, "reference",
    "a service task names a service that is not registered",
))
REF002 = _register(RuleSpec(
    "REF002", "unknown role", Severity.WARNING, "reference",
    "a user task routes to a role no resource holds",
))
REF003 = _register(RuleSpec(
    "REF003", "unknown decision", Severity.ERROR, "reference",
    "a business-rule task references an unregistered decision table",
))
REF004 = _register(RuleSpec(
    "REF004", "unknown process key", Severity.WARNING, "reference",
    "a call activity references a process key that is not deployed",
))

# -- interprocess: message choreography ---------------------------------------

MSG001 = _register(RuleSpec(
    "MSG001", "send without receiver", Severity.WARNING, "interproc",
    "a send task publishes a message name no deployed definition ever "
    "receives or catches — the message is retained (or forwarded and never "
    "consumed) at runtime",
))
MSG002 = _register(RuleSpec(
    "MSG002", "receive nothing sends", Severity.WARNING, "interproc",
    "a receive task or message catch event waits for a message name no "
    "deployed definition ever sends — unless an external client publishes "
    "it, the instance waits forever",
))
MSG003 = _register(RuleSpec(
    "MSG003", "ambiguous receivers", Severity.WARNING, "interproc",
    "several deployed definitions receive the same message name; which one "
    "consumes a send depends on correlation and runtime state",
))

# -- interprocess: call graph -------------------------------------------------

CALL001 = _register(RuleSpec(
    "CALL001", "call target not deployed", Severity.ERROR, "interproc",
    "a call activity (or multi-instance activity) targets a process key "
    "with no deployed version; starting the subprocess will fail",
))
CALL002 = _register(RuleSpec(
    "CALL002", "static recursion cycle", Severity.ERROR, "interproc",
    "call activities form a cycle through the deployment; if every call "
    "site on the cycle must execute, instances recurse without bound",
))
CALL003 = _register(RuleSpec(
    "CALL003", "call mapping mismatch", Severity.WARNING, "interproc",
    "a caller's input mappings miss a variable the callee requires at "
    "start, or an output mapping reads a variable the callee never writes",
))

# -- interprocess: choreography soundness -------------------------------------

CHOR001 = _register(RuleSpec(
    "CHOR001", "cross-process deadlock", Severity.WARNING, "interproc",
    "composing the communicating definitions into one net with message "
    "channel places reaches a marking where some instance is stuck waiting "
    "and no internal send can ever satisfy it",
))
CHOR003 = _register(RuleSpec(
    "CHOR003", "choreography analysis skipped", Severity.INFO, "interproc",
    "the composed state-space budget was exhausted or a definition has no "
    "WF-net translation; cross-process behavioural rules were not decided",
))
