"""Quickstart: model, verify, deploy, and run a process in ~40 lines.

Run:  python examples/quickstart.py
"""

from repro import ProcessBuilder, ProcessEngine
from repro.model.mapping import to_workflow_net
from repro.petri.workflow_net import check_soundness

# 1. Model a tiny approval process with the fluent builder.
model = (
    ProcessBuilder("expense", name="Expense approval")
    .start()
    .script_task("classify", script="large = amount > 500")
    .exclusive_gateway("route")
    .branch(condition="large == true")
    .user_task("manager_review", role="manager")
    .exclusive_gateway("merge")
    .branch_from("route", default=True)
    .script_task("auto_approve", script="approved = true")
    .connect_to("merge")
    .move_to("merge")
    .script_task("book", script="status = 'booked' if approved else 'rejected'")
    .end()
    .build()
)

# 2. Verify it formally before deployment (WF-net soundness).
report = check_soundness(to_workflow_net(model).net)
print(f"soundness: {'SOUND' if report.sound else report.problems} "
      f"({report.state_count} states)")

# 3. Deploy and run.
engine = ProcessEngine()
engine.organization.add("morgan", roles=["manager"])
engine.deploy(model)

small = engine.start_instance("expense", {"amount": 120})
print(f"small expense: {small.state.name}, status={small.variables['status']}")

big = engine.start_instance("expense", {"amount": 2500})
print(f"big expense  : {big.state.name} (waiting on manager)")

# 4. Work the human task through the worklist.
item = engine.worklist.offered_for_resource("morgan")[0]
engine.claim_work_item(item.id, "morgan")
engine.start_work_item(item.id)
engine.complete_work_item(item.id, {"approved": True})
print(f"big expense  : {big.state.name}, status={big.variables['status']}")

# 5. Every step was recorded.
print("audit trail  :", [e.type for e in engine.history.instance_events(big.id)][:6], "...")
