"""Job scheduler: timers and other time-driven continuations.

A min-heap keyed by due time, with stable FIFO order for equal times.  The
engine pumps the scheduler via ``run_due_jobs`` (production: from a driver
loop; tests/simulation: after advancing a virtual clock).  Jobs serialize
for crash recovery.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.storage.kvstore import KeyValueStore
from repro.storage.serializers import from_record, to_record
from repro.storage.writeset import WriteSet

#: store-key family of pending jobs (``jobs/<job id>``)
JOBS_PREFIX = "jobs/"

#: ``Job.data`` entries that hold a node id of the instance's definition
_NODE_KEYS = ("node_id", "boundary_id", "gateway_id", "event_id")


@dataclass(frozen=True)
class Job:
    """One scheduled continuation."""

    id: str
    due: float
    kind: str  # "timer" | "boundary_timer" | ...
    instance_id: str
    data: dict[str, Any] = field(default_factory=dict, hash=False, compare=False)

    def to_dict(self) -> dict[str, Any]:
        return to_record(self)

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "Job":
        return from_record(cls, raw)


class JobScheduler:
    """Due-time priority queue with cancellation."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, str]] = []
        self._jobs: dict[str, Job] = {}
        self._seq = itertools.count(1)
        # scheduled jobs are put, fired/cancelled ones deleted; an engine
        # binds its shared write-set in place of this private one
        self._writes = WriteSet((JOBS_PREFIX,))

    def bind_writes(self, writes: WriteSet) -> None:
        """Share the caller's (engine's) write-set."""
        self._writes = writes

    def schedule(
        self,
        due: float,
        kind: str,
        instance_id: str,
        data: dict[str, Any] | None = None,
        job_id: str | None = None,
    ) -> Job:
        """Add a job due at absolute time ``due``; returns it."""
        seq = next(self._seq)
        job = Job(
            id=job_id or f"job-{seq}",
            due=due,
            kind=kind,
            instance_id=instance_id,
            data=dict(data or {}),
        )
        if job.id in self._jobs:
            raise ValueError(f"duplicate job id {job.id!r}")
        self._jobs[job.id] = job
        heapq.heappush(self._heap, (due, seq, job.id))
        self._writes.put(JOBS_PREFIX, job.id, job.to_dict)
        return job

    def cancel(self, job_id: str) -> bool:
        """Remove a job by id (lazy heap deletion); returns existence."""
        if self._jobs.pop(job_id, None) is None:
            return False
        self._writes.delete(JOBS_PREFIX, job_id)
        return True

    def cancel_where(self, predicate: Callable[[Job], bool]) -> int:
        """Cancel all jobs matching a predicate; returns the count."""
        doomed = [job_id for job_id, job in self._jobs.items() if predicate(job)]
        for job_id in doomed:
            del self._jobs[job_id]
            self._writes.delete(JOBS_PREFIX, job_id)
        return len(doomed)

    def remap_nodes(self, instance_id: str, target_node: Callable[[str], str]) -> None:
        """Migration: re-point an instance's jobs at the target version's
        node ids (a job names the node its firing resumes)."""
        for job in self._jobs.values():
            if job.instance_id != instance_id:
                continue
            renamed = {
                key: target_node(job.data[key]) for key in _NODE_KEYS if key in job.data
            }
            if any(job.data[key] != node for key, node in renamed.items()):
                job.data.update(renamed)
                self._writes.put(JOBS_PREFIX, job.id, job.to_dict)

    def due_jobs(self, now: float) -> list[Job]:
        """Pop and return all jobs with ``due <= now``, in due order."""
        ready: list[Job] = []
        while self._heap and self._heap[0][0] <= now:
            _, _, job_id = heapq.heappop(self._heap)
            job = self._jobs.pop(job_id, None)
            if job is not None:  # skip lazily cancelled entries
                self._writes.delete(JOBS_PREFIX, job_id)
                ready.append(job)
        return ready

    def next_due(self) -> float | None:
        """Due time of the earliest pending job, if any."""
        while self._heap:
            due, _, job_id = self._heap[0]
            if job_id in self._jobs:
                return due
            heapq.heappop(self._heap)  # drain cancelled head
        return None

    def get(self, job_id: str) -> Job | None:
        """Look up a pending job."""
        return self._jobs.get(job_id)

    def __len__(self) -> int:
        return len(self._jobs)

    def pending(self) -> list[Job]:
        """All pending jobs, soonest first."""
        return sorted(self._jobs.values(), key=lambda j: (j.due, j.id))

    # -- persistence ----------------------------------------------------------

    def export(self) -> list[dict[str, Any]]:
        """Serializable snapshot of pending jobs."""
        return [job.to_dict() for job in self.pending()]

    def import_jobs(self, raw_jobs: list[dict[str, Any]]) -> None:
        """Restore jobs from a snapshot (crash recovery)."""
        for raw in raw_jobs:
            job = Job.from_dict(raw)
            if job.id in self._jobs:
                continue
            seq = next(self._seq)
            self._jobs[job.id] = job
            heapq.heappush(self._heap, (job.due, seq, job.id))
        # keep generated ids unique after recovery
        numeric = [
            int(j.id[4:]) for j in self._jobs.values()
            if j.id.startswith("job-") and j.id[4:].isdigit()
        ]
        if numeric:
            self._seq = itertools.count(max(numeric) + 1)

    def load(self, store: KeyValueStore) -> int:
        """Restore the ``jobs/`` records of a store; returns jobs held."""
        self.import_jobs([raw for _, raw in store.scan(JOBS_PREFIX)])
        return len(self)
