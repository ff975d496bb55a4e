"""Driver job scheduling: slots, queue depth, sync/async submission.

Real mobile GPU drivers keep shallow job queues (two outstanding jobs
on Mali, one on v3d -- Section 2.2). GPUReplay additionally *enforces
synchronous submission at record time* (queue depth one, next job not
kicked until the previous completed) to kill interrupt-coalescing
nondeterminism; Figure 3 measures the modest cost of that choice, and
this module is where both modes live.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional
from collections import deque
from weakref import proxy

from repro.errors import DriverError
from repro.units import SEC


class JobState(enum.Enum):
    QUEUED = enum.auto()
    RUNNING = enum.auto()
    DONE = enum.auto()
    FAILED = enum.auto()


@dataclass
class JobRecord:
    job_id: int
    chain_va: int
    affinity: int
    state: JobState = JobState.QUEUED
    slot: int = -1


class JobQueue:
    """FIFO of jobs feeding the hardware job slots.

    ``depth`` bounds concurrently-running jobs. ``depth == 1`` is the
    synchronous mode GPUReplay records under; the hardware slot limit
    bounds it from above.
    """

    def __init__(self, driver, num_slots: int, depth: int):
        if depth < 1 or depth > num_slots:
            raise DriverError(
                f"queue depth {depth} out of range 1..{num_slots}")
        self.driver = proxy(driver)   # the driver owns its queue
        self.num_slots = num_slots
        self.depth = depth
        self._ids = itertools.count(1)
        self._pending: Deque[JobRecord] = deque()
        self._running: Dict[int, JobRecord] = {}  # slot -> record
        self.jobs: Dict[int, JobRecord] = {}
        self.completed_count = 0
        self.failed_count = 0

    # -- configuration -------------------------------------------------------

    def set_depth(self, depth: int) -> None:
        if depth < 1 or depth > self.num_slots:
            raise DriverError(
                f"queue depth {depth} out of range 1..{self.num_slots}")
        self.depth = depth

    @property
    def sync_mode(self) -> bool:
        return self.depth == 1

    @property
    def running_count(self) -> int:
        return len(self._running)

    # -- submission -------------------------------------------------------------

    def submit(self, chain_va: int, affinity: int) -> int:
        if self.sync_mode and self._running:
            # Synchronous submission (Table 1): the previously
            # submitted job must complete before this one is flushed.
            self.driver.wait_for_irq(lambda: not self._running,
                                     10 * SEC, "sched:sync_submit")
        record = JobRecord(next(self._ids), chain_va, affinity)
        self.jobs[record.job_id] = record
        self._pending.append(record)
        self._kick_eligible()
        return record.job_id

    def _kick_eligible(self) -> None:
        while self._pending and len(self._running) < self.depth:
            slot = self._free_slot()
            if slot is None:
                return
            record = self._pending.popleft()
            record.slot = slot
            record.state = JobState.RUNNING
            self._running[slot] = record
            self.driver.kick_hardware(slot, record)

    def _free_slot(self) -> Optional[int]:
        for slot in range(self.num_slots):
            if slot not in self._running:
                return slot
        return None

    # -- completion (called from the driver's IRQ handler) -------------------------

    def on_slot_complete(self, slot: int, failed: bool) -> None:
        record = self._running.pop(slot, None)
        if record is None:
            return  # Spurious completion (e.g. after a reset).
        record.state = JobState.FAILED if failed else JobState.DONE
        if failed:
            self.failed_count += 1
        else:
            self.completed_count += 1
        self._kick_eligible()

    def abort_all(self) -> List[JobRecord]:
        """Fail everything in flight (reset/preemption path)."""
        aborted = list(self._running.values()) + list(self._pending)
        for record in aborted:
            record.state = JobState.FAILED
        self._running.clear()
        self._pending.clear()
        return aborted

    # -- waiting ---------------------------------------------------------------------

    def wait(self, job_id: int, timeout_ns: int = 10 * SEC,
             src: str = "sched:wait") -> JobState:
        record = self.jobs.get(job_id)
        if record is None:
            raise DriverError(f"unknown job id {job_id}")
        done = self.driver.wait_for_irq(
            lambda: record.state in (JobState.DONE, JobState.FAILED),
            timeout_ns, src)
        if not done:
            raise DriverError(f"timeout waiting for job {job_id}")
        return record.state

    def wait_all(self, timeout_ns: int = 30 * SEC,
                 src: str = "sched:wait_all") -> None:
        done = self.driver.wait_for_irq(
            lambda: not self._running and not self._pending,
            timeout_ns, src)
        if not done:
            raise DriverError("timeout draining job queue")
