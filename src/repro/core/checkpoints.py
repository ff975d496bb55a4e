"""Optional GPU-state checkpointing (Section 5.3).

Periodically copies all replayer-mapped GPU memory plus the action
position, so a preempted replay can resume from the most recent
checkpoint instead of starting over. The paper finds this *generally
inferior to re-execution* because the memory copy is expensive
(MobileNet: 140 ms to dump 51 MB vs 45 ms to re-execute) -- the §7.5
benchmark reproduces exactly that trade-off, so the cost here is real
copy work on the virtual clock, not a constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.nano_driver import NanoGpuDriver
from repro.units import SIZE_BUCKETS_BYTES


@dataclass
class Checkpoint:
    """One restore point: action position + full GPU memory image."""

    action_index: int
    jobs_done: int
    memory: Dict[int, bytes]
    taken_at_ns: int

    @property
    def bytes_captured(self) -> int:
        return sum(len(d) for d in self.memory.values())


@dataclass
class CheckpointPolicy:
    """When to checkpoint: every N completed GPU jobs (0 = never)."""

    every_n_jobs: int = 0
    keep_last: int = 1


class CheckpointManager:
    """Takes and restores checkpoints on safe points (GPU idle)."""

    def __init__(self, nano: NanoGpuDriver, policy: CheckpointPolicy):
        self.nano = nano
        self.policy = policy
        self.checkpoints: List[Checkpoint] = []
        self._last_checkpoint_jobs = 0
        self.total_checkpoint_ns = 0
        self.taken_count = 0

    @property
    def enabled(self) -> bool:
        return self.policy.every_n_jobs > 0

    def maybe_take(self, action_index: int, jobs_done: int) -> bool:
        """Take a checkpoint if the job cadence says so.

        Called by the interpreter only at safe points: after an IrqExit
        with no job in flight, when the GPU register state is
        reconstructable from a reset + page-table reload.
        """
        if not self.enabled:
            return False
        if jobs_done - self._last_checkpoint_jobs < \
                self.policy.every_n_jobs:
            return False
        t0 = self.nano.clock.now()
        checkpoint = Checkpoint(
            action_index=action_index,
            jobs_done=jobs_done,
            memory=self.nano.snapshot_memory(),
            taken_at_ns=t0,
        )
        self.total_checkpoint_ns += self.nano.clock.now() - t0
        self.taken_count += 1
        obs = self.nano.machine.obs
        obs.counter("replay.checkpoints").inc()
        obs.histogram("replay.checkpoint_bytes",
                      SIZE_BUCKETS_BYTES).observe(
                          checkpoint.bytes_captured)
        obs.complete("checkpoint", obs.track("replay", "session"),
                     t0, self.nano.clock.now(), cat="replay",
                     args={"bytes": checkpoint.bytes_captured,
                           "action_index": action_index})
        self.checkpoints.append(checkpoint)
        if len(self.checkpoints) > self.policy.keep_last:
            self.checkpoints.pop(0)
        self._last_checkpoint_jobs = jobs_done
        return True

    def latest(self) -> Optional[Checkpoint]:
        return self.checkpoints[-1] if self.checkpoints else None

    def restore_latest(self, memattr: int) -> Optional[Checkpoint]:
        """Reset the GPU and reload state from the newest checkpoint."""
        checkpoint = self.latest()
        if checkpoint is None:
            return None
        self.nano.soft_reset()
        self.nano.set_gpu_pgtable(memattr)
        self.nano.restore_memory(checkpoint.memory)
        return checkpoint

    def reset(self) -> None:
        self.checkpoints.clear()
        self._last_checkpoint_jobs = 0
        self.total_checkpoint_ns = 0
        self.taken_count = 0
