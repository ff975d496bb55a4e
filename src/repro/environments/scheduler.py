"""GPU handoff between a replayer and interactive apps (D1, §5.3).

On a smartphone the replayer runs GR-supported ML while interactive
apps are off the GPU. When an interactive app asks for the GPU, the OS
preempts the replay *without waiting for ongoing GPU jobs*: the
scheduler flushes caches/TLB and soft-resets -- the sub-millisecond
delay Section 7.5 measures. The disrupted replay later resumes, either
from a checkpoint or by whole re-execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.replayer import Replayer, ReplayResult
from repro.errors import EnvironmentError_, ReplayAborted
from repro.soc.machine import Machine
from repro.units import MS


@dataclass
class InteractiveApp:
    """A foreground app that intermittently needs the GPU."""

    name: str
    #: How long it holds the GPU per burst.
    burst_ns: int = 16 * MS
    grants: int = 0
    total_wait_ns: int = 0


@dataclass
class PreemptionEvent:
    """One preemption: who asked, and how long the handoff took."""

    app: str
    at_ns: int
    handoff_delay_ns: int
    replay_action_index: int


class GpuHandoffScheduler:
    """OS-side arbiter between one replayer and interactive apps."""

    def __init__(self, machine: Machine, replayer: Replayer):
        self.machine = machine
        self.replayer = replayer
        self.owner = "replayer"
        self.events: List[PreemptionEvent] = []
        self._preempt_at_ns: Optional[int] = None

    # -- interactive side -----------------------------------------------------

    def schedule_preemption(self, app: InteractiveApp,
                            delay_ns: int) -> None:
        """Arrange for ``app`` to demand the GPU ``delay_ns`` from now."""
        self._preempt_at_ns = self.machine.clock.now() + delay_ns
        self._pending_app = app

    def _should_yield(self) -> bool:
        return (self._preempt_at_ns is not None
                and self.machine.clock.now() >= self._preempt_at_ns)

    # -- replay under preemption ---------------------------------------------------

    def run_replay(self, inputs: Optional[Dict[str, np.ndarray]] = None
                   ) -> ReplayResult:
        """Run a replay to completion, servicing scheduled preemptions.

        Each preemption hands the GPU to the interactive app for its
        burst, then resumes the replay (checkpoint restore if one is
        available, whole re-execution otherwise).
        """
        while True:
            try:
                manager = self.replayer.checkpoints
                if self.events and (manager is None
                                    or manager.latest() is None):
                    # Disrupted with no checkpoint: start over.
                    result = self.replayer.replay(
                        inputs=inputs,
                        should_yield=self._should_yield)
                elif self.events:
                    result = self.replayer.resume_after_preemption()
                else:
                    result = self.replayer.replay(
                        inputs=inputs,
                        should_yield=self._should_yield)
                return result
            except ReplayAborted as aborted:
                self._service_preemption(aborted.action_index)

    def _service_preemption(self, action_index: int) -> None:
        app = getattr(self, "_pending_app", None)
        if app is None:
            raise EnvironmentError_("preemption without a pending app")
        t0 = self.machine.clock.now()
        self.machine.flight.record(t0, "Preempt", (app.name,))
        delay = self.replayer.handoff()
        self.owner = app.name
        self.events.append(PreemptionEvent(
            app=app.name, at_ns=t0, handoff_delay_ns=delay,
            replay_action_index=action_index))
        app.grants += 1
        app.total_wait_ns += delay
        # The interactive app uses the GPU for its burst...
        self.machine.clock.advance(app.burst_ns)
        # ...then the OS hands it back to the replayer.
        self.owner = "replayer"
        self._preempt_at_ns = None
        self.replayer.nano.soft_reset()

    # -- reporting ---------------------------------------------------------------------

    def max_handoff_delay_ns(self) -> int:
        return max((e.handoff_delay_ns for e in self.events), default=0)
