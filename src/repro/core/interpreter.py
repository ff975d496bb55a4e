"""The reference replay interpreter: executes a recording's action
stream one ``isinstance`` at a time.

The oracle of the differential suite and ``grr doctor --vs-reference``
and the only executor that paces on recorded intervals or stops at
checkpoints. The deployable does not load it: the replayer imports it
where a caller asks for one of those (DESIGN.md "Layering").

Correctness checking follows Section 3.2: every state-changing event
must match the recording -- a RegReadOnce returning a different value
(unless marked ignorable), a RegReadWait or WaitIrq timing out, all
raise typed replay errors carrying the action index and the original
driver source location.

Pacing follows Section 4.5: before each action the interpreter waits
out the action's minimum interval. With ``use_recorded_intervals`` the
raw record-time gaps are replayed instead -- the Figure 10 ablation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core import actions as act
from repro.core.actions import (ACTION_OVERHEAD_NS, IMPLICIT_IRQ_TIMEOUT_NS,
                                InterpreterOptions, InterpreterStats)
from repro.core.nano_driver import NanoGpuDriver
from repro.core.recording import Recording
from repro.errors import (ReplayAborted, ReplayDivergence, ReplayError,
                          ReplayTimeout)

if TYPE_CHECKING:
    from repro.core.checkpoints import CheckpointManager


class ReplayInterpreter:
    """Executes one recording against the nano driver."""

    def __init__(self, nano: NanoGpuDriver, recording: Recording,
                 options: Optional[InterpreterOptions] = None,
                 should_yield: Optional[Callable[[], bool]] = None,
                 checkpoints: Optional[CheckpointManager] = None):
        self.nano = nano
        self.recording = recording
        self.options = options or InterpreterOptions()
        self.should_yield = should_yield
        self.checkpoints = checkpoints
        self.stats = InterpreterStats()

    def execute(self,
                deposit_inputs: Optional[Callable[[], None]] = None,
                start_index: int = 0) -> InterpreterStats:
        """Run actions from ``start_index``; raises on divergence."""
        clock = self.nano.clock
        last_end = clock.now()
        actions = self.recording.actions
        prologue_len = self.recording.meta.prologue_len
        flight = self.nano.flight

        if start_index > 0 and deposit_inputs is not None:
            # Resuming mid-stream (checkpoint restore): inputs are
            # already in GPU memory from the original attempt.
            deposit_inputs = None

        try:
            for index in range(start_index, len(actions)):
                action = actions[index]
                flight.action_index = index
                if self.nano.preempt_requested or (
                        self.should_yield is not None
                        and self.should_yield()):
                    raise ReplayAborted("preempted by the environment",
                                        index, action.src)

                interval = (action.recorded_interval_ns
                            if self.options.use_recorded_intervals
                            else action.min_interval_ns)
                delay_range = self.options.extra_delay_range
                if delay_range is None or \
                        delay_range[0] <= index < delay_range[1]:
                    interval += self.options.extra_delay_ns
                target = last_end + interval
                if target > clock.now():
                    wait = target - clock.now()
                    self.stats.pacing_wait_ns += wait
                    # Recorded before the advance so events firing
                    # during the wait land after the decision -- the
                    # compiled path does the same.
                    flight.record(clock.now(), "Pacing", (wait,))
                    clock.advance(wait)
                clock.advance(ACTION_OVERHEAD_NS)

                self._execute_one(action, index)
                self.stats.actions_executed += 1
                if isinstance(action, act.RegWrite) and action.is_job_kick:
                    if self.stats.first_kick_at_ns < 0:
                        self.stats.first_kick_at_ns = clock.now()
                    self.stats.jobs_kicked += 1
                    flight.record(clock.now(), "JobKick",
                                  (self.stats.jobs_kicked - 1,))
                if isinstance(action, act.IrqExit) and \
                        self.checkpoints is not None:
                    self.checkpoints.maybe_take(index + 1,
                                                self.stats.jobs_kicked)
                last_end = clock.now()

                if deposit_inputs is not None and index == prologue_len - 1:
                    flight.action_index = -1
                    deposit_inputs()
                    deposit_inputs = None
                    last_end = clock.now()
        finally:
            # Whatever runs next (input deposit, output copy, a
            # recovery reset, the next request) is no action's event.
            flight.action_index = -1

        if deposit_inputs is not None:
            # Degenerate recording with no prologue: deposit up front.
            deposit_inputs()
        return self.stats

    # -- single-action dispatch -----------------------------------------------

    def _execute_one(self, action: act.Action, index: int) -> None:
        nano = self.nano
        if isinstance(action, act.RegWrite):
            nano.reg_write(action.reg, action.val, action.mask)
        elif isinstance(action, act.RegReadOnce):
            value = nano.reg_read(action.reg)
            if not action.ignore and value != action.val:
                raise ReplayDivergence(
                    f"register {action.reg} read {value:#x}, recorded "
                    f"{action.val:#x}", index, action.src)
        elif isinstance(action, act.RegReadWait):
            ok = nano.reg_poll(action.reg, action.mask, action.val,
                               action.timeout_ns)
            if not ok:
                raise ReplayTimeout(
                    f"poll of {action.reg} (mask {action.mask:#x}, want "
                    f"{action.val:#x}) timed out", index, action.src)
        elif isinstance(action, act.SetGpuPgtable):
            nano.set_gpu_pgtable(action.memattr)
        elif isinstance(action, act.MapGpuMem):
            nano.map_gpu_mem(action.addr, action.num_pages,
                             action.raw_pte_flags)
        elif isinstance(action, act.UnmapGpuMem):
            nano.unmap_gpu_mem(action.addr, action.num_pages)
        elif isinstance(action, act.Upload):
            dump = self.recording.dumps[action.dump_index]
            t0 = nano.clock.now()
            uploaded = nano.upload(action.addr, dump)
            self.stats.upload_ns += nano.clock.now() - t0
            self.stats.upload_bytes += uploaded
            skipped = dump.size - uploaded
            if skipped:
                self.stats.upload_skipped_bytes += skipped
        elif isinstance(action, act.WaitIrq):
            self.stats.irqs_waited += 1
            t0 = nano.clock.now()
            ok = nano.wait_irq(action.timeout_ns)
            self.stats.irq_wait_ns += nano.clock.now() - t0
            if not ok:
                raise ReplayTimeout(
                    "no GPU interrupt arrived in time", index, action.src)
        elif isinstance(action, act.IrqEnter):
            if nano.pending_irqs == 0:
                # The record-time interrupt preempted the CPU; replay
                # synchronizes on its arrival here instead.
                t0 = nano.clock.now()
                ok = nano.wait_irq(IMPLICIT_IRQ_TIMEOUT_NS)
                self.stats.irq_wait_ns += nano.clock.now() - t0
                if not ok:
                    raise ReplayTimeout(
                        "no GPU interrupt for asynchronous irq context",
                        index, action.src)
            nano.enter_irq_context()
        elif isinstance(action, act.IrqExit):
            nano.exit_irq_context()
        elif isinstance(action, (act.CopyToGpu, act.CopyFromGpu)):
            raise ReplayError(
                f"{type(action).__name__} actions are synthesized by the "
                "replayer", index, action.src)
        else:
            raise ReplayError(f"unknown action {type(action).__name__}",
                              index, action.src)
