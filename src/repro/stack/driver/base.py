"""Common driver machinery: traced register access, IRQs, job tracking.

All CPU/GPU interaction funnels through the accessors here, each
annotated with a ``src`` tag (the driver "source location") and
reported to attached tracers. This is the instrumentation layer the
recorder plugs into; without tracers attached the driver behaves like
the stock driver.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import DriverError
from repro.soc.machine import Machine
from repro.soc.mmio import RegAttr
from repro.stack.driver.ioctl import IoctlCode, IoctlDispatcher
from repro.stack.driver import trace
from repro.units import US

#: CPU-side cost of one MMIO access.
MMIO_ACCESS_NS = 150
#: CPU-side cost of entering/leaving interrupt context.
IRQ_ENTRY_NS = 2 * US
#: Scheduler wake-up latency after a blocking wait is satisfied (OS
#: asynchrony -- one of the unintended delays of Section 4.5 that the
#: replayer's idle-interval skipping removes).
SCHED_WAKEUP_NS = 10 * US
#: Default polling step for wait loops.
POLL_STEP_NS = 10 * US


class GpuDriver:
    """Base class for the Mali and v3d drivers."""

    name = "abstract"

    def __init__(self, machine: Machine):
        self.machine = machine
        self.gpu = machine.require_gpu()
        self.regs = self.gpu.regs
        self.clock = machine.clock
        self.ioctls = IoctlDispatcher(self.clock)
        self._tracers = trace.TracerMux()
        obs_tracer = machine.obs.driver_tracer()
        if obs_tracer is not None:
            self._tracers.add(obs_tracer)
        self._in_irq = False
        self._irq_connected = False
        self.outstanding_jobs = 0
        self.pending_hw_ops = 0
        self.reg_io_count = 0
        self.opened = False
        self._register_ioctls()

    # -- instrumentation -------------------------------------------------------

    def attach_tracer(self, tracer: trace.DriverTracer) -> None:
        self._tracers.add(tracer)

    def detach_tracer(self, tracer: trace.DriverTracer) -> None:
        self._tracers.remove(tracer)

    def _emit(self, event: trace.TraceEvent) -> None:
        self._tracers.emit(event)

    def gpu_busy_hint(self) -> bool:
        """The driver's own accounting of whether the GPU is working."""
        return self.outstanding_jobs > 0 or self.pending_hw_ops > 0

    # -- traced register accessors -----------------------------------------------

    def reg_read(self, name: str, src: str) -> int:
        self.clock.advance(MMIO_ACCESS_NS)
        value = self.regs.read(name)
        self.reg_io_count += 1
        volatile = RegAttr.VOLATILE in self.regs.lookup(name).attrs
        self._emit(trace.RegReadEvent(self.clock.now(), src,
                                      self.gpu_busy_hint(), name, value,
                                      volatile))
        return value

    def reg_write(self, name: str, value: int, src: str,
                  mask: int = 0xFFFFFFFF) -> None:
        self.clock.advance(MMIO_ACCESS_NS)
        if mask != 0xFFFFFFFF:
            current = self.regs.peek(name)
            value = (current & ~mask) | (value & mask)
        self.regs.write(name, value)
        self.reg_io_count += 1
        self._emit(trace.RegWriteEvent(self.clock.now(), src,
                                       self.gpu_busy_hint(), name, mask,
                                       value))

    def reg_poll(self, name: str, mask: int, value: int, src: str,
                 timeout_ns: int, step_ns: int = POLL_STEP_NS) -> bool:
        """The driver's ``wait_for`` macro: poll until masked bits match.

        The whole loop is summarized as one RegPollEvent; the number of
        raw reads is nondeterministic and deliberately not recorded as
        individual events (Section 4.2).
        """
        deadline = self.clock.now() + timeout_ns
        polls = 0
        success = False
        while True:
            polls += 1
            self.clock.advance(MMIO_ACCESS_NS)
            self.reg_io_count += 1
            if (self.regs.read(name) & mask) == value:
                success = True
                break
            if self.clock.now() >= deadline:
                break
            self.clock.advance(min(step_ns, deadline - self.clock.now()))
        self._emit(trace.RegPollEvent(self.clock.now(), src,
                                      self.gpu_busy_hint(), name, mask,
                                      value, timeout_ns, polls, success))
        return success

    # -- interrupts -------------------------------------------------------------

    def connect_irq(self) -> None:
        if self._irq_connected:
            return
        self.machine.irq.connect(self.gpu.irq_number, self._irq_entry)
        self._irq_connected = True

    def disconnect_irq(self) -> None:
        if not self._irq_connected:
            return
        self.machine.irq.connect(self.gpu.irq_number, None)
        self._irq_connected = False

    def _irq_entry(self, line: int) -> None:
        del line
        self.clock.advance(IRQ_ENTRY_NS)
        self._in_irq = True
        self._emit(trace.IrqEvent(self.clock.now(), self.irq_src(),
                                  self.gpu_busy_hint(), "enter"))
        try:
            self.handle_irq()
        finally:
            self._in_irq = False
            self._emit(trace.IrqEvent(self.clock.now(), self.irq_src(),
                                      self.gpu_busy_hint(), "exit"))
            self.machine.irq.ack(self.gpu.irq_number)

    def irq_src(self) -> str:
        return f"{self.name}:irq_handler"

    def handle_irq(self) -> None:
        raise NotImplementedError

    def wait_for_irq(self, predicate: Callable[[], bool], timeout_ns: int,
                     src: str) -> bool:
        """Block until ``predicate`` becomes true via interrupt delivery.

        Only an *actual* wait becomes a trace event: if the condition
        already holds, no GPU interrupt is coming, and recording a
        WaitIrq here would starve the replayer.
        """
        if predicate():
            return True
        self._emit(trace.WaitIrqEvent(self.clock.now(), src,
                                      self.gpu_busy_hint(), timeout_ns))
        deadline = self.clock.now() + timeout_ns
        while not predicate():
            if self.clock.now() >= deadline:
                return False
            fired = self.clock.advance_to_next_event(limit_ns=deadline)
            if not fired and not predicate():
                return False
        self.clock.advance(SCHED_WAKEUP_NS)
        return True

    # -- memory-map tracing helpers ------------------------------------------------

    def trace_mem_map(self, va: int, num_pages: int, flags: int,
                      tag: str, src: str) -> None:
        self._emit(trace.MemMapEvent(self.clock.now(), src,
                                     self.gpu_busy_hint(), va, num_pages,
                                     flags, tag))

    def trace_mem_unmap(self, va: int, num_pages: int, src: str) -> None:
        self._emit(trace.MemUnmapEvent(self.clock.now(), src,
                                       self.gpu_busy_hint(), va, num_pages))

    def trace_job_kick(self, slot: int, chain_va: int, job_index: int,
                       src: str) -> None:
        self._emit(trace.JobKickEvent(self.clock.now(), src,
                                      self.gpu_busy_hint(), slot, chain_va,
                                      job_index))

    # -- ioctl surface ----------------------------------------------------------------

    def _register_ioctls(self) -> None:
        self.ioctls.register(IoctlCode.VERSION_CHECK,
                             lambda name=self.name: {"driver": name,
                                                     "version": 1})
        self.ioctls.register(IoctlCode.GET_GPU_PROPS, self.get_gpu_props)

    def ioctl(self, code: IoctlCode, **args):
        return self.ioctls.call(code, **args)

    def get_gpu_props(self) -> Dict[str, object]:
        return self.gpu.describe()

    # -- lifecycle ----------------------------------------------------------------------

    def open(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def require_open(self) -> None:
        if not self.opened:
            raise DriverError(f"{self.name}: driver not opened")
