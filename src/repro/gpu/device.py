"""Common machinery for integrated-GPU device models.

A :class:`GpuDevice` is *hardware*: software (the full driver or the
replayer's nano driver) may only talk to it through its register file,
shared memory, and its interrupt line. Everything else on the class is
either internal state or simulation plumbing (busy tracking for the
recorder's idle heuristic, fault injection for Section 7.2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import SocError
from repro.gpu.counters import CounterTape
from repro.gpu.isa import Program, decode_program, kernel_cost
from repro.gpu.mmu import GpuMmu, PteFormat
from repro.gpu.perf import GpuPerfModel
from repro.gpu.shader_exec import execute_program
from repro.soc.clock import ClockDomain, EventHandle
from repro.soc.machine import Machine
from repro.soc.mmio import RegisterDef, RegisterFile
from repro.units import US

#: Distinct shader blobs one device keeps decoded (oldest out first).
MAX_KERNELS = 256
#: Busy/idle edges one device remembers (two per job).
BUSY_HISTORY = 1024


@dataclass
class RunningJob:
    """Book-keeping for one job in flight (or hardware-queued)."""

    slot: int
    chain_va: int
    programs: List[object]
    completion: Optional[EventHandle]
    active_cores: int
    #: Open timeline span while the job executes (obs plumbing).
    obs_span: Optional[object] = None


class GpuDevice:
    """Base class for the Mali-like and v3d-like device models."""

    family = "abstract"

    def __init__(self, machine: Machine, model_name: str,
                 regdefs: List[RegisterDef], core_count: int,
                 clock_hz: int, pte_format: PteFormat,
                 max_active_jobs: int):
        self.machine = machine
        self.model_name = model_name
        self.core_count = core_count
        self.max_active_jobs = max_active_jobs
        self.regs = RegisterFile(regdefs)
        machine.mmio.map(machine.board.gpu_mmio_base, self.regs)
        self.irq_number = machine.board.gpu_irq
        machine.irq.register_line(self.irq_number, f"{model_name}-irq")
        self.clock_domain = ClockDomain(
            f"{model_name}-core", clock_hz, machine.clock,
            stabilize_ns=100 * US)
        self.mmu = GpuMmu(machine.memory, pte_format)
        self.perf = GpuPerfModel()
        #: Emulated performance-counter tape (always on, like the
        #: flight recorder); replayers open sessions on it, job
        #: completion records per-kernel rows into it.
        self.counters = CounterTape()

        # Busy/idle tracking: transitions feed the recorder's
        # "GPU idle through the interval => skippable" heuristic (§4.5).
        self._busy_count = 0
        self.busy_transitions: Deque[Tuple[int, bool]] = deque(
            [(0, False)], maxlen=BUSY_HISTORY)
        self.busy_observers: List[Callable[[bool], None]] = []

        # Fault injection (hardware-level events; see repro.gpu.faults).
        self.offline_core_mask = 0
        self._busy_span = None

        #: Scheduled hardware events that have neither fired nor been
        #: cancelled; a reset cancels them all.
        self._pending_ops: List[EventHandle] = []
        self._irq_level = False

        #: Kernel cache: shader blob bytes -> decoded program with its
        #: cost filled in. Keyed by content, and the blob is still read
        #: through the MMU on every kick, so an entry cannot go stale.
        self._kernels: Dict[bytes, Program] = {}

        # Mega-batch arming: when set to a shader_batch.BatchEnv, job
        # completion runs shader programs through it (one pass for N
        # fused requests) instead of unbatched. Owned by the replayer's
        # ``replay_mega``, which clears it when the fused replay ends;
        # the device never imports the overlay's module.
        self.mega_batch = None

    # -- identity ------------------------------------------------------------

    @property
    def clock_hz(self) -> int:
        return self.clock_domain.rate_hz

    def describe(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "model": self.model_name,
            "cores": self.core_count,
            "clock_hz": self.clock_hz,
            "pte_format": self.mmu.fmt.name,
        }

    # -- busy/idle tracking ----------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._busy_count > 0

    def _enter_busy(self) -> None:
        self._busy_count += 1
        if self._busy_count == 1:
            self._record_busy_transition(True)

    def _exit_busy(self) -> None:
        if self._busy_count <= 0:
            return
        self._busy_count -= 1
        if self._busy_count == 0:
            self._record_busy_transition(False)

    def _record_busy_transition(self, busy: bool) -> None:
        self.busy_transitions.append((self.machine.clock.now(), busy))
        obs = self.machine.obs
        if busy:
            self._busy_span = obs.begin(
                "busy", obs.track(f"gpu:{self.model_name}", "busy"),
                cat="gpu")
        elif self._busy_span is not None:
            obs.end(self._busy_span)
            self._busy_span = None
        for observer in self.busy_observers:
            observer(busy)

    def idle_throughout(self, t0: int, t1: int) -> bool:
        """True if the GPU was idle during the whole window [t0, t1].

        The history is bounded (:data:`BUSY_HISTORY` edges): a window
        that starts before the oldest edge kept raises
        :class:`~repro.errors.SocError` instead of guessing."""
        if t1 < t0:
            t0, t1 = t1, t0
        if t0 < self.busy_transitions[0][0]:
            raise SocError(
                f"busy history starts at {self.busy_transitions[0][0]} "
                f"ns; the window from {t0} ns is no longer retained")
        state_at_t0 = False
        for when, busy in self.busy_transitions:
            if when <= t0:
                state_at_t0 = busy
                continue
            if when >= t1:
                break
            if busy:  # Became busy inside the window.
                return False
        return not state_at_t0

    def trim_busy_history(self) -> None:
        """Drop history older than the current instant (memory bound)."""
        self.busy_transitions.clear()
        self.busy_transitions.append((self.machine.clock.now(), self.busy))

    # -- job execution timeline (obs plumbing) ----------------------------------

    def note_job_executing(self, job: RunningJob) -> None:
        """Open a timeline span on the job's slot track; family device
        models call this when the hardware actually starts crunching
        (not at enqueue -- queued jobs have no span yet)."""
        self.machine.flight.record(self.machine.clock.now(),
                                   "GpuJobStart",
                                   (job.slot, job.chain_va))
        obs = self.machine.obs
        job.obs_span = obs.begin(
            f"job@{job.chain_va:#x}",
            obs.track(f"gpu:{self.model_name}", f"slot{job.slot}"),
            cat="gpu-job",
            args={"cores": job.active_cores})

    def note_job_retired(self, job: Optional[RunningJob]) -> None:
        """Close the slot span (completion, fault, or hard stop)."""
        if job is not None:
            self.machine.flight.record(self.machine.clock.now(),
                                       "GpuJobRetire",
                                       (job.slot, job.chain_va))
            if job.obs_span is not None:
                self.machine.obs.end(job.obs_span)
                job.obs_span = None

    # -- shader fetch and execution (shared by the family paths) -----------------

    def _fetch_kernel(self, va: int, size: int, access: str) -> Program:
        """The shader program at ``va``: its bytes are fetched through
        the MMU on every kick and decoded once per distinct blob. Shared
        between jobs, so nobody edits the program returned."""
        blob = self.mmu.read_va(va, size, access=access)
        program = self._kernels.get(blob)
        if program is None:
            program = decode_program(blob)
            program.cost = kernel_cost(program)
            if len(self._kernels) >= MAX_KERNELS:
                del self._kernels[next(iter(self._kernels))]
            self._kernels[blob] = program
        return program

    def _run_job_programs(self, job: RunningJob) -> None:
        """Execute every shader program of a retiring job.

        One shared implementation for all three families so the
        counter tape sees each kernel exactly once: instructions
        retired (the executor's return value), the TLB hit/miss delta
        the program caused, and the mega-batch fan-out it ran under.
        Raises :class:`GpuPageFault` exactly like the inline loops it
        replaced; callers keep their fault handling.
        """
        env = self.mega_batch
        mmu = self.mmu
        tape = self.counters
        if not tape.enabled:
            for program in job.programs:
                if env is not None:
                    env.run(program, mmu)
                else:
                    execute_program(program, mmu)
            return
        tape.begin_job()
        fanout = env.n if env is not None else 0
        for program in job.programs:
            hits0 = mmu.tlb_hits
            misses0 = mmu.tlb_misses
            if env is not None:
                retired = env.run(program, mmu)
            else:
                retired = execute_program(program, mmu)
            tape.record_kernel(program, retired,
                               mmu.tlb_hits - hits0,
                               mmu.tlb_misses - misses0, fanout)

    # -- scheduling helpers -----------------------------------------------------

    def _schedule(self, delay_ns: int, callback: Callable[[], None],
                  tag: str = "") -> EventHandle:
        def fire() -> None:
            nonlocal handle
            self._pending_ops.remove(handle)
            # Unhook handle -> event -> fire -> handle, so a fired event
            # is freed by reference count, not by the cycle collector.
            handle = None
            callback()
        handle = self.machine.clock.schedule(delay_ns, fire, tag)
        self._pending_ops.append(handle)
        return handle

    def _cancel(self, handle: EventHandle) -> None:
        """Cancel one scheduled event and stop tracking it."""
        handle.cancel()
        if handle in self._pending_ops:
            self._pending_ops.remove(handle)

    def _cancel_pending(self) -> None:
        for handle in self._pending_ops:
            handle.cancel()
        self._pending_ops.clear()

    def _jitter(self, base_ns: int, spread: float = 0.08) -> int:
        """Nondeterministic hardware timing around a base delay."""
        factor = 1.0 + self.machine.rng.random() * spread
        return max(1, int(base_ns * factor))

    # -- interrupt line -----------------------------------------------------------

    def _irq_pending_level(self) -> bool:
        """Subclass: is any unmasked interrupt source asserted?"""
        raise NotImplementedError

    def update_irq_line(self) -> None:
        level = self._irq_pending_level()
        if level and not self._irq_level:
            self._irq_level = True
            self.machine.flight.record(self.machine.clock.now(),
                                       "GpuIrqRaise", (self.irq_number,))
            self.machine.irq.raise_irq(self.irq_number)
        elif not level:
            self._irq_level = False
            self.machine.irq.ack(self.irq_number)
