"""The Qualcomm-Adreno-like GPU (Table 1, row 5).

A third CPU/GPU interface style, rounding out the paper's GPU-model
claim ("our GPU model fits popular integrated GPUs"):

- jobs are submitted through a **ring buffer** in GPU memory: the
  driver appends fixed-size packets and rings a doorbell by writing
  the CP write pointer (``CP_RB_WPTR``); the command processor
  consumes packets and advances ``CP_RB_RPTR``;
- the SMMU page tables use yet another PTE layout
  (:class:`~repro.gpu.mmu.AdrenoPteFormat`), programmed through
  TTBR0/CR0 with explicit TLB invalidation;
- synchronous submission is enforced the way Table 1 notes for
  Adreno: "check submitted job completion before a new command
  flush" -- the driver waits for RPTR to catch up before appending.
"""

from __future__ import annotations

import struct
from typing import List, Optional

from repro.errors import (GpuPageFault, JobDecodeError,
                          ShaderDecodeError)
from repro.gpu.device import GpuDevice, RunningJob
from repro.gpu.mmu import PTE_FORMATS
from repro.soc.machine import Machine
from repro.soc.mmio import RegAttr, RegisterDef
from repro.units import US

# RBBM_INT_0_STATUS bits.
INT_CP_DONE = 1 << 0
INT_RBBM_ERROR = 1 << 1
INT_SMMU_FAULT = 1 << 2

# SMMU_CR0 bits.
SMMU_ENABLE = 1 << 0

# UCHE_CACHE_FLUSH bits (hardware clears when the flush retires).
UCHE_FLUSH = 1 << 0

ADRENO_GPU_ID = 0x0604_0001  # Adreno 640-class
ADRENO_CORE_COUNT = 2
ADRENO_CLOCK_HZ = 585_000_000

#: Ring packets: magic, shader size, shader VA.
RING_PKT = struct.Struct("<IIQ")
RING_PKT_MAGIC = 0x37544B50  # "PKT7"

RESET_DELAY_NS = 60 * US
PWRON_DELAY_NS = 35 * US
FLUSH_DELAY_NS = 20 * US


def _adreno_registers() -> List[RegisterDef]:
    rw, ro = RegAttr.rw(), RegAttr.ro()
    trig = RegAttr.WRITABLE | RegAttr.WRITE_TRIGGER
    rw_trig = RegAttr.rw() | RegAttr.WRITE_TRIGGER
    vol = RegAttr.READABLE | RegAttr.VOLATILE
    return [
        RegisterDef("RBBM_GPU_ID", 0x000, ro),
        RegisterDef("RBBM_STATUS", 0x004, ro, doc="bit0: GPU busy"),
        RegisterDef("RBBM_SW_RESET_CMD", 0x008, trig),
        RegisterDef("RBBM_RESET_STATUS", 0x00C, ro,
                    doc="1 once a reset has retired"),
        RegisterDef("RBBM_INT_0_STATUS", 0x010, ro),
        RegisterDef("RBBM_INT_CLEAR_CMD", 0x014, trig),
        RegisterDef("RBBM_INT_0_MASK", 0x018, rw),
        RegisterDef("RBBM_PERFCTR_CP", 0x01C, vol),
        RegisterDef("GDSC_PWR_CTRL", 0x020, trig, doc="GPU rail on/off"),
        RegisterDef("GDSC_PWR_STATUS", 0x024, ro),
        RegisterDef("SPTP_PWR_CTRL", 0x028, trig,
                    doc="shader/tex cluster power"),
        RegisterDef("SPTP_PWR_STATUS", 0x02C, ro),
        RegisterDef("SMMU_TTBR0_LO", 0x030, rw),
        RegisterDef("SMMU_TTBR0_HI", 0x034, rw),
        RegisterDef("SMMU_CR0", 0x038, rw_trig),
        RegisterDef("SMMU_TLBIALL", 0x03C, trig),
        RegisterDef("SMMU_FSR", 0x040, ro, doc="fault status"),
        RegisterDef("SMMU_FAR_LO", 0x044, ro, doc="fault address"),
        RegisterDef("CP_RB_BASE_LO", 0x050, rw),
        RegisterDef("CP_RB_BASE_HI", 0x054, rw),
        RegisterDef("CP_RB_SIZE", 0x058, rw),
        RegisterDef("CP_RB_RPTR", 0x05C, ro,
                    doc="CP consume offset (bytes)"),
        RegisterDef("CP_RB_WPTR", 0x060, rw_trig,
                    doc="driver produce offset; writing is the doorbell"),
        RegisterDef("UCHE_CACHE_FLUSH", 0x064, rw_trig,
                    doc="bit0: flush; hardware clears when done"),
    ]


class AdrenoGpu(GpuDevice):
    """The Adreno device model."""

    family = "adreno"

    def __init__(self, machine: Machine):
        super().__init__(
            machine, "adreno-640", _adreno_registers(),
            core_count=ADRENO_CORE_COUNT, clock_hz=ADRENO_CLOCK_HZ,
            pte_format=PTE_FORMATS["adreno-smmu"], max_active_jobs=2)
        self._hw_active: Optional[RunningJob] = None
        self._hw_pending: List[RunningJob] = []
        self._wire_registers()

    # -- wiring ------------------------------------------------------------------

    def _wire_registers(self) -> None:
        regs = self.regs
        regs.poke("RBBM_GPU_ID", ADRENO_GPU_ID)
        regs.set_write_handler("RBBM_SW_RESET_CMD", self._on_reset)
        regs.set_write_handler("RBBM_INT_CLEAR_CMD", self._on_int_clear)
        regs.set_write_handler("RBBM_INT_0_MASK",
                               lambda _o, _v: self.update_irq_line())
        regs.set_write_handler("GDSC_PWR_CTRL", self._on_gdsc)
        regs.set_write_handler("SPTP_PWR_CTRL", self._on_sptp)
        regs.set_write_handler("SMMU_CR0", self._on_smmu_cr0)
        regs.set_write_handler("SMMU_TLBIALL",
                               lambda _o, _v: self.mmu.flush_tlb())
        regs.set_write_handler("CP_RB_WPTR", self._on_doorbell)
        regs.set_write_handler("CP_RB_BASE_LO", self._on_rb_base)
        regs.set_write_handler("UCHE_CACHE_FLUSH", self._on_uche_flush)
        regs.set_read_handler("RBBM_STATUS",
                              lambda _v: 1 if self.busy else 0)
        regs.set_read_handler(
            "RBBM_PERFCTR_CP",
            lambda _v: (self.machine.clock.now() * self.clock_hz
                        // 1_000_000_000) & 0xFFFFFFFF)

    # -- interrupts ------------------------------------------------------------------

    def _irq_pending_level(self) -> bool:
        return bool(self.regs.peek("RBBM_INT_0_STATUS")
                    & self.regs.peek("RBBM_INT_0_MASK"))

    def _assert_int(self, bits: int) -> None:
        self.regs.poke("RBBM_INT_0_STATUS",
                       self.regs.peek("RBBM_INT_0_STATUS") | bits)
        self.update_irq_line()

    def _on_int_clear(self, _old: int, value: int) -> None:
        self.regs.poke("RBBM_INT_0_STATUS",
                       self.regs.peek("RBBM_INT_0_STATUS") & ~value)
        self.update_irq_line()

    # -- power / reset -----------------------------------------------------------------

    def _on_gdsc(self, _old: int, value: int) -> None:
        if value & 1:
            self._schedule(self._jitter(PWRON_DELAY_NS),
                           lambda: self.regs.poke("GDSC_PWR_STATUS", 1),
                           "gdsc-on")
        else:
            self.regs.poke("GDSC_PWR_STATUS", 0)

    def _on_sptp(self, _old: int, value: int) -> None:
        if value & 1:
            self._schedule(self._jitter(PWRON_DELAY_NS),
                           lambda: self.regs.poke("SPTP_PWR_STATUS", 1),
                           "sptp-on")
        else:
            self.regs.poke("SPTP_PWR_STATUS", 0)

    def _on_reset(self, _old: int, _value: int) -> None:
        self._cancel_pending()
        self.note_job_retired(self._hw_active)
        self._hw_active = None
        for queued in self._hw_pending:
            self.note_job_retired(queued)
        self._hw_pending.clear()
        self.regs.poke("RBBM_INT_0_STATUS", 0)
        self.regs.poke("RBBM_RESET_STATUS", 0)
        self.regs.poke("CP_RB_RPTR", 0)
        self.regs.poke("CP_RB_WPTR", 0)
        self.regs.poke("SMMU_FSR", 0)
        self.regs.poke("GDSC_PWR_STATUS", 0)
        self.regs.poke("SPTP_PWR_STATUS", 0)
        self.mmu.set_base(0)
        self.regs.poke("SMMU_CR0", 0)
        self._busy_count = 0
        self._enter_busy()
        self.update_irq_line()

        def complete() -> None:
            self._exit_busy()
            self.regs.poke("RBBM_RESET_STATUS", 1)

        self._schedule(self._jitter(RESET_DELAY_NS), complete,
                       "adreno-reset")

    def _on_uche_flush(self, _old: int, value: int) -> None:
        if not value & UCHE_FLUSH:
            return
        self._enter_busy()

        def complete() -> None:
            self._exit_busy()
            self.regs.poke("UCHE_CACHE_FLUSH",
                           self.regs.peek("UCHE_CACHE_FLUSH")
                           & ~UCHE_FLUSH)

        self._schedule(self._jitter(FLUSH_DELAY_NS), complete,
                       "uche-flush")

    # -- SMMU ------------------------------------------------------------------------------

    def _on_smmu_cr0(self, _old: int, value: int) -> None:
        if value & SMMU_ENABLE:
            base = ((self.regs.peek("SMMU_TTBR0_HI") << 32)
                    | self.regs.peek("SMMU_TTBR0_LO")) & ~0xFFF
            self.mmu.set_base(base)
        else:
            self.mmu.set_base(0)

    def _on_rb_base(self, _old: int, _value: int) -> None:
        """Re-programming the ring base rewinds both pointers."""
        self.regs.poke("CP_RB_RPTR", 0)
        self.regs.poke("CP_RB_WPTR", 0)

    def _raise_smmu_fault(self, va: int) -> None:
        self.regs.poke("SMMU_FSR", 1)
        self.regs.poke("SMMU_FAR_LO", va & 0xFFFFFFFF)
        self._assert_int(INT_SMMU_FAULT)

    # -- ring-buffer command processor -------------------------------------------------------

    def _ring_base(self) -> int:
        return ((self.regs.peek("CP_RB_BASE_HI") << 32)
                | self.regs.peek("CP_RB_BASE_LO"))

    def _on_doorbell(self, _old: int, wptr: int) -> None:
        """Consume ring packets from RPTR up to the new WPTR."""
        if not self.regs.peek("GDSC_PWR_STATUS") or \
                not self.regs.peek("SPTP_PWR_STATUS"):
            self._assert_int(INT_RBBM_ERROR)
            return
        size = self.regs.peek("CP_RB_SIZE")
        base = self._ring_base()
        rptr = self.regs.peek("CP_RB_RPTR")
        if size == 0 or wptr % RING_PKT.size or wptr > size:
            self._assert_int(INT_RBBM_ERROR)
            return
        offset = rptr
        # Account for packets already queued but not yet retired.
        for job in [self._hw_active] + self._hw_pending:
            if job is not None:
                offset = max(offset, job.chain_va + RING_PKT.size)
        while offset < wptr:
            try:
                raw = self.mmu.read_va(base + offset, RING_PKT.size,
                                       access="x")
                magic, blob_size, shader_va = RING_PKT.unpack(raw)
                if magic != RING_PKT_MAGIC:
                    raise JobDecodeError(f"bad ring magic {magic:#x}")
                program = self._fetch_kernel(shader_va, blob_size, "x")
            except GpuPageFault as fault:
                self._raise_smmu_fault(fault.va)
                return
            except (JobDecodeError, ShaderDecodeError):
                self._assert_int(INT_RBBM_ERROR)
                return
            job = RunningJob(0, offset, [program], None,
                             self.core_count)
            self._enter_busy()
            # Strict ring order: a packet may only start when nothing
            # is active *and* nothing older waits in the queue.
            if self._hw_active is None and not self._hw_pending:
                self._begin_execution(job)
            else:
                self._hw_pending.append(job)
            offset += RING_PKT.size

    def _begin_execution(self, job: RunningJob) -> None:
        duration = sum(
            self.perf.job_duration_ns(p, job.active_cores,
                                      self.clock_domain,
                                      self.machine.interference)
            for p in job.programs)
        self._hw_active = job
        self.note_job_executing(job)
        job.completion = self._schedule(
            self._jitter(duration), lambda: self._retire(job),
            "adreno-pkt")

    def _retire(self, job: RunningJob) -> None:
        self._hw_active = None
        self.note_job_retired(job)
        try:
            self._run_job_programs(job)
        except GpuPageFault as fault:
            self._exit_busy()
            self._hw_pending.clear()
            self._raise_smmu_fault(fault.va)
            return
        self._exit_busy()
        self.regs.poke("CP_RB_RPTR", job.chain_va + RING_PKT.size)
        self._assert_int(INT_CP_DONE)
        if self._hw_pending:
            self._begin_execution(self._hw_pending.pop(0))

    # -- fault injection -----------------------------------------------------------------------

    def offline_cores(self, mask: int) -> None:
        self.offline_core_mask |= mask
        self.regs.poke("SPTP_PWR_STATUS", 0)
        job = self._hw_active
        if job is not None and job.completion is not None:
            self._cancel(job.completion)
            self._hw_active = None
            self._hw_pending.clear()
            self.note_job_retired(job)
            self._exit_busy()
            self._assert_int(INT_RBBM_ERROR)

    def restore_cores(self) -> None:
        self.offline_core_mask = 0
