"""The Broadcom-v3d-like GPU (Raspberry Pi 4).

Differences from the Mali model that matter to GPUReplay, all taken
from the paper:

- jobs are *control lists* submitted through CT0QBA/CT0QEA; the GPU
  follows pointers from the registers into lists and shaders, which is
  how the v3d recorder locates memory to dump (Section 6.2);
- page tables have **no execute/permission bits**, so the recorder
  cannot use the Mali exec-bit shrink heuristic and must be
  conservative;
- only one job may be outstanding (synchronous submission needs no
  driver change -- "NC" in Table 1);
- GPU power and clock are owned by the SoC *firmware* (mailbox), not
  MMIO: an unpowered v3d reads as 0xFFFFFFFF, the hurdle the baremetal
  replayer must clear by reproducing the kernel's firmware calls.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import GpuPageFault, JobDecodeError, ShaderDecodeError
from repro.gpu import (INT_CTERR, INT_FRDONE, INT_MMU_FAULT, L2T_FLUSH,
                       MMU_CTRL_ENABLE, MMU_CTRL_TLB_CLEAR, PTE_FORMATS,
                       STATUS_IDLE, V3D_CORE_COUNT, V3D_DEFAULT_CLOCK_HZ,
                       V3D_FIRMWARE_ID, V3D_GPU_IDENT)
from repro.gpu import jobs as jobfmt
from repro.gpu.device import GpuDevice, RunningJob
from repro.soc.machine import Machine
from repro.soc.mmio import U32_MASK, RegAttr, RegisterDef
from repro.units import US

RESET_DELAY_NS = 20 * US
FLUSH_DELAY_NS = 15 * US


def _v3d_registers() -> List[RegisterDef]:
    rw, ro = RegAttr.rw(), RegAttr.ro()
    trig = RegAttr.WRITABLE | RegAttr.WRITE_TRIGGER
    rw_trig = RegAttr.rw() | RegAttr.WRITE_TRIGGER
    vol = RegAttr.READABLE | RegAttr.VOLATILE
    return [
        RegisterDef("CTL_IDENT", 0x000, ro),
        RegisterDef("CTL_INT_STS", 0x004, ro),
        RegisterDef("CTL_INT_CLR", 0x008, trig),
        RegisterDef("CTL_INT_MSK", 0x00C, rw),
        RegisterDef("CTL_RESET", 0x010, trig),
        RegisterDef("CTL_STATUS", 0x014, ro, reset=STATUS_IDLE),
        RegisterDef("CT0QBA", 0x018, rw, doc="control list base VA"),
        RegisterDef("CT0QEA", 0x01C, rw_trig,
                    doc="control list end VA; writing kicks execution"),
        RegisterDef("CT0CA", 0x020, vol, doc="current execution address"),
        RegisterDef("CT0CS", 0x024, ro),
        RegisterDef("MMU_PT_PA_BASE", 0x028, rw, doc="pgtable base >> 12"),
        RegisterDef("MMU_CTRL", 0x02C, rw_trig),
        RegisterDef("MMU_VIO_ADDR", 0x030, ro),
        RegisterDef("MMU_VIO_STATUS", 0x034, ro),
        RegisterDef("L2TCACTL", 0x038, rw_trig,
                    doc="bit2: flush; polls until hardware clears it"),
        RegisterDef("ERRSTAT", 0x03C, ro),
        RegisterDef("PCTR_CYCLE", 0x040, vol),
    ]


class V3dGpu(GpuDevice):
    """The v3d device model."""

    family = "v3d"

    def __init__(self, machine: Machine):
        super().__init__(
            machine, "v3d", _v3d_registers(),
            core_count=V3D_CORE_COUNT, clock_hz=V3D_DEFAULT_CLOCK_HZ,
            pte_format=PTE_FORMATS["v3d"], max_active_jobs=1)
        machine.firmware.define_device(V3D_FIRMWARE_ID,
                                       V3D_DEFAULT_CLOCK_HZ)
        self._job: Optional[RunningJob] = None
        self._wire_registers()

    # -- register wiring --------------------------------------------------------

    def _wire_registers(self) -> None:
        regs = self.regs
        regs.poke("CTL_IDENT", V3D_GPU_IDENT)
        # The block is dead until the firmware powers the rail.
        regs.set_gate(self._powered)

        regs.set_write_handler("CTL_INT_CLR", self._on_int_clr)
        regs.set_write_handler("CTL_INT_MSK", self._on_mask_change)
        regs.set_write_handler("CTL_RESET", self._on_reset)
        regs.set_write_handler("CT0QEA", self._on_kick)
        regs.set_write_handler("MMU_CTRL", self._on_mmu_ctrl)
        regs.set_write_handler("L2TCACTL", self._on_l2_flush)

        regs.set_read_handler("PCTR_CYCLE", self._read_cycles)
        regs.set_read_handler("CT0CA", self._read_current_addr)

    def _powered(self) -> bool:
        return self.machine.firmware.is_powered(V3D_FIRMWARE_ID)

    def _read_current_addr(self, _value: int) -> int:
        if self._job is None:
            return 0
        # Progress through the list is timing-dependent: volatile.
        span = max(1, self.regs.peek("CT0QEA") - self._job.chain_va)
        return self._job.chain_va + self.machine.rng.randrange(span)

    # -- interrupts ----------------------------------------------------------------

    def _irq_pending_level(self) -> bool:
        values = self.regs.values
        return bool(values["CTL_INT_STS"] & values["CTL_INT_MSK"])

    def _assert_int(self, bits: int) -> None:
        values = self.regs.values
        values["CTL_INT_STS"] = (values["CTL_INT_STS"] | bits) & U32_MASK
        self.update_irq_line()

    def _on_int_clr(self, _old: int, value: int) -> None:
        self.regs.values["CTL_INT_STS"] &= ~value
        self.update_irq_line()

    # -- reset / caches ---------------------------------------------------------------

    def _on_reset(self, _old: int, _value: int) -> None:
        self._cancel_pending()
        self.note_job_retired(self._job)
        self._job = None
        self.regs.poke("CTL_INT_STS", 0)
        self.regs.poke("CTL_STATUS", 0)
        self.regs.poke("MMU_VIO_STATUS", 0)
        self.regs.poke("ERRSTAT", 0)
        self.mmu.set_base(0)
        self.regs.poke("MMU_CTRL", 0)
        self._busy_count = 0
        self._enter_busy()
        self.update_irq_line()

        def complete() -> None:
            self._exit_busy()
            self.regs.poke("CTL_STATUS", STATUS_IDLE)

        self._schedule(self._jitter(RESET_DELAY_NS), complete, "v3d-reset")

    def _on_l2_flush(self, _old: int, value: int) -> None:
        if not value & L2T_FLUSH:
            return
        self._enter_busy()

        def complete() -> None:
            self._exit_busy()
            # Hardware clears the flush bit; the driver polls for this.
            self.regs.poke("L2TCACTL",
                           self.regs.peek("L2TCACTL") & ~L2T_FLUSH)

        self._schedule(self._jitter(FLUSH_DELAY_NS), complete, "v3d-flush")

    # -- MMU -----------------------------------------------------------------------------

    def _on_mmu_ctrl(self, _old: int, value: int) -> None:
        if value & MMU_CTRL_ENABLE:
            base = self.regs.peek("MMU_PT_PA_BASE") << 12
            self.mmu.set_base(base)
        else:
            self.mmu.set_base(0)
        if value & MMU_CTRL_TLB_CLEAR:
            self.mmu.flush_tlb()
            # Hardware clears the command bit once the TLB is clean.
            self.regs.poke("MMU_CTRL", value & ~MMU_CTRL_TLB_CLEAR)

    def _raise_mmu_fault(self, va: int) -> None:
        self.regs.poke("MMU_VIO_ADDR", va & 0xFFFFFFFF)
        self.regs.poke("MMU_VIO_STATUS", 1)
        self._assert_int(INT_MMU_FAULT)

    # -- job execution -----------------------------------------------------------------

    def _on_kick(self, _old: int, end_va: int) -> None:
        values = self.regs.values
        base_va = values["CT0QBA"]
        if self._job is not None:
            # One outstanding job only; a second kick is a CT error.
            self._assert_int(INT_CTERR)
            return
        values["CTL_STATUS"] = 0
        try:
            entries = jobfmt.walk_control_list(
                base_va, lambda va, n: self.mmu.read_va(va, n, access="r"))
            programs = [
                self._fetch_kernel(e.shader_va, e.shader_size, "r")
                for e in entries if e.opcode == jobfmt.CL_EXEC_SHADER
            ]
        except GpuPageFault as fault:
            self._raise_mmu_fault(fault.va)
            values["CTL_STATUS"] = STATUS_IDLE
            return
        except (JobDecodeError, ShaderDecodeError):
            self._assert_int(INT_CTERR)
            values["CTL_STATUS"] = STATUS_IDLE
            return

        # The firmware owns the clock; honor DVFS changes at kick time.
        rate = self.machine.firmware.clock_rate(V3D_FIRMWARE_ID)
        if rate != self.clock_domain.rate_hz:
            self.clock_domain.set_rate(rate)

        duration = sum(
            self.perf.job_duration_ns(p, self.core_count, self.clock_domain,
                                      self.machine.interference)
            for p in programs)
        duration = self._jitter(duration)

        self._enter_busy()
        handle = self._schedule(duration, self._complete_job, "v3d-job")
        self._job = RunningJob(0, base_va, programs, handle,
                               self.core_count)
        self.note_job_executing(self._job)
        del end_va

    def _complete_job(self) -> None:
        job = self._job
        self._job = None
        if job is None:
            return
        self.note_job_retired(job)
        try:
            self._run_job_programs(job)
        except GpuPageFault as fault:
            self._exit_busy()
            self.regs.poke("CTL_STATUS", STATUS_IDLE)
            self._raise_mmu_fault(fault.va)
            return
        self._exit_busy()
        self.regs.values["CTL_STATUS"] = STATUS_IDLE
        self._assert_int(INT_FRDONE)

    # -- fault injection --------------------------------------------------------------

    def offline_cores(self, mask: int) -> None:
        """v3d has no per-core power; offlining kills the running job."""
        self.offline_core_mask |= mask
        job = self._job
        if job is not None:
            self._cancel(job.completion)
            self._job = None
            self.note_job_retired(job)
            self._exit_busy()
            self.regs.poke("CTL_STATUS", STATUS_IDLE)
            self._assert_int(INT_CTERR)

    def restore_cores(self) -> None:
        self.offline_core_mask = 0
