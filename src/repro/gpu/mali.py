"""The Arm-Mali-like GPU family (SKUs G31 / G52 / G71).

Models the Bifrost-style CPU/GPU interface the paper records at:
job-slot registers (HEAD/AFFINITY/COMMAND/STATUS), three interrupt
groups (GPU/JOB/MMU) with RAWSTAT/CLEAR/MASK registers, an address-space
block (TRANSTAB/MEMATTR/COMMAND) for the GPU MMU, and shader-core /
L2 power control with ready-polling.

Family-level properties used by the evaluation:

- per-page execute permission (the recorder's dump-shrinking heuristic);
- the G31 SKU uses the LPAE PTE layout and a different MEMATTR value,
  which is what the cross-SKU patch of Section 6.4 fixes;
- jobs are scheduled over the core mask in ``JSn_AFFINITY`` -- replaying
  a 1-core recording on the 8-core G71 runs 8x slower until patched.
"""

from __future__ import annotations

from typing import List, Optional

from repro import weakly
from repro.errors import GpuPageFault, JobDecodeError, ShaderDecodeError
from repro.gpu import (AS_CMD_FLUSH_PT, AS_CMD_UPDATE, CMD_CLEAN_CACHES,
                       CMD_HARD_RESET, CMD_INV_CACHES, CMD_SOFT_RESET,
                       FAULT_MEMATTR, FAULT_NONE, FAULT_PERMISSION,
                       FAULT_TRANSLATION, IRQ_CLEAN_CACHES_COMPLETED,
                       IRQ_POWER_CHANGED, IRQ_RESET_COMPLETED,
                       JS_CMD_HARD_STOP, JS_CMD_START, JS_STATUS_ACTIVE,
                       JS_STATUS_DONE, JS_STATUS_FAULT, JS_STATUS_IDLE,
                       MALI_SKUS, NUM_JOB_SLOTS, PTE_FORMATS)
from repro.gpu import jobs as jobfmt
from repro.gpu.device import GpuDevice, RunningJob
from repro.soc.machine import Machine
from repro.soc.mmio import U32_MASK, RegAttr, RegisterDef
from repro.units import US

#: Names every interrupt check and job start looks up, formatted once.
_IRQ_REGS = {group: (f"{group}_IRQ_RAWSTAT", f"{group}_IRQ_MASK")
             for group in ("GPU", "JOB", "MMU")}
_JS_REGS = [tuple(f"JS{slot}_{reg}" for reg in
                  ("HEAD_HI", "HEAD_LO", "AFFINITY", "STATUS"))
            for slot in range(NUM_JOB_SLOTS)]

# Hardware timing bases (virtual ns, jittered at run time).
RESET_DELAY_NS = 100 * US
FLUSH_DELAY_NS = 25 * US
PWRON_DELAY_NS = 30 * US


def _mali_registers() -> List[RegisterDef]:
    rw, ro, wo = RegAttr.rw(), RegAttr.ro(), RegAttr.wo()
    trig = RegAttr.WRITABLE | RegAttr.WRITE_TRIGGER
    vol = RegAttr.READABLE | RegAttr.VOLATILE
    defs = [
        RegisterDef("GPU_ID", 0x000, ro, doc="model identity"),
        RegisterDef("GPU_STATUS", 0x004, ro, doc="bit0: GPU active"),
        RegisterDef("GPU_COMMAND", 0x008, trig, doc="reset/cache control"),
        RegisterDef("GPU_IRQ_RAWSTAT", 0x00C, ro),
        RegisterDef("GPU_IRQ_CLEAR", 0x010, trig),
        RegisterDef("GPU_IRQ_MASK", 0x014, rw),
        RegisterDef("GPU_IRQ_STATUS", 0x018, ro),
        RegisterDef("CYCLE_COUNT", 0x01C, vol, doc="free-running counter"),
        RegisterDef("GPU_TEMP", 0x020, vol, doc="thermal sensor"),
        RegisterDef("SHADER_PRESENT", 0x030, ro),
        RegisterDef("SHADER_READY", 0x034, ro),
        RegisterDef("SHADER_PWRON", 0x038, trig),
        RegisterDef("SHADER_PWROFF", 0x03C, trig),
        RegisterDef("L2_PRESENT", 0x040, ro),
        RegisterDef("L2_READY", 0x044, ro),
        RegisterDef("L2_PWRON", 0x048, trig),
        RegisterDef("L2_PWROFF", 0x04C, trig),
        RegisterDef("AS0_TRANSTAB_LO", 0x060, rw),
        RegisterDef("AS0_TRANSTAB_HI", 0x064, rw),
        RegisterDef("AS0_MEMATTR", 0x068, rw,
                    doc="translation config; bit2 = read-allocate"),
        RegisterDef("AS0_COMMAND", 0x06C, trig),
        RegisterDef("AS0_STATUS", 0x070, ro),
        RegisterDef("AS0_FAULTSTATUS", 0x074, ro),
        RegisterDef("AS0_FAULTADDRESS_LO", 0x078, ro),
        RegisterDef("AS0_FAULTADDRESS_HI", 0x07C, ro),
        RegisterDef("JOB_IRQ_RAWSTAT", 0x080, ro),
        RegisterDef("JOB_IRQ_CLEAR", 0x084, trig),
        RegisterDef("JOB_IRQ_MASK", 0x088, rw),
        RegisterDef("JOB_IRQ_STATUS", 0x08C, ro),
        RegisterDef("MMU_IRQ_RAWSTAT", 0x090, ro),
        RegisterDef("MMU_IRQ_CLEAR", 0x094, trig),
        RegisterDef("MMU_IRQ_MASK", 0x098, rw),
        RegisterDef("MMU_IRQ_STATUS", 0x09C, ro),
    ]
    for slot in range(NUM_JOB_SLOTS):
        base = 0x0A0 + slot * 0x20
        defs += [
            RegisterDef(f"JS{slot}_HEAD_LO", base + 0x00, rw),
            RegisterDef(f"JS{slot}_HEAD_HI", base + 0x04, rw),
            RegisterDef(f"JS{slot}_AFFINITY", base + 0x08, rw,
                        doc="shader core mask for this job"),
            RegisterDef(f"JS{slot}_CONFIG", base + 0x0C, rw),
            RegisterDef(f"JS{slot}_COMMAND", base + 0x10, trig),
            RegisterDef(f"JS{slot}_STATUS", base + 0x14, ro),
        ]
    return defs


class MaliGpu(GpuDevice):
    """One Mali-like GPU SKU mounted on a machine."""

    family = "mali"

    def __init__(self, machine: Machine, sku: str = "g71"):
        if sku not in MALI_SKUS:
            raise ValueError(f"unknown Mali SKU {sku!r}; "
                             f"known: {sorted(MALI_SKUS)}")
        spec = MALI_SKUS[sku]
        self.spec = spec
        super().__init__(
            machine, f"mali-{spec.name}", _mali_registers(),
            core_count=spec.core_count, clock_hz=spec.clock_hz,
            pte_format=PTE_FORMATS[spec.pte_format],
            max_active_jobs=NUM_JOB_SLOTS)
        self._jobs: Dict[int, Optional[RunningJob]] = {
            s: None for s in range(NUM_JOB_SLOTS)}
        # Hardware executes one job at a time; a second submitted job
        # waits in the hardware queue (the HEAD_NEXT mechanism that
        # gives Mali its two outstanding jobs, Section 2.2).
        self._hw_active: Optional[RunningJob] = None
        self._hw_pending: List[RunningJob] = []
        self._resetting = False
        self._wire_registers()

    # -- register wiring ------------------------------------------------------

    def _wire_registers(self) -> None:
        regs = self.regs
        core_mask = (1 << self.core_count) - 1
        regs.poke("GPU_ID", self.spec.gpu_id)
        regs.poke("SHADER_PRESENT", core_mask)
        regs.poke("L2_PRESENT", 1)

        regs.set_write_handler("GPU_COMMAND", self._on_gpu_command)
        regs.set_write_handler("GPU_IRQ_CLEAR", self._on_irq_clear("GPU"))
        regs.set_write_handler("JOB_IRQ_CLEAR", self._on_irq_clear("JOB"))
        regs.set_write_handler("MMU_IRQ_CLEAR", self._on_irq_clear("MMU"))
        regs.set_write_handler("GPU_IRQ_MASK", self._on_mask_change)
        regs.set_write_handler("JOB_IRQ_MASK", self._on_mask_change)
        regs.set_write_handler("MMU_IRQ_MASK", self._on_mask_change)
        regs.set_write_handler("SHADER_PWRON", self._on_shader_pwron)
        regs.set_write_handler("SHADER_PWROFF", self._on_shader_pwroff)
        regs.set_write_handler("L2_PWRON", self._on_l2_pwron)
        regs.set_write_handler("L2_PWROFF", self._on_l2_pwroff)
        regs.set_write_handler("AS0_COMMAND", self._on_as_command)
        for slot in range(NUM_JOB_SLOTS):
            regs.set_write_handler(f"JS{slot}_COMMAND",
                                   self._make_js_command_handler(slot))

        regs.set_read_handler("GPU_STATUS", self._read_busy)
        regs.set_read_handler("GPU_IRQ_STATUS", self._masked_reader("GPU"))
        regs.set_read_handler("JOB_IRQ_STATUS", self._masked_reader("JOB"))
        regs.set_read_handler("MMU_IRQ_STATUS", self._masked_reader("MMU"))
        regs.set_read_handler("CYCLE_COUNT", self._read_cycles)
        regs.set_read_handler("GPU_TEMP", self._read_temp)

    def _read_temp(self, _value: int) -> int:
        return 55 + self.machine.rng.randrange(10)

    def _masked_reader(self, group: str):
        rawstat, mask = _IRQ_REGS[group]
        values = self.regs.values

        def read(_value: int) -> int:
            return values[rawstat] & values[mask]
        return read

    # -- interrupt plumbing ---------------------------------------------------

    def _irq_pending_level(self) -> bool:
        values = self.regs.values
        for rawstat, mask in _IRQ_REGS.values():
            if values[rawstat] & values[mask]:
                return True
        return False

    def _assert_irq(self, group: str, bits: int) -> None:
        rawstat = _IRQ_REGS[group][0]
        values = self.regs.values
        values[rawstat] = (values[rawstat] | bits) & U32_MASK
        self.update_irq_line()

    def _on_irq_clear(self, group: str):
        rawstat = _IRQ_REGS[group][0]
        values = self.regs.values
        update = weakly(self.update_irq_line)

        def handler(_old: int, value: int) -> None:
            values[rawstat] &= ~value
            update()
        return handler

    # -- GPU-level commands ---------------------------------------------------

    def _on_gpu_command(self, _old: int, value: int) -> None:
        if value in (CMD_SOFT_RESET, CMD_HARD_RESET):
            self._begin_reset()
        elif value in (CMD_CLEAN_CACHES, CMD_INV_CACHES):
            self._begin_cache_clean()

    def _begin_reset(self) -> None:
        self._resetting = True
        self._cancel_pending()
        self._hw_active = None
        self._hw_pending.clear()
        for slot in range(NUM_JOB_SLOTS):
            self.note_job_retired(self._jobs[slot])
            self._jobs[slot] = None
            self.regs.poke(f"JS{slot}_STATUS", JS_STATUS_IDLE)
            self.regs.poke(f"JS{slot}_HEAD_LO", 0)
            self.regs.poke(f"JS{slot}_HEAD_HI", 0)
        # Reset drops power state and MMU configuration.
        self.regs.poke("SHADER_READY", 0)
        self.regs.poke("L2_READY", 0)
        self.regs.poke("GPU_IRQ_RAWSTAT", 0)
        self.regs.poke("JOB_IRQ_RAWSTAT", 0)
        self.regs.poke("MMU_IRQ_RAWSTAT", 0)
        self.regs.poke("AS0_FAULTSTATUS", FAULT_NONE)
        self.mmu.set_base(0)
        self._busy_count = 0
        self._enter_busy()
        self.update_irq_line()

        def complete() -> None:
            self._resetting = False
            self._exit_busy()
            self._assert_irq("GPU", IRQ_RESET_COMPLETED)

        self._schedule(self._jitter(RESET_DELAY_NS), complete, "mali-reset")

    def _begin_cache_clean(self) -> None:
        self._enter_busy()

        def complete() -> None:
            self._exit_busy()
            self._assert_irq("GPU", IRQ_CLEAN_CACHES_COMPLETED)

        self._schedule(self._jitter(FLUSH_DELAY_NS), complete, "mali-flush")

    # -- power control --------------------------------------------------------

    def _on_shader_pwron(self, _old: int, mask: int) -> None:
        present = self.regs.peek("SHADER_PRESENT")
        target = mask & present & ~self.offline_core_mask

        def complete() -> None:
            ready = self.regs.peek("SHADER_READY")
            self.regs.poke("SHADER_READY", ready | target)
            self._assert_irq("GPU", IRQ_POWER_CHANGED)

        self._schedule(self._jitter(PWRON_DELAY_NS), complete, "shader-pwron")

    def _on_shader_pwroff(self, _old: int, mask: int) -> None:
        ready = self.regs.peek("SHADER_READY")
        self.regs.poke("SHADER_READY", ready & ~mask)

    def _on_l2_pwron(self, _old: int, _mask: int) -> None:
        def complete() -> None:
            self.regs.poke("L2_READY", self.regs.peek("L2_PRESENT"))
            self._assert_irq("GPU", IRQ_POWER_CHANGED)

        self._schedule(self._jitter(PWRON_DELAY_NS), complete, "l2-pwron")

    def _on_l2_pwroff(self, _old: int, _mask: int) -> None:
        self.regs.poke("L2_READY", 0)

    # -- address space --------------------------------------------------------

    def _on_as_command(self, _old: int, value: int) -> None:
        if value == AS_CMD_UPDATE:
            lo = self.regs.peek("AS0_TRANSTAB_LO")
            hi = self.regs.peek("AS0_TRANSTAB_HI")
            self.mmu.set_base(((hi << 32) | lo) & ~0xFFF)
        elif value == AS_CMD_FLUSH_PT:
            self.mmu.flush_tlb()

    def _raise_mmu_fault(self, code: int, va: int) -> None:
        self.regs.poke("AS0_FAULTSTATUS", code)
        self.regs.poke("AS0_FAULTADDRESS_LO", va & 0xFFFFFFFF)
        self.regs.poke("AS0_FAULTADDRESS_HI", (va >> 32) & 0xFFFFFFFF)
        self._assert_irq("MMU", 1)

    # -- job slots ------------------------------------------------------------

    def _make_js_command_handler(self, slot: int):
        start, stop = weakly(self._start_job), weakly(self._hard_stop)

        def handler(_old: int, value: int) -> None:
            if value == JS_CMD_START:
                start(slot)
            elif value == JS_CMD_HARD_STOP:
                stop(slot)
        return handler

    def _start_job(self, slot: int) -> None:
        values = self.regs.values
        head_hi, head_lo, affinity_reg, status_reg = _JS_REGS[slot]
        head = (values[head_hi] << 32) | values[head_lo]
        affinity = values[affinity_reg]

        if self._resetting or self._jobs[slot] is not None:
            self._fail_job(slot, head)
            return
        if values["L2_READY"] == 0:
            self._fail_job(slot, head)
            return
        if values["AS0_MEMATTR"] != self.spec.required_memattr:
            # Translation-config mismatch: the incompatibility the
            # cross-SKU MMU patch fixes (Section 6.4, item 2).
            self._raise_mmu_fault(FAULT_MEMATTR, head)
            self._fail_job(slot, head)
            return
        active_cores = affinity & values["SHADER_READY"] \
            & ~self.offline_core_mask
        if active_cores == 0:
            self._fail_job(slot, head)
            return

        try:
            chain = jobfmt.walk_mali_chain(
                head, lambda va, n: self.mmu.read_va(va, n, access="x"))
            programs = [
                self._fetch_kernel(d.shader_va, d.shader_size, "x")
                for _va, d in chain
            ]
        except GpuPageFault as fault:
            self._raise_mmu_fault(
                FAULT_PERMISSION if fault.reason == "permission denied"
                else FAULT_TRANSLATION, fault.va)
            self._fail_job(slot, head)
            return
        except (JobDecodeError, ShaderDecodeError):
            self._fail_job(slot, head)
            return

        ncores = bin(active_cores).count("1")
        values[status_reg] = JS_STATUS_ACTIVE
        self._enter_busy()
        job = RunningJob(slot, head, programs, None, ncores)
        self._jobs[slot] = job
        if self._hw_active is None:
            self._begin_execution(job)
        else:
            self._hw_pending.append(job)

    def _begin_execution(self, job: RunningJob) -> None:
        duration = sum(
            self.perf.job_duration_ns(p, job.active_cores,
                                      self.clock_domain,
                                      self.machine.interference)
            for p in job.programs)
        duration = self._jitter(duration)
        self._hw_active = job
        self.note_job_executing(job)
        job.completion = self._schedule(
            duration, lambda: self._complete_job(job.slot),
            f"mali-job-s{job.slot}")

    def _start_next_queued(self) -> None:
        self._hw_active = None
        if self._hw_pending:
            self._begin_execution(self._hw_pending.pop(0))

    def _complete_job(self, slot: int) -> None:
        job = self._jobs[slot]
        self._jobs[slot] = None
        self._start_next_queued()
        if job is None:
            return
        self.note_job_retired(job)
        try:
            self._run_job_programs(job)
        except GpuPageFault as fault:
            self._exit_busy()
            self._raise_mmu_fault(FAULT_TRANSLATION, fault.va)
            self._fail_job(slot, job.chain_va)
            return
        self._exit_busy()
        self.regs.values[_JS_REGS[slot][3]] = JS_STATUS_DONE
        self._assert_irq("JOB", 1 << slot)

    def _fail_job(self, slot: int, _head: int) -> None:
        self.regs.values[_JS_REGS[slot][3]] = JS_STATUS_FAULT
        self._assert_irq("JOB", 1 << (16 + slot))

    def _evict(self, slot: int, job: RunningJob) -> None:
        """Take a job off the hardware before it completes."""
        if job.completion is not None:
            self._cancel(job.completion)
        if self._hw_active is job:
            self._start_next_queued()
        elif job in self._hw_pending:
            self._hw_pending.remove(job)
        self.note_job_retired(job)
        self._jobs[slot] = None
        self._exit_busy()

    def _hard_stop(self, slot: int) -> None:
        job = self._jobs[slot]
        if job is None:
            return
        self._evict(slot, job)
        self.regs.poke(f"JS{slot}_STATUS", JS_STATUS_IDLE)
        self._assert_irq("JOB", 1 << (16 + slot))

    # -- fault injection (hardware events; used by repro.gpu.faults) ----------

    def offline_cores(self, mask: int) -> None:
        """Forcibly power off shader cores, failing affected jobs."""
        self.offline_core_mask |= mask
        ready = self.regs.peek("SHADER_READY")
        self.regs.poke("SHADER_READY", ready & ~mask)
        for slot, job in list(self._jobs.items()):
            if job is not None and job.active_cores and \
                    (self.regs.peek(f"JS{slot}_AFFINITY") & mask):
                self._evict(slot, job)
                self._fail_job(slot, job.chain_va)

    def restore_cores(self) -> None:
        self.offline_core_mask = 0
