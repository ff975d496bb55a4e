"""The runtime core shared by the OpenCL-, Vulkan- and GLES-like APIs.

Responsibilities and their cost-model hooks (class attributes, tuned
per API in the subclasses):

- context initialization -- library loading and allocator setup, the
  seconds-scale startup the paper's Figure 6 measures;
- JIT kernel compilation (IR -> shader bytecode), charged per kernel;
- buffer management through driver ioctls;
- per-enqueue job emission: encode position-dependent shader bytecode
  with the bound buffers' GPU VAs and lay out the job binary *through
  the CPU mapping*, invisible to the driver;
- synchronization (finish = drain the job queue + cache maintenance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import RuntimeApiError
from repro.gpu.isa import (Instruction, Program, TensorRef, encode_program)
from repro.soc import PageSource
from repro.stack.driver.base import GpuDriver
from repro.stack.driver.ioctl import IoctlCode
from repro.stack.driver.memory import MemFlags
from repro.stack.runtime.emit import emitter_for_family
from repro.stack.runtime.kernel_ir import KernelIR
from repro.units import KIB, MS, SEC, US


@dataclass
class Buffer:
    """A GPU buffer handle held by the app/framework."""

    va: int
    nbytes: int
    shape: Tuple[int, ...]
    tag: str = ""


@dataclass
class CompiledKernel:
    """A JIT-compiled kernel, ready for repeated enqueue."""

    ir: KernelIR
    compile_cost_ns: int = 0


@dataclass
class _JobRegion:
    va: int
    size: int
    in_use: bool = True


class ComputeRuntime:
    """Base runtime; subclasses fix the API name and cost constants."""

    api_name = "abstract"
    LIB_LOAD_NS = 200 * MS
    MEM_INIT_NS = 60 * MS
    COMPILE_BASE_NS = 10 * MS
    COMPILE_PER_OP_NS = 3 * MS
    ENQUEUE_EMIT_NS = 25 * US
    COPY_BW = 3 * 1024 ** 3  # CPU<->GPU-memory memcpy bytes/sec
    SCRATCH_BYTES = 64 * KIB
    #: Resident CPU memory of the runtime library + its GPU contexts,
    #: allocator arenas and JIT caches (Section 7.3: the stack's
    #: 220-310 MB CPU footprint). Per-kernel JIT state adds on top.
    LIB_RSS_BYTES = 120 * 1024 * 1024
    JIT_STATE_PER_KERNEL = 1 * 1024 * 1024
    #: Job-binary allocations are rounded up to this granularity
    #: (buffer-object heap granule). Coarse granules mean recorders
    #: that dump whole regions capture mostly-zero pages.
    JOB_REGION_GRANULE = 4096

    def __init__(self, driver: GpuDriver):
        self.driver = driver
        self.clock = driver.clock
        self.emitter = emitter_for_family(driver.gpu.family)
        self.initialized = False
        self.buffers: List[Buffer] = []
        self.kernels_compiled = 0
        self._job_pool: Dict[int, List[_JobRegion]] = {}
        self._active_regions: List[_JobRegion] = []
        self._inflight_jobs: List[int] = []
        self._affinity = 0
        self._scratch: Optional[Buffer] = None

    # -- lifecycle ------------------------------------------------------------

    def init_context(self) -> None:
        """Create the GPU context (the expensive part of app startup)."""
        if self.initialized:
            raise RuntimeApiError(f"{self.api_name}: context already up")
        obs = self.driver.machine.obs
        with obs.span(f"runtime:{self.api_name}:init",
                      obs.track("stack", "runtime"), cat="stack"):
            self.clock.advance(self.LIB_LOAD_NS)
            self.driver.ioctl(IoctlCode.VERSION_CHECK)
            props = self.driver.ioctl(IoctlCode.GET_GPU_PROPS)
            self._affinity = (1 << int(props["cores"])) - 1
            if not self.driver.opened:
                self.driver.open()
            self.driver.create_context()
            self.clock.advance(self.MEM_INIT_NS)
            scratch_va = self.driver.ioctl(
                IoctlCode.MEM_ALLOC, size=self.SCRATCH_BYTES,
                flags=MemFlags.gpu_scratch(), tag="runtime-scratch")
            self._scratch = Buffer(scratch_va, self.SCRATCH_BYTES, (0,),
                                   "runtime-scratch")
        self.initialized = True

    def release(self) -> None:
        if not self.initialized:
            return
        self.driver.destroy_context()
        self.buffers.clear()
        self._job_pool.clear()
        self._active_regions.clear()
        self._inflight_jobs.clear()
        self._scratch = None
        self.initialized = False

    def set_sync_submission(self, sync: bool) -> None:
        """Force queue depth 1 (GPUReplay's record-time requirement)."""
        depth = 1 if sync else self.driver.queue.num_slots
        self.driver.queue.set_depth(depth)

    def _require_init(self) -> None:
        if not self.initialized:
            raise RuntimeApiError(f"{self.api_name}: no context")

    # -- buffers -----------------------------------------------------------------

    def create_buffer(self, shape: Tuple[int, ...], tag: str = "") -> Buffer:
        self._require_init()
        nbytes = int(np.prod(shape)) * 4
        if nbytes <= 0:
            raise RuntimeApiError(f"empty buffer shape {shape}")
        va = self.driver.ioctl(IoctlCode.MEM_ALLOC, size=nbytes,
                               flags=MemFlags.data_buffer(), tag=tag)
        buffer = Buffer(va, nbytes, tuple(shape), tag)
        self.buffers.append(buffer)
        return buffer

    def write_buffer(self, buffer: Buffer, data: np.ndarray) -> None:
        self._require_init()
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.size * 4 != buffer.nbytes:
            raise RuntimeApiError(
                f"buffer {buffer.tag or hex(buffer.va)}: size mismatch")
        self.clock.advance(max(1, buffer.nbytes * SEC // self.COPY_BW))
        ctx = self.driver.require_ctx()
        if data.flags.writeable:
            ctx.cpu_write(buffer.va, data.tobytes())
        else:
            # A shared read-only array (``init_weights``): its pages
            # reference it rather than hold a copy.
            ctx.cpu_store(buffer.va, PageSource(data))

    def read_buffer(self, buffer: Buffer) -> np.ndarray:
        self._require_init()
        self.clock.advance(max(1, buffer.nbytes * SEC // self.COPY_BW))
        raw = self.driver.require_ctx().cpu_read(buffer.va, buffer.nbytes)
        return np.frombuffer(raw, dtype=np.float32).reshape(buffer.shape)

    # -- kernels --------------------------------------------------------------------

    def compile_kernel(self, ir: KernelIR) -> CompiledKernel:
        """JIT-compile one kernel (the Mali startup bottleneck)."""
        self._require_init()
        ir.validate()
        obs = self.driver.machine.obs
        with obs.span(f"jit:{ir.name}", obs.track("stack", "runtime"),
                      cat="stack", args={"ops": len(ir.ops)}):
            cost = self.COMPILE_BASE_NS + self.COMPILE_PER_OP_NS * len(ir.ops)
            self.clock.advance(cost)
        self.kernels_compiled += 1
        obs.counter("runtime.kernels_compiled").inc()
        return CompiledKernel(ir, cost)

    def enqueue(self, kernel: CompiledKernel,
                bindings: Dict[str, Buffer]) -> int:
        """Emit the job binary for ``kernel`` and submit it."""
        self._require_init()
        program = self._bind_program(kernel.ir, bindings)
        blob = encode_program(program)
        region = self._get_job_region(self.emitter.layout_size([blob]))
        ctx = self.driver.require_ctx()
        emitted = self.emitter.emit(region.va, ctx.cpu_write, [blob],
                                    submit_arg=self._affinity)
        self.clock.advance(self.ENQUEUE_EMIT_NS
                           + emitted.total_size * SEC // self.COPY_BW)
        job_id = self.driver.ioctl(IoctlCode.JOB_SUBMIT,
                                   chain_va=emitted.chain_va,
                                   affinity=emitted.submit_arg)
        self._inflight_jobs.append(job_id)
        return job_id

    def _bind_program(self, ir: KernelIR,
                      bindings: Dict[str, Buffer]) -> Program:
        instructions = []
        for op in ir.ops:
            refs = []
            for slot in op.operand_order():
                buffer = bindings.get(slot)
                if buffer is None:
                    raise RuntimeApiError(
                        f"kernel {ir.name}: slot {slot!r} not bound")
                refs.append(TensorRef(buffer.va, ir.shapes[slot]))
            instructions.append(Instruction(op.op, tuple(refs), op.params))
        return Program(instructions)

    def _get_job_region(self, size: int) -> _JobRegion:
        size = (size + self.JOB_REGION_GRANULE - 1) \
            // self.JOB_REGION_GRANULE * self.JOB_REGION_GRANULE
        pool = self._job_pool.get(size)
        if pool:
            region = pool.pop()
            region.in_use = True
        else:
            va = self.driver.ioctl(IoctlCode.MEM_ALLOC, size=size,
                                   flags=MemFlags.job_binary(),
                                   tag="job-binary")
            region = _JobRegion(va, size)
        self._active_regions.append(region)
        return region

    # -- synchronization -------------------------------------------------------------

    def cpu_footprint_bytes(self) -> int:
        """Modeled resident CPU memory of this runtime (Section 7.3)."""
        if not self.initialized:
            return 0
        return (self.LIB_RSS_BYTES
                + self.JIT_STATE_PER_KERNEL * self.kernels_compiled)

    def finish(self) -> None:
        """Drain the queue, flush caches, recycle job-binary regions."""
        self._require_init()
        for job_id in self._inflight_jobs:
            self.driver.ioctl(IoctlCode.JOB_WAIT, job_id=job_id)
        self._inflight_jobs.clear()
        self.driver.ioctl(IoctlCode.CACHE_FLUSH)
        for region in self._active_regions:
            region.in_use = False
            self._job_pool.setdefault(region.size, []).append(region)
        self._active_regions.clear()
