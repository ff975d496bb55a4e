"""Exception hierarchy shared by every layer of the reproduction.

The hierarchy mirrors the system layering: SoC substrate errors, GPU
hardware faults, full-stack (driver/runtime/framework) errors, and the
GPUReplay record/verify/replay errors that the paper's Section 5 defines.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


# --------------------------------------------------------------------------
# SoC substrate
# --------------------------------------------------------------------------


class SocError(ReproError):
    """Errors raised by the simulated SoC substrate."""


class PhysicalMemoryError(SocError):
    """Out-of-bounds or misaligned access to simulated physical memory."""


class AllocationError(SocError):
    """The page allocator ran out of free pages."""


class MmioError(SocError):
    """Access to an unmapped MMIO address or an unknown register."""


class FirmwareError(SocError):
    """The SoC firmware mailbox rejected a request."""


# --------------------------------------------------------------------------
# GPU hardware
# --------------------------------------------------------------------------


class GpuFault(ReproError):
    """A fault raised by the simulated GPU hardware itself."""


class GpuPageFault(GpuFault):
    """The GPU MMU failed to translate a virtual address.

    Carries the faulting virtual address and the access type so drivers
    (and the replayer's nano driver) can report it like the real fault
    status registers would.
    """

    def __init__(self, va: int, access: str, reason: str = "unmapped"):
        super().__init__(f"GPU page fault at VA {va:#x} ({access}): {reason}")
        self.va = va
        self.access = access
        self.reason = reason


class ShaderDecodeError(GpuFault):
    """The GPU could not decode a shader binary."""


class JobDecodeError(GpuFault):
    """The GPU could not decode a job descriptor / control list."""


# --------------------------------------------------------------------------
# The full GPU stack (driver / runtime / framework)
# --------------------------------------------------------------------------


class StackError(ReproError):
    """Errors raised by the full (original) GPU software stack."""


class DriverError(StackError):
    """An ioctl or internal driver operation failed."""


class RuntimeApiError(StackError):
    """Misuse of the OpenCL-/Vulkan-/GLES-like runtime APIs."""


class CompileError(RuntimeApiError):
    """JIT shader compilation failed."""


class FrameworkError(StackError):
    """An ML-framework level error (bad model graph, shape mismatch...)."""


# --------------------------------------------------------------------------
# GPUReplay
# --------------------------------------------------------------------------


class RecordingError(ReproError):
    """The recorder could not produce a sound recording."""


class TaintError(RecordingError):
    """Input/output address discovery failed or stayed ambiguous."""


class SerializationError(RecordingError):
    """A recording file is malformed and cannot be decoded."""


class VerificationError(ReproError):
    """A recording failed the replayer's static security verification."""


class ReplayError(ReproError):
    """Base class for run-time replay failures (Section 5.4).

    ``action_index`` locates the failing replay action; ``source``
    carries the full-driver source tag captured at record time so the
    replayer can emit errors "as the full driver does".
    """

    def __init__(self, message: str, action_index: int = -1, source: str = ""):
        detail = message
        if action_index >= 0:
            detail += f" [action #{action_index}]"
        if source:
            detail += f" [driver source: {source}]"
        super().__init__(detail)
        self.action_index = action_index
        self.source = source


class ReplayDivergence(ReplayError):
    """A state-changing event did not match the recording."""


class ReplayTimeout(ReplayError):
    """A RegReadWait or WaitIrq action exceeded its timeout."""


class ReplayAborted(ReplayError):
    """The replay was preempted or cancelled by the environment."""


class MegaBatchDivergence(ReplayError):
    """A fused mega-batch replay hit state the batch dimension cannot
    represent (e.g. a shader touching only part of a batched tensor).

    Not a correctness failure of the recording: the caller falls back
    to per-request replay, which handles arbitrary aliasing.
    """


class StoreError(ReproError):
    """Base class for recording-vault (``repro.store``) failures."""


class StoreNotFoundError(StoreError):
    """A vault, manifest or chunk the caller named does not exist.

    Usage-shaped (like a missing recording file): ``grr`` maps it to
    exit code 2.
    """


class StoreLayoutError(StoreError):
    """The directory holds a vault in an on-disk layout this version
    does not read (the loose ``objects/<aa>/`` files that pack files
    replaced). Usage-shaped, like pointing at the wrong directory:
    ``grr`` maps it to exit code 2.
    """


class StoreCorruptionError(StoreError):
    """A vault object failed its integrity check.

    Carries enough location to hand the damaged recording straight to
    the replay doctor: the recording digest whose fetch failed, the
    offending chunk digest, and where the chunk lands in the recording
    (dump index, dump VA, byte offset within the dump).
    """

    def __init__(self, message: str, recording_digest: str = "",
                 chunk_digest: str = "", dump_index: int = -1,
                 dump_va: int = -1, dump_offset: int = -1):
        detail = message
        if recording_digest:
            detail += f" [recording {recording_digest[:12]}]"
        if chunk_digest:
            detail += f" [chunk {chunk_digest[:12]}]"
        if dump_index >= 0:
            detail += (f" [dump #{dump_index} va {dump_va:#x} "
                       f"offset {dump_offset}]")
        super().__init__(detail)
        self.recording_digest = recording_digest
        self.chunk_digest = chunk_digest
        self.dump_index = dump_index
        self.dump_va = dump_va
        self.dump_offset = dump_offset


class SurgeryError(ReproError):
    """Recording surgery (``repro.surgery``) could not slice or
    compose: an unanalyzable job chain, a closure range no dump or
    capture replay covers, or incompatible slices stitched together."""


class EnvironmentError_(ReproError):
    """A deployment environment could not host the replayer."""


class ObsError(ReproError):
    """Misuse of the observability layer (metrics/tracing)."""
