"""GPU job binary formats: Mali job chains, v3d control lists, Adreno rings.

These are the "GPU commands" layer of a job binary: small descriptor
structures living in GPU memory, deeply linked by GPU virtual addresses
(descriptor -> next descriptor, descriptor -> shader blob). Only the
GPU runtime (which emits them) and the GPU device model (which parses
them) understand the encoding; GPUReplay treats the bytes as opaque
memory contents.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.errors import JobDecodeError

# --------------------------------------------------------------------------
# Mali: a "job chain" of sub-job descriptors.
# --------------------------------------------------------------------------

MALI_JOB_MAGIC = 0x4D43424A  # "JBCM"
MALI_JOB_TYPE_COMPUTE = 1

_MALI_JOB = struct.Struct("<IIQQII")  # magic, type, next_va, shader_va,
#                                       shader_size, reserved
MALI_JOB_DESC_SIZE = _MALI_JOB.size

MAX_CHAIN_LENGTH = 4096


@dataclass(frozen=True)
class MaliJobDescriptor:
    """One sub-job of a Mali job chain."""

    job_type: int
    next_va: int
    shader_va: int
    shader_size: int


def encode_mali_job(desc: MaliJobDescriptor) -> bytes:
    return _MALI_JOB.pack(MALI_JOB_MAGIC, desc.job_type, desc.next_va,
                          desc.shader_va, desc.shader_size, 0)


def decode_mali_job(blob: bytes) -> MaliJobDescriptor:
    if len(blob) < MALI_JOB_DESC_SIZE:
        raise JobDecodeError("truncated Mali job descriptor")
    magic, job_type, next_va, shader_va, shader_size, _ = \
        _MALI_JOB.unpack_from(blob, 0)
    if magic != MALI_JOB_MAGIC:
        raise JobDecodeError(f"bad Mali job magic {magic:#x}")
    return MaliJobDescriptor(job_type, next_va, shader_va, shader_size)


def walk_mali_chain(head_va: int,
                    read: Callable[[int, int], bytes]
                    ) -> List[Tuple[int, MaliJobDescriptor]]:
    """Walk a job chain via ``read(va, size)``; returns (va, desc) pairs.

    ``read`` is typically ``mmu.read_va`` with execute access -- the
    GPU fetches descriptors from executable pages, which is exactly the
    property the Mali recorder's dump heuristic exploits.
    """
    out: List[Tuple[int, MaliJobDescriptor]] = []
    va = head_va
    while va != 0:
        if len(out) >= MAX_CHAIN_LENGTH:
            raise JobDecodeError("job chain too long (cycle?)")
        desc = decode_mali_job(read(va, MALI_JOB_DESC_SIZE))
        out.append((va, desc))
        va = desc.next_va
    return out


# --------------------------------------------------------------------------
# v3d: flat control lists of packets, possibly branching to other lists.
# --------------------------------------------------------------------------

CL_HALT = 0
CL_EXEC_SHADER = 1
CL_BRANCH = 2

CL_EXEC_PKT = struct.Struct("<BQI")  # opcode, shader_va, shader_size
CL_BRANCH_PKT = struct.Struct("<BQ")  # opcode, target_va
_CL_HALT = struct.Struct("<B")

MAX_CL_PACKETS = 16384


@dataclass(frozen=True)
class ControlListEntry:
    """One parsed control-list packet, at ``va``."""

    opcode: int
    va: int
    shader_va: int = 0
    shader_size: int = 0
    target_va: int = 0


def encode_cl_exec(shader_va: int, shader_size: int) -> bytes:
    return CL_EXEC_PKT.pack(CL_EXEC_SHADER, shader_va, shader_size)


def encode_cl_branch(target_va: int) -> bytes:
    return CL_BRANCH_PKT.pack(CL_BRANCH, target_va)


def encode_cl_halt() -> bytes:
    return _CL_HALT.pack(CL_HALT)


def walk_control_list(base_va: int,
                      read: Callable[[int, int], bytes]
                      ) -> List[ControlListEntry]:
    """Parse packets starting at ``base_va`` until a HALT.

    Follows BRANCH packets into other lists, mirroring the pointer
    chasing the v3d recorder must perform (Section 6.2).
    """
    out: List[ControlListEntry] = []
    va = base_va
    while True:
        if len(out) >= MAX_CL_PACKETS:
            raise JobDecodeError("control list too long (cycle?)")
        opcode = read(va, 1)[0]
        if opcode == CL_HALT:
            out.append(ControlListEntry(CL_HALT, va))
            return out
        if opcode == CL_EXEC_SHADER:
            _, shader_va, size = CL_EXEC_PKT.unpack(read(va, CL_EXEC_PKT.size))
            out.append(ControlListEntry(CL_EXEC_SHADER, va, shader_va, size))
            va += CL_EXEC_PKT.size
            continue
        if opcode == CL_BRANCH:
            _, target = CL_BRANCH_PKT.unpack(read(va, CL_BRANCH_PKT.size))
            out.append(ControlListEntry(CL_BRANCH, va, target_va=target))
            va = target
            continue
        raise JobDecodeError(f"unknown control-list opcode {opcode}")


# --------------------------------------------------------------------------
# Adreno: fixed-size packets in a ring buffer.
# --------------------------------------------------------------------------

RING_PKT = struct.Struct("<IIQ")  # magic, shader size, shader VA
RING_PKT_MAGIC = 0x37544B50  # "PKT7"
