"""Static verification of recording security properties (Section 5.1).

Before anything touches hardware, the replayer proves three properties
over the loaded recording:

1. *No illegal GPU register access by CPU* -- every register name must
   resolve through the replayer's shipped register map, and no
   RegWrite may move the page-table root (``SetGpuPgtable`` sets it).
2. *No illegal memory access by GPU* -- a recording only names sizes
   and GPU virtual addresses; every Upload/Copy must land inside
   memory the recording itself maps, mappings must not overlap, and
   unmaps must match maps.
3. *Maximum GPU physical memory usage* -- the peak concurrently-mapped
   size is computed so apps (or the replayer) can reject
   memory-hungry recordings up front.

A fabricated recording can at worst hang the GPU; it cannot name
registers outside the map or reach memory outside its own allocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core import actions as act
from repro.core.recording import Recording
from repro.errors import VerificationError
from repro.gpu import FAMILIES, VA_SPACE_SIZE
from repro.soc import PAGE_SIZE
from repro.units import MIB

_ROOTS = frozenset(reg for family in FAMILIES.values()
                   for reg in family.root_regs)


@dataclass
class VerificationReport:
    """What the verifier proved about a recording."""

    actions: int = 0
    registers_used: Set[str] = field(default_factory=set)
    peak_mapped_bytes: int = 0
    dump_bytes: int = 0
    warnings: List[str] = field(default_factory=list)


def verify_recording(recording: Recording,
                     register_names: Set[str],
                     max_gpu_bytes: Optional[int] = None,
                     preexisting_maps: Optional[Dict[int, int]] = None
                     ) -> VerificationReport:
    """Verify ``recording``; raises :class:`VerificationError`.

    ``register_names`` is the replayer's register map (the only
    registers the CPU may touch). ``preexisting_maps`` carries the
    VA->pages mappings of earlier recordings in the same replay
    session (per-layer chains re-map them legitimately).
    """
    report = VerificationReport(actions=len(recording.actions))
    live: Dict[int, int] = dict(preexisting_maps or {})
    peak = sum(live.values())

    def require_mapped(addr: int, size: int, what: str, index: int) -> None:
        cursor = addr
        end = addr + size
        while cursor < end:
            for base, pages in live.items():
                if base <= cursor < base + pages * PAGE_SIZE:
                    cursor = base + pages * PAGE_SIZE
                    break
            else:
                raise VerificationError(
                    f"action #{index}: {what} touches unmapped GPU "
                    f"range at {cursor:#x}")

    for index, action in enumerate(recording.actions):
        if isinstance(action, (act.RegReadOnce, act.RegReadWait,
                               act.RegWrite)):
            if action.reg not in register_names:
                raise VerificationError(
                    f"action #{index}: illegal register access "
                    f"{action.reg!r} (not in the replayer's map)")
            if isinstance(action, act.RegWrite) and action.reg in _ROOTS:
                raise VerificationError(
                    f"action #{index}: RegWrite to page-table root "
                    f"{action.reg!r} (only SetGpuPgtable may set it)")
            report.registers_used.add(action.reg)
        elif isinstance(action, act.MapGpuMem):
            if action.num_pages <= 0:
                raise VerificationError(
                    f"action #{index}: empty mapping at {action.addr:#x}")
            if action.addr % PAGE_SIZE:
                raise VerificationError(
                    f"action #{index}: unaligned mapping {action.addr:#x}")
            end = action.addr + action.num_pages * PAGE_SIZE
            if action.addr < 0 or end > VA_SPACE_SIZE:
                raise VerificationError(
                    f"action #{index}: mapping outside GPU VA space")
            for base, pages in live.items():
                if base == action.addr and pages == action.num_pages:
                    break  # legitimate session re-map
                if action.addr < base + pages * PAGE_SIZE and \
                        base < end:
                    raise VerificationError(
                        f"action #{index}: mapping {action.addr:#x} "
                        f"overlaps existing {base:#x}")
            live[action.addr] = action.num_pages
            peak = max(peak, sum(live.values()))
        elif isinstance(action, act.UnmapGpuMem):
            pages = live.pop(action.addr, 0)
            if pages != action.num_pages:
                raise VerificationError(
                    f"action #{index}: unmap of {action.num_pages} pages at "
                    f"{action.addr:#x}, which maps {pages}")
        elif isinstance(action, act.Upload):
            if not 0 <= action.dump_index < len(recording.dumps):
                raise VerificationError(
                    f"action #{index}: dump index {action.dump_index} "
                    "out of range")
            dump = recording.dumps[action.dump_index]
            if dump.va != action.addr:
                report.warnings.append(
                    f"action #{index}: upload address differs from "
                    f"dump anchor")
            require_mapped(action.addr, dump.size, "upload", index)
        elif isinstance(action, (act.CopyToGpu, act.CopyFromGpu)):
            if action.size <= 0:
                raise VerificationError(
                    f"action #{index}: empty copy")
            require_mapped(action.gaddr, action.size, "copy", index)
        elif isinstance(action, act.WaitIrq):
            if action.timeout_ns <= 0:
                raise VerificationError(
                    f"action #{index}: WaitIrq without a timeout")

    for io in recording.meta.inputs + recording.meta.outputs:
        if io.size <= 0:
            raise VerificationError(f"I/O buffer {io.name!r} is empty")
        require_mapped(io.gaddr, io.size, f"I/O buffer {io.name!r}",
                       len(recording.actions))

    report.peak_mapped_bytes = max(peak, sum(live.values())) * PAGE_SIZE
    report.dump_bytes = recording.dump_bytes()
    if max_gpu_bytes is not None and \
            report.peak_mapped_bytes > max_gpu_bytes:
        raise VerificationError(
            f"recording needs {report.peak_mapped_bytes // MIB} MiB of "
            f"GPU memory; policy allows {max_gpu_bytes // MIB} MiB")
    return report
