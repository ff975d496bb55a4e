"""Cross-SKU recording patches (Section 6.4).

A recording from one Mali SKU can run on another SKU of the same
family after a lightweight patch:

1. **Page-table format** -- re-arrange the PTE permission bits when the
   source SKU uses the LPAE layout (G31) and the target does not;
2. **MMU configuration** -- flip the translation-config register value
   (read-allocate bit) to what the target SKU expects;
3. **Core-scheduling hints** -- rewrite the JS_AFFINITY writes so jobs
   spread over all of the target's shader cores (one register per job;
   without it a G31 recording uses one G71 core and runs ~8x slower).

Scaling *down* (recording from a bigger GPU onto a smaller one) is
refused, matching the paper's observation that it would need
proprietary knowledge (shader relocation, memory compaction).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import List

from repro.core import actions as act
from repro.core.recording import Recording
from repro.errors import RecordingError
from repro.gpu import MALI_SKUS, PTE_FORMATS


@dataclass
class PatchReport:
    """What a cross-SKU patch changed."""

    source_sku: str = ""
    target_sku: str = ""
    pte_entries_rewritten: int = 0
    memattr_patched: bool = False
    affinity_writes_patched: int = 0
    notes: List[str] = field(default_factory=list)


def patch_recording_for_sku(recording: Recording, target_sku: str,
                            patch_affinity: bool = True) -> "tuple":
    """Return (patched recording copy, PatchReport).

    ``patch_affinity=False`` applies only the page-table and MMU fixes,
    reproducing the intermediate point of Figure 9 where the replay is
    correct but 4-8x slower.
    """
    if recording.meta.family != "mali":
        raise RecordingError("cross-SKU patching is a Mali-family "
                             "capability")
    source_name = recording.meta.gpu_model.replace("mali-", "")
    if source_name not in MALI_SKUS or target_sku not in MALI_SKUS:
        raise RecordingError(
            f"unknown SKU pair {source_name!r} -> {target_sku!r}")
    source = MALI_SKUS[source_name]
    target = MALI_SKUS[target_sku]
    if target.core_count < source.core_count:
        raise RecordingError(
            "cannot replay on a smaller GPU: would require shader "
            "relocation and GPU memory compaction (Section 6.4)")

    patched = copy.deepcopy(recording)
    # The copy is about to be mutated; its content digest must be
    # recomputed, not inherited from the source recording.
    patched._digest = None
    report = PatchReport(source_sku=source_name, target_sku=target_sku)
    source_fmt = PTE_FORMATS[source.pte_format]
    target_fmt = PTE_FORMATS[target.pte_format]
    target_mask = (1 << target.core_count) - 1

    for action in patched.actions:
        if isinstance(action, act.MapGpuMem):
            if source_fmt.name != target_fmt.name:
                _valid, _pa, perms = source_fmt.decode_pte(
                    action.raw_pte_flags)
                action.raw_pte_flags = target_fmt.encode_pte(0, perms)
                report.pte_entries_rewritten += 1
        elif isinstance(action, act.SetGpuPgtable):
            if action.memattr != target.required_memattr:
                action.memattr = target.required_memattr
                report.memattr_patched = True
        elif (patch_affinity and isinstance(action, act.RegWrite)
              and action.reg.endswith("_AFFINITY")):
            if action.val != target_mask:
                action.val = target_mask
                report.affinity_writes_patched += 1

    if patched.meta.memattr != target.required_memattr:
        patched.meta.memattr = target.required_memattr
        report.memattr_patched = True
    patched.meta.gpu_model = f"mali-{target_sku}"
    patched.meta.pte_format = target.pte_format
    if source_fmt.name != target_fmt.name:
        report.notes.append(
            f"permission bits re-arranged: {source_fmt.name} -> "
            f"{target_fmt.name}")
    if not patch_affinity:
        report.notes.append(
            "core-affinity hints left as recorded (expect reduced "
            "shader-core utilization)")
    return patched, report
