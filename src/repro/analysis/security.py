"""Executable attack simulations against the replayer (Section 7.1).

The threat model grants the adversary fabricated recordings (a
compromised distribution channel). Each attack here builds a malicious
recording and checks that the replayer's static verifier (Section 5.1)
stops it -- or, for the GPU-hang attack that verification legitimately
cannot prevent, that the replayer fails *safely* with a typed error
and the GPU stays recoverable.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core import actions as act
from repro.core.dumps import MemoryDump
from repro.core.recording import Recording, RecordingMeta
from repro.core.replayer import Replayer
from repro.errors import (ReplayError, SerializationError,
                          VerificationError)
from repro.gpu import FAMILIES
from repro.soc.machine import Machine
from repro.soc.memory import PAGE_SIZE
from repro.units import MIB, MS


@dataclass
class AttackResult:
    """Outcome of one simulated attack."""

    name: str
    blocked: bool
    defense: str
    detail: str = ""


def _base_meta(machine: Machine) -> RecordingMeta:
    gpu = machine.require_gpu()
    return RecordingMeta(gpu_model=gpu.model_name, family=gpu.family,
                         pte_format=gpu.mmu.fmt.name,
                         board=machine.board.name,
                         workload="fabricated")


def _rejected_at_load(machine: Machine, recording: Recording, name: str,
                      defense: str, if_accepted: str,
                      **replayer_kwargs) -> AttackResult:
    """An attack the verifier must turn away at Load."""
    replayer = Replayer(machine, **replayer_kwargs)
    replayer.init()
    try:
        replayer.load(recording)
        return AttackResult(name, False, "none", if_accepted)
    except VerificationError as error:
        return AttackResult(name, True, defense, str(error))
    finally:
        replayer.cleanup()


def attack_illegal_register(machine: Machine) -> AttackResult:
    """Name a register outside the replayer's map (e.g. an SoC secure
    fuse controller the adversary hopes is adjacent in MMIO space)."""
    recording = Recording(_base_meta(machine), [
        act.RegWrite(reg="EFUSE_SECRET_KEY", val=0xDEAD),
    ], [])
    return _rejected_at_load(
        machine, recording, "illegal-register", "register-map whitelist",
        "verifier accepted an unknown register")


def attack_oob_upload(machine: Machine) -> AttackResult:
    """Upload a dump to GPU memory the recording never mapped."""
    meta = _base_meta(machine)
    recording = Recording(meta, [
        act.SetGpuPgtable(),
        act.MapGpuMem(addr=0x100000, num_pages=1, raw_pte_flags=0x7),
        act.Upload(addr=0x900000, dump_index=0),
    ], [MemoryDump(0x900000, b"\x41" * PAGE_SIZE)])
    meta.prologue_len = 2
    return _rejected_at_load(
        machine, recording, "oob-upload", "GPU-memory bounds check",
        "verifier accepted an out-of-map upload")


def attack_memory_bomb(machine: Machine) -> AttackResult:
    """Map (nearly) all of GPU memory to exhaust the device."""
    meta = _base_meta(machine)
    actions: List[act.Action] = [act.SetGpuPgtable()]
    huge_pages = 200 * MIB // PAGE_SIZE
    for i in range(4):
        actions.append(act.MapGpuMem(
            addr=0x100000 + i * 210 * MIB // PAGE_SIZE * PAGE_SIZE,
            num_pages=huge_pages, raw_pte_flags=0x7))
    return _rejected_at_load(
        machine, Recording(meta, actions, []), "memory-bomb",
        "max-GPU-memory policy", "memory-hungry recording accepted",
        max_gpu_bytes=256 * MIB)


def attack_pgtable_redirect(machine: Machine) -> AttackResult:
    """Point the GPU page-table root at a physical page the replayer
    never allocated: a register the map names, written with a value
    only ``SetGpuPgtable`` may set."""
    meta = _base_meta(machine)
    roots = FAMILIES[meta.family].root_regs
    recording = Recording(meta, [
        act.SetGpuPgtable(),
        act.MapGpuMem(addr=0x100000, num_pages=1, raw_pte_flags=0x7),
    ] + [act.RegWrite(reg=reg, val=0x1000 if reg == roots[0] else 0)
         for reg in roots], [])
    meta.prologue_len = 2
    return _rejected_at_load(
        machine, recording, "pgtable-redirect",
        "page-table root write refused",
        "verifier accepted a RegWrite to the page-table root")


def attack_malformed_file(machine: Machine) -> AttackResult:
    """Feed the replayer a corrupted recording file."""
    replayer = Replayer(machine)
    replayer.init()
    try:
        replayer.load(Recording.from_bytes(b"GRRC" + b"\x99" * 64))
        return AttackResult("malformed-file", False, "none",
                            "corrupt file parsed")
    except SerializationError as error:
        return AttackResult("malformed-file", True,
                            "format validation", str(error))
    finally:
        replayer.cleanup()


def attack_gpu_hang(machine: Machine) -> AttackResult:
    """A verifiable recording that simply hangs the GPU.

    Verification cannot rule this out (Section 7.1: a fabricated
    recording "may hang GPU but cannot break security guarantees");
    what matters is that the replay fails with a typed, bounded error
    and the GPU is recoverable by reset afterwards.
    """
    meta = _base_meta(machine)
    recording = Recording(meta, [
        act.SetGpuPgtable(),
        act.MapGpuMem(addr=0x100000, num_pages=1, raw_pte_flags=0x7),
        act.WaitIrq(timeout_ns=2 * MS, src="fabricated:hang"),
    ], [])
    meta.prologue_len = 2
    replayer = Replayer(machine)
    replayer.init()
    try:
        replayer.load(recording)
        try:
            replayer.replay(max_attempts=1)
            return AttackResult("gpu-hang", False, "none",
                                "hang recording 'succeeded'")
        except ReplayError:
            # Bounded failure; prove the GPU is still recoverable.
            replayer.nano.soft_reset()
            return AttackResult(
                "gpu-hang", True,
                "bounded timeouts + reset recovery",
                "replay failed safely; GPU reset succeeded")
    finally:
        replayer.cleanup()


ATTACKS: Dict[str, Callable[[Machine], AttackResult]] = {
    "illegal-register": attack_illegal_register,
    "oob-upload": attack_oob_upload,
    "memory-bomb": attack_memory_bomb,
    "pgtable-redirect": attack_pgtable_redirect,
    "malformed-file": attack_malformed_file,
    "gpu-hang": attack_gpu_hang,
}


def run_attack_suite(machine_factory: Callable[[], Machine]
                     ) -> List[AttackResult]:
    """Run every attack, each on a fresh machine."""
    return [attack(machine_factory()) for attack in ATTACKS.values()]
