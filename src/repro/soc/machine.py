"""The ``Machine``: composition root for one simulated board.

A machine owns the virtual clock, DRAM, the MMIO bus, the interrupt
controller, the firmware mailbox and exactly one integrated GPU device.
Record-time and replay-time runs use *different* machine instances
(different seeds), which is what exercises relocation and the
nondeterminism-tolerance machinery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import SocError
from repro.soc.boards import BoardSpec, board_by_name, board_for_family
from repro.soc.clock import VirtualClock
from repro.soc.firmware import (TAG_SET_CLOCK_RATE, TAG_SET_POWER,
                                FirmwareMailbox)
from repro.soc.flight import FlightRecorder
from repro.soc.irq import InterruptController
from repro.soc.memory import PAGE_SIZE, PageAllocator, PhysicalMemory
from repro.soc.mmio import MmioBus
from repro.soc.nullobs import NULL_OBS


@dataclass
class InterferenceProfile:
    """Run-time interference knobs (Section 7.2 validation).

    ``mem_contention`` scales GPU memory-bound work (co-running CPU
    programs generating memory traffic); ``thermal_throttle`` scales all
    GPU work (SoC thermal throttling from burned CPU cycles). 1.0 means
    no interference.
    """

    mem_contention: float = 1.0
    thermal_throttle: float = 1.0

    def validate(self) -> None:
        if self.mem_contention < 1.0 or self.thermal_throttle < 1.0:
            raise SocError("interference factors must be >= 1.0")


class Machine:
    """One simulated SoC board with an integrated GPU."""

    def __init__(self, board: BoardSpec, seed: int = 0):
        self.board = board
        self.seed = seed
        self.clock = VirtualClock()
        self.rng = random.Random(seed)
        self.memory = PhysicalMemory(board.dram_bytes)
        self.gpu_allocator = PageAllocator(
            self.memory,
            base_pa=board.gpu_mem_base,
            page_count=board.gpu_mem_bytes // PAGE_SIZE,
            seed=seed ^ 0x5EED,
        )
        self.mmio = MmioBus()
        self.irq = InterruptController()
        self.firmware = FirmwareMailbox(self.clock)
        self.interference = InterferenceProfile()
        # Telemetry sink: a no-op by default; swapped for a live
        # session by repro.obs.enable_observability(machine). Obs only
        # ever *reads* the clock, so enabling it never changes
        # virtual-time results.
        self.obs = NULL_OBS
        # Flight recorder: always on, bounded, forensics-only. Unlike
        # obs it cannot be swapped out -- divergence localization
        # depends on the ring existing whenever a replay fails.
        self.flight = FlightRecorder()
        self.gpu = None  # type: Optional[object]

    @classmethod
    def create(cls, board: "BoardSpec | str", seed: int = 0) -> "Machine":
        """Build a machine and mount the board's GPU device on it."""
        if isinstance(board, str):
            board = board_by_name(board)
        machine = cls(board, seed)
        # Imported lazily: repro.gpu depends on repro.soc.
        from repro.gpu import create_gpu

        machine.gpu = create_gpu(board.gpu_model, machine)
        return machine

    def attach_gpu(self, gpu: object) -> None:
        """Mount a GPU device (used by tests that build devices by hand)."""
        if self.gpu is not None:
            raise SocError("machine already has a GPU attached")
        self.gpu = gpu

    def require_gpu(self):
        if self.gpu is None:
            raise SocError("machine has no GPU attached")
        return self.gpu

    def now(self) -> int:
        """Shorthand for the machine's virtual time."""
        return self.clock.now()


def host_kernel_configures_gpu(machine: Machine) -> None:
    """What a commodity kernel did at boot: power the GPU rail.

    User/kernel-level replayers "reuse the configuration done by the
    kernel transparently" (Section 6.3); this is that configuration.
    """
    if machine.board.firmware_managed_power:
        # Imported lazily: repro.gpu depends on repro.soc.
        from repro.gpu import V3D_DEFAULT_CLOCK_HZ, V3D_FIRMWARE_ID

        machine.firmware.request(TAG_SET_POWER, V3D_FIRMWARE_ID, 1)
        machine.firmware.request(TAG_SET_CLOCK_RATE, V3D_FIRMWARE_ID,
                                 V3D_DEFAULT_CLOCK_HZ)


def fresh_replay_machine(family: str, seed: int = 1000,
                         board: Optional[str] = None) -> Machine:
    """A machine for the replay side, GPU power configured by the host
    kernel (the D1 userspace/kernel deployments)."""
    machine = Machine.create(board or board_for_family(family), seed=seed)
    host_kernel_configures_gpu(machine)
    return machine
