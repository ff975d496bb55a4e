"""The simulated SoC substrate.

Provides the hardware environment the GPU stack and the replayer run on:
a discrete-event virtual clock, physical DRAM with a page allocator, an
MMIO bus with register files, an interrupt controller, clock domains,
a firmware mailbox (which owns GPU power where a board has one), and
board definitions composing them into a
:class:`~repro.soc.machine.Machine`.
"""

from repro.soc.boards import (
    BOARDS,
    BoardSpec,
    HIKEY960,
    ODROID_C4,
    ODROID_N2,
    RASPBERRY_PI4,
    board_by_name,
)
from repro.soc.clock import ClockDomain, VirtualClock
from repro.soc.irq import InterruptController
from repro.soc.machine import Machine
from repro.soc.memory import PAGE_SIZE, PageAllocator, PhysicalMemory
from repro.soc.mmio import MmioBus, RegAttr, RegisterDef, RegisterFile

__all__ = [
    "BOARDS",
    "BoardSpec",
    "ClockDomain",
    "HIKEY960",
    "InterruptController",
    "Machine",
    "MmioBus",
    "ODROID_C4",
    "ODROID_N2",
    "PAGE_SIZE",
    "PageAllocator",
    "PhysicalMemory",
    "RASPBERRY_PI4",
    "RegAttr",
    "RegisterDef",
    "RegisterFile",
    "board_by_name",
    "VirtualClock",
]
