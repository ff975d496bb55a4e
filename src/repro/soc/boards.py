"""Board definitions mirroring the paper's evaluation hardware.

Each :class:`BoardSpec` fixes the DRAM size, the GPU model mounted on
the SoC, the GPU's MMIO base and IRQ line, and the physical region
reserved as GPU-visible memory. The four boards are the ones Table 3
lists: Hikey960 (Mali G71), Odroid N2 (Mali G52), Odroid C4 (Mali G31)
and Raspberry Pi 4 (Broadcom v3d).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.units import GIB, MIB


@dataclass(frozen=True)
class BoardSpec:
    """Static description of an evaluation board."""

    name: str
    soc: str
    dram_bytes: int
    gpu_model: str
    gpu_mmio_base: int
    gpu_irq: int
    #: Physical window handed to the GPU page allocator.
    gpu_mem_base: int
    gpu_mem_bytes: int
    #: True when GPU power/clocks are configured through the firmware
    #: mailbox (Pi-style) rather than direct SoC registers.
    firmware_managed_power: bool = False


HIKEY960 = BoardSpec(
    name="hikey960",
    soc="kirin960",
    dram_bytes=3 * GIB,
    gpu_model="mali-g71",
    gpu_mmio_base=0xE82C_0000,
    gpu_irq=33,
    gpu_mem_base=0x2000_0000,
    gpu_mem_bytes=2 * GIB,
)

ODROID_N2 = BoardSpec(
    name="odroid-n2",
    soc="amlogic-s922x",
    dram_bytes=4 * GIB,
    gpu_model="mali-g52",
    gpu_mmio_base=0xFFE4_0000,
    gpu_irq=80,
    gpu_mem_base=0x2000_0000,
    gpu_mem_bytes=2 * GIB,
)

ODROID_C4 = BoardSpec(
    name="odroid-c4",
    soc="amlogic-s905x3",
    dram_bytes=4 * GIB,
    gpu_model="mali-g31",
    gpu_mmio_base=0xFFE4_0000,
    gpu_irq=80,
    gpu_mem_base=0x2000_0000,
    gpu_mem_bytes=2 * GIB,
)

RASPBERRY_PI4 = BoardSpec(
    name="raspberrypi4",
    soc="bcm2711",
    dram_bytes=4 * GIB,
    gpu_model="v3d",
    gpu_mmio_base=0xFEC0_0000,
    gpu_irq=74,
    gpu_mem_base=0x1000_0000,
    gpu_mem_bytes=1 * GIB + 512 * MIB,
    firmware_managed_power=True,
)

PIXEL4 = BoardSpec(
    name="pixel4",
    soc="sm8150",
    dram_bytes=6 * GIB,
    gpu_model="adreno-640",
    gpu_mmio_base=0x0500_0000,
    gpu_irq=300,
    gpu_mem_base=0x8000_0000,
    gpu_mem_bytes=2 * GIB,
)

BOARDS = {
    spec.name: spec
    for spec in (HIKEY960, ODROID_N2, ODROID_C4, RASPBERRY_PI4, PIXEL4)
}


#: The evaluation board each GPU family records and replays on.
FAMILY_BOARDS = {"mali": HIKEY960.name, "v3d": RASPBERRY_PI4.name,
                 "adreno": PIXEL4.name}


def board_for_family(family: str) -> str:
    try:
        return FAMILY_BOARDS[family]
    except KeyError:
        raise ReproError(f"unknown GPU family {family!r}") from None


def board_by_name(name: str) -> BoardSpec:
    """Look up a board spec; raises KeyError with the known names."""
    try:
        return BOARDS[name]
    except KeyError:
        known = ", ".join(sorted(BOARDS))
        raise KeyError(f"unknown board {name!r}; known boards: {known}")
