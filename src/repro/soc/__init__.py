"""The simulated SoC substrate.

Provides the hardware environment the GPU stack and the replayer run on:
a discrete-event virtual clock, physical DRAM with a page allocator, an
MMIO bus with register files, an interrupt controller, clock domains,
a firmware mailbox (which owns GPU power where a board has one), and
board definitions composing them into a
:class:`~repro.soc.machine.Machine`. ``import repro.soc`` loads no
submodule; the names in ``__all__`` resolve on first access.
"""

from repro import lazy_exports

_HOMES = {name: module for module, names in (
    ("boards", "BOARDS BoardSpec HIKEY960 ODROID_C4 ODROID_N2 RASPBERRY_PI4 "
               "board_by_name"),
    ("clock", "ClockDomain VirtualClock"),
    ("irq", "InterruptController"),
    ("machine", "Machine"),
    ("memory", "PAGE_SIZE PageAllocator PhysicalMemory"),
    ("mmio", "MmioBus RegAttr RegisterDef RegisterFile"),
) for name in names.split()}

__all__ = list(_HOMES)
__getattr__ = lazy_exports(__name__, _HOMES)
