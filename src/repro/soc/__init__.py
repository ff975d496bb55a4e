"""The simulated SoC substrate.

The hardware the GPU stack and the replayer run on: a discrete-event
virtual clock, physical DRAM with a page allocator, an MMIO bus with
register files, an interrupt controller, clock domains, a firmware
mailbox (owning GPU power where a board has one), and board
definitions composing them into a :class:`~repro.soc.machine.Machine`.
``import repro.soc`` loads no submodule; the names in ``__all__``
resolve on first access, but for the page size and
:class:`PageSource`, which the replayer shares.
"""

from repro import lazy_exports

PAGE_SIZE = 4096
_ZERO_PAGE = bytes(PAGE_SIZE)


def zero_pages(data) -> list:
    """Per page of ``data`` (the last may be short): all zero?"""
    view = memoryview(data).cast("B")
    return [_ZERO_PAGE.startswith(view[at:at + PAGE_SIZE])
            for at in range(0, len(view), PAGE_SIZE)]


class PageSource:
    """A read-only buffer as tagged stores hold it: a page tagged page
    ``k`` of it holds exactly its page ``k``; ``zero[k]`` says that page
    is all zero, and ``version`` is bumped whenever a page tagged from
    it is overwritten, scrubbed, freed or re-tagged."""

    __slots__ = ("data", "zero", "version")

    def __init__(self, data) -> None:
        self.data = view = memoryview(data).cast("B")
        if not view.readonly:
            raise TypeError("writable page source")
        self.zero = zero_pages(view)
        self.version = 0


#: The source of an all-zero page's tag, ``(ZERO, 0)``.
ZERO = PageSource(_ZERO_PAGE)

_HOMES = {name: module for module, names in (
    ("boards", "BOARDS BoardSpec HIKEY960 ODROID_C4 ODROID_N2 RASPBERRY_PI4 "
               "board_by_name"),
    ("clock", "ClockDomain VirtualClock"),
    ("irq", "InterruptController"),
    ("machine", "Machine"),
    ("memory", "PageAllocator PhysicalMemory"),
    ("mmio", "MmioBus RegAttr RegisterDef RegisterFile"),
) for name in names.split()}

__all__ = ["PAGE_SIZE", *_HOMES]
__getattr__ = lazy_exports(__name__, _HOMES)
