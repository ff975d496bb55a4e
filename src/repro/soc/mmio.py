"""Memory-mapped I/O: register definitions, register files, the MMIO bus.

This is the narrow CPU/GPU interface the whole paper hinges on: the GPU
exposes a register file at an MMIO base; the driver (and later the nano
driver of the replayer) talks to the GPU exclusively through reads and
writes here, plus shared memory and interrupts.

Register attributes classify which accesses are *state-changing events*
(Section 3.2): VOLATILE reads return nondeterministic values and are
not state-changing; READ_SIDE_EFFECT reads are always state-changing;
writes are always state-changing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import weakly
from repro.errors import MmioError

U32_MASK = 0xFFFFFFFF


class RegAttr(enum.Flag):
    """Behavioural attributes of a register."""

    NONE = 0
    READABLE = enum.auto()
    WRITABLE = enum.auto()
    #: Reads return values that may differ run to run (e.g. cycle
    #: counters, temperature). Not state-changing; the recorder marks
    #: such reads as ignorable.
    VOLATILE = enum.auto()
    #: Reading mutates GPU state (e.g. read-to-clear status). Always a
    #: state-changing event.
    READ_SIDE_EFFECT = enum.auto()
    #: Writing triggers an operation (job start, reset, cache flush).
    WRITE_TRIGGER = enum.auto()

    @classmethod
    def rw(cls) -> "RegAttr":
        return cls.READABLE | cls.WRITABLE

    @classmethod
    def ro(cls) -> "RegAttr":
        return cls.READABLE

    @classmethod
    def wo(cls) -> "RegAttr":
        return cls.WRITABLE


@dataclass(frozen=True)
class RegisterDef:
    """Static definition of one 32-bit register."""

    name: str
    offset: int
    attrs: RegAttr = field(default_factory=RegAttr.rw)
    reset: int = 0
    doc: str = ""


class RegisterFile:
    """A device's register block: values and handlers.

    Devices attach per-register read/write handlers to implement
    behaviour (starting jobs, acknowledging interrupts; a bound method
    is held by weak proxy, :func:`repro.weakly`), and read and
    write :attr:`values` directly on their own hot paths; everyone else
    goes through the bus (:meth:`read`/:meth:`write`) or
    :meth:`peek`/:meth:`poke`.
    """

    def __init__(self, defs: List[RegisterDef]):
        self._by_name: Dict[str, RegisterDef] = {}
        self._by_offset: Dict[int, RegisterDef] = {}
        for d in defs:
            if d.name in self._by_name:
                raise MmioError(f"duplicate register name {d.name}")
            if d.offset in self._by_offset:
                raise MmioError(f"duplicate register offset {d.offset:#x}")
            if d.offset % 4 != 0:
                raise MmioError(f"register {d.name} offset not word-aligned")
            self._by_name[d.name] = d
            self._by_offset[d.offset] = d
        #: Register name -> stored 32-bit value. The device model that
        #: owns the block reads and writes it in place (and keeps every
        #: value it stores within 32 bits); anyone else peeks and pokes.
        self.values: Dict[str, int] = {d.name: d.reset for d in defs}
        # Definitions are frozen: decide once which names the bus may
        # read or write, instead of testing an enum flag per access.
        self._readable = {d.name for d in defs
                          if RegAttr.READABLE in d.attrs}
        self._writable = {d.name for d in defs
                          if RegAttr.WRITABLE in d.attrs}
        self._write_handlers: Dict[str, Callable[[int, int], None]] = {}
        self._read_handlers: Dict[str, Callable[[int], int]] = {}
        self._gate: Optional[Callable[[], bool]] = None

    # -- definitions -------------------------------------------------------

    def defs(self) -> List[RegisterDef]:
        return sorted(self._by_name.values(), key=lambda d: d.offset)

    def lookup(self, name: str) -> RegisterDef:
        d = self._by_name.get(name)
        if d is None:
            raise MmioError(f"unknown register {name!r}")
        return d

    def lookup_offset(self, offset: int) -> RegisterDef:
        d = self._by_offset.get(offset)
        if d is None:
            raise MmioError(f"no register at offset {offset:#x}")
        return d

    def name_to_offset(self, name: str) -> int:
        return self.lookup(name).offset

    def span(self) -> int:
        """Size in bytes of the register block."""
        return max(self._by_offset) + 4 if self._by_offset else 0

    # -- device-side plumbing ----------------------------------------------

    def set_write_handler(self, name: str,
                          handler: Callable[[int, int], None]) -> None:
        """Handler receives (old_value, new_value) after the store."""
        self.lookup(name)
        self._write_handlers[name] = weakly(handler)

    def set_read_handler(self, name: str,
                         handler: Callable[[int], int]) -> None:
        """Handler receives the stored value, returns what the read sees."""
        self.lookup(name)
        self._read_handlers[name] = weakly(handler)

    def set_gate(self, gate: Optional[Callable[[], bool]]) -> None:
        """Install a power gate: while it returns False the block is dead
        (reads yield 0xFFFFFFFF, writes are dropped), like real MMIO to
        an unpowered peripheral."""
        self._gate = weakly(gate)

    # -- internal state (no handlers) ------------------------------------------

    def peek(self, name: str) -> int:
        value = self.values.get(name)
        if value is None:
            self.lookup(name)
        return value

    def poke(self, name: str, value: int) -> None:
        if name not in self.values:
            self.lookup(name)
        self.values[name] = value & U32_MASK

    def snapshot(self) -> Dict[str, int]:
        """Copy of all register values (for checkpointing)."""
        return dict(self.values)

    def restore(self, values: Dict[str, int]) -> None:
        for name, value in values.items():
            self.poke(name, value)

    # -- bus-facing access ----------------------------------------------------

    def read(self, name: str) -> int:
        if name not in self._readable:
            self.lookup(name)
            raise MmioError(f"register {name} is not readable")
        if self._gate is not None and not self._gate():
            return U32_MASK
        value = self.values[name]
        handler = self._read_handlers.get(name)
        if handler is not None:
            value = handler(value) & U32_MASK
        return value

    def write(self, name: str, value: int) -> None:
        if name not in self._writable:
            self.lookup(name)
            raise MmioError(f"register {name} is not writable")
        value &= U32_MASK
        if self._gate is not None and not self._gate():
            return
        values = self.values
        old = values[name]
        values[name] = value
        handler = self._write_handlers.get(name)
        if handler is not None:
            handler(old, value)


class MmioBus:
    """Routes physical MMIO addresses to mapped register files."""

    def __init__(self) -> None:
        self._mappings: List[Tuple[int, int, RegisterFile]] = []
        #: Address -> (register file, register name), filled the first
        #: time an address resolves (at most one entry per mapped
        #: register) and reset by :meth:`map`.
        self._routes: Dict[int, Tuple[RegisterFile, str]] = {}

    def map(self, base: int, regfile: RegisterFile) -> None:
        size = regfile.span()
        for other_base, other_size, _ in self._mappings:
            if base < other_base + other_size and other_base < base + size:
                raise MmioError(
                    f"MMIO mapping at {base:#x} overlaps existing mapping")
        self._mappings.append((base, size, regfile))
        self._routes.clear()

    def resolve(self, addr: int) -> Tuple[RegisterFile, int]:
        for base, size, regfile in self._mappings:
            if base <= addr < base + size:
                return regfile, addr - base
        raise MmioError(f"no MMIO mapping at address {addr:#x}")

    def _route(self, addr: int) -> Tuple[RegisterFile, str]:
        """Resolve an address seen for the first time, and remember it."""
        regfile, offset = self.resolve(addr)
        route = regfile, regfile.lookup_offset(offset).name
        self._routes[addr] = route
        return route

    def read(self, addr: int) -> int:
        route = self._routes.get(addr) or self._route(addr)
        return route[0].read(route[1])

    def write(self, addr: int, value: int) -> None:
        route = self._routes.get(addr) or self._route(addr)
        route[0].write(route[1], value)

    def base_of(self, regfile: RegisterFile) -> Optional[int]:
        for base, _, rf in self._mappings:
            if rf is regfile:
                return base
        return None
