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
    """A device's register block: values, handlers, and access hooks.

    Devices attach per-register read/write handlers to implement
    behaviour (starting jobs, acknowledging interrupts). External
    observers (the recorder) attach access hooks that see every read
    and write without perturbing them.
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
        self._values: Dict[str, int] = {d.name: d.reset for d in defs}
        # Definitions are frozen: decide once which names the bus may
        # read or write, instead of testing an enum flag per access.
        self._readable = {d.name for d in defs
                          if RegAttr.READABLE in d.attrs}
        self._writable = {d.name for d in defs
                          if RegAttr.WRITABLE in d.attrs}
        self._write_handlers: Dict[str, Callable[[int, int], None]] = {}
        self._read_handlers: Dict[str, Callable[[int], int]] = {}
        self._access_hooks: List[Callable[[str, str, int], None]] = []
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

    def has(self, name: str) -> bool:
        return name in self._by_name

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
        self._write_handlers[name] = handler

    def set_read_handler(self, name: str,
                         handler: Callable[[int], int]) -> None:
        """Handler receives the stored value, returns what the read sees."""
        self.lookup(name)
        self._read_handlers[name] = handler

    def set_gate(self, gate: Optional[Callable[[], bool]]) -> None:
        """Install a power gate: while it returns False the block is dead
        (reads yield 0xFFFFFFFF, writes are dropped), like real MMIO to
        an unpowered peripheral."""
        self._gate = gate

    def add_access_hook(self, hook: Callable[[str, str, int], None]) -> None:
        """Observe accesses as ``hook(kind, name, value)``; kind: 'r'/'w'."""
        self._access_hooks.append(hook)

    def remove_access_hook(self, hook: Callable[[str, str, int], None]) -> None:
        self._access_hooks.remove(hook)

    # -- internal state (no hooks, no handlers) ------------------------------

    def peek(self, name: str) -> int:
        value = self._values.get(name)
        if value is None:
            self.lookup(name)
        return value

    def poke(self, name: str, value: int) -> None:
        if name not in self._values:
            self.lookup(name)
        self._values[name] = value & U32_MASK

    def snapshot(self) -> Dict[str, int]:
        """Copy of all register values (for checkpointing)."""
        return dict(self._values)

    def restore(self, values: Dict[str, int]) -> None:
        for name, value in values.items():
            self.poke(name, value)

    # -- bus-facing access ----------------------------------------------------

    def read(self, name: str) -> int:
        if name not in self._readable:
            self.lookup(name)
            raise MmioError(f"register {name} is not readable")
        if self._gate is not None and not self._gate():
            value = U32_MASK
            for hook in self._access_hooks:
                hook("r", name, value)
            return value
        value = self._values[name]
        handler = self._read_handlers.get(name)
        if handler is not None:
            value = handler(value) & U32_MASK
        for hook in self._access_hooks:
            hook("r", name, value)
        return value

    def write(self, name: str, value: int) -> None:
        if name not in self._writable:
            self.lookup(name)
            raise MmioError(f"register {name} is not writable")
        value &= U32_MASK
        if self._gate is not None and not self._gate():
            for hook in self._access_hooks:
                hook("w", name, value)
            return
        old = self._values[name]
        self._values[name] = value
        for hook in self._access_hooks:
            hook("w", name, value)
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
        route = self._routes.get(addr)
        if route is None:
            regfile, offset = self.resolve(addr)
            route = regfile, regfile.lookup_offset(offset).name
            self._routes[addr] = route
        return route

    def read(self, addr: int) -> int:
        regfile, name = self._route(addr)
        return regfile.read(name)

    def write(self, addr: int, value: int) -> None:
        regfile, name = self._route(addr)
        regfile.write(name, value)

    def base_of(self, regfile: RegisterFile) -> Optional[int]:
        for base, _, rf in self._mappings:
            if rf is regfile:
                return base
        return None
