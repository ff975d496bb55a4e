"""Interrupt controller for the simulated SoC.

Devices raise interrupt lines; the controller dispatches to the handler
installed by whatever software owns the line (the full driver, or the
replayer's nano driver). Masking allows environments to suspend
delivery (e.g. while the TEE owns the GPU, the normal world's handler
is masked out).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set

from repro import weakly
from repro.errors import SocError

IrqHandler = Callable[[int], None]


@dataclass
class IrqLine:
    number: int
    name: str


class InterruptController:
    """A flat interrupt controller with per-line handlers and masking."""

    def __init__(self) -> None:
        self._lines: Dict[int, IrqLine] = {}
        self._handlers: Dict[int, IrqHandler] = {}
        self._masked: Set[int] = set()
        self._pending: Set[int] = set()

    def register_line(self, number: int, name: str) -> IrqLine:
        if number in self._lines:
            raise SocError(f"IRQ line {number} already registered")
        line = IrqLine(number, name)
        self._lines[number] = line
        return line

    def line(self, number: int) -> IrqLine:
        if number not in self._lines:
            raise SocError(f"unknown IRQ line {number}")
        return self._lines[number]

    # -- software side -------------------------------------------------------

    def connect(self, number: int, handler: Optional[IrqHandler]) -> None:
        """Install (or remove, with None) the handler for a line
        (a bound method's object is held weakly)."""
        self.line(number)
        if handler is None:
            self._handlers.pop(number, None)
        else:
            self._handlers[number] = weakly(handler)

    def set_masked(self, number: int, masked: bool) -> None:
        self.line(number)
        if masked:
            self._masked.add(number)
        else:
            self._masked.discard(number)
            # Deliver anything that arrived while masked.
            if number in self._pending:
                self._dispatch(number)

    def is_pending(self, number: int) -> bool:
        return number in self._pending

    def ack(self, number: int) -> None:
        """Acknowledge a pending interrupt (clears the pending bit)."""
        self._pending.discard(number)

    # -- device side ---------------------------------------------------------

    def raise_irq(self, number: int) -> None:
        """Assert a line. Dispatches synchronously unless masked."""
        self.line(number)
        self._pending.add(number)
        if number not in self._masked:
            self._dispatch(number)

    def _dispatch(self, number: int) -> None:
        handler = self._handlers.get(number)
        if handler is None:
            return  # Level-triggered: stays pending until someone connects.
        handler(number)
