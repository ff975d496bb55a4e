"""The ioctl boundary between the runtime and the driver.

Each call crosses user/kernel space, which costs virtual time -- the
"abstraction tax" (Section 4.5) that the replayer later avoids by
talking to registers directly.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict

from repro import weakly
from repro.errors import DriverError
from repro.units import US

#: Cost of one user/kernel crossing (entry + exit + argument copy).
IOCTL_CROSSING_NS = 2 * US


class IoctlCode(enum.Enum):
    VERSION_CHECK = enum.auto()
    GET_GPU_PROPS = enum.auto()
    MEM_ALLOC = enum.auto()
    MEM_FREE = enum.auto()
    JOB_SUBMIT = enum.auto()
    JOB_WAIT = enum.auto()
    CACHE_FLUSH = enum.auto()


class IoctlDispatcher:
    """Routes ioctl codes to driver methods and charges crossing cost."""

    def __init__(self, clock) -> None:
        self._clock = clock
        self._handlers: Dict[IoctlCode, Callable[..., Any]] = {}
        self.call_count = 0

    def register(self, code: IoctlCode, handler: Callable[..., Any]) -> None:
        self._handlers[code] = weakly(handler)

    def call(self, code: IoctlCode, **args: Any) -> Any:
        handler = self._handlers.get(code)
        if handler is None:
            raise DriverError(f"unsupported ioctl {code.name}")
        self._clock.advance(IOCTL_CROSSING_NS)
        self.call_count += 1
        return handler(**args)
