"""The kernel-level replayer: a module beside the stock driver.

Reuses the stock driver's plumbing (interrupt registration, memory
exception reporting) but *disables the stock driver's execution* while
a replay is in flight, re-enabling it on completion or preemption --
exactly the arrangement Section 6.3 describes for v3d.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.environments.base import (DeploymentEnvironment, TcbProfile,
                                     host_kernel_configures_gpu)
from repro.errors import EnvironmentError_
from repro.units import KIB, MS

if TYPE_CHECKING:
    from repro.stack.driver.base import GpuDriver


#: insmod + ioctl surface registration.
MODULE_LOAD_NS = 3 * MS


class KernelEnvironment(DeploymentEnvironment):
    """Replayer hosted as a kernel module (used on v3d)."""

    name = "kernel"

    def __init__(self, machine, stock_driver: Optional[GpuDriver] = None):
        super().__init__(machine)
        self.stock_driver = stock_driver
        self._stock_was_connected = False

    def tcb(self) -> TcbProfile:
        return TcbProfile(
            name=self.name,
            trusted_components=["host OS kernel",
                                "replayer module (~1K SLoC)"],
            exposed_to=["local unprivileged adversaries (ioctl surface)",
                        "remote adversaries"],
            replayer_binary_bytes=20 * KIB,
        )

    def _prepare(self) -> None:
        host_kernel_configures_gpu(self.machine)
        self.machine.clock.advance(MODULE_LOAD_NS)
        self._disable_stock_driver()

    def _disable_stock_driver(self) -> None:
        """Once turned on, the replayer owns the GPU exclusively."""
        if self.stock_driver is None:
            return
        if self.stock_driver.outstanding_jobs > 0:
            raise EnvironmentError_(
                "stock driver has jobs in flight; drain it first")
        self._stock_was_connected = self.stock_driver._irq_connected
        self.stock_driver.disconnect_irq()

    def reenable_stock_driver(self) -> None:
        """Hand the GPU back after replay completion or preemption."""
        if self.stock_driver is not None and self._stock_was_connected:
            # The replayer's IRQ stub must release the line first.
            self.require_replayer().nano.disconnect_irq()
            self.stock_driver.connect_irq()

    def teardown(self) -> None:
        super().teardown()
        if self.stock_driver is not None and self._stock_was_connected:
            self.stock_driver.connect_irq()
