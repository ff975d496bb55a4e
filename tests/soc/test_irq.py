"""Interrupt controller behaviour."""

import pytest

from repro.errors import SocError
from repro.soc.irq import InterruptController


@pytest.fixture
def irq():
    controller = InterruptController()
    controller.register_line(5, "gpu")
    return controller


class TestInterruptController:
    def test_dispatches_to_handler(self, irq):
        seen = []
        irq.connect(5, seen.append)
        irq.raise_irq(5)
        assert seen == [5]

    def test_pending_without_handler(self, irq):
        irq.raise_irq(5)
        assert irq.is_pending(5)

    def test_masked_delivery_deferred(self, irq):
        seen = []
        irq.connect(5, seen.append)
        irq.set_masked(5, True)
        irq.raise_irq(5)
        assert seen == []
        assert irq.is_pending(5)
        irq.set_masked(5, False)
        assert seen == [5]

    def test_ack_clears_pending(self, irq):
        irq.raise_irq(5)
        irq.ack(5)
        assert not irq.is_pending(5)

    def test_handler_replacement_and_removal(self, irq):
        a, b = [], []
        irq.connect(5, a.append)
        irq.connect(5, b.append)
        irq.raise_irq(5)
        assert a == [] and b == [5]
        irq.connect(5, None)
        irq.ack(5)
        irq.raise_irq(5)
        assert b == [5]

    def test_duplicate_line_rejected(self, irq):
        with pytest.raises(SocError):
            irq.register_line(5, "dup")

    def test_unknown_line_rejected(self, irq):
        with pytest.raises(SocError):
            irq.raise_irq(99)
        with pytest.raises(SocError):
            irq.connect(99, lambda line: None)
