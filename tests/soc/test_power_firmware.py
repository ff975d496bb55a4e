"""The firmware mailbox."""

import pytest

from repro.errors import FirmwareError
from repro.soc import firmware as fw
from repro.soc.clock import VirtualClock


class TestFirmwareMailbox:
    def make(self):
        clock = VirtualClock()
        mailbox = fw.FirmwareMailbox(clock)
        mailbox.define_device(10, default_clock_hz=500_000_000)
        return clock, mailbox

    def test_power_toggle(self):
        _clock, mailbox = self.make()
        assert not mailbox.is_powered(10)
        mailbox.request(fw.TAG_SET_POWER, 10, 1)
        assert mailbox.is_powered(10)
        assert mailbox.request(fw.TAG_GET_POWER, 10) == 1

    def test_clock_rate(self):
        _clock, mailbox = self.make()
        mailbox.request(fw.TAG_SET_CLOCK_RATE, 10, 300_000_000)
        assert mailbox.clock_rate(10) == 300_000_000
        assert mailbox.request(fw.TAG_GET_CLOCK_RATE, 10) == 300_000_000

    def test_calls_cost_virtual_time(self):
        clock, mailbox = self.make()
        mailbox.request(fw.TAG_GET_POWER, 10)
        assert clock.now() == fw.MAILBOX_CALL_NS

    def test_call_log_for_extraction(self):
        _clock, mailbox = self.make()
        mailbox.request(fw.TAG_SET_POWER, 10, 1)
        mailbox.request(fw.TAG_SET_CLOCK_RATE, 10, 100)
        assert mailbox.extract_sequence() == [
            (fw.TAG_SET_POWER, 10, 1),
            (fw.TAG_SET_CLOCK_RATE, 10, 100),
        ]

    def test_unknown_device(self):
        _clock, mailbox = self.make()
        with pytest.raises(FirmwareError):
            mailbox.request(fw.TAG_SET_POWER, 99, 1)

    def test_unknown_tag(self):
        _clock, mailbox = self.make()
        with pytest.raises(FirmwareError):
            mailbox.request(0xBAD, 10, 0)

    def test_zero_clock_rejected(self):
        _clock, mailbox = self.make()
        with pytest.raises(FirmwareError):
            mailbox.request(fw.TAG_SET_CLOCK_RATE, 10, 0)
