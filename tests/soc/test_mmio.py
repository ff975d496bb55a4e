"""Register files and the MMIO bus."""

import pytest

from repro.errors import MmioError
from repro.soc.mmio import MmioBus, RegAttr, RegisterDef, RegisterFile


def make_regfile():
    return RegisterFile([
        RegisterDef("CTRL", 0x00, RegAttr.rw(), reset=7),
        RegisterDef("STATUS", 0x04, RegAttr.ro()),
        RegisterDef("KICK", 0x08, RegAttr.WRITABLE | RegAttr.WRITE_TRIGGER),
        RegisterDef("COUNTER", 0x0C, RegAttr.READABLE | RegAttr.VOLATILE),
    ])


class TestRegisterFile:
    def test_reset_values(self):
        regs = make_regfile()
        assert regs.read("CTRL") == 7
        assert regs.read("STATUS") == 0

    def test_write_read_roundtrip(self):
        regs = make_regfile()
        regs.write("CTRL", 0x1234)
        assert regs.read("CTRL") == 0x1234

    def test_write_truncated_to_32_bits(self):
        regs = make_regfile()
        regs.write("CTRL", 0x1_0000_0001)
        assert regs.read("CTRL") == 1

    def test_read_only_rejects_writes(self):
        regs = make_regfile()
        with pytest.raises(MmioError):
            regs.write("STATUS", 1)

    def test_write_only_rejects_reads(self):
        regs = make_regfile()
        with pytest.raises(MmioError):
            regs.read("KICK")

    def test_unknown_register(self):
        regs = make_regfile()
        with pytest.raises(MmioError):
            regs.read("NOPE")

    def test_write_handler_sees_old_and_new(self):
        regs = make_regfile()
        seen = []
        regs.set_write_handler("CTRL", lambda old, new:
                               seen.append((old, new)))
        regs.write("CTRL", 99)
        assert seen == [(7, 99)]

    def test_read_handler_overrides_value(self):
        regs = make_regfile()
        regs.set_read_handler("STATUS", lambda stored: stored | 0x80)
        assert regs.read("STATUS") == 0x80

    def test_peek_poke_bypass_handlers_and_hooks(self):
        """Handlers are the only hooks a register file has."""
        regs = make_regfile()
        log = []
        regs.set_write_handler("CTRL", lambda o, n: log.append("h"))
        regs.set_read_handler("CTRL", lambda v: log.append("r") or v)
        regs.poke("CTRL", 42)
        assert regs.peek("CTRL") == 42 == regs.values["CTRL"]
        assert log == []

    def test_snapshot_restore(self):
        regs = make_regfile()
        regs.write("CTRL", 10)
        snap = regs.snapshot()
        regs.write("CTRL", 20)
        regs.restore(snap)
        assert regs.peek("CTRL") == 10

    def test_gate_makes_block_dead(self):
        regs = make_regfile()
        powered = [False]
        regs.set_gate(lambda: powered[0])
        assert regs.read("CTRL") == 0xFFFFFFFF
        regs.write("CTRL", 5)  # dropped
        powered[0] = True
        assert regs.read("CTRL") == 7

    def test_duplicate_name_rejected(self):
        with pytest.raises(MmioError):
            RegisterFile([RegisterDef("A", 0), RegisterDef("A", 4)])

    def test_duplicate_offset_rejected(self):
        with pytest.raises(MmioError):
            RegisterFile([RegisterDef("A", 0), RegisterDef("B", 0)])

    def test_unaligned_offset_rejected(self):
        with pytest.raises(MmioError):
            RegisterFile([RegisterDef("A", 2)])

    def test_span(self):
        assert make_regfile().span() == 0x10

    def test_name_offset_mapping(self):
        regs = make_regfile()
        assert regs.name_to_offset("KICK") == 0x08
        assert regs.lookup_offset(0x08).name == "KICK"


class TestMmioBus:
    def test_routes_by_address(self):
        bus = MmioBus()
        regs = make_regfile()
        bus.map(0x1000, regs)
        bus.write(0x1000, 123)
        assert bus.read(0x1000) == 123
        assert regs.peek("CTRL") == 123

    def test_offset_within_block(self):
        bus = MmioBus()
        regs = make_regfile()
        bus.map(0x1000, regs)
        regs.poke("STATUS", 9)
        assert bus.read(0x1004) == 9

    def test_unmapped_address(self):
        bus = MmioBus()
        with pytest.raises(MmioError):
            bus.read(0x9999_0000)

    def test_overlapping_mapping_rejected(self):
        bus = MmioBus()
        bus.map(0x1000, make_regfile())
        with pytest.raises(MmioError):
            bus.map(0x1008, make_regfile())

    def test_base_of(self):
        bus = MmioBus()
        regs = make_regfile()
        bus.map(0x2000, regs)
        assert bus.base_of(regs) == 0x2000
        assert bus.base_of(make_regfile()) is None


class TestResolvedOnce:
    """Attribute checks come from sets built at construction and the
    bus remembers where an address led: the messages, the order of
    checks and handlers (the only hooks a register file has), and the
    gate are what they were."""

    def test_error_messages_and_their_order(self):
        regs = make_regfile()
        for access in (regs.read, lambda n: regs.write(n, 1),
                       regs.peek, lambda n: regs.poke(n, 1)):
            with pytest.raises(MmioError, match="unknown register 'NOPE'"):
                access("NOPE")
        with pytest.raises(MmioError, match="register KICK is not readable"):
            regs.read("KICK")
        with pytest.raises(MmioError,
                           match="register STATUS is not writable"):
            regs.write("STATUS", 1)
        assert regs.peek("STATUS") == 0
        regs.poke("STATUS", 0x1_0000_0003)     # poke ignores attributes
        assert regs.peek("STATUS") == 3
        assert regs.peek("KICK") == 0          # so does peek

    def test_rejected_access_reaches_no_hook_or_handler(self):
        regs = make_regfile()
        log = []
        regs.set_write_handler("STATUS", lambda o, n: log.append("w"))
        regs.set_read_handler("KICK", lambda v: log.append("r") or v)
        with pytest.raises(MmioError):
            regs.write("STATUS", 1)
        with pytest.raises(MmioError):
            regs.read("KICK")
        assert log == [] and regs.peek("STATUS") == 0

    def test_hook_and_handler_order(self):
        regs = make_regfile()
        log = []
        regs.set_write_handler(
            "CTRL", lambda old, new: log.append(
                ("handler", old, new, regs.peek("CTRL"))))
        regs.set_read_handler(
            "CTRL", lambda stored: log.append(("reader", stored)) or 0x1FF)
        regs.write("CTRL", 0x1_0000_0009)
        assert regs.read("CTRL") == 0x1FF
        assert log == [
            # Store (truncated to 32 bits), then the handler.
            ("handler", 7, 9, 9),
            # The reader sees the stored value; the bus, what it says.
            ("reader", 9)]
        assert regs.peek("CTRL") == 9

    def test_gated_block(self):
        regs = make_regfile()
        log = []
        powered = [False]
        regs.set_gate(lambda: powered[0])
        regs.set_write_handler("CTRL", lambda o, n: log.append("handler"))
        regs.set_read_handler("CTRL", lambda v: log.append("reader") or v)
        assert regs.read("CTRL") == 0xFFFFFFFF
        regs.write("CTRL", 5)
        # Dead accesses reach neither the handlers nor the store.
        assert log == []
        assert regs.peek("CTRL") == 7
        # Attribute checks come before the gate.
        with pytest.raises(MmioError, match="not readable"):
            regs.read("KICK")
        with pytest.raises(MmioError, match="not writable"):
            regs.write("STATUS", 1)
        powered[0] = True
        regs.write("CTRL", 5)
        assert regs.read("CTRL") == 5
        regs.set_gate(None)
        assert regs.read("CTRL") == 5

    def test_bus_errors_are_not_remembered(self):
        bus = MmioBus()
        regs = make_regfile()
        bus.map(0x1000, regs)
        for _ in range(2):
            with pytest.raises(MmioError,
                               match="no MMIO mapping at address 0x2000"):
                bus.read(0x2000)
            # 0x1002 is inside the block but not a register.
            with pytest.raises(MmioError,
                               match="no register at offset 0x2"):
                bus.write(0x1002, 1)
            with pytest.raises(MmioError, match="KICK is not readable"):
                bus.read(0x1008)
            with pytest.raises(MmioError, match="STATUS is not writable"):
                bus.write(0x1004, 1)
        assert set(bus._routes) <= {0x1004, 0x1008}

    def test_map_after_a_resolved_access_still_routes(self):
        bus = MmioBus()
        first, second = make_regfile(), make_regfile()
        bus.map(0x1000, first)
        bus.write(0x1000, 11)
        with pytest.raises(MmioError):
            bus.read(0x2000)
        bus.map(0x2000, second)
        assert bus.read(0x2000) == 7           # the new block's reset
        bus.write(0x2000, 22)
        assert (bus.read(0x1000), bus.read(0x2000)) == (11, 22)
        assert (first.peek("CTRL"), second.peek("CTRL")) == (11, 22)
        # One route per register touched, at most one per register.
        assert set(bus._routes) == {0x1000, 0x2000}

    def test_bus_access_reaches_hooks_like_a_named_access(self):
        """A routed access runs the register's handlers, resolved or
        not, exactly as the named access does."""
        bus = MmioBus()
        regs = make_regfile()
        bus.map(0x1000, regs)
        log = []
        regs.set_write_handler("CTRL", lambda o, n: log.append(("w", o, n)))
        regs.set_read_handler("COUNTER", lambda v: log.append(("r", v)) or 5)
        for _ in range(2):
            bus.write(0x1000, 0x1_0000_0003)
            assert bus.read(0x100C) == 5
        assert log == [("w", 7, 3), ("r", 0), ("w", 3, 3), ("r", 0)]
