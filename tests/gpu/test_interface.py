"""The per-family interface (``repro.gpu``) against the device models."""

import pytest

from repro.gpu import FAMILIES
from repro.soc.machine import fresh_replay_machine


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_table_register_is_in_the_device_map(family):
    """A register the table names that the device does not map would
    only fail when the replayer first resolves it."""
    table = FAMILIES[family]
    named = {table.memattr_reg, table.retire_reg} - {None}
    named |= set(table.root_regs) | table.kick_regs | set(table.config_regs)
    named |= {step.reg for step in table.arm + table.reset + table.flush}
    gpu = fresh_replay_machine(family, seed=5).require_gpu()
    assert gpu.family == table.name
    assert named - {d.name for d in gpu.regs.defs()} == set()
