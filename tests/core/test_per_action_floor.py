"""What a replay can observe did not move when the per-action floor was
paid (DESIGN.md "The per-action floor"): device models own their
register values, preemption is a flag read per action, and a machine
without an obs session formats nothing."""

import pytest

from repro.bench.workloads import fresh_replay_machine, get_recorded
from repro.core.replay import seeded_inputs
from repro.core.replayer import Replayer, clear_load_cache
from repro.errors import ReplayAborted
from repro.obs import enable_observability
from repro.soc.mmio import U32_MASK

#: family -> (IRQ mask, IRQ clear, raw IRQ status) registers.
IRQ_REGS = {"mali": ("JOB_IRQ_MASK", "JOB_IRQ_CLEAR", "JOB_IRQ_RAWSTAT"),
            "v3d": ("CTL_INT_MSK", "CTL_INT_CLR", "CTL_INT_STS"),
            "adreno": ("RBBM_INT_0_MASK", "RBBM_INT_CLEAR_CMD",
                       "RBBM_INT_0_STATUS")}


def booted(family, seed=41, fast_path=True, obs=False):
    machine = fresh_replay_machine(family, seed=seed)
    if obs:
        enable_observability(machine)
    replayer = Replayer(machine, fast_path=fast_path)
    replayer.init()
    replayer.load(get_recorded(family, "mnist")[0].recording)
    return replayer


def all_within_32_bits(regs):
    return all(0 <= value <= U32_MASK for value in regs.values.values())


@pytest.mark.parametrize("family", IRQ_REGS)
def test_masked_register_writes_keep_32_bits(family):
    replayer = booted(family)
    nano, gpu = replayer.nano, replayer.machine.gpu
    values = gpu.regs.values
    mask, clear, status = IRQ_REGS[family]
    nano.reg_write(mask, 0xFFFF_FFFF)
    nano.reg_write(mask, 0xAB_1234_5678, mask=0xFFFF_0000)
    assert values[mask] == 0x1234_FFFF
    # A replay makes the device assert and the recording clear its
    # interrupt bits through the device's own stores.
    replayer.replay(inputs=seeded_inputs(replayer.current, 3))
    assert all_within_32_bits(gpu.regs)
    nano.reg_write(clear, 0xFF_FFFF_FFFF_FFFF)   # write-only: no mask
    assert values[status] == 0
    nano.flush_and_reset()
    replayer.machine.clock.advance(1_000_000)
    assert all_within_32_bits(gpu.regs)


def preempted_at(fast_path, how):
    """Abort a mali/mnist replay 1 ms (virtual) in, by ``how``; the
    action index it stopped at."""
    clear_load_cache()
    replayer = booted("mali", seed=42, fast_path=fast_path)
    fired = []

    def one_ms_in():
        fired.append(True)
        if how == "request":
            replayer.nano.preempt_requested = True
    replayer.machine.clock.schedule(1_000_000, one_ms_in)
    should_yield = (lambda: bool(fired)) if how == "caller" else None
    with pytest.raises(ReplayAborted) as info:
        replayer.replay(inputs=seeded_inputs(replayer.current, 3),
                        should_yield=should_yield)
    assert replayer.nano.preempt_requested == (how == "request")
    replayer.handoff()
    result = replayer.resume_after_preemption()
    assert not replayer.nano.preempt_requested
    return info.value.action_index, result


def test_preemption_stops_both_executors_at_one_index():
    """``nano.preempt_requested`` set from a clock event, and a caller's
    ``should_yield`` that turns true at the same instant, abort at the
    same action on the compiled and the reference executor; the resumed
    replays answer alike."""
    runs = {(fast_path, how): preempted_at(fast_path, how)
            for fast_path in (True, False)
            for how in ("request", "caller")}
    indexes = {index for index, _result in runs.values()}
    assert len(indexes) == 1
    index = indexes.pop()
    assert 0 < index < len(get_recorded("mali", "mnist")[0]
                           .recording.actions)
    answers = {result.output.tobytes() for _index, result in runs.values()}
    assert len(answers) == 1


@pytest.mark.parametrize("family", IRQ_REGS)
def test_flight_and_counter_tape_do_not_see_obs(family):
    """A live obs session and the null one leave the same flight ring
    (every event, in order, at the same virtual times) and the same
    counter tape."""
    seen = []
    for obs in (False, True):
        clear_load_cache()
        replayer = booted(family, seed=43, obs=obs)
        machine = replayer.machine
        tape = machine.flight.start_capture()
        results = [replayer.replay(inputs=seeded_inputs(replayer.current,
                                                        k))
                   for k in range(3)]
        seen.append((list(tape), machine.flight.window(),
                     machine.gpu.counters.snapshot(),
                     [(r.duration_ns, r.stats) for r in results]))
    assert seen[0] == seen[1]
