"""Compiled replay programs: the one executor the deployable loads.

The reference interpreter (:mod:`repro.core.interpreter`) walks the
action list with an ``isinstance`` chain, resolves register names
through the nano driver's map on every access, and looks pacing
intervals up per action -- on *every* replay, the opposite of the
steady-state serve regime (same recording, new inputs, many times).
This module does not import it; they share the executor contract in
:mod:`repro.core.actions`.

``compile_program`` lowers a *verified* recording once: each action
becomes a spec tuple with its register name pre-resolved to an
absolute MMIO address and its dump named by index; pacing becomes a
flat array of minimum intervals. A :class:`CompiledProgram` holds no
machine and no recording bytes, so the replayer's load cache shares
it between replayers; :meth:`CompiledProgram.bind` attaches it to one
nano driver and the staged recording's dumps as one closure per
action, run by the single loop in
:meth:`CompiledExecutor.execute`.

That loop serves two batch widths. The replayer's *input* picks
between them; no option does:

- ``Replayer.replay(inputs)`` is width 1 and must be *observably
  identical* to the reference interpreter: same outputs, same
  :class:`InterpreterStats`, same flight events at the same virtual
  times; only host time differs.
  ``tests/core/test_compiled_fastpath.py`` holds this line and
  ``grr doctor --vs-reference`` rests on it.
- ``Replayer.replay_mega([inputs, ...])`` arms a batch overlay on the
  GPU, and the loop runs register-write runs as superblocks while it
  is armed. What exists only for that width is :mod:`repro.core.mega`,
  which a width-1 replay never loads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core import actions as act
from repro.core.actions import (ACTION_OVERHEAD_NS, IMPLICIT_IRQ_TIMEOUT_NS,
                                InterpreterOptions, InterpreterStats)
from repro.core.dumps import MemoryDump
from repro.core.nano_driver import NanoGpuDriver
from repro.core.recording import Recording
from repro.errors import (ReplayAborted, ReplayDivergence, ReplayError,
                          ReplayTimeout)

if TYPE_CHECKING:
    from repro.core.mega import Superblock


class CompiledProgram:
    """A verified recording lowered for fast repeated replay.

    Holds no reference to a specific machine or recording;
    ``board_key`` records the (family, mmio_base) the register
    addresses were resolved against, and :meth:`bind` refuses a
    mismatched nano driver.
    """

    def __init__(self, specs: List[Tuple], srcs: List[str],
                 kicks: List[bool], intervals: List[int],
                 board_key: Tuple[str, int], prologue_len: int):
        self.specs = specs
        self.srcs = srcs
        #: Per action: is it a job-kick write? (The executor's one
        #: post-dispatch test, replacing the interpreter's
        #: ``isinstance``.)
        self.kicks = kicks
        self.intervals = intervals
        self.board_key = board_key
        self.prologue_len = prologue_len
        #: The map / unmap actions in order: ``(va, pages or None)``.
        self.map_effects = [
            (spec[1], spec[2] if spec[0] == _MAP else None)
            for spec in specs if spec[0] in (_MAP, _UNMAP)]
        self._superblocks: Optional[Dict[int, "Superblock"]] = None

    def __len__(self) -> int:
        return len(self.specs)

    def superblocks(self) -> Dict[int, "Superblock"]:
        """Superblock index, read while a batch overlay is armed
        (lazy, cached; purely derived data)."""
        if self._superblocks is None:
            from repro.core.mega import compile_superblocks
            self._superblocks = compile_superblocks(self)
        return self._superblocks

    def bind(self, nano: NanoGpuDriver,
             dumps: List[MemoryDump]) -> "CompiledExecutor":
        if (nano.family, nano.mmio_base) != self.board_key:
            raise ReplayError(
                f"compiled program targets {self.board_key}, nano "
                f"driver is ({nano.family!r}, {nano.mmio_base:#x})")
        return CompiledExecutor(self, nano, dumps)


# Spec kinds (first element of each spec tuple).
_REG_WRITE = 0
_REG_READ_ONCE = 1
_REG_READ_WAIT = 2
_SET_PGTABLE = 3
_MAP = 4
_UNMAP = 5
_UPLOAD = 6
_WAIT_IRQ = 7
_IRQ_ENTER = 8
_IRQ_EXIT = 9
_FAIL = 10

#: Kinds that are one nano-driver call on the spec's operands.
_PLAIN_CALLS = {_SET_PGTABLE: "set_gpu_pgtable", _MAP: "map_gpu_mem",
                _UNMAP: "unmap_gpu_mem", _IRQ_EXIT: "exit_irq_context"}


def compile_program(recording: Recording,
                    nano: NanoGpuDriver) -> CompiledProgram:
    """Lower ``recording`` against ``nano``'s board configuration.

    Must only be called after :func:`~repro.core.verifier.
    verify_recording` accepted the recording: compilation resolves
    every register name eagerly and assumes dump indices are in range.
    """
    actions = recording.actions
    specs: List[Tuple] = []
    for action in actions:
        if isinstance(action, act.RegWrite):
            specs.append((_REG_WRITE, nano.resolve(action.reg),
                          action.val, action.mask))
        elif isinstance(action, act.RegReadOnce):
            specs.append((_REG_READ_ONCE, nano.resolve(action.reg),
                          action.val, action.ignore, action.reg))
        elif isinstance(action, act.RegReadWait):
            specs.append((_REG_READ_WAIT, nano.resolve(action.reg),
                          action.mask, action.val, action.timeout_ns,
                          action.reg))
        elif isinstance(action, act.SetGpuPgtable):
            specs.append((_SET_PGTABLE, action.memattr))
        elif isinstance(action, act.MapGpuMem):
            specs.append((_MAP, action.addr, action.num_pages,
                          action.raw_pte_flags))
        elif isinstance(action, act.UnmapGpuMem):
            specs.append((_UNMAP, action.addr, action.num_pages))
        elif isinstance(action, act.Upload):
            specs.append((_UPLOAD, action.addr, action.dump_index))
        elif isinstance(action, act.WaitIrq):
            specs.append((_WAIT_IRQ, action.timeout_ns))
        elif isinstance(action, act.IrqEnter):
            specs.append((_IRQ_ENTER,))
        elif isinstance(action, act.IrqExit):
            specs.append((_IRQ_EXIT,))
        elif isinstance(action, (act.CopyToGpu, act.CopyFromGpu)):
            specs.append((_FAIL, f"{type(action).__name__} actions are "
                          "synthesized by the replayer"))
        else:
            specs.append((_FAIL, f"unknown action {type(action).__name__}"))

    return CompiledProgram(
        specs, [action.src for action in actions],
        [isinstance(action, act.RegWrite) and action.is_job_kick
         for action in actions],
        [action.min_interval_ns for action in actions],
        (nano.family, nano.mmio_base), recording.meta.prologue_len)


class CompiledExecutor:
    """A compiled program bound to one nano driver.

    Reusable across replays: ``execute`` resets per-run state. The
    per-action closures are built once at bind time and capture the
    nano driver's bound methods, so the hot loop does no name
    resolution and no ``isinstance`` dispatch. The executor emits
    nothing but the nano driver's flight events: the flight tape is
    the replay's one per-chokepoint stream (DESIGN.md "Flight recorder
    and the replay doctor").
    """

    def __init__(self, program: CompiledProgram, nano: NanoGpuDriver,
                 dumps: List[MemoryDump]):
        self.program = program
        self.nano = nano
        self.dumps = dumps
        self.stats = InterpreterStats()
        #: ``stats``, boxed for the steps: none closes over the executor.
        self._box = [self.stats]
        #: ``(length, virtual ns)`` of each superblock the most recent
        #: ``execute`` ran (empty at width 1).
        self.superblocks_run: List[Tuple[int, int]] = []
        self._flight = nano.flight
        self._steps: List[Callable[[int], None]] = [
            self._build_step(i) for i in range(len(program))]

    # -- closure factory ----------------------------------------------------

    def _build_step(self, index: int) -> Callable[[int], None]:
        spec = self.program.specs[index]
        src = self.program.srcs[index]
        kind = spec[0]
        nano = self.nano
        box = self._box

        if kind == _REG_WRITE:
            _, addr, val, mask = spec

            def step(i, _w=nano.reg_write_at, _a=addr, _v=val, _m=mask):
                _w(_a, _v, _m)
            return step

        if kind == _REG_READ_ONCE:
            _, addr, val, ignore, reg = spec
            read_at = nano.reg_read_at

            def step(i):
                value = read_at(addr)
                if not ignore and value != val:
                    raise ReplayDivergence(
                        f"register {reg} read {value:#x}, recorded "
                        f"{val:#x}", i, src)
            return step

        if kind == _REG_READ_WAIT:
            _, addr, mask, val, timeout_ns, reg = spec
            poll_at = nano.reg_poll_at

            def step(i):
                if not poll_at(addr, mask, val, timeout_ns):
                    raise ReplayTimeout(
                        f"poll of {reg} (mask {mask:#x}, want "
                        f"{val:#x}) timed out", i, src)
            return step

        if kind in _PLAIN_CALLS:
            call = getattr(nano, _PLAIN_CALLS[kind])
            operands = spec[1:]

            def step(i):
                call(*operands)
            return step

        if kind == _UPLOAD:
            _, addr, dump_index = spec
            dump = self.dumps[dump_index]
            size = dump.size
            upload = nano.upload
            clock = nano.clock

            def step(i):
                t0 = clock.now_ns
                uploaded = upload(addr, dump)
                stats = box[0]
                stats.upload_ns += clock.now_ns - t0
                stats.upload_bytes += uploaded
                skipped = size - uploaded
                if skipped:
                    stats.upload_skipped_bytes += skipped
            return step

        if kind == _WAIT_IRQ:
            _, timeout_ns = spec

            def step(i):
                box[0].irqs_waited += 1
                if not _timed_wait_irq(nano, box[0], timeout_ns):
                    raise ReplayTimeout(
                        "no GPU interrupt arrived in time", i, src)
            return step

        if kind == _IRQ_ENTER:
            enter = nano.enter_irq_context

            def step(i):
                # Record-time interrupt preempted the CPU; replay
                # synchronizes on its arrival here instead.
                if nano.pending_irqs == 0 and not _timed_wait_irq(
                        nano, box[0], IMPLICIT_IRQ_TIMEOUT_NS):
                    raise ReplayTimeout(
                        "no GPU interrupt for asynchronous irq "
                        "context", i, src)
                enter()
            return step

        _, message = spec       # _FAIL

        def step(i):
            raise ReplayError(message, i, src)
        return step

    # -- execution ----------------------------------------------------------

    def execute(self, options: Optional[InterpreterOptions] = None,
                deposit_inputs: Optional[Callable[[], None]] = None,
                should_yield: Optional[Callable[[], bool]] = None
                ) -> InterpreterStats:
        """Run the program; semantics mirror ``ReplayInterpreter``.

        ``options.use_recorded_intervals`` is not supported here -- the
        replayer routes that (and checkpointing) to the reference
        interpreter. While the caller has a batch overlay armed on the
        GPU (``gpu.mega_batch``; the caller owns arming and clearing
        it), register-write runs execute as superblocks, which pace
        per run instead of per action (:class:`~repro.core.mega.
        Superblock`) and
        take no injected delay: a fused pass has no retry ladder.
        """
        options = options or InterpreterOptions()
        if options.use_recorded_intervals:
            raise ReplayError(
                "compiled programs pace with minimum intervals; use "
                "the reference interpreter for recorded intervals")
        stats = self.stats = self._box[0] = InterpreterStats()
        self.superblocks_run = []
        nano = self.nano
        clock = nano.clock
        clock_advance = clock.advance
        steps = self._steps
        srcs = self.program.srcs
        kicks = self.program.kicks
        intervals = self.program.intervals
        prologue_len = self.program.prologue_len
        extra_delay = options.extra_delay_ns
        delay_range = options.extra_delay_range

        # Width 1 keeps the reference interpreter's per-action pacing
        # (an empty table); an armed overlay selects the superblocks.
        superblocks: Dict[int, Superblock] = {}
        if nano.machine.gpu.mega_batch is not None:
            superblocks = self.program.superblocks()

        flight = self._flight
        flight_record = flight.record
        on_kick = self._on_kick

        # Loop-local accumulators, written back in ``finally`` so a
        # divergence mid-stream leaves stats as the reference path
        # would.
        executed = 0
        pacing_total = 0
        last_end = clock.now_ns
        index, n = 0, len(steps)
        try:
            while index < n:
                flight.action_index = index
                if nano.preempt_requested or (should_yield is not None
                                              and should_yield()):
                    raise ReplayAborted("preempted by the environment",
                                        index, srcs[index])

                if index in superblocks:
                    block = superblocks[index]
                    # One dispatch and pacing for the RegWrite run: it
                    # takes max(sum of member intervals, overhead +
                    # length * MMIO cost) from its start.
                    sb_t0 = clock.now_ns
                    target_end = last_end + block.pacing_ns
                    clock_advance(ACTION_OVERHEAD_NS)
                    for i in range(block.start, block.end):
                        flight.action_index = i
                        steps[i](i)
                        executed += 1
                        if kicks[i]:
                            on_kick()
                    now = clock.now_ns
                    if target_end > now:
                        wait = target_end - now
                        pacing_total += wait
                        flight_record(now, "Pacing", (wait,))
                        clock_advance(wait)
                    self.superblocks_run.append(
                        (block.length, clock.now_ns - sb_t0))
                    last_end = clock.now_ns
                    index = block.end
                    continue

                interval = intervals[index]
                if extra_delay and (delay_range is None or
                                    delay_range[0] <= index
                                    < delay_range[1]):
                    interval += extra_delay
                target = last_end + interval
                now = clock.now_ns
                if target > now:
                    # Pacing wait and dispatch overhead are one clock
                    # advance; events still fire at their due times, so
                    # this is invisible in virtual time.
                    wait = target - now
                    pacing_total += wait
                    flight_record(now, "Pacing", (wait,))
                    clock_advance(wait + ACTION_OVERHEAD_NS)
                else:
                    clock_advance(ACTION_OVERHEAD_NS)

                steps[index](index)
                executed += 1
                if kicks[index]:
                    on_kick()
                last_end = clock.now_ns

                if deposit_inputs is not None and \
                        index == prologue_len - 1:
                    flight.action_index = -1
                    deposit_inputs()
                    deposit_inputs = None
                    last_end = clock.now_ns
                index += 1
        finally:
            # Whatever runs next (input deposit, output copy, a
            # recovery reset, the next request) is no action's event.
            flight.action_index = -1
            stats.actions_executed += executed
            stats.pacing_wait_ns += pacing_total

        if deposit_inputs is not None:
            # Degenerate recording with no prologue: deposit up front.
            deposit_inputs()
        return stats

    def _on_kick(self) -> None:
        """Job bookkeeping after a kick write."""
        stats = self.stats
        now = self.nano.clock.now_ns
        if stats.first_kick_at_ns < 0:
            stats.first_kick_at_ns = now
        stats.jobs_kicked += 1
        self._flight.record(now, "JobKick", (stats.jobs_kicked - 1,))


def _timed_wait_irq(nano: NanoGpuDriver, stats: InterpreterStats,
                    timeout_ns: int) -> bool:
    """Block on a GPU interrupt, charging the wait to ``stats``."""
    t0 = nano.clock.now_ns
    ok = nano.wait_irq(timeout_ns)
    stats.irq_wait_ns += nano.clock.now_ns - t0
    return ok
