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
absolute MMIO address and its dump looked up (not hashed: residency
goes by identity first); pacing becomes a flat array of minimum
intervals. A :class:`CompiledProgram`
is machine-independent data bound to a board configuration, so the
replayer's load cache shares it between replayers;
:meth:`CompiledProgram.bind` attaches it to one nano driver as one
closure per action, run by the single loop in
:meth:`CompiledExecutor.execute`.

That loop serves two batch widths. The replayer's *input* picks
between them; no option does:

- ``Replayer.replay(inputs)`` is width 1 and must be *observably
  identical* to the reference interpreter: same outputs, same
  :class:`InterpreterStats`, same chokepoint/trace events at the same
  virtual times; only host time differs.
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
from repro.core.nano_driver import NanoGpuDriver
from repro.core.recording import Recording
from repro.errors import (ReplayAborted, ReplayDivergence, ReplayError,
                          ReplayTimeout)
from repro.units import LATENCY_BUCKETS_NS

if TYPE_CHECKING:
    from repro.core.mega import Superblock

#: Per-action flags checked in the executor's main loop (cheap integer
#: tests replacing the interpreter's post-dispatch ``isinstance``).
FLAG_KICK = 1
FLAG_IRQ_EXIT = 2


class CompiledProgram:
    """A verified recording lowered for fast repeated replay.

    Holds no reference to a specific machine; ``board_key`` records
    the (family, mmio_base) the register addresses were resolved
    against, and :meth:`bind` refuses a mismatched nano driver.
    """

    def __init__(self, recording: Recording,
                 specs: List[Tuple], names: List[str],
                 srcs: List[str], flags: List[int],
                 intervals: List[int],
                 board_key: Tuple[str, int]):
        self.recording = recording
        self.specs = specs
        self.names = names
        self.srcs = srcs
        self.flags = flags
        self.intervals = intervals
        self.board_key = board_key
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

    def bind(self, nano: NanoGpuDriver) -> "CompiledExecutor":
        if (nano.family, nano.mmio_base) != self.board_key:
            raise ReplayError(
                f"compiled program targets {self.board_key}, nano "
                f"driver is ({nano.family!r}, {nano.mmio_base:#x})")
        return CompiledExecutor(self, nano)


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
_SYNTH_COPY = 10
_UNKNOWN = 11

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
    specs: List[Tuple] = []
    names: List[str] = []
    srcs: List[str] = []
    flags: List[int] = []
    intervals: List[int] = []

    for action in recording.actions:
        names.append(type(action).__name__)
        srcs.append(action.src)
        intervals.append(action.min_interval_ns)
        flag = 0
        if isinstance(action, act.RegWrite):
            if action.is_job_kick:
                flag |= FLAG_KICK
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
            specs.append((_UPLOAD, action.addr,
                          recording.dumps[action.dump_index]))
        elif isinstance(action, act.WaitIrq):
            specs.append((_WAIT_IRQ, action.timeout_ns))
        elif isinstance(action, act.IrqEnter):
            specs.append((_IRQ_ENTER,))
        elif isinstance(action, act.IrqExit):
            flag |= FLAG_IRQ_EXIT
            specs.append((_IRQ_EXIT,))
        elif isinstance(action, (act.CopyToGpu, act.CopyFromGpu)):
            specs.append((_SYNTH_COPY, type(action).__name__))
        else:
            specs.append((_UNKNOWN, type(action).__name__))
        flags.append(flag)

    return CompiledProgram(recording, specs, names, srcs, flags,
                           intervals, (nano.family, nano.mmio_base))


class CompiledExecutor:
    """A compiled program bound to one nano driver and obs session.

    Reusable across replays: ``execute`` resets per-run state. The
    per-action closures are built once at bind time and capture the
    nano driver's bound methods plus pre-created obs counters, so the
    hot loop does no name resolution, no ``isinstance`` dispatch and
    no metric-registry lookups.
    """

    def __init__(self, program: CompiledProgram, nano: NanoGpuDriver):
        self.program = program
        self.nano = nano
        self.obs = nano.machine.obs
        self.stats = InterpreterStats()
        #: Superblocks the most recent ``execute`` ran (0 at width 1).
        self.superblocks_run = 0
        self._actions_track = self.obs.track("replay", "actions")
        self._jobs_track = self.obs.track("replay", "jobs")
        self._job_span = None
        self._flight = nano.flight
        # With observability off every counter is a null object; the
        # closures and the loop make metric calls only when a session
        # is attached. (The executor is re-bound when the machine's
        # obs session changes.)
        self._live = self.obs.enabled
        #: (counter, histogram) of interrupt waits; None when not live
        #: or when the program never waits.
        self._irq_metrics = None
        if self._live and any(spec[0] in (_WAIT_IRQ, _IRQ_ENTER)
                              for spec in program.specs):
            self._irq_metrics = (
                self.obs.counter("replay.irq_waits"),
                self.obs.histogram("replay.irq_wait_ns",
                                   LATENCY_BUCKETS_NS))
        self._steps: List[Callable[[int], None]] = [
            self._build_step(i) for i in range(len(program))]

    # -- closure factory ----------------------------------------------------

    def _build_step(self, index: int) -> Callable[[int], None]:
        spec = self.program.specs[index]
        src = self.program.srcs[index]
        kind = spec[0]
        nano = self.nano
        # One closure per action kind. A metric the closure feeds is
        # None when no session is attached, and the closure tests for
        # that, so obs-off replays make no metric calls at all.
        obs = self.obs
        live = self._live

        if kind == _REG_WRITE:
            _, addr, val, mask = spec

            def step(i, _w=nano.reg_write_at,
                     _c=obs.counter("replay.reg_writes") if live else None,
                     _a=addr, _v=val, _m=mask):
                if _c is not None:
                    _c.inc()
                _w(_a, _v, _m)
            return step

        if kind == _REG_READ_ONCE:
            _, addr, val, ignore, reg = spec
            read_at = nano.reg_read_at
            ctr = obs.counter("replay.reg_reads") if live else None

            def step(i):
                if ctr is not None:
                    ctr.inc()
                value = read_at(addr)
                if not ignore and value != val:
                    raise ReplayDivergence(
                        f"register {reg} read {value:#x}, recorded "
                        f"{val:#x}", i, src)
            return step

        if kind == _REG_READ_WAIT:
            _, addr, mask, val, timeout_ns, reg = spec
            poll_at = nano.reg_poll_at
            ctr = obs.counter("replay.reg_polls") if live else None

            def step(i):
                if ctr is not None:
                    ctr.inc()
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
            _, addr, dump = spec
            size = dump.size
            upload = nano.upload
            clock = nano.clock
            ctrs = (obs.counter("replay.uploads"),
                    obs.counter("replay.upload_bytes"),
                    obs.counter("replay.upload_skipped_bytes")
                    ) if live else None

            def step(i):
                t0 = clock.now()
                uploaded = upload(addr, dump)
                stats = self.stats
                stats.upload_ns += clock.now() - t0
                stats.upload_bytes += uploaded
                skipped = size - uploaded
                if skipped:
                    stats.upload_skipped_bytes += skipped
                if ctrs is not None:
                    uploads_ctr, bytes_ctr, skip_ctr = ctrs
                    uploads_ctr.inc()
                    bytes_ctr.inc(uploaded)
                    if skipped:
                        skip_ctr.inc(skipped)
            return step

        if kind == _WAIT_IRQ:
            _, timeout_ns = spec

            def step(i):
                self.stats.irqs_waited += 1
                if not self._timed_wait_irq(timeout_ns):
                    raise ReplayTimeout(
                        "no GPU interrupt arrived in time", i, src)
            return step

        if kind == _IRQ_ENTER:
            enter = nano.enter_irq_context

            def step(i):
                # Record-time interrupt preempted the CPU; replay
                # synchronizes on its arrival here instead.
                if nano.pending_irqs == 0 and \
                        not self._timed_wait_irq(IMPLICIT_IRQ_TIMEOUT_NS):
                    raise ReplayTimeout(
                        "no GPU interrupt for asynchronous irq "
                        "context", i, src)
                enter()
            return step

        if kind == _SYNTH_COPY:
            _, type_name = spec

            def step(i):
                raise ReplayError(
                    f"{type_name} actions are synthesized by the "
                    "replayer", i, src)
            return step

        _, type_name = spec

        def step(i):
            raise ReplayError(f"unknown action {type_name}", i, src)
        return step

    def _timed_wait_irq(self, timeout_ns: int) -> bool:
        """Block on a GPU interrupt, charging the wait to the stats."""
        metrics = self._irq_metrics
        if metrics is not None:
            metrics[0].inc()
        clock = self.nano.clock
        t0 = clock.now()
        ok = self.nano.wait_irq(timeout_ns)
        waited = clock.now() - t0
        self.stats.irq_wait_ns += waited
        if metrics is not None:
            metrics[1].observe(waited)
        return ok

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
        self.stats = InterpreterStats()
        self._job_span = None
        self.superblocks_run = 0
        stats = self.stats
        obs = self.obs
        emit = self._live
        clock = self.nano.clock
        clock_now = clock.now
        clock_advance = clock.advance
        steps = self._steps
        names = self.program.names
        srcs = self.program.srcs
        flags = self.program.flags
        intervals = self.program.intervals
        prologue_len = self.program.recording.meta.prologue_len
        actions_ctr = obs.counter("replay.actions")
        pacing_ctr = obs.counter("replay.pacing_wait_ns")
        actions_track = self._actions_track
        extra_delay = options.extra_delay_ns
        delay_range = options.extra_delay_range

        # Width 1 keeps the reference interpreter's per-action pacing
        # (an empty table); an armed overlay selects the superblocks.
        superblocks: Dict[int, Superblock] = {}
        if self.nano.machine.gpu.mega_batch is not None:
            superblocks = self.program.superblocks()
            sb_ctr = obs.counter("replay.superblocks")
            sb_actions_ctr = obs.counter("replay.superblock.actions")
            sb_hist = obs.histogram("replay.superblock.span_ns",
                                    LATENCY_BUCKETS_NS)

        flight = self._flight
        flight_record = flight.record
        on_flag = self._on_flag

        # Loop-local accumulators, written back in ``finally`` so a
        # divergence mid-stream leaves stats as the reference path
        # would.
        executed = 0
        pacing_total = 0
        last_end = clock_now()
        index, n = 0, len(steps)
        try:
            while index < n:
                flight.action_index = index
                if should_yield is not None and should_yield():
                    raise ReplayAborted("preempted by the environment",
                                        index, srcs[index])

                if index in superblocks:
                    block = superblocks[index]
                    # One dispatch + one pacing computation for the
                    # whole RegWrite run: the block occupies
                    # max(sum of member intervals, overhead + length *
                    # MMIO cost) of virtual time from its start.
                    sb_t0 = clock_now()
                    target_end = last_end + block.pacing_ns
                    clock_advance(ACTION_OVERHEAD_NS)
                    for i in range(block.start, block.end):
                        flight.action_index = i
                        steps[i](i)
                        executed += 1
                        if flags[i]:
                            on_flag(flags[i], i)
                    now = clock_now()
                    if target_end > now:
                        wait = target_end - now
                        pacing_total += wait
                        if emit:
                            pacing_ctr.inc(wait)
                        flight_record(now, "Pacing", (wait,))
                        clock_advance(wait)
                    self.superblocks_run += 1
                    if emit:
                        actions_ctr.inc(block.length)
                        sb_ctr.inc()
                        sb_actions_ctr.inc(block.length)
                        sb_hist.observe(clock_now() - sb_t0)
                        obs.complete(
                            f"superblock[{block.start}:{block.end}]",
                            actions_track, sb_t0, clock_now(),
                            cat="replay-superblock",
                            args={"start": block.start,
                                  "len": block.length,
                                  "pacing_ns": block.pacing_ns})
                    last_end = clock_now()
                    index = block.end
                    continue

                interval = intervals[index]
                if extra_delay and (delay_range is None or
                                    delay_range[0] <= index
                                    < delay_range[1]):
                    interval += extra_delay
                target = last_end + interval
                now = clock_now()
                if target > now:
                    # Pacing wait and dispatch overhead are one clock
                    # advance; events still fire at their due times, so
                    # this is invisible in virtual time.
                    wait = target - now
                    pacing_total += wait
                    if emit:
                        pacing_ctr.inc(wait)
                    flight_record(now, "Pacing", (wait,))
                    t_start = target
                    clock_advance(wait + ACTION_OVERHEAD_NS)
                else:
                    t_start = now
                    clock_advance(ACTION_OVERHEAD_NS)

                steps[index](index)
                executed += 1
                if emit:
                    actions_ctr.inc()
                    obs.complete(names[index], actions_track, t_start,
                                 clock_now(), cat="replay-action",
                                 args={"index": index,
                                       "src": srcs[index]})
                if flags[index]:
                    on_flag(flags[index], index)
                last_end = clock_now()

                if deposit_inputs is not None and \
                        index == prologue_len - 1:
                    deposit_inputs()
                    deposit_inputs = None
                    last_end = clock_now()
                index += 1
        except BaseException:
            # Mirror the reference interpreter's span hygiene: a
            # failed replay must not leak an open job span.
            if self._job_span is not None:
                obs.end(self._job_span)
                self._job_span = None
            raise
        finally:
            stats.actions_executed += executed
            stats.pacing_wait_ns += pacing_total

        if deposit_inputs is not None:
            # Degenerate recording with no prologue: deposit up front.
            deposit_inputs()
        return stats

    def _on_flag(self, flag: int, index: int) -> None:
        """Job bookkeeping after a kick write or an IrqExit."""
        stats = self.stats
        obs = self.obs
        if flag & FLAG_KICK:
            now = self.nano.clock.now()
            if stats.first_kick_at_ns < 0:
                stats.first_kick_at_ns = now
            stats.jobs_kicked += 1
            self._flight.record(now, "JobKick", (stats.jobs_kicked - 1,))
            if self._job_span is not None:
                obs.end(self._job_span)
            self._job_span = obs.begin(
                f"job[{stats.jobs_kicked - 1}]", self._jobs_track,
                cat="replay-job", args={"index": index})
        if flag & FLAG_IRQ_EXIT:
            if self._job_span is not None:
                obs.end(self._job_span)
                self._job_span = None
