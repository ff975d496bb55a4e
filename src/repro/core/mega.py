"""The fused-batch half of the compiled executor.

``Replayer.replay_mega([inputs, ...])`` arms a
:class:`~repro.gpu.shader_batch.BatchEnv` on the GPU: the chain runs
once through the one action loop in :meth:`~repro.core.compiled.
CompiledExecutor.execute`, member 0 through GPU memory like a solo
replay, members 1..N-1 in the overlay the batched shader executor
evaluates. While an overlay is armed -- and only then, because they
shorten virtual time -- register-write runs execute as
:class:`Superblock` bulk applications. What the batch dimension cannot
represent raises :class:`~repro.errors.MegaBatchDivergence`; callers
fall back to per-request replay.

A width-1 replay needs none of this, so nothing in the deployable's
closure imports it: ``Replayer.replay_mega`` and
``CompiledProgram.superblocks`` load it on first use, and
:mod:`repro.serve` -- the caller that fuses -- at its own import, off
the serving timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.actions import InterpreterStats
from repro.core.compiled import _REG_WRITE, CompiledProgram
from repro.core.nano_driver import UPLOAD_BW
from repro.core.recording import Recording
from repro.errors import MegaBatchDivergence, ReplayAborted, ReplayError
from repro.gpu.shader_batch import BatchEnv
from repro.units import LATENCY_BUCKETS_NS, SEC


@dataclass(frozen=True)
class Superblock:
    """A run of consecutive RegWrite actions fused into one dispatch.

    The executor pays one dispatch overhead and one pacing
    computation for the whole run instead of one per action: the block
    occupies ``max(pacing_ns, ACTION_OVERHEAD_NS + length *
    MMIO_ACCESS_NS)`` of virtual time from its start, where
    ``pacing_ns`` is the sum of the members' minimum intervals.
    """

    start: int
    end: int          # half-open [start, end)
    pacing_ns: int    # sum of member minimum pacing intervals

    @property
    def length(self) -> int:
        return self.end - self.start


def compile_superblocks(program: CompiledProgram) -> Dict[int, Superblock]:
    """Index maximal RegWrite runs (length >= 2) by their start action.

    The action right before the input-deposit point
    (``prologue_len - 1``) is never fused: deposits must still fire
    between that action and the next, exactly as in the unfused path.
    """
    blocks: Dict[int, Superblock] = {}
    barrier = program.prologue_len - 1
    specs = program.specs
    intervals = program.intervals
    i, n = 0, len(specs)
    while i < n:
        if specs[i][0] != _REG_WRITE or i == barrier:
            i += 1
            continue
        j = i
        while j < n and specs[j][0] == _REG_WRITE and j != barrier:
            j += 1
        if j - i >= 2:
            blocks[i] = Superblock(i, j, sum(intervals[i:j]))
        i = j
    return blocks


@dataclass
class MegaReplayResult:
    """Outcome of one fused mega-batch replay of N member requests."""

    #: Per-member output dicts; index 0 is the head request, whose
    #: replay also defines the post-replay machine state.
    outputs: List[Dict[str, np.ndarray]]
    duration_ns: int
    stats: InterpreterStats
    #: How many members the fused pass served.
    batch: int
    #: Superblocks executed (fused RegWrite runs).
    superblocks: int = 0
    startup_ns: int = 0
    #: A fused pass runs once; there is no internal retry ladder.
    attempts: int = 1


def replay_mega(replayer,
                inputs_list: Sequence[Optional[Dict[str, np.ndarray]]],
                should_yield: Optional[Callable[[], bool]] = None
                ) -> MegaReplayResult:
    """Replay the staged recording for N inputs in one fused pass.

    The action chain executes once (member 0 flows through GPU
    memory exactly like :meth:`Replayer.replay`, so post-replay machine
    state equals a solo replay of the head request); members
    1..N-1 live in a batch overlay evaluated by the batched shader
    executor. Output tensors absent from the overlay were produced
    batch-independently -- no input-dependent data flowed into
    them, so member 0's bytes are correct for every member.

    No internal retry ladder: a :class:`ReplayError` (including
    :class:`MegaBatchDivergence`) propagates so callers can fall
    back to per-request replay, which handles arbitrary aliasing
    and recovery. A call rejected before the pass starts leaves the
    replayer as it was.
    """
    recording = replayer._require_loaded()
    executor = replayer._fast_executor(False)
    if executor is None:
        raise ReplayError(
            "mega-batch replay requires the compiled fast path")
    if not inputs_list:
        raise ReplayError("empty mega-batch")
    obs = replayer.machine.obs
    members = [dict(m or {}) for m in inputs_list]
    if len({frozenset(m) for m in members}) > 1:
        obs.counter("replay.mega.diverged").inc()
        raise MegaBatchDivergence(
            "mega-batch members provide different input sets")
    for member in members:
        replayer._check_inputs(recording, member)
    replayer._last_inputs = members[0]
    n = len(members)

    t_start = replayer.machine.clock.now()
    span = obs.begin(
        f"replayer:replay-mega:{recording.meta.workload}",
        obs.track("replay", "session"), cat="replay", args={"batch": n})
    obs.counter("replay.attempts").inc()
    obs.counter("replay.mega.batches").inc()
    obs.counter("replay.mega.requests").inc(n)
    env = BatchEnv(n)
    gpu = replayer.machine.gpu
    gpu.counters.begin_session(recording.digest())

    def run() -> InterpreterStats:
        gpu.mega_batch = env
        try:
            return executor.execute(
                deposit_inputs=lambda: _deposit_mega(
                    replayer, recording, members, env),
                should_yield=should_yield)
        finally:
            gpu.mega_batch = None

    try:
        stats, outputs = replayer._attempt(
            span, 1, executor, run,
            lambda rec: _extract_mega(replayer, rec, env))
    except ReplayAborted:
        raise
    except ReplayError:
        obs.counter("replay.mega.diverged").inc()
        replayer._end_span(span, failed=True)
        raise
    finally:
        # (length, virtual ns) of each superblock the pass ran.
        blocks = executor.superblocks_run
        obs.counter("replay.superblocks").inc(len(blocks))
        actions = obs.counter("replay.superblock.actions")
        span_ns = obs.histogram("replay.superblock.span_ns",
                                LATENCY_BUCKETS_NS)
        for length, block_ns in blocks:
            actions.inc(length)
            span_ns.observe(block_ns)
    superblocks = len(executor.superblocks_run)
    replayer._end_span(span, batch=n, superblocks=superblocks)
    return MegaReplayResult(
        outputs=outputs,
        duration_ns=replayer.machine.clock.now() - t_start,
        stats=stats,
        batch=n,
        superblocks=superblocks,
        startup_ns=(stats.first_kick_at_ns - t_start
                    if stats.first_kick_at_ns >= 0 else 0))


def _deposit_mega(replayer, recording: Recording,
                  members: List[Dict[str, np.ndarray]],
                  env: BatchEnv) -> None:
    for io in recording.meta.inputs:
        if io.name not in members[0]:
            continue
        stacked = np.stack([
            np.ascontiguousarray(member[io.name], dtype=np.float32)
            for member in members])
        head = stacked[0].tobytes()
        if len(head) != io.size:
            raise ReplayError(
                f"input {io.name!r}: {len(head)} bytes provided, "
                f"recording expects {io.size}")
        replayer.nano.copy_to_gpu(io.gaddr, head)
        # Members beyond the head pay copy bandwidth into the batch
        # overlay instead of GPU memory.
        replayer.machine.clock.advance(
            (env.n - 1) * max(1, io.size * SEC // UPLOAD_BW))
        env.seed(io.gaddr, stacked)


def _extract_mega(replayer, recording: Recording,
                  env: BatchEnv) -> List[Dict[str, np.ndarray]]:
    all_outputs = [replayer._extract(recording)]
    extract_ns = 0
    for k in range(1, env.n):
        member_out: Dict[str, np.ndarray] = {}
        for io in recording.meta.outputs:
            row = env.fetch(io.gaddr, io.size)
            if row is None:
                member_out[io.name] = all_outputs[0][io.name].copy()
            else:
                array = np.ascontiguousarray(row[k])
                if io.shape:
                    array = array.reshape(io.shape)
                member_out[io.name] = array
            # Members beyond the head pay the same copy-out
            # bandwidth as a solo extract, without an MMU walk.
            extract_ns += max(1, io.size * SEC // UPLOAD_BW)
        all_outputs.append(member_out)
    if extract_ns:
        replayer.machine.clock.advance(extract_ns)
    return all_outputs
