"""The replayer facade: Init / Load / Replay (Section 5).

Composes the static verifier, the compiled executor and the nano
driver, and adds the run-time policies of Sections 5.3/5.4:

- failure recovery by re-execution, then re-execution with injected
  delays around the failing action, then a meaningful error naming the
  failed action and its full-driver source location;
- optional checkpointing and preemption (flush + soft reset, resume by
  checkpoint restore or whole re-execution);
- replay *sessions*: consecutive recordings (per-layer chains) share
  the GPU address space, so intermediates flow through GPU memory.

A default replay runs on what this module imports; ``interpreter``,
``checkpoints`` and ``mega`` load when a caller asks for what only
they do (DESIGN.md "Layering").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.actions import InterpreterOptions, InterpreterStats
from repro.core.cache import LruCache
from repro.core.compiled import (CompiledExecutor, CompiledProgram,
                                 compile_program)
from repro.core.nano_driver import NanoGpuDriver
from repro.core.recording import Recording
from repro.core.verifier import VerificationReport, verify_recording
from repro.errors import ReplayAborted, ReplayError
from repro.units import SEC, US

if TYPE_CHECKING:
    from repro.core.checkpoints import CheckpointPolicy
    from repro.core.mega import MegaReplayResult
    from repro.soc.machine import Machine

#: Throughput of recording decompression at Load time (zlib on a
#: mobile CPU).
DECOMPRESS_BW = 150 * 1024 * 1024
#: Verifier cost per action.
VERIFY_ACTION_NS = 200
#: Virtual cost of a warm load: one digest lookup in the load cache
#: instead of decompression + full re-verification. The Load column of
#: the paper's cost model is paid once per content, not once per call.
WARM_LOAD_NS = 2 * US
#: Extra pacing injected on the delay-retry attempt (Section 5.4).
RETRY_EXTRA_DELAY_NS = 50 * US
#: How many actions before the failure receive the injected delay.
RETRY_DELAY_WINDOW = 32
#: Backoff before re-execution, letting transient faults clear.
RETRY_BACKOFF_NS = 2_000_000

#: Entries in the process-wide load cache (verification reports +
#: compiled programs, content-addressed).
LOAD_CACHE_CAPACITY = 64

#: The content-addressed load cache. Values are (VerificationReport,
#: CompiledProgram), no recording bytes: an entry keeps no recording
#: alive. Keys bind the recording digest to everything the
#: verification depended on -- the board's register map, the GPU
#: memory policy and the session's pre-existing mappings -- so a hit
#: is exactly as trustworthy as re-running the verifier.
LOAD_CACHE = LruCache(capacity=LOAD_CACHE_CAPACITY)

#: Bound executors one replayer keeps (least recently used out first):
#: a serving worker alternating between a few contents re-binds none
#: of them (a bind is one closure per action, and the host's cyclic GC
#: pays for each).
BOUND_EXECUTORS = 4


def clear_load_cache() -> None:
    """Drop the load cache (tests and long-lived daemons); it holds
    no recording bytes."""
    LOAD_CACHE.clear()


def recovery_delay_window(fail_index: int) -> Tuple[int, int]:
    """The §5.4 delay-injection window for a divergence at
    ``fail_index``: the ``RETRY_DELAY_WINDOW`` actions before the
    failure site plus the failing action itself, as a half-open
    ``[start, end)`` range."""
    fail_at = max(fail_index, 0)
    return (max(0, fail_at - RETRY_DELAY_WINDOW), fail_at + 1)


@dataclass
class ReplayResult:
    """Outcome of one successful replay."""

    outputs: Dict[str, np.ndarray]
    duration_ns: int
    attempts: int
    stats: InterpreterStats
    #: Virtual time from replay start to the first job kick.
    startup_ns: int = 0

    @property
    def output(self) -> np.ndarray:
        if len(self.outputs) != 1:
            raise ReplayError(
                f"replay produced {len(self.outputs)} outputs; "
                "use .outputs")
        return next(iter(self.outputs.values()))


class Replayer:
    """A drop-in replacement for the GPU stack (one app's instance)."""

    def __init__(self, machine: Machine,
                 max_gpu_bytes: Optional[int] = None,
                 checkpoint_policy: Optional[CheckpointPolicy] = None,
                 fast_path: bool = True):
        self.machine = machine
        self.nano = NanoGpuDriver(machine)
        self.max_gpu_bytes = max_gpu_bytes
        #: None unless the caller's policy takes checkpoints (building
        #: the policy is what imported :mod:`repro.core.checkpoints`).
        self.checkpoints = None
        if checkpoint_policy is not None \
                and checkpoint_policy.every_n_jobs > 0:
            from repro.core.checkpoints import CheckpointManager
            self.checkpoints = CheckpointManager(self.nano,
                                                 checkpoint_policy)
        #: ``False`` forces the reference interpreter for every replay
        #: (the differential suite's baseline, and an escape hatch).
        self.fast_path = fast_path
        self.current: Optional[Recording] = None
        self.verification: Optional[VerificationReport] = None
        self.program: Optional[CompiledProgram] = None
        self.init_ns = 0
        self.load_ns = 0
        #: What the most recent :meth:`load` did -- ``cache`` is
        #: ``"hit"``/``"miss"``, ``warm`` says whether this replayer
        #: paid only :data:`WARM_LOAD_NS`. Read by the serving engine's
        #: request tracer; purely informational.
        self.last_load_info: Dict[str, object] = {}
        #: Delay window of the most recent §5.4 injected-delay retry.
        self.last_delay_range: Optional[Tuple[int, int]] = None
        #: CompiledProgram (by identity) -> the executor bound to this
        #: replayer's nano driver. Lives here, not in the process-wide
        #: load cache: an executor references the machine.
        self._executors = LruCache(capacity=BOUND_EXECUTORS)
        #: The executor the most recent fast-path replay ran on.
        self._executor: Optional[CompiledExecutor] = None
        self._session_maps: Dict[int, int] = {}
        #: Load-cache keys whose one-time Load cost this replayer has
        #: already paid in virtual time (the paper's Load is per
        #: content, not per call).
        self._warm_keys: set = set()
        self._last_inputs: Dict[str, np.ndarray] = {}
        self._initialized = False

    # -- API: Init / Cleanup ------------------------------------------------------

    def init(self) -> None:
        """Acquire the GPU with a reset (API #1 of Section 5)."""
        t0 = self.machine.clock.now()
        obs = self.machine.obs
        with obs.span("replayer:init", obs.track("replay", "session"),
                      cat="replay"):
            self.nano.init_gpu()
        self._session_maps.clear()
        self.init_ns = self.machine.clock.now() - t0
        obs.gauge("replay.init_ns").set(self.init_ns)
        self._initialized = True

    def cleanup(self) -> None:
        """Release the GPU, scrubbing state with a final reset, and let
        go of the staged recording and its executors."""
        if self._initialized:
            self.nano.soft_reset()
        self.nano.release()
        self._session_maps.clear()
        self._executors.clear()
        self.current = self.verification = self.program = None
        self._executor = None
        self._initialized = False

    def reset_session(self) -> int:
        """End the replay session without releasing the GPU.

        Scrubs the GPU address space (reset + free every mapping, like
        :meth:`init` does on acquisition) so an *unrelated* recording
        can be staged next: consecutive recordings share the address
        space only within one session, and a serving engine switching
        content between batches must not inherit the previous
        content's mappings. Residency is lost with the mappings --
        which is exactly why coalescing same-content requests onto a
        warm worker wins. Returns the virtual-time cost.
        """
        self._require_init()
        t0 = self.machine.clock.now()
        obs = self.machine.obs
        with obs.span("replayer:reset-session",
                      obs.track("replay", "session"), cat="replay"):
            self.nano.soft_reset()
            self.nano.release_memory()
        self._session_maps.clear()
        self.current = self.verification = self.program = None
        return self.machine.clock.now() - t0

    # -- API: Load -------------------------------------------------------------------

    def load(self, recording: Recording) -> VerificationReport:
        """Verify a recording and stage it for replay (API #2).

        Content-addressed: the verification report and the compiled
        action program are memoized in the process-wide
        :data:`LOAD_CACHE`, keyed by the recording digest plus
        everything verification depended on. A warm load skips
        re-verification and re-compilation, and -- once this replayer
        has paid a content's one-time Load cost -- charges only
        :data:`WARM_LOAD_NS` of virtual time.
        """
        self._require_init()
        t0 = self.machine.clock.now()
        obs = self.machine.obs
        key = self._load_key(recording)
        with obs.span("replayer:load", obs.track("replay", "session"),
                      cat="replay",
                      args={"workload": recording.meta.workload,
                            "actions": len(recording.actions)}):
            entry, hit = LOAD_CACHE.lookup(key)
            warm = key in self._warm_keys
            self.last_load_info = {
                "cache": "hit" if hit else "miss", "warm": warm,
                "workload": recording.meta.workload}
            if hit:
                obs.counter("replay.cache.hits").inc()
                report, program = entry
            else:
                obs.counter("replay.cache.misses").inc()
                evictions_before = LOAD_CACHE.evictions
                report = verify_recording(
                    recording, self.nano.register_names(),
                    max_gpu_bytes=self.max_gpu_bytes,
                    preexisting_maps=dict(self._session_maps))
                program = compile_program(recording, self.nano)
                LOAD_CACHE.put(key, (report, program))
                evicted = LOAD_CACHE.evictions - evictions_before
                if evicted:
                    obs.counter("replay.cache.evictions").inc(evicted)
            if warm:
                self.machine.clock.advance(WARM_LOAD_NS)
            else:
                # Decompression + verification, once per content on
                # this replayer.
                self.machine.clock.advance(
                    max(1, recording.dump_bytes() * SEC // DECOMPRESS_BW)
                    + VERIFY_ACTION_NS * len(recording.actions))
                if len(self._warm_keys) > 4096:
                    self._warm_keys.clear()
                self._warm_keys.add(key)
        self.current = recording
        self.verification = report
        self.program = program
        self.load_ns = self.machine.clock.now() - t0
        obs.gauge("replay.load_ns").set(self.load_ns)
        return report

    def _load_key(self, recording: Recording) -> tuple:
        # The GPU family rides along explicitly even though the
        # register-map fingerprint already covers it: the fingerprint
        # is a hash, and two machines sharing the process-wide cache
        # (a multi-board serving pool) must never alias entries even
        # if the hash ever lost a distinguishing input.
        return (recording.digest(),
                self.nano.family,
                self.nano.register_map_fingerprint(),
                self.max_gpu_bytes,
                tuple(sorted(self._session_maps.items())))

    # -- API: Replay ------------------------------------------------------------------

    def replay(self,
               inputs: Optional[Dict[str, np.ndarray]] = None,
               use_recorded_intervals: bool = False,
               max_attempts: int = 3,
               should_yield: Optional[Callable[[], bool]] = None
               ) -> ReplayResult:
        """Replay the staged recording on new input (API #3)."""
        recording = self._require_loaded()
        inputs = dict(inputs or {})
        self._check_inputs(recording, inputs)
        self._last_inputs = inputs

        t_start = self.machine.clock.now()
        obs = self.machine.obs
        obs_track = obs.track("replay", "session")
        replay_span = obs.begin(
            f"replayer:replay:{recording.meta.workload}", obs_track,
            cat="replay")
        # The compiled fast path handles the common case; recorded
        # intervals (the Figure 10 ablation) and checkpointing fall
        # back to the reference interpreter.
        executor = self._fast_executor(use_recorded_intervals)

        def deposit() -> None:
            self._deposit(recording, inputs)
        attempts = 0
        extra_delay = 0
        delay_range: Optional[Tuple[int, int]] = None
        last_error: Optional[ReplayError] = None
        while attempts < max_attempts:
            attempts += 1
            self.machine.gpu.counters.begin_session(recording.digest())
            obs.counter("replay.attempts").inc()
            if attempts > 1:
                obs.counter("replay.retries").inc()
            options = InterpreterOptions(
                use_recorded_intervals=use_recorded_intervals,
                extra_delay_ns=extra_delay,
                extra_delay_range=delay_range)
            if executor is not None:
                runner = executor
                run = partial(executor.execute, options, deposit,
                              should_yield)
            else:
                from repro.core.interpreter import ReplayInterpreter
                runner = ReplayInterpreter(self.nano, recording, options,
                                           should_yield, self.checkpoints)
                run = partial(runner.execute, deposit)
            try:
                stats, outputs = self._attempt(replay_span, attempts,
                                               runner, run, self._extract)
                self._end_span(replay_span, attempts=attempts)
                return ReplayResult(
                    outputs=outputs,
                    duration_ns=self.machine.clock.now() - t_start,
                    attempts=attempts,
                    stats=stats,
                    startup_ns=(stats.first_kick_at_ns - t_start
                                if stats.first_kick_at_ns >= 0 else 0))
            except ReplayAborted:
                raise
            except ReplayError as error:
                last_error = error
                obs.counter("replay.divergence.detected").inc()
                obs.gauge("replay.divergence.last_index").set(
                    getattr(error, "action_index", -1))
                obs.instant(
                    "replay-divergence", obs_track,
                    args={"attempt": attempts,
                          "index": getattr(error, "action_index", -1),
                          "src": getattr(error, "source", "")})
                if attempts >= max_attempts:
                    break
                # Recovery: back off (transient faults need time to
                # clear), reset, start over; on the next retry, inject
                # delays before the failure site (Section 5.4).
                self.machine.clock.advance(RETRY_BACKOFF_NS)
                try:
                    self.nano.soft_reset()
                except ReplayError as reset_error:
                    # GPU still unhealthy; burn this attempt and let
                    # the next one try again after another backoff.
                    last_error = reset_error
                    continue
                if attempts >= 2:
                    extra_delay = RETRY_EXTRA_DELAY_NS
                    delay_range = recovery_delay_window(
                        error.action_index)
                    self.last_delay_range = delay_range
                    obs.instant(
                        "replay-delay-injection", obs_track,
                        args={"attempt": attempts + 1,
                              "window_start": delay_range[0],
                              "window_end": delay_range[1],
                              "extra_delay_ns": extra_delay})
        obs.counter("replay.divergence.unrecovered").inc()
        self._end_span(replay_span, failed=True, attempts=attempts)
        raise ReplayError(
            f"replay failed after {attempts} attempts: {last_error}",
            getattr(last_error, "action_index", -1),
            getattr(last_error, "source", ""))

    def _attempt(self, span, attempt: int, runner, run, extract):
        """One pass of ``runner`` (``run()`` executes it) over the
        staged recording plus the epilogue every executor shares: note
        the session's mappings and extract on success, close ``span``
        on an abort, mark any other failure in the flight ring so the
        doctor can anchor its report, and publish the pass to the obs
        session. Errors propagate; returns ``(stats, extracted
        outputs)``."""
        try:
            stats = run()
            for va, pages in self.program.map_effects:
                if pages is None:
                    self._session_maps.pop(va, None)
                else:
                    self._session_maps[va] = pages
            return stats, extract(self.current)
        except ReplayAborted:
            self._end_span(span, aborted=True)
            raise
        except ReplayError as error:
            flight = self.machine.flight
            flight.action_index = error.action_index
            flight.record(self.machine.clock.now(), "Divergence",
                          (attempt, type(error).__name__))
            flight.action_index = -1
            raise
        finally:
            self.machine.obs.publish_replay(self.current, runner.stats)

    def _end_span(self, span, **args) -> None:
        """End a replay's session span and publish the flight
        recorder's capacity gauges."""
        obs = self.machine.obs
        obs.end(span, args=args)
        for name, value in self.machine.flight.snapshot().items():
            obs.gauge(name).set(value)

    def _fast_executor(self, use_recorded_intervals: bool
                       ) -> Optional[CompiledExecutor]:
        """The bound compiled executor, or None for the reference path.

        Bound lazily, once per staged program: executors of recently
        staged programs are kept across ``load``/``reset_session``.
        """
        if (not self.fast_path or self.program is None
                or use_recorded_intervals or self.checkpoints is not None):
            return None
        # The staged program may come from the load cache, compiled
        # against an earlier Recording object with the same digest --
        # byte-identical content, so it replays this recording exactly.
        self._executor = self._executors.get_or_produce(self.program, partial(
            self.program.bind, self.nano, self.current.dumps))
        return self._executor

    # -- API: mega-batch replay ----------------------------------------------------------

    def replay_mega(self,
                    inputs_list: Sequence[Optional[Dict[str, np.ndarray]]],
                    should_yield: Optional[Callable[[], bool]] = None
                    ) -> MegaReplayResult:
        """Replay the staged recording for N inputs in one fused pass
        (:func:`repro.core.mega.replay_mega` has the semantics). No
        internal retry ladder: a :class:`~repro.errors.ReplayError`
        (including :class:`~repro.errors.MegaBatchDivergence`)
        propagates so callers can fall back to per-request replay."""
        from repro.core.mega import replay_mega
        return replay_mega(self, inputs_list, should_yield)

    # -- preemption (Section 5.3) ----------------------------------------------------------

    def handoff(self) -> int:
        """Give the GPU away *now*: flush + soft reset. Returns the
        virtual-time cost (the interactive app's perceived delay)."""
        t0 = self.machine.clock.now()
        self.nano.flush_and_reset()
        return self.machine.clock.now() - t0

    def resume_after_preemption(self) -> ReplayResult:
        """Continue a preempted replay: checkpoint restore if one
        exists, whole re-execution otherwise."""
        recording = self._require_loaded()
        self.nano.preempt_requested = False
        manager = self.checkpoints
        if manager is None or manager.latest() is None:
            return self.replay(inputs=self._last_inputs)
        from repro.core.interpreter import ReplayInterpreter
        t_start = self.machine.clock.now()
        checkpoint = manager.restore_latest(recording.meta.memattr)
        interpreter = ReplayInterpreter(self.nano, recording,
                                        InterpreterOptions(),
                                        checkpoints=None)
        try:
            stats = interpreter.execute(start_index=checkpoint.action_index)
        finally:
            self.machine.obs.publish_replay(recording, interpreter.stats)
        outputs = self._extract(recording)
        return ReplayResult(outputs=outputs,
                            duration_ns=self.machine.clock.now() - t_start,
                            attempts=1, stats=stats)

    # -- I/O plumbing -----------------------------------------------------------------------

    @staticmethod
    def _check_inputs(recording: Recording,
                      inputs: Dict[str, np.ndarray]) -> None:
        known = {io.name for io in recording.meta.inputs}
        for name in inputs:
            if name not in known:
                raise ReplayError(f"recording has no input {name!r}")
        for io in recording.meta.inputs:
            if not (io.optional or io.name in inputs):
                raise ReplayError(f"missing required input {io.name!r}")

    def _deposit(self, recording: Recording,
                 inputs: Dict[str, np.ndarray]) -> None:
        for io in recording.meta.inputs:
            if io.name not in inputs:
                continue
            data = np.ascontiguousarray(inputs[io.name],
                                        dtype=np.float32).tobytes()
            if len(data) != io.size:
                raise ReplayError(
                    f"input {io.name!r}: {len(data)} bytes provided, "
                    f"recording expects {io.size}")
            self.nano.copy_to_gpu(io.gaddr, data)

    def _extract(self, recording: Recording) -> Dict[str, np.ndarray]:
        outputs: Dict[str, np.ndarray] = {}
        for io in recording.meta.outputs:
            raw = self.nano.copy_from_gpu(io.gaddr, io.size)
            array = np.frombuffer(raw, dtype=np.float32)
            if io.shape:
                array = array.reshape(io.shape)
            outputs[io.name] = array
        return outputs

    # -- guards --------------------------------------------------------------------------------

    def _require_init(self) -> None:
        if not self._initialized:
            raise ReplayError("replayer not initialized; call init()")

    def _require_loaded(self) -> Recording:
        self._require_init()
        if self.current is None:
            raise ReplayError("no recording loaded; call load()")
        return self.current
