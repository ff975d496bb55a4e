"""The virtual-time concurrent replay serving engine.

A :class:`ReplayServer` owns a pool of per-board worker machines and a
bounded admission queue, and schedules everything on a *server-owned*
:class:`~repro.soc.clock.VirtualClock`: request arrivals, worker-free
events, retry backoffs and CPU-fallback completions are all
discrete-event callbacks on one deterministic timeline. A worker
executes a batch synchronously (ordinary replay calls on its own
machine); the virtual time its machine spent is the batch's service
time, mapped onto the server timeline as "this worker is busy until
``now + service_ns``". Concurrency is therefore *simulated* -- there
are no threads -- which is what makes two same-seed runs produce
byte-identical metric snapshots (see DESIGN.md, "Virtual-time
serving").

Scheduling policy:

- admission: bounded queue depth; overflow and deadline-expired
  requests are shed with an explicit response (never silently lost);
- batching: pending requests for the *same recording content* (same
  ``Recording.digest()``) coalesce onto one worker, preferring a
  worker already warm on that digest -- a warm worker keeps its
  session maps and resident dumps, so only inputs and outputs move;
- failure ladder: the worker's own §5.4 re-execution absorbs
  transient faults; a dispatch that still fails is retried with
  backoff on a *different* worker; then the reference interpreter;
  then the ``stack.reference`` CPU path, which always answers
  (ground truth by construction). Degraded is better than wrong or
  lost.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

# The replayer loads these when a replay first asks for them; a server
# runs both rungs (the reference interpreter below the compiled path,
# fused batches under ``mega_batch``), so it loads them here and not
# on the serving timeline.
import repro.core.interpreter  # noqa: F401
import repro.core.mega  # noqa: F401
from repro.core.recording import Recording
from repro.core.replay import seeded_inputs as request_inputs
from repro.core.replayer import Replayer
from repro.errors import ReplayError, ReproError
from repro.gpu.counters import aggregate as aggregate_counters
from repro.gpu.faults import FaultInjector
from repro.obs.doctor import flip_dump_byte
from repro.obs.metrics import LATENCY_BUCKETS_NS
from repro.obs.rtrace import NULL_RTRACE, RequestTracer, SCHEMA
from repro.obs.session import Observability
from repro.obs.timeseries import TimeSeriesCollector
from repro.serve.loadgen import ServeRequest
from repro.soc.boards import board_for_family
from repro.soc.clock import VirtualClock
from repro.soc.machine import fresh_replay_machine
from repro.units import MS, SEC

#: How long an injected transient core-collapse lasts (virtual).
TRANSIENT_FAULT_NS = 8 * MS
#: Server-side backoff before re-dispatching a failed request.
REQUEUE_BACKOFF_NS = 2 * MS
#: §5.4 re-execution attempts inside one worker dispatch.
WORKER_ATTEMPTS = 3
#: Server-level re-dispatches onto a different worker.
MAX_RETRIES = 1
#: Virtual time between time-series scrapes.
SCRAPE_INTERVAL_NS = 2 * MS
#: Modeled cost of answering one request on the CPU reference path.
CPU_FALLBACK_NS = 20 * MS

#: Batch-size histogram buckets (requests per dispatch).
BATCH_BUCKETS = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class ServerConfig:
    """Pool shape and scheduling knobs."""

    #: One entry per worker: the GPU family it serves.
    families: Tuple[str, ...] = ("mali", "mali", "v3d")
    #: Optional per-worker board override (defaults per family).
    boards: Optional[Tuple[str, ...]] = None
    seed: int = 2026
    queue_depth: int = 64
    max_batch: int = 4
    #: Warm every worker's load cache from the store before the
    #: timeline starts (the vault's prefetch path). Off by default:
    #: a prefetched run pays Load costs up front, so its service
    #: times differ from a cold run's -- both are deterministic, but
    #: only same-config runs compare byte-for-byte.
    prefetch: bool = False
    #: Request-scoped tracing (repro.obs.rtrace). On by default: the
    #: tracer only reads the clock, so virtual-time results are
    #: identical either way; off saves the per-event Python cost.
    trace: bool = True
    #: Flight-recorder ring capacity per worker machine (None = the
    #: always-on default, DEFAULT_RING_SIZE).
    flight_capacity: Optional[int] = None
    #: Fuse same-digest batches into one mega-batch replay: the worker
    #: runs the action chain once with the batch stacked through the
    #: shader executor, instead of once per request. Opt-in: fused
    #: virtual times are *shorter* than sequential ones (that is the
    #: point), so only same-config runs compare byte-for-byte. Batches
    #: with faulted members, reference-mode or retried requests, and
    #: any batch the batch dimension cannot represent fall back to the
    #: per-request path automatically.
    mega_batch: bool = False
    #: Periodic virtual-clock scrapes of the server metrics registry
    #: into ring-buffered time series (repro.obs.timeseries). The
    #: collector only *reads* the registry and the clock, so
    #: virtual-time results are identical either way; off saves the
    #: per-scrape Python cost.
    timeseries: bool = True
    #: Emulated GPU performance-counter tapes on the worker machines
    #: (repro.gpu.counters). Always-on by default, like the flight
    #: recorder; the overhead benchmark's "off" arm disables them.
    gpu_counters: bool = True


class RecordingStore:
    """Content store: (family, model) -> recording, plus the poisoned
    variants fault injection serves.

    A poisoned variant has one dump byte flipped on the first job's
    descriptor chain -- a *different digest*, so the corruption can
    never alias the healthy content in any digest-keyed cache.
    """

    def __init__(self) -> None:
        self._recordings: Dict[Tuple[str, str], Recording] = {}
        self._poisoned: Dict[Tuple[str, str], Recording] = {}

    @classmethod
    def from_zoo(cls, mix) -> "RecordingStore":
        """Record (or reuse the session-cached recording of) every
        (family, model) pair in ``mix``."""
        from repro.bench.workloads import get_recorded

        store = cls()
        for family, model in mix:
            workload, _stack = get_recorded(family, model)
            store.add(family, model, workload.recording)
        return store

    def add(self, family: str, model: str,
            recording: Recording) -> None:
        self._recordings[(family, model)] = recording

    def healthy(self, family: str, model: str) -> Recording:
        return self._recordings[(family, model)]

    def interface(self, family: str, model: str) -> Recording:
        """A recording good for interface questions only (metadata,
        input/output buffers) -- never replayed. Vault-backed stores
        can answer this from the skeleton even when the recording's
        payload chunks are damaged."""
        return self.healthy(family, model)

    def available(self, family: str, model: str) -> bool:
        """Whether replayable content exists for this key. The
        loose-file store always says yes; a vault-backed store says no
        on a store miss or a corrupt fetch, which the server turns
        into a CPU-degraded answer instead of a failed dispatch."""
        return (family, model) in self._recordings

    def recording_for(self, request: ServeRequest) -> Recording:
        key = (request.family, request.model)
        if request.fault is not None and request.fault.kind == "poison":
            poisoned = self._poisoned.get(key)
            if poisoned is None:
                poisoned, _, _ = flip_dump_byte(self._recordings[key])
                self._poisoned[key] = poisoned
            return poisoned
        return self._recordings[key]

    def mix(self) -> List[Tuple[str, str]]:
        return sorted(self._recordings)

    def drain_fetches(self) -> List[Dict[str, object]]:
        """Store-fetch events since the last drain (the request tracer
        marks them on the request that triggered them). The loose-file
        store never fetches."""
        return []

    def reference_outputs(self, family: str, model: str,
                          input_seed: int) -> Dict[str, np.ndarray]:
        """Ground truth for one (family, model, input_seed) request:
        the CPU reference interpreter's answer, shaped like the
        recording's output interface. Stores whose recordings are not
        zoo models (e.g. synthetic surgery sessions, which carry no
        inputs and no framework graph) override this with their own
        reference.

        ``repro.stack`` is imported here, at call time, by design: the
        CPU ground truth (degrade rung, ``verify_report``) is the one
        thing serving loads that ``import repro.serve`` did not."""
        from repro.stack.framework import build_model
        from repro.stack.reference import run_reference

        recording = self.interface(family, model)
        inputs = request_inputs(recording, input_seed)
        x = next(iter(inputs.values()))
        graph = _MODEL_CACHE.get(model)
        if graph is None:
            graph = build_model(model)
            _MODEL_CACHE[model] = graph
        reference = run_reference(graph, x, fuse=False)
        outputs: Dict[str, np.ndarray] = {}
        for io in recording.meta.outputs:
            shaped = reference.reshape(io.shape) if io.shape \
                else reference.reshape(-1)
            outputs[io.name] = shaped.astype(np.float32)
        return outputs


class VaultRecordingStore(RecordingStore):
    """A recording store backed by a :class:`repro.store.vault.Vault`.

    Content is resolved through the vault's compatibility index
    (family + workload, best board match) and fetched lazily on first
    use; ``fetch`` re-verifies the whole integrity chain, so a served
    recording is byte-identical to what was packed or it is not served
    at all. A miss or a corrupt fetch marks the key unavailable --
    the server degrades those requests to the CPU reference -- and
    corrupt digests are remembered in :attr:`corrupt` for the doctor
    handoff (``vault.diagnose``).
    """

    def __init__(self, vault, mix: List[Tuple[str, str]],
                 board: Optional[str] = None) -> None:
        super().__init__()
        self.vault = vault
        self._mix = sorted(mix)
        self._board = board
        #: (family, model) -> digest the vault could not deliver.
        self.corrupt: Dict[Tuple[str, str], str] = {}
        self._missing: set = set()
        self._fetch_log: List[Dict[str, object]] = []

    @classmethod
    def pack_zoo(cls, vault, mix) -> "VaultRecordingStore":
        """Pack every (family, model) zoo recording into ``vault`` and
        serve from it -- the one-call path the benches use."""
        from repro.bench.workloads import get_recorded

        for family, model in mix:
            workload, _stack = get_recorded(family, model)
            vault.pack(workload.recording)
        return cls(vault, list(mix))

    def _digest_for(self, family: str, model: str) -> Optional[str]:
        return self.vault.best_for(family, board=self._board,
                                   workload=model)

    def _ensure(self, family: str, model: str) -> bool:
        """Fetch-and-verify into the in-memory map; False on miss or
        corruption (remembered, so one bad recording is probed against
        the store once, not once per request)."""
        from repro.errors import StoreCorruptionError, StoreError
        key = (family, model)
        if key in self._recordings:
            return True
        if key in self._missing or key in self.corrupt:
            return False
        digest = self._digest_for(family, model)
        if digest is None:
            self._missing.add(key)
            return False
        try:
            self.add(family, model, self.vault.fetch(digest))
            self._fetch_log.append({
                "family": family, "model": model,
                **self.vault.last_fetch_info})
            return True
        except StoreCorruptionError:
            self.corrupt[key] = digest
            self._fetch_log.append({
                "family": family, "model": model,
                "digest": digest[:12], "corrupt": True})
            return False
        except StoreError:
            self._missing.add(key)
            return False

    def available(self, family: str, model: str) -> bool:
        return self._ensure(family, model)

    def healthy(self, family: str, model: str) -> Recording:
        self._ensure(family, model)
        return self._recordings[(family, model)]

    def interface(self, family: str, model: str) -> Recording:
        """Interface from the fetched recording when healthy, else
        from the vault skeleton -- which survives chunk damage, so a
        corrupt recording can still be answered on the CPU path."""
        if self._ensure(family, model):
            return self._recordings[(family, model)]
        digest = self.corrupt.get((family, model)) \
            or self._digest_for(family, model)
        if digest is None:
            from repro.errors import StoreNotFoundError
            raise StoreNotFoundError(
                f"no recording for {family}/{model} in vault")
        return self.vault.fetch_interface(digest)

    def recording_for(self, request: ServeRequest) -> Recording:
        self._ensure(request.family, request.model)
        return super().recording_for(request)

    def mix(self) -> List[Tuple[str, str]]:
        return list(self._mix)

    def drain_fetches(self) -> List[Dict[str, object]]:
        drained = self._fetch_log
        self._fetch_log = []
        return drained


_MODEL_CACHE: Dict[str, object] = {}


def expected_outputs(store: RecordingStore, family: str, model: str,
                     input_seed: int) -> Dict[str, np.ndarray]:
    """Ground truth: the store's reference answer for this request.
    This is both the degraded fallback and what every served output is
    verified against; see :meth:`RecordingStore.reference_outputs`."""
    return store.reference_outputs(family, model, input_seed)


@dataclass
class ServeResponse:
    """The terminal answer for one request (exactly one per request)."""

    rid: int
    status: str            # "ok" | "degraded" | "shed"
    path: str              # "fast" | "reference" | "cpu" | ""
    family: str
    model: str
    input_seed: int
    worker: int            # last worker that touched it; -1 for none
    arrival_ns: int
    completed_ns: int
    attempts: int          # worker-internal §5.4 attempts, summed
    retries: int           # server-level re-dispatches
    batch_size: int
    fault: str = ""
    shed_reason: str = ""
    outputs: Dict[str, np.ndarray] = field(default_factory=dict,
                                           repr=False)

    @property
    def latency_ns(self) -> int:
        return self.completed_ns - self.arrival_ns

    def output_digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.outputs):
            h.update(name.encode())
            h.update(self.outputs[name].tobytes())
        return h.hexdigest()

    def summary(self) -> Dict[str, object]:
        """JSON-able, byte-stable digest of this response (the
        determinism tests compare these across same-seed runs)."""
        return {
            "rid": self.rid, "status": self.status, "path": self.path,
            "family": self.family, "model": self.model,
            "worker": self.worker, "arrival_ns": self.arrival_ns,
            "completed_ns": self.completed_ns,
            "attempts": self.attempts, "retries": self.retries,
            "batch_size": self.batch_size, "fault": self.fault,
            "shed_reason": self.shed_reason,
            "outputs_sha256": self.output_digest(),
        }


@dataclass
class ServeReport:
    """Everything one serving run produced."""

    submitted: int
    responses: List[ServeResponse]
    snapshot: Dict[str, Dict[str, object]]
    makespan_ns: int
    lost: List[int] = field(default_factory=list)
    #: Request-scoped trace events (repro.obs.rtrace schema v1);
    #: empty when the server ran with tracing off. Deliberately NOT
    #: part of :meth:`summary` -- the determinism tests compare
    #: summaries, the trace-completeness tests compare these.
    trace_events: List[dict] = field(default_factory=list, repr=False)
    #: Fleet-aggregate GPU counter tape (gpucounters.v1): the merged
    #: snapshot of every worker machine's tape. Like ``trace_events``,
    #: NOT part of :meth:`summary` -- tape contents legitimately
    #: differ with ``gpu_counters`` on/off while replay results and
    #: summaries stay identical.
    gpu_counters: Dict[str, object] = field(default_factory=dict,
                                            repr=False)
    #: The run's TimeSeriesCollector (None with ``timeseries`` off);
    #: exporters (``to_jsonl``/``to_openmetrics``) hang off it. Also
    #: excluded from :meth:`summary`.
    timeseries: Optional[TimeSeriesCollector] = field(default=None,
                                                      repr=False)

    def counts(self) -> Dict[str, int]:
        out = {"ok": 0, "degraded": 0, "shed": 0}
        for response in self.responses:
            out[response.status] = out.get(response.status, 0) + 1
        return out

    def latency_percentiles(self) -> Dict[str, float]:
        hist = self.snapshot["histograms"].get("serve.latency_ns")
        if not hist:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {q: hist[q] for q in ("p50", "p95", "p99")}

    def throughput_rps(self) -> float:
        return self.snapshot["gauges"].get("serve.throughput_rps", 0.0)

    def summary(self) -> Dict[str, object]:
        """Deterministic JSON-able digest of the whole run."""
        return {
            "submitted": self.submitted,
            "makespan_ns": self.makespan_ns,
            "counts": self.counts(),
            "lost": list(self.lost),
            "snapshot": self.snapshot,
            "responses": [r.summary() for r in self.responses],
        }


def verify_report(report: ServeReport,
                  store: RecordingStore) -> List[str]:
    """Check every served output against the CPU reference. Returns a
    list of mismatch descriptions (empty = the replay invariant held
    for the whole run, retried and degraded requests included)."""
    mismatches: List[str] = []
    for response in report.responses:
        if response.status == "shed":
            continue
        expected = expected_outputs(store, response.family,
                                    response.model, response.input_seed)
        for name, want in expected.items():
            got = response.outputs.get(name)
            if got is None:
                mismatches.append(
                    f"request {response.rid}: output {name!r} missing")
            elif not np.array_equal(got.reshape(-1), want.reshape(-1)):
                mismatches.append(
                    f"request {response.rid} ({response.path}): "
                    f"output {name!r} differs from CPU reference")
    return mismatches


class Worker:
    """One replay machine in the pool: a board, a replayer, a fault
    injector, and the digest it is currently warm on."""

    def __init__(self, wid: int, family: str, board: str, seed: int,
                 flight_capacity: Optional[int] = None):
        self.id = wid
        self.family = family
        self.board = board
        self.machine = fresh_replay_machine(family, seed=seed,
                                            board=board,
                                            flight_capacity=flight_capacity)
        self.replayer = Replayer(self.machine)
        self.replayer.init()
        self.injector = FaultInjector(self.machine.require_gpu())
        self.busy = False
        self.warm_digest: Optional[str] = None
        self.dispatches = 0
        #: How the last stage() resolved: "warm" (session kept, no
        #: load) or "cold" (a load ran). Worker-local state only, so
        #: the serve.cache.* counters built from it are identical
        #: across loose/vault stores and repeated in-process runs.
        self.last_stage = "cold"

    def stage(self, recording: Recording) -> None:
        """Stage ``recording``; scrub the session first when switching
        content (unrelated recordings must not share address space)."""
        digest = recording.digest()
        if self.warm_digest == digest \
                and self.replayer.current is not None:
            self.last_stage = "warm"
            return
        if self.replayer.current is not None:
            self.replayer.reset_session()
        self.last_stage = "cold"
        self.replayer.load(recording)
        self.warm_digest = digest

    def heal(self) -> None:
        """Best-effort return to a healthy, sessionless state after a
        failed dispatch: clear injected faults, reset, scrub."""
        self.injector.restore_cores()
        self.injector.repair_ptes()
        try:
            self.replayer.reset_session()
        except ReplayError:
            pass  # GPU still unhappy; the next stage() retries a load
        self.warm_digest = None

    def close(self) -> None:
        try:
            self.replayer.cleanup()
        except ReproError:
            pass


class ReplayServer:
    """One-shot serving engine: construct, ``serve(requests)``, read
    the report, ``close()``. All scheduling happens on ``self.clock``;
    ``self.obs`` carries the ``serve.*`` metrics and the batch
    timeline."""

    def __init__(self, store: RecordingStore,
                 config: Optional[ServerConfig] = None,
                 clock: Optional[VirtualClock] = None,
                 rtrace=None):
        self.store = store
        self.config = config or ServerConfig()
        #: A caller-owned clock turns this server into one *node* of a
        #: larger simulation (repro.fleet): arrivals are injected with
        #: :meth:`submit`, the owner drives the shared event loop, and
        #: :meth:`finish` closes the books. With no clock given the
        #: server owns its timeline and :meth:`serve` drives it.
        self.clock = clock if clock is not None else VirtualClock()
        self._external_clock = clock is not None
        self.obs = Observability(self.clock)
        boards = self.config.boards or tuple(
            board_for_family(f) for f in self.config.families)
        if len(boards) != len(self.config.families):
            raise ReproError("boards must parallel families")
        self._next_wid = 0
        self.workers = [self._new_worker(family, board)
                        for family, board in
                        zip(self.config.families, boards)]
        #: Request-scoped tracer: every admitted request gets one
        #: causal span tree on the server clock (a no-op when
        #: ``config.trace`` is off). Like ``obs``, it only *reads*
        #: the clock -- virtual-time results are identical either way.
        #: A fleet passes one shared tracer so routing and node spans
        #: land in a single per-request tree.
        if rtrace is not None:
            self.rtrace = rtrace if self.config.trace else NULL_RTRACE
        else:
            self.rtrace = (RequestTracer(self.clock)
                           if self.config.trace else NULL_RTRACE)
        #: Optional per-response hook: called with each terminal
        #: :class:`ServeResponse` (answered or shed) the moment it is
        #: recorded. The fleet layer uses it for routing bookkeeping
        #: and fleet-wide latency accounting.
        self.on_complete = None
        #: Ring-buffered time series over the server registry. Like
        #: ``obs`` and ``rtrace`` it only reads clock + registry.
        self.timeseries = (
            TimeSeriesCollector(self.obs.metrics,
                                interval_ns=SCRAPE_INTERVAL_NS,
                                derive=self._derive_series)
            if self.config.timeseries else None)
        self._pending: List[ServeRequest] = []
        self._submitted: List[ServeRequest] = []
        self._responses: Dict[int, ServeResponse] = {}
        #: Per-request scheduling state: escalation mode and the
        #: workers already tried in that mode.
        self._mode: Dict[int, str] = {}
        self._tries: Dict[int, List[int]] = {}
        self._attempts: Dict[int, int] = {}
        self._retries: Dict[int, int] = {}
        #: rid -> open "queue" span sid (request currently in
        #: ``_pending``).
        self._qsid: Dict[int, int] = {}
        self._served = False
        self.obs.gauge("serve.workers").set(len(self.workers))
        if self.config.prefetch:
            self._prefetch_workers()

    # -- worker pool management ---------------------------------------------

    def _new_worker(self, family: str,
                    board: Optional[str] = None) -> Worker:
        wid = self._next_wid
        self._next_wid += 1
        worker = Worker(wid, family, board or board_for_family(family),
                        seed=self.config.seed * 1000 + wid,
                        flight_capacity=self.config.flight_capacity)
        if not self.config.gpu_counters:
            tape = worker.machine.require_gpu().counters
            tape.enabled = False
            # Drop anything counted during machine bring-up so a
            # counters-off report aggregates to all-zero totals.
            tape.reset()
        return worker

    def add_worker(self, family: str,
                   board: Optional[str] = None) -> Worker:
        """Grow the pool by one worker (the fleet autoscaler's
        scale-up rung). The new worker's seed is a deterministic
        function of the config seed and its id, so two same-seed runs
        that scale identically get identical machines. Dispatch runs
        immediately: new capacity may unblock the queue."""
        worker = self._new_worker(family, board)
        self.workers.append(worker)
        self.obs.gauge("serve.workers").set(len(self.workers))
        self._dispatch()
        return worker

    def retire_worker(self, worker: Worker) -> bool:
        """Shrink the pool (scale-down). Refuses to retire a busy
        worker -- in-flight batches always complete."""
        if worker.busy or worker not in self.workers:
            return False
        self.workers.remove(worker)
        worker.close()
        self.obs.gauge("serve.workers").set(len(self.workers))
        return True

    def pending_count(self, family: Optional[str] = None) -> int:
        """Admitted-but-undispatched requests (the autoscaling and
        routing signal)."""
        if family is None:
            return len(self._pending)
        return sum(1 for r in self._pending if r.family == family)

    def outstanding_count(self, family: Optional[str] = None) -> int:
        """Submitted requests without a terminal answer: queued,
        batched onto a worker, or riding a backoff window. The
        autoscaler's scale-down guard -- a request in backoff has a
        tried-worker set that assumes the pool it failed on, so
        shrinking a pool with outstanding work could strand it with
        no eligible worker and no wake-up event."""
        return sum(1 for r in self._submitted
                   if r.rid not in self._responses
                   and (family is None or r.family == family))

    def workers_for(self, family: str) -> List[Worker]:
        return [w for w in self.workers if w.family == family]

    def _prefetch_workers(self) -> None:
        """Stream every recording a worker's family will serve from
        the store into the process-wide load cache, before the request
        timeline starts. Worker machine clocks absorb the Load cost
        here; batch service times are measured as deltas, so warmup
        never leaks into a request's latency."""
        warmed = 0
        calls = 0
        for worker in self.workers:
            for family, model in self.store.mix():
                if family != worker.family:
                    continue
                if not self.store.available(family, model):
                    continue
                calls += 1
                if worker.replayer.prefetch(
                        self.store.healthy(family, model)):
                    warmed += 1
        self.obs.counter("serve.store.prefetched").inc(warmed)
        # Mirror of the per-machine replay.cache.warmed counters, so
        # prefetch traffic shows up in the server-side snapshot too.
        self.obs.counter("replay.cache.warmed").inc(calls)
        fetches = self.store.drain_fetches()
        self.rtrace.meta("prefetch", args={"warmed": warmed,
                                           "fetches": fetches})

    def _derive_series(self, snapshot: Dict[str, Dict[str, object]]
                       ) -> Dict[str, float]:
        """Ratio gauges that only make sense as a time series (the
        ``grr dash`` sparklines): computed at scrape time from the
        registry snapshot, never stored in the registry itself."""
        counters = snapshot["counters"]
        derived: Dict[str, float] = {}
        warm = counters.get("serve.cache.warm", 0)
        cold = counters.get("serve.cache.cold", 0)
        if warm + cold:
            derived["serve.cache.hit_ratio"] = warm / (warm + cold)
        submitted = counters.get("serve.requests.submitted", 0)
        if submitted:
            derived["serve.shed.rate"] = \
                counters.get("serve.requests.shed", 0) / submitted
        mega_batches = counters.get("serve.mega.batches", 0)
        if mega_batches:
            derived["serve.mega.fanout"] = \
                counters.get("serve.mega.requests", 0) / mega_batches
        return derived

    # -- public API ---------------------------------------------------------

    def serve(self, requests: List[ServeRequest]) -> ServeReport:
        """Run the whole stream to completion on the virtual timeline."""
        if self._served:
            raise ReproError("ReplayServer.serve is one-shot; "
                             "build a new server")
        if self._external_clock:
            raise ReproError("this server rides a caller-owned clock; "
                             "use submit()/finish()")
        self._served = True
        ordered = sorted(requests, key=lambda r: (r.arrival_ns, r.rid))
        self._submitted = ordered
        self.rtrace.meta("run", args={
            "schema": SCHEMA, "requests": len(ordered),
            "families": list(self.config.families),
            "seed": self.config.seed,
            "queue_depth": self.config.queue_depth,
            "max_batch": self.config.max_batch})
        for request in ordered:
            self.clock.schedule(request.arrival_ns,
                                lambda r=request: self._on_arrival(r))
        collector = self.timeseries
        if collector is None:
            while self.clock.advance_to_next_event():
                pass
        else:
            # Scrapes piggyback on the event loop: a virtual clock has
            # no timers of its own, and a self-rescheduling scrape
            # event would keep the drain loop alive forever. Samples
            # still land on exact interval boundaries.
            while self.clock.advance_to_next_event():
                collector.maybe_scrape(self.clock.now())
        return self._finalize()

    def submit(self, request: ServeRequest) -> None:
        """Admit one request *now* (node mode: the caller owns the
        clock and delivers arrivals as events on it). Pair with
        :meth:`finish` once the caller's event loop has drained."""
        if self._served:
            raise ReproError("server already finished; build a new one")
        self._submitted.append(request)
        self._on_arrival(request)

    def finish(self) -> ServeReport:
        """Close the books in node mode: shed anything still pending,
        set the end-of-run gauges and return this node's report. The
        caller must have drained the shared event loop first."""
        if self._served:
            raise ReproError("finish() is one-shot")
        self._served = True
        return self._finalize()

    def _finalize(self) -> ServeReport:
        ordered = self._submitted
        # Defensive: the ladder guarantees every request terminates,
        # but a lost request must surface as shed, never silently.
        for request in list(self._pending):
            self._shed(request, "starved")
        self._pending.clear()
        makespan = self.clock.now()
        served = sum(1 for r in self._responses.values()
                     if r.status in ("ok", "degraded"))
        self.obs.gauge("serve.makespan_ns").set(makespan)
        self.obs.gauge("serve.throughput_rps").set(
            served * SEC / makespan if makespan else 0.0)
        self.obs.gauge("serve.queue.depth").set(len(self._pending))
        lost = sorted(r.rid for r in ordered
                      if r.rid not in self._responses)
        if self.timeseries is not None:
            # Close out the series with the end-of-run registry state
            # (the throughput/makespan gauges set just above).
            self.timeseries.maybe_scrape(makespan)
            self.timeseries.scrape(makespan)
        return ServeReport(
            submitted=len(ordered),
            responses=[self._responses[rid]
                       for rid in sorted(self._responses)],
            snapshot=self.obs.snapshot(),
            makespan_ns=makespan,
            lost=lost,
            trace_events=list(self.rtrace.events),
            gpu_counters=aggregate_counters(
                [w.machine.require_gpu().counters.snapshot()
                 for w in self.workers]),
            timeseries=self.timeseries)

    def close(self) -> None:
        for worker in self.workers:
            worker.close()

    # -- admission ----------------------------------------------------------

    def _on_arrival(self, request: ServeRequest) -> None:
        rid = request.rid
        self.obs.counter("serve.requests.submitted").inc()
        self.rtrace.submit(rid, args={
            "family": request.family, "model": request.model,
            "deadline_ns": request.deadline_ns,
            "fault": request.fault.kind if request.fault else ""})
        if request.fault is not None:
            self.obs.counter(
                f"serve.fault.{request.fault.kind}").inc()
        self._mode.setdefault(rid, "fast")
        self._tries.setdefault(rid, [])
        self._attempts.setdefault(rid, 0)
        self._retries.setdefault(rid, 0)
        if not any(w.family == request.family for w in self.workers):
            self._degrade_cpu(request, reason="no-worker")
            return
        available = self.store.available(request.family, request.model)
        for info in self.store.drain_fetches():
            self.rtrace.mark(rid, "vault.fetch", args=info)
        if not available:
            # Store miss / corrupt fetch: the bottom rung of the
            # failure ladder, entered at admission -- there is nothing
            # to dispatch. The counter is created lazily so a store
            # that never misses leaves no trace in the snapshot.
            self.obs.counter("serve.store.miss").inc()
            try:
                self.store.interface(request.family, request.model)
            except (ReproError, KeyError):
                # Even the skeleton is gone: the output interface is
                # unknowable, so the request cannot be answered at all.
                self._shed(request, "store-lost")
                return
            self._degrade_cpu(request, reason="store-miss")
            return
        if len(self._pending) >= self.config.queue_depth:
            self._shed(request, "queue-full")
            return
        self._pending.append(request)
        self._qsid[rid] = self.rtrace.begin(rid, "queue")
        self._note_queue_depth()
        self._dispatch()

    def _requeue(self, request: ServeRequest) -> None:
        """Re-admit after backoff; retries bypass the depth bound (the
        request already holds an admission slot conceptually)."""
        rid = request.rid
        backoff_sid = self.rtrace.begin(
            rid, "backoff", args={"backoff_ns": REQUEUE_BACKOFF_NS})

        def readmit() -> None:
            self.rtrace.end(rid, backoff_sid)
            self._pending.insert(0, request)
            self._qsid[rid] = self.rtrace.begin(rid, "queue")
            self._note_queue_depth()
            self._dispatch()
        self.clock.schedule(REQUEUE_BACKOFF_NS, readmit)

    def _note_queue_depth(self) -> None:
        self.obs.gauge("serve.queue.depth").set(len(self._pending))

    # -- scheduling ---------------------------------------------------------

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            self._shed_expired()
            if not self._pending:
                return
            idle = [w for w in self.workers if not w.busy]
            if not idle:
                return
            for head in self._pending:
                tried = self._tries[head.rid]
                candidates = [w for w in idle
                              if w.family == head.family
                              and w.id not in tried]
                if not candidates:
                    continue
                digest = self.store.recording_for(head).digest()
                warm = [w for w in candidates
                        if w.warm_digest == digest]
                worker = (warm or candidates)[0]
                batch = self._take_batch(head, digest)
                self._run_batch(worker, batch)
                progress = True
                break

    def _shed_expired(self) -> None:
        now = self.clock.now()
        expired = [r for r in self._pending if now > r.deadline_ns]
        for request in expired:
            self._pending.remove(request)
            self._shed(request, "deadline")
        if expired:
            self._note_queue_depth()

    def _take_batch(self, head: ServeRequest,
                    digest: str) -> List[ServeRequest]:
        """``head`` plus following fresh same-content requests, up to
        ``max_batch``. Retried and reference-mode requests go solo --
        their worker-exclusion sets are their own."""
        batch = [head]
        if self._mode[head.rid] == "fast" and not self._tries[head.rid]:
            for request in self._pending:
                if len(batch) >= self.config.max_batch:
                    break
                if request.rid == head.rid:
                    continue
                if (request.family == head.family
                        and self._mode[request.rid] == "fast"
                        and not self._tries[request.rid]
                        and self.store.recording_for(request).digest()
                        == digest):
                    batch.append(request)
        for request in batch:
            self._pending.remove(request)
        self._note_queue_depth()
        return batch

    # -- execution ----------------------------------------------------------

    def _run_batch(self, worker: Worker,
                   batch: List[ServeRequest]) -> None:
        """Execute ``batch`` synchronously on the worker machine and
        map the virtual time it took onto the server timeline.

        The server clock is parked at ``dispatch_ns`` while the batch
        runs on the worker's machine clock, so every request-trace
        span in here carries an explicit timestamp:
        ``dispatch_ns + (machine time - t0)`` scores machine-side work
        onto the server timeline -- the same mapping the response's
        ``completed_ns`` uses.
        """
        worker.busy = True
        worker.dispatches += 1
        dispatch_ns = self.clock.now()
        mode = self._mode[batch[0].rid]
        recording = self.store.recording_for(batch[0])
        self.obs.counter("serve.batches").inc()
        self.obs.histogram("serve.batch.size",
                           BATCH_BUCKETS).observe(len(batch))
        rt = self.rtrace
        attempt_sid: Dict[int, int] = {}
        for slot, request in enumerate(batch):
            rid = request.rid
            self._tries[rid].append(worker.id)
            queue_sid = self._qsid.pop(rid, None)
            if queue_sid is not None:
                rt.end(rid, queue_sid, t_ns=dispatch_ns)
            attempt_sid[rid] = rt.begin(
                rid, "attempt", t_ns=dispatch_ns,
                args={"worker": worker.id, "mode": mode,
                      "batch": len(batch), "slot": slot,
                      "try": len(self._tries[rid])})

        machine = worker.machine
        t0 = machine.clock.now()
        gpu_tape = machine.require_gpu().counters
        trace_tape = self.config.trace and gpu_tape.enabled
        results: List[Tuple[ServeRequest, Optional[Dict[str, np.ndarray]],
                            int, int]] = []

        def off() -> int:
            return machine.clock.now() - t0

        def stage(rid: int, start_off: int) -> bool:
            """Stage the recording under ``rid``'s attempt, leaving its
            ``load`` span; False when the worker could not."""
            try:
                worker.stage(recording)
                self.obs.counter(f"serve.cache.{worker.last_stage}").inc()
                args = dict(worker.replayer.last_load_info)
            except ReproError:
                args = dict(worker.replayer.last_load_info, failed=True)
            sid = rt.begin(rid, "load", psid=attempt_sid[rid],
                           t_ns=dispatch_ns + start_off, args=args)
            rt.end(rid, sid, t_ns=dispatch_ns + off())
            return "failed" not in args

        head_rid = batch[0].rid

        def wait_span(rid: int, wait_off: int) -> None:
            # Time this request spent waiting for earlier batch members
            # (and the shared staging) on this worker.
            if rid != head_rid and wait_off > 0:
                sid = rt.begin(rid, "batch.wait", psid=attempt_sid[rid],
                               t_ns=dispatch_ns)
                rt.end(rid, sid, t_ns=dispatch_ns + wait_off)

        staged = stage(head_rid, 0)
        worker.replayer.fast_path = (mode == "fast")
        attempts = WORKER_ATTEMPTS if mode == "fast" else 1
        # One group per replay call: the whole batch when it can fuse
        # into one mega-batch pass, else every request on its own. A
        # fused group that fails heals the worker and re-queues its
        # members as singles, which restage and go down the normal
        # ladder -- a fused failure costs latency, never answers.
        fusable = (staged and self.config.mega_batch and len(batch) > 1
                   and mode == "fast"
                   and all(r.fault is None for r in batch))
        groups = deque([batch] if fusable else ([r] for r in batch))
        while groups:
            group = groups.popleft()
            fused = len(group) > 1
            request = group[0]
            rid = request.rid
            asid = attempt_sid[rid]
            wait_off = off()
            if not fused:
                wait_span(rid, wait_off)
                staged = staged or stage(rid, wait_off)
                if not staged:
                    fail_off = off()
                    rt.end(rid, asid, t_ns=dispatch_ns + fail_off,
                           args={"outcome": "stage-failed"})
                    results.append((request, None, 0, fail_off))
                    continue
                self._inject(worker, request, asid)
            replay_off = off()
            tape_before = gpu_tape.totals() if trace_tape else None
            inputs = [request_inputs(recording, member.input_seed)
                      for member in group]
            try:
                if fused:
                    result = worker.replayer.replay_mega(inputs)
                    outputs = result.outputs
                else:
                    result = worker.replayer.replay(
                        inputs=inputs[0], max_attempts=attempts)
                    outputs = [result.outputs]
            except ReplayError as error:
                if fused:
                    self.obs.counter("serve.mega.fallbacks").inc()
                    rt.mark(rid, "mega.fallback", psid=asid,
                            args={"error": type(error).__name__})
                    groups.extend([member] for member in group)
                else:
                    self.obs.counter("serve.worker_failures").inc()
                    fail_off = off()
                    replay_sid = rt.begin(
                        rid, "replay", psid=asid,
                        t_ns=dispatch_ns + replay_off,
                        args={"path": mode})
                    rt.end(rid, replay_sid, t_ns=dispatch_ns + fail_off,
                           args={"failed": type(error).__name__})
                    rt.end(rid, asid, t_ns=dispatch_ns + fail_off,
                           args={"outcome": "failed"})
                    results.append((request, None, attempts, fail_off))
                worker.heal()
                staged = False
                continue
            finally:
                # A sticky fault that the family's job model happened
                # to shrug off must not leak into later dispatches.
                if request.fault is not None \
                        and request.fault.kind == "gpu-sticky":
                    worker.injector.restore_cores()
            done_off = off()
            kernels = list(gpu_tape.session_kernels) if trace_tape else []
            if fused:
                self.obs.counter("serve.mega.batches").inc()
                self.obs.counter("serve.mega.requests").inc(len(group))
                self.obs.histogram("serve.mega.size",
                                   BATCH_BUCKETS).observe(len(group))
            for slot, member in enumerate(group):
                rid = member.rid
                asid = attempt_sid[rid]
                if fused:
                    wait_span(rid, wait_off)
                self._trace_replay(rid, asid, dispatch_ns, replay_off,
                                   done_off, mode, result, kernels)
                if slot == 0 and tape_before is not None:
                    # A fused pass ran once for the whole group, so its
                    # counter delta is attributed to the head member
                    # only (double-counting it per member would inflate
                    # fleet aggregates by the fan-out).
                    self._mark_counters(
                        rid, asid, tape_before, gpu_tape,
                        extra={"batch": len(group)} if fused else None)
                if fused:
                    rt.mark(rid, "mega.fused", psid=asid,
                            args={"batch": len(group), "slot": slot,
                                  "superblocks": result.superblocks})
                rt.end(rid, asid, t_ns=dispatch_ns + done_off,
                       args={"outcome": "ok"})
                results.append((member, outputs[slot], result.attempts,
                                done_off))
        service_ns = machine.clock.now() - t0
        self.obs.histogram("serve.service_ns",
                           LATENCY_BUCKETS_NS).observe(service_ns)
        self.clock.schedule(
            service_ns,
            lambda: self._on_batch_done(worker, dispatch_ns, mode,
                                        len(batch), results))

    def _trace_replay(self, rid: int, asid: int, dispatch_ns: int,
                      start_off: int, end_off: int, mode: str,
                      result, kernels=()) -> None:
        """One ``replay`` span with its cost decomposition.

        ``upload``/``exec``/``pacing`` children carry the exact
        virtual durations the interpreter measured; they are laid out
        sequentially from the replay start (attribution cares about
        the totals, not the interleaving). The replay span's exclusive
        remainder is driver dispatch overhead plus any §5.4 retry
        backoff.

        ``kernels`` is the counter tape's ``(label, flops)`` list for
        the replay; when present, the ``exec`` span's duration is
        apportioned across ``kernel:<label>`` child spans by FLOPs
        share (integer truncation, remainder to the last kernel), so
        the profiler can attribute GPU time to individual kernels.
        """
        rt = self.rtrace
        stats = result.stats
        replay_sid = rt.begin(
            rid, "replay", psid=asid, t_ns=dispatch_ns + start_off,
            args={"path": mode, "attempts": result.attempts,
                  "jobs": stats.jobs_kicked})
        cursor = dispatch_ns + start_off
        for name, duration in (("upload", stats.upload_ns),
                               ("exec", stats.irq_wait_ns),
                               ("pacing", stats.pacing_wait_ns)):
            if duration > 0:
                sid = rt.begin(rid, name, psid=replay_sid, t_ns=cursor)
                if name == "exec" and kernels:
                    self._trace_kernels(rid, sid, cursor, duration,
                                        kernels)
                cursor += duration
                rt.end(rid, sid, t_ns=cursor)
        rt.end(rid, replay_sid, t_ns=dispatch_ns + end_off)

    def _trace_kernels(self, rid: int, exec_sid: int, start_ns: int,
                       duration: int, kernels) -> None:
        """Lay per-kernel child spans under one ``exec`` span."""
        rt = self.rtrace
        total_flops = sum(flops for _, flops in kernels)
        if total_flops <= 0:
            return
        cursor = start_ns
        spent = 0
        for index, (label, flops) in enumerate(kernels):
            if index == len(kernels) - 1:
                share = duration - spent
            else:
                # flops is a float, so guard the span timestamps back
                # to integral nanoseconds explicitly.
                share = int(duration * flops / total_flops)
            if share <= 0:
                continue
            sid = rt.begin(rid, f"kernel:{label}", psid=exec_sid,
                           t_ns=cursor)
            cursor += share
            spent += share
            rt.end(rid, sid, t_ns=cursor)

    def _mark_counters(self, rid: int, asid: int, before, tape,
                       extra=None) -> None:
        """Emit a ``gpu.counters`` mark carrying the tape delta for one
        replay (field-wise difference of :meth:`CounterTape.totals`)."""
        after = tape.totals()
        delta = {key: after[key] - before.get(key, 0)
                 for key in after
                 if after[key] - before.get(key, 0)}
        if not delta:
            return
        if extra:
            delta = {**extra, **delta}
        self.rtrace.mark(rid, "gpu.counters", psid=asid, args=delta)

    def _inject(self, worker: Worker, request: ServeRequest,
                attempt_sid: int) -> None:
        """Fire the request's scheduled hardware fault (first dispatch
        only -- the fault models an event on the machine that first
        served it; poison travels with the content instead)."""
        if request.fault is None or self._retries[request.rid] > 0 \
                or self._mode[request.rid] != "fast":
            return
        kind = request.fault.kind
        if kind not in ("gpu-transient", "gpu-sticky"):
            return
        self.rtrace.mark(request.rid, "fault.injected",
                         psid=attempt_sid, args={"kind": kind})
        gpu = worker.machine.require_gpu()
        mask = (1 << gpu.core_count) - 1
        worker.injector.offline_cores(mask)
        if kind == "gpu-transient":
            worker.machine.clock.schedule(TRANSIENT_FAULT_NS,
                                          worker.injector.restore_cores)

    def _on_batch_done(self, worker: Worker, dispatch_ns: int,
                       mode: str, batch_size: int, results) -> None:
        worker.busy = False
        end_ns = self.clock.now()
        self.obs.complete(
            f"serve:batch:{mode}", self.obs.track("serve",
                                                  f"worker-{worker.id}"),
            dispatch_ns, end_ns,
            args={"batch": batch_size, "worker": worker.id},
            cat="serve")
        for request, outputs, attempts, offset_ns in results:
            self._attempts[request.rid] += attempts
            if outputs is not None:
                path = "fast" if mode == "fast" else "reference"
                if path == "reference":
                    self.obs.counter("serve.reference_fallbacks").inc()
                self._complete(request, outputs, path, worker.id,
                               batch_size, dispatch_ns + offset_ns)
            else:
                fail_ns = dispatch_ns + offset_ns
                if end_ns > fail_ns:
                    # The failed request sat on the worker until the
                    # rest of the batch drained; that wait is part of
                    # its end-to-end latency, so it gets a span.
                    drain_sid = self.rtrace.begin(
                        request.rid, "batch.drain", t_ns=fail_ns)
                    self.rtrace.end(request.rid, drain_sid,
                                    t_ns=end_ns)
                self._on_failure(request, worker)
        self._dispatch()

    # -- the failure ladder -------------------------------------------------

    def _on_failure(self, request: ServeRequest,
                    worker: Worker) -> None:
        rid = request.rid
        if self._mode[rid] == "fast":
            family_workers = [w for w in self.workers
                              if w.family == request.family]
            untried = [w for w in family_workers
                       if w.id not in self._tries[rid]]
            if untried and self._retries[rid] < MAX_RETRIES:
                self._retries[rid] += 1
                self.obs.counter("serve.retries").inc()
                self.rtrace.mark(rid, "ladder", args={
                    "rung": "other-worker",
                    "retry": self._retries[rid]})
                self._requeue(request)
                return
            self._mode[rid] = "reference"
            self._tries[rid] = []
            self.rtrace.mark(rid, "ladder", args={"rung": "reference"})
            self._requeue(request)
            return
        # The reference interpreter rejected it too (poisoned content,
        # or a recording this board cannot replay): answer on the CPU.
        self.rtrace.mark(rid, "ladder", args={"rung": "cpu"})
        self._degrade_cpu(request, reason="replay-rejected")

    def _degrade_cpu(self, request: ServeRequest, reason: str) -> None:
        self.obs.counter("serve.cpu_fallbacks").inc()
        cpu_sid = self.rtrace.begin(request.rid, "cpu",
                                    args={"reason": reason})

        def finish() -> None:
            outputs = expected_outputs(self.store, request.family,
                                       request.model, request.input_seed)
            self.rtrace.end(request.rid, cpu_sid)
            self._complete(request, outputs, "cpu", -1, 1,
                           self.clock.now(), degrade_reason=reason)
        self.clock.schedule(CPU_FALLBACK_NS, finish)

    # -- terminal responses -------------------------------------------------

    def _complete(self, request: ServeRequest,
                  outputs: Dict[str, np.ndarray], path: str,
                  worker_id: int, batch_size: int, completed_ns: int,
                  degrade_reason: str = "") -> None:
        status = "ok" if path == "fast" else "degraded"
        self.obs.counter(f"serve.requests.{status}").inc()
        self.obs.histogram("serve.latency_ns",
                           LATENCY_BUCKETS_NS).observe(
            completed_ns - request.arrival_ns)
        self.rtrace.finish(request.rid, status, t_ns=completed_ns,
                           args={"path": path,
                                 "worker": worker_id,
                                 "reason": degrade_reason})
        self._responses[request.rid] = ServeResponse(
            rid=request.rid, status=status, path=path,
            family=request.family, model=request.model,
            input_seed=request.input_seed, worker=worker_id,
            arrival_ns=request.arrival_ns, completed_ns=completed_ns,
            attempts=self._attempts.get(request.rid, 0),
            retries=self._retries.get(request.rid, 0),
            batch_size=batch_size,
            fault=request.fault.kind if request.fault else "",
            shed_reason=degrade_reason,
            outputs=outputs)
        if self.on_complete is not None:
            self.on_complete(self._responses[request.rid])

    def _shed(self, request: ServeRequest, reason: str) -> None:
        self.obs.counter("serve.requests.shed").inc()
        queue_sid = self._qsid.pop(request.rid, None)
        if queue_sid is not None:
            self.rtrace.end(request.rid, queue_sid)
        self.rtrace.finish(request.rid, "shed",
                           args={"reason": reason})
        self._responses[request.rid] = ServeResponse(
            rid=request.rid, status="shed", path="",
            family=request.family, model=request.model,
            input_seed=request.input_seed, worker=-1,
            arrival_ns=request.arrival_ns,
            completed_ns=self.clock.now(),
            attempts=self._attempts.get(request.rid, 0),
            retries=self._retries.get(request.rid, 0),
            batch_size=0,
            fault=request.fault.kind if request.fault else "",
            shed_reason=reason)
        if self.on_complete is not None:
            self.on_complete(self._responses[request.rid])
