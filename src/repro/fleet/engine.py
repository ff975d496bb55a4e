"""The simulated fleet: N replay-serving nodes on one virtual clock.

Determinism across nodes comes from sharing *one*
:class:`~repro.soc.clock.VirtualClock`: every arrival, route hop,
batch completion, autoscale provisioning and backoff on every node is
an event in a single totally-ordered queue ((due_ns, seq) ordering),
so a same-seed fleet run replays the exact same interleaving --
routing decisions, scale events and metric snapshots included. There
is no wall clock anywhere; "concurrency" between nodes is just event
interleaving, which is why the differential suite can demand
byte-identical answers from a 3-node fleet and a single server.

Request flow::

    loadgen stream -> Fleet._on_arrival (admission: quotas, priority)
                   -> DigestRouter.route (affinity / power-of-two)
                   -> ROUTE_HOP_NS later: node ReplayServer.submit
                   -> node ladder (PR 4) -> on_complete hook
                   -> router/admission bookkeeping + fleet.* metrics

The fleet owns a ``fleet.*`` metrics registry; each node keeps its own
``serve.*`` registry, reported per node under a ``node<i>.`` namespace
and merged fleet-wide via :func:`repro.obs.metrics.merge_snapshots`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import weakly
from repro.errors import ReproError
from repro.fleet.admission import AdmissionController
from repro.fleet.autoscale import PoolAutoscaler
from repro.fleet.router import DigestRouter
from repro.obs.metrics import (LATENCY_BUCKETS_NS, merge_snapshots,
                               namespace_snapshot)
from repro.obs.rtrace import NULL_RTRACE, RequestTracer, SCHEMA
from repro.obs.session import Observability
from repro.serve.engine import (RecordingStore, ReplayServer,
                                ServeReport, ServeResponse,
                                ServerConfig)
from repro.serve.loadgen import ServeRequest
from repro.soc.clock import VirtualClock
from repro.units import MS, SEC, US

#: Workers per hosted family a node boots with (the autoscaler floor).
WORKERS_MIN = 1
#: Modeled router -> node network hop.
ROUTE_HOP_NS = 50 * US
#: Affinity spills to power-of-two-choices when every warm node has at
#: least this many requests in flight.
AFFINITY_QUEUE_THRESHOLD = 8
#: Autoscaler cadence, provisioning delay and growth trigger (pending
#: requests per worker).
AUTOSCALE_INTERVAL_NS = 2 * MS
SCALE_UP_NS = 5 * MS
BACKLOG_PER_WORKER = 2


def content_key(request: ServeRequest) -> str:
    """The router's affinity key: identifies the recording content a
    node must stage for this request (poisoned variants have a
    different digest, hence a different key) without forcing a vault
    fetch at routing time."""
    key = f"{request.family}/{request.model}"
    if request.fault is not None and request.fault.kind == "poison":
        key += "+poison"
    return key


@dataclass(frozen=True)
class FleetConfig:
    """Cluster shape and fleet-level policy knobs. Node-level serving
    knobs mirror :class:`repro.serve.engine.ServerConfig`."""

    nodes: int = 3
    #: Board families every node hosts a worker pool for.
    node_families: Tuple[str, ...] = ("mali", "v3d")
    #: Per-family pool ceiling on each node (the floor is
    #: :data:`WORKERS_MIN`).
    workers_max: int = 3
    seed: int = 2026
    #: Per-node admission queue bound.
    queue_depth: int = 256
    max_batch: int = 4
    trace: bool = True
    #: (tenant, max in-flight) pairs; absent tenants are unlimited.
    quotas: Tuple[Tuple[str, int], ...] = ()

    def node_config(self, node_id: int) -> ServerConfig:
        """The ServerConfig one node boots with (``WORKERS_MIN``
        workers per hosted family; the autoscaler grows from there).
        Node seeds are deterministic functions of the fleet seed, so
        same-seed fleets build identical machines. Nodes keep no time
        series: a fleet run would scrape N registries per interval."""
        families = tuple(family for family in self.node_families
                         for _ in range(WORKERS_MIN))
        return ServerConfig(
            families=families,
            seed=self.seed + 7919 * (node_id + 1),
            queue_depth=self.queue_depth,
            max_batch=self.max_batch,
            trace=self.trace,
            timeseries=False)


@dataclass
class FleetReport:
    """Everything one fleet run produced."""

    submitted: int
    #: Terminal answers, merged across nodes + router sheds, by rid.
    responses: List[ServeResponse]
    node_reports: List[ServeReport]
    #: The fleet-level registry (``fleet.*`` names).
    snapshot: Dict[str, Dict[str, object]]
    #: Node registries merged name-wise (``serve.*`` totals).
    aggregate: Dict[str, Dict[str, object]]
    #: Per-node registries under ``node<i>.`` prefixes.
    node_snapshots: List[Dict[str, Dict[str, object]]]
    #: The router's decision log, in routing order.
    routing: List[Dict[str, object]]
    #: Every autoscale event fleet-wide, by (t_ns, node, family).
    autoscale: List[Dict[str, object]]
    makespan_ns: int
    #: Submitted rids with no terminal answer anywhere (must be []).
    lost: List[int] = field(default_factory=list)
    #: Rids answered by more than one node (must be []).
    duplicates: List[int] = field(default_factory=list)
    #: Shared request-scoped trace (router + node spans, one tree per
    #: request). NOT part of :meth:`summary`, same contract as
    #: :class:`ServeReport`.
    trace_events: Sequence[dict] = field(default_factory=list,
                                         repr=False)

    counts = ServeReport.counts
    latency_percentiles = ServeReport.latency_percentiles

    def throughput_rps(self) -> float:
        return self.snapshot["gauges"].get("fleet.throughput_rps", 0.0)

    def summary(self) -> Dict[str, object]:
        """Deterministic JSON-able digest of the whole fleet run (the
        determinism tests compare these byte-for-byte)."""
        return {
            "submitted": self.submitted,
            "makespan_ns": self.makespan_ns,
            "counts": self.counts(),
            "lost": list(self.lost),
            "duplicates": list(self.duplicates),
            "snapshot": self.snapshot,
            "aggregate": self.aggregate,
            "nodes": self.node_snapshots,
            "routing": self.routing,
            "autoscale": self.autoscale,
            "responses": [r.summary() for r in self.responses],
        }


class Fleet:
    """One-shot simulated cluster: construct, ``serve(requests)``,
    read the :class:`FleetReport`, ``close()``."""

    def __init__(self,
                 stores: Union[RecordingStore,
                               Sequence[RecordingStore]],
                 config: Optional[FleetConfig] = None):
        self.config = config or FleetConfig()
        cfg = self.config
        if isinstance(stores, RecordingStore):
            stores = [stores] * cfg.nodes
        if len(stores) != cfg.nodes:
            raise ReproError(
                f"need {cfg.nodes} stores, got {len(stores)}")
        self.stores = list(stores)
        self.clock = VirtualClock()
        self.obs = Observability(self.clock)
        #: One shared tracer: routing and node spans land in a single
        #: causal tree per request.
        self.rtrace = (RequestTracer(self.clock)
                       if cfg.trace else NULL_RTRACE)
        self.servers: List[ReplayServer] = []
        self.autoscalers: List[PoolAutoscaler] = []
        for node_id in range(cfg.nodes):
            server = ReplayServer(self.stores[node_id],
                                  cfg.node_config(node_id),
                                  clock=self.clock,
                                  rtrace=self.rtrace)
            # The fleet owns its nodes; a node's hook holds the fleet
            # weakly, so a dropped fleet is freed by reference count.
            server.on_complete = partial(weakly(self._on_node_complete),
                                         node_id)
            self.servers.append(server)
            self.autoscalers.append(PoolAutoscaler(
                node_id, server, cfg.node_families, self.clock,
                min_workers=WORKERS_MIN,
                max_workers=cfg.workers_max,
                interval_ns=AUTOSCALE_INTERVAL_NS,
                scale_up_ns=SCALE_UP_NS,
                backlog_per_worker=BACKLOG_PER_WORKER,
                obs=self.obs))
        self.router = DigestRouter(
            cfg.nodes, queue_threshold=AFFINITY_QUEUE_THRESHOLD,
            seed=cfg.seed, obs=self.obs)
        self.admission = AdmissionController(dict(cfg.quotas),
                                             obs=self.obs)
        #: Router-level sheds (quota / priority); node answers live in
        #: the node servers until finalize.
        self._responses: Dict[int, ServeResponse] = {}
        self._tenant_of: Dict[int, str] = {}
        self._submitted: List[ServeRequest] = []
        self._served = False
        self.obs.gauge("fleet.nodes").set(cfg.nodes)

    # -- public API ---------------------------------------------------------

    def serve(self, requests: List[ServeRequest]) -> FleetReport:
        """Run the whole stream to completion on the shared timeline."""
        if self._served:
            raise ReproError("Fleet.serve is one-shot; build a new "
                             "fleet")
        self._served = True
        cfg = self.config
        ordered = sorted(requests, key=lambda r: (r.arrival_ns, r.rid))
        self._submitted = ordered
        self.rtrace.meta("fleet", args={
            "schema": SCHEMA, "nodes": cfg.nodes,
            "requests": len(ordered), "seed": cfg.seed,
            "families": list(cfg.node_families),
            "workers_min": WORKERS_MIN,
            "workers_max": cfg.workers_max})
        for request in ordered:
            self.clock.schedule(request.arrival_ns,
                                lambda r=request: self._on_arrival(r))
        # Autoscalers piggyback on the drain loop (see
        # repro.fleet.autoscale for why they are not clock events of
        # their own).
        while self.clock.advance_to_next_event():
            now = self.clock.now()
            for scaler in self.autoscalers:
                scaler.maybe_scale(now)
        now = self.clock.now()
        for scaler in self.autoscalers:
            scaler.drain(now)
        node_reports = [server.finish() for server in self.servers]
        return self._finalize(node_reports)

    def close(self) -> None:
        for server in self.servers:
            server.close()

    # -- admission + routing ------------------------------------------------

    def _on_arrival(self, request: ServeRequest) -> None:
        cfg = self.config
        self.obs.counter("fleet.requests.submitted").inc()
        candidates = list(range(cfg.nodes))
        min_pending = min(s.pending_count() for s in self.servers)
        # Best-effort traffic sheds once every node's queue is half full.
        reason = self.admission.reject_reason(
            request, min_pending, cfg.queue_depth // 2)
        if reason is not None:
            self._shed_at_router(request, reason)
            return
        node = self.router.route(request.rid, content_key(request),
                                 candidates)
        self.admission.admit(request)
        self._tenant_of[request.rid] = request.tenant
        self.obs.counter("fleet.router.hops").inc()
        self.clock.schedule(
            ROUTE_HOP_NS,
            lambda: self.servers[node].submit(request))

    def _shed_at_router(self, request: ServeRequest,
                        reason: str) -> None:
        rid = request.rid
        now = self.clock.now()
        self.rtrace.submit(rid, args={
            "family": request.family, "model": request.model,
            "deadline_ns": request.deadline_ns,
            "fault": request.fault.kind if request.fault else ""})
        self.rtrace.finish(rid, "shed", args={"reason": reason})
        if reason == "tenant-quota":
            self.obs.counter("fleet.admission.quota_shed").inc()
        else:
            self.obs.counter("fleet.admission.priority_shed").inc()
        self.obs.counter("fleet.requests.shed").inc()
        self.obs.histogram("fleet.latency_ns",
                           LATENCY_BUCKETS_NS).observe(0)
        self._responses[rid] = ServeResponse.of(request, "shed", now,
                                                shed_reason=reason)

    def _on_node_complete(self, node_id: int,
                          response: ServeResponse) -> None:
        self.router.note_done(node_id)
        tenant = self._tenant_of.pop(response.rid, "")
        if tenant:
            self.admission.release(tenant)
        self.obs.counter(f"fleet.requests.{response.status}").inc()
        self.obs.histogram("fleet.latency_ns",
                           LATENCY_BUCKETS_NS).observe(
            response.latency_ns)

    # -- finalize -----------------------------------------------------------

    def _finalize(self, node_reports: List[ServeReport]
                  ) -> FleetReport:
        responses = dict(self._responses)
        duplicates: List[int] = []
        for report in node_reports:
            for response in report.responses:
                if response.rid in responses:
                    duplicates.append(response.rid)
                responses[response.rid] = response
        lost = sorted(r.rid for r in self._submitted
                      if r.rid not in responses)
        makespan = self.clock.now()
        served = sum(1 for r in responses.values()
                     if r.status in ("ok", "degraded"))
        self.obs.gauge("fleet.makespan_ns").set(makespan)
        self.obs.gauge("fleet.throughput_rps").set(
            served * SEC / makespan if makespan else 0.0)
        self.obs.gauge("fleet.workers").set(
            sum(len(s.workers) for s in self.servers))
        self.obs.gauge("fleet.workers.peak").set(
            sum(sum(scaler.peak.values())
                for scaler in self.autoscalers))
        autoscale = sorted(
            (event for scaler in self.autoscalers
             for event in scaler.events),
            key=lambda e: (e["t_ns"], e["node"], e["family"]))
        return FleetReport(
            submitted=len(self._submitted),
            responses=[responses[rid] for rid in sorted(responses)],
            node_reports=node_reports,
            snapshot=self.obs.snapshot(),
            aggregate=merge_snapshots(
                [r.snapshot for r in node_reports]),
            node_snapshots=[
                namespace_snapshot(f"node{i}", r.snapshot)
                for i, r in enumerate(node_reports)],
            routing=[dict(d) for d in self.router.decisions],
            autoscale=autoscale,
            makespan_ns=makespan,
            lost=lost,
            duplicates=sorted(set(duplicates)),
            trace_events=self.rtrace.events)
