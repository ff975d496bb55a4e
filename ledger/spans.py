"""Host-CPU span tracer installed from the benchmark, not from the program.

A span is one call of a layer's public entry point: name, layer, the
span that caused it, start and end on ``time.process_time_ns``. Spans
stay in memory until the run ends; :meth:`Tracer.write` dumps them as
Chrome trace JSON. A layer's *self* time is its spans' durations minus
the part their child spans cover, so self times of one tree add up to
the root's duration exactly.

Entry points called tens of thousands of times per run (physical
memory reads, MMU walks) are *counted*, not timed: a timing wrapper
would cost more than the call. Their per-call time comes from the
isolated micro-pass in :mod:`layers`.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

_now = time.process_time_ns

#: Layer name of the spans the harness opens around each timed op.
OP_LAYER = "op"


class Tracer:
    """Wraps attributes of the program's modules and classes with span
    or counter wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self) -> None:
        #: One row per span: [name, layer, parent index, t0_ns, t1_ns].
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._points: List[Tuple[object, str, object]] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, owner: object, attr: str, make) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: object = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def begin(self, name: str, layer: str) -> list:
        """Open a span under the innermost open one; returns its row."""
        stack = self._stack
        row = [name, layer, stack[-1] if stack else -1, 0, 0]
        stack.append(len(self.spans))
        self.spans.append(row)
        row[3] = _now()
        return row

    def end(self, row: list) -> None:
        row[4] = _now()
        self._stack.pop()

    def _span_wrapper(self, name: str, layer: str):
        begin, end = self.begin, self.end

        def make(orig):
            def wrapper(*args, **kwargs):
                row = begin(name, layer)
                try:
                    return orig(*args, **kwargs)
                finally:
                    end(row)
            wrapper.__wrapped__ = orig
            return wrapper
        return make

    def _count_wrapper(self, key: str):
        counts = self.counts

        def make(orig):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return orig(*args, **kwargs)
            wrapper.__wrapped__ = orig
            return wrapper
        return make

    def add_span(self, layer: str, name: str,
                 points: Sequence[Tuple[object, str]]) -> None:
        """Register one entry point. ``points`` lists every (owner,
        attribute) through which callers reach it: the defining module
        plus each module that imported it by name."""
        make = self._span_wrapper(name, layer)
        self._points.extend((owner, attr, make) for owner, attr in points)

    def add_count(self, key: str, owner: object, attr: str) -> None:
        self._points.append((owner, attr, self._count_wrapper(key)))

    def install(self) -> None:
        if self._undo:
            return
        for owner, attr, make in self._points:
            self._wrap(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- analysis ------------------------------------------------------------

    def durations_ns(self, name: str) -> List[int]:
        return [s[4] - s[3] for s in self.spans if s[0] == name]

    def self_times_ns(self) -> List[int]:
        """Per-span self time: duration minus direct children."""
        out = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] >= 0:
                out[s[2]] -= s[4] - s[3]
        return out

    def op_breakdown(self) -> Tuple[int, Dict[str, int], Dict[str, int]]:
        """Over every tree rooted at an op span: (total op ns, self ns
        by layer, inclusive ns by span name). The op span's own self
        time -- what no wrapped entry point covers -- is the ``op``
        layer's share."""
        self_ns = self.self_times_ns()
        in_op = [False] * len(self.spans)
        total = 0
        by_layer: Dict[str, int] = {}
        by_name: Dict[str, int] = {}
        for i, (name, layer, parent, t0, t1) in enumerate(self.spans):
            in_op[i] = layer == OP_LAYER or (parent >= 0 and in_op[parent])
            if not in_op[i]:
                continue
            if layer == OP_LAYER and (parent < 0 or not in_op[parent]):
                total += t1 - t0
            by_layer[layer] = by_layer.get(layer, 0) + self_ns[i]
            # Inclusive time counts a name once per tree path: a nested
            # call of the same name is already inside its ancestor.
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][2]
            if ancestor < 0:
                by_name[name] = by_name.get(name, 0) + t1 - t0
        return total, by_layer, by_name

    def write(self, path: str, meta: Optional[dict] = None) -> None:
        """Chrome trace JSON (``ts``/``dur`` in µs of process CPU time);
        ``args.parent`` is the index of the causing span."""
        events = [{"name": name, "cat": layer, "ph": "X", "pid": 1,
                   "tid": 1, "ts": t0 / 1e3, "dur": (t1 - t0) / 1e3,
                   "args": {"id": i, "parent": parent}}
                  for i, (name, layer, parent, t0, t1)
                  in enumerate(self.spans)]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "otherData": dict(meta or {}),
                       "counts": dict(self.counts)}, handle)


def install_program_spans(tracer: Tracer) -> None:
    """Register the span and counter points of every layer. Imports
    the program here so a tracer can be built before numpy loads."""
    import repro.bench.workloads as bench_workloads
    import repro.core.harness as core_harness
    import repro.core.replayer as replayer_mod
    import repro.core.verifier as verifier_mod
    import repro.core.compiled as compiled_mod
    import repro.gpu.device as gpu_device
    import repro.gpu.shader_exec as shader_exec
    import repro.store.chunks as chunks_mod
    import repro.surgery as surgery_pkg
    import repro.surgery.analyze as analyze_mod
    import repro.surgery.composer as composer_mod
    import repro.surgery.slicer as slicer_mod
    from repro.core.recording import Recording
    from repro.core.replayer import Replayer
    from repro.fleet.admission import AdmissionController
    from repro.fleet.autoscale import PoolAutoscaler
    from repro.fleet.engine import Fleet
    from repro.fleet.router import DigestRouter
    from repro.gpu.mmu import GpuMmu, PageTableBuilder
    from repro.obs.rtrace import RequestTracer
    from repro.obs.session import Observability
    from repro.obs.timeseries import TimeSeriesCollector
    from repro.serve.engine import ReplayServer
    from repro.soc.machine import Machine
    from repro.soc.memory import PageAllocator, PhysicalMemory
    from repro.stack.framework.base import NetworkRunner
    from repro.store.vault import Vault

    def aliases(name: str, *modules) -> List[Tuple[object, str]]:
        return [(m, name) for m in modules if hasattr(m, name)]

    span = tracer.add_span
    span("soc", "soc.Machine.create", [(Machine, "create")])
    span("soc", "soc.PageAllocator.alloc_pages",
         [(PageAllocator, "alloc_pages")])
    span("gpu", "gpu.execute_program",
         aliases("execute_program", shader_exec, gpu_device))
    span("gpu", "gpu.execute_program_batched",
         aliases("execute_program_batched", shader_exec, gpu_device))
    for method in ("init", "load", "replay", "replay_mega",
                   "reset_session", "cleanup"):
        span("core", f"core.Replayer.{method}", [(Replayer, method)])
    span("core", "core.Recording.from_bytes", [(Recording, "from_bytes")])
    span("core", "core.Recording.to_bytes", [(Recording, "to_bytes")])
    span("core", "core.verify_recording",
         aliases("verify_recording", verifier_mod, replayer_mod))
    span("core", "core.compile_program",
         aliases("compile_program", compiled_mod, replayer_mod))
    span("core", "core.record_inference",
         aliases("record_inference", core_harness, bench_workloads))
    span("stack", "stack.build_stack", [(bench_workloads, "build_stack")])
    span("stack", "stack.NetworkRunner.run", [(NetworkRunner, "run")])
    for method in ("pack", "fetch", "verify", "replicate_from"):
        span("store", f"store.Vault.{method}", [(Vault, method)])
    span("store", "store.chunks.split", [(chunks_mod, "split")])
    span("serve", "serve.ReplayServer.boot", [(ReplayServer, "__init__")])
    for method in ("serve", "submit", "finish", "add_worker", "close"):
        span("serve", f"serve.ReplayServer.{method}",
             [(ReplayServer, method)])
    span("fleet", "fleet.Fleet.build", [(Fleet, "__init__")])
    span("fleet", "fleet.Fleet.serve", [(Fleet, "serve")])
    span("fleet", "fleet.DigestRouter.route", [(DigestRouter, "route")])
    span("fleet", "fleet.PoolAutoscaler.maybe_scale",
         [(PoolAutoscaler, "maybe_scale")])
    span("fleet", "fleet.AdmissionController.reject_reason",
         [(AdmissionController, "reject_reason")])
    span("obs", "obs.TimeSeriesCollector.scrape",
         [(TimeSeriesCollector, "scrape")])
    span("obs", "obs.Observability.snapshot", [(Observability, "snapshot")])
    span("surgery", "surgery.analyze_recording",
         aliases("analyze_recording", analyze_mod, slicer_mod,
                 composer_mod, surgery_pkg))
    span("surgery", "surgery.slice_job",
         aliases("slice_job", slicer_mod, surgery_pkg))
    span("surgery", "surgery.verify_slice",
         aliases("verify_slice", slicer_mod, surgery_pkg))
    span("surgery", "surgery.compose",
         aliases("compose", composer_mod, surgery_pkg))

    count = tracer.add_count
    count("soc.mem", PhysicalMemory, "read")
    count("soc.mem", PhysicalMemory, "write")
    count("gpu.mmu", GpuMmu, "translate")
    count("gpu.mmu", PageTableBuilder, "map_page")
    count("gpu.mmu", PageTableBuilder, "unmap_page")
    for method in ("submit", "begin", "end", "mark", "finish", "meta"):
        count("obs.rtrace", RequestTracer, method)
