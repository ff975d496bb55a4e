"""The column-held request tracer against a dict-per-event reference.

:class:`DictRequestTracer` is the tracer as it was before events moved
into columns -- one schema-v1 dict per event, appended to a list --
with the one behaviour change made since: an auto-closed span's
``end`` repeats the span's name. Seeded emission sequences drive both;
every consumer must read the same thing from either.
"""

import random
import tracemalloc

import pytest

from repro.core.replayer import clear_load_cache
from repro.obs import rtrace
from repro.obs.rtrace import (NULL_RTRACE, ROOT_SID, TERMINAL,
                              EventView, RequestTracer,
                              events_to_chrome, events_to_jsonl,
                              span_trees, validate_events)
from repro.bench.workloads import zoo_store
from repro.serve import (LoadgenConfig, ReplayServer, ServerConfig,
                         generate_requests)
from repro.soc.clock import VirtualClock


class DictRequestTracer:
    """Reference model: one dict per event, ``seq`` as a field."""

    def __init__(self, clock):
        self._clock = clock
        self.events = []
        self._seq = 0
        self._open = {}
        self._next_sid = {}
        self._finished = {}

    def _stamp(self, t_ns):
        return self._clock.now() if t_ns is None else t_ns

    def _emit(self, t_ns, rid, ev, name, sid, psid, args):
        self.events.append({
            "seq": self._seq, "t_ns": t_ns, "rid": rid, "ev": ev,
            "name": name, "sid": sid, "psid": psid,
            "args": dict(args) if args else {},
        })
        self._seq += 1

    def meta(self, name, args=None, t_ns=None):
        self._emit(self._stamp(t_ns), -1, "meta", name, -1, -1, args)

    def submit(self, rid, t_ns=None, args=None):
        t = self._stamp(t_ns)
        self._open[rid] = {ROOT_SID: "request"}
        self._next_sid[rid] = ROOT_SID + 1
        self._finished[rid] = False
        self._emit(t, rid, "begin", "request", ROOT_SID, -1, args)
        return ROOT_SID

    def begin(self, rid, name, psid=ROOT_SID, t_ns=None, args=None):
        t = self._stamp(t_ns)
        sid = self._next_sid.get(rid, ROOT_SID + 1)
        self._next_sid[rid] = sid + 1
        self._open.setdefault(rid, {})[sid] = name
        self._emit(t, rid, "begin", name, sid, psid, args)
        return sid

    def end(self, rid, sid, t_ns=None, args=None):
        t = self._stamp(t_ns)
        name = self._open.get(rid, {}).pop(sid, None)
        self._emit(t, rid, "end", name or "?", sid, -1, args)

    def mark(self, rid, name, psid=ROOT_SID, t_ns=None, args=None):
        self._emit(self._stamp(t_ns), rid, "mark", name, -1, psid, args)

    def finish(self, rid, status, t_ns=None, args=None):
        t = self._stamp(t_ns)
        open_spans = self._open.get(rid, {})
        for sid in sorted((s for s in open_spans if s != ROOT_SID),
                          reverse=True):
            name = open_spans.pop(sid)
            self._emit(t, rid, "end", name, sid, -1, {"auto": True})
        if open_spans.pop(ROOT_SID, None) is not None:
            self._emit(t, rid, "end", "request", ROOT_SID, -1,
                       {"status": status})
        terminal_args = {"status": status}
        if args:
            terminal_args.update(args)
        self._emit(t, rid, "mark", TERMINAL, -1, ROOT_SID, terminal_args)
        self._finished[rid] = True

    def finished(self, rid):
        return self._finished.get(rid, False)


NAMES = ("queue", "attempt", "replay", "load", "upload", "kernel:conv",
         "kernel:fc", "backoff", "cpu")
MARKS = ("ladder", "vault.fetch", "gpu.counters", "fault.injected")


def _args(rng):
    """Empty, None or a few JSON-safe values of mixed types."""
    roll = rng.random()
    if roll < 0.4:
        return None
    if roll < 0.5:
        return {}
    keys = rng.sample(("worker", "rung", "bytes", "ratio", "ok", "path",
                       "jobs"), rng.randint(1, 4))
    values = (rng.randint(0, 3), rng.randint(0, 10 ** 12),
              rng.random(), 1.0, True, None, "fast", [1, 2])
    return {key: rng.choice(values) for key in keys}


def _drive(seed, tracers):
    """One seeded emission sequence, applied identically to every
    tracer: meta, submits, nested begin/end, marks, ends of unknown
    spans, finishes with spans left open, double finishes, stamps
    that run backwards and implicit clock stamps."""
    rng = random.Random(seed)
    clock = tracers[0]._clock
    live = {}  # rid -> open child sids
    next_rid = 0
    for tracer in tracers:
        tracer.meta("run", args={"seed": seed})
    for _ in range(rng.randint(20, 120)):
        clock.advance(rng.randint(0, 50))
        t_ns = None if rng.random() < 0.3 else \
            max(0, clock.now() + rng.randint(-400, 400))
        roll = rng.random()
        if roll < 0.15 or not live:
            rid, next_rid = next_rid, next_rid + 1
            live[rid] = []
            args = _args(rng)
            results = {t.submit(rid, t_ns=t_ns, args=args)
                       for t in tracers}
        elif roll < 0.45:
            rid = rng.choice(sorted(live))
            name = rng.choice(NAMES)
            psid = rng.choice([ROOT_SID] + live[rid])
            args = _args(rng)
            results = {t.begin(rid, name, psid=psid, t_ns=t_ns,
                               args=args) for t in tracers}
            live[rid].append(next(iter(results)))
        elif roll < 0.7:
            rid = rng.choice(sorted(live))
            sid = live[rid].pop() if live[rid] and rng.random() < 0.9 \
                else 99
            args = _args(rng)
            results = {t.end(rid, sid, t_ns=t_ns, args=args)
                       for t in tracers}
        elif roll < 0.85:
            rid = rng.choice(sorted(live))
            name = rng.choice(MARKS)
            psid = rng.choice([ROOT_SID] + live[rid])
            args = _args(rng)
            results = {t.mark(rid, name, psid=psid, t_ns=t_ns,
                              args=args) for t in tracers}
        else:
            rid = rng.choice(sorted(live))
            status = rng.choice(("ok", "degraded", "shed"))
            args = _args(rng)
            results = {t.finish(rid, status, t_ns=t_ns, args=args)
                       for t in tracers}
            if rng.random() < 0.9:
                del live[rid]
        assert len(results) == 1, "tracers returned different sids"
    for rid in sorted(live):
        if rng.random() < 0.5:
            for tracer in tracers:
                tracer.finish(rid, "ok")
    return next_rid


@pytest.mark.parametrize("seed", range(40))
def test_columns_read_like_dicts(seed):
    clock = VirtualClock()
    ref, col = DictRequestTracer(clock), RequestTracer(clock)
    rids = _drive(seed, [ref, col])
    events = col.events
    assert isinstance(events, EventView)
    assert len(events) == len(ref.events)
    assert list(events) == ref.events
    assert events == ref.events
    assert [events[i] for i in range(-len(events), 0)] == ref.events
    assert events_to_jsonl(events) == events_to_jsonl(ref.events)
    assert events_to_chrome(events) == events_to_chrome(ref.events)
    assert span_trees(events) == span_trees(ref.events)
    expected = range(rids)
    assert validate_events(events, expected) == \
        validate_events(ref.events, expected)
    for rid in expected:
        assert col.finished(rid) == ref.finished(rid)


def test_views_are_read_only_snapshots():
    tracer = RequestTracer(VirtualClock())
    tracer.submit(1, t_ns=0, args={"family": "mali"})
    view = tracer.events
    event = view[0]
    event["args"]["family"] = "v3d"
    event["name"] = "changed"
    assert view[0]["args"] == {"family": "mali"}
    assert view[0]["name"] == "request"
    tracer.finish(1, "ok", t_ns=10)
    assert len(view) == 1
    assert len(tracer.events) == 3
    with pytest.raises(IndexError):
        view[1]
    for name in ("append", "extend", "sort", "__setitem__"):
        assert not hasattr(view, name)
        assert not hasattr(NULL_RTRACE.events, name)
    assert NULL_RTRACE.events == [] and len(NULL_RTRACE.events) == 0


# -- a fixed serve ----------------------------------------------------------

#: The obs benchmark's mix at a size that fills several array blocks.
MIX = (("mali", "mnist"), ("mali", "kws"))
REQUESTS = 160

#: Bytes that ``repro/obs/rtrace.py`` holds per event after the fixed
#: serve below: the five columns, the args rows of the events that
#: carry any and the per-request span bookkeeping. Measured at
#: 49.01-49.05 (object free lists left by earlier tests move it a
#: little); the ceiling is that plus about half a percent. Re-pin
#: downwards only.
BYTES_PER_EVENT_CEILING = 49.3


def _fixed_serve():
    clear_load_cache()
    stream = generate_requests(LoadgenConfig(
        requests=REQUESTS, seed=11, mix=MIX, mean_interarrival_ns=0,
        deadline_ns=0, fault_rate=0.1))
    server = ReplayServer(zoo_store(MIX), ServerConfig(
        families=("mali",) * 3, seed=11, queue_depth=REQUESTS,
        max_batch=4))
    report = server.serve(stream)
    server.close()
    return report


@pytest.fixture(scope="module")
def traced_serve():
    _fixed_serve()  # warm the zoo and load caches outside the trace
    tracemalloc.start()
    try:
        report = _fixed_serve()
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, rtrace.__file__)])
    finally:
        tracemalloc.stop()
    return report, sum(stat.size for stat in held.statistics("filename"))


def test_tracer_bytes_per_event_pinned(traced_serve):
    report, held = traced_serve
    per_event = held / len(report.trace_events)
    assert per_event <= BYTES_PER_EVENT_CEILING, (
        f"the tracer holds {per_event:.2f} B per event over "
        f"{len(report.trace_events)} events (ceiling "
        f"{BYTES_PER_EVENT_CEILING})")


def test_len_of_report_trace_builds_no_dict(traced_serve):
    events = traced_serve[0].trace_events
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        count = len(events)
        len_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        events[count // 2]
        index_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert count > 1000
    assert index_peak >= 300, "control: one event should build a dict"
    assert len_peak < 100
