"""Request-scoped tracing for the serving path (event-log schema v1).

The span tracer (:mod:`repro.obs.tracer`) answers "what was this
*machine* doing over time"; it cannot answer "where did *request 173*
spend its 40 ms", because one request hops between the server queue,
several workers, the vault and the CPU fallback. This module owns
that second question: every request admitted by the serving engine
gets a :class:`RequestTracer` context that follows it through
admission, queueing, batching, worker assignment, vault fetches,
load-cache hits, the replay fast path, every failure-ladder rung and
the final completion or shed -- one causally-linked span tree per
request, on the deterministic virtual clock.

Event-log schema v1
-------------------

The log reads as a flat sequence of dict events (the tracer holds
it in columns and builds each dict on demand, see
:class:`EventView`); exported JSONL carries one event per line,
sorted by ``(t_ns, seq)`` with compact sorted-key encoding, so
same-seed runs serialize byte-identically. Fields:

- ``seq``   -- global emission order (tie-break within one instant);
- ``t_ns``  -- virtual-time stamp (integer nanoseconds);
- ``rid``   -- request id, or ``-1`` for run-level ``meta`` events;
- ``ev``    -- ``begin`` | ``end`` | ``mark`` | ``meta``;
- ``name``  -- span or mark name (``end`` repeats the span's name);
- ``sid``   -- span id, an ordinal *per request* (root span is 0);
- ``psid``  -- causal parent span id (root has ``-1``);
- ``args``  -- free-form JSON-safe details.

Causality is explicit: the engine passes the parent ``sid`` when it
opens a child span, so the tree survives the request migrating
between workers (there is no thread-local "current span" to lose).
Every request's tree is rooted at one ``request`` span (opened by
:meth:`RequestTracer.submit`) and closed exactly once by
:meth:`RequestTracer.finish`, which also emits the single ``terminal``
mark carrying the outcome status. :func:`validate_events` checks all
of these invariants; :func:`span_trees` rebuilds the trees for the
attribution analyzer (:mod:`repro.obs.attribution`) and the SLO
engine (:mod:`repro.obs.slo`).

Determinism contract: like the rest of the obs layer, the request
tracer only ever *reads* the clock. Timestamps may also be supplied
explicitly (``t_ns=...``) because the serving engine scores batch
work onto its timeline before the server clock advances past it.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: Schema tag stamped on the run-level header meta event.
SCHEMA = "rtrace.v1"

#: Span id of every request's root ``request`` span.
ROOT_SID = 0

#: Name of the one mark that ends a request's story.
TERMINAL = "terminal"


class RequestTracer:
    """Collects request-scoped events against a virtual clock.

    Events are held in columns, not dicts: ``array`` columns for
    ``t_ns``, ``rid``, ``sid`` and ``psid``, one small-int code per
    interned ``(ev, name)``, and ``args`` only for the events that
    carry any, as a row of values behind an interned key tuple. An
    event's ``seq`` is its position. :attr:`events` is a read-only
    :class:`EventView` that builds the schema-v1 dict for an index on
    demand, so a held trace costs bytes per event, not a dict.
    """

    def __init__(self, clock):
        self._clock = clock
        self._t_ns = array("q")
        self._rid = array("q")
        self._sid = array("i")
        self._psid = array("i")
        self._code = array("I")
        #: code -> (ev, name), and its inverse.
        self._kinds: List[Tuple[str, str]] = []
        self._codes: Dict[Tuple[str, str], int] = {}
        #: Ascending seqs of the events that carry args, and for each
        #: a row ``(keys, *values)`` -- a shallow copy of the args
        #: with the key tuple interned in ``_arg_keys``.
        self._arg_seqs = array("I")
        self._arg_rows: List[tuple] = []
        self._arg_keys: Dict[tuple, tuple] = {}
        #: rid -> {sid: name} of spans currently open.
        self._open: Dict[int, Dict[int, str]] = {}
        #: rid -> next span ordinal.
        self._next_sid: Dict[int, int] = {}
        self._finished: Set[int] = set()

    #: Distinguishes the live tracer from :data:`NULL_RTRACE`.
    enabled = True

    @property
    def events(self) -> "EventView":
        """Every event emitted so far, as a fixed-length view."""
        return EventView(self, len(self._t_ns))

    # -- emission -------------------------------------------------------------

    def _emit(self, t_ns: Optional[int], rid: int, ev: str, name: str,
              sid: int, psid: int, args: Optional[dict]) -> None:
        """Append one event, stamped now unless ``t_ns`` is given."""
        if t_ns is None:
            t_ns = self._clock.now()
        key = (ev, name)
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self._kinds)
            self._kinds.append(key)
        if args:
            keys = tuple(args)
            keys = self._arg_keys.setdefault(keys, keys)
            self._arg_seqs.append(len(self._t_ns))
            self._arg_rows.append((keys, *args.values()))
        self._t_ns.append(t_ns)
        self._rid.append(rid)
        self._sid.append(sid)
        self._psid.append(psid)
        self._code.append(code)

    def meta(self, name: str, args: Optional[dict] = None,
             t_ns: Optional[int] = None) -> None:
        """A run-level event (config, store contents, loadgen seed)."""
        self._emit(t_ns, -1, "meta", name, -1, -1, args)

    def submit(self, rid: int, t_ns: Optional[int] = None,
               args: Optional[dict] = None) -> int:
        """Open request ``rid``'s root span; returns its sid (0)."""
        self._open[rid] = {ROOT_SID: "request"}
        self._next_sid[rid] = ROOT_SID + 1
        self._finished.discard(rid)
        self._emit(t_ns, rid, "begin", "request", ROOT_SID, -1, args)
        return ROOT_SID

    def begin(self, rid: int, name: str, psid: int = ROOT_SID,
              t_ns: Optional[int] = None,
              args: Optional[dict] = None) -> int:
        """Open a child span under ``psid``; returns the new sid."""
        sid = self._next_sid.get(rid, ROOT_SID + 1)
        self._next_sid[rid] = sid + 1
        open_spans = self._open.get(rid)
        if open_spans is None:
            open_spans = self._open[rid] = {}
        open_spans[sid] = name
        self._emit(t_ns, rid, "begin", name, sid, psid, args)
        return sid

    def end(self, rid: int, sid: int, t_ns: Optional[int] = None,
            args: Optional[dict] = None) -> None:
        open_spans = self._open.get(rid)
        name = open_spans.pop(sid, None) if open_spans else None
        self._emit(t_ns, rid, "end", name or "?", sid, -1, args)

    def mark(self, rid: int, name: str, psid: int = ROOT_SID,
             t_ns: Optional[int] = None,
             args: Optional[dict] = None) -> None:
        """An instant event attached to span ``psid``."""
        self._emit(t_ns, rid, "mark", name, -1, psid, args)

    def finish(self, rid: int, status: str, t_ns: Optional[int] = None,
               args: Optional[dict] = None) -> None:
        """Close ``rid``'s tree: auto-close leftovers, end the root,
        emit the one ``terminal`` mark carrying ``status``.

        A second finish for the same rid emits a second terminal mark
        rather than raising -- :func:`validate_events` flags it, which
        is how the completeness tests catch double-completion bugs in
        the engine without masking them.
        """
        t = self._clock.now() if t_ns is None else t_ns
        open_spans = self._open.pop(rid, {})
        for sid in sorted((s for s in open_spans if s != ROOT_SID),
                          reverse=True):
            self._emit(t, rid, "end", open_spans.pop(sid), sid, -1,
                       {"auto": True})
        if open_spans.pop(ROOT_SID, None) is not None:
            self._emit(t, rid, "end", "request", ROOT_SID, -1,
                       {"status": status})
        terminal_args = {"status": status}
        if args:
            terminal_args.update(args)
        self._emit(t, rid, "mark", TERMINAL, -1, ROOT_SID, terminal_args)
        self._finished.add(rid)

    def finished(self, rid: int) -> bool:
        return rid in self._finished


class EventView(Sequence):
    """Read-only schema-v1 view of the first ``n`` events of a tracer.

    Indexing or iterating builds each event's dict on demand (a fresh
    dict, with a fresh ``args`` copy, every time); ``len()`` builds
    nothing. The length is fixed when the view is made, so a report's
    view does not grow with events emitted after the report was built.
    Compares equal to any list or view of the same event dicts.
    """

    __slots__ = ("_tracer", "_n")

    def __init__(self, tracer: RequestTracer, n: int) -> None:
        self._tracer = tracer
        self._n = n

    def __len__(self) -> int:
        return self._n

    def _event(self, seq: int) -> dict:
        tracer = self._tracer
        ev, name = tracer._kinds[tracer._code[seq]]
        args = {}
        index = bisect_left(tracer._arg_seqs, seq)
        if index < len(tracer._arg_seqs) \
                and tracer._arg_seqs[index] == seq:
            row = tracer._arg_rows[index]
            args = dict(zip(row[0], row[1:]))
        return {"seq": seq, "t_ns": tracer._t_ns[seq],
                "rid": tracer._rid[seq], "ev": ev, "name": name,
                "sid": tracer._sid[seq], "psid": tracer._psid[seq],
                "args": args}

    def __getitem__(self, index: int) -> dict:
        seq = index + self._n if index < 0 else index
        if not 0 <= seq < self._n:
            raise IndexError("event index out of range")
        return self._event(seq)

    def __iter__(self):
        return map(self._event, range(self._n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (EventView, list, tuple)):
            return NotImplemented
        return len(other) == self._n and all(
            a == b for a, b in zip(self, other))


class NullRequestTracer:
    """No-op twin of :class:`RequestTracer` (tracing disabled)."""

    enabled = False
    events = EventView(RequestTracer(None), 0)

    def meta(self, name, args=None, t_ns=None):
        pass

    def submit(self, rid, t_ns=None, args=None):
        return ROOT_SID

    def begin(self, rid, name, psid=ROOT_SID, t_ns=None, args=None):
        return -1

    def end(self, rid, sid, t_ns=None, args=None):
        pass

    def mark(self, rid, name, psid=ROOT_SID, t_ns=None, args=None):
        pass

    def finish(self, rid, status, t_ns=None, args=None):
        pass

    def finished(self, rid):
        return False


#: Shared no-op instance (the engine's default when tracing is off).
NULL_RTRACE = NullRequestTracer()


# -- export -------------------------------------------------------------------


def sorted_events(events: Sequence[dict]) -> List[dict]:
    """Events in virtual-time order, emission order breaking ties.

    The engine scores batch work onto its timeline before the server
    clock reaches it, so the raw list is *not* time-sorted; exports
    always are.
    """
    return sorted(events, key=lambda e: (e["t_ns"], e["seq"]))


def events_to_jsonl(events: Sequence[dict]) -> str:
    """Compact JSONL, one event per line -- byte-identical for
    same-seed runs (sorted keys, fixed separators, time-sorted)."""
    lines = [json.dumps(event, sort_keys=True, separators=(",", ":"))
             for event in sorted_events(events)]
    return "\n".join(lines) + "\n" if lines else ""


def load_events(path: str) -> List[dict]:
    """Load a JSONL event log written by :func:`events_to_jsonl`."""
    events = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def events_to_chrome(events: Sequence[dict]) -> dict:
    """Export as Chrome trace-event JSON: one pid for the serve run,
    one tid (timeline row) per request, spans as complete ``X``
    events, marks as instants."""
    out: List[dict] = [{
        "ph": "M", "name": "process_name", "pid": 1, "tid": 0,
        "args": {"name": "serve"}}]
    begins: Dict[tuple, dict] = {}
    spans: List[dict] = []
    marks: List[dict] = []
    rids = set()
    for event in sorted_events(events):
        rid = event["rid"]
        if rid < 0:
            continue
        rids.add(rid)
        tid = rid + 1
        if event["ev"] == "begin":
            begins[(rid, event["sid"])] = event
        elif event["ev"] == "end":
            begin = begins.pop((rid, event["sid"]), None)
            if begin is None:
                continue
            args = dict(begin["args"])
            args.update(event["args"])
            args["sid"] = event["sid"]
            spans.append({
                "ph": "X", "name": begin["name"], "pid": 1, "tid": tid,
                "cat": "request", "ts": begin["t_ns"] / 1e3,
                "dur": max(0, event["t_ns"] - begin["t_ns"]) / 1e3,
                "args": args})
        elif event["ev"] == "mark":
            marks.append({
                "ph": "i", "name": event["name"], "pid": 1, "tid": tid,
                "s": "t", "ts": event["t_ns"] / 1e3,
                "args": dict(event["args"])})
    for rid in sorted(rids):
        out.append({"ph": "M", "name": "thread_name", "pid": 1,
                    "tid": rid + 1, "args": {"name": f"request {rid}"}})
    out.extend(spans)
    out.extend(marks)
    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "virtual-ns",
                      "exporter": "repro.obs.rtrace"},
    }


# -- analysis -----------------------------------------------------------------


@dataclass
class SpanNode:
    """One reconstructed span of a request's tree."""

    name: str
    sid: int
    start_ns: int
    end_ns: int
    args: Dict[str, object] = field(default_factory=dict)
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def duration_ns(self) -> int:
        return max(0, self.end_ns - self.start_ns)

    @property
    def exclusive_ns(self) -> int:
        """Time inside this span not covered by any child span.

        Children are emitted sequentially by the engine, so summing
        their durations (no overlap handling) is exact; the residue is
        the span's own cost. Exclusive times over a whole tree always
        sum to the root's duration -- the invariant the attribution
        analyzer's "stages sum to end-to-end latency" claim rests on.
        """
        return max(0, self.duration_ns
                   - sum(c.duration_ns for c in self.children))

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def span_trees(events: Sequence[dict]) -> Dict[int, SpanNode]:
    """Rebuild each request's span tree from a (validated) event log.

    Returns ``{rid: root SpanNode}``. Spans missing an ``end`` get
    ``end_ns = start_ns`` (the validator reports them separately);
    terminal status lands in the root's ``args``.
    """
    nodes: Dict[tuple, SpanNode] = {}
    roots: Dict[int, SpanNode] = {}
    for event in sorted_events(events):
        rid = event["rid"]
        if rid < 0:
            continue
        key = (rid, event["sid"])
        if event["ev"] == "begin":
            node = SpanNode(event["name"], event["sid"], event["t_ns"],
                            event["t_ns"], dict(event["args"]))
            nodes[key] = node
            if event["sid"] == ROOT_SID:
                roots[rid] = node
            else:
                parent = nodes.get((rid, event["psid"]))
                if parent is not None:
                    parent.children.append(node)
        elif event["ev"] == "end":
            node = nodes.get(key)
            if node is not None:
                node.end_ns = event["t_ns"]
                node.args.update(event["args"])
        elif event["ev"] == "mark" and event["name"] == TERMINAL:
            root = roots.get(rid)
            if root is not None:
                root.args.setdefault("status",
                                     event["args"].get("status"))
    return roots


def validate_events(events: Sequence[dict],
                    expected_rids: Optional[Sequence[int]] = None
                    ) -> List[str]:
    """Completeness check; returns problems (empty == valid).

    Invariants of one *complete* trace per request:

    - exactly one root ``request`` span per rid, begun once;
    - every ``begin`` matched by exactly one ``end`` (no orphans, no
      double-ends) and no span auto-closed by ``finish``;
    - exactly one ``terminal`` mark per rid, at or after every other
      event of that rid;
    - child spans reference a parent that already began;
    - with ``expected_rids``, exactly that rid set appears.
    """
    errors: List[str] = []
    begun: Dict[int, Dict[int, dict]] = {}
    ended: Dict[int, Dict[int, int]] = {}
    terminals: Dict[int, int] = {}
    last_t: Dict[int, int] = {}
    terminal_t: Dict[int, int] = {}

    for event in sorted_events(events):
        rid = event["rid"]
        if rid < 0:
            if event["ev"] != "meta":
                errors.append(f"rid -1 on non-meta event {event}")
            continue
        sid = event["sid"]
        ev = event["ev"]
        last_t[rid] = event["t_ns"]
        if ev == "begin":
            per_rid = begun.setdefault(rid, {})
            if sid in per_rid:
                errors.append(f"rid {rid}: span {sid} begun twice")
            per_rid[sid] = event
            if sid == ROOT_SID and event["name"] != "request":
                errors.append(
                    f"rid {rid}: root span named {event['name']!r}")
            if sid != ROOT_SID:
                psid = event["psid"]
                if psid not in begun.get(rid, {}):
                    errors.append(
                        f"rid {rid}: span {sid} ({event['name']!r}) "
                        f"has unknown parent {psid}")
        elif ev == "end":
            counts = ended.setdefault(rid, {})
            counts[sid] = counts.get(sid, 0) + 1
            if sid not in begun.get(rid, {}):
                errors.append(f"rid {rid}: end for unknown span {sid}")
            if event["args"].get("auto"):
                errors.append(
                    f"rid {rid}: span {sid} auto-closed by finish "
                    "(engine left it open)")
        elif ev == "mark" and event["name"] == TERMINAL:
            terminals[rid] = terminals.get(rid, 0) + 1
            terminal_t[rid] = event["t_ns"]

    for rid, spans in begun.items():
        if ROOT_SID not in spans:
            errors.append(f"rid {rid}: no root request span")
        for sid in spans:
            count = ended.get(rid, {}).get(sid, 0)
            if count == 0:
                errors.append(f"rid {rid}: span {sid} never ended")
            elif count > 1:
                errors.append(f"rid {rid}: span {sid} ended {count}x")
        count = terminals.get(rid, 0)
        if count != 1:
            errors.append(f"rid {rid}: {count} terminal marks")
        elif terminal_t[rid] < last_t[rid]:
            errors.append(
                f"rid {rid}: events after the terminal mark")

    for rid in ended:
        if rid not in begun:
            errors.append(f"rid {rid}: ends without any begin")
    for rid in terminals:
        if rid not in begun:
            errors.append(f"rid {rid}: terminal without a trace")

    if expected_rids is not None:
        expected = set(expected_rids)
        seen = set(begun)
        for rid in sorted(expected - seen):
            errors.append(f"rid {rid}: expected but never traced")
        for rid in sorted(seen - expected):
            errors.append(f"rid {rid}: traced but not expected")
    return errors
