"""Chrome trace-event JSON: the flight converter and the validator.

:func:`flight_chrome_events` draws timeline rows from flight events
(:mod:`repro.soc.flight`): the flight tape is the replay path's one
per-chokepoint stream, and this is its one converter -- the live
timeline (``Observability.to_chrome_trace``, ``grr trace``) and a saved
doctor report's window (``grr trace report.json``) both use it.
:data:`FLIGHT_FIELDS` names each event kind's ``detail`` fields.

:func:`validate_chrome_trace` checks the structural subset of the
trace-event format that our exporter produces and that Perfetto
requires to load a file:

- a top-level object with a ``traceEvents`` list;
- every event has a phase, pid, tid, and (except metadata) a numeric
  timestamp;
- ``B``/``E`` events balance per (pid, tid) with non-decreasing
  timestamps -- stack discipline, i.e. spans nest;
- ``X`` events on one (pid, tid) are either disjoint or properly
  contained in each other (no partial overlap).

Used by the ``grr trace`` exporter, the obs integration tests, and the
CI smoke job.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

from repro.soc.nullobs import Track

#: Field names for each flight event kind's ``detail`` tuple. This
#: table is part of the stable report schema: renaming a kind or
#: reordering its fields changes what saved DivergenceReports mean.
FLIGHT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "RegWrite": ("addr", "val", "mask"),
    "RegRead": ("addr", "val"),
    "RegPoll": ("addr", "mask", "want", "polls", "ok", "last"),
    "WaitIrq": ("timeout_ns", "ok", "waited_ns"),
    "IrqEnter": (),
    "IrqExit": (),
    "MemMap": ("va", "num_pages"),
    "MemUnmap": ("va", "num_pages"),
    "SetPgtable": ("memattr",),
    "Upload": ("va", "size", "moved"),
    "CopyToGpu": ("va", "size"),
    "CopyFromGpu": ("va", "size"),
    "Reset": ("cause",),
    "Pacing": ("wait_ns",),
    "JobKick": ("job",),
    "GpuIrqRaise": ("line",),
    "GpuJobStart": ("slot", "chain_va"),
    "GpuJobRetire": ("slot", "chain_va"),
    "Preempt": ("app",),
    "Divergence": ("attempt", "error"),
}

#: Kinds an action's events may include that are not the action's own
#: work: the pacing decision before it, GPU activity that happens to
#: fire during it, the kick mark after it, and the replayer's failure
#: mark. An action row is named after its first other event.
_INCIDENTAL = frozenset({"Pacing", "GpuIrqRaise", "GpuJobStart",
                         "GpuJobRetire", "JobKick", "Divergence"})

#: Kinds that end the job a ``JobKick`` opened.
_JOB_ENDS = frozenset({"IrqExit", "JobKick", "Divergence", "Reset"})


def event_to_dict(event: Tuple) -> Dict[str, object]:
    """Expand a raw flight ring tuple into a JSON-friendly dict."""
    seq, t_ns, kind, action_index, detail = event
    out: Dict[str, object] = {
        "seq": seq, "t_ns": t_ns, "kind": kind,
        "action_index": action_index,
    }
    fields = FLIGHT_FIELDS.get(kind)
    if fields is not None and len(fields) == len(detail):
        out.update(zip(fields, detail))
    else:
        out["detail"] = list(detail)
    return out


def flight_chrome_events(entries: Iterable[Mapping[str, object]],
                         track: Callable[[str, str], Track],
                         gpu_process: str,
                         chokepoints: Optional[Track] = None
                         ) -> List[dict]:
    """Chrome trace events (``ts``/``dur`` in µs) drawn from flight
    events given as :func:`event_to_dict` dicts, in tape order.

    Rows, each from ``track(process, thread)`` so they share pids with
    the caller's other spans:

    - ``replay/actions``: one slice per run of events charged to one
      action, named after the action's own first event, from the end
      of its pacing wait to its last event. An action that recorded
      nothing (re-mapping a region the session holds) has no slice;
    - ``replay/jobs``: ``job[k]`` from each kick to the IrqExit (or
      next kick, failure mark or reset) that ends it;
    - ``<gpu_process>/slot<n>``: ``job@<chain>`` while the GPU ran a
      job on that slot.

    With ``chokepoints`` every event is also an instant on that row.
    """
    out: List[dict] = []
    #: Open slices by key ("action", "job" or a slot number):
    #: [row, name, start, end, cat, args].
    open_: Dict[object, list] = {}

    def close(key: object, end: Optional[int] = None) -> None:
        span = open_.pop(key, None)
        if span is not None and span[1] is not None:
            row, name, start, last, cat, args = span
            end = last if end is None else end
            out.append({"ph": "X", "name": name, "cat": cat,
                        "pid": row.pid, "tid": row.tid, "ts": start / 1e3,
                        "dur": (end - start) / 1e3, "args": args})

    actions_row = track("replay", "actions")
    jobs_row = track("replay", "jobs")
    previous = t_ns = -1
    for entry in entries:
        # Saved reports are outside input: a missing field is a default.
        t_ns = int(entry.get("t_ns", 0))
        kind = str(entry.get("kind", "?"))
        index = int(entry.get("action_index", -1))
        if chokepoints is not None:
            out.append({"ph": "i", "s": "t", "name": kind,
                        "pid": chokepoints.pid, "tid": chokepoints.tid,
                        "ts": t_ns / 1e3,
                        "args": {k: v for k, v in entry.items()
                                 if k not in ("t_ns", "kind")}})
        # An action starts where its pacing wait ends.
        at = t_ns + int(entry.get("wait_ns", 0)) if kind == "Pacing" \
            else t_ns
        if index != previous:
            close("action")
            if index >= 0:
                open_["action"] = [actions_row, None, at, at,
                                   "replay-action", {"index": index}]
        previous = index
        if index >= 0:
            span = open_["action"]
            span[2], span[3] = min(span[2], at), max(span[3], at)
            if span[1] is None and kind not in _INCIDENTAL:
                span[1] = kind
        if kind in _JOB_ENDS:
            close("job", t_ns)
        if kind == "JobKick":
            open_["job"] = [jobs_row, f"job[{entry.get('job')}]", t_ns,
                            t_ns, "replay-job", {"index": index}]
        elif kind in ("GpuJobStart", "GpuJobRetire") and "slot" in entry:
            slot = int(entry["slot"])
            close(slot, t_ns)
            if kind == "GpuJobStart":
                chain_va = int(entry.get("chain_va", 0))
                open_[slot] = [track(gpu_process, f"slot{slot}"),
                               f"job@{chain_va:#x}", t_ns, t_ns,
                               "gpu-job", {"slot": slot}]
    # Whatever is still open ends with the last event.
    close("action")
    for key in list(open_):
        close(key, t_ns)
    return out


_KNOWN_PHASES = {"B", "E", "X", "i", "I", "M", "C"}


def _ns(ts_us: float) -> int:
    """Quantize a trace-event microsecond stamp to integer ns.

    The exporter's timestamps are integer nanoseconds divided by 1e3;
    comparing the floats directly makes touching intervals look
    overlapping (ts + dur accumulates rounding error), so all ordering
    checks run on the recovered integers.
    """
    return round(ts_us * 1000)


def validate_chrome_trace(obj: object) -> List[str]:
    """Return a list of problems (empty == valid)."""
    errors: List[str] = []
    if not isinstance(obj, dict):
        return ["top level is not a JSON object"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents list"]

    span_stacks: Dict[Tuple[int, int], List[dict]] = {}
    complete: Dict[Tuple[int, int], List[Tuple[int, int, str]]] = {}

    for index, event in enumerate(events):
        where = f"event #{index}"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {phase!r}")
            continue
        pid, tid = event.get("pid"), event.get("tid")
        if not isinstance(pid, int) or not isinstance(tid, int):
            errors.append(f"{where}: missing integer pid/tid")
            continue
        if phase != "M" and not isinstance(event.get("ts"), (int, float)):
            errors.append(f"{where}: missing numeric ts")
            continue
        if phase != "E" and not isinstance(event.get("name"), str):
            errors.append(f"{where}: missing name")
            continue
        key = (pid, tid)
        if phase == "B":
            span_stacks.setdefault(key, []).append(event)
        elif phase == "E":
            stack = span_stacks.get(key)
            if not stack:
                errors.append(f"{where}: E with no open B on tid {tid}")
                continue
            begin = stack.pop()
            if _ns(event["ts"]) < _ns(begin["ts"]):
                errors.append(
                    f"{where}: span {begin.get('name')!r} ends at "
                    f"{event['ts']} before it begins at {begin['ts']}")
        elif phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: X without non-negative dur")
                continue
            complete.setdefault(key, []).append(
                (_ns(event["ts"]), _ns(event["ts"]) + _ns(dur),
                 event.get("name", "")))

    for (pid, tid), stack in span_stacks.items():
        for begin in stack:
            errors.append(
                f"unclosed span {begin.get('name')!r} on "
                f"pid {pid} tid {tid}")

    for (pid, tid), intervals in complete.items():
        errors.extend(_check_interval_nesting(pid, tid, intervals))
    return errors


def _check_interval_nesting(
        pid: int, tid: int,
        intervals: List[Tuple[int, int, str]]) -> List[str]:
    """X events per tid must be disjoint or properly nested."""
    errors: List[str] = []
    open_ends: List[Tuple[float, str]] = []
    ordered = sorted(intervals, key=lambda iv: (iv[0], -iv[1]))
    for start, end, name in ordered:
        while open_ends and open_ends[-1][0] <= start:
            open_ends.pop()
        if open_ends and end > open_ends[-1][0]:
            errors.append(
                f"X event {name!r} on pid {pid} tid {tid} partially "
                f"overlaps {open_ends[-1][1]!r}")
        open_ends.append((end, name))
    return errors
