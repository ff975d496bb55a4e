"""The replay doctor: divergence localization and failure forensics.

When a replay fails -- a checked register read disagrees with the
recording, a poll or IRQ wait times out, the fast path and the
reference interpreter disagree, or an output check fails -- the
question is always the same: *which chokepoint diverged first, and
what did the machine look like when it did?* This module answers it:

- :func:`report_from_error` folds the machine's flight-recorder ring
  (:mod:`repro.soc.flight`) around a :class:`~repro.errors.ReplayError`
  into a :class:`DivergenceReport`;
- :func:`lockstep_compare` replays the same recording twice -- compiled
  fast path vs the reference interpreter -- capturing both complete
  flight tapes, and localizes the first event where they disagree;
- :func:`run_doctor` is the ``grr doctor`` entry point tying the two
  together;
- :func:`flip_dump_byte` / :func:`patch_reg_read` build deliberately
  corrupted recordings (tests, the CI doctor smoke step).

Import note: this module imports the replayer (and with it
:mod:`repro.gpu`), which the rest of :mod:`repro.obs` does not need --
so it is not imported from ``repro/obs/__init__.py``. Import it by its
own name (``from repro.obs.doctor import run_doctor``).

The report schema is stable (``schema_version``): saved reports are
artifacts that outlive the process that wrote them, and ``grr trace``
can load one back to visualize its flight window.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import actions as act
from repro.core.dumps import MemoryDump
from repro.core.recording import Recording
from repro.core.replay import boot_replayer, seeded_inputs
from repro.core.replayer import Replayer
from repro.errors import ObsError, ReplayError
from repro.soc.machine import Machine

#: Bump when a field of :class:`DivergenceReport` changes meaning.
SCHEMA_VERSION = 1

#: Flight events on each side of the anchor included in a report.
WINDOW_EVENTS = 48

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


@dataclass
class DivergenceReport:
    """Structured forensics for one replay failure.

    ``kind`` is one of ``"replay-error"`` (a replay raised),
    ``"fast-vs-reference"`` (lockstep flight tapes disagreed) or
    ``"output-mismatch"`` (tapes agreed but outputs did not).
    ``event_index`` is the anchoring flight event's global sequence
    number in ``replay-error`` reports, and the tape position of the
    first disagreement in lockstep reports.
    """

    kind: str = "replay-error"
    message: str = ""
    #: The replay action in flight when the divergence surfaced.
    action_index: int = -1
    action: str = ""
    action_src: str = ""
    event_index: int = -1
    t_ns: int = 0
    #: What the recording (or the reference arm) said should happen.
    expected: Optional[Dict[str, object]] = None
    #: What actually happened (flight event of the failing side).
    observed: Optional[Dict[str, object]] = None
    flight_window: List[Dict[str, object]] = field(default_factory=list)
    environment: Dict[str, object] = field(default_factory=dict)
    recording: Dict[str, object] = field(default_factory=dict)
    attempts: int = 1
    schema_version: int = SCHEMA_VERSION

    # -- serialization (stable JSON schema) --------------------------------

    def to_json(self, indent: Optional[int] = 1) -> str:
        return json.dumps(dataclasses.asdict(self), indent=indent,
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DivergenceReport":
        data = json.loads(text)
        if not isinstance(data, dict) or "schema_version" not in data:
            raise ObsError("not a DivergenceReport JSON document")
        version = data["schema_version"]
        if version != SCHEMA_VERSION:
            raise ObsError(
                f"unsupported DivergenceReport schema {version} "
                f"(this build reads {SCHEMA_VERSION})")
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "DivergenceReport":
        with open(path) as handle:
            return cls.from_json(handle.read())

    # -- presentation -------------------------------------------------------

    def render(self) -> str:
        """Human-readable multi-line summary (``grr doctor`` output)."""
        lines = [
            f"divergence ({self.kind}) at action #{self.action_index} "
            f"{self.action}",
            f"  {self.message}",
        ]
        if self.action_src:
            lines.append(f"  driver source: {self.action_src}")
        lines.append(f"  first diverging event: #{self.event_index} "
                     f"at t={self.t_ns} ns")
        if self.expected is not None:
            lines.append(f"  expected: {_render_kv(self.expected)}")
        if self.observed is not None:
            lines.append(f"  observed: {_render_kv(self.observed)}")
        env = self.environment
        if env:
            lines.append(
                "  environment: "
                f"{env.get('board')}/{env.get('gpu_model')} "
                f"seed={env.get('seed')} clock={env.get('clock_hz')} Hz "
                f"pte={env.get('pte_format')} "
                f"coherent_tlb={env.get('coherent_tlb')}")
        rec = self.recording
        if rec:
            lines.append(
                f"  recording: {rec.get('workload')} "
                f"({rec.get('actions')} actions, "
                f"digest {str(rec.get('digest'))[:12]}...)")
        lines.append(f"  flight window: {len(self.flight_window)} events, "
                     f"attempts: {self.attempts}")
        tail = self.flight_window[-8:]
        for event in tail:
            lines.append(
                f"    [{event.get('seq')}] t={event.get('t_ns')} "
                f"a#{event.get('action_index')} {event.get('kind')} "
                f"{_render_kv(event, skip=('seq', 't_ns', 'kind', 'action_index'))}")
        return "\n".join(lines)

    def flight_chrome_trace(self) -> Dict[str, object]:
        """The flight window as Chrome trace-event JSON (``grr trace``)."""
        events: List[Dict[str, object]] = [
            {"ph": "M", "pid": 1, "tid": 1, "name": "process_name",
             "args": {"name": "flight-recorder"}},
            {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
             "args": {"name": f"doctor:{self.kind}"}},
        ]
        for entry in self.flight_window:
            args = {k: v for k, v in entry.items()
                    if k not in ("t_ns", "kind")}
            events.append({
                "ph": "i", "pid": 1, "tid": 1, "s": "t",
                "name": str(entry.get("kind", "?")),
                "ts": entry.get("t_ns", 0) / 1e3,
                "args": args,
            })
        events.append({
            "ph": "i", "pid": 1, "tid": 1, "s": "t",
            "name": f"DIVERGENCE:{self.kind}",
            "ts": self.t_ns / 1e3,
            "args": {"action_index": self.action_index,
                     "event_index": self.event_index,
                     "message": self.message},
        })
        return {"traceEvents": events, "displayTimeUnit": "ns"}


def _render_kv(mapping: Dict[str, object],
               skip: Tuple[str, ...] = ()) -> str:
    parts = []
    for key, value in mapping.items():
        if key in skip:
            continue
        if isinstance(value, int) and not isinstance(value, bool) \
                and abs(value) > 9:
            parts.append(f"{key}={value:#x}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


# --------------------------------------------------------------------------
# Fingerprinting and report construction.
# --------------------------------------------------------------------------


def environment_fingerprint(machine: Machine) -> Dict[str, object]:
    """Everything about the host machine a report reader needs to
    reproduce the run: board, GPU, seed, clocking, MMU configuration."""
    gpu = machine.require_gpu()
    return {
        "board": machine.board.name,
        "soc": machine.board.soc,
        "gpu_model": gpu.model_name,
        "gpu_family": gpu.family,
        "cores": gpu.core_count,
        "clock_hz": gpu.clock_hz,
        "seed": machine.seed,
        "pte_format": gpu.mmu.fmt.name,
        "coherent_tlb": gpu.mmu.coherent_tlb,
        "flight_ring_size": machine.flight.ring_size,
    }


def _recording_fingerprint(recording: Recording) -> Dict[str, object]:
    return {
        "workload": recording.meta.workload,
        "board": recording.meta.board,
        "gpu_model": recording.meta.gpu_model,
        "digest": recording.digest(),
        "actions": len(recording.actions),
        "dumps": len(recording.dumps),
    }


def _action_expectation(recording: Recording,
                        index: int) -> Tuple[str, str,
                                             Optional[Dict[str, object]]]:
    """(type name, src, field dict) for the action at ``index``."""
    if not 0 <= index < len(recording.actions):
        return "", "", None
    action = recording.actions[index]
    expected = dataclasses.asdict(action)
    expected["type"] = type(action).__name__
    return type(action).__name__, action.src, expected


def report_from_error(machine: Machine, recording: Recording,
                      error: ReplayError,
                      attempts: int = 1) -> DivergenceReport:
    """Fold the flight ring around a raised ReplayError into a report.

    The anchor is the last ring event attributed to the failing action
    (skipping the replayer's own ``Divergence`` marker); if the ring
    rolled past it, the last retained event stands in.
    """
    window = [event_to_dict(event) for event in machine.flight.ring]
    fail_index = getattr(error, "action_index", -1)
    anchor: Optional[Dict[str, object]] = None
    for entry in reversed(window):
        if entry["kind"] == "Divergence":
            continue
        if entry["action_index"] == fail_index or anchor is None:
            anchor = entry
            if entry["action_index"] == fail_index:
                break
    action_name, action_src, expected = _action_expectation(
        recording, fail_index)
    return DivergenceReport(
        kind="replay-error",
        message=str(error),
        action_index=fail_index,
        action=action_name,
        action_src=action_src or getattr(error, "source", ""),
        event_index=int(anchor["seq"]) if anchor else -1,
        t_ns=int(anchor["t_ns"]) if anchor else machine.clock.now(),
        expected=expected,
        observed=anchor,
        flight_window=window[-2 * WINDOW_EVENTS:],
        environment=environment_fingerprint(machine),
        recording=_recording_fingerprint(recording),
        attempts=attempts,
    )


# --------------------------------------------------------------------------
# Running replays for diagnosis.
# --------------------------------------------------------------------------


def _quiet_cleanup(replayer: Replayer) -> None:
    try:
        replayer.cleanup()
    except ReplayError:
        # A GPU left faulted by the very failure under diagnosis may
        # refuse the cleanup reset; the report matters more.
        pass


def run_doctor(recording: Recording, board: str, seed: int = 2026,
               vs_reference: bool = False,
               ref_seed: Optional[int] = None
               ) -> Optional[DivergenceReport]:
    """Diagnose one recording. Returns None when the replay is healthy.

    Plain mode replays once (no §5.4 retries -- the doctor wants the
    *first* divergence, pristine in the flight ring) and reports any
    ReplayError. ``vs_reference`` instead runs the compiled fast path
    and the reference interpreter in lockstep and localizes the first
    flight event where the two disagree; ``ref_seed`` seeds the
    reference arm differently, turning environment sensitivity (the
    wrong-seed case) into a localized first-divergence report.
    """
    if vs_reference:
        return lockstep_compare(recording, board, seed=seed,
                                ref_seed=ref_seed)
    machine, replayer = boot_replayer(recording, board, seed)
    try:
        replayer.replay(inputs=seeded_inputs(recording, seed),
                        max_attempts=1)
    except ReplayError as error:
        return report_from_error(machine, recording, error, attempts=1)
    finally:
        _quiet_cleanup(replayer)
    return None


def lockstep_compare(recording: Recording, board: str, seed: int = 2026,
                     ref_seed: Optional[int] = None
                     ) -> Optional[DivergenceReport]:
    """Fast path vs reference interpreter, compared chokepoint by
    chokepoint on their complete flight tapes."""
    fast_machine, fast_replayer = boot_replayer(recording, board, seed,
                                                fast_path=True)
    ref_machine, ref_replayer = boot_replayer(
        recording, board, seed if ref_seed is None else ref_seed,
        fast_path=False)
    # Capture only the replay itself: init/load jitter is not part of
    # the comparison. Both arms get the same inputs.
    inputs = seeded_inputs(recording, seed)
    fast_tape = fast_machine.flight.start_capture()
    ref_tape = ref_machine.flight.start_capture()
    def attempt(replayer: Replayer):
        try:
            return replayer.replay(inputs=inputs,
                                   max_attempts=1).outputs, None
        except ReplayError as error:
            return None, error

    fast_outputs, fast_error = attempt(fast_replayer)
    ref_outputs, ref_error = attempt(ref_replayer)
    fast_machine.flight.stop_capture()
    ref_machine.flight.stop_capture()
    _quiet_cleanup(fast_replayer)
    _quiet_cleanup(ref_replayer)

    report = _first_tape_divergence(recording, fast_machine, fast_tape,
                                    ref_tape)
    if report is not None:
        return report
    if fast_error is not None or ref_error is not None:
        # Both arms failed identically chokepoint-for-chokepoint:
        # report it as a plain replay error on the fast arm.
        error = fast_error or ref_error
        return report_from_error(fast_machine, recording, error,
                                 attempts=1)
    mismatch = _first_output_mismatch(fast_outputs, ref_outputs)
    if mismatch is not None:
        name, detail = mismatch
        last = fast_tape[-1] if fast_tape else None
        return DivergenceReport(
            kind="output-mismatch",
            message=f"flight tapes identical but output {name!r} "
                    f"differs: {detail}",
            action_index=int(last[3]) if last else -1,
            event_index=len(fast_tape) - 1,
            t_ns=int(last[1]) if last else 0,
            expected={"output": name, "arm": "reference"},
            observed={"output": name, "arm": "fast", "detail": detail},
            flight_window=[event_to_dict(e)
                           for e in fast_tape[-2 * WINDOW_EVENTS:]],
            environment=environment_fingerprint(fast_machine),
            recording=_recording_fingerprint(recording),
        )
    return None


def _first_tape_divergence(recording: Recording, fast_machine: Machine,
                           fast_tape: List[Tuple],
                           ref_tape: List[Tuple]
                           ) -> Optional[DivergenceReport]:
    """The report for the first position where the tapes disagree
    (ignoring the global sequence number), or None if they match."""
    shared = min(len(fast_tape), len(ref_tape))
    where = -1
    for i in range(shared):
        if fast_tape[i][1:] != ref_tape[i][1:]:
            where = i
            break
    else:
        if len(fast_tape) == len(ref_tape):
            return None
        where = shared
    fast_event = fast_tape[where] if where < len(fast_tape) else None
    ref_event = ref_tape[where] if where < len(ref_tape) else None
    anchor = fast_event or ref_event
    fail_index = int(anchor[3])
    action_name, action_src, _ = _action_expectation(recording,
                                                     fail_index)
    if fast_event is None:
        message = (f"fast path stopped after {len(fast_tape)} events; "
                   f"reference continued with "
                   f"{ref_tape[where][2]}")
    elif ref_event is None:
        message = (f"reference stopped after {len(ref_tape)} events; "
                   f"fast path continued with {fast_tape[where][2]}")
    else:
        message = (f"first diverging chokepoint: fast recorded "
                   f"{fast_event[2]} where reference recorded "
                   f"{ref_event[2]}"
                   if fast_event[2] != ref_event[2] else
                   f"first diverging chokepoint: {fast_event[2]} "
                   f"fields differ")
    start = max(0, where - WINDOW_EVENTS)
    return DivergenceReport(
        kind="fast-vs-reference",
        message=message,
        action_index=fail_index,
        action=action_name,
        action_src=action_src,
        event_index=where,
        t_ns=int(anchor[1]),
        expected=event_to_dict(ref_event) if ref_event else None,
        observed=event_to_dict(fast_event) if fast_event else None,
        flight_window=[event_to_dict(e)
                       for e in fast_tape[start:where + WINDOW_EVENTS]],
        environment=environment_fingerprint(fast_machine),
        recording=_recording_fingerprint(recording),
    )


def _first_output_mismatch(fast_outputs, ref_outputs
                           ) -> Optional[Tuple[str, str]]:
    if fast_outputs is None or ref_outputs is None:
        return None
    for name in sorted(set(fast_outputs) | set(ref_outputs)):
        a = fast_outputs.get(name)
        b = ref_outputs.get(name)
        if a is None or b is None:
            return name, "missing on one arm"
        if a.shape != b.shape:
            return name, f"shape {a.shape} vs {b.shape}"
        if not np.array_equal(a, b):
            bad = int(np.flatnonzero(a.reshape(-1) != b.reshape(-1))[0])
            return name, (f"first differing element #{bad}: "
                          f"{a.reshape(-1)[bad]!r} vs "
                          f"{b.reshape(-1)[bad]!r}")
    return None


# --------------------------------------------------------------------------
# Deliberate corruption (tests, CI doctor smoke).
# --------------------------------------------------------------------------


def first_kick_chain_va(recording: Recording) -> int:
    """GPU VA of the first kicked job's descriptor chain.

    Replays the register writes symbolically up to the first
    ``is_job_kick`` write: Mali latches the chain head in
    ``JS{slot}_HEAD_HI/LO`` before ``JS{slot}_COMMAND``; v3d keeps the
    control-list base in ``CT0QBA`` and kicks via ``CT0QEA``; Adreno
    programs the ring-buffer base into ``CP_RB_BASE_HI/LO`` and kicks
    by bumping ``CP_RB_WPTR``, so the first packets decode from the
    ring base.
    """
    regs: Dict[str, int] = {}
    for action in recording.actions:
        if not isinstance(action, act.RegWrite):
            continue
        if not action.is_job_kick:
            regs[action.reg] = action.val
            continue
        if action.reg.startswith("JS") and action.reg.endswith("_COMMAND"):
            slot = action.reg[2:-len("_COMMAND")]
            return (regs.get(f"JS{slot}_HEAD_HI", 0) << 32) \
                | regs.get(f"JS{slot}_HEAD_LO", 0)
        if action.reg == "CT0QEA":
            return regs.get("CT0QBA", 0)
        if action.reg == "CP_RB_WPTR":
            return (regs.get("CP_RB_BASE_HI", 0) << 32) \
                | regs.get("CP_RB_BASE_LO", 0)
        raise ObsError(
            f"unrecognized kick register {action.reg!r}")
    raise ObsError("recording has no job kick")


def flip_dump_byte(recording: Recording
                   ) -> Tuple[Recording, int, int]:
    """A copy of ``recording`` with one dump byte flipped -- the first
    byte of the first job's descriptor chain, so the corruption is
    guaranteed to surface at the first kick. Returns
    ``(corrupted, dump_index, offset)``."""
    chain_va = first_kick_chain_va(recording)
    for index, dump in enumerate(recording.dumps):
        if dump.va <= chain_va < dump.end_va():
            offset = chain_va - dump.va
            data = bytearray(dump.data)
            data[offset] ^= 0xFF
            dumps = list(recording.dumps)
            dumps[index] = MemoryDump(dump.va, bytes(data))
            return (Recording(recording.meta, recording.actions, dumps),
                    index, offset)
    raise ObsError(
        f"no dump covers the first job chain at {chain_va:#x}")


def patch_reg_read(recording: Recording,
                   after_index: int = 0) -> Tuple[Recording, int]:
    """A copy of ``recording`` whose first checked ``RegReadOnce`` at or
    after ``after_index`` expects a wrong value. Returns
    ``(patched, action_index)`` -- the replay must diverge exactly
    there."""
    for index, action in enumerate(recording.actions):
        if index < after_index:
            continue
        if isinstance(action, act.RegReadOnce) and not action.ignore:
            patched = dataclasses.replace(action, val=action.val ^ 0x1)
            actions = list(recording.actions)
            actions[index] = patched
            return (Recording(recording.meta, actions,
                              list(recording.dumps)), index)
    raise ObsError("recording has no checked RegReadOnce to patch")
