"""The developer-facing record harness (Section 3.1, Section 4.4).

Drives a fully-configured framework workload with magic input on the
full GPU stack, records it at the chosen granularity, discovers the
input/output GPU addresses by taint, and packages everything into a
:class:`RecordedWorkload` ready for the replayer.

Ambiguous taint matches are resolved by re-running with different
magic and intersecting the match sets; the recordings shipped are
always from the final run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.recorder import (GpuRecorder, RecorderOptions,
                                 make_recorder)
from repro.core.recording import IoBuffer, Recording
from repro.core.taint import make_magic_input, resolve_unique, scan_regions
from repro.errors import RecordingError, TaintError
from repro.stack.framework.base import NetworkRunner
from repro.stack.framework.deepcl import DeepClTrainer

GRANULARITIES = ("monolithic", "layer")


@dataclass
class RecordedWorkload:
    """Recordings plus everything an app needs to replay them."""

    workload: str
    granularity: str
    recordings: List[Recording]
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]
    #: Diagnostics from the final record run.
    record_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def recording(self) -> Recording:
        """The single recording of a monolithic workload."""
        if len(self.recordings) != 1:
            raise RecordingError(
                f"workload has {len(self.recordings)} recordings; "
                "use .recordings")
        return self.recordings[0]

    def total_jobs(self) -> int:
        return sum(r.meta.n_jobs for r in self.recordings)


def _weight_ranges(runner: NetworkRunner) -> List[Tuple[int, int]]:
    """GPU ranges of NN parameters -- the record-by-value annotations."""
    return [(buf.va, buf.nbytes) for name, buf in runner.buffers.items()
            if name.endswith(".w") or name.endswith(".b")]


def _annotate_frameworks(recording: Recording,
                         runner: NetworkRunner) -> None:
    recording.meta.api = runner.runtime.api_name
    recording.meta.framework = runner.framework_name


def record_inference(runner: NetworkRunner,
                     granularity: str = "monolithic",
                     options: Optional[RecorderOptions] = None,
                     magic_seed: int = 1,
                     max_taint_runs: int = 3) -> RecordedWorkload:
    """Record one NN inference from a configured runner.

    ``granularity="layer"`` cuts a recording at every layer boundary
    (whether those layers are fused is the runner's ``fuse`` flag, so
    "per fused layer" is ``fuse=True`` + ``granularity="layer"``).
    """
    if granularity not in GRANULARITIES:
        raise RecordingError(f"unknown granularity {granularity!r}")
    driver = runner.runtime.driver
    model = runner.model

    input_match_sets: List[List[int]] = []
    output_match_sets: List[List[int]] = []
    recordings: List[Recording] = []
    recorder: Optional[GpuRecorder] = None
    output: Optional[np.ndarray] = None

    for attempt in range(max_taint_runs):
        recorder = make_recorder(driver, options)
        recorder.annotate_by_value(_weight_ranges(runner))
        magic = make_magic_input(model.input_shape, magic_seed + attempt)
        recorder.begin(model.name)
        if granularity == "layer":
            last = len(runner.lowered) - 1
            output = runner.run(
                magic,
                layer_hook=lambda i, _g: recorder.cut() if i < last
                else None)
        else:
            output = runner.run(magic)
        recordings = recorder.end()

        input_match_sets.append(scan_regions(
            recorder.first_kick_snapshot, magic.tobytes()))
        output_match_sets.append(scan_regions(recorder.data_spans(),
                                              output.tobytes()))
        try:
            input_addr = resolve_unique(input_match_sets, "input")
            output_addr = resolve_unique(output_match_sets, "output")
            break
        except TaintError:
            if attempt == max_taint_runs - 1:
                raise
    else:  # pragma: no cover - loop always breaks or raises
        raise TaintError("taint discovery failed")

    in_size = int(np.prod(model.input_shape)) * 4
    recordings[0].meta.inputs = [
        IoBuffer("input", input_addr, in_size, tuple(model.input_shape))]
    recordings[-1].meta.outputs = [
        IoBuffer("output", output_addr, output.nbytes,
                 tuple(output.shape))]
    for recording in recordings:
        _annotate_frameworks(recording, runner)

    return RecordedWorkload(
        workload=model.name,
        granularity=granularity,
        recordings=recordings,
        input_shape=tuple(model.input_shape),
        output_shape=tuple(output.shape),
        record_stats={
            "taint_runs": len(input_match_sets),
            "skippable_intervals": sum(
                1 for s in recorder.interval_samples if s.skippable),
            "total_intervals": len(recorder.interval_samples),
        },
    )


def record_kernel_workload(runtime, ir, name: str,
                           options: Optional[RecorderOptions] = None,
                           magic_seed: int = 1,
                           max_taint_runs: int = 3) -> RecordedWorkload:
    """Record a raw math-kernel workload (no ML framework).

    ``ir`` is a :class:`~repro.stack.runtime.kernel_ir.KernelIR`; its
    external input slots become the recording's inputs, its final
    output slots the outputs. This is the "Math" workload class of
    Table 3 (vecadd, etc.), also used by the Figure 9 cross-GPU
    experiment.
    """
    driver = runtime.driver
    kernel = runtime.compile_kernel(ir)
    buffers = {slot: runtime.create_buffer(shape, tag=slot)
               for slot, shape in ir.shapes.items()}
    in_slots = ir.external_inputs()
    out_slots = ir.final_outputs()

    in_sets: Dict[str, List[List[int]]] = {s: [] for s in in_slots}
    out_sets: Dict[str, List[List[int]]] = {s: [] for s in out_slots}
    recordings: List[Recording] = []

    for attempt in range(max_taint_runs):
        recorder = make_recorder(driver, options)
        magics = {
            slot: make_magic_input(ir.shapes[slot],
                                   magic_seed + attempt * 17 + i)
            for i, slot in enumerate(in_slots)
        }
        for slot, magic in magics.items():
            runtime.write_buffer(buffers[slot], magic)
        recorder.begin(name)
        runtime.enqueue(kernel, buffers)
        runtime.finish()
        recordings = recorder.end()

        snapshot = recorder.first_kick_snapshot
        live = list(recorder.data_spans())
        for slot in in_slots:
            in_sets[slot].append(scan_regions(snapshot,
                                              magics[slot].tobytes()))
        outputs = {slot: runtime.read_buffer(buffers[slot])
                   for slot in out_slots}
        for slot in out_slots:
            out_sets[slot].append(scan_regions(live,
                                               outputs[slot].tobytes()))
        try:
            in_addrs = {s: resolve_unique(in_sets[s], f"input {s}")
                        for s in in_slots}
            out_addrs = {s: resolve_unique(out_sets[s], f"output {s}")
                         for s in out_slots}
            break
        except TaintError:
            if attempt == max_taint_runs - 1:
                raise

    recording = recordings[0]
    recording.meta.inputs = [
        IoBuffer(s, in_addrs[s], buffers[s].nbytes, buffers[s].shape)
        for s in in_slots]
    recording.meta.outputs = [
        IoBuffer(s, out_addrs[s], buffers[s].nbytes, buffers[s].shape)
        for s in out_slots]
    recording.meta.api = runtime.api_name
    recording.meta.framework = "direct-kernel"
    first_in = in_slots[0] if in_slots else out_slots[0]
    return RecordedWorkload(
        workload=name,
        granularity="monolithic",
        recordings=recordings,
        input_shape=tuple(ir.shapes[first_in]),
        output_shape=tuple(ir.shapes[out_slots[0]]),
    )


def record_training_iteration(trainer: DeepClTrainer,
                              options: Optional[RecorderOptions] = None,
                              magic_seed: int = 1,
                              max_taint_runs: int = 3) -> RecordedWorkload:
    """Record one training iteration (forward+backward+update).

    The convergence predicate stays on the CPU: the app replays this
    recording per iteration and evaluates the returned loss itself
    (Section 3.1's NN-training pattern).
    """
    driver = trainer.runtime.driver
    spec = trainer.spec
    x_shape = (spec.batch, spec.input_dim)
    y_shape = (spec.batch, spec.classes)

    x_sets: List[List[int]] = []
    y_sets: List[List[int]] = []
    loss_sets: List[List[int]] = []
    recordings: List[Recording] = []

    for attempt in range(max_taint_runs):
        recorder = make_recorder(driver, options)
        # Weights are deliberately *not* annotated by value: they are
        # recorded by address, deposited once by the app before the
        # first iteration, then updated in place by the replayed SGD
        # jobs across iterations (the optional-override pattern of
        # Section 4.4). Dumping them would reset training every replay.
        magic_x = make_magic_input(x_shape, magic_seed + 2 * attempt)
        magic_y = make_magic_input(y_shape, magic_seed + 2 * attempt + 1)
        recorder.begin(f"{spec.name}-iteration")
        loss = trainer.run_iteration(magic_x, magic_y)
        recordings = recorder.end()

        x_sets.append(scan_regions(recorder.first_kick_snapshot,
                                   magic_x.tobytes()))
        y_sets.append(scan_regions(recorder.first_kick_snapshot,
                                   magic_y.tobytes()))
        loss_sets.append(scan_regions(
            recorder.data_spans(),
            np.array([loss], dtype=np.float32).tobytes()))
        try:
            x_addr = resolve_unique(x_sets, "training input x")
            y_addr = resolve_unique(y_sets, "training labels y")
            loss_addr = resolve_unique(loss_sets, "loss output")
            break
        except TaintError:
            if attempt == max_taint_runs - 1:
                raise

    recording = recordings[0]
    recording.meta.inputs = [
        IoBuffer("x", x_addr, int(np.prod(x_shape)) * 4, x_shape),
        IoBuffer("y", y_addr, int(np.prod(y_shape)) * 4, y_shape),
    ]
    for bname, buf in sorted(trainer.buffers.items()):
        if bname[0] in "wb" and bname[1:].isdigit():
            recording.meta.inputs.append(IoBuffer(
                bname, buf.va, buf.nbytes, buf.shape, optional=True))
    recording.meta.outputs = [IoBuffer("loss", loss_addr, 4, (1,))]
    recording.meta.api = trainer.runtime.api_name
    recording.meta.framework = trainer.framework_name

    return RecordedWorkload(
        workload=spec.name,
        granularity="monolithic",
        recordings=recordings,
        input_shape=x_shape,
        output_shape=(1,),
    )
