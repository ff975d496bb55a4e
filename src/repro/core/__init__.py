"""GPUReplay itself: record, verify, replay.

- :mod:`repro.core.actions` -- the replay actions of Table 2;
- :mod:`repro.core.recording` -- the recording container and its
  compressed on-disk format; :mod:`repro.core.encoder` writes it (and
  the vault's skeleton form), loaded when a caller asks for it;
- :mod:`repro.core.recorder` -- the in-driver recorder (Section 4);
- :mod:`repro.core.taint` -- magic-value input/output discovery;
- :mod:`repro.core.harness` -- the developer-facing record harness;
- :mod:`repro.core.verifier` -- static security verification (§5.1);
- :mod:`repro.core.nano_driver` -- the GPU access layer (§5.2), driven
  by the family's row of :data:`repro.gpu.FAMILIES`;
- :mod:`repro.core.compiled` / ``replayer`` -- action execution,
  pacing, failure detection/recovery, preemption;
- :mod:`repro.core.interpreter`, ``checkpoints``, ``mega`` -- the
  reference executor, §5.3 checkpointing and the fused-batch half:
  each loads when a caller asks for it, never for a default replay;
- :mod:`repro.core.patching` -- cross-SKU recording patches (§6.4);
- :mod:`repro.core.replay` -- ``python -m repro.core.replay file.grr``,
  the deployable: the replayer half and nothing above it.

What loads when: ``import repro.core`` loads no submodule; the names
in ``__all__`` resolve on first access. ``from repro.core import
Replayer`` loads the replayer half (plus the ``gpu`` interface,
``soc.memory``, ``errors``, ``units``); only the recorder-half names --
``GpuRecorder``, ``RecorderOptions``, ``RecordedWorkload``, ``record_*``
-- load :mod:`repro.stack`, the stack the replayer exists to replace.
"""

from repro import lazy_exports

_HOMES = {
    "GpuRecorder": "recorder",
    "RecordedWorkload": "harness",
    "Recording": "recording",
    "RecordingMeta": "recording",
    "RecorderOptions": "recorder",
    "ReplayResult": "replayer",
    "Replayer": "replayer",
    "record_inference": "harness",
    "record_training_iteration": "harness",
    "verify_recording": "verifier",
}

__all__ = list(_HOMES)
__getattr__ = lazy_exports(__name__, _HOMES)
