"""The ``synthetic`` workload source for the serving layers.

A :class:`SyntheticRecordingStore` holds composed surgery sessions
keyed like any other (family, model) pair -- the model names are the
plan's ``syn0..synK-1`` -- so the whole serving machinery (admission,
batching, failure ladder, verification, fleet routing) works on
synthetic sessions unchanged. The one seam that differs is ground
truth: synthetic sessions are self-contained (no inputs, no framework
graph), so the store answers :meth:`reference_outputs` from the
expected bytes its manifests carry instead of running the CPU model
reference. Those bytes were themselves captured from the parent
sessions and re-checked against the shared CPU op semantics, so the
differential contract is as strong as the zoo path's.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.recording import Recording
from repro.errors import SurgeryError
from repro.obs.session import NULL_OBS
from repro.serve.engine import RecordingStore
from repro.surgery.analyze import analyze_recording
from repro.surgery.composer import Composed
from repro.surgery.plan import generate_plan, realize_plan


class SyntheticRecordingStore(RecordingStore):
    """A recording store of composed surgery sessions."""

    def __init__(self) -> None:
        super().__init__()
        self._expected: Dict[Tuple[str, str], Dict[str, np.ndarray]] = {}

    def add_composed(self, family: str, model: str,
                     composed: Composed) -> None:
        if not composed.manifest.expected_outputs:
            raise SurgeryError(
                f"composed session {composed.workload!r} carries no "
                f"expected outputs; slice with expect_outputs=True")
        self.add(family, model, composed.recording)
        self._expected[(family, model)] = \
            composed.manifest.expected_output_arrays()

    def populate(self, family: str, recordings: Dict[str, Recording],
                 sessions: int, seed: int, input_seed: int = 0,
                 obs=NULL_OBS) -> None:
        """Draw a plan over ``recordings`` (model name -> its
        recording on ``family``) and realize it into this store under
        (family, ``syn0..synK-1``)."""
        corpus = {model: len(analyze_recording(recording).jobs)
                  for model, recording in recordings.items()}
        plan = generate_plan(family, corpus, sessions, seed,
                             input_seed=input_seed)
        for name, composed in realize_plan(plan, recordings, obs=obs):
            self.add_composed(family, name, composed)

    def reference_outputs(self, family: str, model: str,
                          input_seed: int) -> Dict[str, np.ndarray]:
        """Expected bytes from the composition manifests. Synthetic
        sessions take no inputs, so ``input_seed`` cannot change the
        answer -- every request for a session verifies against the
        same captured ground truth."""
        recording = self.interface(family, model)
        expected = self._expected[(family, model)]
        outputs: Dict[str, np.ndarray] = {}
        for io in recording.meta.outputs:
            array = expected[io.name]
            shaped = array.reshape(io.shape) if io.shape \
                else array.reshape(-1)
            outputs[io.name] = shaped.astype(np.float32)
        return outputs
