"""The vault's untried-raw gate on the traffic its bound was chosen on.

``repro.store.vault.stored_form`` stores a chunk raw without a deflate
trial when its bytes look random (order-0 entropy above
``RAW_ENTROPY``) and none of its probes repeats earlier in it. This
records all 14 zoo models on mali, v3d and adreno, packs each
recording and checks that every object -- skeleton and chunks -- has
the stored length and raw flag the plain deflate trial gives. Tier-1
runs the same check on the ledger's recordings only
(``tests/store/test_packs.py``).
"""

import numpy as np
import pytest

from repro.bench.workloads import STACKS, build_stack
from repro.core.harness import record_inference
from repro.stack.framework import MODEL_ZOO
from repro.store import Vault
from tests.store.test_packs import assert_trial_rule


@pytest.mark.parametrize("family", sorted(STACKS))
def test_every_zoo_object_is_stored_as_the_trial_would(family, tmp_path):
    vault = Vault(str(tmp_path / "vault"))
    checked = 0
    for model in sorted(MODEL_ZOO):
        stack = build_stack(family, model)
        stack.net.run(np.zeros(stack.net.model.input_shape, np.float32))
        recording = record_inference(stack.net).recording
        checked += assert_trial_rule(vault, [recording])
    assert checked > len(MODEL_ZOO)
