"""Shared fixtures.

Recording a workload means bringing up the full stack and running it
under the taint harness -- expensive. Recordings used by many tests
are produced once per session through ``repro.bench``'s cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workloads import (build_stack, fresh_replay_machine,
                                   get_recorded)
from repro.soc.machine import Machine


@pytest.fixture
def mali_machine():
    return Machine.create("hikey960", seed=11)


@pytest.fixture
def v3d_machine():
    machine = Machine.create("raspberrypi4", seed=12)
    return machine


@pytest.fixture
def powered_v3d_machine():
    return fresh_replay_machine("v3d", seed=13)


@pytest.fixture(scope="session")
def mali_mnist_recorded():
    """(RecordedWorkload, StackHandle) for MNIST on Mali, shared."""
    return get_recorded("mali", "mnist")


@pytest.fixture(scope="session")
def mali_alexnet_recorded():
    return get_recorded("mali", "alexnet")


@pytest.fixture(scope="session")
def v3d_mnist_recorded():
    return get_recorded("v3d", "mnist")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def hashed_lengths(monkeypatch):
    """Spy on ``hashlib.sha256(...)``: the list this returns grows by
    the length of every buffer handed to the constructor (streamed
    ``update`` calls are not constructor calls)."""
    import hashlib
    lengths = []
    real = hashlib.sha256

    def counting(data=b"", **kwargs):
        lengths.append(len(data))
        return real(data, **kwargs)
    monkeypatch.setattr(hashlib, "sha256", counting)
    return lengths


def make_input(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(
        np.float32)
