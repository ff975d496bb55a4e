"""GPUReplay reproduction: a record-and-replay GPU stack for client ML.

This package reproduces the system described in "GPUReplay: A 50-KB GPU
Stack for Client ML" (Park & Lin, ASPLOS 2022) on top of a simulated SoC.

Layering, bottom-up; an import-time edge only points down (DESIGN.md
"Layering", held by ``tests/analysis/test_closure.py``):

- :mod:`repro.soc` -- the SoC substrate: virtual clock, memory, MMIO,
  interrupts, firmware, boards, the flight recorder every machine has.
- :mod:`repro.gpu` -- the per-family interface (Table 1 as data) and,
  per board, register-level device models, MMU, a numpy shader ISA.
- :mod:`repro.core` -- GPUReplay itself. The replayer half (recordings,
  verifier, replayer, ``python -m repro.core.replay``) stops here; the
  recorder half sits on :mod:`repro.stack`, the *original* GPU stack
  (drivers, JIT runtimes, ML frameworks) that GPUReplay replaces.
- :mod:`repro.obs`, :mod:`repro.store`, :mod:`repro.serve`,
  :mod:`repro.fleet` -- observability, the recording vault, the
  serving engine and the multi-node fleet, in that order.
- :mod:`repro.environments`, :mod:`repro.surgery`, :mod:`repro.bench`,
  :mod:`repro.tools`, :mod:`repro.analysis` -- deployments of the
  replayer, recording surgery, the paper's experiments, ``grr``, and
  the security/codebase analysis, on top.
"""

import importlib

from repro.errors import (
    GpuFault,
    RecordingError,
    ReplayDivergence,
    ReplayError,
    ReplayTimeout,
    ReproError,
    VerificationError,
)

__version__ = "1.0.0"

__all__ = [
    "GpuFault",
    "RecordingError",
    "ReplayDivergence",
    "ReplayError",
    "ReplayTimeout",
    "ReproError",
    "VerificationError",
    "__version__",
]


def lazy_exports(package: str, homes: dict):
    """A PEP 562 module ``__getattr__`` for ``package``: each name in
    ``homes`` (name -> submodule defining it) is imported on first
    access, so ``import package`` loads none of those submodules."""
    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{homes[name]}")
        return getattr(module, name)
    return __getattr__
