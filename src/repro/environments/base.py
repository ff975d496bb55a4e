"""Common machinery for replayer deployment environments.

An environment owns the answers to three questions the replayer core
deliberately does not: who configured GPU power/clocks, what the
trusted computing base is, and what per-invocation overhead hosting
adds (syscalls, world switches, nothing at all on baremetal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.recording import Recording
from repro.core.replayer import Replayer, ReplayResult
from repro.errors import EnvironmentError_
from repro.soc.machine import Machine, host_kernel_configures_gpu


@dataclass
class TcbProfile:
    """What the app must trust in this environment (Section 7.1)."""

    name: str
    trusted_components: List[str]
    exposed_to: List[str]
    #: Approximate executable footprint of the replayer build, bytes
    #: (Table 4's "Ours" column).
    replayer_binary_bytes: int = 0


class DeploymentEnvironment:
    """Base class: set up hosting, then hand out a ready replayer."""

    name = "abstract"

    def __init__(self, machine: Machine):
        self.machine = machine
        self.replayer: Optional[Replayer] = None
        self.setup_ns = 0
        self._ready = False

    def tcb(self) -> TcbProfile:
        raise NotImplementedError

    def _prepare(self) -> None:
        """Environment-specific hosting setup (costed in virtual time)."""
        raise NotImplementedError

    def setup(self) -> Replayer:
        if self._ready:
            raise EnvironmentError_(f"{self.name}: already set up")
        t0 = self.machine.clock.now()
        obs = self.machine.obs
        with obs.span(f"env:{self.name}:setup",
                      obs.track("env", self.name), cat="env"):
            self._prepare()
            self.replayer = self._build_replayer()
            self.replayer.init()
        self.setup_ns = self.machine.clock.now() - t0
        obs.gauge("env.setup_ns").set(self.setup_ns)
        self._ready = True
        return self.replayer

    def _build_replayer(self) -> Replayer:
        return Replayer(self.machine)

    def require_replayer(self) -> Replayer:
        if not self._ready or self.replayer is None:
            raise EnvironmentError_(f"{self.name}: call setup() first")
        return self.replayer

    # -- convenience pass-throughs (environments may wrap these) ----------------

    def load(self, recording: Recording):
        return self.require_replayer().load(recording)

    def replay(self, **kwargs) -> ReplayResult:
        return self.require_replayer().replay(**kwargs)

    def teardown(self) -> None:
        if self.replayer is not None:
            self.replayer.cleanup()
        self._ready = False
