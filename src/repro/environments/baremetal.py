"""The baremetal replayer (deployment D3, Section 6.3).

No OS at all: recordings are statically embedded in the binary (no
filesystem), and the replayer must bring up GPU power and clocks
itself. The bring-up knowledge is not hand-written -- it is the
register/firmware access sequence *extracted from the kernel* at
record time and shipped in the recording's metadata, replayed here
against the SoC firmware mailbox.

The 50-KB executable budget of the paper's Table 4 is tracked as an
explicit component breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.recording import Recording
from repro.environments.base import DeploymentEnvironment, TcbProfile
from repro.errors import EnvironmentError_
from repro.soc import firmware as fw
from repro.units import KIB, MS

#: CPU boot: exception vectors, MMU/caches, page allocator (circle-like
#: baremetal library bring-up).
BOOT_NS = 8 * MS

#: Executable footprint per component, bytes (Section 6.3's breakdown
#: of the ~50 KB binary).
BINARY_BREAKDOWN = {
    "replayer": 8 * KIB,
    "zlib": 9 * KIB,
    "boot+irq+firmware": 15 * KIB,
    "mmu+pages": 4 * KIB,
    "timers": 4 * KIB,
    "strings+lists": 9 * KIB,
}


@dataclass
class EmbeddedRecording:
    """A recording statically linked into the binary (no filesystem)."""

    name: str
    blob: bytes

    @property
    def size(self) -> int:
        return len(self.blob)


class BaremetalEnvironment(DeploymentEnvironment):
    """Standalone replayer without any OS (built for v3d / Pi 4)."""

    name = "baremetal"

    def __init__(self, machine):
        super().__init__(machine)
        self.embedded: Dict[str, EmbeddedRecording] = {}
        self._booted = False

    def tcb(self) -> TcbProfile:
        return TcbProfile(
            name=self.name,
            trusted_components=["replayer binary (~4K SLoC, ~50 KB)"],
            exposed_to=["remote adversaries only"],
            replayer_binary_bytes=sum(BINARY_BREAKDOWN.values()),
        )

    def embed_recording(self, name: str, blob: bytes) -> None:
        """Link a compressed recording into the executable image."""
        self.embedded[name] = EmbeddedRecording(name, blob)

    def binary_size(self) -> int:
        """Executable size including embedded recordings."""
        return sum(BINARY_BREAKDOWN.values()) + \
            sum(r.size for r in self.embedded.values())

    def _prepare(self) -> None:
        obs = self.machine.obs
        with obs.span("baremetal:boot", obs.track("env", self.name),
                      cat="env"):
            self.machine.clock.advance(BOOT_NS)
        self._booted = True
        # Without a kernel, nobody has configured GPU power: apply the
        # firmware sequence extracted at record time, if any recording
        # carries one; Mali boards need only the register bring-up the
        # nano driver performs at init.
        sequence = self._extracted_power_sequence()
        for tag, device_id, value in sequence:
            obs.counter("env.firmware_calls").inc()
            self.machine.firmware.request(tag, device_id, value)

    def _extracted_power_sequence(self) -> List:
        for embedded in self.embedded.values():
            recording = Recording.from_bytes(embedded.blob)
            if recording.meta.power_sequence:
                return recording.meta.power_sequence
        return []

    def load_embedded(self, name: str):
        """Load a statically-linked recording by name."""
        if name not in self.embedded:
            known = sorted(self.embedded)
            raise EnvironmentError_(
                f"no embedded recording {name!r}; linked: {known}")
        return self.require_replayer().load(
            Recording.from_bytes(self.embedded[name].blob))
