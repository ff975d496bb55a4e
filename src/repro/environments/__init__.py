"""Deployment environments for the replayer (Sections 1, 6.3).

Four hosting environments, matching Table 4's "Replayers" column:

- :class:`~repro.environments.userspace.UserspaceEnvironment` -- a
  daemon with kernel bypass (DPDK/UIO-style), used on Mali;
- :class:`~repro.environments.kernelspace.KernelEnvironment` -- a
  kernel module reusing stock-driver plumbing, used on v3d;
- :class:`~repro.environments.tee.TeeEnvironment` -- the TrustZone
  secure world behind a secure monitor (deployment D2);
- :class:`~repro.environments.baremetal.BaremetalEnvironment` -- no OS
  at all: the replayer brings up GPU power/clocks itself from the
  extracted firmware sequence (deployment D3).

Plus :mod:`repro.environments.scheduler` -- GPU handoff between a
replayer and interactive apps (deployment D1, Section 5.3).

What loads when: ``import repro.environments`` loads no submodule; the
names in ``__all__`` resolve on first access. An environment imports
the replayer half of :mod:`repro.core` and nothing of :mod:`repro.stack`
or :mod:`repro.obs`: that closure is what a TEE would have to trust.
"""

from repro import lazy_exports

_HOMES = {
    "BaremetalEnvironment": "baremetal",
    "DeploymentEnvironment": "base",
    "GpuHandoffScheduler": "scheduler",
    "InteractiveApp": "scheduler",
    "KernelEnvironment": "kernelspace",
    "SecureMonitor": "tee",
    "TeeEnvironment": "tee",
    "UserspaceEnvironment": "userspace",
}

__all__ = list(_HOMES)
__getattr__ = lazy_exports(__name__, _HOMES)
