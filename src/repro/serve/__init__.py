"""``repro.serve`` -- the virtual-time concurrent replay serving engine.

Grown from the paper's end state ("run as recorded, many times"): a
pool of per-board replay workers behind a bounded admission queue,
batching same-content requests onto warm workers, with a failure
ladder that retries on a different worker and degrades to the
reference interpreter and finally the CPU reference path instead of
erroring. Deterministic by construction -- see DESIGN.md.
"""

from repro.serve.engine import (BATCH_BUCKETS, CPU_FALLBACK_NS,
                                RecordingStore, ReplayServer,
                                REQUEUE_BACKOFF_NS, ServeReport,
                                ServeResponse, ServerConfig,
                                TRANSIENT_FAULT_NS, VaultRecordingStore,
                                Worker, request_inputs, verify_report)
from repro.serve.loadgen import (FAULT_KINDS, FaultSpec, LoadgenConfig,
                                 NO_DEADLINE_NS, ServeRequest,
                                 generate_requests)

__all__ = [
    "BATCH_BUCKETS",
    "CPU_FALLBACK_NS",
    "FAULT_KINDS",
    "FaultSpec",
    "LoadgenConfig",
    "NO_DEADLINE_NS",
    "RecordingStore",
    "ReplayServer",
    "REQUEUE_BACKOFF_NS",
    "ServeReport",
    "ServeRequest",
    "ServeResponse",
    "ServerConfig",
    "TRANSIENT_FAULT_NS",
    "VaultRecordingStore",
    "Worker",
    "generate_requests",
    "request_inputs",
    "verify_report",
]
