"""Conditional NNs: CPU-evaluated branches over separate recordings.

Section 3.1's one exception to the branch-free-job-graph rule: a
conditional NN chooses among normal NNs at run time. GR's answer is to
record each branch as its own recording (or chain) and let the app
evaluate the branch condition *on the CPU*, then replay the chosen
branch.

Branches are typically recorded in separate sessions, so their GPU
address layouts may conflict; switching branches therefore passes
through a fresh ``init()`` -- the same clean GPU handoff apps use when
sharing the GPU cooperatively (Section 5.3).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.actions import InterpreterStats
from repro.core.recording import Recording
from repro.core.replayer import Replayer, ReplayResult
from repro.errors import ReplayError
from repro.soc.machine import Machine

BranchSource = Union[Recording, bytes, Sequence[Recording]]


def replay_sequence(replayer: Replayer, recordings: Sequence[Recording],
                    inputs: Optional[Dict[str, np.ndarray]] = None,
                    use_recorded_intervals: bool = False
                    ) -> ReplayResult:
    """Replay a per-layer chain {R1..Rn} in one session of the
    initialised ``replayer``: intermediates stay resident in GPU
    memory between recordings; only R1 takes inputs and only Rn
    yields outputs (Section 3.1's NN-inference pattern)."""
    if not recordings:
        raise ReplayError("empty recording sequence")
    t_start = replayer.machine.clock.now()
    total_attempts = 0
    stats = InterpreterStats()
    startup = 0
    for index, recording in enumerate(recordings):
        replayer.load(recording)
        result = replayer.replay(
            inputs=inputs if index == 0 else {},
            use_recorded_intervals=use_recorded_intervals)
        if index == 0:
            startup = result.startup_ns + replayer.load_ns
            stats.first_kick_at_ns = result.stats.first_kick_at_ns
        total_attempts += result.attempts
        stats.add(result.stats)
    return ReplayResult(
        outputs=result.outputs,
        duration_ns=replayer.machine.clock.now() - t_start,
        attempts=total_attempts,
        stats=stats,
        startup_ns=startup)


def _as_chain(source: BranchSource) -> List[Recording]:
    if isinstance(source, Recording):
        return [source]
    if isinstance(source, (bytes, bytearray)):
        return [Recording.from_bytes(bytes(source))]
    chain = list(source)
    if not chain or not all(isinstance(r, Recording) for r in chain):
        raise ReplayError("branch must be a Recording, its bytes, or a "
                          "non-empty recording chain")
    return chain


class ConditionalReplayApp:
    """An app that routes inputs to one of several recorded branches.

    The selector runs on the CPU (it sees the raw input); replay
    happens on whichever branch it names. Consecutive replays of the
    *same* branch reuse the loaded session; switching branches resets
    the GPU and rebuilds the address space.
    """

    def __init__(self, machine: Machine,
                 branches: Dict[str, BranchSource],
                 selector: Optional[Callable[[np.ndarray], str]] = None):
        if not branches:
            raise ReplayError("a conditional app needs at least one "
                              "branch")
        self.machine = machine
        self.branches: Dict[str, List[Recording]] = {
            name: _as_chain(source) for name, source in branches.items()}
        self.selector = selector
        self.replayer = Replayer(machine)
        self.replayer.init()
        self._loaded: Optional[str] = None
        self.branch_counts: Dict[str, int] = {name: 0
                                              for name in self.branches}
        self.switches = 0

    def branch_names(self) -> List[str]:
        return sorted(self.branches)

    def _activate(self, branch: str) -> None:
        if branch not in self.branches:
            raise ReplayError(
                f"unknown branch {branch!r}; have {self.branch_names()}")
        if self._loaded == branch:
            return
        if self._loaded is not None:
            # Different branches own different address-space layouts:
            # clean handoff (reset + scrub) before re-mapping.
            self.replayer.init()
            self.switches += 1
        self._loaded = branch

    def run_branch(self, branch: str,
                   inputs: Dict[str, np.ndarray]) -> ReplayResult:
        """Replay one named branch on the given inputs."""
        self._activate(branch)
        chain = self.branches[branch]
        self.branch_counts[branch] += 1
        if len(chain) == 1:
            self.replayer.load(chain[0])
            return self.replayer.replay(inputs=inputs)
        return replay_sequence(self.replayer, chain, inputs=inputs)

    def run(self, x: np.ndarray,
            input_name: str = "input") -> ReplayResult:
        """Evaluate the CPU-side branch condition, then replay it."""
        if self.selector is None:
            raise ReplayError("no selector installed; use run_branch()")
        branch = self.selector(x)
        return self.run_branch(branch, {input_name: x})

    def cleanup(self) -> None:
        self.replayer.cleanup()
        self._loaded = None
