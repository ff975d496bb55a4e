"""Section 7.5 (remainder): preemption delay and checkpoint-vs-reexec.

Paper results:

- preemption delay perceived by an interactive app is below 1 ms on
  both GPUs (a preemption is just cache/TLB flush + soft reset);
- checkpointing is generally *inferior* to re-execution: MobileNet
  checkpointing every 16 jobs slows the replay ~8x, because dumping
  all GPU memory costs far more than re-executing.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import ResultTable
from repro.bench.workloads import (fresh_replay_machine, get_recorded,
                                   model_input)
from repro.core.checkpoints import CheckpointPolicy
from repro.core.replay import boot_replayer
from repro.core.replayer import Replayer
from repro.environments.scheduler import GpuHandoffScheduler, InteractiveApp
from repro.units import MS


def preemption_delays(families=("mali", "v3d"),
                      model_by_family=None) -> ResultTable:
    model_by_family = model_by_family or {"mali": "alexnet",
                                          "v3d": "alexnet"}
    table = ResultTable(
        "Section 7.5: GPU preemption delay (interactive app's view)",
        ["family", "model", "preemptions", "max_handoff_ms",
         "replay_completed"])
    for family in families:
        model_name = model_by_family[family]
        workload, _stack = get_recorded(family, model_name)
        machine, replayer = boot_replayer(workload.recording, None,
                                          31337)
        scheduler = GpuHandoffScheduler(machine, replayer)
        app = InteractiveApp("game", burst_ns=16 * MS)
        scheduler.schedule_preemption(app, delay_ns=500_000)
        x = model_input(model_name)
        result = scheduler.run_replay(inputs={"input": x})
        table.add_row(
            family=family,
            model=model_name,
            preemptions=len(scheduler.events),
            max_handoff_ms=scheduler.max_handoff_delay_ns() / 1e6,
            replay_completed=result.stats.jobs_kicked > 0,
        )
    table.notes.append("paper: handoff delay below 1 ms on both GPUs")
    return table


def checkpoint_tradeoff(model_name: str = "mobilenet",
                        family: str = "mali",
                        every_n_jobs: int = 16) -> ResultTable:
    workload, _stack = get_recorded(family, model_name)
    x = model_input(model_name)

    def run(policy) -> tuple:
        machine = fresh_replay_machine(family, seed=909)
        replayer = Replayer(machine, checkpoint_policy=policy)
        replayer.init()
        replayer.load(workload.recording)
        result = replayer.replay(inputs={"input": x})
        return result.duration_ns, replayer.checkpoints

    plain_ns, _ = run(CheckpointPolicy(every_n_jobs=0))
    ckpt_ns, manager = run(CheckpointPolicy(every_n_jobs=every_n_jobs))

    table = ResultTable(
        "Section 7.5: checkpointing vs whole re-execution",
        ["mode", "duration_ms", "checkpoints", "checkpoint_cost_ms",
         "slowdown_x"])
    table.add_row(mode="no checkpoints", duration_ms=plain_ns / 1e6,
                  checkpoints=0, checkpoint_cost_ms=0.0, slowdown_x=1.0)
    table.add_row(mode=f"every {every_n_jobs} jobs",
                  duration_ms=ckpt_ns / 1e6,
                  checkpoints=manager.taken_count,
                  checkpoint_cost_ms=manager.total_checkpoint_ns / 1e6,
                  slowdown_x=ckpt_ns / plain_ns)
    table.notes.append(
        "paper: MobileNet with per-16-job checkpoints runs ~8x slower; "
        "memory dumping dominates, so re-execution wins")
    return table
