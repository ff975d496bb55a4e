"""GPU performance/cost model.

Converts shader programs into virtual-time durations with a simple
roofline: a job is bound either by compute (FLOPs over the active
shader cores) or by memory traffic (bytes over DRAM bandwidth), plus
fixed parsing overheads. Interference (Section 7.2) scales the memory
and compute terms; the GPU clock domain converts cycles to nanoseconds,
so underclocking genuinely slows jobs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.isa import Program, kernel_cost
from repro.soc.clock import ClockDomain
from repro.soc.machine import InterferenceProfile
from repro.units import US


@dataclass
class GpuPerfModel:
    """Tunable throughput constants for one GPU model."""

    #: FLOPs retired per shader core per GPU clock cycle.
    flops_per_core_cycle: float = 4.0
    #: Bytes each shader core's load/store path moves per clock cycle
    #: (DRAM contention across cores is modelled by the interference
    #: profile, not here -- so job time scales with the affinity mask,
    #: which is what the Figure 9 cross-SKU experiment measures).
    bytes_per_core_cycle: float = 2.0
    #: Fixed cost of the GPU front-end parsing one job binary.
    job_parse_ns: int = 4 * US
    #: Per-instruction dispatch overhead.
    instr_overhead_ns: int = 1 * US
    #: The zoo models are shrunk heavily (channels and spatial dims) so
    #: numpy stays fast; this multiplier restores realistic *virtual*
    #: job durations (tens to hundreds of microseconds), keeping every
    #: CPU-vs-GPU overhead ratio in the paper's regime.
    workload_scale: float = 100.0

    def job_cycles(self, program: Program, active_cores: int,
                   interference: InterferenceProfile) -> float:
        """Cycle count for executing ``program`` on ``active_cores``."""
        if active_cores <= 0:
            raise ValueError("job needs at least one active core")
        flops, traffic, _label = kernel_cost(program)
        compute_cycles = flops / (self.flops_per_core_cycle * active_cores)
        memory_cycles = (traffic
                         / (self.bytes_per_core_cycle * active_cores)
                         * interference.mem_contention)
        return max(compute_cycles, memory_cycles) \
            * self.workload_scale * interference.thermal_throttle

    def job_duration_ns(self, program: Program, active_cores: int,
                        clock_domain: ClockDomain,
                        interference: InterferenceProfile) -> int:
        """Virtual-time duration of one job (excluding jitter)."""
        cycles = self.job_cycles(program, active_cores, interference)
        return (clock_domain.cycles_to_ns(cycles)
                + self.job_parse_ns
                + self.instr_overhead_ns * len(program.instructions))
