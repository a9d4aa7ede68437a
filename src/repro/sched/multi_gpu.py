"""Multi-GPU pipeline parallelism (a Section 5 injection capability).

The injection framework "includes support for multi-GPU pipelining": the
layer stack is partitioned into contiguous stages, one GPU per stage, with
activations crossing PCIe between stages.  Routed experts still execute on
the shared CPU pool.

Pipeline behavior this module reproduces:

- **prefill** processes multiple chunks, so stage s can work on chunk c
  while stage s+1 works on chunk c-1 -- GPU-bound prefill scales with the
  stage count, but the *shared* CPU expert pool serializes across stages
  and caps the gain once prefill is CPU-bound (which it is for the big
  MoE models: pipelining mainly buys VRAM headroom, not speed);
- **decode** of a single token traverses stages serially, so pipelining
  does not reduce batch-1 latency at all; its value is fitting higher
  precisions into aggregate VRAM.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SchedulingError
from ..hw.event_sim import Simulator
from ..hw.roofline import pcie_transfer_time_us
from ..hw.spec import MachineSpec
from .decode import DecodeScheduleConfig, batched_step_time_us
from .workload import DecodeLayerWork, PrefillLayerWork


@dataclass(frozen=True)
class PipelineConfig:
    """How layers map onto GPUs."""

    n_stages: int

    def __post_init__(self) -> None:
        if self.n_stages <= 0:
            raise SchedulingError("n_stages must be positive")

    def stage_of(self, layer_idx: int, n_layers: int) -> int:
        """Contiguous, balanced layer-to-stage assignment."""
        per_stage = -(-n_layers // self.n_stages)  # ceil
        return min(layer_idx // per_stage, self.n_stages - 1)


def simulate_pipelined_prefill(
    works_per_chunk: list[list[PrefillLayerWork]],
    machine: MachineSpec,
    config: PipelineConfig,
) -> Simulator:
    """Chunked prefill through a GPU pipeline with a shared CPU pool."""
    if not works_per_chunk:
        raise SchedulingError("prefill needs at least one chunk")
    sim = Simulator()
    gpus = [sim.resource(f"gpu{s}") for s in range(config.n_stages)]
    cpu = sim.resource("cpu")
    pcie = sim.resource("pcie")
    host = sim.resource("host")

    n_layers = len(works_per_chunk[0])
    # last_on_stage[s]: the previous chunk's final task on stage s --
    # a stage processes chunks in order.
    last_on_stage: dict[int, int] = {}
    prev_chunk_layer: list[int | None] = [None] * n_layers

    for c, works in enumerate(works_per_chunk):
        launch = sim.submit(f"launch:{c}", host, machine.gpu.graph_launch_us)
        prev: list[int] = [launch]
        prev_stage = 0
        for k, w in enumerate(works):
            stage = config.stage_of(k, n_layers)
            deps = list(prev)
            if stage != prev_stage:
                # Activation handoff between GPUs over PCIe.
                deps = [sim.submit(
                    f"xfer:stage:{c}.{k}", pcie,
                    pcie_transfer_time_us(w.transfer_bytes,
                                          machine.interconnect),
                    deps=deps,
                )]
            if stage in last_on_stage:
                deps.append(last_on_stage[stage])

            attn = sim.submit(f"attn:{c}.{k}", gpus[stage], w.gpu_attn_us,
                              deps=deps)
            if w.cpu_routed_us > 0:
                to_cpu = sim.submit(
                    f"xfer:to_cpu:{c}.{k}", pcie,
                    pcie_transfer_time_us(w.transfer_bytes,
                                          machine.interconnect),
                    deps=[attn],
                )
                routed = sim.submit(f"cpu:{c}.{k}", cpu, w.cpu_routed_us,
                                    deps=[to_cpu])
                back = sim.submit(
                    f"xfer:to_gpu:{c}.{k}", pcie,
                    pcie_transfer_time_us(w.transfer_bytes,
                                          machine.interconnect),
                    deps=[routed],
                )
                shared = sim.submit(f"shared:{c}.{k}", gpus[stage],
                                    w.gpu_shared_us, deps=[attn])
                out = sim.submit(f"merge:{c}.{k}", gpus[stage], 2.0,
                                 deps=[shared, back])
            else:
                out = attn
            last_on_stage[stage] = out
            prev = [out]
            prev_stage = stage
            prev_chunk_layer[k] = out
    sim.drain()
    return sim


def simulate_pipelined_decode(
    works: list[DecodeLayerWork],
    machine: MachineSpec,
    config: PipelineConfig,
    n_tokens: int,
) -> Simulator:
    """Batch-1 decode through the pipeline: strictly serial per token."""
    if not works:
        raise SchedulingError("decode needs at least one layer")
    if n_tokens <= 0:
        raise SchedulingError("n_tokens must be positive")
    sim = Simulator()
    gpus = [sim.resource(f"gpu{s}") for s in range(config.n_stages)]
    cpu = sim.resource("cpu")
    pcie = sim.resource("pcie")
    host = sim.resource("host")

    n_layers = len(works)
    prev: list[int] = []
    for t in range(n_tokens):
        launch = sim.submit(f"launch:{t}", host, machine.gpu.graph_launch_us,
                            deps=prev)
        prev = [launch]
        prev_stage = 0
        for k, w in enumerate(works):
            stage = config.stage_of(k, n_layers)
            deps = list(prev)
            if stage != prev_stage:
                deps = [sim.submit(
                    f"xfer:stage:{t}.{k}", pcie,
                    pcie_transfer_time_us(w.transfer_bytes,
                                          machine.interconnect),
                    deps=deps,
                )]
            attn = sim.submit(f"attn:{t}.{k}", gpus[stage], w.gpu_attn_us,
                              deps=deps)
            if w.cpu_routed_us > 0:
                to_cpu = sim.submit(
                    f"xfer:to_cpu:{t}.{k}", pcie,
                    pcie_transfer_time_us(w.transfer_bytes,
                                          machine.interconnect),
                    deps=[attn],
                )
                routed = sim.submit(f"cpu:{t}.{k}", cpu, w.cpu_routed_us,
                                    deps=[to_cpu])
                back = sim.submit(
                    f"xfer:to_gpu:{t}.{k}", pcie,
                    pcie_transfer_time_us(w.transfer_bytes,
                                          machine.interconnect),
                    deps=[routed],
                )
                shared = sim.submit(f"shared:{t}.{k}", gpus[stage],
                                    w.gpu_shared_us, deps=[attn])
                out = sim.submit(f"merge:{t}.{k}", gpus[stage], 2.0,
                                 deps=[shared, back])
            else:
                out = attn
            prev = [out]
            prev_stage = stage
    sim.drain()
    return sim


def vram_per_stage_bytes(total_gpu_bytes: float, config: PipelineConfig
                         ) -> float:
    """Per-GPU weight footprint under balanced layer partitioning."""
    if total_gpu_bytes < 0:
        raise SchedulingError("bytes must be non-negative")
    return total_gpu_bytes / config.n_stages


# -- continuous-batching stage split (steady-state interval model) -----------
#
# The task-graph simulators above answer "how long does one chunked prefill
# or one batch-1 decode take end to end".  The continuous scheduler needs a
# different number: the steady-state *iteration interval* of a decode batch
# flowing through the stages, where stage s works on iteration t while
# stage s+1 finishes iteration t-1.  The closed-form model below prices
# that interval from the same per-layer works the single-GPU pricing uses,
# so a one-stage config collapses to ``batched_step_time_us`` exactly.


def stage_works(
    works: list[DecodeLayerWork], config: PipelineConfig,
) -> list[list[DecodeLayerWork]]:
    """Partition per-layer works into the contiguous per-stage lists.

    Mirrors :meth:`PipelineConfig.stage_of`; trailing stages may be empty
    when there are more stages than layers.
    """
    if not works:
        raise SchedulingError("stage split needs at least one layer")
    n_layers = len(works)
    out: list[list[DecodeLayerWork]] = [[] for _ in range(config.n_stages)]
    for k, w in enumerate(works):
        out[config.stage_of(k, n_layers)].append(w)
    return out


def stage_boundary_bytes(
    works: list[DecodeLayerWork], config: PipelineConfig,
) -> tuple[float, ...]:
    """Activation bytes crossing each stage boundary, in layer order.

    One entry per boundary layer (a layer whose stage differs from its
    predecessor's), carrying that layer's per-iteration activation
    footprint.  Returned raw so callers can price the handoffs on the
    link of the moment (possibly fault-degraded).
    """
    n_layers = len(works)
    return tuple(
        works[k].transfer_bytes
        for k in range(1, n_layers)
        if config.stage_of(k, n_layers) != config.stage_of(k - 1, n_layers)
    )


def staged_interval_us(
    works: list[DecodeLayerWork],
    schedule_config: DecodeScheduleConfig,
    machine: MachineSpec,
    config: PipelineConfig,
) -> float:
    """Steady-state pipelined iteration interval, transfers excluded.

    ``min(serial, max(slowest stage, shared-CPU floor))``: consecutive
    iterations overlap across stages, so the interval is the slowest
    stage's own batched step time -- but the routed experts of *every*
    stage run on the one shared CPU pool, which serializes across stages
    and floors the interval at the summed CPU expert time (the paper's
    "pipelining buys VRAM headroom, not speed" once decode is CPU-bound).
    The serial clamp keeps a degenerate split (one non-empty stage, or
    overlap the stages cannot actually exploit) from pricing *better*
    than the unsplit step it decomposes.
    """
    serial = batched_step_time_us(works, schedule_config, machine)
    stages = [s for s in stage_works(works, config) if s]
    if len(stages) <= 1:
        return serial
    slowest = max(batched_step_time_us(s, schedule_config, machine)
                  for s in stages)
    cpu_floor = sum(w.cpu_routed_us for w in works)
    return min(serial, max(slowest, cpu_floor))
