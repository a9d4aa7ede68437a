"""Prefill-phase task-graph builder.

Prefill processes the whole prompt (optionally in chunks) through every
layer.  The phase is dominated by CPU expert GEMMs at high arithmetic
intensity, so the kernel choice (AMX vs AVX-512) and the work-scheduling
policy decide throughput; launch overhead matters much less than in decode
because it amortizes over thousands of tokens.  Expert Deferral is *not*
applied here (Section 4.1: during prefill nearly all experts are active in
both the immediate and deferred sets, doubling memory traffic).
"""

from __future__ import annotations

import math

from ..errors import SchedulingError
from ..hw.event_sim import Simulator
from ..hw.roofline import pcie_transfer_time_us
from ..hw.spec import MachineSpec
from .cuda_graph import GpuExecutor, LaunchMode
from .decode import graph_chain_end, graph_layers
from .workload import PrefillLayerWork

MERGE_KERNEL_US = 4.0


def _kernel_split(n_gpu_kernels: int) -> tuple[int, int]:
    """A prefill layer's attention and shared-expert kernel counts."""
    return (max(1, int(n_gpu_kernels * 0.8)),
            max(1, int(n_gpu_kernels * 0.2)))


def build_prefill_chunk(
    sim: Simulator,
    ex: GpuExecutor,
    works: list[PrefillLayerWork],
    machine: MachineSpec,
    overlap_cpu_gpu: bool,
    chunk_deps: list[int],
    chunk_idx: int = 0,
) -> int:
    """Emit one prefill chunk's task graph; returns the chunk-end task."""
    if not works:
        raise SchedulingError("prefill chunk needs at least one layer")
    cpu = sim.resource("cpu")
    pcie = sim.resource("pcie")

    ex.begin_step(deps=chunk_deps)
    prev_out: list[int] = list(chunk_deps)
    for k, w in enumerate(works):
        tag = f"{chunk_idx}.{k}"
        n_attn, n_shared = _kernel_split(w.n_gpu_kernels)
        attn = ex.kernel(f"attn:{tag}", w.gpu_attn_us, n_attn, deps=prev_out)
        if w.cpu_routed_us <= 0.0:
            prev_out = [attn]
            continue
        submit = ex.sync_point(f"submit:{tag}", deps=[attn])
        to_cpu = sim.submit(
            f"xfer:to_cpu:{tag}", pcie,
            pcie_transfer_time_us(w.transfer_bytes, machine.interconnect),
            deps=[submit],
        )
        routed = sim.submit(f"cpu:routed:{tag}", cpu, w.cpu_routed_us,
                            deps=[to_cpu])
        from_cpu = sim.submit(
            f"xfer:to_gpu:{tag}", pcie,
            pcie_transfer_time_us(w.transfer_bytes, machine.interconnect),
            deps=[routed],
        )
        sync = ex.sync_point(f"sync:{tag}", deps=[from_cpu])
        shared = ex.kernel(
            f"shared:{tag}", w.gpu_shared_us, n_shared,
            deps=[attn] if overlap_cpu_gpu else [sync],
        )
        prev_out = [ex.kernel(f"merge:{tag}", MERGE_KERNEL_US, 1,
                              deps=[shared, sync])]
    return prev_out[0]


def simulate_prefill(
    works_per_chunk: list[list[PrefillLayerWork]],
    launch_mode: LaunchMode,
    machine: MachineSpec,
    overlap_cpu_gpu: bool,
) -> Simulator:
    """Run every prefill chunk in sequence and return the drained simulator."""
    if not works_per_chunk:
        raise SchedulingError("prefill needs at least one chunk")
    sim = Simulator()
    ex = GpuExecutor(sim, machine, launch_mode)
    deps: list[int] = []
    for i, works in enumerate(works_per_chunk):
        end = build_prefill_chunk(sim, ex, works, machine, overlap_cpu_gpu,
                                  chunk_deps=deps, chunk_idx=i)
        deps = [end]
    sim.drain()
    return sim


def prefill_elapsed_us(
    works_per_chunk: list[list[PrefillLayerWork]],
    launch_mode: LaunchMode,
    machine: MachineSpec,
    overlap_cpu_gpu: bool,
) -> float:
    """``simulate_prefill(...).now`` without recording a task graph.

    In CUDA-graph mode no task waits for its resource, so each chunk's
    graph launch and layers are timed by :func:`~repro.sched.decode.
    graph_chain_end`, bit for bit; the next chunk's launch waits for the
    previous chunk's last layer.  Other launch modes, and any invalid
    duration, record the chunks through :func:`simulate_prefill`, which
    raises the recorder's own error.
    """
    if launch_mode.uses_graph and works_per_chunk and all(works_per_chunk):
        lat = launch_mode.launch_latency_us(machine)
        launch = machine.gpu.graph_launch_us
        chunks = [graph_layers(works, machine, lat, _kernel_split,
                               MERGE_KERNEL_US) for works in works_per_chunk]
        if None not in chunks and 0.0 <= launch < math.inf:
            end = 0.0
            for layers in chunks:
                end = graph_chain_end(end, launch, layers, overlap_cpu_gpu)
            return end
    return simulate_prefill(works_per_chunk, launch_mode, machine,
                            overlap_cpu_gpu).now
