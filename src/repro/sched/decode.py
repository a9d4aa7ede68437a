"""Decode-phase task-graph builders: synchronous, asynchronous, deferral.

One decode step (one token) is lowered into simulator tasks:

- **synchronous** (baseline): GPU attention -> submit -> CPU routed experts
  -> sync -> GPU shared experts -> merge; the devices never overlap.
- **asynchronous** (Section 3.3): after gating, the CPU control thread
  feeds routed experts to worker threads while the GPU runs the shared
  experts; submit/sync become ``cudaLaunchHostFunc`` callbacks inside one
  CUDA graph.
- **Expert Deferral** (Section 4): only the ``n_immediate`` highest-score
  experts gate the next layer; the remaining ``n_deferred`` run on the CPU
  concurrently with the *next* layer's attention, and their output joins at
  layer k+1's merge.  The final layer never defers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from typing import Callable, Optional, Sequence

from ..errors import SchedulingError
from ..hw.event_sim import CompiledGraph, DurationScaling, Simulator
from ..hw.roofline import pcie_transfer_time_us
from ..hw.spec import MachineSpec, paper_testbed
from .cuda_graph import GpuExecutor, LaunchMode
from .workload import DecodeLayerWork

MERGE_KERNEL_US = 2.0  # elementwise merge of CPU and GPU activations

# Distinct step graphs the per-process price memo keeps (LRU).  A chaos
# storm replay prices ~180 distinct graphs; a fleet replay far fewer.
STEP_PRICE_CACHE_SIZE = 1024

# Fault-injection duration hook forwarded to the simulator (see
# repro.faults.StepPerturbation.sim_hook).
PerturbHook = Optional[DurationScaling]


@dataclass(frozen=True)
class DecodeScheduleConfig:
    """Scheduler policy for the decode phase."""

    launch_mode: LaunchMode
    overlap_cpu_gpu: bool
    top_k: int
    n_deferred: int = 0
    attn_kernel_fraction: float = 0.8   # share of a layer's kernels in attention

    def __post_init__(self) -> None:
        if self.n_deferred < 0:
            raise SchedulingError("n_deferred must be >= 0")
        if self.n_deferred > 0 and self.top_k - self.n_deferred < 2:
            raise SchedulingError(
                "Expert Deferral requires at least 2 immediate experts "
                "(Section 4.2 stability heuristic)"
            )

    @property
    def n_immediate(self) -> int:
        return self.top_k - self.n_deferred


def build_decode_step(
    sim: Simulator,
    ex: GpuExecutor,
    works: list[DecodeLayerWork],
    config: DecodeScheduleConfig,
    machine: MachineSpec,
    step_deps: list[int],
    step_idx: int = 0,
    carried_deferred: int | None = None,
) -> tuple[int, int | None]:
    """Emit the task graph of one decode step.

    Returns ``(step_end, trailing_deferred)``: the final merge/LM-head task
    and, if deferral is on, the last layer-(L-1) deferred transfer that the
    *next* step's first merge must also respect (it never crosses steps in
    the paper -- deferral stops at the last layer -- so this is None there;
    it exists for mid-step chaining).
    """
    if not works:
        raise SchedulingError("decode step needs at least one layer")
    cpu = sim.resource("cpu")
    pcie = sim.resource("pcie")

    ex.begin_step(deps=step_deps)
    prev_out: list[int] = list(step_deps)
    prev_deferred_xfer: int | None = carried_deferred
    n_layers = len(works)

    for k, w in enumerate(works):
        tag = f"{step_idx}.{k}"
        n_attn_kernels = max(1, int(w.n_gpu_kernels * config.attn_kernel_fraction))
        n_misc_kernels = max(1, w.n_gpu_kernels - n_attn_kernels)

        attn = ex.kernel(f"attn:{tag}", w.gpu_attn_us, n_attn_kernels,
                         deps=prev_out)

        if w.cpu_routed_us <= 0.0:
            # Dense layer: no CPU work, no transfers.
            prev_out = [attn]
            continue

        submit = ex.sync_point(f"submit:{tag}", deps=[attn])
        to_cpu = sim.submit(
            f"xfer:to_cpu:{tag}", pcie,
            pcie_transfer_time_us(w.transfer_bytes, machine.interconnect),
            deps=[submit],
        )

        last_layer = k == n_layers - 1
        deferring = config.n_deferred > 0 and not last_layer
        if deferring:
            imm_us, def_us = w.cpu_split(
                config.n_immediate, config.n_deferred, config.top_k
            )
        else:
            imm_us, def_us = w.cpu_routed_us, 0.0

        imm = sim.submit(f"cpu:imm:{tag}", cpu, imm_us, deps=[to_cpu])
        deferred = (
            sim.submit(f"cpu:def:{tag}", cpu, def_us, deps=[to_cpu])
            if deferring else None
        )

        from_cpu = sim.submit(
            f"xfer:to_gpu:{tag}", pcie,
            pcie_transfer_time_us(w.transfer_bytes, machine.interconnect),
            deps=[imm],
        )
        sync = ex.sync_point(f"sync:{tag}", deps=[from_cpu])

        if config.overlap_cpu_gpu:
            shared_deps = [attn]            # shared experts run during CPU work
        else:
            shared_deps = [sync]            # baseline: GPU waits for the CPU
        shared = ex.kernel(f"shared:{tag}", w.gpu_shared_us, n_misc_kernels,
                           deps=shared_deps)

        merge_deps = [shared, sync]
        if prev_deferred_xfer is not None:
            merge_deps.append(prev_deferred_xfer)  # R_{k-1}^def joins O_k
        merge = ex.kernel(f"merge:{tag}", MERGE_KERNEL_US, 1, deps=merge_deps)

        if deferred is not None:
            prev_deferred_xfer = sim.submit(
                f"xfer:def:{tag}", pcie,
                pcie_transfer_time_us(w.transfer_bytes, machine.interconnect),
                deps=[deferred],
            )
        else:
            prev_deferred_xfer = None

        prev_out = [merge]

    head = ex.kernel(f"lm_head:{step_idx}", works[-1].gpu_attn_us * 0.2, 1,
                     deps=prev_out)
    return head, prev_deferred_xfer


def _chain_decode_steps(
    sim: Simulator,
    works: list[DecodeLayerWork],
    config: DecodeScheduleConfig,
    machine: MachineSpec,
    n_steps: int,
) -> list[int]:
    """Chain ``n_steps`` decode steps into ``sim``; returns each step's head.

    Every task of step t+1 depends (directly or transitively) on step t's
    head, so the event ordering of a prefix of steps is identical whether
    or not later steps exist -- which is what lets callers read a warmup
    boundary out of one simulation instead of running the prefix twice.
    """
    ex = GpuExecutor(sim, machine, config.launch_mode)
    deps: list[int] = []
    carried: int | None = None
    heads: list[int] = []
    for t in range(n_steps):
        end, carried = build_decode_step(
            sim, ex, works, config, machine, step_deps=deps,
            step_idx=t, carried_deferred=carried,
        )
        deps = [end]
        heads.append(end)
    return heads


def simulate_decode(
    works: list[DecodeLayerWork],
    config: DecodeScheduleConfig,
    machine: MachineSpec,
    n_tokens: int,
    perturb: PerturbHook = None,
) -> Simulator:
    """Chain ``n_tokens`` decode steps and run the simulation to completion.

    The same per-layer work is reused for every step (context growth over a
    few hundred tokens changes attention time negligibly at these scales),
    so throughput is tokens / final simulated time.  ``perturb`` is an
    optional fault-injection duration hook handed straight to
    :class:`~repro.hw.event_sim.Simulator`, so degraded hardware windows
    reprice the whole task graph coherently.
    """
    if n_tokens <= 0:
        raise SchedulingError("n_tokens must be positive")
    sim = Simulator(perturb=perturb)
    _chain_decode_steps(sim, works, config, machine, n_tokens)
    sim.drain()
    return sim


def batched_step_time_us(
    works: list[DecodeLayerWork],
    config: DecodeScheduleConfig,
    machine: MachineSpec,
    n_steps: int = 4,
    warmup_steps: int = 2,
    perturb: PerturbHook = None,
) -> float:
    """Steady-state simulated cost of one batched decode iteration.

    A continuous-batching scheduler needs the *marginal* price of one more
    iteration at a given batch size, not the cold-start cost: the first
    step pays pipeline fill (deferral has nothing in flight, the CUDA graph
    has no overlap to hide behind).  This chains ``warmup_steps + n_steps``
    full task graphs through one simulation, reads the warmup boundary off
    the last warmup step's head task, and averages only the post-warmup
    steps.  (A step's head is the sink of everything before it, so the
    boundary timestamp equals what a standalone ``warmup_steps`` run would
    report -- priced once instead of simulating the prefix twice.)

    ``works`` is typically the output of
    :func:`repro.sched.workload.batched_decode_layer_work` expanded over
    the model's layers.  When cache-hit expert work has been repriced with
    a grouped dispatch (:class:`repro.sched.workload.ExpertGemmDispatch`),
    the returned cost reflects coalesced per-expert GEMMs and
    aggregated-ARI kernel dispatch; under the per-expert dispatch it
    reflects one streamed GEMM launch per resident expert instead.

    A miss runs a per-layer recurrence for a CUDA-graph chain without
    deferral, else re-times a topology compiled once per mix of CPU and
    dense layers, ``config`` and step count, with ``works``' durations.
    Results are memoized per process by graph content: the key is
    ``(tuple(works), config, machine, n_steps, warmup_steps, perturb)``,
    all hashed by value.  A hit returns the float a fresh simulation
    would.
    """
    if n_steps <= 0:
        raise SchedulingError("n_steps must be positive")
    if warmup_steps < 0:
        raise SchedulingError("warmup_steps must be >= 0")
    return _simulated_step_us(tuple(works), config, machine, n_steps,
                           warmup_steps, perturb)


@functools.lru_cache(maxsize=STEP_PRICE_CACHE_SIZE)
def _simulated_step_us(
    works: tuple[DecodeLayerWork, ...],
    config: DecodeScheduleConfig,
    machine: MachineSpec,
    n_steps: int,
    warmup_steps: int,
    perturb: PerturbHook,
) -> float:
    """:func:`batched_step_time_us` behind the memo, arguments validated."""
    steps = warmup_steps + n_steps
    heads = _graph_head_ends(works, config, machine, steps, perturb)
    if heads is None:
        __, ends, total, ids = _retime_decode_chain(works, config, machine,
                                                    steps, perturb)
    else:
        ends, total, ids = heads, heads[-1], range(steps)
    boundary = ends[ids[warmup_steps - 1]] if warmup_steps else 0.0
    return (total - boundary) / n_steps


def _graph_head_ends(works: Sequence[DecodeLayerWork],
                     config: DecodeScheduleConfig, machine: MachineSpec,
                     n_steps: int, perturb: PerturbHook) -> Optional[list]:
    """Each step's head end in a chain of ``n_steps`` CUDA-graph decode
    steps without deferral, bit for bit as :func:`_retime_decode_chain`
    times them; None for any other config or an invalid duration, which
    recording the step then rejects with the recorder's error.

    A step is its graph launch, the layers of :func:`graph_chain_end`,
    then the LM head, which every task reaches.
    """
    if not works or not config.launch_mode.uses_graph or config.n_deferred:
        return None
    lat = config.launch_mode.launch_latency_us(machine)
    frac = config.attn_kernel_fraction

    def kernel_split(n: int) -> tuple[int, int]:
        n_attn = max(1, int(n * frac))
        return n_attn, max(1, n - n_attn)

    layers = graph_layers(works, machine, lat, kernel_split,
                          MERGE_KERNEL_US, perturb)
    head_us = works[-1].gpu_attn_us * 0.2
    launch, head = machine.gpu.graph_launch_us, head_us + lat
    if layers is None or not all(0.0 <= d < math.inf
                                 for d in (launch, head, head_us)):
        return None
    ends, end = [], 0.0
    for __ in range(n_steps):
        end = graph_chain_end(end, launch, layers,
                              config.overlap_cpu_gpu) + head
        ends.append(end)
    return ends


def graph_layers(works: Sequence, machine: MachineSpec, lat: float,
                 kernel_split: Callable[[int], tuple[int, int]],
                 merge_us: float, perturb: PerturbHook = None,
                 ) -> Optional[list]:
    """Each layer's ``(attn, cpu)`` durations for :func:`graph_chain_end`,
    or None if any duration the recorder would check is invalid.

    ``attn`` is the attention kernel group's duration, ``cpu`` None for a
    dense layer (``cpu_routed_us <= 0``), else ``(transfer, routed
    experts, shared kernel group, merge)`` with the transfer and the
    routed experts scaled by ``perturb``.  ``kernel_split(n)`` splits a
    layer's ``n`` GPU kernels into its attention and shared groups;
    every kernel group adds the graph replay latency ``lat`` per kernel.
    Durations and their checks are derived once per distinct work object
    (by identity: a preset's repeated layers share one).
    """
    cpu_mult, pcie_mult = ((1.0, 1.0) if perturb is None
                           else (perturb.cpu_mult, perturb.pcie_mult))
    checked = []
    derived: dict[int, tuple] = {}
    layers = []
    for w in works:
        layer = derived.get(id(w))
        if layer is None:
            n_attn, n_shared = kernel_split(w.n_gpu_kernels)
            attn = w.gpu_attn_us + n_attn * lat
            checked += (w.gpu_attn_us, attn)
            cpu = None
            if not w.cpu_routed_us <= 0.0:    # a NaN is checked, not dense
                xfer = pcie_transfer_time_us(w.transfer_bytes,
                                             machine.interconnect)
                shared = w.gpu_shared_us + n_shared * lat
                cpu = (xfer * pcie_mult, w.cpu_routed_us * cpu_mult, shared,
                       merge_us + lat)
                checked += (xfer, w.cpu_routed_us, w.gpu_shared_us, *cpu)
            layer = derived[id(w)] = (attn, cpu)
        layers.append(layer)
    if not all(0.0 <= d < math.inf for d in checked):
        return None
    return layers


def graph_chain_end(start: float, launch: float, layers: Sequence[tuple],
                    overlap_cpu_gpu: bool) -> float:
    """End of one CUDA-graph step's layers (:func:`graph_layers`) whose
    graph launch waits for ``start``, bit for bit as the recorded graph
    times them.

    Per layer: attention -> submit -> to-CPU -> routed experts -> to-GPU
    -> sync -> shared -> merge (a dense layer is attention alone).  No
    task waits for its resource, so each task starts when its latest
    dependency ends: these are the event loop's ``max`` picks and
    ``start + duration`` adds, in its float order; the in-graph submit
    and sync are free.
    """
    end = start + launch
    for attn, cpu in layers:
        end = attn_end = end + attn
        if cpu is not None:
            xfer, imm, shared, merge = cpu
            synced = attn_end + xfer + imm + xfer
            done = (attn_end if overlap_cpu_gpu else synced) + shared
            end = (done if done > synced else synced) + merge
    return end


@functools.lru_cache(maxsize=64)     # distinct topologies kept compiled
def _decode_topology(cpu_layers: tuple[bool, ...], config: DecodeScheduleConfig,
                     n_steps: int) -> tuple[CompiledGraph, tuple[int, ...]]:
    """The compiled chain of ``n_steps`` decode steps and each step's head.
    Works and machine only set durations, so placeholders record it.
    Pricing compiles only Expert Deferral and per-kernel chains, whose
    tasks queue for their resources."""
    works = [DecodeLayerWork(1.0, 1.0, float(cpu), 1.0, 1)
             for cpu in cpu_layers]
    sim = Simulator()
    heads = _chain_decode_steps(sim, works, config, paper_testbed(), n_steps)
    return sim.compile(), tuple(heads)


def _retime_decode_chain(
        works: Sequence[DecodeLayerWork], config: DecodeScheduleConfig,
        machine: MachineSpec, n_steps: int, perturb: PerturbHook) -> tuple:
    """Task start and end times (by submission order), final time and
    step heads of ``n_steps`` chained decode steps: one step is recorded
    with the real builders, its durations are scaled by ``perturb`` and
    tiled over the compiled chain, which the FIFO event loop times."""
    graph, heads = _decode_topology(
        tuple(w.cpu_routed_us > 0.0 for w in works), config, n_steps)
    step = Simulator(perturb)
    build_decode_step(step, GpuExecutor(step, machine, config.launch_mode),
                      works, config, machine, step_deps=[])
    return (*graph.retime(step.scaled_durations() * n_steps), heads)


def kv_swap_transfer_us(n_tokens: int, token_bytes: float, n_layers: int,
                        link) -> float:
    """One-way PCIe cost of moving a request's KV cache between GPU and host.

    The preemption **swap** mechanism offloads a victim's KV pages to
    host memory and re-uploads them on resume; each direction moves
    ``n_tokens * token_bytes * n_layers`` bytes
    (:func:`repro.sched.workload.kv_token_bytes` gives the per-layer unit)
    over ``link`` -- which may be a fault-degraded
    :class:`~repro.hw.spec.InterconnectSpec`, so chaos windows make
    swapping dearer exactly when the bus is the bottleneck.  Zero tokens
    cost nothing (no transfer is issued at all, not even link latency).
    """
    if n_tokens < 0:
        raise SchedulingError("n_tokens must be >= 0")
    if token_bytes <= 0 or n_layers <= 0:
        raise SchedulingError("token_bytes and n_layers must be positive")
    if n_tokens == 0:
        return 0.0
    return pcie_transfer_time_us(n_tokens * token_bytes * n_layers, link)
