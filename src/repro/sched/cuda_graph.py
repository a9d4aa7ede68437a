"""GPU kernel-launch model: per-kernel launches vs a single CUDA graph.

Section 2.3 measures the launch path of each system: Fiddler's Python host
pays ~16 us per launch (73% of GPU time), llama.cpp's C++ host ~5 us (21%),
and KTransformers captures the whole decode step in **one** CUDA graph whose
replay costs ~0.5 us per kernel with a single host launch.  The
``cudaLaunchHostFunc`` trick (Section 3.3) keeps CPU submit/sync callbacks
*inside* the graph, so CPU work points no longer fragment it.

``GpuExecutor`` turns these modes into simulator tasks: launches occupy the
``host`` resource, kernels the ``gpu`` resource, and in per-kernel mode the
GPU provably idles while the host is still launching.

:class:`GraphCache` models what replay-only pricing leaves out: a graph is
only free to *replay* once it has been *captured* for the step's exact
shape.  Under iteration-level admission the batch shape changes every step,
so graphs are captured per ``(batch bucket, chunk bucket, cache topology)``
key; the first use of a key pays a capture stall (walking every kernel in
the step at the per-kernel launch latency, plus instantiation overhead),
later uses replay for free, and a bounded LRU evicts cold graphs -- an
evicted key pays capture again on its next use.  Batch shapes are padded
up to their bucket by the serving engine, which prices the padding tokens
honestly (the padded batch's full step cost is charged).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterable, Optional

from ..errors import ConfigError, GraphCaptureError
from ..hw.event_sim import Simulator
from ..hw.spec import MachineSpec

# Default host-side launch cost of one captured graph; kept as the
# GPUSpec.graph_launch_us default so existing goldens hold.  Schedulers
# should read the spec field -- this constant exists for back-compat and
# as the documented calibration value (Section 2.3).
GRAPH_LAUNCH_US = 10.0


class LaunchMode(Enum):
    """How GPU kernels reach the device."""

    PER_KERNEL_PYTHON = "per_kernel_python"   # Fiddler: ~16 us/launch
    PER_KERNEL_CPP = "per_kernel_cpp"         # llama.cpp: ~5 us/launch
    CUDA_GRAPH = "cuda_graph"                 # KT: one launch, ~0.5 us replay

    def launch_latency_us(self, machine: MachineSpec) -> float:
        if self is LaunchMode.PER_KERNEL_PYTHON:
            return 16.0
        if self is LaunchMode.PER_KERNEL_CPP:
            return machine.gpu.kernel_launch_latency_us
        return machine.gpu.graph_replay_latency_us

    @property
    def uses_graph(self) -> bool:
        return self is LaunchMode.CUDA_GRAPH

    def sync_latency_us(self) -> float:
        """Cost of one CPU<->GPU synchronization barrier.

        Non-graph modes block the host on stream syncs; with
        ``cudaLaunchHostFunc`` nodes inside a graph the barrier is free.
        """
        if self is LaunchMode.PER_KERNEL_PYTHON:
            return 12.0
        if self is LaunchMode.PER_KERNEL_CPP:
            return 6.0
        return 0.0


@dataclass
class GpuExecutor:
    """Emits launch+kernel task pairs into ``sim``, as int task ids."""

    sim: Simulator
    machine: MachineSpec
    mode: LaunchMode

    def __post_init__(self) -> None:
        self.gpu = self.sim.resource("gpu")
        self.host = self.sim.resource("host")
        self._graph_launched_for_step: Optional[int] = None

    def begin_step(self, deps: Iterable[int] = ()) -> Optional[int]:
        """Start one decode/prefill step.

        In graph mode this is the single host launch that replays the whole
        captured step; per-kernel modes have no step-level work.  The launch
        cost comes from the machine spec (``gpu.graph_launch_us``).
        """
        if self.mode.uses_graph:
            self._graph_launched_for_step = self.sim.submit(
                "launch:graph", self.host, self.machine.gpu.graph_launch_us,
                deps=deps,
            )
            return self._graph_launched_for_step
        self._graph_launched_for_step = None
        return None

    def kernel(
        self,
        name: str,
        duration_us: float,
        n_kernels: int,
        deps: Iterable[int] = (),
    ) -> int:
        """Submit a group of ``n_kernels`` GPU kernels totalling ``duration_us``.

        Per-kernel mode: a host launch task (``n_kernels * latency``) must
        finish before the kernels execute, and launches serialize on the
        host thread -- this is what starves the GPU in Figure 4.  Graph
        mode: kernels run back-to-back with only the replay overhead added,
        gated by the step's single graph launch.
        """
        deps = list(deps)
        if duration_us < 0:
            raise GraphCaptureError(f"negative kernel duration for {name!r}")
        lat = self.mode.launch_latency_us(self.machine)
        if self.mode.uses_graph:
            if self._graph_launched_for_step is None:
                raise GraphCaptureError(
                    "graph mode requires begin_step() before kernels"
                )
            total = duration_us + n_kernels * lat
            return self.sim.submit(
                f"kernel:{name}", self.gpu, total,
                deps=deps + [self._graph_launched_for_step],
            )
        launch = self.sim.submit(
            f"launch:{name}", self.host, n_kernels * lat, deps=deps
        )
        return self.sim.submit(
            f"kernel:{name}", self.gpu, duration_us, deps=[launch]
        )

    def sync_point(self, name: str, deps: Iterable[int] = ()) -> int:
        """A CPU<->GPU barrier (submit or sync in the paper's terminology).

        Inside a CUDA graph these become ``cudaLaunchHostFunc`` callbacks
        with no host blocking; otherwise they cost host time.
        """
        return self.sim.submit(
            f"sync:{name}", self.host, self.mode.sync_latency_us(), deps=deps
        )


# --------------------------------------------------------------------------
# Graph-capture cache: capture cost amortized over shape-bucketed replays.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphCacheConfig:
    """Policy knobs of the CUDA-graph capture cache.

    ``batch_buckets`` are the batch-size shapes graphs are captured at;
    a batch pads up to the smallest bucket that holds it (the padded
    batch's full step cost is charged, so padding is priced honestly).
    ``max_graphs`` bounds how many captured graphs stay instantiated
    (device memory holds the graph exec plus its workspace); the
    least-recently-used graph is evicted beyond that and must re-capture
    on its next use.  ``instantiation_us`` is the fixed
    ``cudaGraphInstantiate`` overhead added on top of walking the step's
    kernels at the per-kernel launch latency during capture.
    """

    batch_buckets: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
    max_graphs: int = 16
    instantiation_us: float = 400.0

    def __post_init__(self) -> None:
        if not self.batch_buckets:
            raise ConfigError("batch_buckets must not be empty")
        if any(b <= 0 for b in self.batch_buckets):
            raise ConfigError("batch_buckets must be positive")
        if list(self.batch_buckets) != sorted(set(self.batch_buckets)):
            raise ConfigError("batch_buckets must be strictly increasing")
        if self.max_graphs <= 0:
            raise ConfigError("max_graphs must be positive")
        if self.instantiation_us < 0:
            raise ConfigError("instantiation_us must be >= 0")

    def batch_bucket(self, batch_size: int) -> int:
        """Smallest capture bucket holding ``batch_size`` (last if beyond)."""
        if batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        for b in self.batch_buckets:
            if batch_size <= b:
                return b
        return self.batch_buckets[-1]


@dataclass(frozen=True)
class GraphLookup:
    """Outcome of one :meth:`GraphCache.lookup`.

    ``captured`` marks a capture (cold key or re-capture after eviction);
    ``capture_us`` is the stall this use pays (zero on a replay hit) and
    ``evicted`` the key displaced to make room, if any.
    """

    key: Hashable
    captured: bool
    capture_us: float
    evicted: Hashable | None = None


class GraphCache:
    """Bounded LRU of captured CUDA graphs, keyed by step shape.

    One entry per ``(batch bucket, chunk bucket, cache topology)`` key --
    anything that changes the captured step's kernel sequence needs its
    own graph, while duration-only changes (fault perturbations stretch
    task times, not shapes) replay the existing one.  ``lookup`` is the
    whole interface: it returns the capture stall to charge this use and
    updates recency/eviction state, so a fixed key sequence always yields
    the same lookup sequence (pure function of call history -- the
    bit-reproducibility the serving goldens rely on).
    """

    def __init__(self, config: GraphCacheConfig, machine: MachineSpec) -> None:
        self.config = config
        self.machine = machine
        self._entries: dict[Hashable, float] = {}   # key -> capture cost paid
        self.captures = 0
        self.replays = 0
        self.evictions = 0

    @property
    def n_cached(self) -> int:
        return len(self._entries)

    def capture_cost_us(self, n_kernels: int) -> float:
        """Modeled cost of capturing a step of ``n_kernels`` kernels.

        Capture walks every kernel through the regular (uncaptured)
        launch path once -- ``n_kernels`` host launches at the spec's
        per-kernel latency -- then pays the fixed instantiation overhead.
        """
        if n_kernels <= 0:
            raise ConfigError("n_kernels must be positive")
        return (n_kernels * self.machine.gpu.kernel_launch_latency_us
                + self.config.instantiation_us)

    def lookup(self, key: Hashable, n_kernels: int) -> GraphLookup:
        """Fetch (or capture) the graph for ``key``; returns the stall.

        A hit refreshes the key's recency and costs nothing extra -- the
        step itself is already priced at graph-replay launch latency.  A
        miss captures: the returned ``capture_us`` stalls the iteration,
        and the LRU entry is evicted when the cache is full.  Re-capture
        after eviction pays exactly the same cost as the first capture
        (same key, same kernel walk), so eviction never changes a priced
        step time -- only who pays the stall.
        """
        if key in self._entries:
            cost = self._entries.pop(key)
            self._entries[key] = cost          # refresh recency (dict order)
            self.replays += 1
            return GraphLookup(key=key, captured=False, capture_us=0.0)
        capture_us = self.capture_cost_us(n_kernels)
        evicted = None
        if len(self._entries) >= self.config.max_graphs:
            evicted = next(iter(self._entries))
            del self._entries[evicted]
            self.evictions += 1
        self._entries[key] = capture_us
        self.captures += 1
        return GraphLookup(key=key, captured=True, capture_us=capture_us,
                           evicted=evicted)
