"""CPU-GPU coordination: launch modes, decode/prefill task-graph builders."""

from .cuda_graph import (
    GRAPH_LAUNCH_US,
    GpuExecutor,
    GraphCache,
    GraphCacheConfig,
    GraphLookup,
    LaunchMode,
)
from .decode import (
    DecodeScheduleConfig,
    batched_step_time_us,
    build_decode_step,
    simulate_decode,
)
from .kv_offload import (
    KVOffloadCost,
    gpu_kv_budget_tokens,
    kv_bytes_per_token_layer,
    kv_cache_total_bytes,
    kv_offload_step_cost,
)
from .multi_gpu import (
    PipelineConfig,
    simulate_pipelined_decode,
    simulate_pipelined_prefill,
    stage_boundary_bytes,
    stage_works,
    staged_interval_us,
    vram_per_stage_bytes,
)
from .prefill import build_prefill_chunk, prefill_elapsed_us, simulate_prefill
from .workload import (
    DecodeLayerWork,
    ExpertGemmDispatch,
    PrefillLayerWork,
    decode_layer_work,
    prefill_layer_work,
    scheduling_penalty,
)

__all__ = [
    "GRAPH_LAUNCH_US", "GpuExecutor", "GraphCache", "GraphCacheConfig",
    "GraphLookup", "LaunchMode",
    "DecodeScheduleConfig", "batched_step_time_us", "build_decode_step",
    "simulate_decode",
    "build_prefill_chunk", "prefill_elapsed_us", "simulate_prefill",
    "KVOffloadCost", "gpu_kv_budget_tokens", "kv_bytes_per_token_layer",
    "kv_cache_total_bytes", "kv_offload_step_cost",
    "PipelineConfig", "simulate_pipelined_decode",
    "simulate_pipelined_prefill", "stage_boundary_bytes", "stage_works",
    "staged_interval_us", "vram_per_stage_bytes",
    "DecodeLayerWork", "ExpertGemmDispatch", "PrefillLayerWork",
    "decode_layer_work", "prefill_layer_work", "scheduling_penalty",
]
