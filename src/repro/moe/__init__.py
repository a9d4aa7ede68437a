"""MoE execution substrate: routing, experts, fusion, scheduling, NUMA."""

from .affinity import (
    DEFAULT_CACHE_HIT_DISCOUNT,
    AffinityOutcome,
    affinity_schedule,
)
from .experts import (
    ExpertWeights,
    expert_forward,
    make_expert,
    silu,
)
from .fused import FusedExpertWeights, FusedMoE, fuse_expert, moe_forward_reference
from .numa import (
    OBLIVIOUS_BANDWIDTH_EFFICIENCY,
    OBLIVIOUS_STREAMING_EFFICIENCY,
    MoELayerDims,
    NumaStrategy,
    expert_time_us,
    moe_layer_time_us,
    oblivious_cpu,
    oblivious_efficiency,
)
from .expert_cache import (
    CacheStepResult,
    ExpertCacheConfig,
    ExpertCacheManager,
    oracle_hit_rate,
)
from .mixed_precision import (
    PRECISION_LADDER,
    PrecisionAssignment,
    apply_mixed_precision,
    assign_expert_precision,
    bandwidth_savings,
    expert_sensitivity,
)
from .placement import (
    PlacementPlan,
    placement_speedup_estimate,
    plan_gpu_residency,
    profile_expert_popularity,
    zipf_popularity,
)
from .router import (
    RouterConfig,
    RoutingResult,
    balanced_synthetic_logits,
    route,
    skewed_synthetic_logits,
)
from .stats import (
    coactivation_matrix,
    effective_experts,
    gate_weight_entropy,
    load_balance_factor,
    routing_summary,
)
from .scheduling import (
    ScheduleOutcome,
    WorkItem,
    dynamic_schedule,
    speedup,
    static_schedule,
)

__all__ = [
    "DEFAULT_CACHE_HIT_DISCOUNT", "AffinityOutcome", "affinity_schedule",
    "ExpertWeights", "expert_forward", "make_expert", "silu",
    "FusedExpertWeights", "FusedMoE", "fuse_expert", "moe_forward_reference",
    "OBLIVIOUS_BANDWIDTH_EFFICIENCY", "OBLIVIOUS_STREAMING_EFFICIENCY",
    "MoELayerDims", "NumaStrategy",
    "expert_time_us", "moe_layer_time_us", "oblivious_cpu",
    "oblivious_efficiency",
    "RouterConfig", "RoutingResult", "balanced_synthetic_logits", "route",
    "skewed_synthetic_logits",
    "ScheduleOutcome", "WorkItem", "dynamic_schedule", "speedup",
    "static_schedule",
    "PRECISION_LADDER", "PrecisionAssignment", "apply_mixed_precision",
    "assign_expert_precision", "bandwidth_savings", "expert_sensitivity",
    "CacheStepResult", "ExpertCacheConfig", "ExpertCacheManager",
    "oracle_hit_rate",
    "PlacementPlan", "placement_speedup_estimate", "plan_gpu_residency",
    "profile_expert_popularity", "zipf_popularity",
    "coactivation_matrix", "effective_experts", "gate_weight_entropy",
    "load_balance_factor", "routing_summary",
]
