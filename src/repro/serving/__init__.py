"""Serving layer: sessions (output lengths, simulated clocks) and the engine.

One engine serves every workload: the iteration-level
``ContinuousBatchingServer`` (optionally priority-aware with
swap/recompute preemption, and optionally session-aware via the radix
prefix-KV cache and host KV tier in :mod:`repro.serving.prefix_cache`).
The paper's batch-1 local deployment is that engine with
``BatchSchedulerConfig(max_batch_size=1)``, and every serving price
comes from one :class:`~repro.serving.pricing.BatchCostModel`.
"""

from .continuous import ContinuousBatchingServer, serving_expert_cache
from .controller import (
    ControllerConfig,
    ControllerStats,
    KnobDecision,
    OnlineController,
)
from .fleet import (
    ROUTING_POLICIES,
    FleetConfig,
    FleetRouter,
    FleetStats,
    RoutingWeightAdapter,
    RoutingWeightConfig,
)
from .metrics import (
    BatchTimeline,
    CachePoint,
    ExpertCacheTimeline,
    GraphStats,
    PipelineStats,
    RequestTiming,
    RollingWindow,
    ServingSLO,
    ServingStats,
    ShedRecord,
    TimelinePoint,
    percentile,
    percentiles,
)
from .prefix_cache import (
    KVTierConfig,
    MatchProbe,
    PrefixCacheConfig,
    RadixPrefixCache,
    SessionStats,
)
from .pricing import BatchCostModel, BatchSchedulerConfig, StepShape
from .priority import PreemptionStats, Priority, PriorityConfig
from .resilience import (
    DegradationTracker,
    FaultStats,
    ResilienceConfig,
    RetryState,
)
from .session import GenerationRequest, GenerationResult, InferenceSession
from .traffic import (
    TimedRequest,
    TrafficPhase,
    diurnal_workload,
    flash_crowd_workload,
    hot_set_shift_workload,
    multi_turn_workload,
    poisson_workload,
    three_phase_scenario,
)

__all__ = [
    "BatchCostModel", "BatchSchedulerConfig", "ContinuousBatchingServer",
    "StepShape", "serving_expert_cache",
    "ControllerConfig", "ControllerStats", "KnobDecision",
    "OnlineController",
    "FleetConfig", "FleetRouter", "FleetStats", "ROUTING_POLICIES",
    "RoutingWeightAdapter", "RoutingWeightConfig",
    "BatchTimeline", "CachePoint", "ExpertCacheTimeline", "FaultStats",
    "GraphStats", "PipelineStats", "PreemptionStats", "RequestTiming",
    "RollingWindow", "ServingSLO",
    "ServingStats", "SessionStats",
    "ShedRecord", "TimelinePoint", "percentile", "percentiles",
    "KVTierConfig", "MatchProbe", "PrefixCacheConfig", "RadixPrefixCache",
    "Priority", "PriorityConfig",
    "DegradationTracker", "ResilienceConfig", "RetryState",
    "TimedRequest", "multi_turn_workload", "poisson_workload",
    "GenerationRequest", "GenerationResult", "InferenceSession",
    "TrafficPhase", "diurnal_workload", "flash_crowd_workload",
    "hot_set_shift_workload", "three_phase_scenario",
]
