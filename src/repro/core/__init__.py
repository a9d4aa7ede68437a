"""The paper's primary contribution: engine, Expert Deferral, autotuning."""

from .adaptive import (
    AdaptiveDeferralConfig,
    AdaptiveDeferralEngine,
    adaptive_split,
)
from .autotune import AutotuneResult, autotune_deferral, heuristic_deferred_count
from .deferral import (
    MIN_IMMEDIATE_EXPERTS,
    DeferralConfig,
    DeferralEngine,
    split_routing,
)
from .engine import (
    KTRANSFORMERS,
    ThroughputResult,
    batched_decode_works,
    decode_works,
    hybrid_chunk_works,
    run_decode,
    run_prefill,
    run_prefill_us,
)
from .skipping import SkippingConfig, SkippingEngine

__all__ = [
    "AdaptiveDeferralConfig", "AdaptiveDeferralEngine", "adaptive_split",
    "AutotuneResult", "autotune_deferral", "heuristic_deferred_count",
    "MIN_IMMEDIATE_EXPERTS", "DeferralConfig", "DeferralEngine",
    "split_routing",
    "KTRANSFORMERS", "ThroughputResult", "batched_decode_works",
    "decode_works", "hybrid_chunk_works", "run_decode", "run_prefill",
    "run_prefill_us",
    "SkippingConfig", "SkippingEngine",
]
