"""Expert popularity profiling and GPU placement planning.

The paper focuses on models with shared experts ("which naturally emerge as
the most frequently-used experts and are therefore placed on the GPU") but
notes that for models *without* shared experts, popular routed experts can
be identified via offline profiling, as done in Fiddler.  This module
implements that pipeline:

1. :func:`profile_expert_popularity` runs a corpus through a functional
   model and counts per-layer expert activations;
2. :func:`zipf_popularity` generates synthetic popularity profiles for
   simulator-scale models (real traces show heavy-tailed expert usage);
3. :func:`plan_gpu_residency` greedily pins the most popular experts into a
   VRAM budget and predicts the activation *hit rate* the plan achieves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigError

if TYPE_CHECKING:   # model imports moe at package level
    from ..model.transformer import MoETransformer


def profile_expert_popularity(
    model: MoETransformer, corpus: list[np.ndarray]
) -> np.ndarray:
    """Count routed-expert activations per (moe layer, expert) over a corpus.

    Returns an ``(n_moe_layers, n_experts)`` activation-count matrix.
    Dense layers are excluded.
    """
    if not corpus:
        raise ConfigError("profiling needs a non-empty corpus")
    moe_layers = [layer for layer in model.layers if layer.is_moe]
    counts = np.zeros((len(moe_layers), model.config.n_experts), dtype=np.int64)

    for prompt in corpus:
        caches = model.new_caches()
        x = model.embed_tokens(np.asarray(prompt))
        mi = 0
        for layer, cache in zip(model.layers, caches):
            h = layer.attn_part(x, cache)
            fin = layer.ffn_input(h)
            if layer.is_moe:
                routing = layer.mlp.route(fin)
                counts[mi] += routing.expert_token_counts(model.config.n_experts)
                x = h + layer.mlp.shared_forward(fin) + layer.mlp.routed_forward(fin, routing)
                mi += 1
            else:
                x = h + layer.mlp(fin)
    return counts


def zipf_popularity(
    n_layers: int,
    n_experts: int,
    total_activations: int,
    exponent: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Synthetic heavy-tailed popularity counts (per layer, shuffled ranks).

    ``exponent=0`` gives uniform popularity (well-balanced training);
    larger exponents concentrate traffic on few experts.
    """
    if n_layers <= 0 or n_experts <= 0:
        raise ConfigError("dimensions must be positive")
    if exponent < 0:
        raise ConfigError("exponent must be >= 0")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_experts + 1, dtype=np.float64)
    probs = ranks ** -exponent
    probs /= probs.sum()
    counts = np.zeros((n_layers, n_experts), dtype=np.int64)
    for layer in range(n_layers):
        perm = rng.permutation(n_experts)
        counts[layer] = rng.multinomial(total_activations, probs)[perm]
    return counts


@dataclass
class PlacementPlan:
    """Which routed experts live on the GPU, per MoE layer."""

    gpu_resident: list[set[int]]
    expected_hit_rate: float
    vram_used_bytes: float

    @property
    def n_resident(self) -> int:
        return sum(len(s) for s in self.gpu_resident)

    def is_on_gpu(self, layer: int, expert: int) -> bool:
        return expert in self.gpu_resident[layer]


def plan_gpu_residency(
    popularity: np.ndarray,
    vram_budget_bytes: float,
    expert_bytes: float,
) -> PlacementPlan:
    """Greedily pin the globally most-activated experts into the budget.

    The expected hit rate is the fraction of all profiled activations that
    would be served by GPU-resident experts under this plan -- the quantity
    Fiddler's partitioning maximizes.
    """
    popularity = np.asarray(popularity)
    if popularity.ndim != 2:
        raise ConfigError("popularity must be (layers, experts)")
    if expert_bytes <= 0:
        raise ConfigError("expert_bytes must be positive")
    n_layers, n_experts = popularity.shape
    budget_experts = int(vram_budget_bytes // expert_bytes)

    flat = [
        (int(popularity[l, e]), l, e)
        for l in range(n_layers)
        for e in range(n_experts)
    ]
    flat.sort(key=lambda t: (-t[0], t[1], t[2]))

    resident: list[set[int]] = [set() for __ in range(n_layers)]
    covered = 0
    for count, l, e in flat[:budget_experts]:
        resident[l].add(e)
        covered += count

    total = int(popularity.sum())
    return PlacementPlan(
        gpu_resident=resident,
        expected_hit_rate=covered / total if total else 0.0,
        vram_used_bytes=min(budget_experts, len(flat)) * expert_bytes,
    )


def placement_speedup_estimate(
    plan: PlacementPlan,
    cpu_expert_time_us: float,
    gpu_expert_time_us: float,
) -> float:
    """Expected per-layer MoE speedup from serving hits on the GPU.

    With hit rate ``h``, the expected expert time becomes
    ``h * gpu + (1 - h) * cpu`` (GPU and CPU expert work overlap with each
    other in the hybrid engine, so this is an upper bound used for planning,
    not a simulator substitute).
    """
    if cpu_expert_time_us <= 0 or gpu_expert_time_us <= 0:
        raise ConfigError("expert times must be positive")
    h = plan.expected_hit_rate
    blended = h * gpu_expert_time_us + (1.0 - h) * cpu_expert_time_us
    return cpu_expert_time_us / blended
