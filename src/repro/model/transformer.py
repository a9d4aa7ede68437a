"""The functional MoE transformer.

This model executes for real in numpy: prefill, incremental decode with KV
caches, and greedy/sampled generation.  It is shaped like DeepSeek/Qwen
(pre-norm blocks, optional leading dense layers, shared + routed experts)
and is small enough to *train* via :mod:`repro.train` so that Expert
Deferral's accuracy impact can be measured on real task performance.

The per-layer pieces (attention part, MoE pieces) are exposed separately so
that the inference engines -- standard, deferral, skipping -- can reorder
them without touching the model definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ConfigError
from ..kernels.base import CPUGemmKernel
from ..moe.router import RouterConfig
from ..tensor.dtypes import BF16, DType
from .attention import MLAAttention, MultiHeadAttention
from .modules import Embedding, Linear, Module, RMSNorm
from .moe_layer import DenseFFN, ModuleList, MoEBlock


@dataclass(frozen=True)
class ModelConfig:
    """Functional model hyper-parameters (a scaled-down Table 1 row)."""

    vocab_size: int
    hidden: int
    n_layers: int
    n_heads: int
    moe_intermediate: int
    n_experts: int
    top_k: int
    n_shared_experts: int = 1
    n_groups: int = 1
    top_k_groups: int = 1
    first_dense_layers: int = 0
    dense_intermediate: int = 0
    attention: str = "mha"           # "mha" or "mla"
    kv_rank: int = 0                 # required for MLA
    weight_dtype: DType = BF16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attention not in ("mha", "mla"):
            raise ConfigError(f"unknown attention type {self.attention!r}")
        if self.attention == "mla" and self.kv_rank <= 0:
            raise ConfigError("MLA requires a positive kv_rank")
        if self.first_dense_layers >= self.n_layers:
            raise ConfigError("first_dense_layers must leave at least one MoE layer")
        if self.first_dense_layers > 0 and self.dense_intermediate <= 0:
            raise ConfigError("dense layers require dense_intermediate")

    def router_config(self) -> RouterConfig:
        return RouterConfig(
            n_experts=self.n_experts,
            top_k=self.top_k,
            n_groups=self.n_groups,
            top_k_groups=self.top_k_groups,
        )


class TransformerLayer(Module):
    """Pre-norm block: attention sub-layer + (MoE or dense) FFN sub-layer."""

    def __init__(self, config: ModelConfig, layer_idx: int,
                 rng: np.random.Generator,
                 kernel: Optional[CPUGemmKernel] = None) -> None:
        super().__init__()
        self.layer_idx = layer_idx
        self.input_norm = RMSNorm(config.hidden)
        if config.attention == "mla":
            self.self_attn: Module = MLAAttention(
                config.hidden, config.n_heads, config.kv_rank, rng=rng
            )
        else:
            self.self_attn = MultiHeadAttention(config.hidden, config.n_heads, rng=rng)
        self.post_attn_norm = RMSNorm(config.hidden)
        self.is_moe = layer_idx >= config.first_dense_layers
        if self.is_moe:
            self.mlp: Module = MoEBlock(
                config.hidden,
                config.moe_intermediate,
                config.router_config(),
                n_shared_experts=config.n_shared_experts,
                kernel=kernel,
                rng=rng,
                dtype=config.weight_dtype,
            )
        else:
            self.mlp = DenseFFN(config.hidden, config.dense_intermediate, rng=rng)

    # -- pieces -----------------------------------------------------------

    def attn_part(self, x: np.ndarray, cache,
                  positions: Optional[np.ndarray] = None) -> np.ndarray:
        """Residual attention sub-layer: ``x + attn(norm(x))``."""
        return x + self.self_attn(self.input_norm(x), cache, positions)

    def ffn_input(self, h: np.ndarray) -> np.ndarray:
        """The normalized FFN input ``I_k`` of the paper's formulas."""
        return self.post_attn_norm(h)

    def forward(self, x: np.ndarray, cache,
                positions: Optional[np.ndarray] = None) -> np.ndarray:
        h = self.attn_part(x, cache, positions)
        return h + self.mlp(self.ffn_input(h))


class MoETransformer(Module):
    """Full model: embedding, transformer layers, final norm, LM head."""

    def __init__(self, config: ModelConfig,
                 kernel: Optional[CPUGemmKernel] = None) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.embed_tokens = Embedding(config.vocab_size, config.hidden, rng=rng)
        self.layers = ModuleList([
            TransformerLayer(config, i, rng, kernel=kernel)
            for i in range(config.n_layers)
        ])
        self.norm = RMSNorm(config.hidden)
        self.lm_head = Linear(config.hidden, config.vocab_size, rng=rng)

    # -- caches -----------------------------------------------------------

    def new_caches(self) -> list:
        return [layer.self_attn.make_cache() for layer in self.layers]

    # -- execution -----------------------------------------------------------

    def step(self, token_ids: np.ndarray, caches: list,
             positions: Optional[np.ndarray] = None) -> np.ndarray:
        """Run new tokens through the model, returning (new, vocab) logits."""
        token_ids = np.atleast_1d(np.asarray(token_ids))
        if len(caches) != len(self.layers):
            raise ConfigError(
                f"{len(caches)} caches for {len(self.layers)} layers"
            )
        x = self.embed_tokens(token_ids)
        for layer, cache in zip(self.layers, caches):
            x = layer(x, cache, positions)
        return self.lm_head(self.norm(x))

    def forward(self, token_ids: np.ndarray) -> np.ndarray:
        """Full-sequence forward (fresh caches); returns (seq, vocab) logits."""
        return self.step(token_ids, self.new_caches())

    def generate(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        greedy: bool = True,
        temperature: float = 1.0,
        rng: Optional[np.random.Generator] = None,
        stop_token: Optional[int] = None,
    ) -> np.ndarray:
        """Autoregressive generation: prefill the prompt, then decode."""
        if max_new_tokens < 0:
            raise ConfigError("max_new_tokens must be >= 0")
        caches = self.new_caches()
        logits = self.step(np.asarray(prompt), caches)
        out = []
        last = logits[-1]
        sampler = rng or np.random.default_rng(0)
        for __ in range(max_new_tokens):
            token = _select_token(last, greedy, temperature, sampler)
            out.append(token)
            if stop_token is not None and token == stop_token:
                break
            logits = self.step(np.array([token]), caches)
            last = logits[-1]
        return np.array(out, dtype=np.int64)


def _select_token(logits: np.ndarray, greedy: bool, temperature: float,
                  rng: np.random.Generator) -> int:
    if greedy:
        return int(np.argmax(logits))
    scaled = logits / max(temperature, 1e-6)
    probs = np.exp(scaled - scaled.max())
    probs = probs / probs.sum()
    return int(rng.choice(len(probs), p=probs))
