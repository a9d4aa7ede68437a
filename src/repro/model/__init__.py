"""Model substrate: module tree, attention, MoE blocks, transformer, presets."""

from .attention import MLAAttention, MultiHeadAttention, rope
from .kvcache import KVCache, LatentKVCache
from .paged import DEFAULT_PAGE_TOKENS, Page, PagedKVCache, PagedKVPool
from .modules import Embedding, Linear, Module, RMSNorm
from .moe_layer import DenseFFN, ExpertModule, ModuleList, MoEBlock
from .presets import DS2, DS3, PAPER_MODELS, QW2, ModelPreset, preset, tiny_config
from .transformer import ModelConfig, MoETransformer, TransformerLayer

__all__ = [
    "MLAAttention", "MultiHeadAttention", "rope",
    "KVCache", "LatentKVCache", "DEFAULT_PAGE_TOKENS", "Page", "PagedKVCache",
    "PagedKVPool",
    "Embedding", "Linear", "Module", "RMSNorm",
    "DenseFFN", "ExpertModule", "ModuleList", "MoEBlock",
    "DS2", "DS3", "PAPER_MODELS", "QW2", "ModelPreset", "preset", "tiny_config",
    "ModelConfig", "MoETransformer", "TransformerLayer",
]
