"""Key/value caches for autoregressive decoding.

Two flavours: a plain per-layer cache for standard multi-head attention,
and a compressed cache for MLA layers, which store the low-rank latent
``kv_c`` instead of full K/V (DeepSeek's Multi-head Latent Attention --
this is what makes a 671B model's cache fit one GPU).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


class KVCache:
    """Append-only K/V store for one attention layer.

    Shapes: ``(seq, heads, head_dim)``, grown geometrically so appends are
    amortized O(1).
    """

    def __init__(self, n_heads: int, head_dim: int, initial_capacity: int = 64):
        if n_heads <= 0 or head_dim <= 0:
            raise ConfigError("cache dims must be positive")
        self.n_heads = n_heads
        self.head_dim = head_dim
        self._capacity = max(1, initial_capacity)
        self._len = 0
        self._k = np.zeros((self._capacity, n_heads, head_dim), dtype=np.float32)
        self._v = np.zeros_like(self._k)

    def __len__(self) -> int:
        return self._len

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append ``(new_tokens, heads, head_dim)`` keys and values."""
        k = np.asarray(k, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        expected = (k.shape[0], self.n_heads, self.head_dim)
        if k.shape != expected or v.shape != expected:
            raise ConfigError(
                f"cache append shape {k.shape}/{v.shape}, expected {expected}"
            )
        need = self._len + k.shape[0]
        if need > self._capacity:
            while self._capacity < need:
                self._capacity *= 2
            self._k = np.resize(self._k, (self._capacity, self.n_heads, self.head_dim))
            self._v = np.resize(self._v, (self._capacity, self.n_heads, self.head_dim))
        self._k[self._len:need] = k
        self._v[self._len:need] = v
        self._len = need

    def keys(self) -> np.ndarray:
        return self._k[:self._len]

    def values(self) -> np.ndarray:
        return self._v[:self._len]

    def reset(self) -> None:
        self._len = 0


class LatentKVCache:
    """Compressed cache for MLA: stores the (seq, kv_rank) latent only."""

    def __init__(self, kv_rank: int, initial_capacity: int = 64) -> None:
        if kv_rank <= 0:
            raise ConfigError("kv_rank must be positive")
        self.kv_rank = kv_rank
        self._capacity = max(1, initial_capacity)
        self._len = 0
        self._latent = np.zeros((self._capacity, kv_rank), dtype=np.float32)

    def __len__(self) -> int:
        return self._len

    def append(self, latent: np.ndarray) -> None:
        latent = np.asarray(latent, dtype=np.float32)
        if latent.ndim != 2 or latent.shape[1] != self.kv_rank:
            raise ConfigError(
                f"latent shape {latent.shape}, expected (*, {self.kv_rank})"
            )
        need = self._len + latent.shape[0]
        if need > self._capacity:
            while self._capacity < need:
                self._capacity *= 2
            self._latent = np.resize(self._latent, (self._capacity, self.kv_rank))
        self._latent[self._len:need] = latent
        self._len = need

    def latents(self) -> np.ndarray:
        return self._latent[:self._len]
