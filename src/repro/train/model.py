"""Trainable MoE transformer (autograd twin of the inference model).

Parameter names and forward semantics mirror
:class:`repro.model.transformer.MoETransformer` exactly, so a trained
model's ``export_state_dict()`` loads straight into the inference model via
``load_state_dict`` -- the standard train-then-deploy flow.  An equivalence
test asserts that both models produce the same logits for the same weights.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd.ops import (
    causal_attend,
    embedding,
    rmsnorm,
    rope_apply,
    softmax,
)
from ..autograd.tensor import Tensor
from ..errors import ConfigError
from ..model.transformer import ModelConfig


class TrainableMoETransformer:
    """Full-sequence (teacher-forced) trainable twin of ``MoETransformer``."""

    def __init__(self, config: ModelConfig, seed: Optional[int] = None) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed if seed is None else seed)
        self.params: dict[str, Tensor] = {}
        # Auxiliary router losses collected during the last forward pass
        # (negative entropy of the top-k gate weights, one per MoE layer).
        self.aux_losses: list[Tensor] = []
        self._build(rng)

    # -- parameter construction ---------------------------------------------

    def _add(self, name: str, rows: int, cols: int,
             rng: np.random.Generator, scale: float = 0.05) -> None:
        self.params[name] = Tensor.param(
            rng.standard_normal((rows, cols)).astype(np.float32) * scale,
            name=name,
        )

    def _add_gain(self, name: str, dim: int) -> None:
        self.params[name] = Tensor.param(np.ones(dim, dtype=np.float32),
                                         name=name)

    def _build(self, rng: np.random.Generator) -> None:
        c = self.config
        h = c.hidden
        self._add("embed_tokens.weight", c.vocab_size, h, rng)
        for i in range(c.n_layers):
            p = f"layers.{i}"
            self._add_gain(f"{p}.input_norm.gain", h)
            if c.attention == "mla":
                self._add(f"{p}.self_attn.wq.weight", h, h, rng)
                self._add(f"{p}.self_attn.w_kv_down.weight", h, c.kv_rank, rng)
                self._add(f"{p}.self_attn.w_k_up.weight", c.kv_rank, h, rng)
                self._add(f"{p}.self_attn.w_v_up.weight", c.kv_rank, h, rng)
                self._add(f"{p}.self_attn.wo.weight", h, h, rng)
            else:
                for w in ("wq", "wk", "wv", "wo"):
                    self._add(f"{p}.self_attn.{w}.weight", h, h, rng)
            self._add_gain(f"{p}.post_attn_norm.gain", h)
            if i < c.first_dense_layers:
                self._add(f"{p}.mlp.gate_proj.weight", h, c.dense_intermediate, rng)
                self._add(f"{p}.mlp.up_proj.weight", h, c.dense_intermediate, rng)
                self._add(f"{p}.mlp.down_proj.weight", c.dense_intermediate, h, rng)
            else:
                self._add(f"{p}.mlp.gate.weight", h, c.n_experts, rng, scale=0.5)
                for j in range(c.n_shared_experts):
                    q = f"{p}.mlp.shared_experts.{j}"
                    self._add(f"{q}.w_gate", h, c.moe_intermediate, rng)
                    self._add(f"{q}.w_up", h, c.moe_intermediate, rng)
                    self._add(f"{q}.w_down", c.moe_intermediate, h, rng)
                for e in range(c.n_experts):
                    q = f"{p}.mlp.experts.{e}"
                    self._add(f"{q}.w_gate", h, c.moe_intermediate, rng)
                    self._add(f"{q}.w_up", h, c.moe_intermediate, rng)
                    self._add(f"{q}.w_down", c.moe_intermediate, h, rng)
        self._add_gain("norm.gain", h)
        self._add("lm_head.weight", h, c.vocab_size, rng)

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def export_state_dict(self) -> dict[str, np.ndarray]:
        """Weights keyed exactly like ``MoETransformer.state_dict()``."""
        return {name: p.data.copy() for name, p in self.params.items()}

    # -- forward ---------------------------------------------------------------

    def forward(self, token_ids: np.ndarray) -> Tensor:
        """Full-sequence causal forward; returns (seq, vocab) logits."""
        c = self.config
        ids = np.asarray(token_ids)
        positions = np.arange(len(ids))
        self.aux_losses = []
        x = embedding(self.params["embed_tokens.weight"], ids)
        for i in range(c.n_layers):
            x = self._layer(i, x, positions)
        x = rmsnorm(x, self.params["norm.gain"])
        return x @ self.params["lm_head.weight"]

    def _layer(self, i: int, x: Tensor, positions: np.ndarray) -> Tensor:
        p = f"layers.{i}"
        h = x + self._attention(p, rmsnorm(x, self.params[f"{p}.input_norm.gain"]),
                                positions)
        fin = rmsnorm(h, self.params[f"{p}.post_attn_norm.gain"])
        if i < self.config.first_dense_layers:
            return h + self._dense_ffn(p, fin)
        return h + self._moe(p, fin)

    def _attention(self, p: str, x: Tensor, positions: np.ndarray) -> Tensor:
        c = self.config
        seq = x.shape[0]
        heads, hd = c.n_heads, c.hidden // c.n_heads
        q = (x @ self.params[f"{p}.self_attn.wq.weight"]).reshape(seq, heads, hd)
        q = rope_apply(q, positions)
        if c.attention == "mla":
            latent = x @ self.params[f"{p}.self_attn.w_kv_down.weight"]
            k = (latent @ self.params[f"{p}.self_attn.w_k_up.weight"]
                 ).reshape(seq, heads, hd)
            v = (latent @ self.params[f"{p}.self_attn.w_v_up.weight"]
                 ).reshape(seq, heads, hd)
        else:
            k = (x @ self.params[f"{p}.self_attn.wk.weight"]).reshape(seq, heads, hd)
            v = (x @ self.params[f"{p}.self_attn.wv.weight"]).reshape(seq, heads, hd)
        k = rope_apply(k, positions)
        out = causal_attend(q, k, v, positions).reshape(seq, c.hidden)
        return out @ self.params[f"{p}.self_attn.wo.weight"]

    def _dense_ffn(self, p: str, x: Tensor) -> Tensor:
        g = x @ self.params[f"{p}.mlp.gate_proj.weight"]
        u = x @ self.params[f"{p}.mlp.up_proj.weight"]
        return (g.silu() * u) @ self.params[f"{p}.mlp.down_proj.weight"]

    def _expert_ffn(self, prefix: str, x: Tensor) -> Tensor:
        g = x @ self.params[f"{prefix}.w_gate"]
        u = x @ self.params[f"{prefix}.w_up"]
        return (g.silu() * u) @ self.params[f"{prefix}.w_down"]

    def _moe(self, p: str, fin: Tensor) -> Tensor:
        c = self.config
        out = Tensor(np.zeros_like(fin.data))
        for j in range(c.n_shared_experts):
            out = out + self._expert_ffn(f"{p}.mlp.shared_experts.{j}", fin)

        logits = fin @ self.params[f"{p}.mlp.gate.weight"]
        scores = softmax(logits)

        # Discrete selection mirrors repro.moe.router.route (numpy side)...
        masked = scores.data
        if c.n_groups > 1:
            masked = _grouped_mask(masked, c.n_groups, c.top_k_groups)
        k = c.top_k
        part = np.argpartition(-masked, k - 1, axis=1)[:, :k]
        part_scores = np.take_along_axis(masked, part, axis=1)
        order = np.argsort(-part_scores, axis=1, kind="stable")
        indices = np.take_along_axis(part, order, axis=1)

        # ...while the selected gate weights stay differentiable.
        top = scores.gather(indices, axis=-1)
        weights = top / top.sum(axis=-1, keepdims=True)

        # Router regularizer: negative entropy of the normalized top-k
        # weights.  Minimizing it (scaled by TrainConfig.router_entropy_coef)
        # spreads gate mass across the selected experts, mimicking the
        # load-balanced routing of production MoE training -- without it a
        # tiny router collapses onto slot 0 and the expert tail carries no
        # signal, which would make the deferral/skipping comparison vacuous.
        neg_entropy = (weights * (weights + 1e-9).log()).sum(axis=-1).mean()
        self.aux_losses.append(neg_entropy)

        n = fin.shape[0]
        for eid in np.unique(indices):
            tok, slot = np.nonzero(indices == eid)
            xe = fin.take_rows(tok)
            ye = self._expert_ffn(f"{p}.mlp.experts.{int(eid)}", xe)
            # The per-(token, slot) gate weight as a column vector.
            w = weights.take_rows(tok).gather(slot[:, None], axis=-1)
            out = out + (ye * w).scatter_rows(tok, n)
        return out


def _grouped_mask(scores: np.ndarray, n_groups: int, top_k_groups: int
                  ) -> np.ndarray:
    tokens, n_experts = scores.shape
    if n_experts % n_groups != 0:
        raise ConfigError("experts not divisible into groups")
    gsize = n_experts // n_groups
    grouped = scores.reshape(tokens, n_groups, gsize)
    gscores = grouped.max(axis=2)
    keep = np.argpartition(-gscores, top_k_groups - 1, axis=1)[:, :top_k_groups]
    mask = np.zeros((tokens, n_groups), dtype=bool)
    np.put_along_axis(mask, keep, True, axis=1)
    return np.where(mask[:, :, None], grouped, 0.0).reshape(tokens, n_experts)
