"""Expert feed-forward networks and their packed weights.

Each expert is a SwiGLU FFN: ``down( silu(x @ gate) * (x @ up) )``.
Weights are stored in the AMX tile layout so both CPU kernels can execute
them without repacking, and the Gate/Up matrices can optionally be fused
into a single GEMM (see :mod:`repro.moe.fused`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..kernels.base import CPUGemmKernel
from ..tensor.dtypes import BF16, DType
from ..tensor.layout import PackedWeights, pack_matrix


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish activation, computed stably for large negatives."""
    return x / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


@dataclass
class ExpertWeights:
    """One routed (or shared) expert's three projections, tile-packed."""

    gate: PackedWeights   # (hidden, intermediate)
    up: PackedWeights     # (hidden, intermediate)
    down: PackedWeights   # (intermediate, hidden)

    @property
    def hidden_size(self) -> int:
        return self.gate.rows

    @property
    def intermediate_size(self) -> int:
        return self.gate.cols

    def nbytes(self) -> int:
        return self.gate.nbytes() + self.up.nbytes() + self.down.nbytes()


def make_expert(
    hidden_size: int,
    intermediate_size: int,
    rng: np.random.Generator,
    dtype: DType = BF16,
    scale: float = 0.05,
) -> ExpertWeights:
    """Random-initialized expert with variance-scaled weights."""
    if hidden_size <= 0 or intermediate_size <= 0:
        raise ConfigError("expert dimensions must be positive")

    def init(rows, cols):
        w = rng.standard_normal((rows, cols)).astype(np.float32)
        return pack_matrix(w * scale, dtype)

    return ExpertWeights(
        gate=init(hidden_size, intermediate_size),
        up=init(hidden_size, intermediate_size),
        down=init(intermediate_size, hidden_size),
    )


def expert_forward(
    x: np.ndarray, expert: ExpertWeights, kernel: CPUGemmKernel
) -> np.ndarray:
    """Unfused expert FFN: three separate GEMMs plus the SwiGLU gate."""
    g = kernel.run(x, expert.gate)
    u = kernel.run(x, expert.up)
    h = silu(g) * u
    return kernel.run(h, expert.down)
