"""ARI-based hybrid kernel dispatch (Section 3.2).

Figure 7 shows the AVX-512 kernel beating AMX whenever at most four tokens
are routed to an expert, because AMX must pad work to full 16-row tiles and
pays higher per-call latency.  :class:`HybridKernel` therefore switches
kernels per GEMM based on the token count -- both kernels consume the same
packed layout, so switching is free.

Which two kernels sit on either side of the crossover is no longer
hard-wired to AMX/AVX-512: a :class:`~repro.kernels.backend.KernelBackend`
from the registry in :mod:`repro.kernels.backend` supplies the latency and
throughput lanes (and the calibrated crossover) per backend, and
``KernelBackend.make_hybrid_kernel()`` builds the matching functional
dispatcher.  Constructed bare, :class:`HybridKernel` defaults to the
paper's KT AMX/AVX-512 pair.
"""

from __future__ import annotations

import numpy as np

from ..hw.spec import CPUSpec
from ..tensor.layout import PackedWeights
from .amx import AMXKernel
from .avx512 import AVX512Kernel
from .base import CPUGemmKernel

# Paper: "AVX-512 consistently outperforming AMX when ARI is four or fewer
# tokens per expert."
DEFAULT_ARI_THRESHOLD = 4


class HybridKernel(CPUGemmKernel):
    """Selects the latency lane for <= ``ari_threshold`` tokens, else the
    throughput lane.

    Defaults to the paper's pair (AVX-512 latency lane, AMX throughput
    lane); backends supply their own lanes via
    :meth:`repro.kernels.backend.KernelBackend.make_hybrid_kernel`.
    """

    def __init__(self, ari_threshold: int = DEFAULT_ARI_THRESHOLD,
                 latency_kernel: CPUGemmKernel | None = None,
                 throughput_kernel: CPUGemmKernel | None = None) -> None:
        if ari_threshold < 0:
            raise ValueError("ari_threshold must be non-negative")
        self.ari_threshold = ari_threshold
        self._throughput = throughput_kernel or AMXKernel()
        self._latency = latency_kernel or AVX512Kernel()

    def select(self, tokens: int) -> CPUGemmKernel:
        """The kernel that will execute a GEMM over ``tokens`` rows."""
        return (self._latency if tokens <= self.ari_threshold
                else self._throughput)

    def run(self, x: np.ndarray, weights: PackedWeights) -> np.ndarray:
        return self.select(np.asarray(x).shape[0]).run(x, weights)

    def cost_us(
        self,
        m: int,
        weights: PackedWeights,
        cpu: CPUSpec,
        threads_fraction: float = 1.0,
        weights_cached: bool = False,
    ) -> float:
        return self.select(m).cost_us(
            m, weights, cpu,
            threads_fraction=threads_fraction,
            weights_cached=weights_cached,
        )
