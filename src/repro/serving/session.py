"""Inference sessions: functional tokens, simulated clocks.

An :class:`InferenceSession` couples the two halves of the reproduction:

- the **functional** stack generates actual tokens (optionally through the
  Expert Deferral engine): :meth:`InferenceSession.generate` streams real
  model output to direct callers and examples;
- the **performance** stack prices each phase on the simulated machine, so
  the session reports the TTFT/TPOT a Table-1-scale deployment would see.

Despite the name, a session is *not* a standalone serving loop and holds
no multi-turn state: it is the length/cost backend shared by both servers
-- the batch-1 :class:`~repro.serving.server.LocalServer` and the
iteration-level :class:`~repro.serving.continuous.
ContinuousBatchingServer`.  The servers schedule output *lengths*, read
from :meth:`InferenceSession.output_length`: every ``generate`` call is
stateless and runs to ``max_new_tokens`` unless a stop token ends it, so
the functional model runs only for requests that carry a stop token.
Conversational KV state across turns (shared system prompts, earlier
turns' pages) lives in the engine's radix prefix cache
(:mod:`repro.serving.prefix_cache`), not here.

Phase costs are measured once per (prompt-length bucket) via the same
engine entry points the benchmarks use, then cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..baselines.base import SystemProfile
from ..core.deferral import DeferralConfig, DeferralEngine
from ..core.engine import KTRANSFORMERS, run_decode, run_prefill
from ..errors import ConfigError
from ..hw.spec import MachineSpec, paper_testbed
from ..model.presets import ModelPreset
from ..model.transformer import MoETransformer
from ..tensor.dtypes import BF16, DType


@dataclass(frozen=True)
class GenerationRequest:
    """One generation call."""

    prompt: np.ndarray
    max_new_tokens: int
    greedy: bool = True
    temperature: float = 1.0
    stop_token: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_new_tokens <= 0:
            raise ConfigError("max_new_tokens must be positive")
        if len(np.atleast_1d(self.prompt)) == 0:
            raise ConfigError("prompt must not be empty")


@dataclass
class GenerationResult:
    """Generated tokens plus the simulated cost of producing them."""

    tokens: np.ndarray
    prefill_us: float
    per_token_us: float

    @property
    def n_tokens(self) -> int:
        return int(len(self.tokens))

    @property
    def total_us(self) -> float:
        return self.prefill_us + self.per_token_us * self.n_tokens

    @property
    def decode_tokens_per_s(self) -> float:
        if self.per_token_us <= 0:
            return 0.0
        return 1e6 / self.per_token_us


class PhaseCostModel:
    """Caches simulated prefill/decode costs per prompt-length bucket."""

    BUCKETS = (32, 128, 512, 2048, 8192)

    def __init__(self, system: SystemProfile, preset: ModelPreset,
                 machine: MachineSpec, dtype: DType,
                 n_deferred: int = 0) -> None:
        self.system = system
        self.preset = preset
        self.machine = machine
        self.dtype = dtype
        self.n_deferred = n_deferred
        self._prefill_us: dict[int, float] = {}
        self._per_token_us: Optional[float] = None

    def _bucket(self, prompt_len: int) -> int:
        for b in self.BUCKETS:
            if prompt_len <= b:
                return b
        return self.BUCKETS[-1]

    def prefill_us(self, prompt_len: int) -> float:
        bucket = self._bucket(prompt_len)
        if bucket not in self._prefill_us:
            r = run_prefill(self.system, self.preset, self.machine,
                            self.dtype, prompt_len=bucket)
            self._prefill_us[bucket] = r.elapsed_us / bucket
        return self._prefill_us[bucket] * prompt_len

    def per_token_us(self) -> float:
        if self._per_token_us is None:
            r = run_decode(self.system, self.preset, self.machine, self.dtype,
                           n_tokens=8, n_deferred=self.n_deferred)
            self._per_token_us = r.elapsed_us / 8
        return self._per_token_us


class InferenceSession:
    """A ready-to-serve deployment of a functional model."""

    def __init__(
        self,
        model: MoETransformer,
        preset: ModelPreset,
        machine: Optional[MachineSpec] = None,
        system: SystemProfile = KTRANSFORMERS,
        dtype: DType = BF16,
        n_deferred: Optional[int] = None,
    ) -> None:
        self.model = model
        self.preset = preset
        self.machine = machine or paper_testbed("a100")
        if n_deferred is None:
            n_deferred = 0
        self.n_deferred = n_deferred
        if n_deferred > 0:
            self._engine = DeferralEngine(model, DeferralConfig(n_deferred))
        else:
            self._engine = model
        self.costs = PhaseCostModel(system, preset, self.machine, dtype,
                                    n_deferred=n_deferred)

    def generate(
        self,
        request: GenerationRequest,
        on_token: Optional[Callable[[int, float], None]] = None,
    ) -> GenerationResult:
        """Serve one request; ``on_token(token, simulated_time_us)`` streams."""
        prompt = np.atleast_1d(np.asarray(request.prompt))
        tokens = self._engine.generate(
            prompt,
            max_new_tokens=request.max_new_tokens,
            greedy=request.greedy,
            temperature=request.temperature,
            stop_token=request.stop_token,
        )
        prefill_us = self.costs.prefill_us(len(prompt))
        per_token = self.costs.per_token_us()
        if on_token is not None:
            clock = prefill_us
            for t in tokens:
                clock += per_token
                on_token(int(t), clock)
        return GenerationResult(tokens=tokens, prefill_us=prefill_us,
                                per_token_us=per_token)

    def output_length(self, request: GenerationRequest) -> int:
        """How many tokens serving ``request`` emits.

        Without a stop token generation always runs to
        ``max_new_tokens``, so no forward pass is needed; with one, only
        the functional model knows where the stop token lands.
        """
        if request.stop_token is None:
            return request.max_new_tokens
        return self.generate(request).n_tokens
