"""Inference sessions: functional tokens, simulated clocks.

An :class:`InferenceSession` couples the two halves of the reproduction:

- the **functional** stack generates actual tokens (optionally through the
  Expert Deferral engine): :meth:`InferenceSession.generate` streams real
  model output to direct callers and examples;
- the **performance** stack prices each phase on the simulated machine, so
  the session reports the TTFT/TPOT a Table-1-scale deployment would see.

Despite the name, a session is *not* a standalone serving loop and holds
no multi-turn state: it is the deployment (system, preset, machine,
dtype, deferral) plus the length backend of the serving engine,
:class:`~repro.serving.continuous.ContinuousBatchingServer` (batch-1
serving is that engine at ``max_batch_size=1``).  The engine schedules
output *lengths*, read from :meth:`InferenceSession.output_length`:
every ``generate`` call is stateless and runs to ``max_new_tokens``
unless a stop token ends it, so the functional model runs only for
requests that carry a stop token.  Conversational KV state across turns
(shared system prompts, earlier turns' pages) lives in the engine's
radix prefix cache (:mod:`repro.serving.prefix_cache`), not here.

``session.costs`` is a default-configured
:class:`~repro.serving.pricing.BatchCostModel`: ``generate`` prices the
prefill pass and each token exactly as the batch-1 engine charges a lone
request's prefill pass and first decode step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..baselines.base import SystemProfile
from ..core.deferral import DeferralConfig, DeferralEngine
from ..core.engine import KTRANSFORMERS
from ..errors import ConfigError
from ..hw.spec import MachineSpec, paper_testbed
from ..model.presets import ModelPreset
from ..model.transformer import MoETransformer
from ..tensor.dtypes import BF16, DType
from .pricing import BatchCostModel


@dataclass(frozen=True)
class GenerationRequest:
    """One generation call."""

    prompt: np.ndarray
    max_new_tokens: int
    greedy: bool = True
    temperature: float = 1.0
    stop_token: Optional[int] = None
    # The prompt's token count, read once here for every scheduler.
    prompt_len: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_new_tokens <= 0:
            raise ConfigError("max_new_tokens must be positive")
        prompt_len = len(np.atleast_1d(self.prompt))
        if prompt_len == 0:
            raise ConfigError("prompt must not be empty")
        object.__setattr__(self, "prompt_len", prompt_len)


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
        if n_deferred is None:
            n_deferred = 0
        # The functional model and the priced preset must both keep at
        # least two immediate experts; checking here fails a bad value
        # at construction, not at the first priced step.
        deferral = DeferralConfig(n_deferred)
        deferral.n_immediate(preset.top_k)
        self.model = model
        self.system = system
        self.preset = preset
        self.machine = machine or paper_testbed("a100")
        self.dtype = dtype
        self.n_deferred = n_deferred
        if n_deferred > 0:
            self._engine = DeferralEngine(model, deferral)
        else:
            self._engine = model
        self.costs = BatchCostModel(self)

    def generate(
        self,
        request: GenerationRequest,
        on_token: Optional[Callable[[int, float], None]] = None,
    ) -> GenerationResult:
        """Serve one request; ``on_token(token, simulated_time_us)`` streams."""
        prompt = np.atleast_1d(np.asarray(request.prompt))
        tokens = self._tokens(prompt, request)
        prefill_us = self.costs.batched_prefill_us(len(prompt))
        per_token = self.costs.decode_step_us([len(prompt)])
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
        prompt = np.atleast_1d(np.asarray(request.prompt))
        return len(self._tokens(prompt, request))

    def _tokens(self, prompt: np.ndarray,
                request: GenerationRequest) -> np.ndarray:
        """The tokens the functional model emits for ``request``; the
        model runs, nothing is priced."""
        return self._engine.generate(
            prompt,
            max_new_tokens=request.max_new_tokens,
            greedy=request.greedy,
            temperature=request.temperature,
            stop_token=request.stop_token,
        )
