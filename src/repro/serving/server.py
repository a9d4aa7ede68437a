"""A batch-size-1 local serving loop over an inference session.

Local deployments (the paper's target) serve one request at a time; what
matters is queueing delay, time-to-first-token, and time-per-output-token.
``LocalServer`` replays a workload of timed requests through an
:class:`~repro.serving.session.InferenceSession`, producing a
:class:`~repro.serving.metrics.ServingStats` summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .metrics import RequestTiming, ServingStats
from .priority import Priority
from .session import GenerationRequest, InferenceSession


@dataclass(frozen=True)
class TimedRequest:
    """A request plus its (simulated) arrival time and priority class.

    ``priority`` only matters to schedulers configured with a
    :class:`~repro.serving.priority.PriorityConfig`; the FIFO servers
    ignore it (every request is effectively STANDARD).  ``session_id``
    tags the conversational session a turn belongs to -- ``None`` for
    one-shot traffic; only the continuous-batching server's KV tier
    consults it (for think-time prediction and ahead-of-turn swap-in),
    so untagged workloads behave exactly as before.
    """

    arrival_us: float
    request: GenerationRequest
    priority: Priority = Priority.STANDARD
    session_id: str | None = None


class LocalServer:
    """FIFO, batch-1 serving: requests queue while one generation runs.

    Each request is priced as one prefill plus
    :meth:`~repro.serving.session.InferenceSession.output_length` decode
    steps at the session's phase costs.
    """

    def __init__(self, session: InferenceSession) -> None:
        self.session = session
        self.stats = ServingStats()

    def replay(self, workload: list[TimedRequest]) -> ServingStats:
        """Serve a workload in arrival order; returns aggregate stats."""
        if not workload:
            raise ConfigError("empty workload")
        ordered = sorted(workload, key=lambda t: t.arrival_us)
        clock = 0.0
        for timed in ordered:
            start = max(clock, timed.arrival_us)
            prompt_len = len(np.atleast_1d(timed.request.prompt))
            n_tokens = self.session.output_length(timed.request)
            prefill_us = self.session.costs.prefill_us(prompt_len)
            per_token_us = self.session.costs.per_token_us()
            first_token = start + prefill_us + per_token_us
            # Service time is summed first, as GenerationResult.total_us
            # does: float addition is not associative.
            finish = start + (prefill_us + per_token_us * n_tokens)
            self.stats.add(RequestTiming(
                arrival_us=timed.arrival_us,
                start_us=start,
                first_token_us=first_token,
                finish_us=finish,
                prompt_tokens=prompt_len,
                generated_tokens=n_tokens,
            ))
            clock = finish
        return self.stats


def poisson_workload(
    n_requests: int,
    mean_interarrival_us: float,
    prompt_len: int,
    max_new_tokens: int,
    vocab_size: int,
    seed: int = 0,
    priority: Priority = Priority.STANDARD,
) -> list[TimedRequest]:
    """Synthetic open-loop workload with Poisson arrivals.

    ``priority`` tags every request with one class; mixed-class traffic
    is built by merging several calls (distinct seeds keep the arrival
    processes independent).
    """
    if n_requests <= 0:
        raise ConfigError("n_requests must be positive")
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(mean_interarrival_us, size=n_requests))
    out = []
    for a in arrivals:
        prompt = rng.integers(1, vocab_size, size=prompt_len)
        out.append(TimedRequest(
            arrival_us=float(a),
            request=GenerationRequest(prompt=prompt,
                                      max_new_tokens=max_new_tokens),
            priority=priority,
        ))
    return out


def multi_turn_workload(
    n_sessions: int,
    n_turns: int,
    system_tokens: int,
    user_tokens: int,
    assistant_tokens: int,
    max_new_tokens: int,
    vocab_size: int,
    mean_think_us: float,
    service_allowance_us: float,
    mean_session_offset_us: float = 0.0,
    seed: int = 0,
    priority: Priority = Priority.STANDARD,
) -> list[TimedRequest]:
    """Synthetic multi-turn conversational workload (open-loop).

    Every session shares one ``system_tokens``-long system prompt (the
    cross-session prefix a radix cache can dedupe); each turn's prompt
    is the previous turn's prompt plus ``assistant_tokens`` of filler
    standing in for the assistant reply plus ``user_tokens`` of fresh
    user text -- so context length grows linearly with turn count,
    exactly the growth pattern tiered KV serving has to absorb.  Turn
    ``k+1`` arrives ``service_allowance_us`` (time granted for serving
    turn ``k``) plus an exponential think-time sample after turn ``k``;
    session starts are staggered by exponential offsets of mean
    ``mean_session_offset_us``.  Being open-loop, the assistant filler
    is generator-drawn rather than the served model's actual output --
    prefix reuse therefore spans the *prompt* history, which is what
    the radix cache keys on anyway.  Requests are tagged with a
    per-session ``session_id`` and returned sorted by arrival.
    """
    if n_sessions <= 0 or n_turns <= 0:
        raise ConfigError("n_sessions and n_turns must be positive")
    if system_tokens <= 0 or user_tokens <= 0 or assistant_tokens < 0:
        raise ConfigError("prompt segment lengths must be positive")
    if mean_think_us < 0 or service_allowance_us < 0:
        raise ConfigError("think/service times must be >= 0")
    rng = np.random.default_rng(seed)
    system = rng.integers(1, vocab_size, size=system_tokens)
    out: list[TimedRequest] = []
    start = 0.0
    for s in range(n_sessions):
        if mean_session_offset_us > 0:
            start += float(rng.exponential(mean_session_offset_us))
        history = system
        arrival = start
        for _ in range(n_turns):
            user = rng.integers(1, vocab_size, size=user_tokens)
            prompt = np.concatenate([history, user])
            out.append(TimedRequest(
                arrival_us=arrival,
                request=GenerationRequest(prompt=prompt,
                                          max_new_tokens=max_new_tokens),
                priority=priority,
                session_id=f"session-{s:03d}",
            ))
            filler = rng.integers(1, vocab_size, size=assistant_tokens)
            history = np.concatenate([prompt, filler])
            think = (float(rng.exponential(mean_think_us))
                     if mean_think_us > 0 else 0.0)
            arrival = arrival + service_allowance_us + think
    return sorted(out, key=lambda t: t.arrival_us)
