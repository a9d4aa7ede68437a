"""Timed-request workloads: stationary generators and non-stationary traffic.

:class:`TimedRequest` is what every server replays.
:func:`poisson_workload` and :func:`multi_turn_workload` are
*stationary*: one arrival rate, one prompt shape, forever.  Real traffic
is not -- load ramps with the day, spikes when something goes viral, and
the *kind* of request shifts as a product's hot path moves.  Each
generator here produces a seeded, bit-reproducible
:class:`TimedRequest` list exhibiting one of those
non-stationarities, and :func:`three_phase_scenario` chains all three
into the canonical traffic-shift suite the ``adaptive`` bench sweeps:

- :func:`diurnal_workload` -- a sinusoidal arrival-rate ramp (trough to
  peak and back over one period), the slow drift a static config is
  tuned against;
- :func:`flash_crowd_workload` -- a piecewise-constant base rate with a
  sudden burst window at a rate multiplier, the overload transient that
  punishes a small batch cap;
- :func:`hot_set_shift_workload` -- a mid-run swap of the dominant
  request archetype (short interactive prompts over one hot vocabulary
  slice vs long analytic prompts over another), the workload-mix drift
  that stales chunking and cache decisions.

All arrivals are generated sequentially from one
``np.random.default_rng(seed)`` stream (clock advances by an
exponential draw at the instantaneous rate), so a generator's output is
a pure function of its arguments.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .priority import Priority
from .session import GenerationRequest


@dataclass(frozen=True)
class TimedRequest:
    """A request plus its (simulated) arrival time and priority class.

    ``priority`` only matters to schedulers configured with a
    :class:`~repro.serving.priority.PriorityConfig`; FIFO scheduling
    ignores it (every request is effectively STANDARD).  ``session_id``
    tags the conversational session a turn belongs to -- ``None`` for
    one-shot traffic; only the engine's KV tier consults it (for think-time prediction and ahead-of-turn swap-in),
    so untagged workloads behave exactly as before.
    """

    arrival_us: float
    request: GenerationRequest
    priority: Priority = Priority.STANDARD
    session_id: str | None = None


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


@dataclass(frozen=True)
class TrafficPhase:
    """One named phase of a composed traffic scenario (``[start, end)``)."""

    name: str
    start_us: float
    end_us: float

    def __post_init__(self) -> None:
        if self.end_us <= self.start_us:
            raise ConfigError("phase end must come after its start")

    def covers(self, t_us: float) -> bool:
        """Whether an arrival at ``t_us`` belongs to this phase."""
        return self.start_us <= t_us < self.end_us


def _request(rng: np.random.Generator, prompt_len: int, vocab_lo: int,
             vocab_hi: int, max_new_tokens: int) -> GenerationRequest:
    """One generation request with its prompt drawn from a vocab slice."""
    prompt = rng.integers(vocab_lo, vocab_hi, size=prompt_len)
    return GenerationRequest(prompt=prompt, max_new_tokens=max_new_tokens)


def diurnal_workload(
    n_requests: int,
    period_us: float,
    trough_interarrival_us: float,
    peak_factor: float,
    prompt_len: int,
    max_new_tokens: int,
    vocab_size: int,
    seed: int = 0,
    start_us: float = 0.0,
    priority: Priority = Priority.STANDARD,
) -> list[TimedRequest]:
    """Sinusoidal arrival-rate ramp: trough -> peak -> trough per period.

    The instantaneous arrival rate at time ``t`` is the trough rate
    (``1 / trough_interarrival_us``) scaled by
    ``1 + (peak_factor - 1) * sin^2(pi * (t - start_us) / period_us)``,
    so the rate ramps smoothly from the trough to ``peak_factor`` times
    it at mid-period and back.  Arrivals are drawn sequentially: each
    interarrival is an exponential sample at the rate in force when the
    previous request landed.
    """
    if n_requests <= 0:
        raise ConfigError("n_requests must be positive")
    if period_us <= 0 or trough_interarrival_us <= 0:
        raise ConfigError("period and interarrival must be positive")
    if peak_factor < 1:
        raise ConfigError("peak_factor must be >= 1")
    rng = np.random.default_rng(seed)
    out: list[TimedRequest] = []
    clock = start_us
    for _ in range(n_requests):
        phase = math.sin(math.pi * (clock - start_us) / period_us) ** 2
        factor = 1.0 + (peak_factor - 1.0) * phase
        clock += float(rng.exponential(trough_interarrival_us / factor))
        out.append(TimedRequest(
            arrival_us=clock,
            request=_request(rng, prompt_len, 1, vocab_size,
                             max_new_tokens),
            priority=priority,
        ))
    return out


def flash_crowd_workload(
    n_requests: int,
    base_interarrival_us: float,
    burst_start_us: float,
    burst_duration_us: float,
    burst_factor: float,
    prompt_len: int,
    max_new_tokens: int,
    vocab_size: int,
    seed: int = 0,
    start_us: float = 0.0,
    priority: Priority = Priority.STANDARD,
) -> list[TimedRequest]:
    """Steady arrivals with a sudden burst window at a rate multiplier.

    Outside ``[burst_start_us, burst_start_us + burst_duration_us)`` the
    arrival process is Poisson at ``1 / base_interarrival_us``; inside
    it the rate jumps by ``burst_factor`` -- the viral-moment transient.
    ``burst_start_us`` is measured from ``start_us``.
    """
    if n_requests <= 0:
        raise ConfigError("n_requests must be positive")
    if base_interarrival_us <= 0 or burst_duration_us <= 0:
        raise ConfigError("interarrival and burst duration must be positive")
    if burst_start_us < 0:
        raise ConfigError("burst_start_us must be >= 0")
    if burst_factor < 1:
        raise ConfigError("burst_factor must be >= 1")
    rng = np.random.default_rng(seed)
    out: list[TimedRequest] = []
    clock = start_us
    lo = start_us + burst_start_us
    hi = lo + burst_duration_us
    for _ in range(n_requests):
        factor = burst_factor if lo <= clock < hi else 1.0
        clock += float(rng.exponential(base_interarrival_us / factor))
        out.append(TimedRequest(
            arrival_us=clock,
            request=_request(rng, prompt_len, 1, vocab_size,
                             max_new_tokens),
            priority=priority,
        ))
    return out


def hot_set_shift_workload(
    n_requests: int,
    mean_interarrival_us: float,
    shift_us: float,
    short_prompt_len: int,
    long_prompt_len: int,
    max_new_tokens: int,
    vocab_size: int,
    hot_fraction: float = 0.9,
    seed: int = 0,
    start_us: float = 0.0,
    priority: Priority = Priority.STANDARD,
) -> list[TimedRequest]:
    """Mid-run swap of the dominant request archetype.

    Two archetypes share the stream: *interactive* (short prompts drawn
    from the lower half of the vocabulary) and *analytic* (long prompts
    from the upper half -- a different expert-routing hot set).  Before
    ``shift_us`` (measured from ``start_us``) an arrival is interactive
    with probability ``hot_fraction``; after it the mix inverts, so the
    prompt-length distribution and the token hot set both shift --
    exactly the drift that stales a tuned chunk budget and cache
    residency.
    """
    if n_requests <= 0:
        raise ConfigError("n_requests must be positive")
    if mean_interarrival_us <= 0:
        raise ConfigError("mean_interarrival_us must be positive")
    if shift_us < 0:
        raise ConfigError("shift_us must be >= 0")
    if not 0.5 <= hot_fraction <= 1:
        raise ConfigError("hot_fraction must be in [0.5, 1]")
    if vocab_size < 4:
        raise ConfigError("vocab_size too small to split into hot sets")
    if short_prompt_len <= 0 or long_prompt_len <= short_prompt_len:
        raise ConfigError(
            "need 0 < short_prompt_len < long_prompt_len")
    rng = np.random.default_rng(seed)
    out: list[TimedRequest] = []
    clock = start_us
    mid = vocab_size // 2
    for _ in range(n_requests):
        clock += float(rng.exponential(mean_interarrival_us))
        p_interactive = (hot_fraction if clock - start_us < shift_us
                         else 1.0 - hot_fraction)
        if rng.random() < p_interactive:
            req = _request(rng, short_prompt_len, 1, mid, max_new_tokens)
        else:
            req = _request(rng, long_prompt_len, mid, vocab_size,
                           max_new_tokens)
        out.append(TimedRequest(arrival_us=clock, request=req,
                                priority=priority))
    return out


def three_phase_scenario(
    prompt_len: int,
    max_new_tokens: int,
    vocab_size: int,
    phase_us: float = 30_000_000.0,
    trough_interarrival_us: float = 2_000_000.0,
    peak_factor: float = 3.0,
    burst_factor: float = 6.0,
    long_prompt_len: int | None = None,
    requests_per_phase: int | tuple[int, int, int] = 24,
    seed: int = 0,
) -> tuple[list[TimedRequest], tuple[TrafficPhase, ...]]:
    """The canonical 3-phase traffic-shift suite for the adaptive bench.

    Chains a diurnal ramp, a flash crowd (burst through the middle
    third of its phase), and a hot-set shift (archetype mix inverts at
    its phase midpoint) back to back, each ``phase_us`` long.
    ``requests_per_phase`` is one count for all phases or a per-phase
    triple (the phases' average rates differ, so matched counts keep
    each phase's arrivals inside its window); each phase draws from a
    phase-distinct sub-seed.  Arrivals a phase's exponential tail
    pushes past its window are clamped into it, so the phase boundaries
    partition the workload exactly.  Returns the merged, arrival-sorted
    workload plus the phase table benchmarks slice their per-phase
    goodput with.
    """
    if phase_us <= 0:
        raise ConfigError("phase_us must be positive")
    if isinstance(requests_per_phase, int):
        counts = (requests_per_phase,) * 3
    else:
        counts = tuple(requests_per_phase)
    if len(counts) != 3:
        raise ConfigError("requests_per_phase must be an int or a triple")
    long_len = (long_prompt_len if long_prompt_len is not None
                else 4 * prompt_len)
    diurnal = diurnal_workload(
        n_requests=counts[0], period_us=phase_us,
        trough_interarrival_us=trough_interarrival_us,
        peak_factor=peak_factor, prompt_len=prompt_len,
        max_new_tokens=max_new_tokens, vocab_size=vocab_size,
        seed=seed, start_us=0.0)
    flash = flash_crowd_workload(
        n_requests=counts[1],
        base_interarrival_us=trough_interarrival_us,
        burst_start_us=phase_us / 3, burst_duration_us=phase_us / 3,
        burst_factor=burst_factor, prompt_len=prompt_len,
        max_new_tokens=max_new_tokens, vocab_size=vocab_size,
        seed=seed + 1, start_us=phase_us)
    shift = hot_set_shift_workload(
        n_requests=counts[2],
        mean_interarrival_us=trough_interarrival_us,
        shift_us=phase_us / 2, short_prompt_len=prompt_len,
        long_prompt_len=long_len, max_new_tokens=max_new_tokens,
        vocab_size=vocab_size, seed=seed + 2, start_us=2 * phase_us)
    phases = (
        TrafficPhase("diurnal-ramp", 0.0, phase_us),
        TrafficPhase("flash-crowd", phase_us, 2 * phase_us),
        TrafficPhase("hot-set-shift", 2 * phase_us, 3 * phase_us),
    )
    workload: list[TimedRequest] = []
    for phase, batch in zip(phases, (diurnal, flash, shift)):
        for timed in batch:
            if timed.arrival_us >= phase.end_us:
                # Clamp exponential-tail stragglers into their phase so
                # the phase table partitions the workload exactly.
                timed = dataclasses.replace(timed,
                                            arrival_us=phase.end_us - 1.0)
            workload.append(timed)
    return sorted(workload, key=lambda t: t.arrival_us), phases
