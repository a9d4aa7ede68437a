"""Resilience policy and degradation state machine for the serving loop.

The hardened :class:`~repro.serving.continuous.ContinuousBatchingServer`
survives injected faults with three mechanisms, all configured here:

- **retry with backoff** -- failed expert uploads re-attempt off the
  critical path on the :class:`~repro.faults.retry.RetryPolicy` schedule
  (capped attempts, seeded jitter), riding the prefetch window like any
  other upload instead of stalling the batch;
- **load shedding** -- admission-queue requests whose wait exceeds
  ``queue_timeout_us`` are shed, and in-flight requests decoding past
  ``decode_timeout_us`` are cut off, so a fault storm cannot grow the
  queue without bound (shed/timed-out requests count *against* goodput);
  preemption (:mod:`repro.serving.priority`) composes with shedding:
  preempted requests keep aging against ``decode_timeout_us`` while
  parked, and one that cannot resume in time is shed with its KV pages
  already released at eviction -- pages are freed exactly once whether a
  request finishes, is shed mid-flight, or is shed while preempted;
- **graceful degradation** -- :class:`DegradationTracker` runs the
  ``NORMAL -> DEGRADED -> PROBE`` state machine: after
  ``degrade_after`` consecutive failing iterations the expert cache is
  bypassed entirely (experts priced on the CPU, no uploads attempted)
  for ``degrade_cooldown_iters`` iterations, then a probe iteration
  re-tries the cache; a clean probe returns to normal (recording the
  recovery time), a failing one re-enters degraded mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import ConfigError
from ..faults.injector import FaultInjector
from ..faults.retry import RetryPolicy
from ..hw.roofline import overlapped_transfer_stall_us, pcie_transfer_time_us
from ..hw.spec import InterconnectSpec
from ..moe.expert_cache import ExpertCacheManager

if TYPE_CHECKING:   # pragma: no cover - metrics imports this module
    from .metrics import ServingStats

# Synchronous re-upload attempts the *naive* (no-ResilienceConfig) server
# makes per failed expert upload, each stalling the whole batch for the
# full PCIe transfer on the degraded link.
NAIVE_UPLOAD_ATTEMPTS = 8


@dataclass
class FaultStats:
    """Fault, retry, shedding, and degradation counters of one serving run.

    Attached to :class:`~repro.serving.metrics.ServingStats` by the
    :class:`UploadFaults` a serving engine builds when a fault injector
    or a resilience policy is active; the aggregate view (fault
    counters, retry histogram, shed/degraded counts, recovery times)
    lands in ``ServingStats.summary()`` via :meth:`summary`.
    """

    upload_failures: int = 0
    retries_attempted: int = 0
    retries_succeeded: int = 0
    retries_abandoned: int = 0
    retry_attempt_histogram: dict[int, int] = field(default_factory=dict)
    shed_requests: int = 0
    timed_out_requests: int = 0
    degraded_entries: int = 0
    degraded_iterations: int = 0
    recovery_times_us: list[float] = field(default_factory=list)
    fault_stall_us: float = 0.0

    def record_retry(self, attempt: int) -> None:
        """Count one retry attempt into the per-attempt histogram."""
        self.retries_attempted += 1
        self.retry_attempt_histogram[attempt] = (
            self.retry_attempt_histogram.get(attempt, 0) + 1)

    @property
    def mean_recovery_us(self) -> float:
        """Mean time from entering degraded mode back to normal operation."""
        if not self.recovery_times_us:
            return 0.0
        return sum(self.recovery_times_us) / len(self.recovery_times_us)

    def summary(self) -> dict[str, float]:
        """Flat ``fault_*`` counters merged into ``ServingStats.summary()``."""
        out = {
            "fault_upload_failures": float(self.upload_failures),
            "fault_retries_attempted": float(self.retries_attempted),
            "fault_retries_succeeded": float(self.retries_succeeded),
            "fault_retries_abandoned": float(self.retries_abandoned),
            "fault_shed_requests": float(self.shed_requests),
            "fault_timed_out_requests": float(self.timed_out_requests),
            "fault_degraded_entries": float(self.degraded_entries),
            "fault_degraded_iterations": float(self.degraded_iterations),
            "fault_recoveries": float(len(self.recovery_times_us)),
            "fault_mean_recovery_ms": self.mean_recovery_us / 1e3,
            "fault_stall_ms": self.fault_stall_us / 1e3,
        }
        for attempt in sorted(self.retry_attempt_histogram):
            out[f"fault_retry_attempt_{attempt}"] = float(
                self.retry_attempt_histogram[attempt])
        return out


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-handling policy of the hardened serving path.

    ``None`` timeouts disable the corresponding shedding mechanism;
    ``retry`` shapes upload retries; ``degrade_after`` /
    ``degrade_cooldown_iters`` parameterize the degradation state
    machine.  A server constructed *without* a ResilienceConfig but
    *with* a fault injector is the naive arm of the chaos bench: it
    blocks on failed uploads and never sheds.
    """

    retry: RetryPolicy = RetryPolicy()
    queue_timeout_us: float | None = None
    decode_timeout_us: float | None = None
    degrade_after: int = 3
    degrade_cooldown_iters: int = 6

    def __post_init__(self) -> None:
        if self.queue_timeout_us is not None and self.queue_timeout_us <= 0:
            raise ConfigError("queue_timeout_us must be positive or None")
        if self.decode_timeout_us is not None and self.decode_timeout_us <= 0:
            raise ConfigError("decode_timeout_us must be positive or None")
        if self.degrade_after <= 0:
            raise ConfigError("degrade_after must be positive")
        if self.degrade_cooldown_iters <= 0:
            raise ConfigError("degrade_cooldown_iters must be positive")


@dataclass
class RetryState:
    """One outstanding expert-upload retry (hardened path bookkeeping)."""

    layer: int
    expert: int
    attempt: int            # the attempt that will run next (1-based)
    due_us: float           # serving-clock time the backoff expires


class DegradationTracker:
    """``NORMAL -> DEGRADED -> PROBE`` cache-bypass state machine.

    NORMAL counts consecutive iterations with upload failures (or
    abandoned retries); hitting ``degrade_after`` enters DEGRADED, where
    the server bypasses the expert cache for ``degrade_cooldown_iters``
    iterations.  The cooldown expiring moves to PROBE: the next
    iteration runs the cache path again, and its outcome either returns
    to NORMAL (recording recovery time since the episode began) or falls
    straight back to DEGRADED without starting a new episode.
    """

    NORMAL = "normal"
    DEGRADED = "degraded"
    PROBE = "probe"

    def __init__(self, config: ResilienceConfig) -> None:
        self.config = config
        self.mode = self.NORMAL
        self.consecutive_failures = 0
        self.cooldown_left = 0
        self.entered_at_us = 0.0

    @property
    def bypassing(self) -> bool:
        """True while the server must price experts without the cache."""
        return self.mode == self.DEGRADED

    def tick_bypass(self) -> None:
        """Account one degraded (cache-bypassed) iteration."""
        if self.mode != self.DEGRADED:
            raise ConfigError("tick_bypass outside degraded mode")
        self.cooldown_left -= 1
        if self.cooldown_left <= 0:
            self.mode = self.PROBE

    def observe(self, had_failures: bool, clock_us: float,
                stats: FaultStats) -> None:
        """Feed one cache-path iteration's failure outcome into the machine."""
        if self.mode == self.NORMAL:
            if had_failures:
                self.consecutive_failures += 1
                if self.consecutive_failures >= self.config.degrade_after:
                    self._enter_degraded(clock_us, stats, new_episode=True)
            else:
                self.consecutive_failures = 0
        elif self.mode == self.PROBE:
            if had_failures:
                self._enter_degraded(clock_us, stats, new_episode=False)
            else:
                self.mode = self.NORMAL
                self.consecutive_failures = 0
                stats.recovery_times_us.append(clock_us - self.entered_at_us)

    def _enter_degraded(self, clock_us: float, stats: FaultStats,
                        new_episode: bool) -> None:
        self.mode = self.DEGRADED
        self.cooldown_left = self.config.degrade_cooldown_iters
        self.consecutive_failures = 0
        if new_episode:
            self.entered_at_us = clock_us
            stats.degraded_entries += 1


class UploadFaults:
    """Upload-fault handling of one serving engine.

    Built by the engine only for a fault injector or a resilience
    policy, attaching its :class:`FaultStats` as ``stats.faults`` (the
    engine counts its load shedding there too).  Without a
    :class:`ResilienceConfig` it is the *naive* arm (blocking
    re-uploads); with one, failed uploads retry off the critical path
    and a :class:`DegradationTracker` bypasses the cache while failures
    persist.
    """

    def __init__(self, injector: FaultInjector | None,
                 config: ResilienceConfig | None,
                 expert_cache: ExpertCacheManager | None,
                 stats: "ServingStats") -> None:
        self.injector = injector
        self.config = config
        self.expert_cache = expert_cache
        self.stats = FaultStats()
        stats.faults = self.stats
        self.degradation: DegradationTracker | None = None
        if (config is not None and injector is not None
                and expert_cache is not None):
            self.degradation = DegradationTracker(config)
        self.retries: list[RetryState] = []

    def bypass_iteration(self) -> bool:
        """Whether this iteration bypasses the expert cache (degraded).

        The engine then prices every routed expert on the CPU, with no
        residency update and no uploads; the iteration is counted.
        """
        if self.degradation is None or not self.degradation.bypassing:
            return False
        self.degradation.tick_bypass()
        self.stats.degraded_iterations += 1
        return True

    def upload_stall_us(self, clock: float, iteration: int,
                        uploads: tuple, window_us: float,
                        link: InterconnectSpec) -> float:
        """Handle one cache iteration's upload faults; returns the stall.

        Due retries run first, then failed ``uploads`` leave the cache
        and are re-uploaded synchronously (naive) or scheduled for retry.
        Entering degraded mode orphans in-flight retries: completing
        them buys nothing while the cache is bypassed.
        """
        extra_stall, had_failures = 0.0, False
        if self.retries:
            extra_stall, had_failures = self._process_retries(
                clock, iteration, window_us, link)
        failed: tuple[tuple[int, int], ...] = ()
        if self.injector is not None and uploads:
            failed = self.injector.failed_uploads(clock, iteration, uploads)
        if failed:
            had_failures = True
            self.stats.upload_failures += len(failed)
            for layer, expert in failed:
                self.expert_cache.fail_upload(layer, expert)
            if self.config is None:
                extra_stall += self._naive_retry_stall_us(
                    clock, iteration, failed, link)
            else:
                retry = self.config.retry
                for layer, expert in failed:
                    due = clock + retry.delay_us(
                        1, key=(iteration, layer, expert))
                    self.retries.append(RetryState(layer, expert, 1, due))
        if extra_stall:
            self.stats.fault_stall_us += extra_stall
        if self.degradation is not None:
            self.degradation.observe(had_failures, clock, self.stats)
            if self.degradation.bypassing and self.retries:
                self.stats.retries_abandoned += len(self.retries)
                self.retries.clear()
        return extra_stall

    def _process_retries(self, clock: float, iteration: int,
                         window_us: float,
                         link: InterconnectSpec) -> tuple[float, bool]:
        """Run upload retries whose backoff expired; returns (stall, gave_up).

        A successful retry re-admits the expert (if it still fits) and
        pays only the non-overlapped remainder of its transfer -- it
        rides the prefetch window like a planned upload.  A failing
        retry re-enqueues with the next backoff delay until the policy's
        attempt cap, then is abandoned (feeding the degradation
        tracker).
        """
        due = [r for r in self.retries if r.due_us <= clock]
        if not due:
            return 0.0, False
        keep = [r for r in self.retries if r.due_us > clock]
        retry = self.config.retry
        expert_bytes = self.expert_cache.config.expert_bytes
        stall = 0.0
        abandoned = False
        for r in due:
            self.stats.record_retry(r.attempt)
            fails = self.injector.retry_fails(
                clock, iteration, r.layer, r.expert, r.attempt)
            if not fails:
                self.stats.retries_succeeded += 1
                if self.expert_cache.admit(r.layer, r.expert):
                    stall += overlapped_transfer_stall_us(
                        expert_bytes, link, window_us)
            elif r.attempt >= retry.max_retries:
                self.stats.retries_abandoned += 1
                abandoned = True
            else:
                nxt = r.attempt + 1
                keep.append(RetryState(
                    r.layer, r.expert, nxt,
                    clock + retry.delay_us(
                        nxt, key=(iteration, r.layer, r.expert)),
                ))
        self.retries = keep
        return stall, abandoned

    def _naive_retry_stall_us(
        self, clock: float, iteration: int,
        failed: tuple[tuple[int, int], ...], link: InterconnectSpec,
    ) -> float:
        """Blocking synchronous re-uploads: the naive arm's failure mode.

        Every failed expert is re-uploaded immediately and synchronously
        -- each attempt stalls the *whole batch* for the full PCIe
        transfer on the (possibly degraded) link, compounding exactly the
        congestion that failed the upload in the first place.
        """
        expert_bytes = self.expert_cache.config.expert_bytes
        xfer = pcie_transfer_time_us(expert_bytes, link)
        stall = 0.0
        for layer, expert in failed:
            for attempt in range(1, NAIVE_UPLOAD_ATTEMPTS + 1):
                self.stats.record_retry(attempt)
                stall += xfer
                if not self.injector.retry_fails(
                        clock, iteration, layer, expert, attempt):
                    self.stats.retries_succeeded += 1
                    self.expert_cache.admit(layer, expert)
                    break
            else:
                self.stats.retries_abandoned += 1
        return stall
