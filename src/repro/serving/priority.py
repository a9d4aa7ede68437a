"""Priority classes and the preemption policy of the serving engine.

The cloud-grade-SLO line of work frames multi-tenant serving as a
priority problem: latency-sensitive (INTERACTIVE) requests must not sit
behind bulk (BATCH) traffic, yet bulk traffic must not starve either.
:class:`Priority` names the classes (smaller value = more urgent) and
:class:`PriorityConfig` shapes how the
:class:`~repro.serving.continuous.ContinuousBatchingServer` acts on them:

- **weighted aging** -- a waiting request's *effective* priority improves
  one class per ``aging_us`` of queueing, so BATCH work eventually ranks
  with INTERACTIVE work and can never be starved permanently;
- **preemption** -- when a higher-effective-priority request is blocked
  by KV-pool pressure or the batch-size cap, the scheduler may evict the
  lowest-priority in-flight victim via one of two mechanisms, chosen per
  victim by a cost model (see
  :meth:`repro.serving.pricing.BatchCostModel.swap_transfer_us` /
  :meth:`~repro.serving.pricing.BatchCostModel.recompute_resume_us`):

  * ``swap`` -- the victim's KV pages move to host memory over PCIe and
    move back on resume (priced on the possibly fault-degraded link);
  * ``recompute`` -- the pages are freed outright and the victim's
    context (prompt plus every token it already emitted) is re-prefilled
    in chunks when it resumes.

A server with a single priority class and no preemption opportunities is
bit-for-bit identical to the plain FIFO scheduler -- the priority order
degenerates to arrival order and no preemption trigger can fire.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from ..errors import ConfigError


class Priority(IntEnum):
    """Request urgency class; smaller values are served first."""

    INTERACTIVE = 0
    STANDARD = 1
    BATCH = 2


#: Lower-case class names keyed by priority value, for metrics keys.
PRIORITY_NAMES = {int(p): p.name.lower() for p in Priority}

#: Preemption-mechanism selection policies.
MECHANISMS = ("auto", "swap", "recompute")


@dataclass(frozen=True)
class PriorityConfig:
    """Priority scheduling and preemption policy knobs.

    ``aging_us`` is the queueing time that promotes a waiting request by
    one priority class (``None`` disables aging -- a pure static-priority
    scheduler that *can* starve BATCH work).  ``preemption`` gates the
    eviction machinery entirely; ``mechanism`` forces swap or recompute,
    or lets the per-victim cost model decide (``"auto"``).
    ``max_preemptions`` bounds how many times one request may be evicted,
    which also bounds priority-inversion thrash under aging.
    """

    aging_us: float | None = 10e6
    preemption: bool = True
    mechanism: str = "auto"
    max_preemptions: int = 2

    def __post_init__(self) -> None:
        if self.aging_us is not None and self.aging_us <= 0:
            raise ConfigError("aging_us must be positive or None")
        if self.mechanism not in MECHANISMS:
            raise ConfigError(
                f"unknown mechanism {self.mechanism!r}; expected one of "
                f"{MECHANISMS}")
        if self.max_preemptions < 0:
            raise ConfigError("max_preemptions must be >= 0")

    def effective_priority(self, priority: int, arrival_us: float,
                           now_us: float) -> int:
        """The aged priority of a request that arrived at ``arrival_us``.

        Every full ``aging_us`` of waiting promotes the request one
        class, clamped at INTERACTIVE; admission and victim selection
        both rank by this value, so a long-waiting BATCH request first
        stops being preemptible by fresher INTERACTIVE arrivals and then
        outranks them.
        """
        if self.aging_us is None:
            return int(priority)
        waited = max(0.0, now_us - arrival_us)
        return max(int(priority) - int(waited // self.aging_us),
                   int(Priority.INTERACTIVE))
