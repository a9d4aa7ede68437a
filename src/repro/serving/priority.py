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
from typing import TYPE_CHECKING

from ..errors import ConfigError

if TYPE_CHECKING:   # pragma: no cover - the engine imports this module
    from .continuous import ContinuousBatchingServer, _InFlight
    from .traffic import TimedRequest


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


@dataclass
class PreemptionStats:
    """Preemption, swap/recompute, and resume counters of one serving run.

    Attached to :class:`~repro.serving.metrics.ServingStats` by the
    :class:`PriorityScheduler` a
    :class:`~repro.serving.continuous.ContinuousBatchingServer` builds
    for its :class:`PriorityConfig`.  ``swap_stall_us`` is the total
    serving-clock time spent moving KV pages over PCIe (swap-out plus
    swap-in, on the possibly degraded link); ``recompute_tokens`` counts
    context tokens discarded by the recompute mechanism (each re-enters
    the prefill pipeline on resume).
    """

    preemptions: int = 0
    swaps: int = 0
    recomputes: int = 0
    resumes: int = 0
    swap_out_bytes: float = 0.0
    swap_in_bytes: float = 0.0
    swap_stall_us: float = 0.0
    recompute_tokens: int = 0
    shed_while_preempted: int = 0

    def summary(self) -> dict[str, float]:
        """Flat ``preempt_*`` counters merged into ``ServingStats.summary()``.

        Empty until a preemption fires: every counter is downstream of
        one, and an *inert* priority config (single class, or preemption
        never triggered) must leave the summary identical to the FIFO
        scheduler's.
        """
        if not self.preemptions:
            return {}
        return {
            "preempt_total": float(self.preemptions),
            "preempt_swaps": float(self.swaps),
            "preempt_recomputes": float(self.recomputes),
            "preempt_resumes": float(self.resumes),
            "preempt_swap_out_mb": self.swap_out_bytes / 1e6,
            "preempt_swap_in_mb": self.swap_in_bytes / 1e6,
            "preempt_swap_stall_ms": self.swap_stall_us / 1e3,
            "preempt_recompute_tokens": float(self.recompute_tokens),
            "preempt_shed_while_preempted": float(self.shed_while_preempted),
        }


class PriorityScheduler:
    """Admission ranking and preemption of one serving engine.

    Built by the engine only for a :class:`PriorityConfig`, attaching
    its :class:`PreemptionStats` as ``stats.preemptions``.  Owns the
    preempted requests (one list, updated in place) and the swap stall
    of the current admission round; page reservations stay with the
    engine.
    """

    def __init__(self, config: PriorityConfig,
                 server: "ContinuousBatchingServer") -> None:
        self.config = config
        self.server = server
        self.stats = PreemptionStats()
        server.stats.preemptions = self.stats
        self.preempted: list[_InFlight] = []
        self.stall_us = 0.0

    def effective(self, timed: "TimedRequest", clock: float) -> int:
        """The candidate's aged priority class at ``clock``."""
        return self.config.effective_priority(
            int(timed.priority), timed.arrival_us, clock)

    def next_candidate(self, pending: "list[TimedRequest]", clock: float):
        """Highest-ranked admission candidate, or ``None``.

        Candidates are previously preempted requests awaiting resume plus
        arrived queue entries (``pending`` is an arrival-descending
        stack), ranked by ``(effective priority, arrival,
        resume-before-new)``; ties keep the FIFO pop order, so a single
        priority class degenerates to strict arrival order.  Returns
        ``("resume", _InFlight)`` or ``("new", index into pending)``.
        """
        ranked = [((self.effective(a.timed, clock), a.timed.arrival_us, 0),
                   ("resume", a)) for a in self.preempted]
        for idx in range(len(pending) - 1, -1, -1):
            timed = pending[idx]
            if timed.arrival_us > clock:
                break
            ranked.append(((self.effective(timed, clock), timed.arrival_us,
                            1), ("new", idx)))
        if not ranked:
            return None
        return min(ranked, key=lambda r: r[0])[1]

    def make_room(self, active: "list[_InFlight]", timed: "TimedRequest",
                  clock: float, page_deficit: int = 0) -> int:
        """Try to free capacity for a blocked candidate by preempting.

        The victim is the in-flight request with the *worst* effective
        priority -- strictly worse than the candidate's, so same-class
        traffic never preempts itself (the bit-identity guarantee) and an
        aged BATCH request stops being evictable by fresh INTERACTIVE
        arrivals.  Victims below ``max_preemptions`` evictions only;
        latest-started wins ties (least work in flight to redo).  When
        the candidate is blocked on KV pages (``page_deficit > 0``) a
        feasibility precheck ensures the eligible victims can actually
        cover the deficit before any eviction happens, so preemptions are
        never wasted.  Removes the victim from ``active`` and returns its
        page reservation for the engine to release (0: no eviction).
        """
        if not self.config.preemption:
            return 0
        cand_eff = self.effective(timed, clock)
        eligible = [
            a for a in active
            if a.preempt_count < self.config.max_preemptions
            and self.effective(a.timed, clock) > cand_eff
        ]
        if not eligible:
            return 0
        if page_deficit > sum(a.reserved_pages for a in eligible):
            return 0
        victim = max(eligible, key=lambda a: (
            self.effective(a.timed, clock), a.start_us, a.slot))
        self._preempt(victim, clock)
        active[:] = [a for a in active if a is not victim]
        return victim.reserved_pages

    def _choose_mechanism(self, victim: "_InFlight", clock: float) -> str:
        """Swap vs recompute for this victim, per config and cost model.

        ``auto`` compares the round-trip PCIe cost of moving the victim's
        KV context out and back (on the link active *now* -- degraded
        links tilt toward recompute) against the estimated cost of
        re-prefilling the full context on resume, and picks the cheaper.
        """
        mech = self.config.mechanism
        if mech != "auto":
            return mech
        slot_tokens = victim.context_len - victim.shared_tokens
        if slot_tokens == 0:
            return "recompute"      # nothing in this slot: freeing is free
        costs = self.server.costs
        swap_us = 2.0 * costs.swap_transfer_us(
            slot_tokens, self.server.link_at(clock))
        rec_us = costs.recompute_resume_us(
            victim.prompt_len + victim.emitted - victim.shared_tokens)
        return "swap" if swap_us <= rec_us else "recompute"

    def _preempt(self, victim: "_InFlight", clock: float) -> None:
        """Evict one in-flight request out of its KV slot.

        Swap stashes the victim's pages host-side (both transfer legs
        stall the serving clock via :attr:`stall_us`); recompute frees
        them and rewinds the prefill state machine so the full context
        re-prefills on resume.
        """
        pool, costs, stats = self.server.pool, self.server.costs, self.stats
        stats.preemptions += 1
        victim.preempt_count += 1
        if self._choose_mechanism(victim, clock) == "swap":
            n_tokens = pool.swap_out(victim.slot)
            victim.swapped = True
            stall = costs.swap_transfer_us(n_tokens,
                                           self.server.link_at(clock))
            stats.swaps += 1
            stats.swap_out_bytes += costs.kv_swap_bytes(n_tokens)
            stats.swap_stall_us += stall
            self.stall_us += stall
        else:
            pool.free(victim.slot)
            victim.swapped = False
            stats.recomputes += 1
            # Only the slot-resident suffix is discarded: the shared
            # prefix stays pinned in the cache across the preemption,
            # so resume re-prefills from shared_tokens, not zero.
            stats.recompute_tokens += (
                victim.context_len - victim.shared_tokens)
            victim.prefill_target = victim.prompt_len + victim.emitted
            victim.prefilled = victim.shared_tokens
            victim.context_len = victim.shared_tokens
        self.preempted.append(victim)

    def resume(self, a: "_InFlight", clock: float) -> None:
        """Bring a preempted request back into a KV slot.

        Swapped victims re-upload their stashed KV into fresh pages (the
        second transfer leg, priced on the link active now); recompute
        victims just reopen an empty slot -- their context rebuilds
        through the ordinary prefill scheduler.
        """
        self.preempted[:] = [p for p in self.preempted if p is not a]
        pool, costs = self.server.pool, self.server.costs
        if a.swapped:
            n_tokens = a.context_len - a.shared_tokens
            a.slot = pool.swap_in(a.slot)
            a.swapped = False
            stall = costs.swap_transfer_us(n_tokens,
                                           self.server.link_at(clock))
            self.stats.swap_in_bytes += costs.kv_swap_bytes(n_tokens)
            self.stats.swap_stall_us += stall
            self.stall_us += stall
        else:
            a.slot = pool.allocate()
        self.stats.resumes += 1

    def take_stall(self) -> float:
        """The swap stall accrued since the last call (then reset)."""
        stall, self.stall_us = self.stall_us, 0.0
        return stall

    def pop_stalled(self, clock: float,
                    timeout: float) -> "list[_InFlight]":
        """Remove and return preempted requests parked past ``timeout``.

        Deadlines run from first admission.  They hold no KV pages, so
        only a host-side swap stash is discarded here.
        """
        kept: list[_InFlight] = []
        stalled: list[_InFlight] = []
        for a in self.preempted:
            (stalled if clock - a.start_us > timeout else kept).append(a)
        self.preempted[:] = kept
        for a in stalled:
            self.stats.shed_while_preempted += 1
            if a.swapped:
                self.server.pool.discard_swapped(a.slot)
        return stalled
