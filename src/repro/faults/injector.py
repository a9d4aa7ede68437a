"""Fault injection: turning a :class:`~repro.faults.plan.FaultPlan` into
perturbed timelines.

The injector is *stateless*: every query is a pure function of the plan,
the serving clock, and stable integer keys (iteration index, expert
coordinates, retry attempt).  Stochastic draws seed a fresh
``numpy`` generator from ``[plan.seed, stream, *key]``, so the same plan
produces bit-identical perturbations however many times a run is
replayed -- the property the chaos harness's reproducibility tests pin.

Two wiring points push one coherent perturbed timeline through every
cost model:

- :meth:`StepPerturbation.sim_hook` installs into
  :class:`repro.hw.event_sim.Simulator` (``perturb=``) and rescales task
  durations by resource: ``cpu*`` tasks stretch by the straggler barrier
  plus the NUMA-inflated reduce share, ``pcie*`` tasks stretch by the
  inverse bandwidth fraction.  ``repro.sched.decode`` passes the hook
  through, so batched decode pricing sees the same degraded hardware;
- :meth:`StepPerturbation.degrade_link` produces the bandwidth-scaled
  :class:`~repro.hw.spec.InterconnectSpec` that
  :meth:`repro.moe.expert_cache.ExpertCacheManager.step` uses for upload
  transfer and stall accounting
  (:func:`repro.hw.roofline.overlapped_transfer_stall_us` on the same
  degraded link).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigError
from ..hw.event_sim import DurationScaling
from ..hw.roofline import degraded_link
from ..hw.spec import InterconnectSpec
from .plan import FaultPlan

# Share of a routed-expert layer's CPU time spent in cross-socket
# reduce/combine traffic; NUMA contention inflates only that share.
NUMA_CPU_SHARE = 0.3

# Private seed-stream tags keeping jitter / upload / retry draws independent.
_JITTER_STREAM = 101
_UPLOAD_STREAM = 211
_RETRY_STREAM = 307


@dataclass(frozen=True)
class StepPerturbation:
    """The fault state one serving iteration executes under.

    ``cpu_scale`` is the straggler barrier multiplier (>= 1),
    ``pcie_scale`` the remaining PCIe bandwidth fraction (<= 1),
    ``numa_scale`` the cross-socket contention multiplier (>= 1),
    ``jitter_scale`` this iteration's clock-noise factor, and
    ``upload_failure_prob`` the Bernoulli parameter of expert-upload
    failures.  All values are piecewise-constant per iteration, so
    pricing under a perturbation memoizes on :meth:`price_key`.
    """

    cpu_scale: float = 1.0
    pcie_scale: float = 1.0
    numa_scale: float = 1.0
    jitter_scale: float = 1.0
    upload_failure_prob: float = 0.0

    @property
    def is_identity(self) -> bool:
        """True when nothing is perturbed at all."""
        return (self.prices_identity and self.jitter_scale == 1.0
                and self.upload_failure_prob == 0.0)

    @property
    def prices_identity(self) -> bool:
        """True when step *pricing* is unperturbed (jitter rides outside)."""
        return (self.cpu_scale == 1.0 and self.pcie_scale == 1.0
                and self.numa_scale == 1.0)

    @property
    def cpu_time_scale(self) -> float:
        """Effective CPU-task multiplier: straggler barrier x NUMA share."""
        return self.cpu_scale * (1.0 + (self.numa_scale - 1.0) * NUMA_CPU_SHARE)

    def price_key(self) -> tuple[float, float, float]:
        """Memoization key for cost models pricing under this perturbation."""
        return (self.cpu_scale, self.pcie_scale, self.numa_scale)

    def sim_hook(self) -> DurationScaling:
        """A ``Simulator(perturb=...)`` hook applying this perturbation.

        CPU tasks stretch by :attr:`cpu_time_scale`; PCIe tasks stretch by
        ``1 / pcie_scale``; GPU/host tasks are untouched (the GPU itself
        is not a modelled fault domain).  The hook is a hashable value
        object: equal multipliers give equal, equally-hashed hooks, so
        step pricing memoized on the hook
        (:func:`repro.sched.decode.batched_step_time_us`) shares one
        entry across equal perturbations.
        """
        return DurationScaling(self.cpu_time_scale, 1.0 / self.pcie_scale)

    def degrade_link(self, link: InterconnectSpec) -> InterconnectSpec:
        """``link`` with PCIe/UPI bandwidth scaled by this perturbation.

        Returns ``link`` itself (not a copy) when unperturbed, so
        unfaulted iterations reuse the exact same spec object and float
        arithmetic as a run with no injector.
        """
        return degraded_link(link, pcie_scale=self.pcie_scale,
                             cross_socket_scale=1.0 / self.numa_scale)


IDENTITY_PERTURBATION = StepPerturbation()


class FaultInjector:
    """Deterministic oracle answering "what is broken at time t?".

    Attach one to a
    :class:`~repro.serving.continuous.ContinuousBatchingServer`
    (``fault_injector=``); the serving loop queries
    :meth:`perturbation_at` once per decode iteration, :meth:`link_at`
    to price KV swaps and stage handoffs, and :meth:`failed_uploads` /
    :meth:`retry_fails` for the expert-upload fault channel.  All
    methods are pure given the plan.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def perturbation_at(self, t_us: float, step_idx: int) -> StepPerturbation:
        """The (piecewise-constant) perturbation active at ``t_us``.

        Overlapping windows compose pessimistically: the worst PCIe
        fraction wins, the slowest straggler sets the barrier, the worst
        NUMA contention applies.  ``step_idx`` seeds this iteration's
        jitter draw.
        """
        if step_idx < 0:
            raise ConfigError("step_idx must be >= 0")
        cpu = max((w.slowdown for w in self.plan.stragglers
                   if w.active_at(t_us)), default=1.0)
        pcie, numa = self._link_scales(t_us)
        prob = max((w.probability for w in self.plan.upload_failures
                    if w.active_at(t_us)), default=0.0)
        jitter = 1.0
        if self.plan.jitter is not None and self.plan.jitter.sigma > 0.0:
            rng = np.random.default_rng(
                [self.plan.seed, _JITTER_STREAM, step_idx])
            sigma = self.plan.jitter.sigma
            jitter = float(rng.uniform(1.0 - sigma, 1.0 + sigma))
        return StepPerturbation(
            cpu_scale=cpu, pcie_scale=pcie, numa_scale=numa,
            jitter_scale=jitter, upload_failure_prob=prob,
        )

    def link_at(self, t_us: float, link: InterconnectSpec
                ) -> InterconnectSpec:
        """``link`` degraded by the PCIe and NUMA windows active at
        ``t_us``: ``perturbation_at(t_us, step).degrade_link(link)``
        without the jitter draw, which a link never reads."""
        pcie, numa = self._link_scales(t_us)
        return degraded_link(link, pcie_scale=pcie,
                             cross_socket_scale=1.0 / numa)

    def _link_scales(self, t_us: float) -> tuple[float, float]:
        """The worst PCIe bandwidth fraction and NUMA slowdown at ``t_us``."""
        pcie = min((w.bandwidth_fraction for w in self.plan.pcie
                    if w.active_at(t_us)), default=1.0)
        numa = max((w.slowdown for w in self.plan.numa
                    if w.active_at(t_us)), default=1.0)
        return pcie, numa

    def failed_uploads(
        self, t_us: float, step_idx: int,
        uploads: Sequence[tuple[int, int]],
    ) -> tuple[tuple[int, int], ...]:
        """Which of this step's planned expert uploads fail in transit.

        One uniform draw per upload from the ``[seed, stream, step]``
        substream, compared against the failure probability active at
        ``t_us``; the subset (in upload order) is returned.
        """
        if not uploads:
            return ()
        prob = max((w.probability for w in self.plan.upload_failures
                    if w.active_at(t_us)), default=0.0)
        if prob <= 0.0:
            return ()
        rng = np.random.default_rng([self.plan.seed, _UPLOAD_STREAM, step_idx])
        draws = rng.random(len(uploads))
        return tuple(u for u, d in zip(uploads, draws) if d < prob)

    def retry_fails(self, t_us: float, step_idx: int, layer: int,
                    expert: int, attempt: int) -> bool:
        """Whether retry ``attempt`` of expert ``(layer, expert)`` fails.

        Seeded per ``(step, layer, expert, attempt)`` so every attempt is
        an independent -- but replayable -- Bernoulli draw against the
        failure probability active at ``t_us``.
        """
        if attempt <= 0:
            raise ConfigError("retry attempts are 1-based")
        prob = max((w.probability for w in self.plan.upload_failures
                    if w.active_at(t_us)), default=0.0)
        if prob <= 0.0:
            return False
        rng = np.random.default_rng(
            [self.plan.seed, _RETRY_STREAM, step_idx, layer, expert, attempt])
        return bool(rng.random() < prob)
