"""Fault-matrix tests: each fault type in isolation, pinned exactly.

Every fault channel is checked against the golden perturbation it must
produce -- PCIe degradation against the closed-form
:func:`~repro.hw.roofline.overlapped_transfer_stall_us` on the degraded
link, stragglers/NUMA against the simulator duration hook's exact task
scaling, the retry/backoff schedule against hardcoded values from the
fixed seed -- so fault semantics cannot drift without a test moving.
"""

import pytest

from repro.errors import ConfigError
from repro.faults import (
    ClockJitter,
    CpuStraggler,
    FaultInjector,
    FaultPlan,
    IDENTITY_PERTURBATION,
    NUMA_CPU_SHARE,
    NumaContention,
    PcieDegradation,
    RetryPolicy,
    StepPerturbation,
    UploadFailureWindow,
    canonical_chaos_plan,
)
from repro.hw.event_sim import Simulator
from repro.hw.roofline import (
    degraded_link,
    overlapped_transfer_stall_us,
    pcie_transfer_time_us,
)
from repro.hw.spec import paper_testbed

MACHINE = paper_testbed("a100")
LINK = MACHINE.interconnect


class TestPlanValidation:
    """FaultPlan and its windows reject malformed configurations."""

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigError):
            PcieDegradation(5.0, 5.0, bandwidth_fraction=0.5)

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigError):
            CpuStraggler(-1.0, 5.0, slowdown=2.0)

    def test_bandwidth_fraction_bounds(self):
        with pytest.raises(ConfigError):
            PcieDegradation(0.0, 1.0, bandwidth_fraction=0.0)
        with pytest.raises(ConfigError):
            PcieDegradation(0.0, 1.0, bandwidth_fraction=1.5)

    def test_straggler_speedup_rejected(self):
        with pytest.raises(ConfigError):
            CpuStraggler(0.0, 1.0, slowdown=0.5)

    def test_straggler_negative_socket_rejected(self):
        with pytest.raises(ConfigError):
            CpuStraggler(0.0, 1.0, slowdown=2.0, socket=-1)

    def test_numa_speedup_rejected(self):
        with pytest.raises(ConfigError):
            NumaContention(0.0, 1.0, slowdown=0.9)

    def test_probability_bounds(self):
        with pytest.raises(ConfigError):
            UploadFailureWindow(0.0, 1.0, probability=1.1)

    def test_jitter_sigma_bounds(self):
        with pytest.raises(ConfigError):
            ClockJitter(sigma=1.0)
        with pytest.raises(ConfigError):
            ClockJitter(sigma=-0.1)

    def test_wrong_window_type_in_plan_field(self):
        straggler = CpuStraggler(0.0, 1.0, slowdown=2.0)
        with pytest.raises(ConfigError):
            FaultPlan(pcie=(straggler,))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(seed=-1)

    def test_half_open_window_semantics(self):
        w = UploadFailureWindow(10.0, 20.0, probability=0.5)
        assert not w.active_at(9.999)
        assert w.active_at(10.0)
        assert w.active_at(19.999)
        assert not w.active_at(20.0)

    def test_empty_plan_is_empty(self):
        assert FaultPlan.empty().is_empty
        assert FaultPlan(jitter=ClockJitter(0.0)).is_empty
        assert not canonical_chaos_plan().is_empty


class TestPcieDegradationIsolated:
    """PCIe windows scale exactly the link bandwidth, nothing else."""

    def test_degraded_link_fields_exact(self):
        d = degraded_link(LINK, pcie_scale=0.25, cross_socket_scale=0.5)
        assert d.pcie_bandwidth == LINK.pcie_bandwidth * 0.25
        assert d.cross_socket_bandwidth == LINK.cross_socket_bandwidth * 0.5
        assert d.pcie_latency_us == LINK.pcie_latency_us
        assert d.cross_socket_latency_us == LINK.cross_socket_latency_us

    def test_identity_returns_same_object(self):
        assert degraded_link(LINK) is LINK
        assert IDENTITY_PERTURBATION.degrade_link(LINK) is LINK

    def test_degraded_stall_matches_closed_form(self):
        nbytes = 88e6
        frac = 0.08
        window = 5_000.0
        d = degraded_link(LINK, pcie_scale=frac)
        got = overlapped_transfer_stall_us(nbytes, d, window)
        expect = max(
            0.0,
            nbytes / (LINK.pcie_bandwidth * frac) * 1e6
            + LINK.pcie_latency_us - window,
        )
        assert got == expect
        # Degradation strictly lengthens the non-hidden remainder.
        assert got > overlapped_transfer_stall_us(nbytes, LINK, window)

    def test_perturbation_composes_worst_fraction(self):
        plan = FaultPlan(pcie=(
            PcieDegradation(0.0, 100.0, bandwidth_fraction=0.5),
            PcieDegradation(50.0, 100.0, bandwidth_fraction=0.2),
        ))
        inj = FaultInjector(plan)
        assert inj.perturbation_at(10.0, 0).pcie_scale == 0.5
        assert inj.perturbation_at(60.0, 0).pcie_scale == 0.2
        assert inj.perturbation_at(100.0, 0).pcie_scale == 1.0

    def test_link_query_is_the_perturbations_link(self):
        """``link_at`` degrades the link exactly as the iteration's
        perturbation does, and hands back the link itself outside every
        window, without the jitter draw."""
        plan = canonical_chaos_plan()
        inj = FaultInjector(plan)
        edges = sorted({t for w in plan.pcie + plan.numa
                        for t in (w.start_us, w.end_us)})
        times = [0.0] + edges + [t + 0.5 for t in edges]
        for step, t in enumerate(times):
            want = inj.perturbation_at(t, step).degrade_link(LINK)
            got = inj.link_at(t, LINK)
            assert got == want and (got is LINK) == (want is LINK)
        assert any(inj.link_at(t, LINK) is not LINK for t in times)


class TestStragglerAndNumaIsolated:
    """CPU-side faults scale simulated cpu tasks by the exact golden factor."""

    @staticmethod
    def _task_times(pert):
        """End times of one cpu, pcie, and gpu task under the hook."""
        sim = Simulator(perturb=pert.sim_hook())
        cpu = sim.submit("c", sim.resource("cpu"), 100.0)
        pcie = sim.submit("p", sim.resource("pcie"), 40.0)
        gpu = sim.submit("g", sim.resource("gpu"), 70.0)
        sim.drain()
        return tuple(sim.ends[t] - sim.starts[t] for t in (cpu, pcie, gpu))

    def test_straggler_scales_only_cpu_tasks(self):
        c, p, g = self._task_times(StepPerturbation(cpu_scale=1.6))
        assert c == 100.0 * 1.6
        assert p == 40.0
        assert g == 70.0

    def test_pcie_fraction_scales_only_pcie_tasks(self):
        c, p, g = self._task_times(StepPerturbation(pcie_scale=0.25))
        assert c == 100.0
        assert p == 40.0 / 0.25
        assert g == 70.0

    def test_numa_inflates_cross_socket_share_exactly(self):
        pert = StepPerturbation(numa_scale=1.4)
        scale = 1.0 + (1.4 - 1.0) * NUMA_CPU_SHARE
        assert pert.cpu_time_scale == scale
        c, p, g = self._task_times(pert)
        assert c == 100.0 * scale
        assert p == 40.0 and g == 70.0

    def test_straggler_and_numa_compose_multiplicatively(self):
        pert = StepPerturbation(cpu_scale=1.6, numa_scale=1.4)
        assert pert.cpu_time_scale == 1.6 * (1.0 + (1.4 - 1.0) * NUMA_CPU_SHARE)

    def test_identity_flags(self):
        assert IDENTITY_PERTURBATION.is_identity
        assert IDENTITY_PERTURBATION.prices_identity
        jittered = StepPerturbation(jitter_scale=1.01)
        assert jittered.prices_identity and not jittered.is_identity
        assert not StepPerturbation(cpu_scale=1.1).prices_identity


class TestClockJitterIsolated:
    """Jitter draws are bounded, seeded, and absent when unconfigured."""

    def test_jitter_within_sigma_and_deterministic(self):
        inj = FaultInjector(FaultPlan(seed=5, jitter=ClockJitter(0.02)))
        for step in range(20):
            j = inj.perturbation_at(0.0, step).jitter_scale
            assert 0.98 <= j <= 1.02
            assert j == inj.perturbation_at(0.0, step).jitter_scale
        # Different steps draw different jitter (not a constant factor).
        draws = {inj.perturbation_at(0.0, s).jitter_scale for s in range(20)}
        assert len(draws) > 1

    def test_no_jitter_is_exactly_one(self):
        inj = FaultInjector(FaultPlan.empty())
        assert inj.perturbation_at(0.0, 3).jitter_scale == 1.0

    def test_canonical_plan_perturbation_pinned(self):
        # Mid-storm (t=12s, all windows active) under the canonical plan.
        pert = FaultInjector(canonical_chaos_plan()).perturbation_at(12e6, 42)
        assert pert.cpu_scale == 1.3
        assert pert.pcie_scale == 0.02
        assert pert.numa_scale == 1.2
        assert pert.upload_failure_prob == 0.9
        assert pert.jitter_scale == pytest.approx(1.0115539360376573, abs=0.0)


class TestUploadFailuresIsolated:
    """The upload-failure channel is a seeded, windowed Bernoulli."""

    UPLOADS = ((0, 1), (0, 5), (0, 9), (0, 13))

    def test_outside_window_nothing_fails(self):
        inj = FaultInjector(FaultPlan(upload_failures=(
            UploadFailureWindow(100.0, 200.0, probability=1.0),)))
        assert inj.failed_uploads(50.0, 0, self.UPLOADS) == ()

    def test_probability_one_fails_everything(self):
        inj = FaultInjector(FaultPlan(upload_failures=(
            UploadFailureWindow(0.0, 200.0, probability=1.0),)))
        assert inj.failed_uploads(50.0, 0, self.UPLOADS) == self.UPLOADS

    def test_no_planned_uploads_short_circuits(self):
        inj = FaultInjector(FaultPlan(upload_failures=(
            UploadFailureWindow(0.0, 200.0, probability=1.0),)))
        assert inj.failed_uploads(50.0, 0, ()) == ()

    def test_draws_are_deterministic_per_step(self):
        inj = FaultInjector(FaultPlan(seed=3, upload_failures=(
            UploadFailureWindow(0.0, 200.0, probability=0.5),)))
        first = inj.failed_uploads(50.0, 7, self.UPLOADS)
        assert first == inj.failed_uploads(50.0, 7, self.UPLOADS)
        assert all(u in self.UPLOADS for u in first)

    def test_retry_fails_deterministic_and_validated(self):
        inj = FaultInjector(FaultPlan(seed=3, upload_failures=(
            UploadFailureWindow(0.0, 200.0, probability=0.5),)))
        assert (inj.retry_fails(50.0, 2, 0, 7, 1)
                == inj.retry_fails(50.0, 2, 0, 7, 1))
        assert not inj.retry_fails(500.0, 2, 0, 7, 1)  # outside the window
        with pytest.raises(ConfigError):
            inj.retry_fails(50.0, 2, 0, 7, 0)

    def test_negative_step_rejected(self):
        inj = FaultInjector(FaultPlan.empty())
        with pytest.raises(ConfigError):
            inj.perturbation_at(0.0, -1)


class TestRetryBackoffSchedule:
    """The backoff schedule is pinned exactly: base doubling, cap, jitter."""

    def test_default_schedule_pinned_exactly(self):
        assert RetryPolicy().schedule_us() == (
            206454.11309276635,
            380303.3136611676,
            942562.1138440734,
            1355934.1357120103,
        )

    def test_keyed_schedule_pinned_exactly(self):
        assert RetryPolicy().schedule_us(key=(7, 3, 5)) == (
            232720.05722003878,
            326503.3188760871,
            759226.3792299613,
            1923322.342283183,
        )

    def test_no_jitter_is_pure_capped_doubling(self):
        policy = RetryPolicy(max_retries=6, base_us=100.0, cap_us=800.0,
                             jitter=0.0)
        assert policy.schedule_us() == (100.0, 200.0, 400.0, 800.0,
                                        800.0, 800.0)

    def test_jitter_bounds_hold_for_every_attempt(self):
        policy = RetryPolicy(max_retries=8, base_us=100.0, cap_us=10_000.0,
                             jitter=0.25, seed=11)
        for attempt in range(1, 9):
            base = min(10_000.0, 100.0 * 2.0 ** (attempt - 1))
            d = policy.delay_us(attempt, key=(1, 2))
            assert base * 0.75 <= d <= base * 1.25

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_retries=0)
        with pytest.raises(ConfigError):
            RetryPolicy(base_us=1_000.0, cap_us=10.0)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(seed=-1)
        with pytest.raises(ConfigError):
            RetryPolicy().delay_us(0)


def test_transfer_time_on_degraded_link_scales_inverse():
    """Golden cross-check: halving bandwidth exactly doubles the DMA part."""
    nbytes = 1e9
    base = pcie_transfer_time_us(nbytes, LINK) - LINK.pcie_latency_us
    half = (pcie_transfer_time_us(nbytes, degraded_link(LINK, pcie_scale=0.5))
            - LINK.pcie_latency_us)
    assert half == pytest.approx(2.0 * base, rel=1e-12)
