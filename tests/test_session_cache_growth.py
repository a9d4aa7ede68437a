"""Growth gate: session-cache bookkeeping grows linearly with sessions.

A multi-turn fleet shaped like the benchmark's sessions-fleet workload
(shared system prompt, two turns per session, four session-affinity
replicas with a host KV tier, one replica killed mid-run) replays at
``N`` and ``4N`` sessions.  The radix caches count their node visits
(candidate-heap tops examined, index checks and entries a heap
compaction examines) and the pools their page operations; each count
may grow at most 4.5x when the sessions quadruple.  A park pass that rescans the
whole tree on every admission round grows about 9x here.
"""

import pytest

from repro.faults import FaultPlan, ReplicaFault
from repro.model import QW2, MoETransformer, tiny_config
from repro.serving import (
    BatchSchedulerConfig,
    ContinuousBatchingServer,
    FleetConfig,
    FleetRouter,
    InferenceSession,
    KVTierConfig,
    PrefixCacheConfig,
    multi_turn_workload,
)

SESSIONS = 25
MAX_GROWTH = 4.5


@pytest.fixture(scope="module")
def session():
    return InferenceSession(MoETransformer(tiny_config("tiny-qw", top_k=2)),
                            QW2)


def _fleet_counts(session, n_sessions: int) -> tuple[int, int]:
    """(radix-node visits, pool page operations) of one fleet replay."""
    workload = multi_turn_workload(
        n_sessions=n_sessions, n_turns=2, system_tokens=128,
        user_tokens=32, assistant_tokens=32, max_new_tokens=8,
        vocab_size=64, mean_think_us=1e6, service_allowance_us=1e6,
        mean_session_offset_us=0.3e6, seed=2024)
    servers = []

    def make_server():
        server = ContinuousBatchingServer(
            session,
            BatchSchedulerConfig(kv_budget_tokens=4096, max_batch_size=8,
                                 pipeline_stages=2),
            prefix_cache=PrefixCacheConfig(),
            kv_tier=KVTierConfig(idle_park_us=2e6))
        servers.append(server)
        return server

    span = workload[-1].arrival_us
    kill = ReplicaFault(0.4 * span, 0.45 * span, replica=0, kind="kill")
    router = FleetRouter(make_server,
                         FleetConfig(n_replicas=4, policy="session-affinity"),
                         fault_plan=FaultPlan(replicas=(kill,)))
    stats = router.replay(workload)
    assert len(stats.merged.timings) == len(workload)
    visits = sum(s.prefix_cache.node_visits for s in servers)
    page_ops = sum(s.pool.page_ops for s in servers)
    return visits, page_ops


def test_bookkeeping_grows_linearly_with_sessions(session):
    small = _fleet_counts(session, SESSIONS)
    large = _fleet_counts(session, 4 * SESSIONS)
    for name, lo, hi in zip(("radix-node visits", "pool page operations"),
                            small, large):
        assert lo > 0
        assert hi <= MAX_GROWTH * lo, (
            f"{name} grew {hi / lo:.1f}x ({lo} -> {hi}) for 4x sessions")

