"""Seeded workloads of the repository benchmark.

Every workload is generated here from a seed; the simulator receives
only the resulting ``TimedRequest`` list.  The same seed rebuilds
identical inputs (so every ``sim_*`` metric repeats exactly), and a
different seed changes the arrival times (and, outside the fleet, the
prompt tokens).

Arrivals are timestamps on the *simulated* clock.  Open-loop latency is
therefore measured from when each request was due (``arrival_us``), and
the load generator can never run late: there is no real-time generator
to fall behind.

Arrivals are a fixed base trace perturbed by the seed.  The base trace
is drawn once (``TRACE_SEED``) as stratified Poisson arrivals: every
block of ``ARRIVAL_BLOCK`` consecutive arrivals is a Poisson process
conditioned on its count over the block's span, i.e. the sorted order
statistics of that many uniforms over it.  The run's seed then shifts
each arrival by up to ``ARRIVAL_JITTER`` mean interarrival times and
draws the prompt tokens; request shapes (lengths, priority classes,
sessions) and the storm's routing and fault streams stay with the base
trace.  A trace redrawn per seed would test more traffic shapes, but
with the ~200 requests a run can afford it moves TTFT/TPOT p95 by
20-50% between seeds, more than any useful regression bound; jitter
keeps the seeds distinct while the percentiles stay within a few
percent.

This module imports ``repro`` lazily (inside the builders), so
``run.py`` can list workloads without paying for the import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

VOCAB = 64           # tiny-qw vocabulary
MODEL = "tiny-qw"    # functional model
# The functional model's routing sets how many expert GEMMs each
# generated token runs, and so the wall cost of a sample; the simulated
# clock prices the preset's own routing and never sees it (same-seed
# digests match at top-2, 4 and 6).  Top-2 halves a sample against
# top-6, so a run fits enough samples for a steady median: on a shared
# 2-vCPU host one sample's replay time varies by about +-25%.
TOP_K = 2


@dataclass(frozen=True)
class Spec:
    """A named workload: why it is in the benchmark and how to build it."""

    name: str
    why: str
    bypasses: str
    build: Callable[[int], "Prepared"]


@dataclass
class Prepared:
    """A built workload, ready for its single ``replay()`` call.

    ``servers`` collects every ``ContinuousBatchingServer`` the workload
    constructed (fleet replicas are added as the router creates them),
    so post-run checks can inspect each KV pool.
    """

    workload: list
    replay: Callable[[list], object]
    servers: list
    slo: object
    kill_instants: tuple[float, ...] = ()


def _session(preset):
    from repro.model import MoETransformer, tiny_config
    from repro.serving import InferenceSession
    return InferenceSession(
        MoETransformer(tiny_config(MODEL, top_k=TOP_K)), preset)


TRACE_SEED = 2024
ARRIVAL_BLOCK = 4
ARRIVAL_JITTER = 0.3


def _stratified_poisson(rng, n: int, mean_interarrival_us: float):
    """``n`` Poisson arrivals, each block conditioned on its count."""
    import numpy as np
    return np.concatenate([
        np.sort(rng.uniform(lo * mean_interarrival_us,
                            hi * mean_interarrival_us, size=hi - lo))
        for lo, hi in ((lo, min(lo + ARRIVAL_BLOCK, n))
                       for lo in range(0, n, ARRIVAL_BLOCK))])


def _arrivals(rng, n: int, mean_interarrival_us: float):
    """The base trace of ``n`` arrivals, jittered by ``rng``."""
    import numpy as np
    base = _stratified_poisson(np.random.default_rng(TRACE_SEED), n,
                               mean_interarrival_us)
    jitter = ARRIVAL_JITTER * mean_interarrival_us
    return np.sort(np.maximum(base + rng.uniform(-jitter, jitter, size=n),
                              0.0))


# -- short-unshared ---------------------------------------------------------

SHORT_REQUESTS = 200
SHORT_INTERARRIVAL_US = 6e6
SHORT_PROMPT = 32
SHORT_NEW_TOKENS = 12
SHORT_SLO = (6_000.0, 1_500.0)         # TTFT ms, TPOT ms


def _short_unshared(seed: int) -> Prepared:
    import numpy as np
    from repro.model import DS3
    from repro.serving import (BatchSchedulerConfig, ContinuousBatchingServer,
                               GenerationRequest, ServingSLO, TimedRequest)
    rng = np.random.default_rng(seed)
    workload = [
        TimedRequest(float(a), GenerationRequest(
            prompt=rng.integers(1, VOCAB, size=SHORT_PROMPT),
            max_new_tokens=SHORT_NEW_TOKENS))
        for a in _arrivals(rng, SHORT_REQUESTS, SHORT_INTERARRIVAL_US)
    ]
    server = ContinuousBatchingServer(
        _session(DS3),
        BatchSchedulerConfig(kv_budget_tokens=4096, max_batch_size=16))
    return Prepared(workload, server.replay, [server], ServingSLO(*SHORT_SLO))


# -- storm ------------------------------------------------------------------

STORM_REQUESTS = 228                   # ~8% shed: >= 200 TTFT samples
STORM_INTERARRIVAL_US = 0.8e6
STORM_PROMPT = (64, 128)               # uniform length ranges
STORM_NEW_TOKENS = (10, 18)
STORM_CLASS_MIX = (0.25, 0.5, 0.25)    # INTERACTIVE, STANDARD, BATCH
STORM_SLO = (2_500.0, 850.0)
STORM_QUEUE_TIMEOUT_US = 2e6
STORM_DECODE_TIMEOUT_US = 20e6
STORM_AGING_US = 5e6
STORM_WINDOW_US = 2e6
# The controller tunes the chunk knob only: moving the batch cap too
# flipped replays between regimes from seed to seed.
STORM_CHUNK_LADDER = (128, 256, 512)
STORM_MAX_BATCH = 10                   # with the 2 s queue timeout, sets
                                       # how often it preempts and sheds
HOT_SET_SIZE = 16                      # drifting hot experts ...
HOT_MASS = 0.9                         # ... carrying 90% of routed tokens
ROTATE_EVERY = 6                       # iterations per hot-set shift
CACHE_EXPERTS = 24                     # GPU expert-cache capacity
STREAM_SEED = 91


def _storm(seed: int) -> Prepared:
    import numpy as np
    from repro.faults import FaultInjector, canonical_chaos_plan
    from repro.model import QW2
    from repro.sched.cuda_graph import GraphCacheConfig
    from repro.serving import (BatchSchedulerConfig, ContinuousBatchingServer,
                               ControllerConfig, GenerationRequest, Priority,
                               PriorityConfig, ResilienceConfig, ServingSLO,
                               TimedRequest, serving_expert_cache)
    from repro.tensor import BF16
    size = STORM_REQUESTS
    rng = np.random.default_rng(seed)
    arrivals = _arrivals(rng, size, STORM_INTERARRIVAL_US)
    # Classes and lengths belong to the base trace, like the arrivals the
    # seed jitters.  Lengths vary per request, which also smooths the
    # TTFT/TPOT distributions that chunked prefill would otherwise make
    # multimodal (whole numbers of chunk and decode iterations).
    trace = np.random.default_rng(TRACE_SEED)
    classes = trace.choice(
        [Priority.INTERACTIVE, Priority.STANDARD, Priority.BATCH],
        size=size, p=STORM_CLASS_MIX)
    prompt_lens = trace.integers(*STORM_PROMPT, size=size, endpoint=True)
    new_tokens = trace.integers(*STORM_NEW_TOKENS, size=size, endpoint=True)
    workload = [
        TimedRequest(float(a), GenerationRequest(
            prompt=rng.integers(1, VOCAB, size=int(n_prompt)),
            max_new_tokens=int(n_new)), priority=Priority(int(c)))
        for a, c, n_prompt, n_new in zip(arrivals, classes, prompt_lens,
                                         new_tokens)
    ]

    def routing_stream(iteration: int, batch: int):
        # A hot set of HOT_SET_SIZE experts slides every ROTATE_EVERY
        # iterations, so the residency cache keeps planning uploads until
        # the chaos plan's failed uploads switch it to bypass mode.
        r = np.random.default_rng(STREAM_SEED * 1_000_003 + iteration)
        base = (iteration // ROTATE_EVERY) * HOT_SET_SIZE % QW2.n_experts
        probs = np.full(QW2.n_experts,
                        (1.0 - HOT_MASS) / (QW2.n_experts - HOT_SET_SIZE))
        probs[base:base + HOT_SET_SIZE] = HOT_MASS / HOT_SET_SIZE
        return r.multinomial(batch * QW2.top_k, probs)

    session = _session(QW2)
    slo = ServingSLO(*STORM_SLO)
    server = ContinuousBatchingServer(
        session,
        BatchSchedulerConfig(kv_budget_tokens=4096,
                             max_batch_size=STORM_MAX_BATCH,
                             prefill_chunk_tokens=128,
                             graph_cache=GraphCacheConfig(),
                             gemm_dispatch="auto"),
        expert_cache=serving_expert_cache(
            session, vram_budget_bytes=CACHE_EXPERTS * QW2.expert_bytes(BF16)),
        routing_stream=routing_stream,
        fault_injector=FaultInjector(canonical_chaos_plan()),
        resilience=ResilienceConfig(queue_timeout_us=STORM_QUEUE_TIMEOUT_US,
                                    decode_timeout_us=STORM_DECODE_TIMEOUT_US),
        priorities=PriorityConfig(aging_us=STORM_AGING_US),
        controller=ControllerConfig(slo=slo, window_us=STORM_WINDOW_US,
                                    chunk_ladder=STORM_CHUNK_LADDER))
    return Prepared(workload, server.replay, [server], slo)


# -- sessions-fleet ---------------------------------------------------------

FLEET_SESSIONS = 100
FLEET_TURNS = 2
FLEET_REPLICAS = 4
FLEET_TURN = dict(system_tokens=128, user_tokens=32, assistant_tokens=32,
                  max_new_tokens=8, vocab_size=VOCAB, mean_think_us=1e6,
                  service_allowance_us=1e6)
FLEET_SESSION_GAP_US = 0.3e6    # mean gap between session starts
FLEET_KILL = (0.4, 0.45)        # replica 0 down for this share of the span
FLEET_SLO = (2_000.0, 420.0)


def _sessions_fleet(seed: int) -> Prepared:
    import dataclasses

    import numpy as np
    from repro.faults import FaultPlan, ReplicaFault
    from repro.model import QW2
    from repro.serving import (BatchSchedulerConfig, ContinuousBatchingServer,
                               FleetConfig, FleetRouter, KVTierConfig,
                               PrefixCacheConfig, ServingSLO,
                               multi_turn_workload)
    n_sessions = FLEET_SESSIONS
    # The generator's sessions (one shared system prompt, turns, think
    # times) form the base trace, all starting at 0; session starts then
    # follow the jittered base trace like the other workloads' arrivals.
    turns = multi_turn_workload(n_sessions=n_sessions, n_turns=FLEET_TURNS,
                                mean_session_offset_us=0.0, seed=TRACE_SEED,
                                **FLEET_TURN)
    starts = _arrivals(np.random.default_rng(seed), n_sessions,
                       FLEET_SESSION_GAP_US)
    workload = sorted(
        (dataclasses.replace(t, arrival_us=t.arrival_us + float(
            starts[int(t.session_id.rsplit("-", 1)[1])])) for t in turns),
        key=lambda t: t.arrival_us)
    # With few expert GEMMs per token, the long shared-prefix prompts
    # leave attention the largest layer.
    session = _session(QW2)
    servers: list = []

    def make_server():
        server = ContinuousBatchingServer(
            session,
            BatchSchedulerConfig(kv_budget_tokens=4096, max_batch_size=8,
                                 pipeline_stages=2),
            prefix_cache=PrefixCacheConfig(),
            kv_tier=KVTierConfig(idle_park_us=2e6))
        servers.append(server)
        return server

    # The kill window sits at a fixed share of the arrival span, so it
    # always lands mid-run whatever the seed.
    span = workload[-1].arrival_us
    kill = ReplicaFault(FLEET_KILL[0] * span, FLEET_KILL[1] * span,
                        replica=0, kind="kill")
    router = FleetRouter(make_server,
                         FleetConfig(n_replicas=FLEET_REPLICAS,
                                     policy="session-affinity"),
                         fault_plan=FaultPlan(replicas=(kill,)))
    return Prepared(workload, router.replay, servers, ServingSLO(*FLEET_SLO),
                    kill_instants=(kill.start_us,))


WORKLOADS: dict[str, Spec] = {
    spec.name: spec for spec in (
        Spec("short-unshared",
             "plain engine, short unshared prompts: functional generation "
             "(session, kernels) dominates and the pricing memo almost "
             "always hits",
             "task-graph simulation (memo hits), prefix cache, fleet",
             _short_unshared),
        Spec("storm",
             "one replica with every single-engine subsystem on under the "
             "canonical chaos plan: changing step shapes make memo misses "
             "drive the task-graph simulator",
             "prefix cache, fleet",
             _storm),
        Spec("sessions-fleet",
             "multi-turn sessions over a 4-replica session-affinity fleet "
             "with a mid-run kill: shared prefixes exercise the prefix "
             "cache, router and resubmission",
             "expert cache, fault injector, controller, graph cache",
             _sessions_fleet),
    )
}
