"""Unit tests for the online control plane (ISSUE 9).

Covers the windowed-signal substrate (``RollingWindow`` boundary and
empty-window semantics), the controller's
decision mechanics driven directly through ``tick`` (warmup, probe
moves, guarded rollback, ladder clamping, window alignment), the
``ControllerStats`` trace/summary surface, the fleet-level routing
weight adapter, and the engine integration gates (``ctrl_*`` summary
keys appear only when a controller is configured).
"""

import pytest

from repro.errors import ConfigError
from repro.model import QW2, MoETransformer, tiny_config
from repro.serving import (
    BatchSchedulerConfig,
    ContinuousBatchingServer,
    ControllerConfig,
    ControllerStats,
    FleetConfig,
    InferenceSession,
    OnlineController,
    RequestTiming,
    RollingWindow,
    RoutingWeightAdapter,
    RoutingWeightConfig,
    ServingSLO,
    ServingStats,
    poisson_workload,
)
from repro.serving.controller import KNOB_BATCH, KNOB_CHUNK, _KnobState

# A no-op SLO: every completion attains, so objective = completion rate.
WIDE_SLO = ServingSLO(ttft_ms=1e9, tpot_ms=1e9)


# --- RollingWindow (satellite: windowed metrics helper) ---------------------

def test_rolling_window_validation():
    with pytest.raises(ConfigError):
        RollingWindow(0.0)
    with pytest.raises(ConfigError):
        RollingWindow(-1.0)
    win = RollingWindow(100.0)
    win.add(10.0, 1.0)
    with pytest.raises(ConfigError):
        win.add(9.0, 1.0)     # timestamps must be non-decreasing
    win.add(10.0, 1.0)        # equal timestamps are fine


def test_rolling_window_empty_is_zero_not_error():
    """An empty window reads as no samples, not an error, whether
    nothing arrived yet or everything aged out."""
    win = RollingWindow(100.0)
    assert win.values(50.0) == []
    win.add(60.0, 3.0)
    assert win.values(160.0) == []


def test_rolling_window_boundary_half_open():
    """Window covers ``(now - w, now]``: a sample exactly one window old
    has aged out; a sample exactly at ``now`` is still in."""
    win = RollingWindow(100.0)
    win.add(10.0, 5.0)
    assert win.values(10.0) == [5.0]          # sample at now: included
    assert win.values(109.0) == [5.0]         # just inside
    assert win.values(110.0) == []            # exactly one window old: out
    # Trimming is permanent (the clock only moves forward).
    win.add(200.0, 7.0)
    assert win.values(200.0) == [7.0]
    # A sliding clock drops the oldest samples first, in arrival order.
    for i in range(10):
        win.add(300.0 + i * 10.0, float(i))
    assert win.values(390.0) == [float(i) for i in range(10)]
    assert win.values(444.0) == [5.0, 6.0, 7.0, 8.0, 9.0]


def _timing(arrival, finish, n_tokens=4, ttft_us=1000.0):
    return RequestTiming(
        arrival_us=arrival, start_us=arrival,
        first_token_us=min(arrival + ttft_us, finish), finish_us=finish,
        prompt_tokens=8, generated_tokens=n_tokens)


# --- ControllerConfig validation --------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"window_us": 0.0},
    {"warmup_windows": -1},
    {"ewma_alpha": 0.0},
    {"ewma_alpha": 1.5},
    {"rollback_tolerance": -0.1},
    {"shed_penalty": -1.0},
    {"chunk_ladder": ()},
    {"chunk_ladder": (256, 128)},          # not ascending
    {"chunk_ladder": (128, 128, 256)},     # not strict
    {"chunk_ladder": (0, 128)},            # non-positive rung
    {"batch_ladder": (8, 4)},
])
def test_controller_config_validation(kwargs):
    with pytest.raises(ConfigError):
        ControllerConfig(slo=WIDE_SLO, **kwargs)


def test_controller_config_defaults():
    cfg = ControllerConfig(slo=WIDE_SLO)
    assert cfg.batch_ladder == ()          # batch knob disabled by default
    assert cfg.warmup_windows == 1


# --- _KnobState cursor placement --------------------------------------------

def test_knob_state_base_on_ladder():
    k = _KnobState(KNOB_CHUNK, (128, 256, 512), 256)
    assert (k.idx, k.value, k.direction) == (1, 256, 1)


def test_knob_state_base_between_rungs_ties_low():
    assert _KnobState(KNOB_CHUNK, (100, 200), 150).idx == 0   # tie -> lower
    assert _KnobState(KNOB_CHUNK, (100, 200), 151).idx == 1
    assert _KnobState(KNOB_CHUNK, (100, 200), 1000).idx == 1


def test_knob_state_none_base_is_top_rung_cursor():
    """Monolithic prefill (None) sits at the top rung but keeps its None
    value until the first move, so warmup prices the static config."""
    k = _KnobState(KNOB_CHUNK, (128, 256, 512), None)
    assert k.idx == 2
    assert k.value is None


# --- OnlineController mechanics (driven directly) ---------------------------

def _controller(**overrides):
    kwargs = dict(slo=WIDE_SLO, window_us=100.0, warmup_windows=1,
                  ewma_alpha=1.0, rollback_tolerance=0.05,
                  chunk_ladder=(10, 20, 30), batch_ladder=())
    kwargs.update(overrides)
    stats = ControllerStats()
    ctrl = OnlineController(ControllerConfig(**kwargs),
                            base_chunk=10, base_batch=4, stats=stats)
    return ctrl, stats


def _feed(stats, t_us, n):
    """Append ``n`` SLO-attaining completions finishing at ``t_us``."""
    for _ in range(n):
        stats.add(_timing(max(t_us - 10.0, 0.0), t_us))


def test_controller_no_decision_before_boundary():
    ctrl, cstats = _controller()
    stats = ServingStats()
    assert ctrl.tick(50.0, stats, queue_depth=0) is None
    assert ctrl.tick(99.0, stats, queue_depth=0) is None
    assert cstats.windows == 0 and cstats.decisions == []


def test_controller_warmup_then_probe_then_keep():
    ctrl, cstats = _controller()
    stats = ServingStats()
    # Window 1 (warmup): observe only, no move.
    _feed(stats, 50.0, 5)
    assert ctrl.tick(100.0, stats, queue_depth=0) is None
    assert cstats.decisions[-1].action == "observe"
    # Window 2: first probe move along the default +1 direction.
    _feed(stats, 150.0, 5)
    moves = ctrl.tick(200.0, stats, queue_depth=0)
    assert moves == {KNOB_CHUNK: 20}
    assert cstats.decisions[-1].action == f"move:{KNOB_CHUNK}:+1"
    assert cstats.moves == 1
    # Window 3: objective held up, so the probe survives ("keep") and no
    # override is returned.
    _feed(stats, 250.0, 5)
    assert ctrl.tick(300.0, stats, queue_depth=0) is None
    assert cstats.decisions[-1].action == f"keep:{KNOB_CHUNK}"
    assert cstats.rollbacks == 0


def test_controller_guarded_rollback_reverts_and_flips():
    ctrl, cstats = _controller()
    stats = ServingStats()
    _feed(stats, 50.0, 5)
    ctrl.tick(100.0, stats, queue_depth=0)             # warmup
    _feed(stats, 150.0, 5)
    assert ctrl.tick(200.0, stats, queue_depth=0) == {KNOB_CHUNK: 20}
    # The probe window collapses (1 completion vs 5): guarded rollback.
    _feed(stats, 250.0, 1)
    moves = ctrl.tick(300.0, stats, queue_depth=0)
    assert moves == {KNOB_CHUNK: 10}                   # value restored
    assert cstats.decisions[-1].action == f"rollback:{KNOB_CHUNK}"
    assert cstats.rollbacks == 1
    # Direction flipped; the knob now sits at the bottom rung with its
    # base value, so the next probe turns back upward (inward).
    knob = ctrl._knobs[0]
    assert knob.direction == -1 and knob.value == 10
    # The baseline objective was restored (5 completions / 100 us).
    assert cstats.decisions[-1].objective == pytest.approx(5 / (100 / 1e6))


def test_controller_pinned_at_ladder_end_probes_inward():
    ctrl, cstats = _controller(chunk_ladder=(10, 20))
    stats = ServingStats()
    _feed(stats, 50.0, 5)
    ctrl.tick(100.0, stats, queue_depth=0)             # warmup
    _feed(stats, 150.0, 5)
    assert ctrl.tick(200.0, stats, queue_depth=0) == {KNOB_CHUNK: 20}
    _feed(stats, 250.0, 5)
    ctrl.tick(300.0, stats, queue_depth=0)             # keep (top rung)
    # Pinned at the top: the next probe flips inward instead of stalling.
    _feed(stats, 350.0, 5)
    assert ctrl.tick(400.0, stats, queue_depth=0) == {KNOB_CHUNK: 10}
    assert cstats.decisions[-1].action == f"move:{KNOB_CHUNK}:-1"


def test_controller_long_iteration_fires_one_decision():
    """An iteration crossing several window boundaries closes one window
    and realigns past the clock (no decision backlog)."""
    ctrl, cstats = _controller()
    stats = ServingStats()
    _feed(stats, 50.0, 3)
    ctrl.tick(350.0, stats, queue_depth=0)     # clock jumped 3.5 windows
    assert cstats.windows == 1
    assert ctrl._next_window_us == 400.0
    ctrl.tick(399.0, stats, queue_depth=0)
    assert cstats.windows == 1                 # still inside the new window


def test_controller_batch_knob_round_robin():
    ctrl, cstats = _controller(batch_ladder=(4, 8, 16))
    stats = ServingStats()
    _feed(stats, 50.0, 5)
    ctrl.tick(100.0, stats, queue_depth=0)             # warmup
    _feed(stats, 150.0, 5)
    first = ctrl.tick(200.0, stats, queue_depth=0)     # chunk probes first
    assert first == {KNOB_CHUNK: 20}
    _feed(stats, 250.0, 5)
    ctrl.tick(300.0, stats, queue_depth=0)             # keep
    _feed(stats, 350.0, 5)
    second = ctrl.tick(400.0, stats, queue_depth=0)    # batch knob's turn
    assert second == {KNOB_BATCH: 8}
    assert cstats.decisions[-1].action == f"move:{KNOB_BATCH}:+1"


def test_controller_slo_signal_steers_direction():
    """A TPOT violation (with TTFT healthy) pushes the chunk knob down
    even though its default probe direction is up."""
    slo = ServingSLO(ttft_ms=1e9, tpot_ms=0.001)       # 1 us TPOT target
    ctrl, cstats = _controller(slo=slo, chunk_ladder=(10, 20, 30))
    ctrl._knobs[0].idx = 1
    ctrl._knobs[0].value = 20                          # start mid-ladder
    stats = ServingStats()
    # Completions whose TPOT (~30 us/token) blows the 1 us target.
    for t in (30.0, 60.0, 150.0, 180.0):
        stats.add(_timing(0.0, t, n_tokens=4, ttft_us=1.0))
        ctrl.tick(t, stats, queue_depth=0)
    moves = ctrl.tick(200.0, stats, queue_depth=0)
    assert moves == {KNOB_CHUNK: 10}
    assert cstats.decisions[-1].action == f"move:{KNOB_CHUNK}:-1"


def test_controller_stats_trace_and_summary():
    ctrl, cstats = _controller(batch_ladder=(4, 8))
    stats = ServingStats()
    _feed(stats, 50.0, 2)
    ctrl.tick(100.0, stats, queue_depth=1)
    _feed(stats, 150.0, 2)
    ctrl.tick(200.0, stats, queue_depth=1)
    trace = cstats.trace()
    # (window, action, batch value, chunk value) -- knobs sorted by name.
    assert trace[0] == (1, "observe", 4, 10)
    assert trace[1] == (2, f"move:{KNOB_CHUNK}:+1", 4, 20)
    s = cstats.summary()
    assert s == {"ctrl_windows": 2.0, "ctrl_moves": 1.0,
                 "ctrl_rollbacks": 0.0}


# --- Fleet routing-weight adapter -------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"update_every": 0},
    {"ewma_alpha": 0.0},
    {"ewma_alpha": 1.5},
    {"floor": -0.1},
    {"floor": 1.0},
])
def test_routing_weight_config_validation(kwargs):
    with pytest.raises(ConfigError):
        RoutingWeightConfig(**kwargs)


def test_routing_weights_shift_toward_idle_replica():
    adapter = RoutingWeightAdapter(
        RoutingWeightConfig(update_every=1, ewma_alpha=1.0), 2)
    assert adapter.weights == [0.5, 0.5]
    # Replica 0 has 3 s of backlog, replica 1 is idle.
    adapter.observe([3e6, 0.0])
    assert adapter.updates == 1
    assert adapter.weights[1] > adapter.weights[0]
    assert sum(adapter.weights) == pytest.approx(1.0)
    assert min(adapter.weights) >= 0.05 / 2           # floor respected


def test_routing_weights_update_cadence():
    adapter = RoutingWeightAdapter(RoutingWeightConfig(update_every=4), 2)
    for _ in range(3):
        adapter.observe([5e6, 0.0])
    assert adapter.updates == 0 and adapter.weights == [0.5, 0.5]
    adapter.observe([5e6, 0.0])
    assert adapter.updates == 1


def test_routing_weight_pick_is_weighted_round_robin():
    adapter = RoutingWeightAdapter(RoutingWeightConfig(), 2)
    adapter.weights = [0.75, 0.25]
    picks = [adapter.pick([0, 1]) for _ in range(8)]
    assert picks.count(0) == 6 and picks.count(1) == 2
    # Equal weights degrade to plain round-robin, ties to lower index.
    even = RoutingWeightAdapter(RoutingWeightConfig(), 2)
    assert [even.pick([0, 1]) for _ in range(4)] == [0, 1, 0, 1]


def test_routing_weight_pick_respects_accepting_set():
    adapter = RoutingWeightAdapter(RoutingWeightConfig(), 3)
    adapter.weights = [0.8, 0.1, 0.1]
    # Replica 0 is not accepting: the pick must come from the others.
    assert adapter.pick([1, 2]) in (1, 2)
    with pytest.raises(ConfigError):
        adapter.pick([])


def test_fleet_config_rejects_weights_without_adaptive():
    with pytest.raises(ConfigError):
        FleetConfig(n_replicas=2, policy="round-robin",
                    routing_weights=RoutingWeightConfig())
    FleetConfig(n_replicas=2, policy="adaptive",
                routing_weights=RoutingWeightConfig())   # fine


# --- Engine integration gates -----------------------------------------------

def _engine_run(controller):
    session = InferenceSession(MoETransformer(tiny_config("tiny-qw")), QW2)
    server = ContinuousBatchingServer(
        session,
        BatchSchedulerConfig(kv_budget_tokens=512, max_batch_size=4,
                             prefill_chunk_tokens=16),
        controller=controller)
    workload = poisson_workload(
        n_requests=8, mean_interarrival_us=2e5, prompt_len=16,
        max_new_tokens=6, vocab_size=64, seed=3)
    return server, server.replay(list(workload))


def test_engine_controller_summary_gating():
    slo = ServingSLO(ttft_ms=2000, tpot_ms=500)
    cfg = ControllerConfig(slo=slo, window_us=5e5, warmup_windows=1,
                           chunk_ladder=(8, 16, 32, 64))
    server, stats = _engine_run(cfg)
    assert stats.controller is not None
    assert stats.controller.windows >= 1
    s = stats.summary()
    assert s["ctrl_windows"] == float(stats.controller.windows)
    # The engine's live config reflects the controller's moves.
    if stats.controller.moves > stats.controller.rollbacks:
        assert server.config.prefill_chunk_tokens in cfg.chunk_ladder

    _, off = _engine_run(None)
    assert off.controller is None
    assert not any(k.startswith("ctrl_") for k in off.summary())
